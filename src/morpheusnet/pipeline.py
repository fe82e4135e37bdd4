"""Signal preprocessing: resampling, epoching, robust scaling, subject splits.

Also owns the on-disk epoch container: magic ``EPO1``, a little-endian u32
epoch count, then one record per epoch of a u8 stage index followed by 3000
float32 samples.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from fractions import Fraction
from math import ceil, isqrt

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .edf import EdfFile, Hypnogram
from .model import STAGE_INDEX, STAGES

EPOCH_SAMPLES = 3000
EPOCH_SECONDS = 30
TARGET_HZ = 100
EPO_MAGIC = b"EPO1"
_EPO_RECORD = np.dtype([("stage", "u1"), ("x", "<f4", (EPOCH_SAMPLES,))])

_KAISER_BETA = 8.6
_TAPS = 64  # windowed-sinc support, 32 samples each side of the target position
_CHUNK = 1 << 18  # weight-matrix and window entries per chunk, for any length and ratio


@dataclass
class Recording:
    subject_id: str
    channel: str
    sample_rate_hz: float
    samples: np.ndarray

    def __post_init__(self) -> None:
        self.samples = np.asarray(self.samples, dtype=np.float64)
        if self.sample_rate_hz <= 0:
            raise ValueError("sample rate must be positive")


def recording_from_edf(edf: EdfFile, channel_label: str, subject_id: str) -> Recording:
    """Extract one signal by label as a physical-unit recording."""
    for i, sig in enumerate(edf.header.signals):
        if sig.label == channel_label:
            if edf.header.record_duration_s <= 0:
                raise ValueError("record duration must be positive")
            rate = sig.samples_per_record / edf.header.record_duration_s
            return Recording(subject_id, channel_label, rate, edf.physical(i))
    labels = [s.label for s in edf.header.signals]
    raise ValueError(f"channel {channel_label!r} not in {labels}")


def resample_signal(x: np.ndarray, src_hz: float, dst_hz: float) -> np.ndarray:
    """Windowed-sinc rate conversion with a Kaiser window and 64-tap support.

    The low-pass cutoff sits at the smaller of the two Nyquist rates. Output
    length is round(len(x) * dst / src); each output's weights are renormalised
    over its in-range taps. Equal rates return the input unchanged.

    Polyphase (Crochiere & Rabiner 1983): with src / dst = p / q in lowest
    terms, output k's weights depend only on k mod q. Each chunk applies a
    matrix of weight rows with one GEMM: the q phase rows over stride-p input
    windows when they fit, else a row per output (at its float position).
    """
    if src_hz <= 0 or dst_hz <= 0:
        raise ValueError("sample rates must be positive")
    x = np.asarray(x, dtype=np.float64)
    if src_hz == dst_hz:
        return x
    n_in = x.size
    n_out = int(np.floor(n_in * dst_hz / src_hz + 0.5))
    ratio = Fraction(float(src_hz)) / Fraction(float(dst_hz))
    p, q = ratio.numerator, ratio.denominator
    fc = min(1.0, dst_hz / src_hz)  # cutoff as a fraction of the source Nyquist
    half = _TAPS // 2
    phased = q * (p + _TAPS) <= _CHUNK
    step = q * max(1, _CHUNK // (p + _TAPS)) if phased else max(1, isqrt(_CHUNK // ceil(ratio)))
    out = np.empty(n_out, dtype=np.float64)
    for start in range(0, n_out, step):
        stop = min(start + step, n_out)
        if phased:  # output k sits at (k // q)·p + (k % q)·p / q
            pos = np.arange(q) * p
            origin, base, frac = start // q * p, pos // q, pos % q / q
        else:
            pos = np.arange(start, stop) * float(ratio)
            base = np.floor(pos).astype(np.int64)
            origin, frac, base = int(base[0]), pos - base, base - base[0]
        dist = frac[:, None] - np.arange(-half + 1, half + 1)
        kaiser = np.i0(_KAISER_BETA * np.sqrt(np.clip(1.0 - (dist / half) ** 2, 0.0, None)))
        rows = np.zeros((base.size, base[-1] + _TAPS))
        rows[np.arange(base.size)[:, None], base[:, None] + np.arange(_TAPS)] = (
            fc * np.sinc(fc * dist) * kaiser / np.i0(_KAISER_BETA))
        taps = origin - half + 1 + np.arange((stop - start - 1) // base.size * p + rows.shape[1])
        inside = (taps >= 0) & (taps < n_in)
        sums, norm = (sliding_window_view(v, rows.shape[1])[::p] @ rows.T for v in
                      (np.where(inside, x[np.clip(taps, 0, n_in - 1)], 0.0), inside * 1.0))
        norm[norm == 0] = 1.0
        out[start:stop] = (sums / norm).ravel()[:stop - start]
    return out


def resample(recording: Recording, target_hz: float = TARGET_HZ) -> Recording:
    return Recording(
        recording.subject_id,
        recording.channel,
        target_hz,
        resample_signal(recording.samples, recording.sample_rate_hz, target_hz),
    )


def _trim_pm30(stages: list[str | None]) -> tuple[int, int]:
    """Index range keeping at most 60 wake epochs around the scored sleep."""
    non_wake = [i for i, s in enumerate(stages) if s is not None and s != "W"]
    if not non_wake:
        return 0, len(stages)
    lo = max(0, non_wake[0] - 60)
    hi = min(len(stages), non_wake[-1] + 1 + 60)
    return lo, hi


def preprocess(recording: Recording, hypnogram: Hypnogram, trim: str = "pm30"):
    """Cut a 100 Hz recording into labeled, robustly scaled 30 s epochs.

    Every epoch is normalized by the whole recording's median and
    interquartile range. ``trim="pm30"`` keeps at most 30 minutes of wake on
    each side of the scored sleep period; unscored epochs are dropped either
    way. Returns a list of ``([1, 3000] float32, stage)`` pairs.
    """
    if trim not in ("pm30", "none"):
        raise ValueError(f"unknown trim mode {trim!r}")
    if recording.sample_rate_hz != TARGET_HZ:
        raise ValueError(f"recording must be resampled to {TARGET_HZ} Hz first")
    if hypnogram.epoch_duration_s != EPOCH_SECONDS:
        raise ValueError(f"hypnogram must use {EPOCH_SECONDS} s epochs")
    samples = recording.samples
    n_signal = samples.size // EPOCH_SAMPLES
    n_hyp = len(hypnogram.stages)
    if abs(n_signal - n_hyp) > 1:
        raise ValueError(
            f"recording covers {n_signal} epochs but hypnogram scores {n_hyp}"
        )
    n = min(n_signal, n_hyp)
    stages = list(hypnogram.stages[:n])

    lo, hi = _trim_pm30(stages) if trim == "pm30" else (0, n)

    median = float(np.median(samples))
    q75, q25 = np.percentile(samples, [75, 25])
    iqr = float(q75 - q25)
    if iqr < 1e-12:
        iqr = 1.0  # flat recording: leave the scale alone rather than divide by zero

    out = []
    for i in range(lo, hi):
        stage = stages[i]
        if stage is None:
            continue
        seg = samples[i * EPOCH_SAMPLES:(i + 1) * EPOCH_SAMPLES]
        epoch = ((seg - median) / iqr).astype(np.float32)[None, :]
        out.append((epoch, stage))
    return out


def write_epochs(path, epochs: np.ndarray, stages: np.ndarray) -> None:
    """Write an EPO1 container; ``epochs`` is ``[N, 1, 3000]`` float32, finite."""
    epochs = np.asarray(epochs, dtype=np.float32)
    if epochs.ndim != 3 or epochs.shape[1] != 1 or epochs.shape[2] != EPOCH_SAMPLES:
        raise ValueError(f"epochs must be [N, 1, {EPOCH_SAMPLES}], got {epochs.shape}")
    if len(stages) != len(epochs):
        raise ValueError("one stage per epoch required")
    stages = np.array([STAGE_INDEX[s] if isinstance(s, str) else s for s in stages], np.int64)
    _check_epochs(stages, epochs[:, 0])
    records = np.empty(len(epochs), dtype=_EPO_RECORD)
    records["stage"], records["x"] = stages, epochs[:, 0]
    with open(path, "wb") as fh:
        fh.write(EPO_MAGIC + struct.pack("<I", len(epochs)) + records.tobytes())


def _check_epochs(stages: np.ndarray, x: np.ndarray) -> None:
    """Name the first epoch with a stage index out of range or a non-finite sample."""
    for bad, what in (((stages < 0) | (stages >= len(STAGES)), "stage index {} out of range"),
                      (~np.isfinite(x).all(axis=-1), "non-finite sample")):
        if bad.any():
            i = int(np.argmax(bad))
            raise ValueError(f"epoch {i}: " + what.format(stages[i]))


def read_epochs(path) -> tuple[np.ndarray, np.ndarray]:
    """Read an EPO1 container back as ``(epochs [N,1,3000] f32, stages [N] i64)``;
    a malformed file raises ``ValueError`` naming the byte or the first bad epoch."""
    with open(path, "rb") as fh:
        data = fh.read()
    if data[:4] != EPO_MAGIC:
        raise ValueError(f"not an EPO1 file: bad magic {data[:4]!r}")
    if len(data) < 8:
        raise ValueError(f"EPO1 file ends at byte {len(data)}: the epoch count at byte 4 needs 4")
    (count,) = struct.unpack_from("<I", data, 4)
    expected = 8 + count * _EPO_RECORD.itemsize
    if len(data) != expected:
        raise ValueError(f"EPO1 file has {len(data)} bytes, expected {expected}")
    records = np.frombuffer(data, dtype=_EPO_RECORD, offset=8)
    _check_epochs(records["stage"], records["x"])
    return records["x"].astype(np.float32)[:, None, :], records["stage"].astype(np.int64)


@dataclass
class SplitPlan:
    k: int
    assignments: dict[str, int]
    seed: int = 0

    def __post_init__(self) -> None:
        for subject, fold in self.assignments.items():
            if not 0 <= fold < self.k:
                raise ValueError(f"subject {subject!r} assigned to fold {fold} of {self.k}")

    def fold_subjects(self, fold: int) -> list[str]:
        return sorted(s for s, f in self.assignments.items() if f == fold)

    def to_text(self) -> str:
        lines = [f"{s}\t{f}" for s, f in sorted(self.assignments.items())]
        return "\n".join(lines) + "\n"

    @classmethod
    def from_text(cls, text: str) -> "SplitPlan":
        assignments = {}
        for raw in text.splitlines():
            line = raw.strip()
            if not line:
                continue
            subject, fold = line.split("\t")
            assignments[subject] = int(fold)
        k = max(assignments.values()) + 1 if assignments else 0
        return cls(k, assignments)


def kfold_split(subjects, k: int, seed: int = 0) -> SplitPlan:
    """Shuffle subjects by seed and deal them round-robin into k folds.

    With k equal to the subject count this degenerates to leave-one-out.
    """
    subjects = sorted(str(s) for s in subjects)
    if k < 1:
        raise ValueError("k must be >= 1")
    if k > len(subjects):
        raise ValueError(f"cannot make {k} folds from {len(subjects)} subjects")
    order = np.random.default_rng(seed).permutation(len(subjects))
    assignments = {subjects[j]: i % k for i, j in enumerate(order)}
    return SplitPlan(k, assignments, seed)
