"""The four seeded workloads, their inputs, and their correctness gates.

Every input comes from the workload seed: synthetic nights, EDF bytes,
model initialisation and batch order. The program receives only these
generated inputs and is driven through its public API, from one process.

- ``stream``: the embedded device. A closed loop with one client sends each
  epoch of a synthetic night to ``InferenceEngine.infer_epoch`` as soon as
  the previous call returns, through the all-int8 model and through the
  start/identity-in-float model, which take turns. Int8 convolution,
  requantization and the LSTM do the work; the mixed model runs the same
  engine through its float entries, so a gain on the int8 path that costs
  the float path shows up. No ops, training, EDF or pipeline code runs.
- ``score``: offline clinical scoring of an EDF+ night at 100 Hz (the
  Sleep-EDF Fpz-Cz rate) with the float checkpoint. Float single-epoch
  inference does the work; resampling is a no-op at this rate.
- ``ingest``: dataset preparation from a 256 Hz EDF+ night. Windowed-sinc
  resampling does the work, which no other workload runs; no model runs.
- ``train``: the developer path. Backward passes, Adam and batch-128
  forward passes do the work: the same ops as ``score``, with gradients and
  large batches, so an op change that helps one batch shape and hurts the
  other splits ``score`` from ``train``.

Each workload has ``setup(seed, workdir)``, ``measure(state, seconds)``,
``instrument(tracer, state)`` and ``layer_extras(state, table)``.
``measure`` returns a ``Measured`` whose ``replay`` makes a later call do
the same work again, for the untraced half of a traced run; with
``paced=False`` it times no reference blocks (see ``pace``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

from morpheusnet import (
    checkpoint,
    edf,
    flatmodel,
    metrics,
    model as mmodel,
    nas,
    pipeline,
    quantize,
    streaming,
    synthetic,
    tensor,
    training,
)
from morpheusnet.cli import DESK_SEARCH_CONFIG
from morpheusnet.engine import InferenceEngine

from . import gates
from .layers import instrument_model, per_call
from .pace import Pace
from .stats import median, percentile

# A brief training run gives a model clearly better than chance. QAT is
# skipped where only the engine runs: its work does not depend on weights.
FIT_SUBJECTS = 2
FIT_EPOCHS = 160
VAL_EPOCHS = 64
CNN_PHASE = training.PhaseConfig(lr=0.003, batch_size=16, epochs=1)
SEQ_PHASE = training.PhaseConfig(lr=0.01, batch_size=32, epochs=4)
CALIBRATION_EPOCHS = 64
# chance is about 0.2; seeds 1-10 scored 0.54-0.94 (stream, int8) and 0.69-0.93 (score)
ACCURACY_FLOOR = 0.4

STREAM_NIGHT = 1024  # >= 1000 latencies per engine, so p99 has 10 beyond it
REPEAT_PREFIX = 24  # twice the sequence window, so the ring wraps
STREAM_TURN = 128  # epochs an engine streams before the other takes its turn
SCORE_NIGHT = 480  # four hours
INGEST_NIGHT = 32  # 16 minutes: about 20 recordings in a run, for a steady quantile
INGEST_HZ = 256
# 64-tap windowed sinc against a band-limited source: 0.013-0.026 over seeds 1-10
RESAMPLE_RMS_BOUND = 0.05
SCHEDULE_SUBJECT_EPOCHS = 64  # two subjects: 128 examples, one batch of 128
SEARCH_STEPS = 2

EEG = "EEG Fpz-Cz"
MICROVOLTS_PER_UNIT = 20.0
TAL_BYTES = 64  # one 30 s record's annotations, zero padded
SLEEP_EDF_LABELS = {
    "W": ("Sleep stage W",),
    "N1": ("Sleep stage 1",),
    "N2": ("Sleep stage 2",),
    "N3": ("Sleep stage 3", "Sleep stage 4"),  # the older scoring splits N3
    "REM": ("Sleep stage R",),
}


def sub_seeds(seed: int, n: int) -> list[int]:
    return [int(s) for s in np.random.SeedSequence(seed).generate_state(n)]


@dataclass
class Measured:
    """One measured phase: timed units of work, failures, and what the report shows.

    A unit is one epoch (``stream``), one night (``score``, ``ingest``) or
    one schedule phase (``train``); every unit of a kind carries the same
    number of epochs. The measuring loop calls ``mark`` before its first
    unit and after every unit (``stream``: every turn), so that each unit
    lies between two reference blocks of ``pace``.
    """

    replay: int = 0  # units of the loop done; measure(replay=n) repeats the same work
    attempted: int = 0
    failed: int = 0
    units: dict[str, list[float]] = field(default_factory=dict)
    unit_epochs: dict[str, int] = field(default_factory=dict)
    reasons: list[str] = field(default_factory=list)
    report: dict[str, tuple[float, str]] = field(default_factory=dict)  # name: (value, unit)
    pace: Pace = field(default_factory=Pace)
    blocks_before: dict[str, list[int]] = field(default_factory=dict)  # per unit

    def mark(self) -> None:
        self.pace.mark()

    def record(self, kind: str, seconds: float, epochs: int) -> None:
        if self.unit_epochs.setdefault(kind, epochs) != epochs:
            raise ValueError(f"{kind} units carry {self.unit_epochs[kind]} epochs, not {epochs}")
        self.units.setdefault(kind, []).append(seconds)
        self.blocks_before.setdefault(kind, []).append(len(self.pace.blocks) - 1)

    def fail(self, *checks: tuple[int, str | None]) -> None:
        """Count the operations that the gates of one piece of work failed.

        Each check is (operations it covers, reason or None); an operation
        that trips several gates counts once.
        """
        tripped = [(count, reason) for count, reason in checks if reason]
        if tripped:
            self.failed += max(count for count, _ in tripped)
            self.reasons += [reason for _, reason in tripped]

    @property
    def epochs(self) -> int:
        return sum(len(t) * self.unit_epochs[k] for k, t in self.units.items())

    def paced(self, kind: str) -> list[float]:
        """The unit times of ``kind`` at the reference pace (see ``pace``)."""
        last = len(self.pace.blocks) - 1
        return [self.pace.adjust(t, b, min(b + 1, last))
                for t, b in zip(self.units[kind], self.blocks_before[kind])]

    def epochs_per_s(self, paced: bool = True) -> float:
        """Epochs per second when each kind of unit takes its median time,
        at the reference pace unless ``paced`` is false."""
        return sum(self.unit_epochs.values()) / sum(
            median(self.paced(k) if paced else t) for k, t in self.units.items())


def _keep_going(done: int, start: float, seconds: float | None, replay: int | None) -> bool:
    if replay is not None:
        return done < replay
    return done == 0 or perf_counter() - start < seconds


# ---------------------------------------------------------------------------
# shared inputs


def fit_brief_model(seed: int):
    """A float model trained briefly on synthetic subjects, and its training epochs."""
    data_seed, init_seed, order_seed = sub_seeds(seed, 3)
    subjects = synthetic.synth_dataset(FIT_SUBJECTS + 1, FIT_EPOCHS, data_seed)
    fit, val = subjects[:-1], subjects[-1]
    x = np.concatenate([s.epochs for s in fit])
    y = np.concatenate([s.stages for s in fit])
    val_set = (val.epochs[:VAL_EPOCHS], val.stages[:VAL_EPOCHS])
    model = mmodel.build_morpheus(mmodel.MorpheusConfig(), seed=init_seed)
    config = training.TrainConfig(cnn=CNN_PHASE, seq=SEQ_PHASE, seed=order_seed)
    training.train_cnn(model, (x, y), val_set, config)
    seq_fit = training.make_sequence_dataset(model, [(s.epochs, s.stages) for s in fit])
    seq_val = training.make_sequence_dataset(model, [val_set])
    training.train_sequence_learner(model, seq_fit, seq_val, config)
    return model, x


def edf_night(signal_uv: np.ndarray, rate_hz: int, stages, seed: int) -> bytes:
    """EDF+ bytes: one EEG signal and the hypnogram as TALs, one record per epoch."""
    rng = np.random.default_rng(seed)
    tals = []
    for i, stage in enumerate(stages):
        choices = SLEEP_EDF_LABELS[stage]
        label = choices[int(rng.integers(len(choices)))]
        onset = 30 * i
        tal = f"+{onset}\x14\x14\x00+{onset}\x1530\x14{label}\x14\x00".encode("latin-1")
        tals.append(tal.ljust(TAL_BYTES, b"\x00"))
    limit = float(np.ceil(np.abs(signal_uv).max()))
    digital = np.round(signal_uv / limit * 32767).astype("<i2")
    header = edf.EdfHeader(
        patient="X X X X", recording="Startdate X X X X", reserved="EDF+C",
        num_records=len(stages), record_duration_s=30.0,
        signals=[
            edf.EdfSignalHeader(EEG, physical_dim="uV", physical_min=-limit,
                                physical_max=limit, digital_min=-32767, digital_max=32767,
                                samples_per_record=30 * rate_hz),
            edf.EdfSignalHeader("EDF Annotations", physical_min=-1.0, physical_max=1.0,
                                samples_per_record=TAL_BYTES // 2),
        ],
    )
    return edf.write_edf(header, [digital, np.frombuffer(b"".join(tals), dtype="<i2")])


def night_inputs(night, rate_hz: int, label_seed: int) -> dict:
    """EDF+ bytes of a synthetic night at ``rate_hz`` and what preprocessing should keep."""
    stages = [mmodel.STAGES[int(i)] for i in night.stages]
    signal = night.epochs.reshape(-1).astype(np.float64) * MICROVOLTS_PER_UNIT
    if rate_hz != pipeline.TARGET_HZ:
        # band-limited upsampling by zero-padding the spectrum
        n_out = len(signal) * rate_hz // pipeline.TARGET_HZ
        signal = np.fft.irfft(np.fft.rfft(signal), n_out) * (n_out / len(signal))
    sleep = [i for i, s in enumerate(stages) if s != "W"]
    # preprocess keeps at most 60 wake epochs on each side of the sleep period
    lo, hi = (max(0, sleep[0] - 60), min(len(stages), sleep[-1] + 61)) if sleep \
        else (0, len(stages))
    return {"edf": edf_night(signal, rate_hz, stages, label_seed), "stages": stages,
            "kept": (lo, hi)}


def read_night(state):
    """The timed EDF front end of ``score`` and ``ingest``; gates the labels."""
    parsed = edf.parse_edf(state["edf"])
    hypnogram = edf.hypnogram_from_annotations(parsed.annotations())
    recording = pipeline.recording_from_edf(parsed, EEG, "S0")
    recording = pipeline.resample(recording)
    pairs = pipeline.preprocess(recording, hypnogram)
    epochs = np.stack([e for e, _ in pairs])
    kept = [s for _, s in pairs]
    lo, hi = state["kept"]
    reason = gates.labels_round_trip(state["stages"], hypnogram.stages, kept,
                                     state["stages"][lo:hi])
    return epochs, kept, reason


class Workload:
    """Defaults: no wrappers on instances and no workload-specific layer metrics.

    ``pace_parts`` are the parts of the reference block (see ``pace``) that
    resemble the workload's hot code.
    """

    name = ""
    pace_parts: tuple[str, ...] = ()

    def instrument(self, tracer, state) -> None:
        pass

    def layer_extras(self, state, table) -> dict:
        return {}


# ---------------------------------------------------------------------------
# stream


class Stream(Workload):
    name = "stream"
    pace_parts = ("interpreter", "numpy_calls")  # per-layer Python and small int arrays

    def setup(self, seed: int, workdir: Path):
        night_seed = sub_seeds(seed, 4)[3]  # the first three train the model
        model, x = fit_brief_model(seed)
        night = synthetic.synth_dataset(1, STREAM_NIGHT, night_seed)[0]
        icnn = quantize.fold_cnn(model)
        calibration = quantize.calibrate_ranges(icnn, x[:CALIBRATION_EPOCHS])
        engines = {}
        for key, plan in (("int8", quantize.default_plan), ("mixed", quantize.exclusion_plan)):
            qcnn = quantize.freeze_quantized(icnn, plan(icnn), calibration.act_qparams)
            blob = flatmodel.compile_flat_model(qcnn, model.seq)
            engines[key] = InferenceEngine(flatmodel.load_flat_model(blob), len(blob))
        return {"night": night, "engines": engines,
                "acquisitions": {k: e.arena.acquisitions for k, e in engines.items()}}

    def instrument(self, tracer, state) -> None:
        for key, engine in state["engines"].items():
            prefix = "engine." if key == "int8" else "engine.mixed_"
            tracer.patch(engine, "infer_epoch", prefix + "infer_epoch")
            tracer.patch(engine, "quantize_input", prefix + "quantize_input")
            tracer.patch(engine, "infer_cnn_int8", prefix + "cnn")

    def measure(self, state, seconds: float | None, replay: int | None = None,
                paced: bool = True) -> Measured:
        """Both engines stream the night, taking turns of ``STREAM_TURN`` epochs
        and starting over after its last epoch, until ``seconds`` have passed
        and each engine has run the whole night.

        Each engine keeps its own stream position across turns, so each sees
        the night in order exactly as a device alone would; the turns spread
        both engines over the same stretch of machine time. A reference block
        of the pace runs between turns, not between epochs.
        """
        frames = state["night"].epochs
        n = len(frames)
        engines = state["engines"]
        stages = {key: [] for key in engines}
        probs = {key: [] for key in engines}
        for engine in engines.values():
            engine.reset_stream()
        out = Measured(pace=Pace(self.pace_parts if paced else ()))
        out.mark()
        start = perf_counter()
        while (out.replay < replay) if replay is not None else \
                (out.replay * STREAM_TURN < n or perf_counter() - start < seconds):
            for key, engine in engines.items():
                for i in range(out.replay * STREAM_TURN, (out.replay + 1) * STREAM_TURN):
                    if i and i % n == 0:
                        engine.reset_stream()
                    t0 = perf_counter()
                    stage, p = engine.infer_epoch(frames[i % n])
                    out.record(key, perf_counter() - t0, 1)
                    stages[key].append(stage)
                    probs[key].append(p)
                out.mark()
            out.replay += 1
        for key, engine in engines.items():
            out.attempted += len(stages[key])
            self._check(engine, key, state, np.asarray(stages[key]), np.stack(probs[key]), out)
            ms = 1000.0 * np.asarray(out.units[key])
            label = "epoch_ms" if key == "int8" else "mixed_epoch_ms"
            out.report[f"{label}_p50"] = (median(ms), "ms")
            out.report[f"{label}_p99"] = (percentile(ms, 99), "ms")
        return out

    def _check(self, engine, key: str, state, stages, probs, out: Measured) -> None:
        frames, labels = state["night"].epochs, state["night"].stages
        n = len(stages)
        engine.reset_stream()
        prefix = min(REPEAT_PREFIX, n)
        again = np.stack([engine.infer_epoch(frames[i])[1] for i in range(prefix)])
        acc, reason = gates.accuracy_floor(stages, labels[np.arange(n) % len(labels)],
                                           ACCURACY_FLOOR)
        out.fail(gates.probability_rows(probs),
                 (n, gates.arena_untouched(engine.arena, state["acquisitions"][key])),
                 (n, gates.bit_identical(probs[:prefix], again, f"{key} prefix")),
                 (n, reason and f"{key}: {reason}"))
        out.report["accuracy" if key == "int8" else "mixed_accuracy"] = (acc, "fraction")

    def layer_extras(self, state, table) -> dict:
        engine = state["engines"]["int8"]
        macs = engine.mac_counts()
        cnn_macs = sum(v for k, v in macs.items() if not k.startswith("seq."))
        cnn_s = per_call(table, "engine.cnn")
        return {
            "engine.quantize_input_us": 1e6 * per_call(table, "engine.quantize_input"),
            "engine.cnn_ms": 1000.0 * cnn_s,
            "engine.seq_ms": 1000.0 * per_call(table, "engine.infer_epoch", "self_s"),
            "engine.cnn_gmac_per_s": cnn_macs / cnn_s / 1e9 if cnn_s else 0.0,
            "engine.macs_per_epoch": sum(macs.values()),
            "engine.mixed_cnn_ms": 1000.0 * per_call(table, "engine.mixed_cnn"),
            "engine.mixed_seq_ms": 1000.0 * per_call(table, "engine.mixed_infer_epoch",
                                                     "self_s"),
            "arena.peak_bytes": engine.arena.acquired_bytes,
            "arena.plan_peak_live_bytes": engine.plan.peak_live_bytes,
            "arena.plan_total_bytes": engine.plan.total_bytes,
            "arena.acquisitions_in_inference": sum(
                e.arena.acquisitions - state["acquisitions"][k]
                for k, e in state["engines"].items()),
            "flatmodel.model_bytes": engine.model_bytes,
        }


# ---------------------------------------------------------------------------
# score


class Score(Workload):
    name = "score"
    # batch-1 ops: Python, small arrays, products and cache-resident arithmetic
    pace_parts = ("interpreter", "numpy_calls", "in_cache", "matmul")

    def setup(self, seed: int, workdir: Path):
        night_seed, label_seed = sub_seeds(seed, 5)[3:]  # the first three train the model
        model, _ = fit_brief_model(seed)
        path = workdir / "model.ckpt"
        checkpoint.save_model(path, model)
        night = synthetic.synth_dataset(1, SCORE_NIGHT, night_seed)[0]
        return {"model": checkpoint.load_model(path),
                **night_inputs(night, pipeline.TARGET_HZ, label_seed)}

    def instrument(self, tracer, state) -> None:
        instrument_model(tracer, state["model"])

    def measure(self, state, seconds: float | None, replay: int | None = None,
                paced: bool = True) -> Measured:
        out = Measured(pace=Pace(self.pace_parts if paced else ()))
        out.mark()
        start = perf_counter()
        while _keep_going(out.replay, start, seconds, replay):
            t0 = perf_counter()
            epochs, kept, reason = read_night(state)
            results = streaming.predict_stream(state["model"], epochs)
            predicted = [k for k, _ in results]
            truth = [mmodel.STAGE_INDEX[s] for s in kept]
            report = metrics.report_from_confusion(metrics.confusion_matrix(predicted, truth))
            n = len(epochs)
            out.record("night", perf_counter() - t0, n)
            out.mark()
            out.replay += 1
            out.attempted += n
            out.fail((n, reason), gates.probability_rows(np.stack([p for _, p in results])),
                     (n, gates.accuracy_floor(predicted, truth, ACCURACY_FLOOR)[1]))
            out.report["accuracy"] = (report.accuracy, "fraction")
        return out


# ---------------------------------------------------------------------------
# ingest


class Ingest(Workload):
    name = "ingest"
    # resampling faults in fresh 32 MiB temporaries and does arithmetic over them
    pace_parts = ("in_cache", "fresh_pages")

    def setup(self, seed: int, workdir: Path):
        night_seed, label_seed = sub_seeds(seed, 2)
        night = synthetic.synth_dataset(1, INGEST_NIGHT, night_seed)[0]
        return {"night": night, "epo": workdir / "night.epo",
                **night_inputs(night, INGEST_HZ, label_seed)}

    def measure(self, state, seconds: float | None, replay: int | None = None,
                paced: bool = True) -> Measured:
        out = Measured(pace=Pace(self.pace_parts if paced else ()))
        lo, hi = state["kept"]
        source = state["night"].epochs[lo:hi]
        out.mark()
        start = perf_counter()
        while _keep_going(out.replay, start, seconds, replay):
            t0 = perf_counter()
            epochs, kept, reason = read_night(state)
            pipeline.write_epochs(state["epo"], epochs, kept)
            back, back_stages = pipeline.read_epochs(state["epo"])
            n = len(epochs)
            out.record("night", perf_counter() - t0, n)
            out.mark()
            out.replay += 1
            out.attempted += n
            stage_indices = np.array([mmodel.STAGE_INDEX[s] for s in kept], dtype=np.int64)
            err, rms_reason = gates.relative_rms(epochs, source, RESAMPLE_RMS_BOUND)
            out.fail((n, reason), (n, gates.bit_identical(epochs, back, "EPO1 epochs")),
                     (n, gates.bit_identical(stage_indices, back_stages, "EPO1 stages")),
                     (n, rms_reason))
            out.report["resample_relative_rms"] = (err, "fraction")
        return out

    def layer_extras(self, state, table) -> dict:
        row = table.get("pipeline.resample")
        if not row:
            return {}
        samples = row["calls"] * INGEST_NIGHT * pipeline.EPOCH_SAMPLES
        return {"pipeline.resample_msamples_per_s": samples / row["total_s"] / 1e6}


# ---------------------------------------------------------------------------
# train


def desk_search_config(seed: int) -> nas.SearchConfig:
    """The settings ``morpheusnet search`` uses by default (batch 8)."""
    desk = DESK_SEARCH_CONFIG
    grid = tuple((kind, int(k), int(f)) for kind in desk["kinds"].split(",")
                 for k in desk["kernels"].split(",") for f in desk["filters"].split(","))
    return nas.SearchConfig(
        conv_grid=grid, pool_window=desk["pool_window"],
        cell_layout=tuple(desk["layout"].split(",")), alpha_lr=desk["alpha_lr"],
        theta_lr=desk["theta_lr"], steps=desk["steps"], batch_size=desk["batch_size"],
        seed=seed)


class Train(Workload):
    """A fixed schedule of phases, run in turn: one CNN epoch at batch 128,
    a sequence dataset and one sequence epoch at batch 32, a calibration and
    one QAT epoch at batch 128, and a few search steps at batch 8."""

    name = "train"
    pace_parts = ("interpreter", "fresh_pages")  # op graphs over batch-128 temporaries

    def setup(self, seed: int, workdir: Path):
        data_seed, init_seed, order_seed, search_seed = sub_seeds(seed, 4)
        subjects = synthetic.synth_dataset(3, SCHEDULE_SUBJECT_EPOCHS, data_seed)
        fit, val = subjects[:2], subjects[2]
        x = np.concatenate([s.epochs for s in fit])
        search = desk_search_config(search_seed)
        return {
            "model": mmodel.build_morpheus(mmodel.MorpheusConfig(), seed=init_seed),
            "fit": (x, np.concatenate([s.stages for s in fit])),
            "recordings": [(s.epochs, s.stages) for s in fit],
            "val": (val.epochs[:VAL_EPOCHS], val.stages[:VAL_EPOCHS]),
            "config": training.TrainConfig(cnn=training.PhaseConfig(0.001, 128, 1),
                                           seq=training.PhaseConfig(0.0001, 32, 1),
                                           seed=order_seed),
            "search": nas.build_search_network(search, x.shape[2]),
            "search_opt": (tensor.AdamState(lr=search.alpha_lr),
                           tensor.AdamState(lr=search.theta_lr)),
            "search_rng": np.random.default_rng(search_seed),
            "search_batch": search.batch_size,
            "qat_seed": order_seed,
        }

    def instrument(self, tracer, state) -> None:
        instrument_model(tracer, state["model"])

    def phases(self, state):
        """Each phase prepares its inputs and returns (optimizer steps, epochs
        through them, the call that steps and returns the values to check)."""
        model, config, val = state["model"], state["config"], state["val"]
        x, y = state["fit"]

        def cnn():
            return _steps(len(x), 128), len(x), lambda: [
                h.train_loss for h in training.train_cnn(model, (x, y), val, config)[1]]

        def seq():
            fit = training.make_sequence_dataset(model, state["recordings"])
            check = training.make_sequence_dataset(model, [val])
            return _steps(len(fit[0]), 32), len(fit[0]), lambda: [
                h.train_loss for h in
                training.train_sequence_learner(model, fit, check, config)[1]]

        def qat():
            icnn = quantize.fold_cnn(model)
            calibration = quantize.calibrate_ranges(icnn, x[:CALIBRATION_EPOCHS])
            return _steps(len(x), 128), len(x), lambda: quantize.qat_finetune_cnn(
                icnn, quantize.default_plan(icnn), calibration, (x, y), val,
                seed=state["qat_seed"], epochs=1)[1]

        def search():
            net, rng, batch = state["search"], state["search_rng"], state["search_batch"]

            def run():
                losses = []
                for _ in range(SEARCH_STEPS):
                    idx = rng.integers(0, len(x), batch)
                    losses.append(nas.search_step(net, (x[idx], y[idx]), *state["search_opt"]))
                return losses + [float(v) for a in net.alphas() for v in a.data.ravel()]

            return SEARCH_STEPS, SEARCH_STEPS * batch, run

        return cnn, seq, qat, search

    def measure(self, state, seconds: float | None, replay: int | None = None,
                paced: bool = True) -> Measured:
        out = Measured(pace=Pace(self.pace_parts if paced else ()))
        phases = self.phases(state)
        out.mark()
        start = perf_counter()
        # whole rounds of the schedule, so that every phase has a median
        while out.replay % len(phases) or _keep_going(out.replay, start, seconds, replay):
            phase = phases[out.replay % len(phases)]
            t0 = perf_counter()
            steps, epochs, run = phase()
            try:
                reason = gates.all_finite(run(), f"{phase.__name__} losses and alphas")
            except training.NumericalError as exc:
                reason = f"{phase.__name__}: {exc}"
            out.record(phase.__name__, perf_counter() - t0, epochs)
            out.mark()
            out.replay += 1
            out.attempted += steps
            out.fail((steps, reason))
        return out


def _steps(examples: int, batch: int) -> int:
    return -(-examples // batch)


WORKLOADS = {w.name: w for w in (Stream, Score, Ingest, Train)}
