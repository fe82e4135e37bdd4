"""Correctness gates. Each returns a reason when the output is wrong, else None.

A workload marks every operation a failed gate covers as failed, so a gate
changes the attempted/failed counts, not only the printed report.
"""

from __future__ import annotations

import numpy as np

PROB_SUM_TOL = 1e-4


def probability_rows(probs) -> tuple[int, str | None]:
    """Rows that are not finite, have a negative entry, or do not sum to 1."""
    p = np.asarray(probs, dtype=np.float64)
    with np.errstate(invalid="ignore"):
        ok = np.isfinite(p).all(axis=1) & (p >= 0).all(axis=1)
        ok &= np.abs(p.sum(axis=1) - 1.0) <= PROB_SUM_TOL
    bad = int((~ok).sum())
    return bad, f"{bad} probability rows not finite or not summing to 1" if bad else None


def arena_untouched(arena, acquisitions_at_load: int) -> str | None:
    """The engine's arena stayed frozen and saw no acquisition after load."""
    if not arena.frozen:
        return "arena is not frozen"
    extra = arena.acquisitions - acquisitions_at_load
    if extra:
        return f"{extra} arena acquisitions after freeze"
    return None


def bit_identical(first, again, what: str) -> str | None:
    a, b = np.asarray(first), np.asarray(again)
    if a.shape != b.shape or a.dtype != b.dtype or a.tobytes() != b.tobytes():
        return f"{what}: repeated run is not bit-identical"
    return None


def accuracy_floor(predictions, labels, floor: float) -> tuple[float, str | None]:
    pred, true = np.asarray(predictions), np.asarray(labels)
    if pred.shape != true.shape or pred.size == 0:
        return 0.0, f"{pred.size} predictions for {true.size} labels"
    acc = float((pred == true).mean())
    return acc, None if acc > floor else f"accuracy {acc:.4f} is not above {floor}"


def labels_round_trip(written, hypnogram_stages, epoch_stages, expected_kept) -> str | None:
    """Stages written as TALs come back unchanged through the hypnogram and epoching."""
    if list(hypnogram_stages) != list(written):
        return "hypnogram differs from the stages written as annotations"
    if len(epoch_stages) != len(expected_kept):
        return f"preprocess kept {len(epoch_stages)} epochs, expected {len(expected_kept)}"
    if list(epoch_stages) != list(expected_kept):
        return "epoch labels differ from the hypnogram"
    return None


def relative_rms(actual, reference, bound: float) -> tuple[float, str | None]:
    a = np.asarray(actual, dtype=np.float64)
    r = np.asarray(reference, dtype=np.float64)
    if a.shape != r.shape:
        return float("inf"), f"shape {a.shape} differs from reference {r.shape}"
    err = float(np.sqrt(np.mean((a - r) ** 2)) / np.sqrt(np.mean(r ** 2)))
    return err, None if err <= bound else f"relative RMS error {err:.4f} exceeds {bound}"


def all_finite(values, what: str) -> str | None:
    arr = np.asarray(values, dtype=np.float64)
    if not np.isfinite(arr).all():
        return f"{what}: {int((~np.isfinite(arr)).sum())} non-finite values"
    return None
