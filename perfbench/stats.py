"""Metric names, percentiles and the result line the benchmark prints last."""

from __future__ import annotations

import json
import re

import numpy as np

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


class TooFewSamples(ValueError):
    """A percentile was asked of fewer samples than it can support."""


def check_name(name: str) -> str:
    if not NAME.fullmatch(name):
        raise ValueError(f"bad metric name {name!r}: want [A-Za-z0-9][A-Za-z0-9_.-]{{0,63}}")
    return name


def percentile(samples, q: float) -> float:
    """The q-th percentile, refused unless at least 10 samples lie beyond it."""
    n = len(samples)
    if n * (100.0 - q) / 100.0 < 10.0 - 1e-9:
        raise TooFewSamples(f"p{q:g} of {n} samples has fewer than 10 samples beyond it")
    return float(np.percentile(np.asarray(samples, dtype=np.float64), q))


def median(samples) -> float:
    if len(samples) == 0:
        raise TooFewSamples("median of no samples")
    return float(np.median(np.asarray(samples, dtype=np.float64)))


class Metrics:
    """Named values with units, in insertion order."""

    def __init__(self) -> None:
        self.values: dict[str, dict] = {}

    def add(self, name: str, value, unit: str) -> None:
        check_name(name)
        if not UNIT.fullmatch(unit):
            raise ValueError(f"bad unit {unit!r} for {name}")
        if name in self.values:
            raise ValueError(f"metric {name} reported twice")
        value = float(value)
        if not np.isfinite(value):
            raise ValueError(f"metric {name} is not finite: {value}")
        self.values[name] = {"value": value, "unit": unit}


def result_line(attempted: int, failed: int, metrics: Metrics) -> str:
    if attempted < 1:
        raise ValueError("a run attempts at least one operation")
    return json.dumps({
        "correct": failed == 0,
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": metrics.values,
    })
