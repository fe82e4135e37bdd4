"""Machine pace: fixed reference work, timed beside the measured work.

The 2-vCPU machine this benchmark was tuned on changes speed by up to about
1.5x, for seconds to minutes at a time, with no steal time; CPU time slows
as much as wall time does. A speed taken from one run therefore says as much
about the host as about morpheusnet. The reference block is fixed work that
uses nothing of morpheusnet, made of parts that each resemble one kind of
work the workloads do:

- ``interpreter``: a pure-Python loop;
- ``numpy_calls``: many numpy calls on a 64-element array, where call
  overhead dominates;
- ``in_cache``: arithmetic in place on 4 MiB arrays, which stay in cache;
- ``fresh_pages``: filling 8 MiB of newly mapped memory, so that the
  kernel faults in and zeroes every page, as it does for numpy's large
  temporaries; the mapping is made directly, so that the allocator's state
  does not enter;
- ``matmul``: small matrix products.

The host's slow spells do not slow these alike (the interpreter loop by up
to about 1.6x, ``in_cache`` by up to about 1.3x; ``in_cache`` alone
under-corrected ``ingest``, ``fresh_pages`` alone over-corrected it), so
each workload's measured phase times the parts that resemble its own hot
code. Set-up, which mixes training, synthesis and file writing, times
``SETUP_PARTS``. The block is timed before the first unit of measured work
and after every unit, and a unit's time is scaled by the block's nominal
time (``NOMINAL_S``) over the mean of the blocks on either side of it. Times so adjusted read as seconds
on a machine whose block takes its nominal time: a change to morpheusnet
moves them in full, a change in the host's speed much less. Over two sets of
ten 20 s runs of each workload on the tuning machine, the spread
(interquartile range over median) of epochs per second was 0.03 and 0.05
paced against 0.12 and 0.36 on the wall clock on ``stream``, 0.05 and 0.07
against 0.17 and 0.12 on ``score``, and 0.05 and 0.03 against 0.03 and 0.07
on ``train``; one set on ``ingest`` gave 0.04 against 0.13.
"""

from __future__ import annotations

import mmap
from time import perf_counter

import numpy as np

# each part's median time on the tuning machine (2 vCPU Intel Xeon, numpy
# with OpenBLAS); only a scale, so that adjusted times read close to wall times
NOMINAL_S = {"interpreter": 0.0030, "numpy_calls": 0.0012, "in_cache": 0.0028,
             "fresh_pages": 0.0060, "matmul": 0.0022}
SETUP_PARTS = ("interpreter", "numpy_calls", "fresh_pages", "matmul")
INTERPRETER_STEPS = 40_000
NUMPY_CALLS = 600
IN_CACHE_PASSES = 2
FRESH_BYTES = 8 << 20
MATMULS = 80


class Pace:
    """Reference blocks timed in one run, and the times they adjust.

    With no ``parts`` nothing is timed and ``adjust`` returns its input.
    """

    def __init__(self, parts: tuple[str, ...] = ()) -> None:
        unknown = set(parts) - set(NOMINAL_S)
        if unknown:
            raise ValueError(f"unknown reference parts {sorted(unknown)}")
        self.parts = parts
        self.nominal_s = sum(NOMINAL_S[p] for p in parts)
        rng = np.random.default_rng(0)  # the block's inputs are fixed, not seeded by the run
        self._small = rng.random(64)
        if "in_cache" in parts:
            self._big = rng.random(1 << 19)
            self._scratch = np.empty_like(self._big)
        self._lhs = rng.random((64, 256))
        self._rhs = rng.random((256, 32))
        self.blocks: list[float] = []
        if parts:
            self._block()  # warm up: first calls allocate and fault pages in

    def _block(self) -> float:
        start = perf_counter()
        if "interpreter" in self.parts:
            total = 0
            for i in range(INTERPRETER_STEPS):
                total += i * i
        if "numpy_calls" in self.parts:
            for _ in range(NUMPY_CALLS):
                self._small * 1.0001 + 0.5
        if "in_cache" in self.parts:
            for _ in range(IN_CACHE_PASSES):
                np.multiply(self._big, self._big, out=self._scratch)
                np.add(self._scratch, 1.0, out=self._scratch)
                np.sqrt(self._scratch, out=self._scratch)
        if "fresh_pages" in self.parts:
            with mmap.mmap(-1, FRESH_BYTES) as pages:
                np.frombuffer(pages, dtype=np.float64).fill(1.0)
        if "matmul" in self.parts:
            for _ in range(MATMULS):
                self._lhs @ self._rhs
        return perf_counter() - start

    def mark(self, repeats: int = 1) -> int:
        """Time the block ``repeats`` times and keep the mean; returns its
        index, which later units refer to."""
        if self.parts:
            self.blocks.append(sum(self._block() for _ in range(repeats)) / repeats)
        return len(self.blocks) - 1

    def adjust(self, seconds: float, before: int, after: int) -> float:
        """``seconds`` of work done between blocks ``before`` and ``after``,
        at the nominal pace; unchanged when no parts are timed."""
        if not self.parts:
            return seconds
        return seconds * self.nominal_s / (0.5 * (self.blocks[before] + self.blocks[after]))
