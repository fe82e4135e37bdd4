"""Self-tests of the benchmark: metric names, percentiles, gates, span arithmetic.

Run with ``python3 -m pytest perfbench`` from the repository root.
"""

import json
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from morpheusnet.arena import Arena  # noqa: E402

from perfbench import gates, workloads  # noqa: E402
from perfbench.layers import LAYER_MAP  # noqa: E402
from perfbench.pace import NOMINAL_S, Pace  # noqa: E402
from perfbench.run import WORKLOAD_NAMES  # noqa: E402
from perfbench.stats import Metrics, TooFewSamples, check_name, percentile  # noqa: E402
from perfbench.tracing import Tracer, module_shares, self_times, summarize, within  # noqa: E402


@pytest.mark.parametrize("name", ["setup_s", "engine.cnn_ms", "ops.conv1d.bwd_ms", "a-b_c.9",
                                  "9lives", "x" * 64])
def test_metric_name_accepted(name):
    assert check_name(name) == name


@pytest.mark.parametrize("name", ["", "has space", "slash/name", "é", "-lead", ".lead",
                                  "x" * 65, "tab\t"])
def test_metric_name_refused(name):
    with pytest.raises(ValueError):
        check_name(name)


def test_metrics_refuse_duplicates_bad_units_and_non_finite_values():
    m = Metrics()
    m.add("a", 1.0, "ms")
    with pytest.raises(ValueError):
        m.add("a", 2.0, "ms")
    with pytest.raises(ValueError):
        m.add("b", 1.0, "milli seconds")
    with pytest.raises(ValueError):
        m.add("c", float("nan"), "ms")


def test_percentile_needs_ten_samples_beyond_it():
    with pytest.raises(TooFewSamples):
        percentile(np.arange(999.0), 99)
    assert percentile(np.arange(1000.0), 99) == pytest.approx(np.percentile(np.arange(1000.0), 99))
    with pytest.raises(TooFewSamples):
        percentile(np.arange(19.0), 50)
    assert percentile(np.arange(20.0), 50) == pytest.approx(9.5)


def test_self_time_of_a_hand_built_span_tree():
    spans = [
        ["engine.infer_epoch", 0.0, 10.0, -1],
        ["engine.cnn", 1.0, 4.0, 0],
        ["ops.conv1d", 2.0, 3.0, 1],
        ["engine.quantize_input", 5.0, 9.0, 0],
        ["pipeline.resample", 11.0, 11.5, -1],
    ]
    assert self_times(spans) == pytest.approx([3.0, 2.0, 1.0, 4.0, 0.5])
    table = summarize(spans)
    assert table["engine.cnn"] == {"calls": 1, "total_s": 3.0, "self_s": pytest.approx(2.0)}
    shares = module_shares(spans, wall_s=12.0)
    assert shares["engine"] == pytest.approx(9.0 / 12.0)
    assert shares["ops"] == pytest.approx(1.0 / 12.0)
    assert shares["other"] == pytest.approx(1.5 / 12.0)
    assert sum(shares.values()) == pytest.approx(1.0)
    assert within(spans, "engine.cnn") == [False, False, True, False, False]


def test_tracer_wraps_backward_closures_and_restores():
    class Ops:
        @staticmethod
        def op(x, want_grads=False):
            return (x + 1, lambda dy: dy * 2) if want_grads else x + 1

    owner = Ops()
    tracer = Tracer()
    tracer.patch(owner, "op", "ops.op", backward="ops.op.bwd")
    y, backward = owner.op(1, want_grads=True)
    assert (y, backward(3), owner.op(1)) == (2, 6, 2)
    assert [s[0] for s in tracer.drain()] == ["ops.op", "ops.op.bwd", "ops.op"]
    tracer.restore()
    assert "op" not in vars(owner)
    owner.op(1)
    assert tracer.spans == []


def test_probability_gate_trips_on_nan_and_bad_rows():
    good = np.full((4, 5), 0.2)
    assert gates.probability_rows(good) == (0, None)
    bad = good.copy()
    bad[1, 2] = np.nan
    bad[3] = [0.5, 0.5, 0.5, -0.5, 0.0]
    count, reason = gates.probability_rows(bad)
    assert count == 2 and reason


def test_arena_gate_trips_on_acquisition_after_freeze():
    arena = Arena()
    arena.acquire(64)
    arena.freeze()
    at_load = arena.acquisitions
    assert gates.arena_untouched(arena, at_load) is None
    arena.frozen = False  # an engine that allocates while it runs
    arena.acquire(8)
    arena.frozen = True
    assert "1 arena acquisitions" in gates.arena_untouched(arena, at_load)


def test_label_gate_trips_on_a_flipped_label():
    written = ["W", "N1", "N2", "N3", "REM"]
    assert gates.labels_round_trip(written, written, written[1:], written[1:]) is None
    flipped = ["W", "N1", "N3", "N3", "REM"]
    assert gates.labels_round_trip(written, flipped, written, written)
    assert gates.labels_round_trip(written, written, flipped, written)
    assert gates.labels_round_trip(written, written, written[:4], written)


def test_other_gates_trip():
    a = np.arange(10, dtype=np.float32)
    b = a.copy()
    b[3] = np.nextafter(b[3], np.float32(99))
    assert gates.bit_identical(a, a.copy(), "x") is None
    assert gates.bit_identical(a, b, "x")
    assert gates.accuracy_floor([1, 1, 2], [1, 1, 2], 0.5) == (1.0, None)
    assert gates.accuracy_floor([1, 0, 0], [1, 1, 2], 0.5)[1]
    assert gates.relative_rms(a + 1, a + 1, 0.01) == (0.0, None)
    assert gates.relative_rms(a + 1, a, 0.01)[1]
    assert gates.all_finite([1.0, 2.0], "loss") is None
    assert gates.all_finite([1.0, np.inf], "loss")


def test_operation_tripping_several_gates_counts_once():
    m = workloads.Measured()
    m.fail((10, "labels differ"), (3, "3 probability rows"), (10, None))
    m.fail((4, None))
    assert m.failed == 10
    assert m.reasons == ["labels differ", "3 probability rows"]


def test_units_scale_by_the_blocks_on_either_side():
    pace = Pace(("fresh_pages",))
    assert pace.mark() == 0 and pace.blocks[0] > 0
    m = workloads.Measured(pace=pace)
    nominal = NOMINAL_S["fresh_pages"]
    m.pace.blocks = [2 * nominal]
    m.record("night", 1.0, 4)
    m.pace.blocks.append(2 * nominal)
    m.record("night", 3.0, 4)
    m.pace.blocks.append(6 * nominal)
    # block means 2x and 4x the nominal: the machine ran at half and a quarter pace
    assert m.paced("night") == pytest.approx([0.5, 0.75])
    assert m.epochs_per_s() == pytest.approx(4 / 0.625)
    assert m.epochs_per_s(paced=False) == pytest.approx(4 / 2.0)
    off = Pace()
    assert off.mark() == -1 and off.adjust(1.5, -1, -1) == 1.5
    with pytest.raises(ValueError):
        Pace(("bogus",))


def test_failed_gate_fails_the_operations_it_covers(tmp_path, monkeypatch):
    monkeypatch.setattr(workloads, "INGEST_NIGHT", 16)
    ingest = workloads.Ingest()
    state = ingest.setup(seed=1, workdir=tmp_path)
    clean = ingest.measure(state, None, replay=1)
    assert clean.attempted == 16 and clean.failed == 0
    state["stages"][5] = "N3" if state["stages"][5] != "N3" else "N2"
    corrupted = ingest.measure(state, None, replay=1)
    assert corrupted.failed == corrupted.attempted == 16
    assert corrupted.reasons


def test_benchmark_json_matches_the_code():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOAD_NAMES)
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} == {
        name: (unit, better) for name, (unit, better, _, _) in LAYER_MAP.items()}
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    assert len(names) == len(set(names))
    for name in names:
        check_name(name)
    assert {m["name"] for m in spec["end_to_end"]} == {"setup_s", "epochs_per_s", "peak_rss_mb"}
