"""Resampling, epoching, container io, and fold plans."""

import struct
import tracemalloc

import numpy as np
import pytest
from oracles import naive_resample

from morpheusnet.edf import Hypnogram
from morpheusnet.pipeline import (
    EPOCH_SAMPLES,
    Recording,
    SplitPlan,
    kfold_split,
    preprocess,
    read_epochs,
    resample,
    resample_signal,
    write_epochs,
)


class TestResample:
    def test_length_arithmetic(self):
        rec = Recording("s", "ch", 200.0, np.zeros(6000))
        out = resample(rec, 100.0)
        assert out.sample_rate_hz == 100.0
        assert out.samples.size == 3000

    def test_same_rate_is_noop(self):
        x = np.random.default_rng(0).normal(size=500)
        out = resample_signal(x, 100.0, 100.0)
        np.testing.assert_array_equal(out, x)

    def test_sine_against_analytic_oracle(self):
        # 5 Hz sine sampled at 250 Hz, resampled to 100 Hz, compared with the
        # analytically sampled 100 Hz sine away from the edges
        t_src = np.arange(2500) / 250.0
        x = np.sin(2 * np.pi * 5.0 * t_src)
        out = resample_signal(x, 250.0, 100.0)
        t_dst = np.arange(out.size) / 100.0
        expect = np.sin(2 * np.pi * 5.0 * t_dst)
        a, b = out[50:-50], expect[50:-50]
        corr = np.corrcoef(a, b)[0, 1]
        assert corr > 0.99
        assert np.max(np.abs(a - b)) < 0.05

    def test_upsampling_preserves_tone(self):
        t_src = np.arange(500) / 50.0
        x = np.sin(2 * np.pi * 3.0 * t_src)
        out = resample_signal(x, 50.0, 100.0)
        t_dst = np.arange(out.size) / 100.0
        expect = np.sin(2 * np.pi * 3.0 * t_dst)
        assert np.corrcoef(out[80:-80], expect[80:-80])[0, 1] > 0.99

    def test_bad_rates(self):
        with pytest.raises(ValueError):
            resample_signal(np.zeros(10), 0.0, 100.0)
        with pytest.raises(ValueError):
            Recording("s", "ch", -5.0, np.zeros(10))


class TestPolyphaseResample:
    @pytest.mark.parametrize("src_hz", [256.0, 250.0, 128.0, 125.0, 512.0, 200.0, 50.0,
                                        256 / 0.999, 256.03])
    @pytest.mark.parametrize("n_in", [40, 1000, 3001])
    def test_matches_direct_formula(self, src_hz, n_in):
        # edges included: every output is compared, and 40 samples is shorter
        # than the 64-tap support, so no output there has all its taps in range
        x = np.random.default_rng(n_in).normal(0.0, 30.0, n_in)
        got = resample_signal(x, src_hz, 100.0)
        want = naive_resample(x, src_hz, 100.0)
        assert got.shape == want.shape
        np.testing.assert_array_less(np.abs(got - want), 1e-9 * np.max(np.abs(x)))

    def test_exact_positions_where_the_float_ratio_rounds_low(self):
        # 1.13 is stored just below 113/100, so floor(k * 1.13) falls one short
        # of the integer position at some k (k = 100 is the first); the 64-tap
        # window then starts one tap early. The resampler keeps exact positions.
        x = np.random.default_rng(4).normal(0.0, 30.0, 3000)
        got = resample_signal(x, 113.0, 100.0)
        bound = 1e-9 * np.max(np.abs(x))
        np.testing.assert_array_less(np.abs(got - naive_resample(x, 113.0, 100.0, exact=True)),
                                     bound)
        assert np.max(np.abs(got - naive_resample(x, 113.0, 100.0))) > 1e3 * bound

    def test_one_hour_stays_within_64_mib(self):
        x = np.random.default_rng(3).normal(size=256 * 3600)
        tracemalloc.start()
        try:
            out = resample_signal(x, 256.0, 100.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert out.size == 100 * 3600
        assert peak <= 64 * 2**20, f"peak {peak / 2**20:.1f} MiB"


def _recording(n_epochs, rng=None):
    rng = rng or np.random.default_rng(42)
    return Recording("s0", "ch", 100.0,
                     rng.normal(0.0, 10.0, n_epochs * EPOCH_SAMPLES))


class TestPreprocess:
    def test_counts_without_trim(self):
        hyp = Hypnogram(["W", "N1", None, "N2", "W"])
        got = preprocess(_recording(5), hyp, trim="none")
        assert len(got) == 4  # the rejected epoch is dropped
        assert all(e.shape == (1, EPOCH_SAMPLES) for e, _ in got)

    def test_leading_wake_trimmed_to_sixty(self):
        stages = ["W"] * 240 + ["N2"] * 10 + ["W"] * 5
        hyp = Hypnogram(stages)
        got = preprocess(_recording(255), hyp, trim="pm30")
        labels = [s for _, s in got]
        assert labels.count("W") == 60 + 5
        assert len(got) == 60 + 10 + 5

    def test_trailing_wake_trimmed(self):
        stages = ["N2"] * 5 + ["W"] * 100
        hyp = Hypnogram(stages)
        got = preprocess(_recording(105), hyp, trim="pm30")
        assert len(got) == 5 + 60

    def test_all_wake_untouched(self):
        hyp = Hypnogram(["W"] * 150)
        got = preprocess(_recording(150), hyp, trim="pm30")
        assert len(got) == 150

    def test_robust_scaling_applied(self):
        rec = _recording(4)
        hyp = Hypnogram(["W", "N1", "N2", "N3"])
        got = preprocess(rec, hyp, trim="none")
        joined = np.concatenate([e[0] for e, _ in got])
        assert abs(np.median(joined)) < 0.05
        q75, q25 = np.percentile(joined, [75, 25])
        assert abs((q75 - q25) - 1.0) < 0.05

    def test_length_mismatch_beyond_one_epoch(self):
        hyp = Hypnogram(["W"] * 8)
        with pytest.raises(ValueError):
            preprocess(_recording(5), hyp, trim="none")

    def test_off_by_one_tolerated(self):
        hyp = Hypnogram(["W"] * 5)
        got = preprocess(_recording(6), hyp, trim="none")
        assert len(got) == 5

    def test_requires_100hz(self):
        rec = Recording("s", "ch", 128.0, np.zeros(EPOCH_SAMPLES))
        with pytest.raises(ValueError):
            preprocess(rec, Hypnogram(["W"]), trim="none")


class TestEpochContainer:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(1)
        epochs = rng.normal(size=(7, 1, EPOCH_SAMPLES)).astype(np.float32)
        stages = rng.integers(0, 5, 7)
        path = tmp_path / "a.epo"
        write_epochs(path, epochs, stages)
        back_e, back_s = read_epochs(path)
        np.testing.assert_array_equal(back_e, epochs)
        np.testing.assert_array_equal(back_s, stages)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.epo"
        path.write_bytes(b"NOPE" + b"\x00" * 16)
        with pytest.raises(ValueError):
            read_epochs(path)

    def test_truncation_detected(self, tmp_path):
        path = tmp_path / "b.epo"
        write_epochs(path, np.zeros((2, 1, EPOCH_SAMPLES), dtype=np.float32), [0, 1])
        data = path.read_bytes()
        path.write_bytes(data[:-7])
        with pytest.raises(ValueError):
            read_epochs(path)


def _epo_bytes(epochs, stages):
    """An EPO1 file built field by field with ``struct``, as the format describes it."""
    body = b"EPO1" + struct.pack("<I", len(stages))
    for epoch, stage in zip(epochs, stages):
        body += struct.pack("<B", stage) + struct.pack(f"<{EPOCH_SAMPLES}f", *epoch.ravel())
    return body


class TestEpochContainerFormat:
    def test_bytes_match_struct_layout(self, tmp_path):
        rng = np.random.default_rng(2)
        epochs = rng.normal(size=(3, 1, EPOCH_SAMPLES)).astype(np.float32)
        path = tmp_path / "a.epo"
        write_epochs(path, epochs, ["W", 4, np.int64(2)])
        assert path.read_bytes() == _epo_bytes(epochs, [0, 4, 2])

    def test_empty_container(self, tmp_path):
        path = tmp_path / "empty.epo"
        write_epochs(path, np.zeros((0, 1, EPOCH_SAMPLES), np.float32), [])
        assert path.read_bytes() == b"EPO1" + struct.pack("<I", 0)
        epochs, stages = read_epochs(path)
        assert epochs.shape == (0, 1, EPOCH_SAMPLES) and stages.shape == (0,)

    @pytest.mark.parametrize("stage", [5, -1, 256])
    def test_write_names_first_bad_stage(self, tmp_path, stage):
        path = tmp_path / "s.epo"
        with pytest.raises(ValueError, match=f"epoch 1: stage index {stage} out of range"):
            write_epochs(path, np.zeros((3, 1, EPOCH_SAMPLES), np.float32), [0, stage, 7])
        assert not path.exists()

    def test_read_names_first_bad_stage(self, tmp_path):
        path = tmp_path / "s.epo"
        path.write_bytes(_epo_bytes(np.zeros((3, EPOCH_SAMPLES)), [1, 2, 9]))
        with pytest.raises(ValueError, match="epoch 2: stage index 9 out of range"):
            read_epochs(path)

    @pytest.mark.parametrize("size", [4, 5, 6, 7])
    def test_short_header_names_byte_4(self, tmp_path, size):
        path = tmp_path / "short.epo"
        path.write_bytes((b"EPO1" + struct.pack("<I", 1))[:size])
        with pytest.raises(ValueError, match="byte 4"):
            read_epochs(path)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_sample_names_epoch(self, tmp_path, value):
        epochs = np.zeros((4, EPOCH_SAMPLES))
        epochs[2, 1234] = value
        epochs[3, 0] = value
        path = tmp_path / "nan.epo"
        path.write_bytes(_epo_bytes(epochs, [0, 1, 2, 3]))
        with pytest.raises(ValueError, match="epoch 2: non-finite sample"):
            read_epochs(path)
        with pytest.raises(ValueError, match="epoch 2: non-finite sample"):
            write_epochs(tmp_path / "w.epo", epochs[:, None].astype(np.float32), [0, 1, 2, 3])


class TestRecordingFromEdf:
    def test_channel_selected_by_label(self):
        from morpheusnet.edf import parse_edf, write_edf
        from morpheusnet.pipeline import recording_from_edf
        from test_edf import make_header

        from morpheusnet.edf import EdfSignalHeader
        extra = EdfSignalHeader(label="EEG Fpz-Cz 2", physical_min=-100.0,
                                physical_max=100.0, digital_min=-1024,
                                digital_max=1023, samples_per_record=50)
        header = make_header(num_records=2, extra_signals=[extra])
        edf = parse_edf(write_edf(header, [np.zeros(200, dtype=np.int16),
                                           np.ones(100, dtype=np.int16)]))
        rec = recording_from_edf(edf, "EEG Fpz-Cz", "s1")
        assert rec.sample_rate_hz == 100.0
        assert rec.samples.size == 200
        with pytest.raises(ValueError):
            recording_from_edf(edf, "EOG", "s1")


class TestKfold:
    def test_partition_properties(self):
        subjects = [f"S{i:02d}" for i in range(23)]
        plan = kfold_split(subjects, 5, seed=3)
        seen = []
        sizes = []
        for fold in range(5):
            members = plan.fold_subjects(fold)
            sizes.append(len(members))
            seen.extend(members)
        assert sorted(seen) == subjects  # disjoint cover
        assert max(sizes) - min(sizes) <= 1

    def test_leave_one_out(self):
        subjects = [f"S{i}" for i in range(25)]
        plan = kfold_split(subjects, 25, seed=0)
        assert all(len(plan.fold_subjects(f)) == 1 for f in range(25))

    def test_twenty_singletons(self):
        plan = kfold_split([f"S{i}" for i in range(20)], 20, seed=1)
        assert sorted(len(plan.fold_subjects(f)) for f in range(20)) == [1] * 20

    def test_k_larger_than_subjects(self):
        with pytest.raises(ValueError):
            kfold_split(["a", "b"], 3)

    def test_text_round_trip(self):
        plan = kfold_split([f"S{i}" for i in range(9)], 4, seed=7)
        again = SplitPlan.from_text(plan.to_text())
        assert again.assignments == plan.assignments
        assert again.k == plan.k
