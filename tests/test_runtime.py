"""Memory planning, flat-model serialization, and the integer engine."""

import numpy as np
import pytest

from conftest import SMALL_CONFIG
from integer_reference import simulate
from morpheusnet.arena import Arena, Step, plan_memory
from morpheusnet.engine import InferenceEngine, accumulator_dtype
from morpheusnet.flatmodel import (
    Entry,
    FlatModelError,
    FlatModelSpec,
    K_CONV,
    K_DENSE,
    K_DEPTHWISE,
    K_GAP,
    K_MAXPOOL,
    K_POINTWISE,
    MODEL_INPUT,
    NO_AUX,
    SeqParams,
    compile_flat_model,
    load_flat_model,
    serialize_spec,
)
from morpheusnet.quantize import (
    QuantParams,
    calibrate_ranges,
    default_plan,
    exclusion_plan,
    fold_cnn,
    freeze_quantized,
    qat_finetune_cnn,
    requant_multiplier,
)


class TestPlanMemory:
    def test_two_layer_chain_peak(self):
        # tensors: input(100), layer A out(40), layer B out(30)
        sizes = [100, 40, 30]
        steps = [Step("a", (0,), 1), Step("b", (1,), 2)]
        plan = plan_memory(sizes, steps, keep_alive=(2,))
        # at step a: input + A live; at step b: A + B live
        assert plan.peak_live_bytes == max(100 + 40, 40 + 30)

    def test_residual_keeps_input_live(self):
        # input feeds both the first op and the final add, so it stays live
        sizes = [50, 50, 50, 50]
        steps = [
            Step("dw", (0,), 1),
            Step("pw", (1,), 2),
            Step("add", (2, 0), 3),
        ]
        plan = plan_memory(sizes, steps)
        assert plan.peak_live_bytes == 150  # input + pw out + add out at the add
        assert plan.assignment[0] not in {plan.assignment[1], plan.assignment[2]}

    def test_buffers_reused_down_a_chain(self):
        sizes = [10] * 6
        steps = [Step(f"s{i}", (i,), i + 1) for i in range(5)]
        plan = plan_memory(sizes, steps)
        assert len(plan.buffer_sizes) <= 3
        assert plan.total_bytes <= 30

    def test_no_live_overlap_in_assignment(self):
        rng = np.random.default_rng(3)
        sizes = list(rng.integers(1, 100, 12))
        steps = [Step(f"s{i}", (i,), i + 1) for i in range(11)]
        plan = plan_memory(sizes, steps)  # raises internally if the invariant breaks
        assert len(plan.assignment) == 12

    def test_deterministic(self):
        sizes = [10, 20, 30, 40]
        steps = [Step("a", (0,), 1), Step("b", (1,), 2), Step("c", (2, 0), 3)]
        a = plan_memory(sizes, steps)
        b = plan_memory(sizes, steps)
        assert a.assignment == b.assignment and a.buffer_sizes == b.buffer_sizes


class TestArenaGuard:
    def test_frozen_arena_rejects_acquisition(self):
        arena = Arena()
        arena.acquire(128)
        arena.freeze()
        with pytest.raises(RuntimeError):
            arena.acquire(1)
        assert arena.acquired_bytes == 128


@pytest.fixture(scope="module")
def compiled(small_quantized_module):
    qcnn, model = small_quantized_module
    blob = compile_flat_model(qcnn, model.seq)
    return blob, qcnn, model


@pytest.fixture(scope="module")
def small_quantized_module(tiny_data_module):
    from morpheusnet.model import build_morpheus
    from morpheusnet.training import PhaseConfig, TrainConfig, train_cnn

    train, val = tiny_data_module
    model = build_morpheus(SMALL_CONFIG, seed=1)
    cfg = TrainConfig(cnn=PhaseConfig(0.003, 64, 12), seed=1)
    model, _ = train_cnn(model, train, val, cfg)
    icnn = fold_cnn(model)
    plan = default_plan(icnn)
    calib = calibrate_ranges(icnn, train[0][:64])
    qcnn, _ = qat_finetune_cnn(icnn, plan, calib, train, val, seed=1, epochs=1)
    return qcnn, model


@pytest.fixture(scope="module")
def tiny_data_module():
    from conftest import tiny_task

    rng = np.random.default_rng(200)
    return tiny_task(rng, 300), tiny_task(rng, 100)


class TestFlatModel:
    def test_compile_deterministic(self, compiled):
        blob, qcnn, model = compiled
        again = compile_flat_model(qcnn, model.seq)
        assert again == blob

    def test_load_serialize_round_trip(self, compiled):
        blob, _, _ = compiled
        spec = load_flat_model(blob)
        assert serialize_spec(spec) == blob

    def test_single_byte_corruption_rejected(self, compiled):
        blob, _, _ = compiled
        for offset in (5, len(blob) // 2, len(blob) - 10):
            corrupt = bytearray(blob)
            corrupt[offset] ^= 0xFF
            with pytest.raises(FlatModelError):
                load_flat_model(bytes(corrupt))

    def test_wrong_magic_names_expected(self, compiled):
        blob, _, _ = compiled
        corrupt = b"XXXX" + blob[4:]
        with pytest.raises(FlatModelError, match="MNQ1"):
            load_flat_model(corrupt)

    def test_truncation_rejected(self, compiled):
        blob, _, _ = compiled
        with pytest.raises(FlatModelError):
            load_flat_model(blob[: len(blob) // 2])

    def test_size_budget_enforced(self, compiled):
        _, qcnn, model = compiled
        with pytest.raises(FlatModelError, match="budget"):
            compile_flat_model(qcnn, model.seq, size_budget=100)


class TestEngine:
    def test_bit_exact_against_scalar_simulator(self, compiled):
        blob, _, _ = compiled
        spec = load_flat_model(blob)
        engine = InferenceEngine(spec, model_bytes=len(blob))
        rng = np.random.default_rng(11)
        for _ in range(8):
            x = rng.integers(-128, 128, size=(1, 256)).astype(np.int8)
            _, traced = engine.infer_cnn_int8(x, trace=True)
            reference = simulate(spec, x)
            for i, entry in enumerate(spec.entries):
                if not entry.quantized:
                    continue
                a, b = traced[entry.name], reference[entry.name]
                assert np.array_equal(a.reshape(b.shape), b), entry.name

    def test_exclusion_plan_bit_exact(self, small_quantized_module, tiny_data_module):
        qcnn0, model = small_quantized_module
        train, val = tiny_data_module
        icnn = fold_cnn(model)
        plan = exclusion_plan(icnn)
        calib = calibrate_ranges(icnn, train[0][:64])
        qcnn = freeze_quantized(icnn, plan, calib.act_qparams)
        spec = load_flat_model(compile_flat_model(qcnn, model.seq))
        engine = InferenceEngine(spec)
        rng = np.random.default_rng(12)
        for _ in range(4):
            x = rng.integers(-128, 128, size=(1, 256)).astype(np.int8)
            _, traced = engine.infer_cnn_int8(x, trace=True)
            reference = simulate(spec, x)
            for entry in spec.entries:
                if not entry.quantized:
                    continue
                a, b = traced[entry.name], reference[entry.name]
                assert np.array_equal(a.reshape(b.shape), b), entry.name

    def test_same_input_bitwise_identical(self, compiled):
        blob, _, _ = compiled
        engine = InferenceEngine(load_flat_model(blob))
        x = np.random.default_rng(13).integers(-128, 128, (1, 256)).astype(np.int8)
        a = engine.infer_cnn_int8(x).copy()
        b = engine.infer_cnn_int8(x).copy()
        assert a.tobytes() == b.tobytes()

    def test_inference_acquires_no_buffers(self, compiled):
        blob, _, _ = compiled
        engine = InferenceEngine(load_flat_model(blob))
        before = (engine.arena.acquisitions, engine.arena.acquired_bytes)
        rng = np.random.default_rng(14)
        for _ in range(5):
            engine.infer_epoch(rng.normal(size=(1, 256)).astype(np.float32))
        assert (engine.arena.acquisitions, engine.arena.acquired_bytes) == before
        assert engine.arena.frozen

    def test_probabilities_close_to_float_model(self, compiled, tiny_data_module):
        blob, qcnn, model = compiled
        engine = InferenceEngine(load_flat_model(blob))
        val_x = tiny_data_module[1][0][:32]
        float_probs = model.cnn_probs(val_x)
        int_probs = np.stack([
            engine.infer_cnn_int8(engine.quantize_input(e)).copy() for e in val_x
        ])
        assert np.abs(int_probs - float_probs).max() <= 0.25  # small model, PTQ-grade

    def test_stream_replay_consistency(self, compiled):
        blob, _, _ = compiled
        engine = InferenceEngine(load_flat_model(blob))
        rng = np.random.default_rng(15)
        epochs = rng.normal(size=(20, 1, 256)).astype(np.float32)
        engine.reset_stream()
        first = [engine.infer_epoch(e) for e in epochs]
        engine.reset_stream()
        second = [engine.infer_epoch(e) for e in epochs]
        for (sa, pa), (sb, pb) in zip(first, second):
            assert sa == sb
            np.testing.assert_array_equal(pa, pb)

    def test_non_finite_epoch_raises_and_keeps_position(self, compiled):
        blob, _, _ = compiled
        engine = InferenceEngine(load_flat_model(blob))
        epochs = np.random.default_rng(17).normal(size=(14, 1, 256)).astype(np.float32)
        for e in epochs[:5]:
            engine.infer_epoch(e)
        for bad_value in (np.nan, np.inf, -np.inf):
            bad = epochs[5].copy()
            bad[0, 100] = bad_value
            with pytest.raises(ValueError, match="non-finite"):
                engine.infer_epoch(bad)
        after_error = [engine.infer_epoch(e) for e in epochs[5:]]
        engine.reset_stream()
        clean = [engine.infer_epoch(e) for e in epochs][5:]
        for (sa, pa), (sb, pb) in zip(after_error, clean):
            assert sa == sb
            np.testing.assert_array_equal(pa, pb)

    def test_first_epoch_prediction_exists(self, compiled):
        blob, _, _ = compiled
        engine = InferenceEngine(load_flat_model(blob))
        engine.reset_stream()
        stage, probs = engine.infer_epoch(np.zeros((1, 256), dtype=np.float32))
        assert 0 <= stage < 5
        assert abs(probs.sum() - 1.0) < 1e-5


def _pointwise_chain(in_qp, out_qp, w, w_scale, bias, length) -> FlatModelSpec:
    """One quantized pointwise entry, then GAP and a zero-weight float head to
    complete the chain. The engine reads the [1, in_ch * length] model input
    row-major as in_ch channels of length samples."""
    out_ch, in_ch = w.shape
    rm = requant_multiplier(in_qp.scale, w_scale, out_qp.scale)
    pw = Entry(K_POINTWISE, 2, in_ch, out_ch, 1, 1, length, length, MODEL_INPUT, NO_AUX,
               out_qp.scale, out_qp.zero_point, rm, name="pw",
               w_scale=w_scale, weights=w, bias=bias)
    gap = Entry(K_GAP, 2, out_ch, out_ch, length, length, length, 1, 0, NO_AUX,
                out_qp.scale, out_qp.zero_point, None, name="gap")
    head = Entry(K_DENSE, 0, out_ch, 5, 0, 1, 1, 1, 1, NO_AUX, 0.0, 0, None,
                 name="head", weights=np.zeros((5, out_ch), dtype=np.float32),
                 bias=np.zeros(5, dtype=np.float32))
    seq = SeqParams(5, 2, 2, 5)
    for name, shape in seq.shapes().items():
        seq.tensors[name] = np.zeros(shape, dtype=np.float32)
    return FlatModelSpec(in_ch * length, 5, 2, 2, in_qp, [pw, gap, head], seq)


class TestHandBuiltPointwise:
    def _spec(self):
        """2 channels of length 4."""
        w = np.array([[2, -1], [3, 4]], dtype=np.int8)
        bias = np.array([7, -5], dtype=np.int32)
        return _pointwise_chain(QuantParams(0.5, -10), QuantParams(0.25, 3), w, 0.125,
                                bias, 4)

    def test_matches_hand_int32_arithmetic(self):
        spec = self._spec()
        engine = InferenceEngine(spec)
        x = np.array([[100, -100, 7, 0], [50, 25, -3, 127]], dtype=np.int8)
        _, traced = engine.infer_cnn_int8(x.reshape(1, 8), trace=True)
        pw_entry = spec.entries[0]
        rm = pw_entry.rm
        expect = np.empty((2, 4), dtype=np.int8)
        for o in range(2):
            for pos in range(4):
                acc = int(pw_entry.bias[o])
                for c in range(2):
                    acc += (int(x[c, pos]) - (-10)) * int(pw_entry.weights[o, c])
                prod = acc * rm.multiplier
                trs = 31 - rm.shift
                half = 1 << (trs - 1)
                mag = (abs(prod) + half) >> trs
                v = (mag if prod >= 0 else -mag) + 3
                expect[o, pos] = max(-128, min(127, v))
        np.testing.assert_array_equal(traced["pw"], expect)


class TestAccumulatorDtype:
    def test_rule_boundary(self):
        # 65793 * 255 = 2**24 - 1: the largest row sum float32 holds exactly
        row = np.full(519, 127, dtype=np.int8)
        row[-1] = 127 - (519 * 127 - 65793)
        assert int(np.abs(row.astype(np.int64)).sum()) == 65793
        assert accumulator_dtype(np.stack([row, np.zeros_like(row)])) is np.float32
        row[-1] += 1
        assert accumulator_dtype(np.stack([np.zeros_like(row), row])) is np.float64
        # -128 counts as 128; conv and depthwise rows are per output channel
        assert accumulator_dtype(np.full((2, 515, 1), -128, dtype=np.int8)) is np.float64
        assert accumulator_dtype(np.full((3, 32), 127, dtype=np.int8)) is np.float32

    def test_wide_pointwise_falls_back_to_float64_bit_exact(self):
        """A quantized pointwise entry over 20001 channels. Row 0 runs 10000
        weights of 127, then 10000 of -127 over the same inputs near the int8
        maximum, so its partial sums climb past 2**24 (even when a product
        splits them into 16 lanes) and cancel; the last channel (weight 1)
        alone sets the result. The requantization ratio is 1, so rounding
        partial sums to float32 would show in the output."""
        half, length = 10000, 6
        in_ch = 2 * half + 1
        rng = np.random.default_rng(21)
        in_qp = QuantParams(0.5, -128)
        out_qp = QuantParams(0.25, 0)
        w = rng.integers(-127, 128, (2, in_ch)).astype(np.int8)
        w[0, :half], w[0, half:2 * half], w[0, -1] = 127, -127, 1
        x = np.empty((in_ch, length), dtype=np.int8)
        x[:half] = rng.integers(122, 128, (half, length))
        x[half:2 * half] = x[:half]
        x[-1] = rng.integers(-128, 128, length)
        shifted = x.astype(np.int64) - in_qp.zero_point
        assert np.cumsum(w[0].astype(np.int64)[:, None] * shifted, axis=0).max() >= 2**24
        bias = np.array([-128, 0], dtype=np.int32)
        spec = _pointwise_chain(in_qp, out_qp, w, 0.5, bias, length)
        engine = InferenceEngine(spec)
        assert engine._ctx[0]["acc"].dtype == np.float64
        _, traced = engine.infer_cnn_int8(x.reshape(1, -1), trace=True)
        reference = simulate(spec, x.reshape(1, -1))
        np.testing.assert_array_equal(reference["pw"][0], shifted[-1] - 128)
        for name in ("pw", "gap"):
            expect = reference[name].reshape(traced[name].shape)
            assert traced[name].tobytes() == expect.tobytes(), name


def _frozen_default(epochs: int, make_plan=default_plan):
    """The default architecture, frozen without fine-tuning: the loaded spec
    and the calibrated activation parameters."""
    from morpheusnet.model import MorpheusConfig, build_morpheus

    model = build_morpheus(MorpheusConfig(), seed=0)
    rng = np.random.default_rng(0)
    x = rng.normal(size=(epochs, 1, 3000)).astype(np.float32)
    model.cnn_logits(x, mode="train")  # give batchnorm usable statistics
    icnn = fold_cnn(model)
    calib = calibrate_ranges(icnn, x)
    qcnn = freeze_quantized(icnn, make_plan(icnn), calib.act_qparams)
    return load_flat_model(compile_flat_model(qcnn, model.seq)), calib.act_qparams


def _frozen_default_spec(epochs: int) -> FlatModelSpec:
    """The default architecture, frozen to int8 without fine-tuning."""
    return _frozen_default(epochs)[0]


# per entry of the default model: main_src, aux_src, in_ch, out_ch, kernel,
# stride, in_len, out_len (the same under every plan)
_IN, _NO = MODEL_INPUT, NO_AUX
DEFAULT_GEOMETRY = [
    (_IN, _NO, 1, 16, 32, 1, 3000, 3000),  # start0.conv
    (0, _NO, 16, 16, 4, 4, 3000, 750),     # start0.pool
    (1, _NO, 16, 16, 8, 1, 750, 750),      # conv1.dw
    (2, _NO, 16, 32, 1, 1, 750, 750),      # conv1.pw
    (1, _NO, 16, 32, 1, 1, 750, 750),      # conv1.res
    (3, 4, 32, 32, 0, 1, 750, 750),        # conv1.add
    (5, _NO, 32, 32, 4, 4, 750, 187),      # pool2
    (6, _NO, 32, 32, 8, 1, 187, 187),      # identity3.dw
    (7, _NO, 32, 32, 1, 1, 187, 187),      # identity3.pw
    (8, 6, 32, 32, 0, 1, 187, 187),        # identity3.add
    (9, _NO, 32, 32, 8, 1, 187, 187),      # conv4.dw
    (10, _NO, 32, 64, 1, 1, 187, 187),     # conv4.pw
    (9, _NO, 32, 64, 1, 1, 187, 187),      # conv4.res
    (11, 12, 64, 64, 0, 1, 187, 187),      # conv4.add
    (13, _NO, 64, 64, 4, 4, 187, 46),      # pool5
    (14, _NO, 64, 64, 8, 1, 46, 46),       # identity6.dw
    (15, _NO, 64, 64, 1, 1, 46, 46),       # identity6.pw
    (16, 14, 64, 64, 0, 1, 46, 46),        # identity6.add
    (17, _NO, 64, 64, 46, 46, 46, 1),      # gap
    (18, _NO, 64, 5, 0, 1, 1, 1),          # head
]
# flags per entry (F_RELU = 1, F_QUANTIZED = 2) under each plan
DEFAULT_FLAGS = {
    "default": [3, 2, 2, 3, 2, 2, 2, 2, 3, 2, 2, 3, 2, 2, 2, 2, 3, 2, 2, 2],
    "exclusion": [1, 0, 2, 3, 2, 2, 2, 0, 1, 0, 2, 3, 2, 2, 2, 0, 1, 0, 0, 2],
}


class TestDefaultModelLowering:
    def test_mac_formulas_and_size(self):
        """Freeze the default architecture without fine-tuning and check the
        analytic MAC table and file size against closed-form values."""
        from morpheusnet.model import MorpheusConfig, build_morpheus

        model = build_morpheus(MorpheusConfig(), seed=0)
        rng = np.random.default_rng(0)
        x = rng.normal(size=(8, 1, 3000)).astype(np.float32)
        model.cnn_logits(x, mode="train")  # give batchnorm usable statistics
        icnn = fold_cnn(model)
        calib = calibrate_ranges(icnn, x)
        qcnn = freeze_quantized(icnn, default_plan(icnn), calib.act_qparams)
        blob = compile_flat_model(qcnn, model.seq)
        assert len(blob) <= 102_400
        engine = InferenceEngine(load_flat_model(blob), model_bytes=len(blob))
        macs = engine.mac_counts()
        assert macs["entry0"] == 16 * 1 * 32 * 3000        # start conv
        assert macs["entry3"] == 16 * 32 * 750 == 384_000  # first pointwise
        assert macs["entry19"] == 64 * 5 == 320            # head dense
        assert macs["seq.out"] == 160
        assert sum(macs.values()) == engine.profile(x[:1], runs=1).macs_total

    def test_every_weighted_entry_accumulates_in_float32(self):
        spec = _frozen_default_spec(4)
        engine = InferenceEngine(spec)
        weighted = [i for i, e in enumerate(spec.entries)
                    if e.kind in (K_CONV, K_DEPTHWISE, K_POINTWISE, K_DENSE)]
        assert len(weighted) == 12
        for i in weighted:
            assert spec.entries[i].quantized
            assert engine._ctx[i]["acc"].dtype == np.float32, spec.entries[i].name

    def test_entry_layout_of_default_model(self):
        from morpheusnet.flatmodel import (K_ADD, K_AVGPOOL, K_CONV, K_DENSE,
                                           K_DEPTHWISE, K_GAP, K_MAXPOOL,
                                           K_POINTWISE)
        for plan_name, make_plan in (("default", default_plan), ("exclusion", exclusion_plan)):
            spec, act_qp = _frozen_default(4, make_plan)
            kinds = [e.kind for e in spec.entries]
            assert kinds == [
                K_CONV, K_MAXPOOL,                       # start block
                K_DEPTHWISE, K_POINTWISE, K_POINTWISE, K_ADD,  # conv block
                K_MAXPOOL,
                K_DEPTHWISE, K_POINTWISE, K_ADD,         # identity block
                K_DEPTHWISE, K_POINTWISE, K_POINTWISE, K_ADD,  # conv block
                K_AVGPOOL,
                K_DEPTHWISE, K_POINTWISE, K_ADD,         # identity block
                K_GAP, K_DENSE,
            ]
            assert [(e.main_src, e.aux_src, e.in_ch, e.out_ch, e.kernel, e.stride,
                     e.in_len, e.out_len) for e in spec.entries] == DEFAULT_GEOMETRY
            assert [e.flags for e in spec.entries] == DEFAULT_FLAGS[plan_name]
            self._check_requantization_invariants(spec, act_qp)

    @staticmethod
    def _check_requantization_invariants(spec, act_qp):
        from morpheusnet.flatmodel import K_ADD, K_AVGPOOL, K_GAP, K_MAXPOOL

        for e in spec.entries:
            if e.kind == K_ADD:  # the main operand is already in the add's parameters
                main = spec.entries[e.main_src]
                assert (main.out_scale, main.out_zp) == (e.out_scale, e.out_zp), e.name
            if e.kind in (K_MAXPOOL, K_AVGPOOL, K_GAP):
                src = spec.entries[e.main_src]
                assert (src.out_scale, src.out_zp) == (e.out_scale, e.out_zp)
                assert src.quantized == e.quantized
        # entries with an activation point: the start conv, each depthwise and each add
        acts = {0: "start0.out", 2: "conv1.dw", 5: "conv1.out", 7: "identity3.dw",
                9: "identity3.out", 10: "conv4.dw", 13: "conv4.out", 15: "identity6.dw",
                17: "identity6.out"}
        for i, point in acts.items():
            qp, e = act_qp[point], spec.entries[i]
            assert (e.out_scale, e.out_zp) == (np.float32(qp.scale), qp.zero_point), point
        assert spec.entries[-1].out_scale == 0.0  # float logits


class TestFloatPooling:
    def test_exclusion_plan_max_pools_match_numpy_reduction(self):
        """Float max-pool entries of the exclusion plan equal numpy's max over
        each window of their traced input, byte for byte; 254 samples and a
        window of 5 over 63 leave remainders that pooling drops."""
        from morpheusnet.model import LayerSpec, MorpheusConfig, build_morpheus

        config = MorpheusConfig(input_len=254, layers=(
            LayerSpec("start", filters=4, kernel=8, pool_kind="max", pool_size=4),
            LayerSpec("identity_block", filters=4, kernel=4),
            LayerSpec("pool", pool_kind="max", pool_size=5),
        ))
        model = build_morpheus(config, seed=3)
        rng = np.random.default_rng(3)
        x = rng.normal(size=(8, 1, 254)).astype(np.float32)
        model.cnn_logits(x, mode="train")
        icnn = fold_cnn(model)
        calib = calibrate_ranges(icnn, x)
        qcnn = freeze_quantized(icnn, exclusion_plan(icnn), calib.act_qparams)
        spec = load_flat_model(compile_flat_model(qcnn, model.seq))
        engine = InferenceEngine(spec)
        pools = [e for e in spec.entries if e.kind == K_MAXPOOL and not e.quantized]
        assert len(pools) == 2
        assert all(e.in_len % e.kernel for e in pools)
        for _ in range(4):
            q = rng.integers(-128, 128, size=(1, 254)).astype(np.int8)
            _, traced = engine.infer_cnn_int8(q, trace=True)
            for e in pools:
                src = spec.entries[e.main_src]
                assert not src.quantized
                inp = traced[src.name].reshape(e.in_ch, e.in_len)
                n = e.in_len // e.kernel
                expect = inp[:, :n * e.kernel].reshape(e.in_ch, n, e.kernel).max(axis=2)
                got = traced[e.name]
                assert got.dtype == expect.dtype == np.float32
                assert got.tobytes() == expect.tobytes(), e.name


class TestMacCounts:
    def test_formulas(self, compiled):
        blob, _, _ = compiled
        engine = InferenceEngine(load_flat_model(blob))
        macs = engine.mac_counts()
        # chain: conv, pool, dw, pw, res, add, pool, dw, pw, add, gap, head
        assert macs["entry0"] == 4 * 1 * 8 * 256   # start conv
        assert macs["entry2"] == 4 * 4 * 64        # depthwise, length 64
        assert macs["entry3"] == 4 * 8 * 64        # pointwise 4 -> 8
        assert macs["entry11"] == 8 * 5            # head dense
        assert macs["seq.out"] == 5 * 32 == 160
        assert macs["seq.lstm"] == 12 * 4 * 32 * 37
        assert macs["entry1"] == 0                 # pooling costs no multiplies

    def test_profile_report(self, compiled):
        blob, _, _ = compiled
        engine = InferenceEngine(load_flat_model(blob), model_bytes=len(blob))
        rng = np.random.default_rng(16)
        samples = rng.normal(size=(4, 1, 256)).astype(np.float32)
        report = engine.profile(samples, runs=10)
        assert report.macs_total == sum(report.macs_per_layer.values())
        assert report.model_bytes == len(blob)
        assert report.latency_ms_median > 0
        assert report.latency_ms_p95 >= report.latency_ms_median
        import json

        keys = set(json.loads(report.to_json()))
        assert keys == {"macs_total", "macs_per_layer", "peak_arena_bytes",
                        "model_bytes", "latency_ms_median", "latency_ms_p95"}
