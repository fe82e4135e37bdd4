"""Each forward is one op sequence: gradients change what is kept, never the output.

With ``want_grads=True`` a forward must give the same bytes as without, and
without it a forward must keep no backward state (closures, saved inputs,
column matrices) alive while it runs.
"""

import tracemalloc

import numpy as np
import pytest

from morpheusnet.model import MorpheusConfig, build_morpheus
from morpheusnet.nas import SearchConfig, build_search_network, supernet_logits
from morpheusnet.quantize import calibrate_ranges, default_plan, fold_cnn, icnn_forward

SEARCH = SearchConfig(
    conv_grid=(("normal_conv", 4, 4), ("separable_conv", 4, 4), ("normal_conv", 8, 8)),
    pool_window=4,
    cell_layout=("conv", "reduce", "conv"),
    seed=0,
)


def _epochs(n, seed=0):
    return np.random.default_rng(seed).normal(0, 1, (n, 1, 3000)).astype(np.float32)


@pytest.fixture(scope="module")
def model():
    return build_morpheus(MorpheusConfig(), seed=2)


@pytest.fixture(scope="module")
def quantized(model):
    icnn = fold_cnn(model)
    calibration = calibrate_ranges(icnn, _epochs(16, seed=1))
    return icnn, default_plan(icnn), calibration.act_qparams


def _same_bytes(a, b):
    assert a.dtype == b.dtype and a.shape == b.shape
    assert a.tobytes() == b.tobytes()


class TestParity:
    def test_cnn_logits(self, model):
        x = _epochs(4)
        _same_bytes(model.cnn_logits(x, "infer", True)[0], model.cnn_logits(x, "infer"))

    def test_sequence_logits(self, model):
        x = np.random.default_rng(3).dirichlet(np.ones(5), (6, 12)).astype(np.float32)
        _same_bytes(model.seq.logits(x, "infer", want_grads=True)[0],
                    model.seq.logits(x, "infer"))

    def test_supernet_logits(self):
        net = build_search_network(SEARCH, 256)
        x = np.random.default_rng(4).normal(size=(3, 1, 256)).astype(np.float32)
        _same_bytes(supernet_logits(net, x, True)[0], supernet_logits(net, x))

    def test_icnn_forward_default_plan(self, quantized):
        icnn, plan, act_qp = quantized
        x = _epochs(4, seed=5)
        with_grads, _ = icnn_forward(icnn, x, plan=plan, act_qp=act_qp, want_grads=True)
        _same_bytes(with_grads, icnn_forward(icnn, x, plan=plan, act_qp=act_qp))


def _peak_bytes(forward):
    """Peak traced allocation while ``forward()`` runs."""
    tracemalloc.start()
    try:
        forward()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestInferenceKeepsNoBackwardState:
    # with grads the op inputs and column matrices stay alive for the backward
    # pass; without them each intermediate dies after the op that consumes it
    RATIO = 0.6

    def test_cnn_logits(self, model):
        x = _epochs(32, seed=6)
        infer = _peak_bytes(lambda: model.cnn_logits(x, "infer"))
        grads = _peak_bytes(lambda: model.cnn_logits(x, "infer", True))
        assert infer <= self.RATIO * grads, (infer, grads)

    def test_folded_forward_peaks_no_higher_than_the_model(self, model):
        """Without a plan the folded forward drops each value after its last
        reader, so it peaks no higher than the batchnorm model it folds."""
        icnn = fold_cnn(model)
        x = _epochs(32, seed=8)
        folded = _peak_bytes(lambda: icnn_forward(icnn, x))
        unfolded = _peak_bytes(lambda: model.cnn_logits(x, "infer"))
        assert folded <= 1.05 * unfolded, (folded, unfolded)

    def test_icnn_forward(self, quantized):
        icnn, plan, act_qp = quantized
        x = _epochs(32, seed=7)
        infer = _peak_bytes(lambda: icnn_forward(icnn, x, plan=plan, act_qp=act_qp))
        grads = _peak_bytes(
            lambda: icnn_forward(icnn, x, plan=plan, act_qp=act_qp, want_grads=True))
        assert infer <= self.RATIO * grads, (infer, grads)
