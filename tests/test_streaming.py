"""Streaming predictor: padding, causality, determinism."""

import numpy as np
import pytest

from conftest import SMALL_CONFIG
from morpheusnet.model import build_morpheus
from morpheusnet.ops import ShapeError
from morpheusnet.streaming import StreamPredictor, predict_stream


def _epochs(n, seed=0):
    return np.random.default_rng(seed).normal(size=(n, 1, 256)).astype(np.float32)


@pytest.fixture(scope="module")
def model():
    return build_morpheus(SMALL_CONFIG, seed=5)


def test_first_epoch_already_predicts(model):
    predictor = StreamPredictor(model)
    stage, probs = predictor.push(_epochs(1)[0])
    assert 0 <= stage < 5
    assert probs.shape == (5,)
    assert abs(probs.sum() - 1.0) < 1e-5


def test_one_prediction_per_epoch(model):
    outs = predict_stream(model, _epochs(30))
    assert len(outs) == 30


def test_replay_matches_incremental(model):
    epochs = _epochs(25, seed=1)
    predictor = StreamPredictor(model)
    one_by_one = [predictor.push(e) for e in epochs]
    replayed = predict_stream(model, epochs)
    for (sa, pa), (sb, pb) in zip(one_by_one, replayed):
        assert sa == sb
        np.testing.assert_array_equal(pa, pb)


def test_causal_truncation_property(model):
    epochs = _epochs(20, seed=2)
    full = predict_stream(model, epochs)
    truncated = predict_stream(model, epochs[:12])
    for (sa, pa), (sb, pb) in zip(truncated, full[:12]):
        assert sa == sb
        np.testing.assert_array_equal(pa, pb)


def test_same_stream_twice_identical(model):
    epochs = _epochs(15, seed=3)
    a = predict_stream(model, epochs)
    b = predict_stream(model, epochs)
    for (sa, pa), (sb, pb) in zip(a, b):
        assert sa == sb
        np.testing.assert_array_equal(pa, pb)


def test_malformed_epoch_preserves_position(model):
    predictor = StreamPredictor(model)
    epochs = _epochs(14, seed=4)
    for e in epochs[:5]:
        predictor.push(e)
    with pytest.raises(ShapeError):
        predictor.push(np.zeros((1, 100), dtype=np.float32))
    # the failed push must not have consumed a slot
    after_error = [predictor.push(e) for e in epochs[5:]]
    clean = predict_stream(model, epochs)[5:]
    for (sa, pa), (sb, pb) in zip(after_error, clean):
        assert sa == sb
        np.testing.assert_array_equal(pa, pb)


def test_non_finite_epoch_preserves_position(model):
    predictor = StreamPredictor(model)
    epochs = _epochs(14, seed=6)
    for e in epochs[:5]:
        predictor.push(e)
    for bad_value in (np.nan, np.inf, -np.inf):
        bad = epochs[5].copy()
        bad[0, 17] = bad_value
        with pytest.raises(ValueError, match="non-finite"):
            predictor.push(bad)
    after_error = [predictor.push(e) for e in epochs[5:]]
    clean = predict_stream(model, epochs)[5:]
    for (sa, pa), (sb, pb) in zip(after_error, clean):
        assert sa == sb
        np.testing.assert_array_equal(pa, pb)
