"""Forward-value and gradient tests for the numeric kernels."""

import numpy as np
import pytest

from morpheusnet.ops import (
    BatchNormState,
    Conv1dParams,
    LstmParams,
    SeparableConv1dParams,
    ShapeError,
    batchnorm1d,
    conv1d,
    dense,
    depthwise_conv1d,
    dropout,
    fold_batchnorm,
    lstm_sequence,
    pointwise_conv1d,
    pool1d,
    relu,
    separable_conv1d,
    softmax,
    softmax_cross_entropy,
)
from morpheusnet.tensor import Tensor, finite_difference_gradient

from oracles import (
    check_gradient,
    naive_conv1d,
    naive_separable_conv1d,
    separable_param_count,
)


def _conv_params(w, b, stride=1, padding="valid"):
    return Conv1dParams(Tensor(np.asarray(w, dtype=np.float64)),
                        Tensor(np.asarray(b, dtype=np.float64)),
                        stride=stride, padding=padding)


def _sep_params(dw, pw, b):
    return SeparableConv1dParams(Tensor(np.asarray(dw, dtype=np.float64)),
                                 Tensor(np.asarray(pw, dtype=np.float64)),
                                 Tensor(np.asarray(b, dtype=np.float64)))


def _bn_state(c, gamma=None, beta=None, mean=None, var=None, momentum=0.99, eps=1e-5):
    return BatchNormState(
        Tensor(np.ones(c) if gamma is None else np.asarray(gamma, dtype=np.float64)),
        Tensor(np.zeros(c) if beta is None else np.asarray(beta, dtype=np.float64)),
        Tensor(np.zeros(c) if mean is None else np.asarray(mean, dtype=np.float64)),
        Tensor(np.ones(c) if var is None else np.asarray(var, dtype=np.float64)),
        momentum=momentum, epsilon=eps,
    )


def _random_lstm(rng, isz, hsz, dtype=np.float64):
    def w():
        return Tensor(rng.normal(0, 0.4, (hsz, isz + hsz)).astype(dtype))

    def b():
        return Tensor(rng.normal(0, 0.2, hsz).astype(dtype))

    return LstmParams(isz, hsz, w(), w(), w(), w(), b(), b(), b(), b())


class TestConv1d:
    def test_hand_example_matches_oracle(self):
        # oracle-evaluated fixture: [1,2,3] against kernel [1,0,-1], valid
        x = np.array([[1.0, 2.0, 3.0]])
        w = np.array([[[1.0, 0.0, -1.0]]])
        b = np.array([0.0])
        expect = naive_conv1d(x, w, b)
        assert expect.tolist() == [[-2.0]]
        y = conv1d(x, _conv_params(w, b))
        np.testing.assert_allclose(y, expect)

    def test_identity_kernel(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(3, 11))
        w = np.zeros((3, 3, 1))
        for c in range(3):
            w[c, c, 0] = 1.0
        y = conv1d(x, _conv_params(w, np.zeros(3)))
        np.testing.assert_allclose(y, x)

    @pytest.mark.parametrize("stride,padding", [(1, "valid"), (2, "valid"), (1, "same"), (3, "same")])
    def test_matches_naive_oracle(self, stride, padding):
        rng = np.random.default_rng(7 + stride)
        x = rng.normal(size=(2, 16))
        w = rng.normal(size=(3, 2, 5))
        b = rng.normal(size=3)
        if padding == "same":
            out_len = -(-16 // stride)
            total = max(0, (out_len - 1) * stride + 5 - 16)
            left, right = total // 2, total - total // 2
        else:
            left = right = 0
        expect = naive_conv1d(x, w, b, stride=stride, pad_left=left, pad_right=right)
        got = conv1d(x, _conv_params(w, b, stride=stride, padding=padding))
        np.testing.assert_allclose(got, expect, atol=1e-6)

    def test_batched_matches_per_sample(self):
        rng = np.random.default_rng(3)
        xs = rng.normal(size=(4, 2, 12))
        params = _conv_params(rng.normal(size=(3, 2, 4)), rng.normal(size=3))
        batched = conv1d(xs, params)
        for i in range(4):
            np.testing.assert_allclose(batched[i], conv1d(xs[i], params))

    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(11)
        x = rng.normal(size=(2, 16))
        w = rng.normal(size=(3, 2, 5))
        b = rng.normal(size=3)
        params = _conv_params(w, b)
        y, back = conv1d(x, params, want_grads=True)
        dy = rng.normal(size=y.shape)
        dx, dw, db = back(dy)

        check_gradient(lambda v: float((conv1d(v, params) * dy).sum()), x, dx, tol=1e-5)
        check_gradient(
            lambda v: float((conv1d(x, _conv_params(v, b)) * dy).sum()), w, dw, tol=1e-5
        )
        check_gradient(
            lambda v: float((conv1d(x, _conv_params(w, v)) * dy).sum()), b, db, tol=1e-5
        )

    def test_shape_errors(self):
        params = _conv_params(np.ones((1, 2, 3)), np.zeros(1))
        with pytest.raises(ShapeError):
            conv1d(np.ones((3, 8)), params)
        with pytest.raises(ShapeError):
            conv1d(np.ones((2, 0)), params)
        with pytest.raises(ShapeError):
            conv1d(np.ones((2, 2)), params)  # shorter than kernel, valid padding


class TestSeparableConv1d:
    def test_identity_composition(self):
        rng = np.random.default_rng(5)
        x = rng.normal(size=(4, 9))
        dw = np.ones((4, 1))
        pw = np.eye(4)
        y = separable_conv1d(x, _sep_params(dw, pw, np.zeros(4)))
        np.testing.assert_allclose(y, x)

    def test_parameter_count_formula(self):
        assert separable_param_count(16, 8, 32) == 672

    def test_matches_naive_oracle(self):
        rng = np.random.default_rng(9)
        x = rng.normal(size=(3, 14))
        dw = rng.normal(size=(3, 5))
        pw = rng.normal(size=(4, 3))
        b = rng.normal(size=4)
        expect = naive_separable_conv1d(x, dw, pw, b)
        got = separable_conv1d(x, _sep_params(dw, pw, b))
        np.testing.assert_allclose(got, expect, atol=1e-6)

    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(13)
        x = rng.normal(size=(3, 10))
        dw = rng.normal(size=(3, 4))
        pw = rng.normal(size=(2, 3))
        b = rng.normal(size=2)
        # the composite, then each of its halves alone; every op takes its
        # arrays positionally, and backward returns their gradients in order
        cases = [
            (lambda v, d, p, c, **kw: separable_conv1d(v, _sep_params(d, p, c), **kw),
             [x, dw, pw, b]),
            (lambda v, d, **kw: depthwise_conv1d(v, Tensor(d), **kw), [x, dw]),
            (lambda v, p, c, **kw: pointwise_conv1d(v, Tensor(p), Tensor(c), **kw), [x, pw, b]),
        ]
        for op, args in cases:
            y, back = op(*args, want_grads=True)
            dy = rng.normal(size=y.shape)
            grads = back(dy)
            assert len(grads) == len(args)
            for i, grad in enumerate(grads):
                def loss(v, i=i):
                    return float((op(*args[:i], v, *args[i + 1:]) * dy).sum())

                check_gradient(loss, args[i], grad, tol=1e-5)

    def test_channel_mismatch(self):
        with pytest.raises(ShapeError):
            separable_conv1d(np.ones((2, 8)), _sep_params(np.ones((3, 3)), np.ones((2, 3)), np.zeros(2)))


class TestPool1d:
    def test_constant_input(self):
        x = np.full((2, 8), 3.5)
        for kind in ("max", "avg"):
            y = pool1d(x, kind, 4)
            np.testing.assert_allclose(y, np.full((2, 2), 3.5))

    def test_hand_windows(self):
        x = np.array([[1.0, 3.0, 2.0, 2.0]])
        np.testing.assert_allclose(pool1d(x, "max", 2), [[3.0, 2.0]])
        np.testing.assert_allclose(pool1d(x, "avg", 2), [[2.0, 2.0]])

    def test_max_gradient_routes_to_argmax(self):
        x = np.array([[1.0, 3.0]])
        y, back = pool1d(x, "max", 2, want_grads=True)
        dx = back(np.ones_like(y))
        np.testing.assert_allclose(dx, [[0.0, 1.0]])

    def test_tie_takes_first(self):
        x = np.array([[2.0, 2.0]])
        _, back = pool1d(x, "max", 2, want_grads=True)
        np.testing.assert_allclose(back(np.ones((1, 1))), [[1.0, 0.0]])

    def test_remainder_dropped(self):
        x = np.arange(7, dtype=np.float64)[None, :]
        assert pool1d(x, "avg", 3).shape == (1, 2)

    @pytest.mark.parametrize("kind", ["max", "avg"])
    def test_gradients(self, kind):
        rng = np.random.default_rng(17)
        x = rng.normal(size=(2, 9))
        y, back = pool1d(x, kind, 3, want_grads=True)
        dy = rng.normal(size=y.shape)
        dx = back(dy)
        check_gradient(lambda v: float((pool1d(v, kind, 3) * dy).sum()), x, dx, tol=1e-5)

    def test_window_errors(self):
        with pytest.raises(ShapeError):
            pool1d(np.ones((1, 3)), "max", 4)
        with pytest.raises(ValueError):
            pool1d(np.ones((1, 3)), "max", 0)


class TestBatchNorm1d:
    def test_train_mode_normalizes(self):
        rng = np.random.default_rng(23)
        x = rng.normal(2.0, 3.0, size=(4, 3, 16))
        state = _bn_state(3)
        y = batchnorm1d(x, state, "train")
        np.testing.assert_allclose(y.mean(axis=(0, 2)), 0.0, atol=1e-10)
        np.testing.assert_allclose(y.var(axis=(0, 2)), 1.0, atol=1e-3)

    def test_infer_identity_statistics(self):
        rng = np.random.default_rng(29)
        x = rng.normal(size=(2, 3, 8))
        state = _bn_state(3, eps=1e-12)
        y = batchnorm1d(x, state, "infer")
        np.testing.assert_allclose(y, x, atol=1e-9)

    def test_running_stats_updated(self):
        rng = np.random.default_rng(31)
        x = rng.normal(5.0, 2.0, size=(8, 2, 32))
        state = _bn_state(2)
        batchnorm1d(x, state, "train")
        expect_mean = 0.99 * 0.0 + 0.01 * x.mean(axis=(0, 2))
        np.testing.assert_allclose(state.running_mean.data, expect_mean)

    def test_train_gradients(self):
        rng = np.random.default_rng(37)
        x = rng.normal(size=(2, 3, 6))
        gamma = rng.normal(1.0, 0.2, 3)
        beta = rng.normal(0.0, 0.2, 3)

        def fresh(g, bta):
            return _bn_state(3, gamma=g, beta=bta)

        y, back = batchnorm1d(x, fresh(gamma, beta), "train", want_grads=True)
        dy = rng.normal(size=y.shape)
        dx, dgamma, dbeta = back(dy)

        check_gradient(
            lambda v: float((batchnorm1d(v, fresh(gamma, beta), "train") * dy).sum()),
            x, dx, tol=1e-4)
        check_gradient(
            lambda v: float((batchnorm1d(x, fresh(v, beta), "train") * dy).sum()),
            gamma, dgamma, tol=1e-4)
        check_gradient(
            lambda v: float((batchnorm1d(x, fresh(gamma, v), "train") * dy).sum()),
            beta, dbeta, tol=1e-4)

    def test_too_few_values(self):
        with pytest.raises(ShapeError):
            batchnorm1d(np.ones((1, 2, 1)), _bn_state(2), "train")


class TestFoldBatchnorm:
    def test_identity_fold(self):
        rng = np.random.default_rng(41)
        conv = _conv_params(rng.normal(size=(2, 3, 3)), rng.normal(size=2))
        state = _bn_state(2, eps=1e-12)
        folded = fold_batchnorm(conv, state)
        np.testing.assert_allclose(folded.weights.data, conv.weights.data, rtol=1e-9)
        np.testing.assert_allclose(folded.bias.data, conv.bias.data, atol=1e-9)

    @pytest.mark.parametrize("seed", range(4))
    def test_fold_equivalence_conv(self, seed):
        rng = np.random.default_rng(100 + seed)
        conv = _conv_params(rng.normal(size=(4, 3, 5)), rng.normal(size=4), padding="same")
        state = _bn_state(
            4,
            gamma=rng.normal(1.0, 0.3, 4),
            beta=rng.normal(size=4),
            mean=rng.normal(size=4),
            var=rng.uniform(0.2, 2.0, 4),
        )
        folded = fold_batchnorm(conv, state)
        x = rng.normal(size=(2, 3, 20))
        want = batchnorm1d(conv1d(x, conv), state, "infer")
        got = conv1d(x, folded)
        assert np.max(np.abs(want - got)) <= 1e-5

    def test_fold_equivalence_separable(self):
        rng = np.random.default_rng(43)
        sep = _sep_params(rng.normal(size=(3, 5)), rng.normal(size=(4, 3)), rng.normal(size=4))
        state = _bn_state(
            4,
            gamma=rng.normal(1.0, 0.3, 4),
            beta=rng.normal(size=4),
            mean=rng.normal(size=4),
            var=rng.uniform(0.2, 2.0, 4),
        )
        folded = fold_batchnorm(sep, state)
        x = rng.normal(size=(3, 17))
        want = batchnorm1d(separable_conv1d(x, sep)[None], state, "infer")[0]
        got = separable_conv1d(x, folded)
        assert np.max(np.abs(want - got)) <= 1e-5

    def test_degenerate_variance(self):
        conv = _conv_params(np.ones((1, 1, 1)), np.zeros(1))
        state = _bn_state(1, var=[0.0], eps=0.0)
        with pytest.raises(ValueError):
            fold_batchnorm(conv, state)


class TestDense:
    def test_identity(self):
        x = np.array([1.0, -2.0, 3.0])
        y = dense(x, Tensor(np.eye(3)), Tensor(np.zeros(3)))
        np.testing.assert_allclose(y, x)

    def test_hand_arithmetic(self):
        y = dense(np.array([4.0, 5.0]), Tensor(np.array([[1.0, 2.0]])), Tensor(np.array([3.0])))
        np.testing.assert_allclose(y, [17.0])

    def test_gradients(self):
        rng = np.random.default_rng(47)
        x = rng.normal(size=(3, 4))
        w = rng.normal(size=(2, 4))
        b = rng.normal(size=2)
        y, back = dense(x, Tensor(w), Tensor(b), want_grads=True)
        dy = rng.normal(size=y.shape)
        dx, dw, db = back(dy)
        check_gradient(lambda v: float((dense(v, Tensor(w), Tensor(b)) * dy).sum()), x, dx, tol=1e-5)
        check_gradient(lambda v: float((dense(x, Tensor(v), Tensor(b)) * dy).sum()), w, dw, tol=1e-5)
        check_gradient(lambda v: float((dense(x, Tensor(w), Tensor(v)) * dy).sum()), b, db, tol=1e-5)

    def test_shape_error(self):
        with pytest.raises(ShapeError):
            dense(np.ones(3), Tensor(np.ones((2, 4))), Tensor(np.zeros(2)))


class TestLstm:
    def test_zero_dynamics(self):
        params = LstmParams(
            2, 3,
            *(Tensor(np.zeros((3, 5))) for _ in range(4)),
            *(Tensor(np.zeros(3)) for _ in range(4)),
        )
        hs = lstm_sequence(np.ones((4, 2)), params)
        np.testing.assert_allclose(hs, 0.0)

    def test_single_step_is_cell(self):
        rng = np.random.default_rng(53)
        params = _random_lstm(rng, 3, 4)
        x = rng.normal(size=(1, 3))
        hs = lstm_sequence(x, params)

        z = np.concatenate([x[0], np.zeros(4)])
        gi = 1 / (1 + np.exp(-(params.w_i.data @ z + params.b_i.data)))
        gf = 1 / (1 + np.exp(-(params.w_f.data @ z + params.b_f.data)))
        gg = np.tanh(params.w_g.data @ z + params.b_g.data)
        go = 1 / (1 + np.exp(-(params.w_o.data @ z + params.b_o.data)))
        c = gi * gg
        np.testing.assert_allclose(hs[0], go * np.tanh(c), atol=1e-12)

    def test_bptt_gradients(self):
        rng = np.random.default_rng(59)
        isz, hsz, t = 3, 4, 5
        params = _random_lstm(rng, isz, hsz)
        x = rng.normal(size=(t, isz))
        hs, back = lstm_sequence(x, params, want_grads=True)
        dy = rng.normal(size=hs.shape)
        dx, grads = back(dy)

        check_gradient(
            lambda v: float((lstm_sequence(v, params) * dy).sum()), x, dx, tol=1e-4
        )
        for name in ("w_i", "w_f", "w_g", "w_o", "b_i", "b_f", "b_g", "b_o"):
            tensor = getattr(params, name)
            orig = tensor.data.copy()

            def f(v, _t=tensor, _o=orig):
                _t.data = v
                try:
                    return float((lstm_sequence(x, params) * dy).sum())
                finally:
                    _t.data = _o

            check_gradient(f, orig, grads[name], tol=1e-4)

    def test_empty_sequence(self):
        params = _random_lstm(np.random.default_rng(0), 2, 3)
        with pytest.raises(ShapeError):
            lstm_sequence(np.zeros((0, 2)), params)


class TestActivations:
    def test_softmax_uniform(self):
        s = softmax(np.zeros((1, 5)))
        np.testing.assert_allclose(s, 0.2)

    def test_softmax_rows_sum_to_one(self):
        rng = np.random.default_rng(61)
        s = softmax(rng.normal(0, 10, size=(50, 7)))
        np.testing.assert_allclose(s.sum(axis=-1), 1.0, atol=1e-9)
        assert (s > 0).all()

    def test_softmax_gradient(self):
        rng = np.random.default_rng(67)
        x = rng.normal(size=(2, 4))
        s, back = softmax(x, want_grads=True)
        dy = rng.normal(size=s.shape)
        check_gradient(lambda v: float((softmax(v) * dy).sum()), x, back(dy), tol=1e-5)

    def test_relu_definition(self):
        np.testing.assert_allclose(relu(np.array([-1.0, 2.0])), [0.0, 2.0])

    def test_dropout_rate_zero_identity(self):
        x = np.arange(6.0).reshape(2, 3)
        for mode in ("train", "infer"):
            np.testing.assert_array_equal(dropout(x, 0.0, 0, mode), x)

    def test_dropout_rate_one_rejected(self):
        with pytest.raises(ValueError):
            dropout(np.ones(3), 1.0, 0, "train")

    def test_dropout_preserves_expectation(self):
        # Monte-Carlo over >= 10^4 trials: mean within 2% of the identity
        rng = np.random.default_rng(71)
        x = np.ones((20000, 8))
        y = dropout(x, 0.2, rng, "train")
        assert abs(y.mean() - 1.0) < 0.02

    def test_dropout_seed_reproducible(self):
        x = np.arange(100.0)
        a = dropout(x, 0.3, 123, "train")
        b = dropout(x, 0.3, 123, "train")
        np.testing.assert_array_equal(a, b)


class TestSoftmaxCrossEntropy:
    def test_uniform_logits(self):
        loss, _ = softmax_cross_entropy(np.zeros((4, 5)), np.array([0, 1, 2, 3]))
        np.testing.assert_allclose(loss, np.log(5.0), rtol=1e-12)

    def test_confident_correct_goes_to_zero(self):
        logits = np.array([[40.0, 0.0, 0.0]])
        loss, _ = softmax_cross_entropy(logits, np.array([0]))
        assert loss < 1e-12

    def test_gradient(self):
        rng = np.random.default_rng(73)
        logits = rng.normal(size=(4, 5))
        labels = rng.integers(0, 5, size=4)
        _, dlogits = softmax_cross_entropy(logits, labels)
        check_gradient(
            lambda v: softmax_cross_entropy(v, labels)[0], logits, dlogits, tol=1e-5
        )

    def test_out_of_range_label(self):
        with pytest.raises(ValueError):
            softmax_cross_entropy(np.zeros((2, 3)), np.array([0, 3]))


class TestFiniteDifference:
    def test_square(self):
        g = finite_difference_gradient(lambda v: float((v ** 2).sum()), np.array([3.0]))
        np.testing.assert_allclose(g, [6.0], atol=1e-6)

    def test_constant(self):
        g = finite_difference_gradient(lambda v: 1.25, np.ones(4))
        np.testing.assert_allclose(g, 0.0)

    def test_sum(self):
        g = finite_difference_gradient(lambda v: float(v.sum()), np.ones((2, 3)))
        np.testing.assert_allclose(g, 1.0, atol=1e-9)
