"""1-D neural-network kernels with hand-derived backward passes.

Every operation is a pure function over caller-owned arrays. With
``want_grads=True`` it returns ``(output, backward)`` where ``backward`` maps
the upstream output gradient to the gradient of the input followed by the
gradients of the parameters, in the order their owner's ``parameters()``
lists them (``lstm_sequence`` returns a dict keyed by field name instead);
otherwise it returns the output alone. ``run`` gives both cases the shape
``(output, backward or None)`` so that a layer writes its forward once, and
``backprop`` applies the parameter-order rule. Inputs may be single samples
(``[C, L]``) or batches (``[B, C, L]``); gradients come back with the same
layout.

``separable_conv1d`` is ``depthwise_conv1d`` followed by ``pointwise_conv1d``;
the halves stand alone where quantization observes the activation between
them. ``global_avg_pool`` averages over time ahead of a classifier head.

Convolutions use cross-correlation semantics (the machine-learning
convention). Arithmetic stays in the dtype of the input, so training runs in
float32 while float64 inputs give float64 results for numeric checks.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .tensor import Tensor


class ShapeError(ValueError):
    """Raised when operand shapes are inconsistent with an op's contract."""


@dataclass
class Conv1dParams:
    """Weights ``[out_channels, in_channels, kernel]``, bias ``[out_channels]``."""

    weights: Tensor
    bias: Tensor
    stride: int = 1
    padding: str = "same"  # "same" | "valid"

    def __post_init__(self) -> None:
        if self.weights.data.ndim != 3:
            raise ShapeError("conv weights must be [out_channels, in_channels, kernel]")
        if self.bias.data.shape != (self.weights.data.shape[0],):
            raise ShapeError("conv bias must be [out_channels]")
        if self.stride < 1:
            raise ValueError("stride must be >= 1")
        if self.padding not in ("same", "valid"):
            raise ValueError(f"unknown padding {self.padding!r}")

    @property
    def out_channels(self) -> int:
        return self.weights.data.shape[0]

    @property
    def in_channels(self) -> int:
        return self.weights.data.shape[1]

    @property
    def kernel_size(self) -> int:
        return self.weights.data.shape[2]

    def parameters(self) -> list[Tensor]:
        return [self.weights, self.bias]


@dataclass
class SeparableConv1dParams:
    """Depthwise ``[channels, kernel]`` then pointwise ``[out_channels, in_channels]``.

    Always stride 1 with same-length padding so residual additions line up.
    The depthwise stage carries no bias; the pointwise stage does.
    """

    depthwise: Tensor
    pointwise: Tensor
    bias: Tensor

    def __post_init__(self) -> None:
        if self.depthwise.data.ndim != 2:
            raise ShapeError("depthwise weights must be [channels, kernel]")
        if self.pointwise.data.ndim != 2:
            raise ShapeError("pointwise weights must be [out_channels, in_channels]")
        if self.pointwise.data.shape[1] != self.depthwise.data.shape[0]:
            raise ShapeError("pointwise input channels must match depthwise channel count")
        if self.bias.data.shape != (self.pointwise.data.shape[0],):
            raise ShapeError("bias must be [out_channels]")

    @property
    def in_channels(self) -> int:
        return self.depthwise.data.shape[0]

    @property
    def out_channels(self) -> int:
        return self.pointwise.data.shape[0]

    @property
    def kernel_size(self) -> int:
        return self.depthwise.data.shape[1]

    def parameters(self) -> list[Tensor]:
        return [self.depthwise, self.pointwise, self.bias]


@dataclass
class BatchNormState:
    # momentum 0.9 converges the running statistics comfortably inside a
    # 10-epoch training budget; anything slower leaves inference-mode
    # normalization measurably off its train-mode behavior
    gamma: Tensor
    beta: Tensor
    running_mean: Tensor
    running_var: Tensor
    momentum: float = 0.9
    epsilon: float = 1e-5

    def __post_init__(self) -> None:
        c = self.gamma.data.shape
        for t in (self.beta, self.running_mean, self.running_var):
            if t.data.shape != c:
                raise ShapeError("batchnorm buffers must all be [channels]")
        if not (0.0 < self.momentum < 1.0):
            raise ValueError("momentum must lie in (0, 1)")
        if np.any(self.running_var.data < 0):
            raise ValueError("running variance must be non-negative")

    @property
    def channels(self) -> int:
        return self.gamma.data.shape[0]

    def parameters(self) -> list[Tensor]:
        return [self.gamma, self.beta]


@dataclass
class LstmParams:
    """Gate weights ``[hidden, input + hidden]`` and biases ``[hidden]``.

    Gate order throughout: input, forget, cell candidate, output.
    """

    input_size: int
    hidden_size: int
    w_i: Tensor
    w_f: Tensor
    w_g: Tensor
    w_o: Tensor
    b_i: Tensor
    b_f: Tensor
    b_g: Tensor
    b_o: Tensor

    def __post_init__(self) -> None:
        wshape = (self.hidden_size, self.input_size + self.hidden_size)
        for w in (self.w_i, self.w_f, self.w_g, self.w_o):
            if w.data.shape != wshape:
                raise ShapeError(f"lstm gate weights must be {wshape}")
        for b in (self.b_i, self.b_f, self.b_g, self.b_o):
            if b.data.shape != (self.hidden_size,):
                raise ShapeError("lstm gate bias must be [hidden]")

    def parameters(self) -> list[Tensor]:
        return [self.w_i, self.w_f, self.w_g, self.w_o,
                self.b_i, self.b_f, self.b_g, self.b_o]


def _as_batched(x: np.ndarray) -> tuple[np.ndarray, bool]:
    x = np.asarray(x)
    if x.ndim == 2:
        return x[None], True
    if x.ndim == 3:
        return x, False
    raise ShapeError(f"expected [C, L] or [B, C, L], got shape {x.shape}")


def _same_pad(length: int, kernel: int, stride: int) -> tuple[int, int]:
    out_len = -(-length // stride)  # ceil
    total = max(0, (out_len - 1) * stride + kernel - length)
    left = total // 2
    return left, total - left


def run(op, want_grads: bool, *args):
    """``op(*args)`` as ``(output, backward)``; ``backward`` is None unless grads are wanted."""
    return op(*args, want_grads=True) if want_grads else (op(*args), None)


def backprop(backward, dy: np.ndarray, tensors) -> np.ndarray:
    """Apply ``backward`` to ``dy``, add its parameter gradients into ``tensors``
    (in ``parameters()`` order) and return the input gradient."""
    dx, *grads = backward(dy)
    for tensor, grad in zip(tensors, grads):
        tensor.add_grad(grad)
    return dx


def conv1d(x: np.ndarray, params: Conv1dParams, want_grads: bool = False):
    """Strided cross-correlation with bias; returns ``[.., C_out, L_out]``."""
    xb, squeeze = _as_batched(x)
    b, c_in, length = xb.shape
    if c_in != params.in_channels:
        raise ShapeError(
            f"input has {c_in} channels, conv expects {params.in_channels}"
        )
    if length == 0:
        raise ShapeError("zero-length input")
    w = params.weights.data
    k, stride = params.kernel_size, params.stride

    if params.padding == "same":
        left, right = _same_pad(length, k, stride)
    else:
        left = right = 0
    if length + left + right < k:
        raise ShapeError(f"input length {length} shorter than kernel {k}")
    if left or right:
        xp = np.zeros((b, c_in, length + left + right), dtype=xb.dtype)
        xp[:, :, left:left + length] = xb
    else:
        xp = xb
    l_out = (xp.shape[2] - k) // stride + 1

    c_out = params.out_channels
    windows = sliding_window_view(xp, k, axis=2)[:, :, ::stride, :]  # [B,C,L',K]
    if c_in == 1:
        cols = np.ascontiguousarray(windows.reshape(b, l_out, k))
    else:
        cols = np.ascontiguousarray(windows.transpose(0, 2, 1, 3)).reshape(b, l_out, c_in * k)
    w2 = w.reshape(c_out, c_in * k)
    y = np.ascontiguousarray((cols @ w2.T).transpose(0, 2, 1))  # [B,O,L']
    y += params.bias.data[None, :, None]

    out = y[0] if squeeze else y
    if not want_grads:
        return out

    def backward(dy: np.ndarray):
        dyb = dy[None] if squeeze else np.asarray(dy)
        if dyb.shape != y.shape:
            raise ShapeError(f"upstream gradient shape {dyb.shape} != output {y.shape}")
        db = dyb.sum(axis=(0, 2))
        dyt = np.ascontiguousarray(dyb.transpose(0, 2, 1)).reshape(b * l_out, c_out)
        dw = (dyt.T @ cols.reshape(b * l_out, c_in * k)).reshape(c_out, c_in, k)
        dcols = (dyt @ w2).reshape(b, l_out, c_in, k)
        dxp = np.zeros_like(xp)
        for kk in range(k):
            dxp[:, :, kk:kk + stride * l_out:stride] += dcols[:, :, :, kk].transpose(0, 2, 1)
        dx = dxp[:, :, left:left + length] if (left or right) else dxp
        return (dx[0] if squeeze else dx), dw, db

    return out, backward


def depthwise_conv1d(x: np.ndarray, weights: Tensor, want_grads: bool = False):
    """Per-channel same-length cross-correlation with ``[channels, kernel]`` weights, no bias."""
    xb, squeeze = _as_batched(x)
    b, c, length = xb.shape
    dw = weights.data
    if dw.ndim != 2 or c != dw.shape[0]:
        raise ShapeError(f"input has {c} channels, depthwise weights are {dw.shape}")
    if length == 0:
        raise ShapeError("zero-length input")
    k = dw.shape[1]

    left, right = _same_pad(length, k, 1)
    if left or right:
        xp = np.zeros((b, c, length + left + right), dtype=xb.dtype)
        xp[:, :, left:left + length] = xb
    else:
        xp = xb
    y = np.zeros((b, c, length), dtype=xb.dtype)
    for kk in range(k):
        y += dw[None, :, kk, None] * xp[:, :, kk:kk + length]

    out = y[0] if squeeze else y
    if not want_grads:
        return out

    def backward(dy: np.ndarray):
        dyb = dy[None] if squeeze else np.asarray(dy)
        if dyb.shape != (b, c, length):  # only the shape: the output need not stay alive
            raise ShapeError(f"upstream gradient shape {dyb.shape} != output {(b, c, length)}")
        ddw = np.empty_like(dw)
        dxp = np.zeros_like(xp)
        for kk in range(k):
            ddw[:, kk] = (dyb * xp[:, :, kk:kk + length]).sum(axis=(0, 2))
            dxp[:, :, kk:kk + length] += dyb * dw[None, :, kk, None]
        dx = dxp[:, :, left:left + length] if (left or right) else dxp
        return (dx[0] if squeeze else dx), ddw

    return out, backward


def pointwise_conv1d(x: np.ndarray, weights: Tensor, bias: Tensor, want_grads: bool = False):
    """1x1 channel mixing ``W @ x + b`` with ``[out_channels, in_channels]`` weights."""
    xb, squeeze = _as_batched(x)
    w = weights.data
    if w.ndim != 2 or xb.shape[1] != w.shape[1]:
        raise ShapeError(f"input has {xb.shape[1]} channels, pointwise weights are {w.shape}")
    y = np.matmul(w, xb)  # [O,C] x [B,C,L] -> [B,O,L]
    y += bias.data[None, :, None]

    out = y[0] if squeeze else y
    if not want_grads:
        return out

    def backward(dy: np.ndarray):
        dyb = dy[None] if squeeze else np.asarray(dy)
        if dyb.shape != y.shape:
            raise ShapeError(f"upstream gradient shape {dyb.shape} != output {y.shape}")
        db = dyb.sum(axis=(0, 2))
        dw = np.tensordot(dyb, xb, axes=([0, 2], [0, 2]))
        dx = np.matmul(w.T, dyb)
        return (dx[0] if squeeze else dx), dw, db

    return out, backward


def separable_conv1d(x: np.ndarray, params: SeparableConv1dParams, want_grads: bool = False):
    """Depthwise convolution followed by 1x1 pointwise channel mixing."""
    mid, bdw = run(depthwise_conv1d, want_grads, x, params.depthwise)
    y, bpw = run(pointwise_conv1d, want_grads, mid, params.pointwise, params.bias)
    if not want_grads:
        return y

    def backward(dy: np.ndarray):
        dmid, dpw, db = bpw(dy)
        dx, ddw = bdw(dmid)
        return dx, ddw, dpw, db

    return y, backward


def pool1d(x: np.ndarray, kind: str, window: int, want_grads: bool = False):
    """Non-overlapping max or average pooling; trailing remainder is dropped."""
    if kind not in ("max", "avg"):
        raise ValueError(f"unknown pooling kind {kind!r}")
    if window < 1:
        raise ValueError("pool window must be >= 1")
    xb, squeeze = _as_batched(x)
    b, c, length = xb.shape
    if window > length:
        raise ShapeError(f"pool window {window} exceeds input length {length}")
    n = length // window
    xr = xb[:, :, :n * window].reshape(b, c, n, window)

    if kind == "max":
        idx = xr.argmax(axis=3)  # first occurrence wins on ties
        y = np.take_along_axis(xr, idx[..., None], axis=3)[..., 0]
    else:
        y = xr.mean(axis=3)

    out = y[0] if squeeze else y
    if not want_grads:
        return out

    def backward(dy: np.ndarray):
        dyb = dy[None] if squeeze else np.asarray(dy)
        if dyb.shape != y.shape:
            raise ShapeError(f"upstream gradient shape {dyb.shape} != output {y.shape}")
        dx = np.zeros_like(xb)
        dxr = dx[:, :, :n * window].reshape(b, c, n, window)
        if kind == "max":
            np.put_along_axis(dxr, idx[..., None], dyb[..., None], axis=3)
        else:
            dxr += dyb[..., None] / window
        return dx[0] if squeeze else dx

    return out, backward


def global_avg_pool(x: np.ndarray, want_grads: bool = False):
    """Mean over the last (time) axis: ``[.., C, L]`` -> ``[.., C]``."""
    xa = np.asarray(x)
    y = xa.mean(axis=-1)
    if not want_grads:
        return y
    length = xa.shape[-1]

    def backward(dy: np.ndarray):
        return np.repeat(np.asarray(dy)[..., None], length, axis=-1) / length

    return y, backward


def batchnorm1d(x: np.ndarray, state: BatchNormState, mode: str, want_grads: bool = False):
    """Per-channel batch normalization over a ``[B, C, L]`` input.

    Train mode normalizes by batch statistics and folds them into the running
    averages; infer mode uses the running statistics.
    """
    if mode not in ("train", "infer"):
        raise ValueError(f"unknown mode {mode!r}")
    xb = np.asarray(x)
    if xb.ndim != 3:
        raise ShapeError(f"batchnorm expects [B, C, L], got shape {xb.shape}")
    b, c, length = xb.shape
    if c != state.channels:
        raise ShapeError(f"input has {c} channels, batchnorm tracks {state.channels}")
    gamma = state.gamma.data
    beta = state.beta.data
    eps = state.epsilon
    n = b * length

    if mode == "train":
        if n < 2:
            raise ShapeError("train-mode batchnorm needs at least 2 values per channel")
        mean = xb.mean(axis=(0, 2))
        var = xb.var(axis=(0, 2))
        m = state.momentum
        state.running_mean.data[:] = m * state.running_mean.data + (1.0 - m) * mean
        state.running_var.data[:] = m * state.running_var.data + (1.0 - m) * var
    else:
        mean = state.running_mean.data
        var = state.running_var.data

    ivar = 1.0 / np.sqrt(var + eps)
    # fused affine form: y = x * (gamma * ivar) + (beta - mean * gamma * ivar)
    scale = (gamma * ivar).astype(xb.dtype)
    shift = (beta - mean * gamma * ivar).astype(xb.dtype)
    y = xb * scale[None, :, None]
    y += shift[None, :, None]

    if not want_grads:
        return y
    xhat = (xb - mean[None, :, None].astype(xb.dtype)) * ivar[None, :, None].astype(xb.dtype)

    def backward(dy: np.ndarray):
        dyb = np.asarray(dy)
        if dyb.shape != y.shape:
            raise ShapeError(f"upstream gradient shape {dyb.shape} != output {y.shape}")
        dgamma = (dyb * xhat).sum(axis=(0, 2))
        dbeta = dyb.sum(axis=(0, 2))
        dxhat = dyb * gamma[None, :, None]
        if mode == "infer":
            dx = dxhat * ivar[None, :, None]
        else:
            s1 = dxhat.sum(axis=(0, 2))
            s2 = (dxhat * xhat).sum(axis=(0, 2))
            dx = (ivar[None, :, None] / n) * (
                n * dxhat - s1[None, :, None] - xhat * s2[None, :, None]
            )
        return dx.astype(xb.dtype, copy=False), dgamma, dbeta

    return y, backward


def fold_batchnorm(conv, bn: BatchNormState):
    """Fold inference-mode batchnorm into the preceding convolution's weights.

    Returns fresh parameters of the same type satisfying
    ``conv_folded(x) == bn(conv(x))`` for all x. The running variance must be
    healthy; near-zero variance makes the fold numerically meaningless.
    """
    var = bn.running_var.data.astype(np.float64)
    if np.any(var < bn.epsilon) or np.any(var + bn.epsilon <= 0):
        raise ValueError("cannot fold batchnorm with near-zero running variance")
    scale = bn.gamma.data / np.sqrt(var + bn.epsilon)
    shift = bn.beta.data - bn.running_mean.data * scale

    if isinstance(conv, Conv1dParams):
        if conv.out_channels != bn.channels:
            raise ShapeError("batchnorm channels must match conv output channels")
        w = conv.weights.data * scale[:, None, None]
        b = conv.bias.data * scale + shift
        return Conv1dParams(
            Tensor(w.astype(conv.weights.data.dtype)),
            Tensor(b.astype(conv.bias.data.dtype)),
            stride=conv.stride,
            padding=conv.padding,
        )
    if isinstance(conv, SeparableConv1dParams):
        if conv.out_channels != bn.channels:
            raise ShapeError("batchnorm channels must match pointwise output channels")
        pw = conv.pointwise.data * scale[:, None]
        b = conv.bias.data * scale + shift
        return SeparableConv1dParams(
            Tensor(conv.depthwise.data.copy()),
            Tensor(pw.astype(conv.pointwise.data.dtype)),
            Tensor(b.astype(conv.bias.data.dtype)),
        )
    raise TypeError(f"cannot fold batchnorm into {type(conv).__name__}")


def dense(x: np.ndarray, weights: Tensor, bias: Tensor, want_grads: bool = False):
    """Affine map ``W @ x + b`` for ``x`` of shape ``[n]`` or ``[B, n]``."""
    xa = np.asarray(x)
    squeeze = xa.ndim == 1
    xb = xa[None] if squeeze else xa
    if xb.ndim != 2:
        raise ShapeError(f"dense expects [n] or [B, n], got shape {xa.shape}")
    w = weights.data
    if xb.shape[1] != w.shape[1]:
        raise ShapeError(f"dense input width {xb.shape[1]} != weight width {w.shape[1]}")
    if bias.data.shape != (w.shape[0],):
        raise ShapeError("dense bias must be [out]")
    y = xb @ w.T + bias.data

    out = y[0] if squeeze else y
    if not want_grads:
        return out

    def backward(dy: np.ndarray):
        dyb = np.asarray(dy)
        dyb = dyb[None] if squeeze else dyb
        if dyb.shape != y.shape:
            raise ShapeError(f"upstream gradient shape {dyb.shape} != output {y.shape}")
        dw = dyb.T @ xb
        db = dyb.sum(axis=0)
        dx = dyb @ w
        return (dx[0] if squeeze else dx), dw, db

    return out, backward


def _sigmoid(x: np.ndarray) -> np.ndarray:
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def lstm_sequence(x: np.ndarray, params: LstmParams, want_grads: bool = False):
    """Run an LSTM over a sequence from zero initial state.

    ``x`` is ``[T, input]`` or ``[B, T, input]``; the result holds every hidden
    state, ``[.., T, hidden]``. The backward pass is full backpropagation
    through time across all steps.
    """
    xa = np.asarray(x)
    squeeze = xa.ndim == 2
    xb = xa[None] if squeeze else xa
    if xb.ndim != 3:
        raise ShapeError(f"lstm expects [T, I] or [B, T, I], got shape {xa.shape}")
    b, t_len, isz = xb.shape
    if t_len < 1:
        raise ShapeError("lstm needs at least one timestep")
    if isz != params.input_size:
        raise ShapeError(f"lstm input width {isz} != declared {params.input_size}")
    h_sz = params.hidden_size
    dtype = xb.dtype

    wi, wf, wg, wo = params.w_i.data, params.w_f.data, params.w_g.data, params.w_o.data
    bi, bf, bg, bo = params.b_i.data, params.b_f.data, params.b_g.data, params.b_o.data

    h = np.zeros((b, h_sz), dtype=dtype)
    c = np.zeros((b, h_sz), dtype=dtype)
    hs = np.empty((b, t_len, h_sz), dtype=dtype)
    cache = []
    for t in range(t_len):
        z = np.concatenate([xb[:, t, :], h], axis=1)
        gi = _sigmoid(z @ wi.T + bi)
        gf = _sigmoid(z @ wf.T + bf)
        gg = np.tanh(z @ wg.T + bg)
        go = _sigmoid(z @ wo.T + bo)
        c_prev = c
        c = gf * c_prev + gi * gg
        tc = np.tanh(c)
        h = go * tc
        hs[:, t, :] = h
        if want_grads:
            cache.append((z, gi, gf, gg, go, c_prev, tc))

    out = hs[0] if squeeze else hs
    if not want_grads:
        return out

    def backward(dh_all: np.ndarray):
        d = np.asarray(dh_all)
        d = d[None] if squeeze else d
        if d.shape != hs.shape:
            raise ShapeError(f"upstream gradient shape {d.shape} != output {hs.shape}")
        dwi = np.zeros_like(wi); dwf = np.zeros_like(wf)
        dwg = np.zeros_like(wg); dwo = np.zeros_like(wo)
        dbi = np.zeros_like(bi); dbf = np.zeros_like(bf)
        dbg = np.zeros_like(bg); dbo = np.zeros_like(bo)
        dx = np.zeros_like(xb)
        dh_next = np.zeros((b, h_sz), dtype=dtype)
        dc_next = np.zeros((b, h_sz), dtype=dtype)
        for t in range(t_len - 1, -1, -1):
            z, gi, gf, gg, go, c_prev, tc = cache[t]
            dh = d[:, t, :] + dh_next
            dgo = dh * tc
            dc = dh * go * (1.0 - tc * tc) + dc_next
            dgi = dc * gg
            dgg = dc * gi
            dgf = dc * c_prev
            dc_next = dc * gf
            dpi = dgi * gi * (1.0 - gi)
            dpf = dgf * gf * (1.0 - gf)
            dpg = dgg * (1.0 - gg * gg)
            dpo = dgo * go * (1.0 - go)
            dwi += dpi.T @ z; dbi += dpi.sum(axis=0)
            dwf += dpf.T @ z; dbf += dpf.sum(axis=0)
            dwg += dpg.T @ z; dbg += dpg.sum(axis=0)
            dwo += dpo.T @ z; dbo += dpo.sum(axis=0)
            dz = dpi @ wi + dpf @ wf + dpg @ wg + dpo @ wo
            dx[:, t, :] = dz[:, :isz]
            dh_next = dz[:, isz:]
        grads = {
            "w_i": dwi, "w_f": dwf, "w_g": dwg, "w_o": dwo,
            "b_i": dbi, "b_f": dbf, "b_g": dbg, "b_o": dbo,
        }
        return (dx[0] if squeeze else dx), grads

    return out, backward


def relu(x: np.ndarray, want_grads: bool = False):
    xa = np.asarray(x)
    y = np.maximum(xa, 0)
    if not want_grads:
        return y

    def backward(dy: np.ndarray):
        return np.asarray(dy) * (xa > 0)

    return y, backward


def softmax(x: np.ndarray, want_grads: bool = False):
    """Softmax over the last axis; rows are positive and sum to one."""
    xa = np.asarray(x)
    shifted = xa - xa.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    s = e / e.sum(axis=-1, keepdims=True)
    if not want_grads:
        return s

    def backward(dy: np.ndarray):
        dyb = np.asarray(dy)
        inner = (dyb * s).sum(axis=-1, keepdims=True)
        return s * (dyb - inner)

    return s, backward


def dropout(
    x: np.ndarray,
    rate: float,
    rng: np.random.Generator | int,
    mode: str,
    want_grads: bool = False,
):
    """Inverted dropout: train mode zeroes and rescales, infer mode is identity."""
    if not (0.0 <= rate < 1.0):
        raise ValueError("dropout rate must lie in [0, 1)")
    if mode not in ("train", "infer"):
        raise ValueError(f"unknown mode {mode!r}")
    xa = np.asarray(x)
    if mode == "infer" or rate == 0.0:
        y = xa.copy()
        if not want_grads:
            return y
        return y, lambda dy: np.asarray(dy).copy()

    gen = np.random.default_rng(rng) if isinstance(rng, (int, np.integer)) else rng
    keep = (gen.random(xa.shape) >= rate)
    scale = 1.0 / (1.0 - rate)
    mask = keep.astype(xa.dtype) * np.asarray(scale, dtype=xa.dtype)
    y = xa * mask
    if not want_grads:
        return y
    return y, lambda dy: np.asarray(dy) * mask


def softmax_cross_entropy(logits: np.ndarray, labels: np.ndarray):
    """Mean cross-entropy of integer class labels against logits ``[B, K]``.

    Returns ``(loss, dlogits)`` where the gradient is already divided by the
    batch size.
    """
    la = np.asarray(logits)
    if la.ndim != 2:
        raise ShapeError(f"logits must be [B, K], got shape {la.shape}")
    yb = np.asarray(labels)
    if yb.shape != (la.shape[0],):
        raise ShapeError("labels must be one class index per row")
    k = la.shape[1]
    if yb.size and (yb.min() < 0 or yb.max() >= k):
        raise ValueError(f"label out of range [0, {k})")
    shifted = la - la.max(axis=1, keepdims=True)
    logsumexp = np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    logp = shifted - logsumexp
    n = la.shape[0]
    loss = -float(logp[np.arange(n), yb].mean())
    dlogits = np.exp(logp)
    dlogits[np.arange(n), yb] -= 1.0
    dlogits /= n
    return loss, dlogits.astype(la.dtype, copy=False)
