"""Constrained differentiable architecture search over a chain-shaped supernet.

Each cell holds a set of candidate operations and a vector of importance
weights, one per candidate. A cell's output is the softmax-weighted mixture of
all candidate outputs, so the importance weights and the operation parameters
can be trained jointly by gradient descent on a single loss. Convolutional
cells mix normal and depthwise-separable convolutions; reduction cells mix max
and average pooling. Discretization picks the argmax importance per cell.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import ops
from .model import LayerSpec, MorpheusConfig, he_uniform
from .tensor import AdamState, Tensor, adam_step
from .training import NumericalError

FILTER_CAP = 64
KERNEL_CAP = 32


def default_conv_grid() -> tuple[tuple[str, int, int], ...]:
    grid = []
    for kind in ("normal_conv", "separable_conv"):
        for kernel in (8, 16, 32):
            for filters in (16, 32, 64):
                grid.append((kind, kernel, filters))
    return tuple(grid)


@dataclass
class SearchConfig:
    max_filters: int = FILTER_CAP
    max_kernel: int = KERNEL_CAP
    conv_grid: tuple[tuple[str, int, int], ...] = field(default_factory=default_conv_grid)
    pool_window: int = 4
    cell_layout: tuple[str, ...] = ("conv", "conv", "reduce", "conv", "conv", "reduce")
    alpha_lr: float = 0.001
    theta_lr: float = 0.001
    steps: int = 500
    batch_size: int = 16
    seed: int = 0

    def __post_init__(self) -> None:
        if self.max_filters > FILTER_CAP or self.max_kernel > KERNEL_CAP:
            raise ValueError(f"search caps are {FILTER_CAP} filters and kernel {KERNEL_CAP}")
        if not self.conv_grid:
            raise ValueError("candidate grid must be non-empty")
        for kind, kernel, filters in self.conv_grid:
            if kind not in ("normal_conv", "separable_conv"):
                raise ValueError(f"unknown conv candidate kind {kind!r}")
            if kernel > self.max_kernel or filters > self.max_filters:
                raise ValueError("candidate grid violates the search caps")


@dataclass
class CandidateOp:
    kind: str  # normal_conv | separable_conv | max_pool | avg_pool
    kernel_size: int  # pooling window for pool kinds
    filters: int | None = None
    params: object | None = None

    def parameters(self) -> list[Tensor]:
        return list(self.params.parameters()) if self.params is not None else []


@dataclass
class Cell:
    candidates: list[CandidateOp]
    alpha: Tensor
    kind: str  # conv | reduce
    out_channels: int

    def __post_init__(self) -> None:
        if len(self.candidates) < 2:
            raise ValueError("a cell needs at least two candidates")
        if self.alpha.data.shape != (len(self.candidates),):
            raise ValueError("one importance weight per candidate")


@dataclass
class SearchNetwork:
    config: SearchConfig
    cells: list[Cell]
    head_w: Tensor
    head_b: Tensor
    input_len: int
    classes: int = 5

    def alphas(self) -> list[Tensor]:
        return [cell.alpha for cell in self.cells]

    def thetas(self) -> list[Tensor]:
        out: list[Tensor] = []
        for cell in self.cells:
            for cand in cell.candidates:
                out.extend(cand.parameters())
        out += [self.head_w, self.head_b]
        return out


def build_search_network(config: SearchConfig, input_len: int) -> SearchNetwork:
    """Supernet with equal initial mixture weights and seeded parameter init."""
    rng = np.random.default_rng(config.seed)
    cells: list[Cell] = []
    channels, length = 1, input_len
    for kind in config.cell_layout:
        if kind == "conv":
            out_channels = max(f for _, _, f in config.conv_grid)
            candidates = []
            for ckind, kernel, filters in config.conv_grid:
                if ckind == "normal_conv":
                    params = ops.Conv1dParams(
                        he_uniform(rng, (filters, channels, kernel), channels * kernel),
                        Tensor(np.zeros(filters, dtype=np.float32)),
                    )
                else:
                    params = ops.SeparableConv1dParams(
                        he_uniform(rng, (channels, kernel), kernel),
                        he_uniform(rng, (filters, channels), channels),
                        Tensor(np.zeros(filters, dtype=np.float32)),
                    )
                candidates.append(CandidateOp(ckind, kernel, filters, params))
        elif kind == "reduce":
            if config.pool_window > length:
                raise ops.ShapeError("pooling window exceeds the remaining signal length")
            candidates = [
                CandidateOp("max_pool", config.pool_window),
                CandidateOp("avg_pool", config.pool_window),
            ]
            out_channels = channels
            length //= config.pool_window
        else:
            raise ValueError(f"unknown cell kind {kind!r}")
        alpha = Tensor(np.zeros(len(candidates), dtype=np.float32))
        cells.append(Cell(candidates, alpha, kind, out_channels))
        channels = out_channels
        if length < 1:
            raise ops.ShapeError("cell chain reduces the signal to zero length")

    head_w = he_uniform(rng, (5, channels), channels)
    head_b = Tensor(np.zeros(5, dtype=np.float32))
    return SearchNetwork(config, cells, head_w, head_b, input_len)


def mixture_weights(cell: Cell) -> np.ndarray:
    """The cell's softmax mixture weights, in double precision."""
    return ops.softmax(cell.alpha.data.astype(np.float64))


def _candidate_forward(cand: CandidateOp, x, out_channels, want_grads):
    """Run one candidate and zero-pad its channels up to the cell width."""
    if cand.kind == "normal_conv":
        y, back = ops.run(ops.conv1d, want_grads, x, cand.params)
    elif cand.kind == "separable_conv":
        y, back = ops.run(ops.separable_conv1d, want_grads, x, cand.params)
    elif cand.kind in ("max_pool", "avg_pool"):
        y, back = ops.run(ops.pool1d, want_grads, x, cand.kind[:3], cand.kernel_size)
    else:
        raise ValueError(f"unknown candidate kind {cand.kind!r}")
    filters = y.shape[-2]
    if filters < out_channels:
        padded = np.zeros(y.shape[:-2] + (out_channels, y.shape[-1]), dtype=y.dtype)
        padded[..., :filters, :] = y
        y = padded
    return y, back, filters


def mixed_cell_forward(cell: Cell, x: np.ndarray, want_grads: bool = False):
    """Softmax-weighted mixture of every candidate's output on the same input."""
    weights = mixture_weights(cell)
    outs, backs, widths = [], [], []
    for cand in cell.candidates:
        y, back, filters = _candidate_forward(cand, x, cell.out_channels, want_grads)
        outs.append(y)
        backs.append(back)
        widths.append(filters)
    shape = outs[0].shape
    for y in outs[1:]:
        if y.shape != shape:
            raise ops.ShapeError(
                f"candidates disagree on output shape: {y.shape} vs {shape}"
            )
    mixed = np.zeros(shape, dtype=outs[0].dtype)
    for w, y in zip(weights, outs):
        mixed += np.asarray(w, dtype=mixed.dtype) * y

    if not want_grads:
        return mixed

    def backward(dy):
        scores = np.array([float((dy * y).sum()) for y in outs])
        dalpha = weights * (scores - float((weights * scores).sum()))
        dx = np.zeros_like(np.asarray(x))
        for w, back, filters, cand in zip(weights, backs, widths, cell.candidates):
            d_cand = np.asarray(w, dtype=dy.dtype) * dy[..., :filters, :]
            if cand.params is None:  # pooling: no parameters, backward returns dx alone
                dx += back(d_cand)
            else:
                dx += ops.backprop(back, d_cand, cand.parameters())
        return dx, dalpha.astype(cell.alpha.data.dtype)

    return mixed, backward


def supernet_logits(net: SearchNetwork, x: np.ndarray, want_grads: bool = False):
    backs = []
    for cell in net.cells:
        x, back = ops.run(mixed_cell_forward, want_grads, cell, x)
        backs.append(back)
    pooled, bgap = ops.run(ops.global_avg_pool, want_grads, x)
    logits, bdense = ops.run(ops.dense, want_grads, pooled, net.head_w, net.head_b)
    if not want_grads:
        return logits

    def backward(dlogits):
        d = bgap(ops.backprop(bdense, dlogits, [net.head_w, net.head_b]))
        for cell, back in zip(reversed(net.cells), reversed(backs)):
            d, dalpha = back(d)
            cell.alpha.add_grad(dalpha)
        return d

    return logits, backward


def search_step(net: SearchNetwork, batch, opt_alpha: AdamState, opt_theta: AdamState):
    """One joint update of importance weights and operation parameters.

    Both parameter groups see the same mini-batch and the same loss. Returns
    the loss; the network is updated in place.
    """
    x, y = batch
    x = np.asarray(x)
    if len(x) == 0:
        raise ValueError("empty batch")
    alphas, thetas = net.alphas(), net.thetas()
    for t in alphas + thetas:
        t.zero_grad()
    logits, backward = supernet_logits(net, x, want_grads=True)
    loss, dlogits = ops.softmax_cross_entropy(logits, np.asarray(y))
    if not np.isfinite(loss):
        raise NumericalError(f"non-finite search loss at step {opt_theta.t + 1}")
    backward(dlogits)
    adam_step(alphas, None, opt_alpha)
    adam_step(thetas, None, opt_theta)
    return loss


def finalize_architecture(net: SearchNetwork) -> list[tuple[int, dict]]:
    """Per cell, the candidate with the highest importance (first wins ties)."""
    choices = []
    for i, cell in enumerate(net.cells):
        idx = int(np.argmax(cell.alpha.data))
        cand = cell.candidates[idx]
        choices.append((i, {
            "cell_kind": cell.kind,
            "kind": cand.kind,
            "kernel": cand.kernel_size,
            "filters": cand.filters,
            "candidate_index": idx,
        }))
    return choices


def export_config(choices: list[tuple[int, dict]], input_len: int = 3000) -> MorpheusConfig:
    """Translate per-cell choices into a model configuration.

    The first convolutional choice becomes the start block (with its fixed
    max pool); later convolutional choices become residual blocks, identity
    ones when the channel count is unchanged; reduction choices become pool
    layers in order.
    """
    if not choices:
        raise ValueError("no choices to export")
    layers: list[LayerSpec] = []
    channels = None
    for i, (_, desc) in enumerate(sorted(choices)):
        if desc["cell_kind"] == "conv":
            filters, kernel = desc["filters"], desc["kernel"]
            if channels is None:
                layers.append(LayerSpec("start", filters=filters, kernel=kernel,
                                        pool_kind="max", pool_size=4))
            elif filters == channels:
                layers.append(LayerSpec("identity_block", filters=filters, kernel=kernel))
            else:
                layers.append(LayerSpec("conv_block", filters=filters, kernel=kernel))
            channels = filters
        elif desc["cell_kind"] == "reduce":
            if channels is None:
                raise ValueError("a reduction cell cannot come first")
            kind = "max" if desc["kind"] == "max_pool" else "avg"
            layers.append(LayerSpec("pool", pool_kind=kind, pool_size=desc["kernel"]))
        else:
            raise ValueError(f"unknown cell kind {desc['cell_kind']!r}")
    return MorpheusConfig(input_len=input_len, layers=tuple(layers))
