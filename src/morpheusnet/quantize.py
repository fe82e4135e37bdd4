"""8-bit quantization of the CNN: calibration, fake-quant fine-tuning, freezing.

The flow is: fold batchnorm into the convolutions, calibrate activation
ranges on training epochs, fine-tune the folded weights for five epochs with
fake quantization (straight-through gradients), then freeze quantized layers
to int8. A plan marks each weighted layer ``quantize`` or ``keep_float``;
layers kept float pass through the whole pipeline bit-identical, and the
sequence learner is never quantized.

The folded CNN is one list of nodes, one per entry of the compiled model and
in entry order; calibration, fine-tuning, freezing and compilation all walk
it. Two rules hold throughout. An output's quantization parameters are those
of its activation point, its producer's for pools and GAP, and none
otherwise (``InferenceCnn.out_qparams``). A node of a quantized layer reads
each operand from outside its layer fake-quantized with those parameters,
and fake-quantizes its own activation point.

Weights quantize symmetrically per tensor (zero point 0); activations use
asymmetric per-tensor parameters whose range always includes zero, so ReLU
is exactly a clamp at the zero point in the integer domain. Rounding is
half-away-from-zero everywhere.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field

import numpy as np

from . import ops
from .model import MorpheusConfig, MorpheusModel, key_value_lines
from .tensor import AdamState, Tensor, adam_step
from .training import (
    NumericalError,
    PhaseConfig,
    TrainConfig,
    causal_windows,
    train_sequence_learner,
)

SCALE_FLOOR = 1e-8
QMIN, QMAX = -128, 127


@dataclass(frozen=True)
class QuantParams:
    scale: float
    zero_point: int
    bits: int = 8

    def __post_init__(self) -> None:
        if self.scale <= 0:
            raise ValueError("scale must be positive")
        if not QMIN <= self.zero_point <= QMAX:
            raise ValueError("zero point must fit in int8")


@dataclass
class QuantizedTensor:
    values: np.ndarray
    qparams: QuantParams

    def __post_init__(self) -> None:
        self.values = np.asarray(self.values, dtype=np.int8)

    @property
    def shape(self) -> tuple[int, ...]:
        return self.values.shape


@dataclass(frozen=True)
class RequantMultiplier:
    """Fixed-point encoding of a positive ratio as multiplier * 2**(shift-31)."""

    multiplier: int
    shift: int

    @property
    def value(self) -> float:
        return self.multiplier * 2.0 ** (self.shift - 31)


def round_half_away(x: np.ndarray) -> np.ndarray:
    x = np.asarray(x)
    return np.copysign(np.floor(np.abs(x) + 0.5), x)


def weight_qparams(w: np.ndarray) -> QuantParams:
    """Symmetric per-tensor parameters from the maximum absolute weight."""
    scale = float(np.max(np.abs(w))) / 127.0 if np.asarray(w).size else 0.0
    return QuantParams(max(scale, SCALE_FLOOR), 0)


def activation_qparams(lo: float, hi: float) -> tuple[QuantParams, bool]:
    """Asymmetric parameters covering [lo, hi] (forced to include zero).

    Returns the parameters and a flag marking a floored (degenerate) scale.
    """
    lo, hi = min(float(lo), 0.0), max(float(hi), 0.0)
    scale = (hi - lo) / 255.0
    floored = scale < SCALE_FLOOR
    scale = max(scale, SCALE_FLOOR)
    zp = int(np.clip(-128 - round_half_away(np.float64(lo / scale)), QMIN, QMAX))
    return QuantParams(scale, zp), floored


def quantize_tensor(x: np.ndarray, q: QuantParams) -> QuantizedTensor:
    values = round_half_away(np.asarray(x, dtype=np.float64) / q.scale) + q.zero_point
    return QuantizedTensor(np.clip(values, QMIN, QMAX).astype(np.int8), q)


def dequantize(qt: QuantizedTensor) -> np.ndarray:
    return ((qt.values.astype(np.float32)) - qt.qparams.zero_point) * np.float32(qt.qparams.scale)


def fake_quantize(x: np.ndarray, q: QuantParams, want_grads: bool = False):
    """Quantize-dequantize round trip with a straight-through gradient.

    Gradients pass unchanged where the value lands inside the representable
    range and are zeroed where it saturates.
    """
    xa = np.asarray(x)
    qv = round_half_away(xa / np.asarray(q.scale, dtype=xa.dtype)) + q.zero_point
    clipped = np.clip(qv, QMIN, QMAX)
    y = ((clipped - q.zero_point) * np.asarray(q.scale, dtype=xa.dtype)).astype(xa.dtype)
    if not want_grads:
        return y
    mask = (qv >= QMIN) & (qv <= QMAX)
    return y, lambda dy: np.asarray(dy) * mask


def requant_multiplier(scale_in: float, scale_w: float, scale_out: float) -> RequantMultiplier:
    """Normalized fixed-point encoding of scale_in * scale_w / scale_out."""
    if scale_in <= 0 or scale_w <= 0 or scale_out <= 0:
        raise ValueError("scales must be positive")
    ratio = float(scale_in) * float(scale_w) / float(scale_out)
    if ratio >= 2.0**31:
        raise ValueError(f"requantization ratio {ratio} out of range")
    mantissa, exponent = np.frexp(ratio)
    multiplier = int(round_half_away(np.float64(mantissa * 2.0**31)))
    if multiplier == 2**31:
        multiplier >>= 1
        exponent += 1
    return RequantMultiplier(multiplier, int(exponent))


def apply_requant(acc: np.ndarray, rm: RequantMultiplier) -> np.ndarray:
    """Scale int32/int64 accumulators by the fixed-point multiplier, rounding
    half away from zero. Pure integer arithmetic."""
    prod = np.asarray(acc, dtype=np.int64) * rm.multiplier
    trs = 31 - rm.shift
    if trs <= 0:
        return prod << (-trs)
    # >> floors, so (p + half) >> trs rounds half up; for p < 0, adding
    # p >> 63 (-1 there, 0 elsewhere) first rounds half away from zero
    prod += prod >> 63
    prod += np.int64(1) << (trs - 1)
    prod >>= trs
    return prod


@dataclass
class QuantizationPlan:
    flags: dict[str, bool]  # layer name -> True to quantize
    calibration_samples: int = 256

    def to_text(self) -> str:
        lines = [f"calibration_samples = {self.calibration_samples}"]
        for name in self.flags:
            lines.append(f"{name} = {'quantize' if self.flags[name] else 'keep_float'}")
        return "\n".join(lines) + "\n"

    @classmethod
    def from_text(cls, text: str) -> "QuantizationPlan":
        flags: dict[str, bool] = {}
        samples = 256
        for lineno, key, value in key_value_lines(text, "plan line",
                                                  "'layer = quantize|keep_float'"):
            if key == "calibration_samples":
                samples = int(value)
            elif value in ("quantize", "keep_float"):
                flags[key] = value == "quantize"
            else:
                raise ValueError(f"plan line {lineno}: unknown setting {value!r}")
        return cls(flags, samples)


# ---------------------------------------------------------------------------
# Folded inference CNN


POOLS = ("max", "avg", "gap")


@dataclass
class Node:
    """One operation of the folded CNN, and one entry of the compiled model.

    ``kind`` is conv, dw, pw, res, add, max, avg, gap or dense. ``main`` and
    ``aux`` index the producing nodes, -1 being the epoch; only an add has an
    ``aux``. ``layer`` is the plan key (None for pools and GAP), ``act`` the
    activation point observed after the node, and ``window`` the entry's
    kernel: convolution taps (1 for pw and res), pooling window or GAP length,
    0 for add and dense.
    """

    kind: str
    name: str
    layer: str | None
    main: int
    aux: int | None = None
    weight: tuple[str, Tensor] | None = None
    bias: tuple[str, Tensor] | None = None
    relu: bool = False
    act: str | None = None
    window: int = 0

    def sources(self) -> tuple[int, ...]:
        return (self.main,) if self.aux is None else (self.main, self.aux)


@dataclass
class InferenceCnn:
    """Batchnorm-free CNN ready for calibration, fine-tuning, and freezing:
    a flat list of nodes in flat-model entry order."""

    config: MorpheusConfig
    nodes: list[Node]

    def weighted_layer_names(self) -> list[str]:
        return list(dict.fromkeys(n.layer for n in self.nodes if n.layer is not None))

    def named_weight_tensors(self) -> dict[str, list[tuple[str, Tensor]]]:
        """Per layer, its weight and bias tensors in node order."""
        out: dict[str, list[tuple[str, Tensor]]] = {}
        for n in self.nodes:
            if n.layer is not None:
                out.setdefault(n.layer, []).extend(t for t in (n.weight, n.bias) if t)
        return out

    def out_qparams(self, i: int, act_qp: dict[str, QuantParams]) -> QuantParams | None:
        """Quantization parameters of node ``i``'s output (-1: the epoch).

        A node with an activation point has that point's parameters; pools
        and GAP keep their producer's; any other node has none.
        """
        if i < 0:
            return act_qp["input"]
        node = self.nodes[i]
        if node.act is not None:
            return act_qp[node.act]
        if node.kind in POOLS:
            return self.out_qparams(node.main, act_qp)
        return None


def fold_cnn(model: MorpheusModel) -> InferenceCnn:
    """Fold every block's batchnorm into its convolution weights and lower
    the CNN to nodes, one per flat-model entry."""
    nodes: list[Node] = []

    def add(node: Node) -> int:
        nodes.append(node)
        return len(nodes) - 1

    cur, length = -1, model.config.input_len
    for block in model.blocks:
        name = block.name
        if block.kind == "start":
            conv = ops.fold_batchnorm(block.conv, block.bn)
            cur = add(Node("conv", f"{name}.conv", name, cur,
                           weight=(f"{name}.conv.w", conv.weights),
                           bias=(f"{name}.conv.b", conv.bias),
                           relu=True, act=f"{name}.out", window=conv.kernel_size))
            cur = add(Node(block.pool_kind, f"{name}.pool", None, cur, window=block.pool_size))
        elif block.kind in ("conv_block", "identity_block"):
            sep = ops.fold_batchnorm(block.sep, block.bn)
            dw = add(Node("dw", f"{name}.dw", name, cur, weight=(f"{name}.sep.dw", sep.depthwise),
                          act=f"{name}.dw", window=sep.kernel_size))
            pw = add(Node("pw", f"{name}.pw", name, dw, weight=(f"{name}.sep.pw", sep.pointwise),
                          bias=(f"{name}.sep.b", sep.bias), relu=True, window=1))
            aux = cur  # identity blocks add their input
            if block.projected:
                res = block.residual
                aux = add(Node("res", f"{name}.res", name, cur,
                               weight=(f"{name}.res.w", Tensor(res.weights.data.copy())),
                               bias=(f"{name}.res.b", Tensor(res.bias.data.copy())), window=1))
            cur = add(Node("add", f"{name}.add", name, pw, aux, act=f"{name}.out"))
        elif block.kind == "pool":
            cur = add(Node(block.pool_kind, name, None, cur, window=block.pool_size))
        else:
            raise TypeError(f"cannot fold {type(block).__name__}")
        length = block.out_len(length)
    gap = add(Node("gap", "gap", None, cur, window=length))
    add(Node("dense", "head", "head", gap, weight=("head.w", Tensor(model.head_w.data.copy())),
             bias=("head.b", Tensor(model.head_b.data.copy()))))
    return InferenceCnn(model.config, nodes)


def default_plan(icnn: InferenceCnn, calibration_samples: int = 256) -> QuantizationPlan:
    return QuantizationPlan({n: True for n in icnn.weighted_layer_names()},
                            calibration_samples)


def exclusion_plan(icnn: InferenceCnn, calibration_samples: int = 256) -> QuantizationPlan:
    """Keep start and identity blocks in float; quantize everything else."""
    flags = {}
    for name in icnn.weighted_layer_names():
        flags[name] = not (name.startswith("start") or name.startswith("identity"))
    return QuantizationPlan(flags, calibration_samples)


def validate_plan(plan: QuantizationPlan, icnn: InferenceCnn) -> None:
    expect = set(icnn.weighted_layer_names())
    got = set(plan.flags)
    if expect != got:
        missing, extra = expect - got, got - expect
        raise ValueError(f"plan mismatch: missing {sorted(missing)}, unknown {sorted(extra)}")


# ---------------------------------------------------------------------------
# Forward pass shared by calibration, fine-tuning, and float simulation


def icnn_forward(icnn: InferenceCnn, x, plan=None, act_qp=None, observer=None,
                 want_grads=False, weight_fq=True):
    """Run the folded CNN, optionally simulating quantization.

    With ``plan`` and ``act_qp`` given, a node of a layer marked quantize
    reads each operand from outside its layer fake-quantized with the
    producer's ``out_qparams`` (once per tensor), sees fake-quantized weights
    (when ``weight_fq``) and fake-quantizes its own activation point.
    ``observer`` receives every activation point by name before that, which
    is how calibration collects ranges. Each value is dropped after its last
    reader. Under ``want_grads`` every step records its backward on a tape,
    which the returned closure walks in reverse, summing the gradients of a
    tensor read twice and passing straight-through gradients to the folded
    weights. Returns logits, plus that closure under ``want_grads``.
    """
    nodes = icnn.nodes
    last = {src: i for i, node in enumerate(nodes) for src in node.sources()}
    vals: dict = {-1: np.asarray(x)}  # node index, or ("fq", index) for a fake-quantized read
    tape = []  # (value key, operand keys, backward giving one gradient per operand)
    see = observer or (lambda name, arr: None)

    def read(src, layer, on):
        """The key of operand ``src`` as a node of ``layer`` reads it."""
        if not on or (src >= 0 and nodes[src].layer == layer):
            return src
        key = ("fq", src)
        if key not in vals:
            qparams = icnn.out_qparams(src, act_qp)
            vals[key], back = ops.run(fake_quantize, want_grads, vals[src], qparams)
            if want_grads:
                tape.append((key, (src,), lambda d: (back(d),)))
        return key

    see("input", vals[-1])
    for i, node in enumerate(nodes):
        on = plan is not None and node.layer is not None and plan.flags.get(node.layer, False)
        keys = [read(src, node.layer, on) for src in node.sources()]
        w, bw = None, None
        if node.weight is not None:
            w = node.weight[1].data
            if on and weight_fq:
                w, bw = ops.run(fake_quantize, want_grads, w, weight_qparams(w))
        y, bop = _node_op(node, [vals[k] for k in keys], w, want_grads)
        for src in node.sources():
            if last[src] == i:
                del vals[src]
                vals.pop(("fq", src), None)
        brelu = bact = None
        if node.relu:
            y, brelu = ops.run(ops.relu, want_grads, y)
        if node.act is not None:
            see(node.act, y)
            if on:
                y, bact = ops.run(fake_quantize, want_grads, y, act_qp[node.act])
        vals[i] = y
        if want_grads:
            tape.append((i, keys, _node_backward(node, bop, bw, brelu, bact)))

    logits = vals[len(nodes) - 1]
    if not want_grads:
        return logits

    def backward(dlogits):
        grads = {len(nodes) - 1: dlogits}
        for key, srcs, back in reversed(tape):
            for src, g in zip(srcs, back(grads.pop(key))):
                grads[src] = g if src not in grads else grads[src] + g
        return grads[-1]

    return logits, backward


def _node_op(node: Node, xs: list, w, want_grads: bool):
    """The node's op on its operand values ``xs`` with weight values ``w``,
    as ``(output, backward)``."""
    w = None if w is None else Tensor(w)
    bias = None if node.bias is None else node.bias[1]
    if node.kind in ("conv", "res"):
        # the projection is a kernel-1 conv1d: pointwise_conv1d multiplies in another order
        params = ops.Conv1dParams(w, bias, padding="same" if node.kind == "conv" else "valid")
        return ops.run(ops.conv1d, want_grads, xs[0], params)
    if node.kind == "dw":
        return ops.run(ops.depthwise_conv1d, want_grads, xs[0], w)
    if node.kind == "pw":
        return ops.run(ops.pointwise_conv1d, want_grads, xs[0], w, bias)
    if node.kind == "dense":
        return ops.run(ops.dense, want_grads, xs[0], w, bias)
    if node.kind == "add":
        return xs[0] + xs[1], (lambda d: (d, d))
    if node.kind == "gap":
        return ops.run(ops.global_avg_pool, want_grads, xs[0])
    return ops.run(ops.pool1d, want_grads, xs[0], node.kind, node.window)


def _node_backward(node: Node, bop, bw, brelu, bact):
    """Backward of one node, one gradient per operand: activation
    fake-quant, ReLU, then the op, whose weight gradient passes the
    straight-through hook ``bw``."""

    def backward(d):
        if bact is not None:
            d = bact(d)
        if brelu is not None:
            d = brelu(d)
        if node.weight is None:  # add, pools and GAP
            return bop(d) if node.kind == "add" else (bop(d),)
        dx, dw, *db = bop(d)
        node.weight[1].add_grad(dw if bw is None else bw(dw))
        if db:
            node.bias[1].add_grad(db[0])
        return (dx,)

    return backward


# ---------------------------------------------------------------------------
# Calibration


@dataclass
class CalibrationResult:
    act_qparams: dict[str, QuantParams]
    ranges: dict[str, tuple[float, float]]
    floored: list[str]

    def report_rows(self) -> list[tuple[str, float, float, float, int]]:
        rows = []
        for name, (lo, hi) in self.ranges.items():
            q = self.act_qparams[name]
            rows.append((name, lo, hi, q.scale, q.zero_point))
        return rows


def calibrate_ranges(icnn: InferenceCnn, calibration_epochs: np.ndarray) -> CalibrationResult:
    """Per-tensor activation min/max over the calibration set, as QuantParams."""
    calibration_epochs = np.asarray(calibration_epochs)
    if len(calibration_epochs) == 0:
        raise ValueError("need at least one calibration sample")
    ranges: dict[str, tuple[float, float]] = {}

    def observer(name, arr):
        lo, hi = float(arr.min()), float(arr.max())
        plo, phi = ranges.get(name, (lo, hi))
        ranges[name] = (min(plo, lo), max(phi, hi))

    for start in range(0, len(calibration_epochs), 128):
        icnn_forward(icnn, calibration_epochs[start:start + 128], observer=observer)

    act_qparams: dict[str, QuantParams] = {}
    floored = []
    for name, (lo, hi) in ranges.items():
        qp, was_floored = activation_qparams(lo, hi)
        act_qparams[name] = qp
        if was_floored:
            floored.append(name)
    return CalibrationResult(act_qparams, ranges, floored)


# ---------------------------------------------------------------------------
# Fine-tuning and freezing


@dataclass
class QuantizedCnn:
    """Folded CNN with quantized layers frozen to int8.

    ``icnn`` keeps the float weights (post fine-tuning for quantized layers,
    untouched for excluded ones); ``weight_q``/``bias_q`` hold the frozen
    integer artifacts for every layer the plan quantizes.
    """

    icnn: InferenceCnn
    plan: QuantizationPlan
    act_qparams: dict[str, QuantParams]
    weight_q: dict[str, QuantizedTensor] = field(default_factory=dict)
    bias_q: dict[str, np.ndarray] = field(default_factory=dict)

    def simulate_probs(self, x, batch_size: int = 256) -> np.ndarray:
        """Float simulation of the integer path (dequantized weights, fake-
        quantized activations). Close to, but not bit-identical with, the
        integer engine."""
        sim = self._sim_icnn()
        outs = []
        x = np.asarray(x)
        for i in range(0, len(x), batch_size):
            logits = icnn_forward(sim, x[i:i + batch_size], plan=self.plan,
                                  act_qp=self.act_qparams, weight_fq=False)
            outs.append(ops.softmax(logits))
        return np.concatenate(outs, axis=0)

    def _sim_icnn(self) -> InferenceCnn:
        if not hasattr(self, "_sim_cache"):
            sim = copy.deepcopy(self.icnn)
            for node in sim.nodes:  # weight_q holds the weights of quantized layers only
                if node.weight is not None and node.weight[0] in self.weight_q:
                    tname, tensor = node.weight
                    tensor.data = dequantize(self.weight_q[tname]).astype(np.float32)
            self._sim_cache = sim
        return self._sim_cache


def freeze_quantized(icnn: InferenceCnn, plan: QuantizationPlan,
                     act_qp: dict[str, QuantParams]) -> QuantizedCnn:
    """Quantize weights to int8 and biases to int32 for every planned layer.

    A bias adds to its node's accumulator, so it quantizes at the scale of
    the node's input (the producer's ``out_qparams``) times the weight scale.
    """
    validate_plan(plan, icnn)
    qcnn = QuantizedCnn(icnn, plan, dict(act_qp))
    for node in icnn.nodes:
        if node.weight is None or not plan.flags[node.layer]:
            continue
        wname, w = node.weight
        qp = weight_qparams(w.data)
        qcnn.weight_q[wname] = quantize_tensor(w.data, qp)
        if node.bias is not None:
            bname, b = node.bias
            bias_scale = icnn.out_qparams(node.main, act_qp).scale * qp.scale
            q = round_half_away(b.data.astype(np.float64) / bias_scale)
            qcnn.bias_q[bname] = np.clip(q, -2**31, 2**31 - 1).astype(np.int32)
    return qcnn


def qat_finetune_cnn(icnn: InferenceCnn, plan: QuantizationPlan,
                     calibration: CalibrationResult, train_set, val_set,
                     seed: int = 0, lr: float = 0.0001, batch_size: int = 128,
                     epochs: int = 5) -> tuple[QuantizedCnn, list[float]]:
    """Five epochs of fake-quantized fine-tuning, then freeze to int8.

    Only layers the plan quantizes are updated; excluded layers keep their
    folded float weights bit for bit. Returns the frozen model and the
    per-epoch training losses.
    """
    validate_plan(plan, icnn)
    x_train, y_train = np.asarray(train_set[0]), np.asarray(train_set[1])
    if len(x_train) == 0:
        raise ValueError("empty fine-tuning set")
    act_qp = calibration.act_qparams
    trainable: list[Tensor] = []
    for layer, tensors in icnn.named_weight_tensors().items():
        if plan.flags[layer]:
            trainable.extend(t for _, t in tensors)
    rng = np.random.default_rng(seed)
    opt = AdamState(lr=lr)
    losses = []
    for epoch in range(1, epochs + 1):
        order = rng.permutation(len(x_train))
        epoch_losses = []
        for start in range(0, len(order), batch_size):
            idx = order[start:start + batch_size]
            for t in trainable:
                t.zero_grad()
            logits, backward = icnn_forward(icnn, x_train[idx], plan=plan,
                                            act_qp=act_qp, want_grads=True)
            loss, dlogits = ops.softmax_cross_entropy(logits, y_train[idx])
            if not np.isfinite(loss):
                raise NumericalError(f"non-finite loss in fine-tuning epoch {epoch}")
            backward(dlogits)
            adam_step(trainable, None, opt)
            epoch_losses.append(loss)
        losses.append(float(np.mean(epoch_losses)))
    return freeze_quantized(icnn, plan, act_qp), losses


def quantized_sequence_dataset(qcnn: QuantizedCnn, recordings, sequence_len: int = 12):
    """Causal windows over the quantized CNN's outputs (not the float CNN's)."""
    return causal_windows(recordings, qcnn.simulate_probs, sequence_len)


def finetune_sequence_on_quantized(model: MorpheusModel, qcnn: QuantizedCnn,
                                   train_recordings, val_recordings, seed: int = 0):
    """Re-fit the float sequence learner to the quantized CNN's outputs.

    Mini-batches of 32, Adam at 0.001, five epochs; returns the model and a
    record of the hyperparameters actually used.
    """
    phase = PhaseConfig(lr=0.001, batch_size=32, epochs=5)
    seq_train = quantized_sequence_dataset(qcnn, train_recordings, model.config.sequence_len)
    seq_val = quantized_sequence_dataset(qcnn, val_recordings, model.config.sequence_len)
    cfg = TrainConfig(seed=seed)
    model, history = train_sequence_learner(model, seq_train, seq_val, cfg, phase=phase)
    record = {
        "batch_size": phase.batch_size,
        "lr": phase.lr,
        "epochs": phase.epochs,
        "train_sequences": int(len(seq_train[0])),
        "val_accuracy": history[-1].val_accuracy if history else None,
    }
    return model, record
