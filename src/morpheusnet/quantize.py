"""8-bit quantization of the CNN: calibration, fake-quant fine-tuning, freezing.

The flow is: fold batchnorm into the convolutions, calibrate activation
ranges on training epochs, fine-tune the folded weights for five epochs with
fake quantization (straight-through gradients), then freeze quantized layers
to int8. A plan marks each weighted layer ``quantize`` or ``keep_float``;
layers kept float pass through the whole pipeline bit-identical, and the
sequence learner is never quantized.

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
from .model import MorpheusConfig, MorpheusModel, PoolLayer, ResidualBlock, StartBlock
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
        for lineno, raw in enumerate(text.splitlines(), 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"plan line {lineno}: expected 'layer = quantize|keep_float'")
            key, value = (p.strip() for p in line.split("=", 1))
            if key == "calibration_samples":
                samples = int(value)
            elif value in ("quantize", "keep_float"):
                flags[key] = value == "quantize"
            else:
                raise ValueError(f"plan line {lineno}: unknown setting {value!r}")
        return cls(flags, samples)


# ---------------------------------------------------------------------------
# Folded inference CNN


@dataclass
class FoldedStart:
    name: str
    conv: ops.Conv1dParams
    pool_kind: str
    pool_size: int


@dataclass
class FoldedResidual:
    name: str
    sep: ops.SeparableConv1dParams
    residual: ops.Conv1dParams | None  # None for identity blocks


@dataclass
class FoldedPool:
    name: str
    pool_kind: str
    pool_size: int


@dataclass
class InferenceCnn:
    """Batchnorm-free CNN ready for calibration, fine-tuning, and freezing."""

    config: MorpheusConfig
    blocks: list
    head_w: Tensor
    head_b: Tensor

    def weighted_layer_names(self) -> list[str]:
        names = [b.name for b in self.blocks if not isinstance(b, FoldedPool)]
        return names + ["head"]

    def named_weight_tensors(self) -> dict[str, list[tuple[str, Tensor]]]:
        """Per layer, its weight tensors (biases last)."""
        out: dict[str, list[tuple[str, Tensor]]] = {}
        for b in self.blocks:
            if isinstance(b, FoldedStart):
                out[b.name] = [(f"{b.name}.conv.w", b.conv.weights),
                               (f"{b.name}.conv.b", b.conv.bias)]
            elif isinstance(b, FoldedResidual):
                entries = [(f"{b.name}.sep.dw", b.sep.depthwise),
                           (f"{b.name}.sep.pw", b.sep.pointwise),
                           (f"{b.name}.sep.b", b.sep.bias)]
                if b.residual is not None:
                    entries += [(f"{b.name}.res.w", b.residual.weights),
                                (f"{b.name}.res.b", b.residual.bias)]
                out[b.name] = entries
        out["head"] = [("head.w", self.head_w), ("head.b", self.head_b)]
        return out


def fold_cnn(model: MorpheusModel) -> InferenceCnn:
    """Fold every block's batchnorm into its convolution weights."""
    blocks = []
    for block in model.blocks:
        if isinstance(block, StartBlock):
            folded = ops.fold_batchnorm(block.conv, block.bn)
            blocks.append(FoldedStart(block.name, folded, block.pool_kind, block.pool_size))
        elif isinstance(block, ResidualBlock):
            folded = ops.fold_batchnorm(block.sep, block.bn)
            residual = None
            if block.projected:
                residual = ops.Conv1dParams(
                    Tensor(block.residual.weights.data.copy()),
                    Tensor(block.residual.bias.data.copy()),
                    padding="valid",
                )
            blocks.append(FoldedResidual(block.name, folded, residual))
        elif isinstance(block, PoolLayer):
            blocks.append(FoldedPool(block.name, block.pool_kind, block.pool_size))
        else:
            raise TypeError(f"cannot fold {type(block).__name__}")
    return InferenceCnn(
        model.config, blocks,
        Tensor(model.head_w.data.copy()), Tensor(model.head_b.data.copy()),
    )


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

    With ``plan`` and ``act_qp`` given, layers marked quantize see
    fake-quantized weights (when ``weight_fq``) and fake-quantized
    activations at the points the integer runtime requantizes: the layer
    input, the depthwise output, and the block output. ``observer`` receives
    every activation tensor by name, which is how calibration collects
    ranges. Each block is one sequence of ops for inference and fine-tuning
    alike; its backward closure, built only under ``want_grads``, passes
    straight-through gradients to the folded weights. Returns logits, plus
    that closure under ``want_grads``.
    """
    x = np.asarray(x)
    quantized = (lambda name: plan.flags.get(name, False)) if plan else (lambda name: False)
    qp = act_qp or {}
    backs = []

    def see(name, arr):
        if observer is not None:
            observer(name, arr)

    def fq(arr, qparams):
        """Fake-quant point as ``(value, backward)``; the identity when ``qparams`` is None."""
        if qparams is None:
            return arr, ((lambda dy: dy) if want_grads else None)
        return ops.run(fake_quantize, want_grads, arr, qparams)

    def weight(tensor: Tensor, on: bool):
        """Forward weight value (fake-quantized or raw) plus its STE hook."""
        return fq(tensor.data, weight_qparams(tensor.data) if on and weight_fq else None)

    def act(arr, qparams, on):
        return fq(arr, qparams if on else None)

    def start(block: FoldedStart, xin, on):
        w, bw = weight(block.conv.weights, on)
        eff = ops.Conv1dParams(Tensor(w), block.conv.bias,
                               stride=block.conv.stride, padding=block.conv.padding)
        y, bconv = ops.run(ops.conv1d, want_grads, xin, eff)
        y, brelu = ops.run(ops.relu, want_grads, y)
        see(f"{block.name}.out", y)
        y, bfo = act(y, qp.get(f"{block.name}.out"), on)
        y, bpool = ops.run(ops.pool1d, want_grads, y, block.pool_kind, block.pool_size)
        if not want_grads:
            return y, None

        def backward(dy):
            d, dw, db = bconv(brelu(bfo(bpool(dy))))
            block.conv.weights.add_grad(bw(dw))
            block.conv.bias.add_grad(db)
            return d

        return y, backward

    def residual(block: FoldedResidual, xin, on):
        dw, bdw_w = weight(block.sep.depthwise, on)
        pw, bpw_w = weight(block.sep.pointwise, on)
        mid, bdw = ops.run(ops.depthwise_conv1d, want_grads, xin, Tensor(dw))
        see(f"{block.name}.dw", mid)
        mid, bfd = act(mid, qp.get(f"{block.name}.dw"), on)
        y, bpw = ops.run(ops.pointwise_conv1d, want_grads, mid, Tensor(pw), block.sep.bias)
        y, brelu = ops.run(ops.relu, want_grads, y)
        if block.residual is not None:
            rw, brw = weight(block.residual.weights, on)
            eff_res = ops.Conv1dParams(Tensor(rw), block.residual.bias, padding="valid")
            r, bres = ops.run(ops.conv1d, want_grads, xin, eff_res)
        else:
            r, bres = xin, None
        y = r + y
        see(f"{block.name}.out", y)
        y, bfo = act(y, qp.get(f"{block.name}.out"), on)
        if not want_grads:
            return y, None

        def backward(dy):
            d = bfo(dy)
            dmid, dpw, db = bpw(brelu(d))
            block.sep.pointwise.add_grad(bpw_w(dpw))
            block.sep.bias.add_grad(db)
            dx, ddw = bdw(bfd(dmid))
            block.sep.depthwise.add_grad(bdw_w(ddw))
            if bres is None:
                return dx + d
            dxr, dwr, dbr = bres(d)
            block.residual.weights.add_grad(brw(dwr))
            block.residual.bias.add_grad(dbr)
            return dx + dxr

        return y, backward

    see("input", x)
    cur_qp = qp.get("input")
    for block in icnn.blocks:
        if isinstance(block, FoldedPool):
            x, back = ops.run(ops.pool1d, want_grads, x, block.pool_kind, block.pool_size)
            backs.append(back)
            continue
        on = quantized(block.name)
        xin, bfi = act(x, cur_qp, on)
        x, back = (start if isinstance(block, FoldedStart) else residual)(block, xin, on)
        backs += [bfi, back]
        cur_qp = qp.get(f"{block.name}.out", cur_qp)

    # global average pool and classifier head
    on = quantized("head")
    pooled, bgap = ops.run(ops.global_avg_pool, want_grads, x)
    pooled, bfh = act(pooled, cur_qp, on)
    hw, bhw = weight(icnn.head_w, on)
    logits, bdense = ops.run(ops.dense, want_grads, pooled, Tensor(hw), icnn.head_b)
    if not want_grads:
        return logits

    def backward(dlogits):
        dp, dw, db = bdense(dlogits)
        icnn.head_w.add_grad(bhw(dw))
        icnn.head_b.add_grad(db)
        d = bgap(bfh(dp))
        for back in reversed(backs):
            d = back(d)
        return d

    return logits, backward


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
        if name in ranges:
            plo, phi = ranges[name]
            ranges[name] = (min(plo, lo), max(phi, hi))
        else:
            ranges[name] = (lo, hi)

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
            for name, tensors in sim.named_weight_tensors().items():
                if not self.plan.flags[name]:
                    continue
                for tname, tensor in tensors:
                    if tname in self.weight_q:
                        tensor.data = dequantize(self.weight_q[tname]).astype(np.float32)
            self._sim_cache = sim
        return self._sim_cache


def _bias_input_scales(icnn: InferenceCnn, act_qp: dict[str, QuantParams]):
    """Input activation scale feeding each weighted tensor, for bias quantization."""
    scales: dict[str, float] = {}
    cur = "input"
    for block in icnn.blocks:
        if isinstance(block, FoldedPool):
            continue
        if isinstance(block, FoldedStart):
            scales[f"{block.name}.conv.w"] = act_qp[cur].scale
        elif isinstance(block, FoldedResidual):
            scales[f"{block.name}.sep.dw"] = act_qp[cur].scale
            scales[f"{block.name}.sep.pw"] = act_qp[f"{block.name}.dw"].scale
            if block.residual is not None:
                scales[f"{block.name}.res.w"] = act_qp[cur].scale
        cur = f"{block.name}.out"
    scales["head.w"] = act_qp[cur].scale
    return scales


def freeze_quantized(icnn: InferenceCnn, plan: QuantizationPlan,
                     act_qp: dict[str, QuantParams]) -> QuantizedCnn:
    """Quantize weights to int8 and biases to int32 for every planned layer."""
    validate_plan(plan, icnn)
    qcnn = QuantizedCnn(icnn, plan, dict(act_qp))
    in_scales = _bias_input_scales(icnn, act_qp)
    # each bias belongs to one weight stage; its scale is input_scale * weight_scale
    bias_stage = {"conv.b": "conv.w", "sep.b": "sep.pw", "res.b": "res.w", "head.b": "head.w"}
    for layer, tensors in icnn.named_weight_tensors().items():
        if not plan.flags[layer]:
            continue
        w_scales: dict[str, float] = {}
        for tname, tensor in tensors:
            if tname.endswith(".b"):
                continue
            qp = weight_qparams(tensor.data)
            qcnn.weight_q[tname] = quantize_tensor(tensor.data, qp)
            w_scales[tname] = qp.scale
        for tname, tensor in tensors:
            if not tname.endswith(".b"):
                continue
            pair = next(
                (tname[: len(tname) - len(bs)] + ws for bs, ws in bias_stage.items()
                 if tname.endswith(bs)),
                None,
            )
            if pair is None or pair not in w_scales:
                raise ValueError(f"no weight stage found for bias {tname}")
            bias_scale = in_scales[pair] * w_scales[pair]
            q = round_half_away(tensor.data.astype(np.float64) / bias_scale)
            qcnn.bias_q[tname] = np.clip(q, -2**31, 2**31 - 1).astype(np.int32)
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
