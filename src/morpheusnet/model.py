"""The fixed sleep-stage classifier: CNN feature extractor plus sequence learner.

The CNN is a shallow residual chain of three block kinds. A start block is a
normal convolution with batchnorm, ReLU, and max pooling. Conv and identity
blocks run a depthwise-separable convolution through batchnorm and ReLU, then
add a residual: a pointwise projection of the block input (conv block) or the
unmodified input (identity block), so zeroing an identity block's convolution
weights makes it an exact identity map. The sequence learner is an LSTM over
the CNN's per-epoch class probabilities followed by a small dense stack.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import ops
from .tensor import Tensor

STAGES = ("W", "N1", "N2", "N3", "REM")
NUM_STAGES = len(STAGES)
STAGE_INDEX = {s: i for i, s in enumerate(STAGES)}


@dataclass(frozen=True)
class LayerSpec:
    kind: str  # start | conv_block | identity_block | pool
    filters: int | None = None
    kernel: int | None = None
    pool_kind: str | None = None
    pool_size: int | None = None


DEFAULT_LAYERS: tuple[LayerSpec, ...] = (
    LayerSpec("start", filters=16, kernel=32, pool_kind="max", pool_size=4),
    LayerSpec("conv_block", filters=32, kernel=8),
    LayerSpec("pool", pool_kind="max", pool_size=4),
    LayerSpec("identity_block", filters=32, kernel=8),
    LayerSpec("conv_block", filters=64, kernel=8),
    LayerSpec("pool", pool_kind="avg", pool_size=4),
    LayerSpec("identity_block", filters=64, kernel=8),
)


def key_value_lines(text: str, where: str, expect: str = "'key = value'"):
    """``(lineno, key, value)`` for each ``key = value`` line of ``text``.

    ``#`` starts a comment and blank lines are skipped; a line without ``=``
    raises ``ValueError("{where} {lineno}: expected {expect}, got {line!r}")``.
    """
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"{where} {lineno}: expected {expect}, got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        yield lineno, key, value


@dataclass
class MorpheusConfig:
    input_len: int = 3000
    layers: tuple[LayerSpec, ...] = DEFAULT_LAYERS
    classes: int = 5
    lstm_hidden: int = 32
    dense_hidden: int = 32
    dropout: float = 0.2
    sequence_len: int = 12

    def __post_init__(self) -> None:
        if self.classes != NUM_STAGES:
            raise ValueError("the classifier targets exactly the five sleep stages")
        if self.sequence_len != 12:
            raise ValueError("the sequence learner consumes 12 consecutive epochs")
        if abs(self.dropout - 0.2) > 1e-12:
            raise ValueError("dropout between sequence-learner layers is fixed at 0.2")
        self.layers = tuple(self.layers)

    def to_text(self) -> str:
        lines = [
            f"input_len = {self.input_len}",
            f"classes = {self.classes}",
            f"lstm_hidden = {self.lstm_hidden}",
            f"dense_hidden = {self.dense_hidden}",
            f"dropout = {self.dropout}",
            f"sequence_len = {self.sequence_len}",
        ]
        for i, spec in enumerate(self.layers):
            parts = [spec.kind]
            if spec.filters is not None:
                parts.append(f"filters={spec.filters}")
            if spec.kernel is not None:
                parts.append(f"kernel={spec.kernel}")
            if spec.pool_kind is not None:
                parts.append(f"pool={spec.pool_kind}:{spec.pool_size}")
            lines.append(f"layer.{i} = " + " ".join(parts))
        return "\n".join(lines) + "\n"

    @classmethod
    def from_text(cls, text: str) -> "MorpheusConfig":
        scalars: dict[str, str] = {}
        layers: dict[int, LayerSpec] = {}
        for lineno, key, value in key_value_lines(text, "line"):
            if key.startswith("layer."):
                idx = int(key.split(".", 1)[1])
                tokens = value.split()
                kw: dict[str, object] = {"kind": tokens[0]}
                for tok in tokens[1:]:
                    name, val = tok.split("=", 1)
                    if name == "pool":
                        pk, ps = val.split(":")
                        kw["pool_kind"] = pk
                        kw["pool_size"] = int(ps)
                    elif name in ("filters", "kernel"):
                        kw[name] = int(val)
                    else:
                        raise ValueError(f"line {lineno}: unknown layer field {name!r}")
                layers[idx] = LayerSpec(**kw)
            else:
                scalars[key] = value
        ordered = tuple(layers[i] for i in sorted(layers))
        return cls(
            input_len=int(scalars.get("input_len", 3000)),
            layers=ordered if ordered else DEFAULT_LAYERS,
            classes=int(scalars.get("classes", 5)),
            lstm_hidden=int(scalars.get("lstm_hidden", 32)),
            dense_hidden=int(scalars.get("dense_hidden", 32)),
            dropout=float(scalars.get("dropout", 0.2)),
            sequence_len=int(scalars.get("sequence_len", 12)),
        )


def he_uniform(rng: np.random.Generator, shape: tuple[int, ...], fan_in: int,
               dtype=np.float32) -> Tensor:
    limit = float(np.sqrt(6.0 / max(1, fan_in)))
    return Tensor(rng.uniform(-limit, limit, shape).astype(dtype))


def _zeros(shape, dtype=np.float32) -> Tensor:
    return Tensor(np.zeros(shape, dtype=dtype))


def _fresh_bn(channels: int) -> ops.BatchNormState:
    return ops.BatchNormState(
        Tensor(np.ones(channels, dtype=np.float32)),
        _zeros(channels),
        _zeros(channels),
        Tensor(np.ones(channels, dtype=np.float32)),
    )


class StartBlock:
    kind = "start"

    def __init__(self, name, rng, in_channels, filters, kernel, pool_kind, pool_size):
        self.name = name
        self.conv = ops.Conv1dParams(
            he_uniform(rng, (filters, in_channels, kernel), in_channels * kernel),
            _zeros(filters),
        )
        self.bn = _fresh_bn(filters)
        self.pool_kind = pool_kind
        self.pool_size = pool_size
        self.in_channels, self.out_channels = in_channels, filters

    def out_len(self, length: int) -> int:
        return length // self.pool_size

    def forward(self, x, mode, want_grads=False):
        y, bconv = ops.run(ops.conv1d, want_grads, x, self.conv)
        y, bbn = ops.run(ops.batchnorm1d, want_grads, y, self.bn, mode)
        y, brelu = ops.run(ops.relu, want_grads, y)
        y, bpool = ops.run(ops.pool1d, want_grads, y, self.pool_kind, self.pool_size)
        if not want_grads:
            return y

        def backward(dy):
            d = ops.backprop(bbn, brelu(bpool(dy)), self.bn.parameters())
            return ops.backprop(bconv, d, self.conv.parameters())

        return y, backward

    def named_parameters(self):
        return [
            (f"{self.name}.conv.w", self.conv.weights),
            (f"{self.name}.conv.b", self.conv.bias),
            (f"{self.name}.bn.gamma", self.bn.gamma),
            (f"{self.name}.bn.beta", self.bn.beta),
        ]

    def named_buffers(self):
        return [
            (f"{self.name}.bn.running_mean", self.bn.running_mean),
            (f"{self.name}.bn.running_var", self.bn.running_var),
        ]


class ResidualBlock:
    """Shared machinery of conv blocks and identity blocks."""

    def __init__(self, name, rng, in_channels, filters, kernel, projected: bool):
        self.name = name
        self.sep = ops.SeparableConv1dParams(
            he_uniform(rng, (in_channels, kernel), kernel),
            he_uniform(rng, (filters, in_channels), in_channels),
            _zeros(filters),
        )
        self.bn = _fresh_bn(filters)
        self.projected = projected
        if projected:
            self.residual = ops.Conv1dParams(
                he_uniform(rng, (filters, in_channels, 1), in_channels),
                _zeros(filters),
                padding="valid",
            )
        else:
            if filters != in_channels:
                raise ops.ShapeError(
                    f"identity block needs matching channels, got {in_channels} -> {filters}"
                )
            self.residual = None
        self.in_channels, self.out_channels = in_channels, filters

    def out_len(self, length: int) -> int:
        return length

    def forward(self, x, mode, want_grads=False):
        m, bsep = ops.run(ops.separable_conv1d, want_grads, x, self.sep)
        m, bbn = ops.run(ops.batchnorm1d, want_grads, m, self.bn, mode)
        m, brelu = ops.run(ops.relu, want_grads, m)
        r, bres = ops.run(ops.conv1d, want_grads, x, self.residual) if self.projected else (x, None)
        y = r + m
        if not want_grads:
            return y

        def backward(dy):
            d = ops.backprop(bbn, brelu(dy), self.bn.parameters())
            dx = ops.backprop(bsep, d, self.sep.parameters())
            if not self.projected:
                return dx + dy
            return dx + ops.backprop(bres, dy, self.residual.parameters())

        return y, backward

    def named_parameters(self):
        out = [
            (f"{self.name}.sep.dw", self.sep.depthwise),
            (f"{self.name}.sep.pw", self.sep.pointwise),
            (f"{self.name}.sep.b", self.sep.bias),
            (f"{self.name}.bn.gamma", self.bn.gamma),
            (f"{self.name}.bn.beta", self.bn.beta),
        ]
        if self.projected:
            out += [
                (f"{self.name}.res.w", self.residual.weights),
                (f"{self.name}.res.b", self.residual.bias),
            ]
        return out

    def named_buffers(self):
        return [
            (f"{self.name}.bn.running_mean", self.bn.running_mean),
            (f"{self.name}.bn.running_var", self.bn.running_var),
        ]


class ConvResBlock(ResidualBlock):
    kind = "conv_block"

    def __init__(self, name, rng, in_channels, filters, kernel):
        super().__init__(name, rng, in_channels, filters, kernel, projected=True)


class IdentityResBlock(ResidualBlock):
    kind = "identity_block"

    def __init__(self, name, rng, in_channels, filters, kernel):
        super().__init__(name, rng, in_channels, filters, kernel, projected=False)


class PoolLayer:
    kind = "pool"

    def __init__(self, name, in_channels, pool_kind, pool_size):
        self.name = name
        self.pool_kind = pool_kind
        self.pool_size = pool_size
        self.in_channels = self.out_channels = in_channels

    def out_len(self, length: int) -> int:
        return length // self.pool_size

    def forward(self, x, mode, want_grads=False):
        return ops.pool1d(x, self.pool_kind, self.pool_size, want_grads)

    def named_parameters(self):
        return []

    def named_buffers(self):
        return []


class SequenceLearner:
    """LSTM over per-epoch probability vectors, then dense(ReLU), then logits."""

    def __init__(self, rng, classes, hidden, dense_hidden, dropout_rate):
        self.lstm = ops.LstmParams(
            classes, hidden,
            he_uniform(rng, (hidden, classes + hidden), classes + hidden),
            he_uniform(rng, (hidden, classes + hidden), classes + hidden),
            he_uniform(rng, (hidden, classes + hidden), classes + hidden),
            he_uniform(rng, (hidden, classes + hidden), classes + hidden),
            _zeros(hidden), _zeros(hidden), _zeros(hidden), _zeros(hidden),
        )
        self.fc_w = he_uniform(rng, (dense_hidden, hidden), hidden)
        self.fc_b = _zeros(dense_hidden)
        self.out_w = he_uniform(rng, (classes, dense_hidden), dense_hidden)
        self.out_b = _zeros(classes)
        self.dropout_rate = dropout_rate

    def logits(self, x, mode, rng=0, want_grads=False):
        """``x`` is ``[B, T, classes]``; returns ``[B, classes]`` logits."""
        hs, blstm = ops.run(ops.lstm_sequence, want_grads, x, self.lstm)
        h, bd1 = ops.run(ops.dropout, want_grads, hs[:, -1, :], self.dropout_rate, rng, mode)
        f, bfc = ops.run(ops.dense, want_grads, h, self.fc_w, self.fc_b)
        f, brelu = ops.run(ops.relu, want_grads, f)
        f, bd2 = ops.run(ops.dropout, want_grads, f, self.dropout_rate, rng, mode)
        logits, bout = ops.run(ops.dense, want_grads, f, self.out_w, self.out_b)
        if not want_grads:
            return logits

        def backward(dlogits):
            d = ops.backprop(bout, dlogits, [self.out_w, self.out_b])
            d = ops.backprop(bfc, brelu(bd2(d)), [self.fc_w, self.fc_b])
            dh_all = np.zeros_like(hs)
            dh_all[:, -1, :] = bd1(d)
            dx, grads = blstm(dh_all)
            for name, g in grads.items():
                getattr(self.lstm, name).add_grad(g)
            return dx

        return logits, backward

    def probs(self, x, mode="infer", rng=0):
        return ops.softmax(self.logits(x, mode, rng))

    def named_parameters(self):
        out = [(f"seq.lstm.{n}", getattr(self.lstm, n))
               for n in ("w_i", "w_f", "w_g", "w_o", "b_i", "b_f", "b_g", "b_o")]
        out += [("seq.fc.w", self.fc_w), ("seq.fc.b", self.fc_b),
                ("seq.out.w", self.out_w), ("seq.out.b", self.out_b)]
        return out


class MorpheusModel:
    def __init__(self, config: MorpheusConfig, blocks, head_w: Tensor, head_b: Tensor,
                 seq: SequenceLearner):
        self.config = config
        self.blocks = blocks
        self.head_w = head_w
        self.head_b = head_b
        self.seq = seq

    def cnn_logits(self, x, mode="infer", want_grads=False):
        """Run the CNN on ``[B, 1, input_len]`` inputs; returns ``[B, classes]``."""
        x = np.asarray(x)
        if x.ndim != 3 or x.shape[2] != self.config.input_len:
            raise ops.ShapeError(
                f"expected [B, 1, {self.config.input_len}] input, got shape {x.shape}"
            )
        backs = []
        for block in self.blocks:
            x, back = ops.run(block.forward, want_grads, x, mode)
            backs.append(back)
        g, bgap = ops.run(ops.global_avg_pool, want_grads, x)
        logits, bdense = ops.run(ops.dense, want_grads, g, self.head_w, self.head_b)
        if not want_grads:
            return logits

        def backward(dlogits):
            d = bgap(ops.backprop(bdense, dlogits, [self.head_w, self.head_b]))
            for back in reversed(backs):
                d = back(d)
            return d

        return logits, backward

    def cnn_probs(self, x, mode="infer", batch_size=256):
        """Class probabilities for a stack of epochs, evaluated in chunks."""
        x = np.asarray(x)
        outs = []
        for i in range(0, len(x), batch_size):
            outs.append(ops.softmax(self.cnn_logits(x[i:i + batch_size], mode)))
        return np.concatenate(outs, axis=0) if outs else np.zeros((0, self.config.classes))

    def cnn_named_parameters(self):
        out = []
        for block in self.blocks:
            out.extend(block.named_parameters())
        out += [("head.w", self.head_w), ("head.b", self.head_b)]
        return out

    def named_buffers(self):
        out = []
        for block in self.blocks:
            out.extend(block.named_buffers())
        return out

    def named_parameters(self):
        return self.cnn_named_parameters() + self.seq.named_parameters()

    def cnn_parameters(self):
        return [t for _, t in self.cnn_named_parameters()]

    def seq_parameters(self):
        return [t for _, t in self.seq.named_parameters()]


def build_morpheus(config: MorpheusConfig, seed: int = 0) -> MorpheusModel:
    """Construct a freshly initialized model; same seed, same parameters."""
    rng = np.random.default_rng(seed)
    blocks = []
    channels, length = 1, config.input_len
    for i, spec in enumerate(config.layers):
        name = f"{spec.kind.split('_')[0]}{i}"
        if spec.kind == "start":
            block = StartBlock(name, rng, channels, spec.filters, spec.kernel,
                               spec.pool_kind or "max", spec.pool_size or 4)
        elif spec.kind == "conv_block":
            block = ConvResBlock(name, rng, channels, spec.filters, spec.kernel)
        elif spec.kind == "identity_block":
            filters = spec.filters if spec.filters is not None else channels
            block = IdentityResBlock(name, rng, channels, filters, spec.kernel)
        elif spec.kind == "pool":
            block = PoolLayer(name, channels, spec.pool_kind, spec.pool_size)
        else:
            raise ValueError(f"unknown layer kind {spec.kind!r}")
        channels = block.out_channels
        length = block.out_len(length)
        if length < 1:
            raise ops.ShapeError(f"layer {name} reduces the signal to zero length")
        blocks.append(block)

    head_w = he_uniform(rng, (config.classes, channels), channels)
    head_b = _zeros(config.classes)
    seq = SequenceLearner(rng, config.classes, config.lstm_hidden,
                          config.dense_hidden, config.dropout)
    return MorpheusModel(config, blocks, head_w, head_b, seq)


def cnn_forward(model: MorpheusModel, epoch: np.ndarray, mode: str = "infer") -> np.ndarray:
    """Stage probabilities for a single ``[1, input_len]`` epoch."""
    epoch = np.asarray(epoch)
    if epoch.shape != (1, model.config.input_len):
        raise ops.ShapeError(
            f"expected a [1, {model.config.input_len}] epoch, got shape {epoch.shape}"
        )
    logits = model.cnn_logits(epoch[None], mode)
    return ops.softmax(logits)[0]


def param_count(model: MorpheusModel) -> int:
    """Exact number of trainable scalars (running statistics excluded)."""
    return int(sum(t.size for _, t in model.named_parameters()))
