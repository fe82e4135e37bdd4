"""Static-memory integer inference over a loaded flat model.

All persistent working memory is sized and acquired through an ``Arena``
during construction; the arena is then frozen, and running inference acquires
nothing more from it (tests instrument exactly this). Quantized entries run
in integer arithmetic: int8 operands, exact wide accumulation, fixed-point
requantization with round-half-away-from-zero, ReLU as a clamp at the output
zero point. Float entries (excluded blocks, the classifier logits, and the
sequence learner) run in float32.

Integer accumulation runs on floating-point matrix products, one per entry:
a convolution multiplies its weights ``[out_ch, in_ch * kernel]`` by a column
buffer of input windows, a depthwise entry contracts each channel's windows
with its taps, and pointwise and dense entries are a single product. The
operands are integers: weights ``w`` in int8 and shifted inputs
``x - zero_point`` with ``|x - zero_point| <= 255``. Every product and every
partial sum of one output is therefore an integer of magnitude at most
``sum_i |w_i| * 255`` over that output's row of weights. Each entry takes
float32 accumulators when that bound is below ``2**24`` for every row, so
each partial sum is exactly representable in any summation order (with or
without fused multiply-add), and float64 otherwise, which is exact below
``2**53``: a row of at most ``2**32`` weights (``in_ch * kernel`` of two u16
fields) stays below ``2**47``. The exact sums then move to int64 for the
bias and requantization.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .arena import Arena, ArenaPlan, Step, plan_memory
from .flatmodel import (
    Entry,
    FlatModelSpec,
    K_ADD,
    K_AVGPOOL,
    K_CONV,
    K_DENSE,
    K_DEPTHWISE,
    K_GAP,
    K_MAXPOOL,
    K_POINTWISE,
    MODEL_INPUT,
    NO_AUX,
    serialize_spec,
)
from .quantize import QMAX, QMIN, QuantParams, apply_requant, round_half_away


# largest |x - zero_point| of two int8 values
_SHIFTED_INPUT_MAX = QMAX - QMIN


def accumulator_dtype(weights: np.ndarray):
    """float32 if every partial sum of an output row is an integer below 2**24,
    which float32 holds exactly in any summation order; float64 otherwise."""
    rows = np.abs(weights.astype(np.int64)).reshape(len(weights), -1).sum(axis=1)
    return np.float32 if int(rows.max()) * _SHIFTED_INPUT_MAX < 2**24 else np.float64


def _round_div_int(values: np.ndarray, divisor: int) -> np.ndarray:
    """Integer divide with round-half-away-from-zero."""
    mag = (np.abs(values) + divisor // 2) // divisor
    return np.where(values < 0, -mag, mag)


def _requant_mean(sums: np.ndarray, window: int, zp: int, out: np.ndarray) -> None:
    """int8 mean of ``window`` values sharing zero point ``zp``, from their sums."""
    sums -= window * zp
    res = _round_div_int(sums, window) + zp
    out[...] = np.clip(res, QMIN, QMAX).reshape(out.shape).astype(np.int8)


@dataclass
class ProfileReport:
    macs_per_layer: dict[str, int]
    macs_total: int
    peak_arena_bytes: int
    model_bytes: int
    latency_ms_median: float
    latency_ms_p95: float

    def to_json(self) -> str:
        return json.dumps({
            "macs_total": self.macs_total,
            "macs_per_layer": self.macs_per_layer,
            "peak_arena_bytes": self.peak_arena_bytes,
            "model_bytes": self.model_bytes,
            "latency_ms_median": self.latency_ms_median,
            "latency_ms_p95": self.latency_ms_p95,
        }, indent=2)


class InferenceEngine:
    """Executes one inference stream over an immutable flat-model spec."""

    def __init__(self, spec: FlatModelSpec, model_bytes: int = 0):
        if not spec.entries:
            raise ValueError("empty flat model")
        self.spec = spec
        self.model_bytes = model_bytes or len(serialize_spec(spec))
        self.arena = Arena()
        self._build()
        self.arena.freeze()

    # -- construction -------------------------------------------------------

    def _acquire(self, shape, dtype) -> np.ndarray:
        arr = np.empty(shape, dtype=dtype)
        self.arena.acquire(arr.nbytes)
        return arr

    def _entry_dtype(self, entry: Entry):
        if entry.kind == K_DENSE or not entry.quantized:
            return np.float32
        return np.int8

    def _producer_quantized(self, src: int) -> bool:
        if src == MODEL_INPUT:
            return self.spec.entries[0].quantized
        e = self.spec.entries[src]
        return e.quantized and e.kind != K_DENSE

    def _producer_qp(self, src: int) -> QuantParams | None:
        if src == MODEL_INPUT:
            return self.spec.input_qp
        return self.spec.entries[src].out_qparams()

    def _build(self) -> None:
        spec = self.spec
        sizes = []
        steps = []
        # tensor 0 is the model input; entry i produces tensor i + 1
        in_quant = spec.entries[0].quantized
        sizes.append(spec.config_input_len * (1 if in_quant else 4))
        for i, entry in enumerate(spec.entries):
            width = np.dtype(self._entry_dtype(entry)).itemsize
            sizes.append(entry.out_ch * entry.out_len * width)
            inputs = [0 if entry.main_src == MODEL_INPUT else entry.main_src + 1]
            if entry.aux_src != NO_AUX:
                inputs.append(0 if entry.aux_src == MODEL_INPUT else entry.aux_src + 1)
            steps.append(Step(entry.name, tuple(inputs), i + 1))
        self.plan: ArenaPlan = plan_memory(sizes, steps, keep_alive=(len(sizes) - 1,))

        raw = [self._acquire(size, np.uint8) for size in self.plan.buffer_sizes]
        self._out = []  # typed view per tensor id
        in_view = raw[self.plan.assignment[0]][:sizes[0]]
        self._out.append(in_view.view(np.int8 if in_quant else np.float32)
                         .reshape(1, spec.config_input_len))
        for i, entry in enumerate(spec.entries):
            dtype = self._entry_dtype(entry)
            n = entry.out_ch * entry.out_len
            view = raw[self.plan.assignment[i + 1]][:sizes[i + 1]].view(dtype)[:n]
            shape = (entry.out_ch,) if entry.out_len == 1 and entry.kind in (K_DENSE, K_GAP) \
                else (entry.out_ch, entry.out_len)
            self._out.append(view.reshape(shape))

        # per-entry constants, scratch, and boundary-conversion buffers
        self._ctx: list[dict] = []
        for i, entry in enumerate(spec.entries):
            ctx: dict = {}
            if entry.kind in (K_CONV, K_DEPTHWISE, K_POINTWISE, K_DENSE):
                if entry.quantized:
                    self._build_weighted_int(entry, ctx)
                else:
                    self._build_weighted_float(entry, ctx)
            elif entry.kind == K_ADD or (entry.kind == K_AVGPOOL and entry.quantized):
                ctx["acc"] = self._acquire((entry.out_ch, entry.out_len), np.int64)

            # static domain conversions at this entry's inputs
            need_quant = entry.quantized
            for role, src in (("main", entry.main_src),
                              ("aux", entry.aux_src if entry.aux_src != NO_AUX else None)):
                if src is None:
                    continue
                have_q = self._producer_quantized(src)
                if need_quant and not have_q:
                    shape = self._src_shape(src)
                    ctx[f"{role}_conv"] = self._acquire(shape, np.int8)
                elif not need_quant and have_q:
                    shape = self._src_shape(src)
                    ctx[f"{role}_conv"] = self._acquire(shape, np.float32)
            self._ctx.append(ctx)

        # sequence learner working memory (float32 throughout)
        seq = spec.seq
        self._seq_w = {n: t.astype(np.float32) for n, t in seq.tensors.items()}
        self._seq = {
            "h": self._acquire(seq.hidden, np.float32),
            "c": self._acquire(seq.hidden, np.float32),
            "z": self._acquire(seq.input_size + seq.hidden, np.float32),
            "gates": self._acquire((4, seq.hidden), np.float32),
            "fc": self._acquire(seq.dense_hidden, np.float32),
            "logits": self._acquire(seq.classes, np.float32),
        }
        # the causal window, oldest row first, front-padded with the earliest output
        self._window = self._acquire((12, seq.input_size), np.float32)
        self._filled = False
        self._probs = self._acquire(seq.classes, np.float32)
        self._probs_seq = self._acquire(seq.classes, np.float32)

    def _build_weighted_int(self, entry: Entry, ctx: dict) -> None:
        """Shifted-input, column and accumulator buffers in the entry's exact
        accumulator dtype; the input's padding columns are zeroed once here."""
        dtype = accumulator_dtype(entry.weights)
        ctx["w"] = entry.weights.astype(dtype).reshape(entry.out_ch, -1)
        ctx["bias_i"] = None if entry.bias is None else entry.bias.astype(np.int64)
        if entry.kind in (K_CONV, K_DEPTHWISE):
            k = entry.kernel
            left = (k - 1) // 2
            xpad = self._acquire((entry.in_ch, entry.in_len + k - 1), dtype)
            xpad.fill(0)
            ctx["x"] = xpad[:, left:left + entry.in_len]
            ctx["windows"] = sliding_window_view(xpad, k, axis=1)  # [in_ch, out_len, k]
            if entry.kind == K_CONV:
                ctx["cols"] = self._acquire((entry.in_ch * k, entry.out_len), dtype)
        else:
            ctx["x"] = self._acquire((entry.in_ch, entry.in_len), dtype)
        ctx["acc"] = self._acquire((entry.out_ch, entry.out_len), dtype)

    def _build_weighted_float(self, entry: Entry, ctx: dict) -> None:
        ctx["w32"] = entry.weights.astype(np.float32)
        ctx["bias_f"] = None if entry.bias is None else entry.bias.astype(np.float32)
        if entry.kind in (K_CONV, K_DEPTHWISE):
            k = entry.kernel
            left = (k - 1) // 2
            ctx["pad"] = (left, k - 1 - left)
            ctx["xpad"] = self._acquire((entry.in_ch, entry.in_len + k - 1), np.float32)
            ctx["acc"] = self._acquire((entry.out_ch, entry.out_len), np.float32)
            if entry.kind == K_CONV:
                ctx["tmp"] = self._acquire((entry.out_ch, entry.out_len), np.float32)
        else:
            ctx["xin"] = self._acquire((entry.in_ch, entry.in_len), np.float32)
            ctx["acc"] = self._acquire((entry.out_ch, entry.out_len), np.float32)

    def _src_shape(self, src: int):
        if src == MODEL_INPUT:
            return (1, self.spec.config_input_len)
        return self._out[src + 1].shape

    # -- input handling ------------------------------------------------------

    def quantize_input(self, epoch: np.ndarray) -> np.ndarray:
        """Quantize a float epoch with the model's recorded input parameters."""
        qp = self.spec.input_qp
        q = round_half_away(np.asarray(epoch, dtype=np.float64) / qp.scale) + qp.zero_point
        return np.clip(q, QMIN, QMAX).astype(np.int8)

    # -- execution ------------------------------------------------------------

    def infer_cnn_int8(self, x_int8: np.ndarray, trace: bool = False):
        """Stage probabilities for one quantized epoch ``[1, input_len]``.

        The input must already be quantized with the model's input
        parameters. With ``trace=True`` the per-entry raw outputs are also
        returned (as copies; tracing allocates and is meant for verification).
        """
        spec = self.spec
        x_int8 = np.asarray(x_int8)
        if x_int8.shape != (1, spec.config_input_len) or x_int8.dtype != np.int8:
            raise ValueError(
                f"expected int8 input of shape (1, {spec.config_input_len}),"
                f" got {x_int8.dtype} {x_int8.shape}"
            )
        if spec.entries[0].quantized:
            self._out[0][...] = x_int8
        else:
            qp = spec.input_qp
            np.subtract(x_int8.astype(np.float32), np.float32(qp.zero_point),
                        out=self._out[0])
            self._out[0] *= np.float32(qp.scale)

        logits = None
        named = {} if trace else None
        for i, entry in enumerate(spec.entries):
            self._run_entry(i, entry)
            if trace:
                # snapshot now: the plan reuses this buffer for later tensors
                named[entry.name] = np.array(self._out[i + 1])
            if entry.kind == K_DENSE:
                logits = self._out[i + 1]
        probs = _softmax32(logits, self._probs)
        if trace:
            return probs.copy(), named
        return probs

    def _operand(self, i: int, entry: Entry, role: str, src: int):
        """Fetch an input tensor, converting domain into a preallocated buffer."""
        arr = self._out[0 if src == MODEL_INPUT else src + 1]
        conv = self._ctx[i].get(f"{role}_conv")
        if conv is None:
            return arr, self._producer_qp(src)
        qp = self._producer_qp(src)
        if conv.dtype == np.int8:
            # float producer feeding a quantized consumer
            q = round_half_away(arr.astype(np.float64) / qp.scale) + qp.zero_point
            conv[...] = np.clip(q, QMIN, QMAX).reshape(conv.shape).astype(np.int8)
        else:
            np.subtract(arr.astype(np.float32), np.float32(qp.zero_point),
                        out=conv.reshape(arr.shape))
            conv *= np.float32(qp.scale)
        return conv, qp

    def _run_entry(self, i: int, entry: Entry) -> None:
        ctx = self._ctx[i]
        out = self._out[i + 1]
        main, main_qp = self._operand(i, entry, "main", entry.main_src)

        if entry.kind in (K_MAXPOOL, K_AVGPOOL, K_GAP):
            window = entry.kernel if entry.kind != K_GAP else entry.in_len
            n = entry.in_len // window
            xr = main[:, :n * window].reshape(entry.in_ch, n, window)
            # max and int8 average pools take one pass per window position:
            # reducing over the short inner axis runs a slow strided loop per
            # output element instead
            if entry.kind == K_MAXPOOL:
                out[...] = xr[:, :, 0]
                for j in range(1, window):
                    np.maximum(out, xr[:, :, j], out=out)
            elif entry.quantized and entry.kind == K_AVGPOOL:
                acc = ctx["acc"]
                acc[...] = xr[:, :, 0]
                for j in range(1, window):
                    acc += xr[:, :, j]
                _requant_mean(acc, window, entry.out_zp, out)
            elif entry.quantized:
                _requant_mean(xr.astype(np.int64).sum(axis=2), window, entry.out_zp, out)
            else:
                out[...] = xr.mean(axis=2, dtype=np.float64).reshape(out.shape)
            return

        if entry.kind == K_ADD:
            aux, aux_qp = self._operand(i, entry, "aux", entry.aux_src)
            if entry.quantized:
                acc = ctx["acc"]
                acc[...] = aux  # widen to int64 before the zero-point shift
                acc -= aux_qp.zero_point
                acc[...] = apply_requant(acc, entry.rm)
                acc += main.astype(np.int64)
                np.clip(acc, QMIN, QMAX, out=acc)
                out[...] = acc.astype(np.int8)
            else:
                np.add(main, aux, out=out)
            return

        if entry.quantized:
            self._weighted_int(entry, ctx, main, main_qp, out)
        else:
            self._weighted_float(entry, ctx, main, out)

    def _weighted_int(self, entry: Entry, ctx, x_int8, in_qp, out) -> None:
        x, acc, w = ctx["x"], ctx["acc"], ctx["w"]
        # widen before the zero-point shift; exact in either accumulator dtype
        np.subtract(x_int8.reshape(x.shape), acc.dtype.type(in_qp.zero_point), out=x)
        if entry.kind == K_CONV:
            cols = ctx["cols"]  # row c * kernel + kk: padded channel c from tap kk on
            np.copyto(cols.reshape(entry.in_ch, entry.kernel, entry.out_len),
                      ctx["windows"].transpose(0, 2, 1))
            np.matmul(w, cols, out=acc)
        elif entry.kind == K_DEPTHWISE:
            np.einsum("clk,ck->cl", ctx["windows"], w, out=acc)
        else:  # pointwise or dense
            np.matmul(w, x, out=acc)
        acc_i = acc.astype(np.int64)  # exact: see accumulator_dtype
        if ctx["bias_i"] is not None:
            acc_i += ctx["bias_i"].reshape(-1, 1)

        if entry.kind == K_DENSE:
            scale = np.float32(in_qp.scale * entry.w_scale)
            out[...] = acc_i.reshape(out.shape).astype(np.float32) * scale
            return
        res = apply_requant(acc_i, entry.rm)
        res += entry.out_zp
        # ReLU clamps at the output zero point, which lies in [QMIN, QMAX]
        np.clip(res, entry.out_zp if entry.relu else QMIN, QMAX, out=res)
        out[...] = res.reshape(out.shape)

    def _weighted_float(self, entry: Entry, ctx, x_f32, out) -> None:
        if entry.kind in (K_CONV, K_DEPTHWISE):
            left, _ = ctx["pad"]
            xpad, acc = ctx["xpad"], ctx["acc"]
            xpad[:, :left] = 0.0
            xpad[:, left + entry.in_len:] = 0.0
            xpad[:, left:left + entry.in_len] = x_f32
            acc.fill(0.0)
            w = ctx["w32"]
            if entry.kind == K_CONV:
                tmp = ctx["tmp"]
                for kk in range(entry.kernel):
                    np.matmul(w[:, :, kk], xpad[:, kk:kk + entry.out_len], out=tmp)
                    acc += tmp
            else:
                for kk in range(entry.kernel):
                    acc += w[:, kk, None] * xpad[:, kk:kk + entry.out_len]
        else:
            xin, acc = ctx["xin"], ctx["acc"]
            xin[...] = x_f32.reshape(xin.shape)
            np.matmul(ctx["w32"], xin, out=acc.reshape(entry.out_ch, entry.out_len))
        if ctx["bias_f"] is not None:
            acc += ctx["bias_f"].reshape(-1, 1)
        if entry.relu:
            np.maximum(acc, 0.0, out=acc)
        out[...] = acc.reshape(out.shape)

    # -- full pipeline: int8 CNN + float sequence learner ---------------------

    def reset_stream(self) -> None:
        self._filled = False

    def infer_epoch(self, epoch: np.ndarray):
        """Causal per-epoch prediction through the int8 CNN and float sequence
        learner; identical windowing to the float path (front-padding with the
        earliest output until the window fills). A malformed epoch (wrong
        shape, or a NaN or infinite sample) raises ``ValueError`` before the
        window is touched, so the stream position is preserved."""
        epoch = np.asarray(epoch, dtype=np.float32)
        if epoch.shape != (1, self.spec.config_input_len):
            raise ValueError(
                f"expected a [1, {self.spec.config_input_len}] epoch, got {epoch.shape}"
            )
        if not np.isfinite(epoch).all():
            raise ValueError("epoch has a non-finite sample")
        probs = self.infer_cnn_int8(self.quantize_input(epoch))
        if self._filled:
            self._window[:-1] = self._window[1:]
            self._window[-1] = probs
        else:  # the first epoch after a reset pads the whole window
            self._window[...] = probs
            self._filled = True
        seq_probs = self._run_seq()
        return int(np.argmax(seq_probs)), seq_probs.copy()

    def _run_seq(self) -> np.ndarray:
        seq = self.spec.seq
        w = self._seq_w
        st = self._seq
        st["h"].fill(0.0)
        st["c"].fill(0.0)
        z = st["z"]
        gates = st["gates"]
        for row in self._window:
            z[:seq.input_size] = row
            z[seq.input_size:] = st["h"]
            np.matmul(w["w_i"], z, out=gates[0]); gates[0] += w["b_i"]
            np.matmul(w["w_f"], z, out=gates[1]); gates[1] += w["b_f"]
            np.matmul(w["w_g"], z, out=gates[2]); gates[2] += w["b_g"]
            np.matmul(w["w_o"], z, out=gates[3]); gates[3] += w["b_o"]
            _sigmoid_inplace(gates[0])
            _sigmoid_inplace(gates[1])
            np.tanh(gates[2], out=gates[2])
            _sigmoid_inplace(gates[3])
            st["c"] *= gates[1]
            gates[0] *= gates[2]
            st["c"] += gates[0]
            np.tanh(st["c"], out=st["h"])
            st["h"] *= gates[3]
        np.matmul(w["fc_w"], st["h"], out=st["fc"])
        st["fc"] += w["fc_b"]
        np.maximum(st["fc"], 0.0, out=st["fc"])
        np.matmul(w["out_w"], st["fc"], out=st["logits"])
        st["logits"] += w["out_b"]
        return _softmax32(st["logits"], self._probs_seq)

    # -- accounting ------------------------------------------------------------

    def mac_counts(self) -> dict[str, int]:
        out = {}
        for entry in self.spec.entries:
            if entry.kind == K_CONV:
                macs = entry.out_ch * entry.in_ch * entry.kernel * entry.out_len
            elif entry.kind == K_DEPTHWISE:
                macs = entry.in_ch * entry.kernel * entry.out_len
            elif entry.kind == K_POINTWISE:
                macs = entry.in_ch * entry.out_ch * entry.out_len
            elif entry.kind == K_DENSE:
                macs = entry.in_ch * entry.out_ch
            else:
                macs = 0
            out[entry.name] = macs
        seq = self.spec.seq
        out["seq.lstm"] = 12 * 4 * seq.hidden * (seq.input_size + seq.hidden)
        out["seq.fc"] = seq.dense_hidden * seq.hidden
        out["seq.out"] = seq.classes * seq.dense_hidden
        return out

    def profile(self, sample_inputs: np.ndarray, runs: int = 100) -> ProfileReport:
        """Analytic MAC counts plus wall-clock latency statistics over runs."""
        if runs < 1:
            raise ValueError("need at least one run")
        sample_inputs = np.asarray(sample_inputs, dtype=np.float32)
        if sample_inputs.ndim != 3:
            raise ValueError("sample inputs must be [N, 1, input_len]")
        times = []
        for r in range(runs):
            epoch = sample_inputs[r % len(sample_inputs)]
            t0 = time.perf_counter()
            self.infer_epoch(epoch)
            times.append((time.perf_counter() - t0) * 1000.0)
        macs = self.mac_counts()
        return ProfileReport(
            macs_per_layer=macs,
            macs_total=int(sum(macs.values())),
            peak_arena_bytes=self.arena.acquired_bytes,
            model_bytes=self.model_bytes,
            latency_ms_median=float(np.median(times)),
            latency_ms_p95=float(np.percentile(times, 95)),
        )


def _sigmoid_inplace(x: np.ndarray) -> None:
    np.negative(x, out=x)
    np.exp(x, out=x)
    x += 1.0
    np.reciprocal(x, out=x)


def _softmax32(logits: np.ndarray, out: np.ndarray) -> np.ndarray:
    np.subtract(logits, logits.max(), out=out)
    np.exp(out, out=out)
    out /= out.sum()
    return out
