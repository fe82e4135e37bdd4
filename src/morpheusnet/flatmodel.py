"""The serialized inference model: a flat, checksummed, little-endian container.

Layout (all little-endian):

    header   "MNQ1" | u16 version | u16 entry count | u32 input_len
             | u16 classes | u16 lstm_hidden | u16 dense_hidden | u16 pad
             | f32 input_scale | i32 input_zero_point
             | u64 seq_blob_offset | u64 seq_blob_length | u64 blobs_offset
    entries  one 56-byte record each (see _ENTRY below)
    blobs    per-entry weight payloads, at blob_offset relative to blobs_offset:
             quantized: f32 weight_scale | int8 weights | int32 biases
             float:     f32 weights | f32 biases
    seq blob u16 input | u16 hidden | u16 dense_hidden | u16 classes, then
             float32 tensors: the four gate weight matrices [hidden, input+hidden],
             four gate biases, dense weights/bias, output weights/bias
    crc32    u32 over every preceding byte

Entries form a chain: ``main_src`` is the producing entry index of the input
(0xFFFE means the model input), ``aux_src`` the second operand of an ADD.
The RELU flag clamps the output at the zero point (integer domain) or at
zero (float domain). Requantization multipliers scale the int32 accumulator
of convolution-like entries, and for ADD they rescale the aux operand into
the output's quantization parameters; the main operand of an ADD is already
expressed in them by construction.
"""

from __future__ import annotations

import struct
import zlib
from dataclasses import dataclass, field

import numpy as np

from .model import MorpheusConfig, SequenceLearner
from .quantize import (
    POOLS,
    QuantParams,
    QuantizedCnn,
    RequantMultiplier,
    requant_multiplier,
)

MAGIC = b"MNQ1"
VERSION = 1
MODEL_INPUT = 0xFFFE
NO_AUX = 0xFFFF
SIZE_BUDGET_BYTES = 102_400

K_CONV = 1
K_DEPTHWISE = 2
K_POINTWISE = 3
K_ADD = 4
K_MAXPOOL = 5
K_AVGPOOL = 6
K_GAP = 7
K_DENSE = 8

F_RELU = 1
F_QUANTIZED = 2

# entry kind of each node kind of the folded CNN
_KINDS = {"conv": K_CONV, "dw": K_DEPTHWISE, "pw": K_POINTWISE, "res": K_POINTWISE,
          "add": K_ADD, "max": K_MAXPOOL, "avg": K_AVGPOOL, "gap": K_GAP, "dense": K_DENSE}

_HEADER = struct.Struct("<4sHHIHHHHfiQQQ")
_ENTRY = struct.Struct("<BBHHHHHIIHHfiiiQQ")
_SEQ_HEAD = struct.Struct("<HHHH")


class FlatModelError(ValueError):
    pass


@dataclass
class Entry:
    kind: int
    flags: int
    in_ch: int
    out_ch: int
    kernel: int
    stride: int
    in_len: int
    out_len: int
    main_src: int
    aux_src: int
    out_scale: float
    out_zp: int
    rm: RequantMultiplier | None
    name: str = ""
    w_scale: float = 0.0
    weights: np.ndarray | None = None  # int8 (quantized) or float32
    bias: np.ndarray | None = None     # int32 (quantized) or float32

    @property
    def quantized(self) -> bool:
        return bool(self.flags & F_QUANTIZED)

    @property
    def relu(self) -> bool:
        return bool(self.flags & F_RELU)

    def out_qparams(self) -> QuantParams | None:
        if self.out_scale <= 0:
            return None
        return QuantParams(self.out_scale, self.out_zp)


@dataclass
class SeqParams:
    input_size: int
    hidden: int
    dense_hidden: int
    classes: int
    tensors: dict[str, np.ndarray] = field(default_factory=dict)

    _ORDER = ("w_i", "w_f", "w_g", "w_o", "b_i", "b_f", "b_g", "b_o",
              "fc_w", "fc_b", "out_w", "out_b")

    def shapes(self) -> dict[str, tuple[int, ...]]:
        i, h, d, k = self.input_size, self.hidden, self.dense_hidden, self.classes
        gates = {n: (h, i + h) for n in ("w_i", "w_f", "w_g", "w_o")}
        gates.update({n: (h,) for n in ("b_i", "b_f", "b_g", "b_o")})
        gates.update({"fc_w": (d, h), "fc_b": (d,), "out_w": (k, d), "out_b": (k,)})
        return gates


@dataclass
class FlatModelSpec:
    config_input_len: int
    classes: int
    lstm_hidden: int
    dense_hidden: int
    input_qp: QuantParams
    entries: list[Entry]
    seq: SeqParams


def _weight_dims(entry: Entry) -> tuple[tuple[int, ...], int]:
    """Weight tensor shape and bias length (0 for none) for a weighted entry."""
    if entry.kind == K_CONV:
        return (entry.out_ch, entry.in_ch, entry.kernel), entry.out_ch
    if entry.kind == K_DEPTHWISE:
        return (entry.in_ch, entry.kernel), 0
    if entry.kind in (K_POINTWISE, K_DENSE):
        return (entry.out_ch, entry.in_ch), entry.out_ch
    return (), 0


def _entry_blob(entry: Entry) -> bytes:
    shape, bias_len = _weight_dims(entry)
    if not shape:
        return b""
    if entry.quantized:
        parts = [struct.pack("<f", entry.w_scale),
                 np.ascontiguousarray(entry.weights, dtype=np.int8).tobytes()]
        if bias_len:
            parts.append(np.ascontiguousarray(entry.bias, dtype="<i4").tobytes())
    else:
        parts = [np.ascontiguousarray(entry.weights, dtype="<f4").tobytes()]
        if bias_len:
            parts.append(np.ascontiguousarray(entry.bias, dtype="<f4").tobytes())
    return b"".join(parts)


def _parse_blob(entry: Entry, blob: bytes, offset_hint: int) -> None:
    shape, bias_len = _weight_dims(entry)
    if not shape:
        if blob:
            raise FlatModelError(f"byte {offset_hint}: unexpected payload on {entry.name}")
        return
    n_w = int(np.prod(shape))
    if entry.quantized:
        expect = 4 + n_w + 4 * bias_len
        if len(blob) != expect:
            raise FlatModelError(
                f"byte {offset_hint}: blob for {entry.name or entry.kind} has "
                f"{len(blob)} bytes, expected {expect}"
            )
        (entry.w_scale,) = struct.unpack_from("<f", blob, 0)
        entry.weights = np.frombuffer(blob, dtype=np.int8, count=n_w, offset=4).reshape(shape)
        if bias_len:
            entry.bias = np.frombuffer(blob, dtype="<i4", count=bias_len,
                                       offset=4 + n_w).copy()
    else:
        expect = 4 * (n_w + bias_len)
        if len(blob) != expect:
            raise FlatModelError(
                f"byte {offset_hint}: blob for {entry.name or entry.kind} has "
                f"{len(blob)} bytes, expected {expect}"
            )
        entry.weights = np.frombuffer(blob, dtype="<f4", count=n_w).reshape(shape)
        if bias_len:
            entry.bias = np.frombuffer(blob, dtype="<f4", count=bias_len,
                                       offset=4 * n_w).copy()


def serialize_spec(spec: FlatModelSpec) -> bytes:
    """Rebuild the byte stream from parsed state; deterministic."""
    blobs = bytearray()
    entry_records = []
    blob_entries = []
    for entry in spec.entries:
        blob = _entry_blob(entry)
        blob_entries.append((len(blobs), len(blob)))
        blobs += blob

    seq = spec.seq
    seq_blob = bytearray(_SEQ_HEAD.pack(seq.input_size, seq.hidden,
                                        seq.dense_hidden, seq.classes))
    for name in SeqParams._ORDER:
        seq_blob += np.ascontiguousarray(seq.tensors[name], dtype="<f4").tobytes()

    header_len = _HEADER.size
    table_len = _ENTRY.size * len(spec.entries)
    blobs_offset = header_len + table_len
    seq_offset = blobs_offset + len(blobs)

    for entry, (boff, blen) in zip(spec.entries, blob_entries):
        rm_mult = entry.rm.multiplier if entry.rm else 0
        rm_shift = entry.rm.shift if entry.rm else 0
        entry_records.append(_ENTRY.pack(
            entry.kind, entry.flags, 0,
            entry.in_ch, entry.out_ch, entry.kernel, entry.stride,
            entry.in_len, entry.out_len, entry.main_src, entry.aux_src,
            entry.out_scale, entry.out_zp, rm_mult, rm_shift,
            boff, blen,
        ))

    header = _HEADER.pack(
        MAGIC, VERSION, len(spec.entries), spec.config_input_len,
        spec.classes, spec.lstm_hidden, spec.dense_hidden, 0,
        spec.input_qp.scale, spec.input_qp.zero_point,
        seq_offset, len(seq_blob), blobs_offset,
    )
    body = header + b"".join(entry_records) + bytes(blobs) + bytes(seq_blob)
    return body + struct.pack("<I", zlib.crc32(body))


def load_flat_model(data: bytes) -> FlatModelSpec:
    """Parse and validate a flat model byte stream."""
    if len(data) < _HEADER.size + 4:
        raise FlatModelError(f"byte {len(data)}: file too short")
    magic = data[:4]
    if magic != MAGIC:
        raise FlatModelError(f"byte 0: bad magic {magic!r}, expected {MAGIC!r}")
    (stored_crc,) = struct.unpack_from("<I", data, len(data) - 4)
    actual_crc = zlib.crc32(data[:-4])
    if stored_crc != actual_crc:
        raise FlatModelError(
            f"byte {len(data) - 4}: checksum mismatch "
            f"(stored {stored_crc:#010x}, computed {actual_crc:#010x})"
        )
    (_, version, n_entries, input_len, classes, lstm_hidden, dense_hidden, _,
     in_scale, in_zp, seq_off, seq_len, blobs_off) = _HEADER.unpack_from(data, 0)
    if version != VERSION:
        raise FlatModelError(f"byte 4: unsupported version {version}")

    entries = []
    pos = _HEADER.size
    body_end = len(data) - 4
    for i in range(n_entries):
        if pos + _ENTRY.size > body_end:
            raise FlatModelError(f"byte {pos}: truncated entry table")
        (kind, flags, _, in_ch, out_ch, kernel, stride, in_len, out_len,
         main_src, aux_src, out_scale, out_zp, rm_mult, rm_shift,
         boff, blen) = _ENTRY.unpack_from(data, pos)
        rm = RequantMultiplier(rm_mult, rm_shift) if rm_mult else None
        entry = Entry(kind, flags, in_ch, out_ch, kernel, stride, in_len, out_len,
                      main_src, aux_src, out_scale, out_zp, rm, name=f"entry{i}")
        start = blobs_off + boff
        if start + blen > body_end:
            raise FlatModelError(f"byte {start}: weight blob runs past the file end")
        _parse_blob(entry, data[start:start + blen], start)
        entries.append(entry)
        pos += _ENTRY.size

    if seq_off + seq_len > body_end:
        raise FlatModelError(f"byte {seq_off}: sequence blob runs past the file end")
    seq_blob = data[seq_off:seq_off + seq_len]
    if len(seq_blob) < _SEQ_HEAD.size:
        raise FlatModelError(f"byte {seq_off}: sequence blob too short")
    isz, hidden, dhidden, k = _SEQ_HEAD.unpack_from(seq_blob, 0)
    seq = SeqParams(isz, hidden, dhidden, k)
    pos = _SEQ_HEAD.size
    for name, shape in seq.shapes().items():
        n = int(np.prod(shape))
        if pos + 4 * n > len(seq_blob):
            raise FlatModelError(f"byte {seq_off + pos}: sequence blob truncated at {name}")
        seq.tensors[name] = np.frombuffer(seq_blob, dtype="<f4", count=n,
                                          offset=pos).reshape(shape).copy()
        pos += 4 * n
    if pos != len(seq_blob):
        raise FlatModelError(f"byte {seq_off + pos}: trailing bytes in sequence blob")

    return FlatModelSpec(
        input_len, classes, lstm_hidden, dense_hidden,
        QuantParams(in_scale, in_zp), entries, seq,
    )


def _seq_from_learner(seq: SequenceLearner, classes: int) -> SeqParams:
    params = SeqParams(seq.lstm.input_size, seq.lstm.hidden_size,
                       seq.fc_w.data.shape[0], classes)
    for gate in ("w_i", "w_f", "w_g", "w_o", "b_i", "b_f", "b_g", "b_o"):
        params.tensors[gate] = getattr(seq.lstm, gate).data.astype(np.float32)
    params.tensors["fc_w"] = seq.fc_w.data.astype(np.float32)
    params.tensors["fc_b"] = seq.fc_b.data.astype(np.float32)
    params.tensors["out_w"] = seq.out_w.data.astype(np.float32)
    params.tensors["out_b"] = seq.out_b.data.astype(np.float32)
    return params


def compile_flat_model(qcnn: QuantizedCnn, seq: SequenceLearner,
                       size_budget: int = SIZE_BUDGET_BYTES) -> bytes:
    """Lower a quantized CNN plus float sequence learner into flat-model bytes.

    Each node of the folded CNN becomes one entry, in node order. An entry's
    input and output parameters are its producer's and its own
    ``InferenceCnn.out_qparams``, except that a residual pw or res output,
    which has no activation point, takes those of the add it feeds. Pools
    and GAP carry their producer's quantized flag; every other entry its
    layer's plan flag.

    Deterministic: identical inputs produce identical bytes. Raises if the
    result exceeds the size budget or batchnorm was not folded (guaranteed
    by construction from a folded CNN).
    """
    icnn = qcnn.icnn
    act = qcnn.act_qparams
    cfg: MorpheusConfig = icnn.config
    nodes = icnn.nodes
    if nodes[0].layer is None:
        raise FlatModelError("model must start with a weighted block")

    def out_qp(i: int) -> QuantParams | None:
        qp = icnn.out_qparams(i, act)
        if qp is None and nodes[i].kind in ("pw", "res"):  # summed by the next add
            qp = out_qp(next(j for j in range(i + 1, len(nodes)) if nodes[j].kind == "add"))
        return qp

    entries: list[Entry] = []
    for i, node in enumerate(nodes):
        prev = entries[node.main] if node.main >= 0 else None
        in_ch, in_len = (prev.out_ch, prev.out_len) if prev else (1, cfg.input_len)
        pool = node.kind in POOLS
        weighted = node.weight is not None
        out_ch = node.weight[1].data.shape[0] if weighted and node.kind != "dw" else in_ch
        out_len = in_len // node.window if pool else in_len
        quantized = prev.quantized if pool else qcnn.plan.flags[node.layer]
        flags = (F_RELU if node.relu else 0) | (F_QUANTIZED if quantized else 0)
        qp = out_qp(i)
        entry = Entry(_KINDS[node.kind], flags, in_ch, out_ch, node.window,
                      node.window if pool else 1, in_len, out_len,
                      MODEL_INPUT if node.main < 0 else node.main,
                      NO_AUX if node.aux is None else MODEL_INPUT if node.aux < 0 else node.aux,
                      qp.scale if qp else 0.0, qp.zero_point if qp else 0,
                      None, name=node.name)
        if weighted and quantized:
            qt = qcnn.weight_q[node.weight[0]]
            entry.w_scale = qt.qparams.scale
            entry.weights = qt.values
            if node.bias is not None:
                entry.bias = qcnn.bias_q[node.bias[0]]
        elif weighted:
            entry.weights = node.weight[1].data.astype(np.float32)
            if node.bias is not None:
                entry.bias = node.bias[1].data.astype(np.float32)
        if quantized and qp is not None and not pool:
            # an add rescales its aux operand into the output parameters
            in_qp = out_qp(node.aux if node.kind == "add" else node.main)
            entry.rm = requant_multiplier(in_qp.scale, entry.w_scale if weighted else 1.0,
                                          qp.scale)
        entries.append(entry)

    spec = FlatModelSpec(cfg.input_len, cfg.classes, cfg.lstm_hidden, cfg.dense_hidden,
                         act["input"], entries, _seq_from_learner(seq, cfg.classes))
    data = serialize_spec(spec)
    if len(data) > size_budget:
        raise FlatModelError(
            f"compiled model is {len(data)} bytes, over the {size_budget}-byte budget"
        )
    return data
