"""Versioned binary container for model checkpoints (float and quantized).

Same container family as the flat inference model: little-endian, magic
``MNF1``, CRC32 checksum over everything before it. The body is a named
tensor table:

    "MNF1" | u16 version | u32 tensor count | u64 blob offset
    per tensor: u16 name length | name utf-8 | u8 dtype | u8 ndim
                | u32 dims[ndim] | u64 offset | u64 nbytes
    blob bytes | u32 crc32

dtype codes: 0 float32, 1 float64, 2 int8, 3 int32, 4 uint8.
"""

from __future__ import annotations

import math
import struct
import zlib

import numpy as np

from .model import MorpheusConfig, MorpheusModel, build_morpheus
from .quantize import (
    QuantizationPlan,
    QuantizedCnn,
    QuantParams,
    QuantizedTensor,
    fold_cnn,
    validate_plan,
)

MAGIC = b"MNF1"
VERSION = 1

_DTYPES = {0: "<f4", 1: "<f8", 2: "i1", 3: "<i4", 4: "u1"}


class CheckpointError(ValueError):
    pass


def _code_for(dtype: np.dtype) -> int | None:
    return {("f", 4): 0, ("f", 8): 1, ("i", 1): 2, ("i", 4): 3, ("u", 1): 4}.get(
        (dtype.kind, dtype.itemsize))


def write_container(path, tensors: dict[str, np.ndarray]) -> None:
    entries = []
    blob = bytearray()
    for name, arr in tensors.items():
        arr = np.ascontiguousarray(arr)
        code = _code_for(arr.dtype)
        if code is None:
            raise CheckpointError(f"unsupported dtype {arr.dtype} for {name!r}")
        offset = len(blob)
        blob += arr.astype(_DTYPES[code], copy=False).tobytes()
        entries.append((name.encode("utf-8"), code, arr.shape, offset, arr.nbytes))

    table = bytearray()
    for name, code, shape, offset, nbytes in entries:
        table += struct.pack("<H", len(name)) + name
        table += struct.pack("<BB", code, len(shape))
        table += struct.pack(f"<{len(shape)}I", *shape)
        table += struct.pack("<QQ", offset, nbytes)

    head = struct.pack("<4sHI", MAGIC, VERSION, len(entries))
    blob_offset = len(head) + 8 + len(table)
    body = head + struct.pack("<Q", blob_offset) + bytes(table) + bytes(blob)
    with open(path, "wb") as fh:
        fh.write(body)
        fh.write(struct.pack("<I", zlib.crc32(body)))


def read_container(path) -> dict[str, np.ndarray]:
    with open(path, "rb") as fh:
        data = fh.read()
    if len(data) < 18:
        raise CheckpointError("file too short to be a checkpoint")
    if data[:4] != MAGIC:
        raise CheckpointError(f"bad magic {data[:4]!r}, expected {MAGIC!r}")
    (stored,) = struct.unpack_from("<I", data, len(data) - 4)
    if stored != zlib.crc32(data[:-4]):
        raise CheckpointError("checksum mismatch")
    _, version, count = struct.unpack_from("<4sHI", data, 0)
    if version != VERSION:
        raise CheckpointError(f"unsupported checkpoint version {version}")
    (blob_offset,) = struct.unpack_from("<Q", data, 10)
    body = data[:-4]  # table fields never read into the checksum
    pos = 18
    out: dict[str, np.ndarray] = {}
    for _ in range(count):
        field = pos
        try:
            (nlen,) = struct.unpack_from("<H", body, pos)
            pos += 2
            name = body[pos:pos + nlen].decode("utf-8")
            pos += nlen
            code, ndim = struct.unpack_from("<BB", body, pos)
            pos += 2
            dims = struct.unpack_from(f"<{ndim}I", body, pos)
            pos += 4 * ndim
            offset, nbytes = struct.unpack_from("<QQ", body, pos)
            pos += 16
        except (struct.error, UnicodeDecodeError) as exc:
            raise CheckpointError(f"byte {pos}: malformed tensor table ({exc})") from exc
        if code not in _DTYPES:
            raise CheckpointError(f"byte {field}: tensor {name!r}: unknown dtype code {code}")
        dtype = np.dtype(_DTYPES[code])
        count_items = math.prod(dims)
        if nbytes != count_items * dtype.itemsize:
            raise CheckpointError(f"byte {field}: tensor {name!r}: {nbytes} bytes "
                                  f"for shape {dims} of {dtype}")
        start = blob_offset + offset
        if start + nbytes > len(body):
            raise CheckpointError(f"byte {field}: tensor {name!r}: blob out of bounds")
        arr = np.frombuffer(data, dtype=dtype, count=count_items, offset=start)
        out[name] = arr.reshape(dims).copy()
    return out


def _text_tensor(text: str) -> np.ndarray:
    return np.frombuffer(text.encode("utf-8"), dtype=np.uint8).copy()


def _tensor_text(arr: np.ndarray) -> str:
    return arr.tobytes().decode("utf-8")


def save_model(path, model: MorpheusModel) -> None:
    """Float checkpoint: configuration, parameters, batchnorm statistics."""
    tensors: dict[str, np.ndarray] = {"meta.config": _text_tensor(model.config.to_text())}
    for name, t in model.named_parameters():
        tensors[f"param.{name}"] = t.data
    for name, t in model.named_buffers():
        tensors[f"buffer.{name}"] = t.data
    write_container(path, tensors)


def load_model(path) -> MorpheusModel:
    tensors = read_container(path)
    if "meta.config" not in tensors:
        raise CheckpointError("not a model checkpoint: missing configuration")
    config = MorpheusConfig.from_text(_tensor_text(tensors["meta.config"]))
    model = build_morpheus(config, seed=0)
    for name, t in model.named_parameters():
        t.data = _tensor(tensors, f"param.{name}", t.data.shape).astype(t.data.dtype)
    for name, t in model.named_buffers():
        key = f"buffer.{name}"
        if key in tensors:
            t.data = tensors[key].astype(t.data.dtype)
    return model


def _tensor(tensors: dict[str, np.ndarray], key: str, shape) -> np.ndarray:
    """``tensors[key]``, which must exist with ``shape``."""
    if key not in tensors:
        raise CheckpointError(f"checkpoint is missing {key}")
    if tensors[key].shape != tuple(shape):
        raise CheckpointError(f"{key} has shape {tensors[key].shape}, expected {tuple(shape)}")
    return tensors[key]


def save_quantized(path, qcnn: QuantizedCnn, model: MorpheusModel) -> None:
    """Quantized checkpoint: folded weights, int8 artifacts, plan, activations,
    plus the (float) sequence learner from the accompanying model."""
    tensors: dict[str, np.ndarray] = {
        "meta.config": _text_tensor(qcnn.icnn.config.to_text()),
        "meta.plan": _text_tensor(qcnn.plan.to_text()),
    }
    act_lines = [f"{n}\t{qp.scale!r}\t{qp.zero_point}" for n, qp in
                 sorted(qcnn.act_qparams.items())]
    tensors["meta.act_qparams"] = _text_tensor("\n".join(act_lines))
    for layer, pairs in qcnn.icnn.named_weight_tensors().items():
        for tname, t in pairs:
            tensors[f"float.{tname}"] = t.data
    for tname, qt in qcnn.weight_q.items():
        tensors[f"int8.{tname}"] = qt.values
        tensors[f"scale.{tname}"] = np.array([qt.qparams.scale], dtype=np.float64)
    for tname, b in qcnn.bias_q.items():
        tensors[f"int32.{tname}"] = b
    for name, t in model.seq.named_parameters():
        tensors[f"param.{name}"] = t.data
    write_container(path, tensors)


def load_quantized(path) -> tuple[QuantizedCnn, MorpheusModel]:
    """Rebuild the quantized CNN and a model carrying the sequence learner."""
    tensors = read_container(path)
    for key in ("meta.config", "meta.plan", "meta.act_qparams"):
        if key not in tensors:
            raise CheckpointError(f"not a quantized checkpoint: missing {key}")
    config = MorpheusConfig.from_text(_tensor_text(tensors["meta.config"]))
    plan = QuantizationPlan.from_text(_tensor_text(tensors["meta.plan"]))
    act: dict[str, QuantParams] = {}
    for line in _tensor_text(tensors["meta.act_qparams"]).splitlines():
        try:
            name, scale, zp = line.split("\t")
            act[name] = QuantParams(float(scale), int(zp))
        except ValueError as exc:
            raise CheckpointError(f"meta.act_qparams line {line!r}: {exc}") from exc

    model = build_morpheus(config, seed=0)
    icnn = fold_cnn(model)
    try:
        validate_plan(plan, icnn)
    except ValueError as exc:
        raise CheckpointError(f"meta.plan: {exc}") from exc
    for point in ["input"] + [n.act for n in icnn.nodes if n.act is not None]:
        if point not in act:
            raise CheckpointError(f"meta.act_qparams is missing {point}")
    for pairs in icnn.named_weight_tensors().values():
        for tname, t in pairs:
            t.data = _tensor(tensors, f"float.{tname}", t.data.shape).astype(np.float32)
    qcnn = QuantizedCnn(icnn, plan, act)
    # every weighted node of a quantized layer needs its frozen tensors
    for node in icnn.nodes:
        if node.weight is None or not plan.flags[node.layer]:
            continue
        wname, w = node.weight
        values = _tensor(tensors, f"int8.{wname}", w.data.shape)
        scale = float(_tensor(tensors, f"scale.{wname}", (1,))[0])
        qcnn.weight_q[wname] = QuantizedTensor(values, QuantParams(scale, 0))
        if node.bias is not None:
            bname, b = node.bias
            qcnn.bias_q[bname] = _tensor(tensors, f"int32.{bname}", b.data.shape).astype(np.int32)
    for name, t in model.seq.named_parameters():
        t.data = _tensor(tensors, f"param.{name}", t.data.shape).astype(np.float32)
    return qcnn, model
