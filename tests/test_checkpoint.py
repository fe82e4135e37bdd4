"""Checkpoint container round trips."""

import struct
import zlib

import numpy as np
import pytest

from conftest import SMALL_CONFIG
from morpheusnet.checkpoint import (
    CheckpointError,
    load_model,
    load_quantized,
    read_container,
    save_model,
    save_quantized,
    write_container,
)
from morpheusnet.model import build_morpheus


class TestContainer:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(0)
        tensors = {
            "a": rng.normal(size=(3, 4)).astype(np.float32),
            "b": rng.integers(-100, 100, 7).astype(np.int8),
            "c": rng.integers(-1000, 1000, (2, 2)).astype(np.int32),
            "d": rng.normal(size=5),
        }
        path = tmp_path / "t.ckpt"
        write_container(path, tensors)
        back = read_container(path)
        assert set(back) == set(tensors)
        for name in tensors:
            np.testing.assert_array_equal(back[name], tensors[name])
            assert back[name].dtype == tensors[name].dtype

    def test_corruption_detected(self, tmp_path):
        path = tmp_path / "t.ckpt"
        write_container(path, {"x": np.arange(10, dtype=np.float32)})
        data = bytearray(path.read_bytes())
        data[len(data) // 2] ^= 0x55
        path.write_bytes(bytes(data))
        with pytest.raises(CheckpointError):
            read_container(path)

    def test_rechecksummed_truncations_raise_checkpoint_error(self, tmp_path):
        """Every prefix, given a valid checksum, fails with a format error."""
        path = tmp_path / "t.ckpt"
        write_container(path, {"alpha": np.ones((3, 4), dtype=np.float32),
                               "b": np.arange(7, dtype=np.int8),
                               "scalar": np.array(2.0)})
        data = path.read_bytes()
        bad = tmp_path / "bad.ckpt"
        for n in range(len(data) - 4):
            body = data[:n]
            bad.write_bytes(body + struct.pack("<I", zlib.crc32(body)))
            with pytest.raises(CheckpointError):
                read_container(bad)

    def test_undecodable_name_reports_offset(self, tmp_path):
        path = tmp_path / "t.ckpt"
        write_container(path, {"alpha": np.ones(3, dtype=np.float32)})
        body = bytearray(path.read_bytes()[:-4])
        at = body.index(b"alpha")
        body[at] = 0xFF
        path.write_bytes(bytes(body) + struct.pack("<I", zlib.crc32(bytes(body))))
        with pytest.raises(CheckpointError, match=f"byte {at}"):
            read_container(path)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "t.ckpt"
        path.write_bytes(b"JUNKJUNKJUNKJUNKJUNK")
        with pytest.raises(CheckpointError):
            read_container(path)


class TestModelCheckpoint:
    def test_round_trip_bitwise(self, tmp_path):
        model = build_morpheus(SMALL_CONFIG, seed=42)
        path = tmp_path / "m.ckpt"
        save_model(path, model)
        back = load_model(path)
        assert back.config == model.config
        for (na, ta), (nb, tb) in zip(model.named_parameters(), back.named_parameters()):
            assert na == nb
            assert ta.data.tobytes() == tb.data.tobytes()
        for (na, ta), (nb, tb) in zip(model.named_buffers(), back.named_buffers()):
            assert ta.data.tobytes() == tb.data.tobytes()

    def test_missing_tensor_rejected(self, tmp_path):
        model = build_morpheus(SMALL_CONFIG, seed=0)
        path = tmp_path / "m.ckpt"
        save_model(path, model)
        tensors = read_container(path)
        del tensors["param.head.w"]
        write_container(path, tensors)
        with pytest.raises(CheckpointError):
            load_model(path)


class TestQuantizedCheckpoint:
    def test_round_trip(self, tmp_path, small_quantized, small_trained):
        qcnn, _, _ = small_quantized
        model, _ = small_trained
        path = tmp_path / "q.ckpt"
        save_quantized(path, qcnn, model)
        qback, mback = load_quantized(path)
        assert qback.plan.flags == qcnn.plan.flags
        assert set(qback.act_qparams) == set(qcnn.act_qparams)
        for name, qp in qcnn.act_qparams.items():
            assert qback.act_qparams[name] == qp
        for name, qt in qcnn.weight_q.items():
            np.testing.assert_array_equal(qback.weight_q[name].values, qt.values)
            assert qback.weight_q[name].qparams.scale == pytest.approx(
                qt.qparams.scale, rel=1e-12)
        for name, b in qcnn.bias_q.items():
            np.testing.assert_array_equal(qback.bias_q[name], b)
        for (na, ta), (_, tb) in zip(model.seq.named_parameters(),
                                     mback.seq.named_parameters()):
            assert ta.data.tobytes() == tb.data.tobytes()

    def test_compiles_identically_after_round_trip(self, tmp_path, small_quantized,
                                                   small_trained):
        from morpheusnet.flatmodel import compile_flat_model

        qcnn, _, _ = small_quantized
        model, _ = small_trained
        path = tmp_path / "q.ckpt"
        save_quantized(path, qcnn, model)
        qback, mback = load_quantized(path)
        assert compile_flat_model(qback, mback.seq) == compile_flat_model(qcnn, model.seq)
