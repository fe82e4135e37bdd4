"""Command-line surface: a miniature pipeline plus error contracts."""

import json
import shutil
import struct
import zlib
from pathlib import Path

import numpy as np
import pytest

from morpheusnet.cli import main
from morpheusnet.model import STAGES
from morpheusnet.pipeline import read_epochs

ARCH_SMALL = """\
input_len = 3000
layer.0 = start filters=4 kernel=16 pool=max:4
layer.1 = conv_block filters=8 kernel=8
layer.2 = pool pool=max:4
layer.3 = identity_block filters=8 kernel=8
"""

SEARCH_SMALL = """\
steps = 4
batch_size = 4
kernels = 8
filters = 4,8
kinds = normal_conv,separable_conv
layout = conv,reduce
seed = 1
"""


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    root = tmp_path_factory.mktemp("pipeline")
    data = root / "data"
    assert main(["synth", "--subjects", "3", "--epochs", "24", "--seed", "7",
                 "--out", str(data), "--folds", "3"]) == 0
    (root / "arch.cfg").write_text(ARCH_SMALL)
    assert main(["train", "--data", str(data), "--arch", str(root / "arch.cfg"),
                 "--out", str(root / "model.ckpt"), "--seed", "3",
                 "--folds", "3"]) == 0
    assert main(["quantize", "--model", str(root / "model.ckpt"),
                 "--data", str(data), "--out", str(root / "qmodel.ckpt"),
                 "--seed", "3", "--folds", "3"]) == 0
    assert main(["compile", "--model", str(root / "qmodel.ckpt"),
                 "--out", str(root / "model.mnq")]) == 0
    return root, data


class TestSynth:
    def test_outputs_and_counts(self, workspace):
        _, data = workspace
        files = sorted(data.glob("*.epo"))
        assert len(files) == 3
        total = sum(len(read_epochs(f)[1]) for f in files)
        assert total == 3 * 24
        assert (data / "splits.tsv").exists()
        assert (data / "dataset.manifest.json").exists()

    def test_deterministic_bytes(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            assert main(["synth", "--subjects", "2", "--epochs", "6", "--seed", "5",
                         "--out", str(out)]) == 0
        for name in ("S00.epo", "S01.epo", "splits.tsv"):
            assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_zero_subjects_is_input_error(self, tmp_path):
        assert main(["synth", "--subjects", "0", "--epochs", "5",
                     "--out", str(tmp_path / "x")]) == 2


class TestSearch:
    def test_emits_choices_and_alpha_log(self, workspace, tmp_path):
        root, data = workspace
        cfg = tmp_path / "search.cfg"
        cfg.write_text(SEARCH_SMALL)
        out = tmp_path / "searched.cfg"
        assert main(["search", "--data", str(data), "--config", str(cfg),
                     "--out", str(out)]) == 0
        text = out.read_text()
        assert "# cell0.alpha =" in text and "# cell1.alpha =" in text
        assert "# cell0.choice =" in text
        log = Path(str(out) + ".alpha_log.tsv").read_text().splitlines()
        assert log[0] == "step\tcell\talphas"
        assert len(log) == 1 + 4 * 2  # steps x cells

    def test_deterministic(self, workspace, tmp_path):
        root, data = workspace
        cfg = tmp_path / "search.cfg"
        cfg.write_text(SEARCH_SMALL)
        outs = []
        for name in ("s1.cfg", "s2.cfg"):
            out = tmp_path / name
            assert main(["search", "--data", str(data), "--config", str(cfg),
                         "--out", str(out)]) == 0
            outs.append(out.read_text())
        assert outs[0] == outs[1]

    def test_missing_data_dir(self, tmp_path):
        assert main(["search", "--data", str(tmp_path / "nope"),
                     "--out", str(tmp_path / "o.cfg")]) == 2

    def test_default_layout_emits_six_choices(self, workspace, tmp_path):
        root, data = workspace
        cfg = tmp_path / "six.cfg"
        cfg.write_text("steps = 2\nbatch_size = 2\nkernels = 8\nfilters = 4\n"
                       "kinds = separable_conv,normal_conv\n")
        out = tmp_path / "six_out.cfg"
        assert main(["search", "--data", str(data), "--config", str(cfg),
                     "--out", str(out)]) == 0
        choices = [l for l in out.read_text().splitlines() if ".choice =" in l]
        assert len(choices) == 6

    def test_divergent_search_exits_3(self, workspace, tmp_path):
        root, data = workspace
        cfg = tmp_path / "diverge.cfg"
        cfg.write_text("steps = 30\nbatch_size = 4\nkernels = 8\nfilters = 4\n"
                       "theta_lr = 1e18\nalpha_lr = 1e18\nlayout = conv,reduce\n")
        assert main(["search", "--data", str(data), "--config", str(cfg),
                     "--out", str(tmp_path / "d.cfg")]) == 3


class TestTrainQuantizeCompile:
    def test_artifacts_exist(self, workspace):
        root, _ = workspace
        assert (root / "model.ckpt").exists()
        assert (root / "model.ckpt.cnn_history.csv").exists()
        assert (root / "model.ckpt.seq_history.csv").exists()
        assert (root / "model.ckpt.manifest.json").exists()
        assert (root / "qmodel.ckpt").exists()
        assert (root / "qmodel.ckpt.calibration.csv").exists()
        assert (root / "model.mnq").exists()

    def test_flat_model_within_budget(self, workspace):
        root, _ = workspace
        assert (root / "model.mnq").stat().st_size <= 102_400

    def test_quantize_manifest_records_exclusions(self, workspace):
        root, data = workspace
        out = root / "qmodel_excl.ckpt"
        assert main(["quantize", "--model", str(root / "model.ckpt"),
                     "--data", str(data), "--out", str(out), "--seed", "3",
                     "--folds", "3", "--exclude-start-identity"]) == 0
        manifest = json.loads(Path(str(out) + ".manifest.json").read_text())
        assert manifest["excluded_layers"] == ["identity3", "start0"]
        assert manifest["sequence_finetune"]["lr"] == 0.001
        assert manifest["sequence_finetune"]["batch_size"] == 32
        assert manifest["sequence_finetune"]["epochs"] == 5

    def test_rerun_reproduces_identical_checkpoint(self, workspace, tmp_path):
        root, data = workspace
        out = tmp_path / "again.ckpt"
        assert main(["train", "--data", str(data), "--arch", str(root / "arch.cfg"),
                     "--out", str(out), "--seed", "3", "--folds", "3"]) == 0
        assert out.read_bytes() == (root / "model.ckpt").read_bytes()

    def test_missing_upstream_artifact(self, workspace, tmp_path):
        root, data = workspace
        assert main(["quantize", "--model", str(tmp_path / "missing.ckpt"),
                     "--data", str(data), "--out", str(tmp_path / "q.ckpt")]) == 2
        assert main(["compile", "--model", str(tmp_path / "missing.ckpt"),
                     "--out", str(tmp_path / "m.mnq")]) == 2

    def test_truncated_rechecksummed_checkpoint_exits_2(self, workspace, tmp_path, capsys):
        root, _ = workspace
        body = (root / "qmodel.ckpt").read_bytes()[:40]  # inside the tensor table
        bad = tmp_path / "truncated.ckpt"
        bad.write_bytes(body + struct.pack("<I", zlib.crc32(body)))
        assert main(["compile", "--model", str(bad), "--out", str(tmp_path / "m.mnq")]) == 2
        assert "byte " in capsys.readouterr().err
        assert not (tmp_path / "m.mnq").exists()

    @pytest.mark.parametrize("drop,named", [
        ("scale.start0.conv.w", "scale.start0.conv.w"),
        ("int32.conv1.sep.b", "int32.conv1.sep.b"),
        ("int8.head.w", "int8.head.w"),
        ("head = quantize", "head"),  # a line of meta.plan
    ])
    def test_quantized_checkpoint_missing_a_piece_exits_2(self, workspace, tmp_path, capsys,
                                                          drop, named):
        from morpheusnet.checkpoint import (CheckpointError, load_quantized, read_container,
                                            write_container)

        root, _ = workspace
        tensors = read_container(root / "qmodel.ckpt")
        if drop in tensors:
            del tensors[drop]
        else:
            plan = tensors["meta.plan"].tobytes().decode()
            assert drop in plan
            plan = plan.replace(drop + "\n", "")
            tensors["meta.plan"] = np.frombuffer(plan.encode(), dtype=np.uint8).copy()
        bad = tmp_path / "bad.ckpt"
        write_container(bad, tensors)  # a valid checksum over the broken content
        with pytest.raises(CheckpointError, match=named):
            load_quantized(bad)
        assert main(["compile", "--model", str(bad), "--out", str(tmp_path / "m.mnq")]) == 2
        assert named in capsys.readouterr().err
        assert not (tmp_path / "m.mnq").exists()


    @pytest.mark.parametrize("bad_line", [
        "input 0.1 0",  # spaces, not tabs: one field
        "input\t0.1",  # two fields
        "input\t0.1\t0\t1",  # four fields
        "input\tabc\t0",  # unparsable scale
        "input\t0.1\tzero",  # unparsable zero point
        "input\t-1.0\t0",  # negative scale
        "input\t0.0\t0",  # zero scale
        "input\tnan\t0",  # non-finite scale
        "input\tinf\t0",
    ])
    def test_malformed_act_qparams_line_exits_2_naming_it(self, workspace, tmp_path, capsys,
                                                          bad_line):
        from morpheusnet.checkpoint import (CheckpointError, load_quantized, read_container,
                                            write_container)

        root, _ = workspace
        tensors = read_container(root / "qmodel.ckpt")
        lines = tensors["meta.act_qparams"].tobytes().decode().splitlines()
        index = [i for i, line in enumerate(lines) if line.startswith("input\t")][0]
        lines[index] = bad_line
        text = "\n".join(lines).encode()
        tensors["meta.act_qparams"] = np.frombuffer(text, dtype=np.uint8).copy()
        bad = tmp_path / "bad.ckpt"
        write_container(bad, tensors)  # a valid checksum over the broken content
        with pytest.raises(CheckpointError, match="meta.act_qparams") as info:
            load_quantized(bad)
        assert repr(bad_line) in str(info.value)
        assert main(["compile", "--model", str(bad), "--out", str(tmp_path / "m.mnq")]) == 2
        err = capsys.readouterr().err
        assert "meta.act_qparams" in err and repr(bad_line) in err
        assert not (tmp_path / "m.mnq").exists()


class TestMalformedEpochFiles:
    @pytest.mark.parametrize("name,content,named", [
        ("short", b"EPO1\x03\x00", "byte 4"),
        ("nan", b"EPO1" + struct.pack("<I", 2) + (b"\x00" + b"\x00" * 12000)
         + (b"\x01" + struct.pack("<f", np.nan) + b"\x00" * 11996), "epoch 1: non-finite"),
        ("stage", b"EPO1" + struct.pack("<I", 1) + b"\x05" + b"\x00" * 12000,
         "epoch 0: stage index 5"),
    ])
    def test_train_exits_2_naming_the_fault(self, workspace, tmp_path, capsys, name, content,
                                            named):
        root, data = workspace
        copy = tmp_path / "data"
        shutil.copytree(data, copy)
        (copy / "S01.epo").write_bytes(content)
        assert main(["train", "--data", str(copy), "--arch", str(root / "arch.cfg"),
                     "--out", str(tmp_path / "m.ckpt"), "--seed", "3", "--folds", "3"]) == 2
        assert named in capsys.readouterr().err
        assert not (tmp_path / "m.ckpt").exists()


class TestEvaluate:
    def test_json_schema(self, workspace, tmp_path):
        root, data = workspace
        out = tmp_path / "eval.json"
        assert main(["evaluate", "--model", str(root / "model.ckpt"),
                     "--data", str(data), "--folds", "3", "--out", str(out)]) == 0
        payload = json.loads(out.read_text())
        expect_keys = {"accuracy", "mf1", "sensitivity", "specificity", "confusion"}
        assert set(payload["aggregate"]) == expect_keys
        for fold_report in payload["folds"].values():
            assert set(fold_report) == expect_keys
        conf = np.array(payload["aggregate"]["confusion"])
        assert conf.sum() == 3 * 24

    def test_paired_comparison_prints_delta(self, workspace, tmp_path, capsys):
        root, data = workspace
        out = tmp_path / "cmp.json"
        assert main(["evaluate", "--model", str(root / "model.ckpt"),
                     "--data", str(data), "--folds", "3",
                     "--compare", str(root / "model.mnq"), "--out", str(out)]) == 0
        printed = capsys.readouterr().out
        assert "delta" in printed
        payload = json.loads(out.read_text())
        assert "accuracy_delta" in payload
        assert set(payload["compare"]) == {"accuracy", "mf1", "sensitivity",
                                           "specificity", "confusion"}

    def test_perfect_oracle_fixture(self, tmp_path):
        """A model-free sanity check of the metric path: labels as predictions."""
        from morpheusnet.metrics import evaluate_metrics

        labels = np.tile(np.arange(5), 8)
        report = evaluate_metrics(labels, labels)
        assert (report.accuracy, report.macro_f1,
                report.sensitivity, report.specificity) == (1.0, 1.0, 1.0, 1.0)


class TestInfer:
    def test_stream_lines(self, workspace, tmp_path, capsys):
        root, data = workspace
        epochs, _ = read_epochs(sorted(data.glob("*.epo"))[0])
        stream = tmp_path / "stream.f32"
        stream.write_bytes(epochs[:5].astype("<f4").tobytes())
        assert main(["infer", "--model", str(root / "model.mnq"),
                     "--stream", str(stream)]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 5
        for i, line in enumerate(lines):
            idx, stage, probs = line.split("\t")
            assert int(idx) == i
            assert stage in STAGES
            values = [float(p) for p in probs.split(" ")]
            assert len(values) == 5
            assert abs(sum(values) - 1.0) < 1e-4

    def test_truncated_chunk_preserves_prior_output(self, workspace, tmp_path, capsys):
        root, data = workspace
        epochs, _ = read_epochs(sorted(data.glob("*.epo"))[0])
        stream = tmp_path / "bad.f32"
        stream.write_bytes(epochs[:2].astype("<f4").tobytes() + b"\x00" * 100)
        assert main(["infer", "--model", str(root / "model.mnq"),
                     "--stream", str(stream)]) == 2
        captured = capsys.readouterr()
        assert len(captured.out.strip().splitlines()) == 2  # prior epochs emitted
        assert "epoch 2" in captured.err

    def test_non_finite_epoch_exits_2_naming_it(self, workspace, tmp_path, capsys):
        root, data = workspace
        epochs, _ = read_epochs(sorted(data.glob("*.epo"))[0])
        chunk = epochs[:3].astype("<f4")
        chunk[2, 0, 10] = np.nan
        stream = tmp_path / "nan.f32"
        stream.write_bytes(chunk.tobytes())
        assert main(["infer", "--model", str(root / "model.mnq"),
                     "--stream", str(stream)]) == 2
        captured = capsys.readouterr()
        assert len(captured.out.strip().splitlines()) == 2
        assert "epoch 2:" in captured.err
        assert "non-finite" in captured.err


class TestBench:
    def test_report_schema(self, workspace, capsys):
        root, _ = workspace
        assert main(["bench", "--model", str(root / "model.mnq"),
                     "--runs", "5"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert set(payload) == {"macs_total", "macs_per_layer", "peak_arena_bytes",
                                "model_bytes", "latency_ms_median", "latency_ms_p95"}
        assert payload["model_bytes"] == (root / "model.mnq").stat().st_size
