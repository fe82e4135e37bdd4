"""Command-line front end for the whole pipeline.

Subcommands: synth, search, train, quantize, compile, evaluate, infer, bench.
Exit codes: 0 on success, 2 for usage or input problems, 3 for numerical
failures during optimization.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from . import checkpoint, nas
from .engine import InferenceEngine
from .flatmodel import compile_flat_model, load_flat_model
from .manifest import RunManifest
from .metrics import EvalReport, confusion_matrix, report_from_confusion
from .model import STAGES, MorpheusConfig, build_morpheus, key_value_lines
from .pipeline import SplitPlan, kfold_split, read_epochs, write_epochs
from .quantize import (
    QuantizationPlan,
    calibrate_ranges,
    default_plan,
    exclusion_plan,
    finetune_sequence_on_quantized,
    fold_cnn,
    qat_finetune_cnn,
    validate_plan,
)
from .streaming import predict_stream
from .synthetic import synth_dataset
from .tensor import AdamState
from .training import (
    NumericalError,
    TrainConfig,
    make_sequence_dataset,
    train_cnn,
    train_sequence_learner,
    write_history_csv,
)


class InputError(Exception):
    """User-facing input problem; exits with status 2."""


# ---------------------------------------------------------------------------
# shared data helpers


def _load_subjects(data_dir: Path) -> dict[str, tuple[np.ndarray, np.ndarray]]:
    if not data_dir.is_dir():
        raise InputError(f"data directory not found: {data_dir}")
    subjects = {}
    for path in sorted(data_dir.glob("*.epo")):
        subjects[path.stem] = read_epochs(path)
    if not subjects:
        raise InputError(f"no .epo files in {data_dir}")
    return subjects


def _load_split(data_dir: Path, subjects, folds: int, seed: int) -> SplitPlan:
    split_path = data_dir / "splits.tsv"
    if split_path.exists():
        plan = SplitPlan.from_text(split_path.read_text())
        if set(plan.assignments) == set(subjects) and plan.k == folds:
            return plan
    return kfold_split(sorted(subjects), folds, seed)


def _fold_sets(subjects, plan: SplitPlan, test_fold=0, val_fold=1):
    def gather(names):
        xs = [subjects[n][0] for n in names]
        ys = [subjects[n][1] for n in names]
        return np.concatenate(xs), np.concatenate(ys)

    test_names = plan.fold_subjects(test_fold)
    val_names = plan.fold_subjects(val_fold)
    train_names = [s for s in sorted(subjects)
                   if s not in set(test_names) | set(val_names)]
    if not train_names:
        raise InputError("no training subjects left after holding out val and test folds")
    return (gather(train_names), gather(val_names), gather(test_names),
            train_names, val_names, test_names)


# ---------------------------------------------------------------------------
# synth


def cmd_synth(args) -> int:
    if args.subjects < 1 or args.epochs < 1:
        raise InputError("--subjects and --epochs must be positive")
    out = Path(args.out)
    try:
        out.mkdir(parents=True, exist_ok=True)
        probe = out / ".write_probe"
        probe.write_bytes(b"")
        probe.unlink()
    except OSError as exc:
        raise InputError(f"output directory not writable: {exc}") from exc
    manifest = RunManifest("synth", seed=args.seed)
    subjects = synth_dataset(args.subjects, args.epochs, args.seed)
    for subject in subjects:
        path = out / f"{subject.subject_id}.epo"
        write_epochs(path, subject.epochs, subject.stages)
        manifest.add_output(path)
    folds = min(args.folds, len(subjects))
    plan = kfold_split([s.subject_id for s in subjects], folds, args.seed)
    (out / "splits.tsv").write_text(plan.to_text())
    manifest.add_output(out / "splits.tsv")
    manifest.write(out / "dataset")
    print(f"wrote {len(subjects)} subjects x {args.epochs} epochs to {out}")
    return 0


# ---------------------------------------------------------------------------
# search


DESK_SEARCH_CONFIG = {
    "steps": 250,
    "batch_size": 8,
    "alpha_lr": 0.001,
    "theta_lr": 0.001,
    "seed": 0,
    "pool_window": 4,
    "kinds": "normal_conv,separable_conv",
    "kernels": "8,16",
    "filters": "8,16",
    "layout": "conv,conv,reduce,conv,conv,reduce",
}


def _parse_search_config(text: str) -> nas.SearchConfig:
    values = dict(DESK_SEARCH_CONFIG)
    for lineno, key, value in key_value_lines(text, "search config line"):
        if key not in values:
            raise InputError(f"search config line {lineno}: unknown key {key!r}")
        values[key] = value
    kinds = str(values["kinds"]).split(",")
    kernels = [int(v) for v in str(values["kernels"]).split(",")]
    filters = [int(v) for v in str(values["filters"]).split(",")]
    grid = tuple((kd, kk, ff) for kd in kinds for kk in kernels for ff in filters)
    return nas.SearchConfig(
        conv_grid=grid,
        pool_window=int(values["pool_window"]),
        cell_layout=tuple(str(values["layout"]).split(",")),
        alpha_lr=float(values["alpha_lr"]),
        theta_lr=float(values["theta_lr"]),
        steps=int(values["steps"]),
        batch_size=int(values["batch_size"]),
        seed=int(values["seed"]),
    )


def cmd_search(args) -> int:
    subjects = _load_subjects(Path(args.data))
    x = np.concatenate([subjects[s][0] for s in sorted(subjects)])
    y = np.concatenate([subjects[s][1] for s in sorted(subjects)])
    if args.config and not Path(args.config).exists():
        raise InputError(f"search config not found: {args.config}")
    config = _parse_search_config(Path(args.config).read_text() if args.config else "")

    net = nas.build_search_network(config, input_len=x.shape[2])
    opt_alpha = AdamState(lr=config.alpha_lr)
    opt_theta = AdamState(lr=config.theta_lr)
    rng = np.random.default_rng(config.seed)
    alpha_log = []
    for step in range(config.steps):
        idx = rng.integers(0, len(x), config.batch_size)
        loss = nas.search_step(net, (x[idx], y[idx]), opt_alpha, opt_theta)
        alpha_log.append((step, [cell.alpha.data.copy() for cell in net.cells]))
        if step % 25 == 0 or step == config.steps - 1:
            print(f"step {step}: loss {loss:.4f}")

    choices = nas.finalize_architecture(net)
    exported = nas.export_config(choices, input_len=x.shape[2])
    out = Path(args.out)
    lines = [exported.to_text().rstrip()]
    for i, cell in enumerate(net.cells):
        alphas = " ".join(f"{a:.6f}" for a in cell.alpha.data)
        lines.append(f"# cell{i}.alpha = {alphas}")
    for i, desc in choices:
        lines.append(f"# cell{i}.choice = {desc['kind']} kernel={desc['kernel']}"
                     f" filters={desc['filters']}")
    out.write_text("\n".join(lines) + "\n")

    log_path = Path(str(out) + ".alpha_log.tsv")
    with open(log_path, "w") as fh:
        fh.write("step\tcell\talphas\n")
        for step, cells in alpha_log:
            for ci, alphas in enumerate(cells):
                fh.write(f"{step}\t{ci}\t" + " ".join(f"{a:.6f}" for a in alphas) + "\n")

    manifest = RunManifest("search", seed=config.seed, config_path=args.config)
    for path in sorted(Path(args.data).glob("*.epo")):
        manifest.add_input(path)
    manifest.add_output(out)
    manifest.add_output(log_path)
    manifest.write(out)
    print(f"wrote architecture to {out} ({len(choices)} cell choices)")
    return 0


# ---------------------------------------------------------------------------
# train


def cmd_train(args) -> int:
    subjects = _load_subjects(Path(args.data))
    arch_path = Path(args.arch)
    if not arch_path.exists():
        raise InputError(f"architecture config not found: {arch_path}")
    config = MorpheusConfig.from_text(arch_path.read_text())
    plan = _load_split(Path(args.data), subjects, args.folds, args.seed)
    (train_set, val_set, test_set,
     train_names, val_names, test_names) = _fold_sets(subjects, plan)

    model = build_morpheus(config, seed=args.seed)
    tcfg = TrainConfig(seed=args.seed)
    print(f"training CNN on {len(train_set[0])} epochs "
          f"(subjects {','.join(train_names)})")
    model, cnn_history = train_cnn(model, train_set, val_set, tcfg)
    print(f"CNN validation accuracy: {max(h.val_accuracy for h in cnn_history):.4f}")

    seq_train = make_sequence_dataset(model, [subjects[s] for s in train_names])
    seq_val = make_sequence_dataset(model, [subjects[s] for s in val_names])
    model, seq_history = train_sequence_learner(model, seq_train, seq_val, tcfg)
    print(f"sequence validation accuracy: {max(h.val_accuracy for h in seq_history):.4f}")

    out = Path(args.out)
    checkpoint.save_model(out, model)
    write_history_csv(Path(str(out) + ".cnn_history.csv"), cnn_history)
    write_history_csv(Path(str(out) + ".seq_history.csv"), seq_history)

    manifest = RunManifest("train", seed=args.seed, config_path=str(arch_path),
                           extra={"train_subjects": train_names,
                                  "val_subjects": val_names,
                                  "test_subjects": test_names})
    manifest.add_input(arch_path)
    for path in sorted(Path(args.data).glob("*.epo")):
        manifest.add_input(path)
    manifest.add_output(out)
    manifest.write(out)
    print(f"wrote checkpoint to {out}")
    return 0


# ---------------------------------------------------------------------------
# quantize


def cmd_quantize(args) -> int:
    model_path = Path(args.model)
    if not model_path.exists():
        raise InputError(f"checkpoint not found: {model_path}")
    subjects = _load_subjects(Path(args.data))
    plan_split = _load_split(Path(args.data), subjects, args.folds, args.seed)
    (train_set, val_set, _test, train_names, val_names, _t) = _fold_sets(
        subjects, plan_split)

    model = checkpoint.load_model(model_path)
    icnn = fold_cnn(model)
    if args.plan:
        plan_path = Path(args.plan)
        if not plan_path.exists():
            raise InputError(f"quantization plan not found: {plan_path}")
        plan = QuantizationPlan.from_text(plan_path.read_text())
    elif args.exclude_start_identity:
        plan = exclusion_plan(icnn)
    else:
        plan = default_plan(icnn)
    try:
        validate_plan(plan, icnn)
    except ValueError as exc:
        raise InputError(str(exc)) from exc

    rng = np.random.default_rng(args.seed)
    n_calib = min(plan.calibration_samples, len(train_set[0]))
    calib_idx = rng.choice(len(train_set[0]), size=n_calib, replace=False)
    calibration = calibrate_ranges(icnn, train_set[0][calib_idx])
    qcnn, losses = qat_finetune_cnn(icnn, plan, calibration, train_set, val_set,
                                    seed=args.seed)
    print("fine-tuning losses: " + " ".join(f"{l:.4f}" for l in losses))

    model, seq_record = finetune_sequence_on_quantized(
        model, qcnn,
        [subjects[s] for s in train_names],
        [subjects[s] for s in val_names],
        seed=args.seed,
    )

    out = Path(args.out)
    checkpoint.save_quantized(out, qcnn, model)
    report_path = Path(str(out) + ".calibration.csv")
    with open(report_path, "w") as fh:
        fh.write("layer,min,max,scale,zero_point\n")
        for name, lo, hi, scale, zp in calibration.report_rows():
            fh.write(f"{name},{lo!r},{hi!r},{scale!r},{zp}\n")

    manifest = RunManifest(
        "quantize", seed=args.seed, config_path=args.plan,
        extra={
            "plan": {k: ("quantize" if v else "keep_float") for k, v in plan.flags.items()},
            "excluded_layers": sorted(k for k, v in plan.flags.items() if not v),
            "calibration_samples": int(n_calib),
            "sequence_finetune": seq_record,
        })
    manifest.add_input(model_path)
    manifest.add_output(out)
    manifest.add_output(report_path)
    manifest.write(out)
    print(f"wrote quantized checkpoint to {out}")
    return 0


# ---------------------------------------------------------------------------
# compile


def cmd_compile(args) -> int:
    model_path = Path(args.model)
    if not model_path.exists():
        raise InputError(f"quantized checkpoint not found: {model_path}")
    qcnn, model = checkpoint.load_quantized(model_path)
    blob = compile_flat_model(qcnn, model.seq)
    out = Path(args.out)
    out.write_bytes(blob)
    manifest = RunManifest("compile", extra={"model_bytes": len(blob)})
    manifest.add_input(model_path)
    manifest.add_output(out)
    manifest.write(out)
    print(f"wrote flat model to {out} ({len(blob)} bytes)")
    return 0


# ---------------------------------------------------------------------------
# evaluate


def _predict_subject(model_or_engine, epochs: np.ndarray) -> np.ndarray:
    if isinstance(model_or_engine, InferenceEngine):
        model_or_engine.reset_stream()
        return np.array([model_or_engine.infer_epoch(e)[0] for e in epochs])
    return np.array([s for s, _ in predict_stream(model_or_engine, epochs)])


def _load_any_model(path: Path):
    if path.suffix == ".mnq":
        return InferenceEngine(load_flat_model(path.read_bytes()))
    return checkpoint.load_model(path)


def _evaluate_model(predictor, subjects, plan: SplitPlan):
    fold_reports: dict[int, EvalReport] = {}
    total_conf = np.zeros((5, 5), dtype=np.int64)
    for fold in range(plan.k):
        conf = np.zeros((5, 5), dtype=np.int64)
        for name in plan.fold_subjects(fold):
            epochs, labels = subjects[name]
            preds = _predict_subject(predictor, epochs)
            conf += confusion_matrix(preds, labels)
        if conf.sum():
            fold_reports[fold] = report_from_confusion(conf)
        total_conf += conf
    return fold_reports, report_from_confusion(total_conf)


def _metrics_row(tag: str, r: EvalReport) -> str:
    return (f"{tag:>10}  {r.accuracy:8.4f}  {r.macro_f1:8.4f}  "
            f"{r.sensitivity:11.4f}  {r.specificity:11.4f}")


def cmd_evaluate(args) -> int:
    model_path = Path(args.model)
    if not model_path.exists():
        raise InputError(f"model not found: {model_path}")
    subjects = _load_subjects(Path(args.data))
    if args.folds > len(subjects):
        raise InputError(f"--folds {args.folds} exceeds the {len(subjects)} subjects")
    plan = _load_split(Path(args.data), subjects, args.folds, args.seed)

    predictor = _load_any_model(model_path)
    fold_reports, aggregate = _evaluate_model(predictor, subjects, plan)

    header = f"{'fold':>10}  {'accuracy':>8}  {'mf1':>8}  {'sensitivity':>11}  {'specificity':>11}"
    print(header)
    print("-" * len(header))
    for fold in sorted(fold_reports):
        print(_metrics_row(str(fold), fold_reports[fold]))
    print(_metrics_row("all", aggregate))

    payload = {
        "folds": {str(f): r.to_json_dict() for f, r in fold_reports.items()},
        "aggregate": aggregate.to_json_dict(),
    }
    if args.compare:
        other = _load_any_model(Path(args.compare))
        _, other_aggregate = _evaluate_model(other, subjects, plan)
        delta = other_aggregate.accuracy - aggregate.accuracy
        print(_metrics_row("compare", other_aggregate))
        print(f"{'delta':>10}  {delta:+8.4f}")
        payload["compare"] = other_aggregate.to_json_dict()
        payload["accuracy_delta"] = delta

    out = Path(args.out) if args.out else Path(str(model_path) + ".eval.json")
    out.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"wrote metrics to {out}")
    return 0


# ---------------------------------------------------------------------------
# infer / bench


def cmd_infer(args) -> int:
    model_path = Path(args.model)
    if not model_path.exists():
        raise InputError(f"flat model not found: {model_path}")
    engine = InferenceEngine(load_flat_model(model_path.read_bytes()))
    length = engine.spec.config_input_len
    chunk_bytes = length * 4

    if args.stream == "-":
        source = sys.stdin.buffer
        close = False
    else:
        stream_path = Path(args.stream)
        if not stream_path.exists():
            raise InputError(f"stream file not found: {stream_path}")
        source = open(stream_path, "rb")
        close = True
    try:
        index = 0
        while True:
            chunk = source.read(chunk_bytes)
            if not chunk:
                break
            if len(chunk) != chunk_bytes:
                raise InputError(
                    f"epoch {index}: truncated chunk of {len(chunk)} bytes "
                    f"(expected {chunk_bytes})"
                )
            epoch = np.frombuffer(chunk, dtype="<f4").reshape(1, length)
            try:
                stage, probs = engine.infer_epoch(epoch)
            except ValueError as exc:
                raise InputError(f"epoch {index}: {exc}") from exc
            probs_txt = " ".join(f"{p:.6f}" for p in probs)
            print(f"{index}\t{STAGES[stage]}\t{probs_txt}", flush=True)
            index += 1
    finally:
        if close:
            source.close()
    return 0


def cmd_bench(args) -> int:
    model_path = Path(args.model)
    if not model_path.exists():
        raise InputError(f"flat model not found: {model_path}")
    if args.runs < 1:
        raise InputError("--runs must be positive")
    engine = InferenceEngine(load_flat_model(model_path.read_bytes()),
                             model_bytes=model_path.stat().st_size)
    rng = np.random.default_rng(args.seed)
    samples = rng.normal(0, 1, (8, 1, engine.spec.config_input_len)).astype(np.float32)
    report = engine.profile(samples, runs=args.runs)
    print(report.to_json())
    return 0


# ---------------------------------------------------------------------------
# argument wiring


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="morpheusnet",
        description="Sleep-stage pipeline: synthesize data, search, train, "
                    "quantize, compile, evaluate, infer, benchmark.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic labeled dataset")
    p.add_argument("--subjects", type=int, required=True)
    p.add_argument("--epochs", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.add_argument("--folds", type=int, default=5)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("search", help="run the architecture search")
    p.add_argument("--data", required=True)
    p.add_argument("--config", default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_search)

    p = sub.add_parser("train", help="two-phase training from an architecture config")
    p.add_argument("--data", required=True)
    p.add_argument("--arch", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--folds", type=int, default=5)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("quantize", help="calibrate, fine-tune, and freeze to int8")
    p.add_argument("--model", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--plan", default=None)
    p.add_argument("--exclude-start-identity", action="store_true",
                   help="built-in plan keeping start and identity blocks in float")
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--folds", type=int, default=5)
    p.set_defaults(func=cmd_quantize)

    p = sub.add_parser("compile", help="lower a quantized checkpoint to a flat model")
    p.add_argument("--model", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_compile)

    p = sub.add_parser("evaluate", help="per-fold metrics for a checkpoint or flat model")
    p.add_argument("--model", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--folds", type=int, default=5)
    p.add_argument("--compare", default=None,
                   help="second model for a paired accuracy comparison")
    p.add_argument("--out", default=None)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("infer", help="stream epochs (float32 LE chunks) to predictions")
    p.add_argument("--model", required=True)
    p.add_argument("--stream", required=True, help="file path or '-' for stdin")
    p.set_defaults(func=cmd_infer)

    p = sub.add_parser("bench", help="latency and MAC profile of a flat model")
    p.add_argument("--model", required=True)
    p.add_argument("--runs", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_bench)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (FileNotFoundError, PermissionError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
