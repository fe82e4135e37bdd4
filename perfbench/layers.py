"""Per-layer metrics of the traced run, and the end-to-end metric each should move.

Layers are morpheusnet's modules. ``cli``, ``manifest`` and ``metrics`` are
thin and are not measured on their own; their time counts as ``other``.
Unless a row says otherwise, a time is the mean per call of the named span.
A layer a workload does not run reads 0 there.
"""

from __future__ import annotations

from morpheusnet import (
    checkpoint,
    edf,
    flatmodel,
    model as mmodel,
    nas,
    ops,
    pipeline,
    quantize,
    streaming,
    synthetic,
    training,
)

from .tracing import Tracer, module_shares, summarize, within

MODULES = ("checkpoint", "edf", "engine", "flatmodel", "model", "nas", "ops", "pipeline",
           "quantize", "streaming", "synthetic", "tensor", "training")
OPS = ("conv1d", "separable_conv1d", "batchnorm1d", "pool1d", "dense", "lstm_sequence",
       "softmax")
# wrapped so their time counts for ops, but not reported on their own
UNREPORTED_OPS = ("relu", "dropout", "softmax_cross_entropy")

# name: (unit, better, end-to-end metric it should move, on which workloads)
LAYER_MAP: dict[str, tuple[str, str, str, str]] = {
    "engine.quantize_input_us": ("us", "lower", "epochs_per_s, epoch_ms_*", "stream"),
    "engine.cnn_ms": ("ms", "lower", "epochs_per_s, epoch_ms_*", "stream"),
    "engine.seq_ms": ("ms", "lower", "epochs_per_s, epoch_ms_*", "stream"),
    "engine.cnn_gmac_per_s": ("GMAC/s", "higher", "epochs_per_s, epoch_ms_*", "stream"),
    "engine.macs_per_epoch": ("count", "lower", "epochs_per_s, epoch_ms_*", "stream"),
    "engine.mixed_cnn_ms": ("ms", "lower", "epochs_per_s, mixed_epoch_ms_*", "stream"),
    "engine.mixed_seq_ms": ("ms", "lower", "epochs_per_s, mixed_epoch_ms_*", "stream"),
    "arena.peak_bytes": ("bytes", "lower", "none (static-memory guard)", "stream"),
    "arena.plan_peak_live_bytes": ("bytes", "lower", "none (static-memory guard)", "stream"),
    "arena.plan_total_bytes": ("bytes", "lower", "none (static-memory guard)", "stream"),
    "arena.acquisitions_in_inference": ("count", "lower", "none (must be 0)", "stream"),
    "synthetic.synth_s": ("s", "lower", "setup_s", "all"),
    "training.train_cnn_s": ("s", "lower", "setup_s", "stream score"),
    "quantize.calibrate_s": ("s", "lower", "setup_s", "stream"),
    "quantize.freeze_s": ("s", "lower", "setup_s", "stream"),
    "flatmodel.compile_ms": ("ms", "lower", "setup_s", "stream"),
    "flatmodel.load_ms": ("ms", "lower", "setup_s", "stream"),
    "checkpoint.load_ms": ("ms", "lower", "setup_s", "score"),
    "flatmodel.model_bytes": ("bytes", "lower", "setup_s", "stream"),
    "edf.parse_ms": ("ms", "lower", "epochs_per_s", "score ingest"),
    "edf.annotations_ms": ("ms", "lower", "epochs_per_s", "score ingest"),
    "edf.physical_ms": ("ms", "lower", "epochs_per_s", "score ingest"),
    "pipeline.preprocess_ms": ("ms", "lower", "epochs_per_s", "score ingest"),
    "pipeline.resample_ms": ("ms", "lower", "epochs_per_s", "ingest (about 0 on score)"),
    "pipeline.resample_msamples_per_s": ("Msample/s", "higher", "epochs_per_s", "ingest"),
    "pipeline.write_epochs_ms": ("ms", "lower", "epochs_per_s", "ingest"),
    "pipeline.read_epochs_ms": ("ms", "lower", "epochs_per_s", "ingest"),
    "streaming.push_ms": ("ms", "lower", "epochs_per_s", "score"),
    "model.cnn_logits_ms": ("ms", "lower", "epochs_per_s", "score"),
    "model.seq_probs_ms": ("ms", "lower", "epochs_per_s", "score"),
    "training.cnn_step_ms": ("ms", "lower", "epochs_per_s", "train"),
    "model.cnn_fwd_ms": ("ms", "lower", "epochs_per_s", "train"),
    "model.cnn_bwd_ms": ("ms", "lower", "epochs_per_s", "train"),
    "tensor.adam_ms": ("ms", "lower", "epochs_per_s", "train"),
    "training.val_ms": ("ms", "lower", "epochs_per_s", "train"),
    "training.seq_dataset_ms": ("ms", "lower", "epochs_per_s", "train"),
    "training.seq_step_ms": ("ms", "lower", "epochs_per_s", "train"),
    "quantize.qat_step_ms": ("ms", "lower", "epochs_per_s", "train"),
    "nas.search_step_ms": ("ms", "lower", "epochs_per_s", "train"),
}
for _op in OPS:
    LAYER_MAP[f"ops.{_op}.fwd_ms"] = ("ms", "lower", "epochs_per_s", "score train")
    LAYER_MAP[f"ops.{_op}.calls"] = ("count/op", "lower", "epochs_per_s", "score train")
    LAYER_MAP[f"ops.{_op}.bwd_ms"] = ("ms", "lower", "epochs_per_s", "train")
for _module in MODULES:
    LAYER_MAP[f"{_module}.self_share"] = ("fraction", "lower", "all", "all")
LAYER_MAP["trace.other_share"] = ("fraction", "lower", "none (unaccounted time)", "all")
LAYER_MAP["trace.wall_s"] = ("s", "lower", "none (traced wall time)", "all")
LAYER_MAP["trace.overhead_s"] = ("s", "lower", "none (traced minus untraced)", "all")

# spans the setup is traced with; each setup metric is the total per setup
SETUP_SPANS = {
    "synthetic.synth_s": ("synthetic.synth_dataset", 1.0),
    "training.train_cnn_s": ("training.train_cnn", 1.0),
    "quantize.calibrate_s": ("quantize.calibrate_ranges", 1.0),
    "quantize.freeze_s": ("quantize.freeze_quantized", 1.0),
    "flatmodel.compile_ms": ("flatmodel.compile_flat_model", 1000.0),
    "flatmodel.load_ms": ("flatmodel.load_flat_model", 1000.0),
    "checkpoint.load_ms": ("checkpoint.load_model", 1000.0),
}

# spans of the measured phase, reported in milliseconds per call
CALL_SPANS = {
    "edf.parse_ms": "edf.parse_edf",
    "edf.annotations_ms": "edf.annotations",
    "edf.physical_ms": "edf.physical",
    "pipeline.preprocess_ms": "pipeline.preprocess",
    "pipeline.resample_ms": "pipeline.resample",
    "pipeline.write_epochs_ms": "pipeline.write_epochs",
    "pipeline.read_epochs_ms": "pipeline.read_epochs",
    "streaming.push_ms": "streaming.push",
    "model.cnn_logits_ms": "model.cnn_logits",
    "model.seq_probs_ms": "model.seq_probs",
    "model.cnn_fwd_ms": "model.cnn_fwd",
    "model.cnn_bwd_ms": "model.cnn_bwd",
    "training.val_ms": "training.cnn_accuracy",
    "training.seq_dataset_ms": "training.make_sequence_dataset",
    "nas.search_step_ms": "nas.search_step",
}

# optimizer-step phases: (whole phase, its non-step part) per step
STEP_SPANS = {
    "training.cnn_step_ms": ("training.train_cnn", "training.cnn_accuracy"),
    "training.seq_step_ms": ("training.train_sequence_learner", "training.seq_accuracy"),
    "quantize.qat_step_ms": ("quantize.qat_finetune_cnn", "quantize.freeze_quantized"),
}

ADAM = "tensor.adam_step"


def instrument_modules(tracer: Tracer) -> None:
    """Wrap the module-level callables every workload reaches."""
    for op in OPS + UNREPORTED_OPS:
        tracer.patch(ops, op, f"ops.{op}", backward=f"ops.{op}.bwd")
    for module, names in (
        (synthetic, ("synth_dataset",)),
        (mmodel, ("build_morpheus",)),
        (training, ("train_cnn", "train_sequence_learner", "make_sequence_dataset",
                    "cnn_accuracy", "seq_accuracy")),
        (quantize, ("fold_cnn", "calibrate_ranges", "freeze_quantized", "qat_finetune_cnn")),
        (nas, ("search_step", "build_search_network")),
        (flatmodel, ("compile_flat_model", "load_flat_model")),
        (checkpoint, ("save_model", "load_model")),
        (pipeline, ("recording_from_edf", "resample", "preprocess", "write_epochs",
                    "read_epochs")),
        (edf, ("hypnogram_from_annotations", "write_edf")),
    ):
        for name in names:
            tracer.patch(module, name, f"{module.__name__.rsplit('.', 1)[1]}.{name}")
    # each module that steps an optimizer imported adam_step by name
    for module in (training, quantize, nas):
        tracer.patch(module, "adam_step", ADAM)

    parse = edf.parse_edf

    def parse_and_wrap(data):
        parsed = parse(data)
        parsed.annotations = tracer.wrap("edf.annotations", parsed.annotations)
        parsed.physical = tracer.wrap("edf.physical", parsed.physical)
        return parsed

    predictor_class = streaming.StreamPredictor

    def predictor(model):
        made = predictor_class(model)
        made.push = tracer.wrap("streaming.push", made.push)
        return made

    tracer.replace(edf, "parse_edf", tracer.wrap("edf.parse_edf", parse_and_wrap))
    tracer.replace(streaming, "StreamPredictor", predictor)


def instrument_model(tracer: Tracer, model) -> None:
    """Wrap a model's forward passes on the instance, split by whether grads are wanted."""
    infer = tracer.wrap("model.cnn_logits", model.cnn_logits)
    grads = tracer.wrap("model.cnn_fwd", model.cnn_logits, backward="model.cnn_bwd")
    tracer.replace(model, "cnn_logits",
                   lambda x, mode="infer", want_grads=False:
                   (grads if want_grads else infer)(x, mode, want_grads))
    tracer.patch(model.seq, "probs", "model.seq_probs")
    tracer.patch(model.seq, "logits", "model.seq_logits", backward="model.seq_bwd")


def per_call(table, span: str, key: str = "total_s") -> float:
    """Mean seconds per call of ``span`` (inclusive, or ``self_s``); 0 if it never ran."""
    row = table.get(span)
    return row[key] / row["calls"] if row else 0.0


def _step_time(spans) -> dict[str, tuple[float, int]]:
    """Per optimizer-step phase: seconds spent stepping and the number of steps."""
    out = {}
    for name, (phase, aside) in STEP_SPANS.items():
        inside = within(spans, phase)
        steps = sum(1 for s, i in zip(spans, inside) if i and s[0] == ADAM)
        busy = sum(s[2] - s[1] for s in spans if s[0] == phase)
        busy -= sum(s[2] - s[1] for s in spans
                    if s[0] == aside and s[3] >= 0 and spans[s[3]][0] == phase)
        out[name] = (busy, steps)
    return out


def layer_metrics(setup_spans, spans, wall_s: float, overhead_s: float,
                  operations: int, extras: dict) -> dict[str, float]:
    """Every ``LAYER_MAP`` metric from the setup spans and the measured spans."""
    setup = summarize(setup_spans)
    table = summarize(spans)
    out = {name: 0.0 for name in LAYER_MAP}
    for name, (span, scale) in SETUP_SPANS.items():
        out[name] = scale * setup.get(span, {}).get("total_s", 0.0)
    for name, span in CALL_SPANS.items():
        out[name] = 1000.0 * per_call(table, span)
    for name, (busy, steps) in _step_time(spans).items():
        out[name] = 1000.0 * busy / steps if steps else 0.0
    in_cnn = within(spans, "training.train_cnn")
    adam = [s[2] - s[1] for s, i in zip(spans, in_cnn) if i and s[0] == ADAM]
    out["tensor.adam_ms"] = 1000.0 * sum(adam) / len(adam) if adam else 0.0

    for op in OPS:
        out[f"ops.{op}.fwd_ms"] = 1000.0 * per_call(table, f"ops.{op}", "self_s")
        out[f"ops.{op}.bwd_ms"] = 1000.0 * per_call(table, f"ops.{op}.bwd", "self_s")
        out[f"ops.{op}.calls"] = table.get(f"ops.{op}", {}).get("calls", 0) / operations

    shares = module_shares(spans, wall_s)
    for module in MODULES:
        out[f"{module}.self_share"] = shares.get(module, 0.0)
    out["trace.other_share"] = shares["other"]
    out["trace.wall_s"] = wall_s
    out["trace.overhead_s"] = overhead_s
    out.update(extras)
    return out


def design_shares(spans, wall_s: float) -> dict[str, float]:
    """The shares that confirm each workload stresses the layer it was chosen for."""
    table = summarize(spans)

    def total(name):
        return table.get(name, {}).get("total_s", 0.0)

    stepping = sum(busy for busy, _ in _step_time(spans).values()) + total("nas.search_step")
    return {
        "stream: engine.cnn of engine.infer_epoch":
            total("engine.cnn") / total("engine.infer_epoch") if total("engine.infer_epoch")
            else 0.0,
        "score: streaming.push of wall": total("streaming.push") / wall_s,
        "score/ingest: pipeline.resample of wall": total("pipeline.resample") / wall_s,
        "train: optimizer steps of wall": stepping / wall_s,
    }
