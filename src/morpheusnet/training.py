"""Two-phase training: CNN feature learning, then sequence learning on its outputs."""

from __future__ import annotations

import csv
from dataclasses import dataclass, field

import numpy as np

from . import ops
from .model import NUM_STAGES, MorpheusModel
from .tensor import AdamState, adam_step


class NumericalError(RuntimeError):
    """Training produced a non-finite loss."""


@dataclass
class PhaseConfig:
    lr: float
    batch_size: int
    epochs: int


@dataclass
class TrainConfig:
    # at 1e-4 the sequence learner needs well over ten epochs to converge;
    # its epochs are cheap (seconds), so the default phase runs 40
    cnn: PhaseConfig = field(default_factory=lambda: PhaseConfig(0.001, 128, 10))
    seq: PhaseConfig = field(default_factory=lambda: PhaseConfig(0.0001, 32, 40))
    beta1: float = 0.9
    beta2: float = 0.999
    seed: int = 0
    shuffle: bool = True


@dataclass
class HistoryRow:
    epoch: int
    train_loss: float
    val_accuracy: float


def write_history_csv(path, rows: list[HistoryRow]) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["epoch", "train_loss", "val_accuracy"])
        for row in rows:
            writer.writerow([row.epoch, f"{row.train_loss:.6f}", f"{row.val_accuracy:.6f}"])


def _check_dataset(name, x, y):
    x = np.asarray(x)
    y = np.asarray(y)
    if len(x) == 0 or len(y) == 0:
        raise ValueError(f"{name} set is empty")
    if len(x) != len(y):
        raise ValueError(f"{name} inputs and labels differ in length")
    return x, y


def _snapshot(tensors):
    return [t.data.copy() for t in tensors]


def _restore(tensors, snap):
    for t, s in zip(tensors, snap):
        t.data[:] = s


def cnn_accuracy(model: MorpheusModel, x, y, batch_size=256) -> float:
    probs = model.cnn_probs(x, mode="infer", batch_size=batch_size)
    return float((probs.argmax(axis=1) == np.asarray(y)).mean())


def train_cnn(model: MorpheusModel, train_set, val_set, config: TrainConfig):
    """Train the CNN with shuffled mini-batches and keep the best-on-validation weights.

    ``train_set``/``val_set`` are ``(epochs [N,1,L] float32, labels [N] int)``
    pairs over disjoint subjects. Returns ``(model, history)`` with the model
    restored to the epoch of highest validation accuracy.
    """
    x_train, y_train = _check_dataset("train", *train_set)
    x_val, y_val = _check_dataset("validation", *val_set)
    phase = config.cnn
    rng = np.random.default_rng(config.seed)
    params = model.cnn_parameters()
    opt = AdamState(lr=phase.lr, beta1=config.beta1, beta2=config.beta2)

    # snapshot includes batchnorm running stats so restore is exact
    tracked = params + [t for _, t in model.named_buffers()]
    best_snap = _snapshot(tracked)
    best_acc = -1.0
    history: list[HistoryRow] = []

    for epoch in range(1, phase.epochs + 1):
        order = rng.permutation(len(x_train)) if config.shuffle else np.arange(len(x_train))
        losses = []
        for start in range(0, len(order), phase.batch_size):
            idx = order[start:start + phase.batch_size]
            logits, backward = model.cnn_logits(x_train[idx], mode="train", want_grads=True)
            loss, dlogits = ops.softmax_cross_entropy(logits, y_train[idx])
            if not np.isfinite(loss):
                raise NumericalError(f"non-finite loss at epoch {epoch}")
            for p in params:
                p.zero_grad()
            backward(dlogits)
            adam_step(params, None, opt)
            losses.append(loss)
        val_acc = cnn_accuracy(model, x_val, y_val)
        history.append(HistoryRow(epoch, float(np.mean(losses)), val_acc))
        if val_acc > best_acc:
            best_acc = val_acc
            best_snap = _snapshot(tracked)

    _restore(tracked, best_snap)
    return model, history


def causal_windows(recordings, probs_of, sequence_len: int, classes: int = NUM_STAGES):
    """Causal windows of per-epoch probabilities, one sample per epoch with enough history.

    ``recordings`` is a list of ``(epochs [N,1,L], labels [N])`` pairs, each
    time-ordered, and ``probs_of`` maps a recording's epochs to their
    ``[N, classes]`` probability rows. Windows never cross recording
    boundaries and recordings shorter than the window yield nothing. Each
    sample is the window's probability rows with the label of its final epoch.
    """
    t = sequence_len
    xs, ys = [], []
    for epochs, labels in recordings:
        epochs = np.asarray(epochs)
        labels = np.asarray(labels)
        if len(epochs) < t:
            continue
        probs = probs_of(epochs)
        for i in range(t - 1, len(epochs)):
            xs.append(probs[i - t + 1:i + 1])
            ys.append(labels[i])
    if not xs:
        return (np.zeros((0, t, classes), dtype=np.float32),
                np.zeros(0, dtype=np.int64))
    return np.stack(xs).astype(np.float32), np.asarray(ys, dtype=np.int64)


def make_sequence_dataset(model: MorpheusModel, recordings, mode="infer"):
    """Causal windows (see ``causal_windows``) of the float CNN's outputs."""
    return causal_windows(recordings, lambda epochs: model.cnn_probs(epochs, mode=mode),
                          model.config.sequence_len, model.config.classes)


def seq_accuracy(model: MorpheusModel, x, y, batch_size=512) -> float:
    x = np.asarray(x)
    good = 0
    for i in range(0, len(x), batch_size):
        probs = model.seq.probs(x[i:i + batch_size], mode="infer")
        good += int((probs.argmax(axis=1) == np.asarray(y)[i:i + batch_size]).sum())
    return good / max(1, len(x))


def train_sequence_learner(model: MorpheusModel, train_set, val_set, config: TrainConfig,
                           phase: PhaseConfig | None = None):
    """Train the sequence learner on fixed CNN outputs; best-on-validation checkpoint.

    The CNN is not touched in this phase. ``phase`` overrides the optimizer
    settings (used by quantization fine-tuning); it defaults to the standard
    sequence phase.
    """
    x_train, y_train = _check_dataset("sequence train", *train_set)
    x_val, y_val = _check_dataset("sequence validation", *val_set)
    phase = phase or config.seq
    rng = np.random.default_rng(config.seed + 1)
    drop_rng = np.random.default_rng(config.seed + 2)
    params = model.seq_parameters()
    opt = AdamState(lr=phase.lr, beta1=config.beta1, beta2=config.beta2)

    best_snap = _snapshot(params)
    best_acc = -1.0
    history: list[HistoryRow] = []
    for epoch in range(1, phase.epochs + 1):
        order = rng.permutation(len(x_train)) if config.shuffle else np.arange(len(x_train))
        losses = []
        for start in range(0, len(order), phase.batch_size):
            idx = order[start:start + phase.batch_size]
            logits, backward = model.seq.logits(
                x_train[idx], mode="train", rng=drop_rng, want_grads=True
            )
            loss, dlogits = ops.softmax_cross_entropy(logits, y_train[idx])
            if not np.isfinite(loss):
                raise NumericalError(f"non-finite loss at epoch {epoch}")
            for p in params:
                p.zero_grad()
            backward(dlogits)
            adam_step(params, None, opt)
            losses.append(loss)
        val_acc = seq_accuracy(model, x_val, y_val)
        history.append(HistoryRow(epoch, float(np.mean(losses)), val_acc))
        if val_acc > best_acc:
            best_acc = val_acc
            best_snap = _snapshot(params)

    _restore(params, best_snap)
    return model, history
