"""Causal per-epoch stage prediction over a live epoch stream."""

from __future__ import annotations

from collections import deque

import numpy as np

from . import ops
from .model import MorpheusModel


class StreamPredictor:
    """Emits one stage prediction per incoming epoch, using only past data.

    Keeps a ring buffer of the most recent CNN outputs. Until a full window
    has accumulated, the window is front-padded with copies of the earliest
    available output, so the very first epoch already yields a prediction.
    Feed one instance from a single thread at a time.
    """

    def __init__(self, model: MorpheusModel):
        self.model = model
        self.window = model.config.sequence_len
        self._ring: deque[np.ndarray] = deque(maxlen=self.window)

    def push(self, epoch: np.ndarray):
        """Classify the next epoch; returns ``(stage_index, probabilities)``.

        A malformed epoch (wrong shape, or a NaN or infinite sample) raises a
        ``ValueError`` before the buffer is touched, so the stream position
        is preserved.
        """
        epoch = np.asarray(epoch, dtype=np.float32)
        if epoch.shape != (1, self.model.config.input_len):
            raise ops.ShapeError(
                f"expected a [1, {self.model.config.input_len}] epoch, got shape {epoch.shape}"
            )
        if not np.isfinite(epoch).all():
            raise ValueError("epoch has a non-finite sample")
        probs = ops.softmax(self.model.cnn_logits(epoch[None], mode="infer"))[0]
        self._ring.append(probs)
        pad = [self._ring[0]] * (self.window - len(self._ring))
        window = np.stack(pad + list(self._ring))
        seq_probs = self.model.seq.probs(window[None], mode="infer")[0]
        return int(seq_probs.argmax()), seq_probs

    def reset(self) -> None:
        self._ring.clear()


def predict_stream(model: MorpheusModel, epochs) -> list[tuple[int, np.ndarray]]:
    """Replay a whole recording through a fresh predictor, one epoch at a time."""
    predictor = StreamPredictor(model)
    return [predictor.push(e) for e in epochs]
