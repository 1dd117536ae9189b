"""Optimization loop: Adam with continuous exponential learning-rate decay,
cross-entropy on softmax probabilities (one ``tensor.nll`` tape op),
validation-selected checkpointing, and a stop with ``DivergenceError`` on a
non-finite loss or gradient.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .data import AD, CN, MixedSample, build_batches
from .model import ModelConfig, forward_batch
from .tensor import Tape, Tensor, backward, nll


class DivergenceError(RuntimeError):
    """Training reached a non-finite loss or gradient."""


@dataclass(frozen=True)
class TrainConfig:
    initial_lr: float = 1e-4
    decay_steps: int = 100_000
    decay_rate: float = 0.9
    batch_size: int = 6
    epochs: int = 250
    adam_beta1: float = 0.9
    adam_beta2: float = 0.999
    adam_eps: float = 1e-8
    seed: int = 0

    def __post_init__(self):
        if not 0.0 < self.initial_lr <= 1.0:
            raise ValueError(f"initial_lr {self.initial_lr} outside (0, 1]")
        if not 0.0 < self.decay_rate <= 1.0:
            raise ValueError(f"decay_rate {self.decay_rate} outside (0, 1]")
        if self.epochs < 0 or self.batch_size < 1 or self.decay_steps < 1:
            raise ValueError("epochs >= 0, batch_size >= 1, decay_steps >= 1")
        for beta in (self.adam_beta1, self.adam_beta2):
            if not 0.0 <= beta < 1.0:
                raise ValueError(f"adam beta {beta} outside [0, 1)")


@dataclass
class OptimizerState:
    m: dict
    v: dict
    step: int = 0

    @classmethod
    def for_params(cls, params: dict) -> "OptimizerState":
        return cls(m={k: np.zeros(p.shape) for k, p in params.items()},
                   v={k: np.zeros(p.shape) for k, p in params.items()})


@dataclass
class EpochStats:
    epoch: int
    train_loss: float
    val_loss: float
    val_accuracy: float
    lr: float


@dataclass
class Prediction:
    subject_id: str
    p_ad: float
    predicted: int
    label: int


def lr_at_step(config: TrainConfig, step: int) -> float:
    """Continuous exponential decay: lr0 * rate^(step/decay_steps)."""
    if step < 0:
        raise ValueError("step must be >= 0")
    return config.initial_lr * config.decay_rate ** (step / config.decay_steps)


def adam_update(params: dict, grads: dict, state: OptimizerState, lr: float,
                config: TrainConfig) -> None:
    """Standard bias-corrected Adam; mutates params and state in place."""
    b1, b2, eps = config.adam_beta1, config.adam_beta2, config.adam_eps
    state.step += 1
    t = state.step
    for name, p in params.items():
        g = grads.get(name)
        if g is None:
            g = np.zeros(p.shape)
        if g.shape != p.data.shape:
            raise ValueError(
                f"gradient shape {g.shape} mismatches parameter "
                f"{name} {p.data.shape}")
        # In place, in the operation order of the textbook form
        #   m = b1*m + (1-b1)*g;  v = b2*v + ((1-b2)*g)*g
        #   p -= (lr * m/(1-b1^t)) / (sqrt(v/(1-b2^t)) + eps)
        # so that every value is bit-identical to it.
        m, v = state.m[name], state.v[name]
        buf = np.multiply(g, 1.0 - b1)
        m *= b1
        m += buf
        np.multiply(g, 1.0 - b2, out=buf)
        buf *= g
        v *= b2
        v += buf
        np.divide(v, 1.0 - b2 ** t, out=buf)
        np.sqrt(buf, out=buf)
        buf += eps
        step = np.divide(m, 1.0 - b1 ** t)
        step *= lr
        step /= buf
        p.data -= step


def batch_loss(probs: Tensor, labels: np.ndarray) -> Tensor:
    """Differentiable mean cross-entropy of a (B,2) probability tensor."""
    return nll(probs, np.asarray(labels, dtype=np.int64))


def _copy_params(params: dict) -> dict:
    return {k: Tensor(p.data.copy(), requires_grad=True)
            for k, p in params.items()}


def evaluate(model_cfg: ModelConfig, params: dict,
             samples: Sequence[MixedSample], batch_size: int):
    """Mean per-sample loss and accuracy with dropout disabled."""
    total_loss = 0.0
    correct = 0
    for batch in build_batches(samples, batch_size):
        probs = forward_batch(model_cfg, params, batch.tabular, batch.images,
                              training=False)
        total_loss += batch_loss(probs, batch.labels).item() * len(batch.labels)
        preds = (probs.data[:, AD] > 0.5).astype(np.int64)
        correct += int((preds == batch.labels).sum())
    n = len(samples)
    return total_loss / n, correct / n


def train(model_cfg: ModelConfig, params: dict,
          train_samples: Sequence[MixedSample],
          val_samples: Sequence[MixedSample],
          config: TrainConfig):
    """Full training run; returns (best-validation params, epoch history).

    Batches are reshuffled each epoch from the run seed; the checkpoint is
    the epoch with the highest validation accuracy (ties keep the earlier).
    A non-finite loss or gradient raises ``DivergenceError`` before the
    Adam update, so the parameters keep their last finite values.
    """
    if not train_samples:
        raise ValueError("no training samples")
    if not val_samples:
        raise ValueError("no validation samples for checkpoint selection")
    state = OptimizerState.for_params(params)
    history: list[EpochStats] = []
    best_params = _copy_params(params)
    best_acc = -1.0
    step = 0
    for epoch in range(config.epochs):
        shuffle_rng = np.random.default_rng([config.seed, 101, epoch])
        batches = build_batches(train_samples, config.batch_size, shuffle_rng)
        epoch_loss = 0.0
        lr = config.initial_lr
        for bi, batch in enumerate(batches):
            drop_rng = np.random.default_rng([config.seed, 202, epoch, bi])
            lr = lr_at_step(config, step)
            with Tape():
                probs = forward_batch(model_cfg, params, batch.tabular,
                                      batch.images, training=True,
                                      rng=drop_rng)
                loss = batch_loss(probs, batch.labels)
            value = loss.item()
            if not np.isfinite(value):
                raise DivergenceError(
                    f"loss {value} at epoch {epoch}, step {bi}")
            backward(loss)
            epoch_loss += value * len(batch.labels)
            # The last references to this step's tape: drop them so that it
            # is freed before the next forward pass records another.
            del probs, loss
            grads = {name: p.grad for name, p in params.items()}
            for p in params.values():
                p.grad = None
            for name, g in grads.items():
                if g is not None and not np.isfinite(g).all():
                    raise DivergenceError(
                        f"non-finite gradient of {name} at epoch {epoch}, "
                        f"step {bi}")
            adam_update(params, grads, state, lr, config)
            step += 1
        val_loss, val_acc = evaluate(model_cfg, params, val_samples,
                                     config.batch_size)
        history.append(EpochStats(epoch=epoch,
                                  train_loss=epoch_loss / len(train_samples),
                                  val_loss=val_loss, val_accuracy=val_acc,
                                  lr=lr))
        if val_acc > best_acc:
            best_acc = val_acc
            best_params = _copy_params(params)
    return best_params, history


def predict(model_cfg: ModelConfig, params: dict,
            samples: Sequence[MixedSample],
            batch_size: int = 6) -> list[Prediction]:
    """Deterministic inference; probability ties classify as CN."""
    out: list[Prediction] = []
    for batch in build_batches(samples, batch_size):
        probs = forward_batch(model_cfg, params, batch.tabular, batch.images,
                              training=False)
        for sid, p, label in zip(batch.subject_ids, probs.data[:, AD],
                                 batch.labels):
            out.append(Prediction(subject_id=sid, p_ad=float(p),
                                  predicted=AD if p > 0.5 else CN,
                                  label=int(label)))
    return out


HISTORY_HEADER = "epoch,train_loss,val_loss,val_accuracy,lr"


def save_history(history: Sequence[EpochStats], path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(HISTORY_HEADER + "\n")
        for row in history:
            fh.write(f"{row.epoch},{row.train_loss!r},{row.val_loss!r},"
                     f"{row.val_accuracy!r},{row.lr!r}\n")
