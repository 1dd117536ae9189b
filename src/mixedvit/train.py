"""Optimization loop: Adam with continuous exponential learning-rate decay,
cross-entropy on softmax probabilities (one ``tensor.nll`` tape op),
validation-selected checkpointing, and a stop with ``DivergenceError`` on a
non-finite loss or gradient.

A ``FitPlan`` checks a subject split before any training starts, raising
``PlanError`` for one that cannot be trained and scored, and ``fit`` trains
on it: the one way the ``train``, ``cv`` and ``tune`` commands fit. An age
or MMSE constant over the training subjects is no reason to refuse a
split: it scales to 0 for every subject (``data.tabular_features``).
``model_crops`` builds the crops a model takes, or raises ``ConfigError``
when the model's image_dims do not fit the instance table or the volumes.
Each command builds its crops once, before any training, and that build is
the one check that they fit; ``fit`` takes them, so a volume that cannot be
cropped stops a command before its first training step.

A step's gradients stay in the parameters' ``.grad`` until the next step's
forward pass has run, and go just before its backward; an epoch's last ones
go before its validation pass. So at most one set is alive, and no backward
runs beside the previous one. The reason is the heap. The gradients are
allocated during the backward pass, above the step's activations, and while
they live the next forward refills the hole the freed activations left below
them. Freed right after the Adam update, they would leave the whole region
free at the heap top; glibc trims a free top larger than its dynamic
threshold (twice the largest mmapped block freed so far), and the next
forward would fault it back in. The top is still trimmed now and then: at an
epoch's end, or when a step's tape landed above its gradients.

The decay schedule (rate 0.9 per 100,000 steps) and Adam's beta1 0.9,
beta2 0.999 and eps 1e-8 are ``TrainConfig`` class constants, not config
keys: no run sets another value, so a key would only multiply the
configurations that tests and ``tune`` could reach.
"""

from __future__ import annotations

import csv
import json
from dataclasses import astuple, dataclass, field, fields
from typing import ClassVar, Optional, Sequence

import numpy as np

from .data import (
    AD,
    CN,
    LABEL_NAMES,
    CropError,
    FitStats,
    MixedSample,
    PlanError,
    SubjectRecord,
    build_batches,
    cdr_to_label,
    iter_crops,
    mixed_sample,
)
from .model import ConfigError, ModelConfig, forward_batch, init_params
from .tensor import Tape, Tensor, backward, nll


class DivergenceError(RuntimeError):
    """Training reached a non-finite loss or gradient."""


@dataclass(frozen=True)
class TrainConfig:
    initial_lr: float = 1e-4
    batch_size: int = 6
    epochs: int = 250
    seed: int = 0
    decay_steps: ClassVar[int] = 100_000
    decay_rate: ClassVar[float] = 0.9
    adam_beta1: ClassVar[float] = 0.9
    adam_beta2: ClassVar[float] = 0.999
    adam_eps: ClassVar[float] = 1e-8

    def __post_init__(self):
        if not 0.0 < self.initial_lr <= 1.0:
            raise ValueError(f"initial_lr {self.initial_lr} outside (0, 1]")
        if self.epochs < 0 or self.batch_size < 1:
            raise ValueError("epochs >= 0, batch_size >= 1")


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


# Values per chunk of ``adam_update``'s walk. The chunk's slices of a
# parameter, its gradient, m and v and the two scratch rows take 6 x 128 KB,
# so the 14 passes over a chunk stay in a core's L2 cache.
ADAM_CHUNK = 16384


def adam_update(params: dict, grads: dict, state: OptimizerState, lr: float,
                config: TrainConfig) -> None:
    """Standard bias-corrected Adam; mutates params and state in place.

    Each parameter is walked in ``ADAM_CHUNK``-value chunks of flat views of
    it, its gradient, m and v, with two scratch rows made once per call, so
    that no full-size temporary is made; a parameter without a gradient
    reads zeros from a scratch row."""
    b1, b2, eps = config.adam_beta1, config.adam_beta2, config.adam_eps
    state.step += 1
    t = state.step
    bias1, bias2 = 1.0 - b1 ** t, 1.0 - b2 ** t
    buf_row, step_row = np.empty(ADAM_CHUNK), np.empty(ADAM_CHUNK)
    for name, p in params.items():
        g = grads.get(name)
        if g is not None and g.shape != p.data.shape:
            raise ValueError(
                f"gradient shape {g.shape} mismatches parameter "
                f"{name} {p.data.shape}")
        m, v = state.m[name], state.v[name]
        if not (p.data.flags.c_contiguous and m.flags.c_contiguous
                and v.flags.c_contiguous):
            # ravel would copy, and the update would go to the copy.
            raise ValueError(f"parameter {name} or its moments are not "
                             f"C-contiguous")
        p_flat, m_flat, v_flat = p.data.ravel(), m.ravel(), v.ravel()
        g_flat = None if g is None else g.ravel()
        for lo in range(0, p_flat.size, ADAM_CHUNK):
            hi = lo + ADAM_CHUNK
            pc, mc, vc = p_flat[lo:hi], m_flat[lo:hi], v_flat[lo:hi]
            buf, step = buf_row[:pc.size], step_row[:pc.size]
            if g_flat is None:
                gc = step  # read before ``step`` is first written below
                gc.fill(0.0)
            else:
                gc = g_flat[lo:hi]
            # In place, in the operation order of the textbook form
            #   m = b1*m + (1-b1)*g;  v = b2*v + ((1-b2)*g)*g
            #   p -= (lr * m/(1-b1^t)) / (sqrt(v/(1-b2^t)) + eps)
            # so that every value is bit-identical to it.
            np.multiply(gc, 1.0 - b1, out=buf)
            mc *= b1
            mc += buf
            np.multiply(gc, 1.0 - b2, out=buf)
            buf *= gc
            vc *= b2
            vc += buf
            np.divide(vc, bias2, out=buf)
            np.sqrt(buf, out=buf)
            buf += eps
            np.divide(mc, bias1, out=step)
            step *= lr
            step /= buf
            pc -= step


def batch_loss(probs: Tensor, labels: np.ndarray) -> Tensor:
    """Differentiable mean cross-entropy of a (B,2) probability tensor."""
    return nll(probs, np.asarray(labels, dtype=np.int64))


def _copy_params(params: dict) -> dict:
    return {k: Tensor(p.data.copy(), requires_grad=True)
            for k, p in params.items()}


def _eval_batches(model_cfg: ModelConfig, params: dict,
                  samples: Sequence[MixedSample], batch_size: int):
    """Each batch of ``samples`` with its (B, 2) probabilities, dropout
    disabled, and its predicted classes: AD iff p_AD > 0.5, so a tie
    classifies as CN. Batches are built as they are used
    (``build_batches``), not the whole set at once."""
    # The previous batch stays alive until the next is reached; it holds
    # views of the samples' images, not a copy, so that costs next to nothing.
    for batch in build_batches(samples, batch_size):
        probs = forward_batch(model_cfg, params, batch.tabular, batch.images,
                              training=False)
        yield batch, probs, np.where(probs.data[:, AD] > 0.5, AD, CN)


def evaluate(model_cfg: ModelConfig, params: dict,
             samples: Sequence[MixedSample], batch_size: int):
    """Mean per-sample loss and accuracy with dropout disabled."""
    total_loss = 0.0
    correct = 0
    for batch, probs, classes in _eval_batches(model_cfg, params, samples,
                                               batch_size):
        total_loss += batch_loss(probs, batch.labels).item() * len(batch.labels)
        correct += int((classes == batch.labels).sum())
    n = len(samples)
    return total_loss / n, correct / n


def _release_grads(params: dict) -> None:
    for p in params.values():
        p.grad = None


def train(model_cfg: ModelConfig, params: dict,
          train_samples: Sequence[MixedSample],
          val_samples: Sequence[MixedSample],
          config: TrainConfig):
    """Full training run; returns (best-validation params, epoch history).

    Batches are reshuffled each epoch from the run seed and built as
    they are used; the checkpoint is the epoch with the highest validation
    accuracy (ties keep the earlier).
    A non-finite loss or gradient raises ``DivergenceError`` before the
    Adam update, so the parameters keep their last finite values.
    A step's gradients are released after the next step's forward and
    before its backward, at the epoch's end, or on a divergence, so that
    glibc does not trim and refault the step's heap between steps (see the
    module docstring); ``params`` come back without a ``.grad``.
    """
    state = OptimizerState.for_params(params)
    history: list[EpochStats] = []
    best_params = _copy_params(params)
    best_acc = -1.0
    for epoch in range(config.epochs):
        shuffle_rng = np.random.default_rng([config.seed, 101, epoch])
        batches = build_batches(train_samples, config.batch_size, shuffle_rng)
        epoch_loss = 0.0
        lr = config.initial_lr
        for bi, batch in enumerate(batches):
            drop_rng = np.random.default_rng([config.seed, 202, epoch, bi])
            lr = lr_at_step(config, state.step)
            with Tape():
                probs = forward_batch(model_cfg, params, batch.tabular,
                                      batch.images, training=True,
                                      rng=drop_rng)
                loss = batch_loss(probs, batch.labels)
            value = loss.item()
            # The previous step's gradients go only now: while they lived,
            # this forward refilled the hole below them in place.
            _release_grads(params)
            if not np.isfinite(value):
                raise DivergenceError(
                    f"loss {value} at epoch {epoch}, step {bi}")
            backward(loss)
            epoch_loss += value * len(batch.labels)
            # The last references to this step's tape, with its patch
            # matrices, and to its batch: free them before the next batch.
            del probs, loss, batch
            bad = [name for name, p in params.items()
                   if p.grad is not None and not np.isfinite(p.grad).all()]
            if bad:
                _release_grads(params)
                raise DivergenceError(f"non-finite gradient of {bad[0]} at "
                                      f"epoch {epoch}, step {bi}")
            adam_update(params, {name: p.grad for name, p in params.items()},
                        state, lr, config)
        # Kept through validation, cv_coarse's 7 MB of gradients raised its
        # peak memory by 3-7%.
        _release_grads(params)
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
    """Deterministic inference, one ``Prediction`` per sample in order."""
    return [Prediction(subject_id=sid, p_ad=float(p), predicted=int(c),
                       label=int(label))
            for batch, probs, classes in _eval_batches(model_cfg, params,
                                                       samples, batch_size)
            for sid, p, c, label in zip(batch.subject_ids, probs.data[:, AD],
                                        classes, batch.labels)]


def require_both_classes(records: Sequence[SubjectRecord], what: str,
                         error=ValueError) -> None:
    """Raise ``error`` unless ``records`` hold CN and AD subjects: a set of
    one class has no ROC curve to score it by."""
    present = {cdr_to_label(r.cdr) for r in records}
    missing = [LABEL_NAMES[c] for c in (CN, AD) if c not in present]
    if missing:
        raise error(f"{what} has no {' or '.join(missing)} subject; "
                    f"scoring needs both CN and AD")


@dataclass
class FitPlan:
    """A subject split checked before any training starts: the subjects to
    train on, to select the checkpoint by and to predict and ROC-score
    (None: no scored set), and the feature ranges fitted on the training
    subjects. ``PlanError`` for an empty training or validation set, or a
    scored set without both classes."""
    train: Sequence[SubjectRecord]
    val: Sequence[SubjectRecord]
    scored: Optional[Sequence[SubjectRecord]] = None
    scored_name: str = "the scored set"
    stats: FitStats = field(init=False)

    def __post_init__(self):
        if not self.train:
            raise PlanError("no training subjects")
        if not self.val:
            raise PlanError("no validation subjects for checkpoint selection")
        if self.scored is not None:
            require_both_classes(self.scored, self.scored_name, PlanError)
        self.stats = FitStats.from_records(self.train)


def check_slice_counts(image_dims: tuple, instances,
                       rois: Sequence[str]) -> None:
    """Every instance of ``rois`` in ``instances`` must select image_dims'
    T slices; ``ConfigError`` names the first that does not. Reads no
    volume."""
    for inst in instances:
        if inst.roi_name in rois and inst.slice_count != image_dims[0]:
            raise ConfigError(
                f"subject {inst.subject_id}, roi {inst.roi_name!r}: "
                f"slice_count {inst.slice_count} is not the T of image_dims "
                f"{image_dims}")


def model_crops(image_dims: tuple, records: Sequence[SubjectRecord],
                instances, rois: Sequence[str]) -> dict:
    """Each record's images at the crop of ``image_dims``, by subject id:
    the one check that a crop fits the model. Before any volume is read,
    ``check_slice_counts`` checks the whole table, whichever subjects
    ``records`` name. A crop plane larger than a volume's is a
    ``ConfigError`` naming image_dims too."""
    check_slice_counts(image_dims, instances, rois)
    _T, H, W, C = image_dims
    try:
        return {record.subject_id: images for record, images
                in iter_crops(records, instances, rois, (H, W), C)}
    except CropError as exc:
        raise ConfigError(f"image_dims {image_dims} do not fit the "
                          f"volumes: {exc}") from exc


def fit(model_cfg: ModelConfig, train_cfg: TrainConfig, plan: FitPlan,
        crops: dict):
    """Train a model on a planned split's ``crops`` (``model_crops``) from
    ``init_params`` at the run seed; returns (best-validation params, epoch
    history, predictions on the scored set, empty when the plan has none)."""
    def samples(records):
        return [mixed_sample(r, crops[r.subject_id], plan.stats)
                for r in records]

    params = init_params(model_cfg, train_cfg.seed)
    best, history = train(model_cfg, params, samples(plan.train),
                          samples(plan.val), train_cfg)
    preds = [] if plan.scored is None else predict(
        model_cfg, best, samples(plan.scored), train_cfg.batch_size)
    return best, history, preds


def save_rows(rows: Sequence, row_type: type, path) -> None:
    """CSV of ``row_type``'s field names, then each row's values: a dict as
    JSON with sorted keys, any other value by repr. Lines end in "\\n"."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(f.name for f in fields(row_type))
        writer.writerows([json.dumps(v, sort_keys=True) if isinstance(v, dict)
                          else repr(v) for v in astuple(row)] for row in rows)
