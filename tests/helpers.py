"""Helpers that only tests use: a finite-difference gradient check, a
scalar root for gradient tests, a single-sample forward pass, parameter flattening for whole-model gradient
checks, a rank-statistic AUC oracle for the trapezoid AUC, and a search
space and analytic objective for Hyperband."""

from __future__ import annotations

from math import exp, log, prod
from typing import Callable, Optional, Sequence

import numpy as np

from mixedvit.data import AD, CN
from mixedvit.model import ModelConfig, forward_batch
from mixedvit.tensor import Tape, Tensor, backward, matmul, narrow, reshape
from mixedvit.tuning import Choice, LogUniform


def grad_check(f: Callable[[Tensor], Tensor], theta: np.ndarray,
               eps: float = 1e-5) -> float:
    """Max relative error between reverse-mode and central-difference grads.

    ``f`` maps a parameter tensor to a scalar Tensor and must be
    deterministic (dropout off or seed-fixed per call).
    """
    theta = np.asarray(theta, dtype=np.float64)
    with Tape():
        x = Tensor(theta, requires_grad=True)
        y = f(x)
    backward(y)
    analytic = np.zeros_like(theta) if x.grad is None else x.grad

    numeric = np.zeros_like(theta)
    flat = theta.reshape(-1)
    for i in range(flat.size):
        tp = flat.copy()
        tp[i] += eps
        tm = flat.copy()
        tm[i] -= eps
        fp = f(Tensor(tp.reshape(theta.shape))).item()
        fm = f(Tensor(tm.reshape(theta.shape))).item()
        numeric.reshape(-1)[i] = (fp - fm) / (2.0 * eps)

    err = np.abs(analytic - numeric)
    scale = np.maximum(1e-8, np.abs(analytic) + np.abs(numeric))
    return float((err / scale).max()) if flat.size else 0.0


def weighted_sum(x: Tensor, w=1.0) -> Tensor:
    """sum(x * w) as a (1, 1) tensor: x as one row times w as one column.
    ``w`` broadcasts to the shape of ``x``; the default sums ``x``."""
    w = np.broadcast_to(np.asarray(w, dtype=np.float64), x.shape)
    return matmul(reshape(x, (1, x.data.size)), Tensor(w.reshape(-1, 1)))


def forward(config: ModelConfig, params: dict[str, Tensor],
            tabular: Optional[np.ndarray], volumes: list[np.ndarray],
            training: bool = False,
            rng: Optional[np.random.Generator] = None) -> Tensor:
    """One sample's class probabilities, shape (2,), via a batch of one."""
    tab = None if tabular is None else np.asarray(tabular)[None]
    vols = [np.asarray(v)[None] for v in volumes]
    probs = forward_batch(config, params, tab, vols, training, rng)
    return reshape(probs, (2,))


def flatten_params(params: dict[str, Tensor]) -> np.ndarray:
    return np.concatenate([p.data.reshape(-1) for p in params.values()]) \
        if params else np.zeros(0)


def params_from_vector(vec: Tensor, shapes: dict[str, tuple]) -> dict[str, Tensor]:
    """Differentiable unflatten, for whole-model gradient checks."""
    out = {}
    offset = 0
    for name, shape in shapes.items():
        n = prod(shape)
        out[name] = reshape(narrow(vec, 0, offset, n), shape)
        offset += n
    return out


def auc_mannwhitney(scores: Sequence[float], labels: Sequence[int]) -> float:
    """Rank-statistic AUC: (#{pos>neg} + 0.5 #{ties}) / (n_pos n_neg)."""
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    pos = scores[labels == AD]
    neg = scores[labels == CN]
    if pos.size == 0 or neg.size == 0:
        raise ValueError("AUC needs both classes present")
    wins = ties = 0
    for p in pos:
        wins += int((p > neg).sum())
        ties += int((p == neg).sum())
    return (wins + 0.5 * ties) / (pos.size * neg.size)


def default_search_space() -> dict:
    return {
        "initial_lr": LogUniform(1e-5, 1e-3),
        "dropout_rate": Choice((0.1, 0.2, 0.3)),
        "batch_size": Choice((4, 6, 8)),
        "tubelet": Choice(([5, 8, 8], [25, 8, 8])),
    }


TOY_TARGET_LR = 3e-4


def toy_objective(config: dict, resource: int) -> float:
    """Deterministic, resource-free objective peaked at TOY_TARGET_LR."""
    del resource
    return exp(-abs(log(config["initial_lr"] / TOY_TARGET_LR)))
