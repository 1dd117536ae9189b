"""Helpers that only tests use: a scalar root for gradient tests, a
single-sample forward pass, parameter flattening for whole-model gradient
checks, and a rank-statistic AUC oracle for the trapezoid AUC."""

from __future__ import annotations

from math import prod
from typing import Optional, Sequence

import numpy as np

from mixedvit.data import AD, CN
from mixedvit.model import ModelConfig, forward_batch
from mixedvit.tensor import Tensor, matmul, narrow, reshape


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
