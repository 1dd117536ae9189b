"""Hyperband hyperparameter search: bracketed successive halving over
randomly sampled configurations, with training epochs as the resource unit.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np


class SpaceError(ValueError):
    """Malformed search-space definition."""


@dataclass(frozen=True)
class LogUniform:
    lo: float
    hi: float

    def __post_init__(self):
        if not 0 < self.lo < self.hi:
            raise SpaceError(f"log-uniform needs 0 < lo < hi, got "
                             f"({self.lo}, {self.hi})")

    def sample(self, rng: np.random.Generator):
        return float(math.exp(rng.uniform(math.log(self.lo),
                                          math.log(self.hi))))


@dataclass(frozen=True)
class Uniform:
    lo: float
    hi: float

    def __post_init__(self):
        if not self.lo < self.hi:
            raise SpaceError(f"uniform needs lo < hi, got ({self.lo}, {self.hi})")

    def sample(self, rng: np.random.Generator):
        return float(rng.uniform(self.lo, self.hi))


@dataclass(frozen=True)
class Choice:
    values: tuple

    def __post_init__(self):
        if not self.values:
            raise SpaceError("choice set must be non-empty")

    def sample(self, rng: np.random.Generator):
        return self.values[int(rng.integers(len(self.values)))]


@dataclass(frozen=True)
class TrialResult:
    trial_id: int
    bracket: int
    round: int
    resource: int  # epochs actually granted
    score: float  # validation accuracy in [0, 1]
    config: dict

    def __post_init__(self):
        if not 0.0 <= self.score <= 1.0:
            raise ValueError(f"score {self.score} outside [0, 1]")
        if self.resource < 1:
            raise ValueError(f"resource {self.resource} must be >= 1")


@dataclass(frozen=True)
class Bracket:
    s: int
    n_configs: int
    initial_resource: float
    rounds: tuple  # ((n_i, r_i), ...) for i = 0..s


def parse_space(spec: dict) -> dict:
    """Build a search space from its JSON form."""
    if not isinstance(spec, dict) or not spec:
        raise SpaceError("search space must be a non-empty object")
    space = {}
    for name, dim in spec.items():
        if not isinstance(dim, dict) or "type" not in dim:
            raise SpaceError(f"dimension {name!r} needs a 'type' field")
        kind = dim["type"]
        try:
            if kind == "log_uniform":
                space[name] = LogUniform(float(dim["lo"]), float(dim["hi"]))
            elif kind == "uniform":
                space[name] = Uniform(float(dim["lo"]), float(dim["hi"]))
            elif kind == "choice":
                space[name] = Choice(tuple(dim["values"]))
            else:
                raise SpaceError(f"unknown dimension type {kind!r}")
        except KeyError as exc:
            raise SpaceError(f"dimension {name!r} missing field {exc}") from exc
    return space


def sample_config(space: dict, rng: np.random.Generator) -> dict:
    """One independent draw per dimension, in sorted name order."""
    return {name: space[name].sample(rng) for name in sorted(space)}


def bracket_schedule(R: float, eta: float) -> list:
    """All Hyperband brackets for a finite budget R and culling factor eta
    (R = inf has no last bracket, and NaN slips past every range check)."""
    for name, value, least in (("R", R, 1), ("eta", eta, 2)):
        if not math.isfinite(value):
            raise ValueError(f"{name}={value} must be finite")
        if value < least:
            raise ValueError(f"{name}={value} must be >= {least}")
    s_max = 0
    while eta ** (s_max + 1) <= R * (1 + 1e-12):
        s_max += 1
    brackets = []
    for s in range(s_max, -1, -1):
        n = math.ceil((s_max + 1) / (s + 1) * eta ** s)
        r = R * eta ** (-s)
        rounds = tuple((math.floor(n * eta ** (-i)), r * eta ** i)
                       for i in range(s + 1))
        brackets.append(Bracket(s=s, n_configs=n, initial_resource=r,
                                rounds=rounds))
    return brackets


def _as_epochs(resource: float) -> int:
    return max(1, int(round(resource)))


def successive_halving(configs: Sequence[dict],
                       objective: Callable[[dict, int], float],
                       r0: float, eta: float, R: float,
                       trial_id_start: int = 0, bracket: int = 0,
                       log: Optional[list] = None) -> list:
    """Evaluate, keep the top 1/eta (ties to lower trial id), raise resource.

    Stops once the resource budget R is exhausted or one config survives;
    returns the last round's TrialResults. Every evaluation is appended to
    ``log`` when given.
    """
    if not configs:
        raise ValueError("successive halving needs at least one config")
    ids = list(range(trial_id_start, trial_id_start + len(configs)))
    current = list(zip(ids, configs))
    resource = float(r0)
    round_index = 0
    while True:
        results = [TrialResult(trial_id=tid, bracket=bracket,
                               round=round_index,
                               resource=_as_epochs(resource),
                               score=float(objective(cfg, _as_epochs(resource))),
                               config=cfg)
                   for tid, cfg in current]
        if log is not None:
            log.extend(results)
        if len(results) == 1 or resource * eta > R * (1 + 1e-9):
            return results
        keep = max(1, math.floor(len(results) / eta))
        survivors = sorted(results, key=lambda t: (-t.score, t.trial_id))[:keep]
        survivors.sort(key=lambda t: t.trial_id)
        current = [(t.trial_id, t.config) for t in survivors]
        resource *= eta
        round_index += 1


def hyperband_run(space: dict, objective: Callable[[dict, int], float],
                  R: float, eta: float, seed: int):
    """Run every bracket; return (best trial, full trial log).

    Best = highest score over the whole log, ties to the lowest trial id.
    """
    rng = np.random.default_rng([int(seed), 0x4B])
    log: list[TrialResult] = []
    next_id = 0
    for bracket in bracket_schedule(R, eta):
        configs = [sample_config(space, rng) for _ in range(bracket.n_configs)]
        successive_halving(configs, objective, bracket.initial_resource,
                           eta, R, trial_id_start=next_id, bracket=bracket.s,
                           log=log)
        next_id += bracket.n_configs
    best = min(log, key=lambda t: (-t.score, t.trial_id))
    return best, log


TRIAL_LOG_HEADER = ["trial_id", "bracket", "round", "resource", "score",
                    "config"]


def save_trial_log(log: Sequence[TrialResult], path) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(TRIAL_LOG_HEADER)
        for t in log:
            writer.writerow([t.trial_id, t.bracket, t.round, t.resource,
                             repr(t.score), json.dumps(t.config, sort_keys=True)])
