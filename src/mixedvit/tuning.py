"""Hyperband hyperparameter search (Li et al., arXiv:1603.06560):
bracketed successive halving over randomly sampled configurations, with
training epochs as the resource unit.

``bracket_schedule`` plans each bracket's rounds and ``successive_halving``
runs them, with no rule of its own. Bracket s, from s_max (the largest s
with eta**s <= R) down to 0, starts with ceil((s_max + 1) / (s + 1) *
eta**s) configs at R * eta**-s epochs. Each later round keeps the best
max(1, floor(n / eta)) of the last round's n, at eta times its epochs, for
at most s + 1 rounds; a round of one config is the last. Epochs are
rounded, and at least 1. For an integer eta this is Li et al.'s
Algorithm 1. For a fractional eta a bracket can reach one config before
round s and stop below R epochs: at R = 10, eta = 2.1, bracket 3 runs 10,
4 and 1 configs at 1, 2 and 5 epochs, where Algorithm 1 runs 10, 4, 2
and 1 at 1, 2, 5 and 10. A budget whose brackets plan more than
``MAX_EVALUATIONS`` evaluations in all is refused.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, fields
from typing import Callable, Sequence

import numpy as np

from .data import is_number


# The most evaluations, each a training run of at least one epoch, that a
# search may plan; R = 729, eta = 2 plans 2,338, and R = 1e15, eta = 2
# would plan 2.3e15.
MAX_EVALUATIONS = 100_000


class SpaceError(ValueError):
    """Malformed search-space definition."""


@dataclass(frozen=True)
class LogUniform:
    lo: float
    hi: float

    def __post_init__(self):
        if not (0 < self.lo < self.hi and math.isfinite(self.hi)):
            raise SpaceError(f"log-uniform needs 0 < lo < hi, both finite, "
                             f"got ({self.lo}, {self.hi})")

    def sample(self, rng: np.random.Generator):
        return float(math.exp(rng.uniform(math.log(self.lo),
                                          math.log(self.hi))))


@dataclass(frozen=True)
class Uniform:
    lo: float
    hi: float

    def __post_init__(self):
        if not (self.lo < self.hi and math.isfinite(self.hi - self.lo)):
            raise SpaceError(f"uniform needs lo < hi, a finite width apart, "
                             f"got ({self.lo}, {self.hi})")

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
    rounds: tuple  # ((configs, epochs), ...): every round that runs


def _field(name: str, dim: dict, key: str, test: Callable, what: str):
    """``dim[key]`` when it passes ``test``, else ``SpaceError``."""
    if key not in dim:
        raise SpaceError(f"dimension {name!r} missing field {key!r}")
    value = dim[key]
    if not test(value):
        raise SpaceError(f"dimension {name!r}: {key} {value!r} is not {what}")
    return value


def parse_space(spec: dict) -> dict:
    """Build a search space from its JSON form: a range's ends must be
    numbers, and a choice's values a list."""
    if not isinstance(spec, dict) or not spec:
        raise SpaceError("search space must be a non-empty object")
    space = {}
    for name, dim in spec.items():
        if not isinstance(dim, dict) or "type" not in dim:
            raise SpaceError(f"dimension {name!r} needs a 'type' field")
        kind = dim["type"]
        if kind in ("log_uniform", "uniform"):
            try:
                lo, hi = (float(_field(name, dim, key, is_number,
                                       "a number")) for key in ("lo", "hi"))
            except OverflowError as exc:  # an integer past the float range
                raise SpaceError(f"dimension {name!r}: {exc}") from exc
            space[name] = (LogUniform if kind == "log_uniform"
                           else Uniform)(lo, hi)
        elif kind == "choice":
            space[name] = Choice(tuple(_field(
                name, dim, "values", lambda v: isinstance(v, list), "a list")))
        else:
            raise SpaceError(f"unknown dimension type {kind!r}")
    return space


def sample_config(space: dict, rng: np.random.Generator) -> dict:
    """One independent draw per dimension, in sorted name order."""
    return {name: space[name].sample(rng) for name in sorted(space)}


def bracket_schedule(R: float, eta: float) -> list:
    """All Hyperband brackets for a finite budget R and culling factor eta
    (R = inf has no last bracket, and NaN slips past every range check).
    Each bracket's ``rounds`` is the schedule that ``successive_halving``
    runs; see the module docstring for the rule. ``ValueError`` when the
    brackets' rounds hold more than ``MAX_EVALUATIONS`` configs in all."""
    for name, value, least in (("R", R, 1), ("eta", eta, 2)):
        if not math.isfinite(value):
            raise ValueError(f"{name}={value} must be finite")
        if value < least:
            raise ValueError(f"{name}={value} must be >= {least}")
    s_max = 0
    # Bracket s_max alone starts with at least eta**s_max configs: once
    # that passes the bound, stop, before eta**(s_max + 1) can overflow;
    # the count below then refuses the budget.
    while (eta ** s_max <= MAX_EVALUATIONS
           and eta ** (s_max + 1) <= R * (1 + 1e-12)):
        s_max += 1
    brackets = []
    planned = 0
    for s in range(s_max, -1, -1):
        n = math.ceil((s_max + 1) / (s + 1) * eta ** s)
        resource = R * eta ** (-s)
        rounds = [(n, resource)]
        while len(rounds) <= s and n > 1:
            n = max(1, math.floor(n / eta))
            resource *= eta
            rounds.append((n, resource))
        # Counted before the rounding below, which a resource near the
        # float maximum, grown to inf by rounding error, would overflow.
        planned += sum(n for n, _ in rounds)
        if planned > MAX_EVALUATIONS:
            raise ValueError(f"R={R}, eta={eta} plans more than "
                             f"{MAX_EVALUATIONS:,} evaluations")
        # Each resource as whole epochs, at least 1.
        brackets.append(Bracket(s, tuple((n, max(1, round(r)))
                                         for n, r in rounds)))
    return brackets


def _rank(trial: TrialResult) -> tuple:
    """Best first: the higher score, ties to the lower trial id."""
    return -trial.score, trial.trial_id


def successive_halving(configs: Sequence[dict],
                       objective: Callable[[dict, int], float],
                       bracket: Bracket, first_id: int = 0) -> list:
    """Run ``bracket.rounds`` on ``configs``, trial ids from ``first_id``:
    each round scores its configs at its epochs, and the next round's count
    of the best by ``_rank`` go on. Returns every evaluation, in order."""
    if len(configs) != bracket.rounds[0][0]:
        raise ValueError(f"bracket {bracket.s} starts with "
                         f"{bracket.rounds[0][0]} configs, got {len(configs)}")
    log: list[TrialResult] = []
    trials = list(enumerate(configs, first_id))
    for index, (n, epochs) in enumerate(bracket.rounds):
        if index:
            kept = {t.trial_id
                    for t in sorted(log[-len(trials):], key=_rank)[:n]}
            trials = [(tid, cfg) for tid, cfg in trials if tid in kept]
        log.extend(TrialResult(trial_id=tid, bracket=bracket.s, round=index,
                               resource=epochs,
                               score=float(objective(cfg, epochs)),
                               config=cfg)
                   for tid, cfg in trials)
    return log


def hyperband_plan(space: dict, R: float, eta: float, seed: int) -> list:
    """(bracket, its starting configs) for each bracket, drawn from
    ``space`` at ``seed``: what ``hyperband_run`` runs, known up front."""
    rng = np.random.default_rng([int(seed), 0x4B])
    return [(b, [sample_config(space, rng) for _ in range(b.rounds[0][0])])
            for b in bracket_schedule(R, eta)]


def hyperband_run(plan: list, objective: Callable[[dict, int], float]):
    """Run a ``hyperband_plan``; return (best trial, full trial log), the
    best by ``_rank``: the highest score, ties to the lowest trial id."""
    log: list[TrialResult] = []
    next_id = 0
    for bracket, configs in plan:
        log.extend(successive_halving(configs, objective, bracket, next_id))
        next_id += len(configs)
    return min(log, key=_rank), log


def save_trial_log(log: Sequence[TrialResult], path) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([f.name for f in fields(TrialResult)])
        for t in log:
            writer.writerow([t.trial_id, t.bracket, t.round, t.resource,
                             repr(t.score), json.dumps(t.config, sort_keys=True)])
