import json
import math
import re

import numpy as np
import pytest
from helpers import (
    TOY_TARGET_LR,
    default_search_space,
    reference_hyperband_run,
    toy_objective,
)

from mixedvit import tuning as TU
from mixedvit.tuning import (
    Bracket,
    LogUniform,
    SpaceError,
    TrialResult,
    Uniform,
    bracket_schedule,
    hyperband_plan,
    hyperband_run,
    parse_space,
    sample_config,
    save_trial_log,
    successive_halving,
)


def test_bracket_table_r81_eta3():
    brackets = bracket_schedule(81, 3)
    assert [b.s for b in brackets] == [4, 3, 2, 1, 0]
    assert brackets[0].rounds == ((81, 1), (27, 3), (9, 9), (3, 27), (1, 81))
    assert brackets[-1].rounds == ((5, 81),)


def test_bracket_r1_single():
    brackets = bracket_schedule(1, 3)
    assert len(brackets) == 1
    assert brackets[0].rounds == ((1, 1),)


def test_bracket_last_round_reaches_r_despite_float_error():
    # 729 * 3**-6 evaluates to 0.9999999999999999; the last round still
    # holds one config, at R.
    assert bracket_schedule(729, 3)[0].rounds[-1] == (1, 729)


def test_bracket_fractional_eta_stops_at_one_config():
    bracket = next(b for b in bracket_schedule(10, 2.1) if b.s == 3)
    assert bracket.rounds == ((10, 1), (4, 2), (1, 5))


def test_bracket_budget_law():
    for R, eta in ((81, 3), (27, 3), (16, 2), (10, 3)):
        s_max = bracket_schedule(R, eta)[0].s
        for bracket in bracket_schedule(R, eta):
            spent = sum(n * r for n, r in bracket.rounds)
            assert spent <= (s_max + 1) * R * (1 + 1e-9)


def test_bracket_validation():
    with pytest.raises(ValueError):
        bracket_schedule(0, 3)
    with pytest.raises(ValueError):
        bracket_schedule(81, 1)


def test_bracket_evaluation_bound_admits_its_bound(monkeypatch):
    """R = 729, eta = 2 plans 2,338 evaluations: the largest search any
    test or CI step runs."""
    monkeypatch.setattr(TU, "MAX_EVALUATIONS", 2_338)
    brackets = bracket_schedule(729, 2)
    assert sum(n for b in brackets for n, _ in b.rounds) == 2_338
    monkeypatch.setattr(TU, "MAX_EVALUATIONS", 2_337)
    with pytest.raises(ValueError, match="plans more than 2,337 evaluations"):
        bracket_schedule(729, 2)


def test_sample_config_deterministic():
    space = default_search_space()
    a = sample_config(space, np.random.default_rng(5))
    b = sample_config(space, np.random.default_rng(5))
    assert a == b


def test_sample_config_ranges():
    space = parse_space({
        "lr": {"type": "log_uniform", "lo": 1e-5, "hi": 1e-3},
        "width": {"type": "uniform", "lo": 2.0, "hi": 4.0},
        "batch": {"type": "choice", "values": [6, 12]},
    })
    rng = np.random.default_rng(6)
    for _ in range(100):
        cfg = sample_config(space, rng)
        assert 1e-5 <= cfg["lr"] <= 1e-3
        assert 2.0 <= cfg["width"] <= 4.0
        assert cfg["batch"] in (6, 12)


@pytest.mark.parametrize("spec,message", [
    ({}, "search space must be a non-empty object"),
    ({"x": {"type": "nope"}}, "unknown dimension type 'nope'"),
    ({"x": {"type": "log_uniform", "lo": 1.0, "hi": 0.5}},
     "log-uniform needs 0 < lo < hi"),
    ({"x": {"type": "choice", "values": []}}, "choice set must be non-empty"),
    ({"x": {"type": "choice", "values": 5}}, "values 5 is not a list"),
    ({"x": {"type": "choice", "values": {"a": 1}}},
     "values {'a': 1} is not a list"),
    ({"x": {"type": "uniform", "lo": [1], "hi": 2.0}},
     "lo [1] is not a number"),
    ({"x": {"type": "uniform", "lo": None, "hi": 2.0}},
     "lo None is not a number"),
    ({"x": {"type": "log_uniform", "lo": 1e-4, "hi": True}},
     "hi True is not a number"),
    ({"x": {"type": "uniform", "lo": "0.1", "hi": 2.0}},
     "lo '0.1' is not a number"),
    ({"x": {"type": "uniform", "lo": 0.0, "hi": 10**400}},
     "int too large to convert to float"),
    ({"x": {"type": "uniform", "lo": math.nan, "hi": 2.0}},
     "lo nan is not a number"),
    ({"x": {"type": "uniform", "lo": 0.0, "hi": math.inf}},
     "hi inf is not a number"),
    ({"x": {"type": "uniform", "lo": -1e308, "hi": 1e308}},
     "uniform needs lo < hi, a finite width apart, got (-1e+308, 1e+308)"),
    ({"x": {"type": "uniform", "hi": 2.0}}, "missing field 'lo'"),
    ({"x": {"type": "choice"}}, "missing field 'values'"),
], ids=["empty", "unknown_type", "lo_above_hi", "no_choices", "int_values",
        "object_values", "list_lo", "null_lo", "true_hi", "string_lo",
        "int_past_float", "nan_lo", "infinite_hi", "infinite_width", "no_lo",
        "no_values"])
def test_parse_space_errors(spec, message):
    """A range's ends must be JSON numbers, not true, and a choice's values
    a JSON list."""
    with pytest.raises(SpaceError, match=re.escape(message)):
        parse_space(spec)


@pytest.mark.parametrize("hi", [math.inf, math.nan])
def test_log_uniform_refuses_a_non_finite_end(hi):
    """parse_space cannot build this range, since its ends are JSON numbers,
    so the class itself refuses it: sampling it would overflow."""
    with pytest.raises(SpaceError, match="both finite"):
        LogUniform(1e-4, hi)


NINE_THREE_ONE = Bracket(s=2, rounds=((9, 1), (3, 3), (1, 9)))


def _last_round(log):
    return [t for t in log if t.round == log[-1].round]


def test_successive_halving_9_to_3_to_1():
    configs = [{"v": float(i)} for i in range(9)]
    log = successive_halving(configs, lambda c, r: c["v"] / 10.0,
                             NINE_THREE_ONE)
    assert [(t.round, t.resource) for t in log] == \
        [(0, 1)] * 9 + [(1, 3)] * 3 + [(2, 9)]
    assert log[-1].config == {"v": 8.0}  # argmax of the known objective


def test_successive_halving_known_function_argmax():
    rng = np.random.default_rng(7)
    space = {"initial_lr": LogUniform(1e-5, 1e-3)}
    configs = [sample_config(space, rng) for _ in range(9)]
    log = successive_halving(
        configs, lambda c, r: math.exp(-abs(c["initial_lr"] - 3e-4) * 1e4),
        NINE_THREE_ONE)
    best_lr = min((c["initial_lr"] for c in configs),
                  key=lambda lr: abs(lr - 3e-4))
    assert _last_round(log)[0].config["initial_lr"] == best_lr


def test_successive_halving_single_config_full_resource():
    log = successive_halving([{"v": 1.0}], lambda c, r: 0.5,
                             Bracket(s=0, rounds=((1, 9),)))
    assert len(log) == 1
    assert log[0].resource == 9


def test_successive_halving_tie_prefers_lower_trial_id():
    configs = [{"v": i} for i in range(4)]
    log = successive_halving(configs, lambda c, r: 0.5,
                             Bracket(s=1, rounds=((4, 1), (2, 2))),
                             first_id=10)
    assert [t.trial_id for t in _last_round(log)] == [10, 11]


def test_successive_halving_follows_the_planned_counts():
    configs = [{"v": float(i)} for i in range(5)]
    log = successive_halving(configs, lambda c, r: c["v"] / 10.0,
                             Bracket(s=2, rounds=((5, 1), (4, 2), (3, 4))))
    assert [t.trial_id for t in log if t.round == 1] == [1, 2, 3, 4]
    assert [t.trial_id for t in log if t.round == 2] == [2, 3, 4]
    assert [t.resource for t in log] == [1] * 5 + [2] * 4 + [4] * 3


def test_successive_halving_config_count_mismatch_errors():
    bracket = Bracket(s=0, rounds=((1, 9),))
    for configs in ([], [{"v": 0.0}, {"v": 1.0}]):
        with pytest.raises(ValueError):
            successive_halving(configs, lambda c, r: 0.0, bracket)


def test_monotone_survival():
    """A config eliminated in round i never shows up in a later round."""
    configs = [{"v": float(i)} for i in range(9)]
    log = successive_halving(configs, lambda c, r: c["v"] / 10.0,
                             NINE_THREE_ONE)
    eliminated_at = {}
    for t in log:
        eliminated_at[t.trial_id] = max(eliminated_at.get(t.trial_id, 0),
                                        t.round)
    for t in log:
        assert t.round <= eliminated_at[t.trial_id]
    seen_rounds = {}
    for t in log:
        seen_rounds.setdefault(t.trial_id, []).append(t.round)
    for rounds in seen_rounds.values():
        assert rounds == list(range(len(rounds)))


def _tied_objective(cfg, epochs):
    """Depends on the config and the epochs, with many ties."""
    return (int(cfg["x"] * 4) + epochs % 3) / 5


@pytest.mark.parametrize("eta", [2, 3, 2.1, 2.5, math.e])
def test_hyperband_log_matches_reference(eta):
    """Running the planned schedule gives the log of a successive halving
    that works out its own counts, epochs and stop as it goes."""
    space = {"x": Uniform(0.0, 1.0)}
    for R in (1, 2, 3, 9, 10, 25.5, 27, 29.5, 98, 729):
        for seed in (0, 1):
            got = hyperband_run(hyperband_plan(space, R, eta, seed),
                                _tied_objective)
            assert got == reference_hyperband_run(space, _tied_objective,
                                                  R, eta, seed), (R, seed)


def test_hyperband_best_matches_log():
    space = {"initial_lr": LogUniform(1e-5, 1e-3)}
    best, log = hyperband_run(hyperband_plan(space, R=9, eta=3, seed=3),
                              toy_objective)
    top = max(t.score for t in log)
    assert best.score == top
    candidates = [t.trial_id for t in log if t.score == top]
    assert best.trial_id == min(candidates)


def test_hyperband_toy_argmax_analytic():
    space = {"initial_lr": LogUniform(1e-5, 1e-3)}
    best, log = hyperband_run(hyperband_plan(space, R=27, eta=3, seed=11),
                              toy_objective)
    sampled = {t.trial_id: t.config["initial_lr"] for t in log}
    target = min(sampled.values(),
                 key=lambda lr: abs(math.log(lr / TOY_TARGET_LR)))
    assert best.config["initial_lr"] == target


def test_hyperband_reproducible():
    space = default_search_space()

    def objective(cfg, r):
        return toy_objective({"initial_lr": cfg["initial_lr"]}, r)

    a_best, a_log = hyperband_run(
        hyperband_plan(space, R=9, eta=3, seed=21), objective)
    b_best, b_log = hyperband_run(
        hyperband_plan(space, R=9, eta=3, seed=21), objective)
    assert a_best == b_best
    assert a_log == b_log


def test_hyperband_budget_accounting():
    space = {"initial_lr": LogUniform(1e-5, 1e-3)}
    _, log = hyperband_run(hyperband_plan(space, R=81, eta=3, seed=1),
                           toy_objective)
    brackets = bracket_schedule(81, 3)
    for bracket in brackets:
        spent = sum(t.resource for t in log if t.bracket == bracket.s)
        planned = sum(n * r for n, r in bracket.rounds)
        assert spent == planned


def test_hyperband_retrain_beats_median():
    """Real-objective check: re-trained best score >= median of all trials."""
    from mixedvit.model import ModelConfig, init_params
    from mixedvit.train import TrainConfig, evaluate, train
    from test_train import make_samples

    samples = make_samples(16, seed=31)
    model_cfg = ModelConfig(image_dims=(4, 8, 8, 1), tubelet=(2, 4, 4),
                            embed_dim=8, depth=1, heads=2, dropout_rate=0.0,
                            tabular_hidden=(8, 4))

    def objective(cfg, epochs):
        tc = TrainConfig(epochs=epochs, batch_size=4,
                         initial_lr=cfg["initial_lr"], seed=5)
        params = init_params(model_cfg, 5)
        best, _ = train(model_cfg, params, samples[:12], samples[12:], tc)
        _, acc = evaluate(model_cfg, best, samples[12:], 4)
        return acc

    space = {"initial_lr": LogUniform(1e-4, 1e-2)}
    best, log = hyperband_run(hyperband_plan(space, R=4, eta=2, seed=2),
                              objective)
    rescore = objective(best.config, 4)
    median = float(np.median([t.score for t in log]))
    assert rescore >= median


def test_trial_result_validation():
    with pytest.raises(ValueError):
        TrialResult(0, 0, 0, 1, 1.5, {})
    with pytest.raises(ValueError):
        TrialResult(0, 0, 0, 0, 0.5, {})


def test_trial_log_csv(tmp_path):
    log = [TrialResult(0, 4, 0, 1, 0.25, {"initial_lr": 1e-4, "batch_size": 6}),
           TrialResult(1, 4, 0, 1, 0.75, {"initial_lr": 3e-4, "batch_size": 4})]
    path = tmp_path / "trials.csv"
    save_trial_log(log, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "trial_id,bracket,round,resource,score,config"
    assert len(lines) == 3
    row = lines[1].split(",", 5)
    assert row[0] == "0" and row[1] == "4"
    cfg = json.loads(row[5].strip('"').replace('""', '"'))
    assert cfg == {"initial_lr": 1e-4, "batch_size": 6}
