import dataclasses
import gc
import math
import tracemalloc
import weakref

import numpy as np
import pytest

from mixedvit.data import AD, CN, MixedSample, SubjectRecord, scale_volume
from mixedvit.model import ModelConfig, init_params, forward_batch
from mixedvit import train as train_module
from mixedvit.tensor import Tape, Tensor, backward, softmax
from mixedvit.train import (
    DivergenceError,
    EpochStats,
    FitPlan,
    OptimizerState,
    PlanError,
    TrainConfig,
    adam_update,
    batch_loss,
    evaluate,
    lr_at_step,
    predict,
    save_rows,
    train,
)

from helpers import flatten_params

SMALL_MODEL = ModelConfig(image_dims=(4, 8, 8, 1), tubelet=(2, 4, 4),
                          embed_dim=8, depth=1, heads=2, dropout_rate=0.1,
                          tabular_hidden=(8, 4))


def make_samples(n, seed=0, signal=1.0):
    """Tiny synthetic mixed samples with an image + tabular class signal."""
    rng = np.random.default_rng(seed)
    out = []
    for i in range(n):
        label = i % 2
        img = rng.normal(0.35, 0.05, size=(4, 8, 8, 1))
        img += 0.3 * signal * label
        img = np.clip(img, 0, 1)
        tab = rng.random(4)
        tab[1] = np.clip(0.8 - 0.6 * signal * label + rng.normal(0, 0.05), 0, 1)
        out.append(MixedSample(f"S{i:03d}", tab, [img], label))
    return out


def test_lr_at_step_table_values():
    cfg = TrainConfig()
    assert lr_at_step(cfg, 0) == 1e-4
    assert abs(lr_at_step(cfg, 100_000) - 9e-5) < 1e-12
    assert abs(lr_at_step(cfg, 50_000) - 1e-4 * math.sqrt(0.9)) < 1e-12


def test_lr_strictly_decreasing():
    cfg = TrainConfig()
    values = [lr_at_step(cfg, s) for s in range(0, 300_000, 10_000)]
    assert all(a > b for a, b in zip(values, values[1:]))


def test_adam_zero_gradient_is_identity():
    cfg = TrainConfig()
    params = {"w": Tensor(np.array([1.0, -2.0]), requires_grad=True)}
    state = OptimizerState.for_params(params)
    for _ in range(5):
        adam_update(params, {"w": np.zeros(2)}, state, 0.1, cfg)
    np.testing.assert_array_equal(params["w"].data, [1.0, -2.0])


def test_adam_one_step_hand_computed():
    cfg = TrainConfig()
    params = {"w": Tensor(np.array([0.0]), requires_grad=True)}
    state = OptimizerState.for_params(params)
    adam_update(params, {"w": np.array([1.0])}, state, 0.1, cfg)
    # m_hat = v_hat = 1 after bias correction, so the step is -lr/(1+eps)
    np.testing.assert_allclose(params["w"].data, [-0.1], atol=1e-8)


def test_adam_shape_mismatch():
    cfg = TrainConfig()
    params = {"w": Tensor(np.zeros(3), requires_grad=True)}
    state = OptimizerState.for_params(params)
    with pytest.raises(ValueError):
        adam_update(params, {"w": np.zeros(4)}, state, 0.1, cfg)


def _adam_reference(params, grads, state, lr, cfg):
    """The textbook out-of-place form of the update."""
    b1, b2, eps = cfg.adam_beta1, cfg.adam_beta2, cfg.adam_eps
    state.step += 1
    t = state.step
    for name, p in params.items():
        g = grads.get(name, np.zeros(p.shape))
        state.m[name] = b1 * state.m[name] + (1.0 - b1) * g
        state.v[name] = b2 * state.v[name] + (1.0 - b2) * g * g
        m_hat = state.m[name] / (1.0 - b1 ** t)
        v_hat = state.v[name] / (1.0 - b2 ** t)
        p.data = p.data - lr * m_hat / (np.sqrt(v_hat) + eps)


def test_adam_in_place_matches_reference_bitwise(monkeypatch):
    # Betas away from the defaults, so that a reordered product or quotient
    # rounds differently from the reference.
    monkeypatch.setattr(TrainConfig, "adam_beta1", 0.8)
    monkeypatch.setattr(TrainConfig, "adam_beta2", 0.95)
    cfg = TrainConfig()
    rng = np.random.default_rng(6)
    shapes = {"a": (3, 4), "b": (5,), "c": (2, 2, 2)}
    init = {k: rng.normal(size=s) for k, s in shapes.items()}
    runs = []
    for update in (adam_update, _adam_reference):
        params = {k: Tensor(v.copy(), requires_grad=True)
                  for k, v in init.items()}
        state = OptimizerState.for_params(params)
        grad_rng = np.random.default_rng(7)
        for step in range(6):
            grads = {k: grad_rng.normal(scale=10.0 ** (step - 3), size=s)
                     for k, s in shapes.items() if (k, step) != ("c", 2)}
            kept = {k: g.copy() for k, g in grads.items()}
            # A step as large as the parameters, so no rounding of it hides.
            update(params, grads, state, 0.5 * 0.9 ** step, cfg)
            for k in grads:  # the update never writes to a gradient
                np.testing.assert_array_equal(grads[k], kept[k])
        runs.append((params, state))
    (p1, s1), (p2, s2) = runs
    assert s1.step == s2.step == 6
    for k in shapes:
        np.testing.assert_array_equal(p1[k].data, p2[k].data)
        np.testing.assert_array_equal(s1.m[k], s2.m[k])
        np.testing.assert_array_equal(s1.v[k], s2.v[k])


@pytest.mark.parametrize("layout", ["contiguous", "column_slice"])
def test_adam_chunks_match_reference_bitwise(monkeypatch, layout):
    """Parameters longer than two chunks, with a gradient that is
    contiguous or a column slice (what ``concat``'s backward gives wq, wk
    and wv); one of them takes no gradient at one step."""
    monkeypatch.setattr(TrainConfig, "adam_beta1", 0.8)
    monkeypatch.setattr(TrainConfig, "adam_beta2", 0.95)
    cfg = TrainConfig()
    chunk = train_module.ADAM_CHUNK
    shapes = {"flat": (2 * chunk + 3,), "wide": (3, chunk - 1)}
    rng = np.random.default_rng(8)
    init = {k: rng.normal(size=s) for k, s in shapes.items()}
    runs = []
    for update in (adam_update, _adam_reference):
        params = {k: Tensor(v.copy(), requires_grad=True)
                  for k, v in init.items()}
        state = OptimizerState.for_params(params)
        grad_rng = np.random.default_rng(9)
        for step in range(4):
            grads = {}
            for k, (*lead, n) in shapes.items():
                g = grad_rng.normal(scale=10.0 ** (step - 2),
                                    size=(*lead, 3 * n))
                grads[k] = g[..., :n] if layout == "column_slice" else \
                    np.ascontiguousarray(g[..., :n])
            if step == 2:
                del grads["wide"]
            update(params, grads, state, 0.5 * 0.9 ** step, cfg)
        runs.append((params, state))
    (p1, s1), (p2, s2) = runs
    for k in shapes:
        np.testing.assert_array_equal(p1[k].data, p2[k].data)
        np.testing.assert_array_equal(s1.m[k], s2.m[k])
        np.testing.assert_array_equal(s1.v[k], s2.v[k])


def test_adam_updates_the_parameter_and_moment_arrays_in_place():
    """The update lands in the arrays the caller holds, not in flat copies."""
    cfg = TrainConfig()
    shape = (3, train_module.ADAM_CHUNK)
    params = {"w": Tensor(np.ones(shape), requires_grad=True)}
    state = OptimizerState.for_params(params)
    held = (params["w"].data, state.m["w"], state.v["w"])
    adam_update(params, {"w": np.full(shape, 0.5)}, state, 0.1, cfg)
    assert all(a is b for a, b in zip(
        held, (params["w"].data, state.m["w"], state.v["w"])))
    for a in held:
        assert (a != 1.0).all() and (a != 0.0).all()


def test_adam_refuses_a_non_contiguous_parameter():
    cfg = TrainConfig()
    params = {"w": Tensor(np.ones((4, 3)), requires_grad=True)}
    state = OptimizerState.for_params(params)
    params["w"].data = np.ones((3, 4)).T
    with pytest.raises(ValueError, match="C-contiguous"):
        adam_update(params, {"w": np.ones((4, 3))}, state, 0.1, cfg)


def test_adam_allocates_less_than_one_parameter():
    """Chunks and two scratch rows: updating a parameter of about 1e6
    values, with a gradient and without one, allocates less than one
    full-size array."""
    cfg = TrainConfig()
    params = {k: Tensor(np.ones(1_000_003), requires_grad=True)
              for k in ("with_grad", "no_grad")}
    state = OptimizerState.for_params(params)
    grads = {"with_grad": np.full(1_000_003, 0.5)}
    tracemalloc.start()
    try:
        adam_update(params, grads, state, 0.1, cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < params["no_grad"].data.nbytes
    assert (params["with_grad"].data < 1.0).all()


def _one_row_loss(probs, label: int) -> float:
    return batch_loss(Tensor([probs]), np.array([label])).item()


@pytest.mark.filterwarnings("ignore:divide by zero:RuntimeWarning")
def test_cross_entropy_values():
    """batch_loss of one row is -ln p_label, with no floor under p."""
    assert _one_row_loss([1.0, 0.0], 0) == 0.0
    assert abs(_one_row_loss([0.5, 0.5], 0) - math.log(2)) < 1e-12
    assert _one_row_loss([0.0, 1.0], 0) == math.inf


def test_cross_entropy_non_negative():
    rng = np.random.default_rng(0)
    for _ in range(50):
        p = rng.dirichlet([1, 1])
        assert _one_row_loss(p, int(rng.integers(2))) >= 0.0


def test_batch_loss_matches_scalar_contract():
    probs = np.array([[0.9, 0.1], [0.25, 0.75]])
    labels = np.array([0, 1])
    want = -(math.log(0.9) + math.log(0.75)) / 2
    got = batch_loss(Tensor(probs), labels).item()
    assert abs(got - want) < 1e-12


def test_batch_loss_is_one_tape_node():
    with Tape() as tape:
        probs = Tensor([[0.9, 0.1], [0.25, 0.75]], requires_grad=True)
        batch_loss(probs, np.array([0, 1]))
    assert [node.op for node in tape.nodes] == ["nll"]


def test_saturated_prediction_keeps_loss_and_gradient():
    """p_y = 1e-20, far below any probability floor: the loss is -ln p_y
    and the logits still get a gradient, p - onehot(y)."""
    with Tape():
        logits = Tensor([[0.0, math.log(1e-20)]], requires_grad=True)
        loss = batch_loss(softmax(logits), np.array([1]))
    backward(loss)
    assert loss.item() == pytest.approx(-math.log(1e-20), rel=1e-15)
    np.testing.assert_allclose(logits.grad, [[1.0, -1.0]], rtol=1e-15)


def _subject(sid, cdr, age=70.0):
    return SubjectRecord(sid, "2023-01-01", age, 25, "F", cdr, "v.vol", {})


@pytest.mark.parametrize("train_set,val,scored,message", [
    ([], ["c"], None, "no training subjects"),
    (["a", "b"], [], None, "no validation subjects"),
    (["a", "b"], ["c"], ["a"], "the scored set has no AD subject"),
], ids=["no_train", "no_val", "scored_one_class"])
def test_fit_plan_refusals_are_plan_errors(train_set, val, scored, message):
    """Every split FitPlan refuses is a PlanError, the one error the train,
    cv and tune commands turn into exit 2."""
    subjects = {"a": _subject("a", 0.0, 70.0), "b": _subject("b", 1.0, 80.0),
                "c": _subject("c", 1.0, 75.0)}

    def pick(ids):
        return None if ids is None else [subjects[i] for i in ids]

    with pytest.raises(PlanError, match=message):
        FitPlan(pick(train_set), pick(val), pick(scored))


def test_fit_plan_fits_a_constant_age_to_a_zero_width_range():
    """A training set of one age is planned, not refused: its age range has
    zero width, and ``tabular_features`` scales every age by it to 0."""
    plan = FitPlan([_subject("a", 0.0, 70.0), _subject("b", 1.0, 70.0)],
                   [_subject("c", 1.0, 75.0)])
    assert (plan.stats.age_min, plan.stats.age_max) == (70.0, 70.0)


def test_config_validation():
    with pytest.raises(ValueError):
        TrainConfig(initial_lr=0.0)
    with pytest.raises(ValueError):
        TrainConfig(batch_size=0)


def test_train_zero_epochs_unchanged():
    samples = make_samples(8)
    cfg = TrainConfig(epochs=0, batch_size=4, seed=1)
    params = init_params(SMALL_MODEL, 5)
    before = flatten_params(params)
    best, history = train(SMALL_MODEL, params, samples[:6], samples[6:], cfg)
    assert history == []
    np.testing.assert_array_equal(flatten_params(best), before)


def test_train_loss_decreases_after_one_step():
    samples = make_samples(6, seed=3)
    model_cfg = ModelConfig(image_dims=(4, 8, 8, 1), tubelet=(2, 4, 4),
                            embed_dim=8, depth=1, heads=2, dropout_rate=0.0,
                            tabular_hidden=(8, 4))
    params = init_params(model_cfg, 5)
    cfg = TrainConfig(epochs=1, batch_size=6, initial_lr=1e-3, seed=2)
    loss_before, _ = evaluate(model_cfg, params, samples, 6)
    train(model_cfg, params, samples, samples, cfg)  # mutates params in place
    loss_after, _ = evaluate(model_cfg, params, samples, 6)
    assert loss_after < loss_before


def test_train_learns_separable_signal():
    samples = make_samples(24, seed=4)
    model_cfg = ModelConfig(image_dims=(4, 8, 8, 1), tubelet=(2, 4, 4),
                            embed_dim=16, depth=1, heads=2, dropout_rate=0.1,
                            tabular_hidden=(8, 4))
    cfg = TrainConfig(epochs=25, batch_size=6, initial_lr=3e-3, seed=7)
    params = init_params(model_cfg, 7)
    best, history = train(model_cfg, params, samples[:18], samples[18:], cfg)
    assert max(h.val_accuracy for h in history) >= 0.95
    _, acc = evaluate(model_cfg, best, samples[18:], 6)
    assert acc >= 0.95


def test_train_determinism_bitwise():
    samples = make_samples(10, seed=5)

    def run():
        params = init_params(SMALL_MODEL, 3)
        cfg = TrainConfig(epochs=3, batch_size=4, seed=11)
        best, history = train(SMALL_MODEL, params, samples[:8], samples[8:], cfg)
        return flatten_params(best), [(h.train_loss, h.val_loss,
                                       h.val_accuracy) for h in history]

    p1, h1 = run()
    p2, h2 = run()
    np.testing.assert_array_equal(p1, p2)
    assert h1 == h2


def test_train_leaves_no_reference_cycles():
    samples = make_samples(12, seed=4)
    params = init_params(SMALL_MODEL, 0)
    cfg = TrainConfig(initial_lr=1e-2, batch_size=4, epochs=2)
    enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        train(SMALL_MODEL, params, samples[:8], samples[8:], cfg)
        assert gc.collect() == 0
    finally:
        if enabled:
            gc.enable()


def _saturated_head(logit_ad: float) -> dict:
    """SMALL_MODEL parameters whose logits are (0, logit_ad) for any input."""
    params = init_params(SMALL_MODEL, 5)
    params["head.weight"].data[:] = 0.0
    params["head.bias"].data[:] = [0.0, logit_ad]
    return params


@pytest.mark.filterwarnings("ignore:divide by zero:RuntimeWarning")
def test_train_stops_on_infinite_loss_before_update():
    params = _saturated_head(-1e4)  # p_AD = exp(-1e4) = 0: loss +inf
    before = flatten_params(params)
    samples = make_samples(8)
    with pytest.raises(DivergenceError, match="loss inf at epoch 0, step 0"):
        train(SMALL_MODEL, params, samples[:6], samples[6:],
              TrainConfig(epochs=1, batch_size=3))
    np.testing.assert_array_equal(flatten_params(params), before)
    assert all(p.grad is None for p in params.values())


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_train_stops_on_non_finite_gradient_before_update():
    # p_AD = exp(-744), a subnormal: the loss is finite, but -1/(B p_AD)
    # overflows in the backward pass.
    params = _saturated_head(-744.0)
    before = flatten_params(params)
    samples = make_samples(8)
    with pytest.raises(DivergenceError,
                       match="non-finite gradient .* at epoch 0, step 0"):
        train(SMALL_MODEL, params, samples[:6], samples[6:],
              TrainConfig(epochs=1, batch_size=3))
    np.testing.assert_array_equal(flatten_params(params), before)


def test_train_best_checkpoint_selection():
    samples = make_samples(10, seed=6)
    params = init_params(SMALL_MODEL, 9)
    cfg = TrainConfig(epochs=4, batch_size=4, seed=13)
    best, history = train(SMALL_MODEL, params, samples[:8], samples[8:], cfg)
    best_acc = max(h.val_accuracy for h in history)
    _, acc = evaluate(SMALL_MODEL, best, samples[8:], 4)
    assert acc == best_acc


def test_predict_zero_weights_all_cn():
    from mixedvit.model import param_shapes
    params = {name: Tensor(np.zeros(shape), requires_grad=True)
              for name, shape in param_shapes(SMALL_MODEL).items()}
    samples = make_samples(5, seed=8)
    preds = predict(SMALL_MODEL, params, samples)
    assert len(preds) == 5
    assert all(p.p_ad == 0.5 and p.predicted == CN for p in preds)


def test_predict_repeatable():
    params = init_params(SMALL_MODEL, 10)
    samples = make_samples(7, seed=9)
    a = predict(SMALL_MODEL, params, samples)
    b = predict(SMALL_MODEL, params, samples)
    assert [(p.subject_id, p.p_ad) for p in a] == \
        [(p.subject_id, p.p_ad) for p in b]


def _list_batches(samples, batch_size):
    """(tabular, images, labels) of every batch, all stacked before the
    first forward pass from full-channel copies of each image."""
    out = []
    for start in range(0, len(samples), batch_size):
        group = samples[start:start + batch_size]
        out.append((np.stack([s.tabular for s in group]),
                    [np.stack([np.array(s.images[b]) for s in group])
                     for b in range(len(group[0].images))],
                    np.array([s.label for s in group], dtype=np.int64)))
    return out


def test_predict_and_evaluate_equal_forward_over_list_built_batches():
    model_cfg = dataclasses.replace(SMALL_MODEL, image_dims=(4, 8, 8, 3))
    params = init_params(model_cfg, 11)
    # Each image a read-only 3-channel view of one plane, as build_samples
    # stores it; scaling by [0, 1] leaves the values as they are.
    samples = [MixedSample(s.subject_id, s.tabular,
                           [scale_volume(s.images[0][..., 0], 0.0, 1.0, 3)],
                           s.label)
               for s in make_samples(7, seed=12)]
    p_ad, total_loss, correct = [], 0.0, 0
    for tabular, images, labels in _list_batches(samples, 3):
        probs = forward_batch(model_cfg, params, tabular, images,
                              training=False)
        p_ad += probs.data[:, AD].tolist()
        total_loss += batch_loss(probs, labels).item() * len(labels)
        correct += int(((probs.data[:, AD] > 0.5) == labels).sum())
    preds = predict(model_cfg, params, samples, 3)
    assert [p.subject_id for p in preds] == [s.subject_id for s in samples]
    assert [p.p_ad for p in preds] == p_ad
    assert evaluate(model_cfg, params, samples, 3) == (total_loss / 7,
                                                       correct / 7)


def test_train_frees_each_steps_gradients_before_the_next_forward(
        monkeypatch):
    """Every gradient that ``adam_update`` was given is freed before the
    next forward pass, so no backward runs beside the previous step's
    gradients."""
    refs, forwards = [], []

    def adam_spy(params, grads, state, lr, config):
        refs.extend(weakref.ref(g) for g in grads.values() if g is not None)
        adam_update(params, grads, state, lr, config)

    def forward_spy(*args, **kwargs):
        alive = [ref for ref in refs if ref() is not None]
        assert not alive, f"{len(alive)} of {len(refs)} gradients alive"
        forwards.append(len(refs))
        return forward_batch(*args, **kwargs)

    monkeypatch.setattr(train_module, "adam_update", adam_spy)
    monkeypatch.setattr(train_module, "forward_batch", forward_spy)
    samples = make_samples(10, seed=13)
    params = init_params(SMALL_MODEL, 4)
    train(SMALL_MODEL, params, samples[:7], samples[7:],
          TrainConfig(initial_lr=1e-3, batch_size=4, epochs=2, seed=5))
    # 2 steps and 1 validation batch an epoch; every parameter has a
    # gradient at every step.
    assert len(refs) == 4 * len(params)
    assert forwards == [0, len(params), 2 * len(params),
                        2 * len(params), 3 * len(params), 4 * len(params)]


def test_each_step_decays_the_lr_by_the_adam_steps_before_it(monkeypatch):
    """Step n of a run, counted across epochs from 0, updates at
    ``lr_at_step(n)``, n being the Adam state's count when it starts; an
    epoch's history row records its last step's rate."""
    seen = []

    def adam_spy(params, grads, state, lr, config):
        seen.append((state.step, lr))
        adam_update(params, grads, state, lr, config)

    monkeypatch.setattr(train_module, "adam_update", adam_spy)
    samples = make_samples(10, seed=13)
    cfg = TrainConfig(initial_lr=1e-3, batch_size=4, epochs=3, seed=5)
    _, history = train(SMALL_MODEL, init_params(SMALL_MODEL, 4), samples[:7],
                       samples[7:], cfg)
    assert [step for step, _ in seen] == list(range(6))
    assert [lr for _, lr in seen] == [lr_at_step(cfg, n) for n in range(6)]
    assert [h.lr for h in history] == [seen[n][1] for n in (1, 3, 5)]


def test_history_csv(tmp_path):
    rows = [EpochStats(0, 0.5, 0.6, 0.75, 1e-4),
            EpochStats(1, 0.4, 0.55, 0.8, 9.9e-5)]
    path = tmp_path / "history.csv"
    save_rows(rows, EpochStats, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "epoch,train_loss,val_loss,val_accuracy,lr"
    assert lines[1].startswith("0,0.5,0.6,0.75,")
    assert len(lines) == 3
