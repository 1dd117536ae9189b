import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mixedvit.data import AD, CN
from mixedvit.metrics import (
    ConfusionMatrix,
    DegenerateVarianceError,
    accuracy,
    auc_trapezoid,
    confusion,
    format_mean_std,
    mean_std,
    one_way_anova,
    roc_points,
    stratified_kfold,
    t_test,
)
from mixedvit.train import PlanError, Prediction

from helpers import auc_mannwhitney, reference_confusion, reference_roc_points


def preds(pairs):
    return [Prediction(f"S{i}", 0.5, p, t) for i, (p, t) in enumerate(pairs)]


# --- folds ------------------------------------------------------------------


def test_kfold_14_subjects_7_folds():
    ids = [f"C{i}" for i in range(7)] + [f"A{i}" for i in range(7)]
    labels = {sid: CN if sid.startswith("C") else AD for sid in ids}
    folds = stratified_kfold(ids, labels, 7, np.random.default_rng(0))
    assert len(folds) == 7
    for fold in folds:
        assert len(fold) == 2
        assert sorted(labels[s] for s in fold) == [CN, AD]


def test_kfold_partition_law():
    rng = np.random.default_rng(1)
    ids = [f"S{i}" for i in range(53)]
    labels = {sid: int(rng.integers(2)) for sid in ids}
    while min(sum(1 for v in labels.values() if v == c) for c in (0, 1)) < 7:
        labels = {sid: int(rng.integers(2)) for sid in ids}
    folds = stratified_kfold(ids, labels, 7, rng)
    flat = [s for f in folds for s in f]
    assert sorted(flat) == sorted(ids)
    sizes = [len(f) for f in folds]
    assert max(sizes) - min(sizes) <= 1
    for c in (0, 1):
        per_fold = [sum(1 for s in f if labels[s] == c) for f in folds]
        assert max(per_fold) - min(per_fold) <= 1


def test_kfold_k1_degenerate():
    with pytest.raises(PlanError):
        stratified_kfold(["a", "b"], {"a": 0, "b": 1}, 1,
                         np.random.default_rng(0))


def test_kfold_class_smaller_than_k():
    ids = ["a", "b", "c"]
    labels = {"a": 0, "b": 0, "c": 1}
    with pytest.raises(PlanError):
        stratified_kfold(ids, labels, 2, np.random.default_rng(0))


# --- confusion / accuracy ---------------------------------------------------


def test_confusion_counting():
    cm = confusion(preds([(AD, AD), (AD, CN), (CN, CN), (CN, CN)]))
    assert (cm.tp, cm.fp, cm.tn, cm.fn) == (1, 1, 2, 0)
    assert accuracy(cm) == 0.75


def test_confusion_all_correct_and_all_wrong():
    assert accuracy(confusion(preds([(AD, AD), (CN, CN)]))) == 1.0
    assert accuracy(confusion(preds([(AD, CN), (CN, AD)]))) == 0.0


def test_confusion_empty_errors():
    with pytest.raises(ValueError):
        confusion([])


def test_confusion_equals_the_loop():
    rng = np.random.default_rng(8)
    for _ in range(200):
        n = int(rng.integers(1, 40))
        pairs = rng.integers(0, 3, size=(n, 2))  # 2 is neither class
        got = confusion(preds(pairs.tolist()))
        assert got == reference_confusion(preds(pairs.tolist()))


def test_accuracy_complement_identity():
    rng = np.random.default_rng(2)
    for _ in range(30):
        pairs = [(int(rng.integers(2)), int(rng.integers(2)))
                 for _ in range(int(rng.integers(1, 40)))]
        cm = confusion(preds(pairs))
        assert 0.0 <= accuracy(cm) <= 1.0
        assert abs(accuracy(cm) - (1 - (cm.fp + cm.fn) / cm.total)) < 1e-12


# --- ROC / AUC ---------------------------------------------------------------


def test_roc_perfect_separation():
    points = roc_points([0.9, 0.8, 0.3, 0.1], [AD, AD, CN, CN])
    assert auc_trapezoid(points) == 1.0
    assert (points[0].fpr, points[0].tpr) == (0.0, 0.0)
    assert (points[-1].fpr, points[-1].tpr) == (1.0, 1.0)


def test_roc_mann_whitney_example():
    scores = [0.9, 0.6, 0.4, 0.1]
    labels = [AD, CN, AD, CN]
    assert abs(auc_trapezoid(roc_points(scores, labels)) - 0.75) < 1e-12
    assert abs(auc_mannwhitney(scores, labels) - 0.75) < 1e-12


def test_roc_all_equal_chance():
    scores = [0.5] * 6
    labels = [AD, CN, AD, CN, AD, CN]
    assert abs(auc_trapezoid(roc_points(scores, labels)) - 0.5) < 1e-12


def test_roc_single_class_errors():
    with pytest.raises(ValueError):
        roc_points([0.4, 0.6], [AD, AD])
    with pytest.raises(ValueError):
        auc_mannwhitney([0.4, 0.6], [CN, CN])


def test_roc_monotone_sequence():
    rng = np.random.default_rng(3)
    for _ in range(50):
        n = int(rng.integers(2, 30))
        labels = np.concatenate([[AD, CN], rng.integers(0, 2, size=n)])
        scores = np.round(rng.random(n + 2), 2)  # rounding forces ties
        points = roc_points(scores, labels)
        for a, b in zip(points[:-1], points[1:]):
            assert a.threshold > b.threshold
            assert b.fpr >= a.fpr and b.tpr >= a.tpr


def test_roc_points_equal_the_loop_bit_for_bit():
    """Tie-heavy scores, signed zeros among them, and labels outside the
    two classes."""
    rng = np.random.default_rng(9)
    for _ in range(2000):
        n = int(rng.integers(0, 40))
        labels = np.concatenate([[AD, CN], rng.integers(0, 3, size=n)])
        scores = np.round(rng.random(n + 2), int(rng.integers(0, 3)))
        scores[rng.random(n + 2) < 0.1] *= -0.0
        got = roc_points(scores, labels)
        want = reference_roc_points(scores, labels)
        assert [(p.fpr, p.tpr, p.threshold) for p in got] == \
            [(p.fpr, p.tpr, p.threshold) for p in want]
        assert [math.copysign(1.0, p.threshold) for p in got] == \
            [math.copysign(1.0, p.threshold) for p in want]


def test_auc_oracle_equivalence_200_random():
    rng = np.random.default_rng(4)
    for _ in range(200):
        n = int(rng.integers(2, 51))
        labels = np.concatenate([[AD, CN], rng.integers(0, 2, size=n)])
        scores = np.round(rng.random(n + 2), 1)
        a = auc_trapezoid(roc_points(scores, labels))
        b = auc_mannwhitney(scores, labels)
        assert abs(a - b) < 1e-9


def test_auc_tie_single_pair():
    assert auc_mannwhitney([0.5, 0.5], [AD, CN]) == 0.5


def test_auc_label_swap_symmetry():
    rng = np.random.default_rng(5)
    scores = rng.random(20)
    labels = np.array([AD, CN] * 10)
    a = auc_mannwhitney(scores, labels)
    b = auc_mannwhitney(scores, 1 - labels)
    assert abs(a + b - 1.0) < 1e-12


# --- mean / std ---------------------------------------------------------------


def test_mean_std_identical_values():
    mean, std = mean_std([98.33] * 7)
    assert format_mean_std(mean, std) == "98.33 ± 0.00"


def test_mean_std_hand_computed():
    mean, std = mean_std([1.0, 2.0, 3.0])
    assert mean == 2.0 and std == 1.0


def test_mean_std_of_equal_fold_accuracies_is_exact():
    """2-10 folds that all score k/n (n <= 20 test subjects): the mean is
    k/n and the std 0.0, exactly; the float mean of equal values can miss
    the value by an ulp, and gave 268 of these sets a std near 1e-16."""
    for n in range(1, 21):
        for k in range(n + 1):
            for folds in range(2, 11):
                assert mean_std([k / n] * folds) == (k / n, 0.0)


def test_mean_std_single_value():
    mean, std = mean_std([4.25])
    assert format_mean_std(mean, std) == "4.25 ± 0.00"


def test_mean_std_empty_errors():
    with pytest.raises(ValueError):
        mean_std([])


# --- t-test / ANOVA -----------------------------------------------------------


def test_t_test_identical_samples():
    t, df, p = t_test([1.0, 2.0, 3.0], [1.0, 2.0, 3.0])
    assert t == 0.0 and p == 1.0 and df == 4


def test_t_test_textbook_example():
    t, df, p = t_test([1, 2, 3, 4, 5], [2, 3, 4, 5, 6])
    assert abs(t - (-1.0)) < 1e-12
    assert df == 8
    # p frozen from the high-precision incomplete-beta oracle (mpmath)
    assert abs(p - 0.34659350708733424) < 1e-4


def test_t_test_antisymmetry():
    a = [1.0, 2.5, 3.0, 4.2]
    b = [2.0, 3.1, 4.4]
    t1, df1, p1 = t_test(a, b)
    t2, df2, p2 = t_test(b, a)
    assert abs(t1 + t2) < 1e-12 and df1 == df2
    assert abs(p1 - p2) < 1e-12


# Every fraction k/n with n <= 20: a fold accuracy of n test subjects.
FRACTIONS = sorted({k / n for n in range(1, 21) for k in range(n + 1)})


def test_t_test_degenerate_variance():
    assert t_test([2.0, 2.0], [2.0, 2.0]) == (0.0, 2, 1.0)
    with pytest.raises(DegenerateVarianceError):
        t_test([2.0, 2.0], [3.0, 3.0])
    # Constancy is decided by the values: the float mean of 7 copies of
    # 2/3 is not the mean of 10, and was read as a spread (t = -2.49).
    assert t_test([2 / 3] * 7, [2 / 3] * 10) == (0.0, 15, 1.0)
    assert t_test([0.1] * 3, [0.1] * 7) == (0.0, 8, 1.0)
    with pytest.raises(DegenerateVarianceError):
        t_test([0.1] * 3, [0.2] * 7)
    for value in FRACTIONS:
        for n_a in range(2, 11):
            for n_b in range(2, 11):
                assert t_test([value] * n_a, [value] * n_b) == \
                    (0.0, n_a + n_b - 2, 1.0)
    # A spread that underflows to zero variance keeps the same rules.
    assert t_test([0.0, 1.5e-308], [0.0, 1.5e-308]) == (0.0, 2, 1.0)
    with pytest.raises(DegenerateVarianceError):
        t_test([0.0, 1.5e-308], [1.0, 1.0])


def _mp_groups(rng):
    """2-4 random groups of 2-12 values at random locations, and the same
    values as 40-digit mpmath numbers."""
    groups = [rng.normal(loc=rng.normal(scale=0.5), size=int(rng.integers(2, 13)))
              for _ in range(int(rng.integers(2, 5)))]
    return groups, [[mp.mpf(float(v)) for v in g] for g in groups]


def _mp_mean_ss(g):
    mean = mp.fsum(g) / len(g)
    return mean, mp.fsum((v - mean) ** 2 for v in g)


def test_t_test_p_matches_mpmath():
    mp.mp.dps = 40
    rng = np.random.default_rng(6)
    for _ in range(100):
        (a, b, *_), (ma, mb, *_) = _mp_groups(rng)
        (mean_a, ss_a), (mean_b, ss_b) = _mp_mean_ss(ma), _mp_mean_ss(mb)
        df = len(a) + len(b) - 2
        t = (mean_a - mean_b) / mp.sqrt(
            (ss_a + ss_b) / df * (mp.mpf(1) / len(a) + mp.mpf(1) / len(b)))
        want = mp.betainc(mp.mpf(df) / 2, mp.mpf(1) / 2, 0, df / (df + t * t),
                          regularized=True)
        got_t, got_df, got_p = t_test(a, b)
        assert got_df == df
        assert abs(got_t - float(t)) <= 1e-12 * max(1.0, abs(float(t)))
        assert abs(got_p - float(want)) < 1e-12


def test_anova_p_matches_mpmath():
    mp.mp.dps = 40
    rng = np.random.default_rng(7)
    for _ in range(100):
        groups, mgroups = _mp_groups(rng)
        stats = [_mp_mean_ss(g) for g in mgroups]
        n = sum(len(g) for g in groups)
        dfb, dfw = len(groups) - 1, n - len(groups)
        grand = mp.fsum(v for g in mgroups for v in g) / n
        ss_between = mp.fsum(len(g) * (mean - grand) ** 2
                             for g, (mean, _) in zip(mgroups, stats))
        f = (ss_between / dfb) / (mp.fsum(ss for _, ss in stats) / dfw)
        # Upper tail of the F distribution, the complement of the form
        # one_way_anova evaluates.
        want = mp.betainc(mp.mpf(dfb) / 2, mp.mpf(dfw) / 2,
                          dfb * f / (dfb * f + dfw), 1, regularized=True)
        got_f, got_dfb, got_dfw, got_p = one_way_anova(groups)
        assert (got_dfb, got_dfw) == (dfb, dfw)
        assert abs(got_f - float(f)) <= 1e-12 * max(1.0, float(f))
        assert abs(got_p - float(want)) < 1e-12


def test_anova_identical_groups():
    f, dfb, dfw, p = one_way_anova([[1, 2, 3], [1, 2, 3], [1, 2, 3]])
    assert f == 0.0 and p == 1.0
    assert dfb == 2 and dfw == 6
    # Constancy is decided by the values: the float means of 3 and of 7
    # copies of 0.1 differ, and were read as a spread (F = 8, p = 0.022).
    assert one_way_anova([[0.1] * 3, [0.1] * 7]) == (0.0, 1, 8, 1.0)
    for value in FRACTIONS:
        for n_a in range(2, 11):
            for n_b in range(2, 11):
                assert one_way_anova([[value] * n_a, [value] * n_b,
                                      [value] * 2]) == \
                    (0.0, 2, n_a + n_b - 1, 1.0)


def test_anova_equals_t_squared_for_two_groups():
    rng = np.random.default_rng(7)
    for _ in range(25):
        a = rng.normal(size=int(rng.integers(2, 12)))
        b = rng.normal(loc=rng.normal(), size=int(rng.integers(2, 12)))
        t, df, pt = t_test(a, b)
        f, dfb, dfw, pf = one_way_anova([a, b])
        assert abs(f - t * t) < 1e-9
        assert pt == pf  # t_test returns ANOVA's p, bit for bit
        assert dfb == 1 and dfw == df


def test_anova_detects_separation():
    groups = [[0.0, 0.01, -0.01, 0.005], [5.0, 5.01, 4.99, 5.005],
              [10.0, 10.01, 9.99, 10.002]]
    f, _, _, p = one_way_anova(groups)
    assert p < 0.05


def test_anova_zero_within_nonzero_between():
    with pytest.raises(DegenerateVarianceError):
        one_way_anova([[1.0, 1.0], [2.0, 2.0]])
    with pytest.raises(DegenerateVarianceError):
        one_way_anova([[0.1] * 3, [0.2] * 7])


def test_anova_validation():
    with pytest.raises(ValueError):
        one_way_anova([[1.0, 2.0]])
    with pytest.raises(ValueError):
        one_way_anova([[1.0], [2.0, 3.0]])


@given(st.lists(st.floats(-100, 100), min_size=2, max_size=12),
       st.lists(st.floats(-100, 100), min_size=2, max_size=12))
@settings(max_examples=50, deadline=None)
def test_t_test_p_in_unit_interval(a, b):
    try:
        _, _, p = t_test(a, b)
    except DegenerateVarianceError:
        return
    assert 0.0 <= p <= 1.0
