import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from satgate.metrics import (
    CUSRating,
    UndefinedMetricError,
    accuracy_with_tuned_threshold,
    auc,
    cla,
    cus,
    precision_recall_table,
)


# --- brute-force oracles ----------------------------------------------------


def auc_pairwise(scores, labels):
    scores = np.asarray(scores, float)
    labels = np.asarray(labels)
    pos = scores[labels == 1]
    neg = scores[labels == 0]
    total = 0.0
    for p in pos:
        for q in neg:
            if p > q:
                total += 1.0
            elif p == q:
                total += 0.5
    return total / (len(pos) * len(neg))


def cla_enumerate(scores, labels, floor):
    scores = np.asarray(scores, float)
    labels = np.asarray(labels)
    n_pos = int(np.sum(labels == 1))
    best = 0.0
    for t in np.unique(scores):
        pred = scores >= t
        npred = int(pred.sum())
        if npred == 0:
            continue
        tp = int(np.sum(pred & (labels == 1)))
        if tp / npred >= floor:
            best = max(best, tp / n_pos)
    return best


def accuracy_enumerate(scores, labels):
    scores = np.asarray(scores, float)
    labels = np.asarray(labels)
    best_acc, best_t = -1.0, None
    for t in np.arange(101) / 100.0:
        acc = float(np.mean((scores >= t) == (labels == 1)))
        if acc > best_acc:
            best_acc, best_t = acc, t
    return best_acc, best_t


def _random_instance(rng, max_size=200):
    n = int(rng.integers(2, max_size + 1))
    labels = rng.integers(0, 2, n)
    if labels.min() == labels.max():
        labels[0] = 1 - labels[0]
    # quantized scores provoke ties
    scores = np.round(rng.uniform(0, 1, n), int(rng.integers(1, 4)))
    return scores, labels


# --- auc ---------------------------------------------------------------------


def test_auc_perfect_separation():
    assert auc([0.9, 0.8, 0.2, 0.1], [1, 1, 0, 0]) == 1.0


def test_auc_all_ties():
    assert auc([0.5, 0.5, 0.5, 0.5], [1, 0, 1, 0]) == 0.5


def test_auc_matches_pairwise_oracle(rng):
    for _ in range(25):
        scores, labels = _random_instance(rng)
        assert abs(auc(scores, labels) - auc_pairwise(scores, labels)) < 1e-9


def test_auc_single_class_raises():
    with pytest.raises(UndefinedMetricError):
        auc([0.1, 0.9], [1, 1])


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10_000), st.sampled_from(["affine", "cube", "exp"]))
def test_auc_invariant_under_monotone_transforms(seed, kind):
    rng = np.random.default_rng(seed)
    scores, labels = _random_instance(rng, max_size=60)
    if kind == "affine":
        transformed = 3.0 * scores + 1.5
    elif kind == "cube":
        transformed = scores**3
    else:
        transformed = np.exp(scores)
    assert abs(auc(scores, labels) - auc(transformed, labels)) < 1e-12


@pytest.mark.parametrize("kind", ["tied", "untied", "constant"])
def test_auc_equals_the_rankdata_formula_bit_for_bit(rng, kind):
    """The numpy average ranks are rankdata's doubles, so AUC is unchanged to
    the last bit."""
    from scipy.stats import rankdata

    for _ in range(50):
        scores, labels = _random_instance(rng)
        if kind == "untied":
            scores = rng.permutation(len(scores)) / len(scores) + rng.uniform(0, 1e-3)
        elif kind == "constant":
            scores = np.full(len(scores), float(rng.uniform(0, 1)))
        n_pos = int(labels.sum())
        n_neg = len(labels) - n_pos
        want = (float(rankdata(scores)[labels == 1].sum()) - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg)
        assert auc(scores, labels).hex() == want.hex()


@pytest.mark.parametrize("metric", [auc, cla, accuracy_with_tuned_threshold, precision_recall_table])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_score_fails_naming_its_index(metric, bad):
    scores = [0.2, 0.9, 0.4, 0.7]
    scores[2] = bad
    with pytest.raises(ValueError, match=rf"score 2 is {bad!r}"):
        metric(scores, [0, 1, 0, 1])


# --- cla ----------------------------------------------------------------------


def test_cla_perfect_classifier():
    assert cla([0.9, 0.8, 0.1, 0.2], [1, 1, 0, 0]) == 1.0


def test_cla_uninformative_scores_below_floor():
    scores = [0.5] * 10
    labels = [1, 0] * 5
    # the single operating point has precision 0.5 < 0.85
    assert cla_enumerate(scores, labels, 0.85) == 0.0
    assert cla(scores, labels) == 0.0


def test_cla_matches_enumeration_oracle(rng):
    for _ in range(25):
        scores, labels = _random_instance(rng)
        expected = cla_enumerate(scores, labels, 0.85)
        assert abs(cla(scores, labels) - expected) < 1e-9


def test_cla_non_increasing_in_floor(rng):
    scores, labels = _random_instance(rng)
    values = [cla(scores, labels, floor) for floor in (0.1, 0.3, 0.5, 0.7, 0.9)]
    assert all(a >= b - 1e-12 for a, b in zip(values, values[1:]))


# --- tuned-threshold accuracy ---------------------------------------------------


def test_accuracy_all_positive_labels():
    acc, threshold = accuracy_with_tuned_threshold([0.3, 0.9, 0.0], [1, 1, 1])
    assert acc == 1.0
    assert threshold == 0.0


def test_accuracy_scores_equal_labels():
    acc, _ = accuracy_with_tuned_threshold([1.0, 0.0, 1.0], [1, 0, 1])
    assert acc == 1.0


def test_accuracy_matches_grid_oracle(rng):
    for _ in range(25):
        scores, labels = _random_instance(rng, max_size=50)
        acc, threshold = accuracy_with_tuned_threshold(scores, labels)
        exp_acc, exp_t = accuracy_enumerate(scores, labels)
        assert abs(acc - exp_acc) < 1e-12
        assert abs(threshold - exp_t) < 1e-12


def test_precision_recall_table_shape():
    rows = precision_recall_table([0.2, 0.8], [0, 1])
    assert [r[0] for r in rows] == [k / 100 for k in range(101)]
    assert rows[0][1:] == (0.5, 1.0)
    assert rows[50][1:] == (1.0, 1.0)
    assert np.isnan(rows[100][1]) and rows[100][2] == 0.0


def test_score_on_a_grid_threshold_counts_as_positive_there():
    """The PR table and the accuracy search share one grid, so a score of
    exactly 0.35 is predicted positive at the 0.35 row of both."""
    scores, labels = [0.35, 0.349], [1, 0]
    rows = {t: (precision, recall) for t, precision, recall in precision_recall_table(scores, labels)}
    assert rows[0.35] == (1.0, 1.0)
    assert rows[0.36][1] == 0.0
    assert accuracy_with_tuned_threshold(scores, labels) == (1.0, 0.35)


# --- cus -------------------------------------------------------------------------


def test_cus_identity_and_annihilator():
    assert cus(1.0, 1.0).contextual == 1.0
    for x in (0.0, 0.3, 1.0):
        assert cus(0.0, x).contextual == 0.0
        assert cus(x, 1.0).contextual == x


def test_cus_worked_example():
    assert abs(cus(0.87, 0.4).contextual - 0.348) < 1e-12


def test_cus_out_of_range():
    with pytest.raises(ValueError):
        cus(1.2, 0.5)
    with pytest.raises(ValueError):
        cus(0.5, -0.1)


def test_cus_rating_invariant():
    with pytest.raises(ValueError):
        CUSRating(turn_rating_n=0.5, turn_rating_next=0.5, contextual=0.3)


@settings(max_examples=200, deadline=None)
@given(st.floats(0, 1), st.floats(0, 1))
def test_cus_laws(a, b):
    r = cus(a, b)
    assert r.contextual == a * b
    assert cus(b, a).contextual == r.contextual
    assert r.contextual <= min(a, b) + 1e-15


@settings(max_examples=100, deadline=None)
@given(st.floats(0, 1), st.floats(0, 1), st.floats(0, 1))
def test_cus_monotone(a, b, c):
    lo, hi = sorted((b, c))
    assert cus(a, lo).contextual <= cus(a, hi).contextual + 1e-15

