"""Learner behavior: guards, exact invariants, persistence round trips."""
from __future__ import annotations

import json
import math
import sys

import numpy as np
import pytest

from apigram.errors import (
    ConfigError,
    CorruptModel,
    DegenerateData,
    DimensionMismatch,
    NonFiniteInput,
    Unsupported,
    VersionMismatch,
)
from apigram.labels import ALL_LABELS, ClassLabel
from apigram.models import boosting, cart, forest, neighbors, svm
from apigram.models import (
    DEFAULT_PARAMS,
    ClassDistribution,
    HyperParams,
    ModelKind,
    load_model,
    predict,
    predict_matrix,
    predict_proba,
    save_model,
    train,
)
from apigram.vectorize import FeatureMatrix

ALL_KINDS = list(ModelKind)

# Small hyperparameters so the whole suite trains dozens of models quickly.
FAST_PARAMS = {
    ModelKind.DECISION_TREE: {},
    ModelKind.RANDOM_FOREST: {"n_trees": 10},
    ModelKind.GRADIENT_BOOSTED_TREES: {"n_rounds": 8},
    ModelKind.K_NEAREST_NEIGHBORS: {},
    ModelKind.MULTINOMIAL_NAIVE_BAYES: {},
    ModelKind.LINEAR_SVM: {"epochs": 10},
}


def _matrix(dense, labels=None, ids=None):
    dense = np.asarray(dense, dtype=float)
    if labels is None:
        labels = [ALL_LABELS[i % 8] for i in range(dense.shape[0])]
    rows = tuple({j: float(v) for j, v in enumerate(r) if v != 0.0} for r in dense)
    return FeatureMatrix.from_rows(
        rows=rows,
        n_cols=dense.shape[1],
        sample_ids=tuple(ids or (f"s{i}" for i in range(dense.shape[0]))),
        labels=tuple(labels),
    )


def _clustered(rng, per_class=5, dim=16, noise=0.05):
    """Linearly separable 8-class corpus with nonnegative weights."""
    dense, labels = [], []
    for c in range(8):
        for _ in range(per_class):
            x = np.zeros(dim)
            x[2 * c] = 1.0 + noise * rng.random()
            x[2 * c + 1] = 0.5 + noise * rng.random()
            dense.append(x)
            labels.append(ALL_LABELS[c])
    return _matrix(np.array(dense), labels)


def _fast_model(kind, matrix, seed=0):
    return train(kind, matrix, params=HyperParams(seed=seed, values=FAST_PARAMS[kind]))


# ---------------------------------------------------------------------------
# Training guards
# ---------------------------------------------------------------------------

def test_training_requires_two_distinct_classes():
    matrix = _matrix([[1.0], [2.0]], [ClassLabel.TROJAN, ClassLabel.TROJAN])
    for kind in ALL_KINDS:
        with pytest.raises(DegenerateData):
            train(kind, matrix)


def test_training_requires_rows_and_features():
    empty_rows = FeatureMatrix.from_rows(rows=(), n_cols=3, sample_ids=(), labels=())
    no_features = _matrix(np.zeros((2, 0)), [ClassLabel.TROJAN, ClassLabel.BENIGN])
    with pytest.raises(DegenerateData):
        train(ModelKind.DECISION_TREE, empty_rows)
    with pytest.raises(DegenerateData):
        train(ModelKind.DECISION_TREE, no_features)


def test_training_rejects_non_finite_weights():
    matrix = FeatureMatrix.from_rows(
        rows=({0: float("nan")}, {0: 1.0}),
        n_cols=1,
        sample_ids=("a", "b"),
        labels=(ClassLabel.TROJAN, ClassLabel.BENIGN),
    )
    with pytest.raises(NonFiniteInput):
        train(ModelKind.DECISION_TREE, matrix)


def test_training_rejects_out_of_range_column_indices():
    with pytest.raises(DimensionMismatch):
        FeatureMatrix.from_rows(
            rows=({0: 1.0}, {5: 1.0}),
            n_cols=2,
            sample_ids=("a", "b"),
            labels=(ClassLabel.TROJAN, ClassLabel.BENIGN),
        )


def test_hyperparams_reject_unknown_keys_and_bad_ranges():
    matrix = _matrix([[1.0], [2.0]], [ClassLabel.TROJAN, ClassLabel.BENIGN])
    bad = [
        (ModelKind.DECISION_TREE, {"k": 3}),
        (ModelKind.DECISION_TREE, {"max_depth": -1}),
        (ModelKind.DECISION_TREE, {"min_samples_leaf": 0}),
        (ModelKind.RANDOM_FOREST, {"n_trees": 0}),
        (ModelKind.RANDOM_FOREST, {"max_features": "half"}),
        (ModelKind.GRADIENT_BOOSTED_TREES, {"learning_rate": 0.0}),
        (ModelKind.GRADIENT_BOOSTED_TREES, {"learning_rate": 1.5}),
        (ModelKind.GRADIENT_BOOSTED_TREES, {"n_rounds": 0}),
        (ModelKind.K_NEAREST_NEIGHBORS, {"k": 0}),
        (ModelKind.MULTINOMIAL_NAIVE_BAYES, {"alpha": 0.0}),
        (ModelKind.LINEAR_SVM, {"epochs": 0}),
        (ModelKind.LINEAR_SVM, {"reg_lambda": 0.0}),
        (ModelKind.GRADIENT_BOOSTED_TREES, {"learning_rate": "abc"}),
        (ModelKind.GRADIENT_BOOSTED_TREES, {"reg_lambda": float("inf")}),
        (ModelKind.RANDOM_FOREST, {"max_features": True}),
        (ModelKind.RANDOM_FOREST, {"bootstrap": "maybe"}),
        (ModelKind.RANDOM_FOREST, {"n_trees": False}),
        (ModelKind.K_NEAREST_NEIGHBORS, {"k": 2.7}),
        (ModelKind.DECISION_TREE, {"max_depth": 2.5}),
        (ModelKind.MULTINOMIAL_NAIVE_BAYES, {"alpha": "1.0"}),
    ]
    for kind, values in bad:
        with pytest.raises(ConfigError):
            train(kind, matrix, params=HyperParams(values=values))


def test_model_kind_aliases():
    assert ModelKind.from_name("gbt") is ModelKind.GRADIENT_BOOSTED_TREES
    assert ModelKind.from_name("svm") is ModelKind.LINEAR_SVM
    assert ModelKind.from_name("nb") is ModelKind.MULTINOMIAL_NAIVE_BAYES
    assert ModelKind.from_name("RandomForest") is ModelKind.RANDOM_FOREST
    with pytest.raises(ConfigError):
        ModelKind.from_name("perceptron")


# ---------------------------------------------------------------------------
# Decision tree
# ---------------------------------------------------------------------------

def test_tree_memorizes_four_distinct_rows():
    matrix = _matrix([[0.0], [1.0], [2.0], [3.0]], list(ALL_LABELS[:4]))
    model = train(ModelKind.DECISION_TREE, matrix)
    assert predict_matrix(model, matrix) == list(ALL_LABELS[:4])


def test_tree_split_ties_prefer_the_lowest_feature():
    matrix = _matrix([[0.0, 0.0], [1.0, 1.0]], [ClassLabel.TROJAN, ClassLabel.BENIGN])
    model = train(ModelKind.DECISION_TREE, matrix)
    root = model.learner.nodes[0]
    assert root["f"] == 0
    assert root["t"] == pytest.approx(0.5)


def test_tree_split_ties_prefer_the_lowest_threshold():
    labels = [ClassLabel.TROJAN, ClassLabel.BENIGN, ClassLabel.TROJAN]
    matrix = _matrix([[0.0], [1.0], [2.0]], labels)
    model = train(ModelKind.DECISION_TREE, matrix)
    assert model.learner.nodes[0]["t"] == pytest.approx(0.5)


def test_unbounded_tree_fits_distinct_rows_perfectly():
    rng = np.random.default_rng(83)
    for _ in range(10):
        n = int(rng.integers(8, 40))
        dense = rng.random((n, 5))
        labels = [ALL_LABELS[int(rng.integers(0, 8))] for _ in range(n)]
        if len({label.ordinal for label in labels}) < 2:
            labels[0] = ALL_LABELS[0]
            labels[1] = ALL_LABELS[1]
        matrix = _matrix(dense, labels)
        model = train(ModelKind.DECISION_TREE, matrix)
        assert predict_matrix(model, matrix) == labels


def test_tree_fit_is_invariant_under_row_permutation():
    rng = np.random.default_rng(89)
    dense = rng.integers(0, 4, size=(24, 6)).astype(float)
    labels = [ALL_LABELS[int(rng.integers(0, 8))] for i in range(24)]
    base = train(ModelKind.DECISION_TREE, _matrix(dense, labels))
    perm = rng.permutation(24)
    shuffled = train(
        ModelKind.DECISION_TREE, _matrix(dense[perm], [labels[i] for i in perm])
    )
    assert base.learner.to_payload() == shuffled.learner.to_payload()


def test_depth_one_tree_has_a_single_split():
    rng = np.random.default_rng(97)
    matrix = _clustered(rng)
    model = train(
        ModelKind.DECISION_TREE, matrix, params=HyperParams(values={"max_depth": 1})
    )
    internal = [n for n in model.learner.nodes if "f" in n]
    assert len(internal) == 1


# ---------------------------------------------------------------------------
# Split engine
# ---------------------------------------------------------------------------

def _brute_force_split(X, idx, features, min_leaf, rate):
    """Every (feature, boundary) pair in pure Python, features and then
    thresholds ascending; only a strictly greater score replaces the best."""
    best = None
    for j in features:
        values = sorted({float(X[i, j]) for i in idx})
        for lo, hi in zip(values, values[1:]):
            left = [i for i in idx if X[i, j] <= lo]
            right = [i for i in idx if X[i, j] > lo]
            if min(len(left), len(right)) < min_leaf:
                continue
            score = rate(left, right)
            if best is None or score > best[0]:
                best = (score, int(j), (lo + hi) / 2.0)
    return best


def _node_rows_presorted(X, idx, stats):
    """The presorted sort of the node ``idx`` and its workspace: the root
    state of X, partitioned so that its first ``idx.size`` places hold the
    node."""
    workspace = cart.SplitWorkspace(cart.presort(X), stats)
    side = np.zeros(X.shape[0], dtype=bool)
    side[idx] = True
    if idx.size < X.shape[0]:
        cart._partition(workspace, side, 0, idx.size, X.shape[0])
    return cart._presorted(workspace, 0, idx.size), workspace


@pytest.mark.parametrize("block_elements", [None, 1, 40])
def test_split_search_matches_brute_force_enumeration(monkeypatch, block_elements):
    if block_elements is not None:
        monkeypatch.setattr(cart, "_BLOCK_ELEMENTS", block_elements)
    rng = np.random.default_rng(191)
    lam = 1.0
    for _ in range(60):
        n = int(rng.integers(2, 14))
        X = rng.integers(0, 3, size=(n, 6)).astype(float)
        X[:, 4] = X[:, 1]  # an exact tie across features
        y = rng.integers(0, 3, size=n)
        # Dyadic statistics keep every sum exact in any order.
        g = rng.integers(-4, 5, size=n) / 4.0
        h = rng.integers(0, 3, size=n) / 8.0
        idx = rng.permutation(n)[: int(rng.integers(2, n + 1))]
        features = np.flatnonzero(rng.random(6) < 0.7)
        min_leaf = int(rng.integers(1, 4))

        def gini(left, right):
            def part(rows):
                return sum(c * c for c in np.bincount(y[rows], minlength=8).tolist()) / len(rows)
            return part(left) + part(right)

        def newton(left, right):
            gl, hl = sum(g[left]), sum(h[left])
            gr, hr = sum(g[right]), sum(h[right])
            return gl ** 2 / (hl + lam) + gr ** 2 / (hr + lam)

        onehot = np.eye(8, dtype=np.int64)[y]
        gh = np.empty(n, dtype=np.complex128)
        gh.real, gh.imag = g, h
        expected = {
            "gini": _brute_force_split(X, idx, features, min_leaf, gini),
            "newton": _brute_force_split(X, idx, features, min_leaf, newton),
        }
        every_feature = {
            "gini": _brute_force_split(X, idx, range(6), min_leaf, gini),
            "newton": _brute_force_split(X, idx, range(6), min_leaf, newton),
        }
        for stats, score, rate in (
            (onehot, cart._gini_score, "gini"),
            (gh, lambda l, r, nl, nr: cart._newton_score(l, r, nl, lam), "newton"),
        ):
            # Both sort paths: the node's own argsort (any row order) and
            # the presorted columns, which search every feature and use the
            # workspace's buffers.
            presorted, workspace = _node_rows_presorted(X, np.sort(idx), stats)
            for sort_block, candidates, wanted, scratch in (
                (cart._argsorted(X, idx), features, expected, None),
                (presorted, np.arange(6), every_feature, workspace),
            ):
                got = cart._best_split(stats, idx.size, candidates, sort_block, min_leaf, score,
                                       scratch)
                assert got == wanted[rate]


# The split engine as it was before presorting: every node gathers its rows
# of each block of candidate columns, stable-argsorts them and scores every
# boundary. It is the reference the presorted engine must reproduce bit for
# bit.

def _reference_gini_score(cum):
    n = cum.shape[0]
    left = cum[:-1]
    total = cum[-1, 0]
    left_sq = np.einsum("bfk,bfk->bf", left, left)
    right_sq = total @ total - 2 * (left @ total) + left_sq
    nl = np.arange(1, n, dtype=np.float64)[:, np.newaxis]
    return left_sq / nl + right_sq / (n - nl)


def _reference_newton_score(cum, lam):
    gl, hl = cum[:-1, :, 0], cum[:-1, :, 1]
    return gl ** 2 / (hl + lam) + (cum[-1, :, 0] - gl) ** 2 / (cum[-1, :, 1] - hl + lam)


def _reference_best_split(X, stats, idx, features, min_leaf, score):
    n = idx.size
    if n < 2:
        return None
    node_stats = stats[idx]
    nl = np.arange(1, n)
    sizes_ok = ((nl >= min_leaf) & (n - nl >= min_leaf))[:, np.newaxis]
    width = max(1, cart._BLOCK_ELEMENTS // (n * stats.shape[1]))
    best = None
    for start in range(0, features.size, width):
        block = features[start:start + width]
        M = X[np.ix_(idx, block)]
        order = np.argsort(M, axis=0, kind="stable")
        sv = np.take_along_axis(M, order, axis=0)
        valid = (sv[:-1] < sv[1:]) & sizes_ok
        if not valid.any():
            continue
        cum = np.take(node_stats, order, axis=0)
        np.cumsum(cum, axis=0, out=cum)
        st = np.where(valid, score(cum), -np.inf).T
        f, b = divmod(int(np.argmax(st)), n - 1)
        if best is None or st[f, b] > best[0]:
            best = (float(st[f, b]), int(block[f]), float((sv[b, f] + sv[b + 1, f]) / 2.0))
    return best if best is not None and np.isfinite(best[0]) else None


def _reference_grow(X, stats, leaf, score, min_gain, max_depth, min_samples_leaf, features=None):
    all_features = np.arange(X.shape[1])
    nodes = []
    stack = [(np.arange(X.shape[0]), 0, -1)]
    while stack:
        idx, depth, pos = stack.pop()
        node, parent_score, splittable = leaf(idx)
        depth_capped = max_depth > 0 and depth >= max_depth
        split = None
        if splittable and not depth_capped and idx.size >= 2 * min_samples_leaf:
            candidates = all_features if features is None else features()
            split = _reference_best_split(X, stats, idx, candidates, min_samples_leaf, score)
            if split is not None and split[0] <= parent_score + min_gain:
                split = None
        if split is not None:
            _, j, threshold = split
            node = {"f": j, "t": threshold, "l": -1, "r": -1}
            mask = X[idx, j] <= threshold
            stack.append((idx[~mask], depth + 1, len(nodes) * 2 + 1))
            stack.append((idx[mask], depth + 1, len(nodes) * 2))
        nodes.append(node)
        if pos != -1:
            nodes[pos // 2]["l" if pos % 2 == 0 else "r"] = len(nodes) - 1
    return nodes


def _reference_classification_tree(X, y, max_depth, min_samples_leaf,
                                   feature_selector=None, rng=None):
    y_onehot = np.zeros((y.size, 8), dtype=np.int64)
    y_onehot[np.arange(y.size), y] = 1

    def leaf(idx):
        counts = np.bincount(y[idx], minlength=8)
        parent_score = float((counts.astype(np.float64) ** 2).sum()) / idx.size
        return {"c": counts.tolist()}, parent_score, int((counts > 0).sum()) > 1

    features = None if feature_selector is None else (lambda: feature_selector(rng))
    return _reference_grow(X, y_onehot, leaf, _reference_gini_score, cart._MIN_GAIN,
                           max_depth, min_samples_leaf, features)


def _reference_regression_tree(X, g, h, max_depth, min_samples_leaf, lam):
    def leaf(idx):
        g_sum = float(g[idx].sum())
        h_sum = float(h[idx].sum())
        return {"v": -g_sum / (h_sum + lam)}, g_sum * g_sum / (h_sum + lam), True

    return _reference_grow(X, np.column_stack((g, h)), leaf,
                           lambda cum: _reference_newton_score(cum, lam),
                           cart._MIN_GAIN_REGRESSION, max_depth, min_samples_leaf)


def _tie_heavy(rng):
    """A small TF-IDF-like matrix: mostly zeros, the rest from a few values."""
    n = int(rng.integers(2, 41))
    dense = rng.choice([0.25, 0.5, 1.0, 1.5], size=(n, int(rng.integers(1, 9))))
    dense[rng.random(dense.shape) < 0.6] = 0.0
    return dense


@pytest.mark.parametrize("block_elements", [None, 1, 40])
def test_presorted_engine_grows_the_per_node_argsort_trees(monkeypatch, block_elements):
    if block_elements is not None:
        monkeypatch.setattr(cart, "_BLOCK_ELEMENTS", block_elements)
    rng = np.random.default_rng(193)
    for case in range(100):
        X = _tie_heavy(rng)
        n = X.shape[0]
        y = rng.integers(0, 8, size=n)
        max_depth = int(rng.choice([0, 1, 6]))
        min_leaf = int(rng.integers(1, 5))

        assert cart.grow_classification_tree(X, y, max_depth, min_leaf) == \
            _reference_classification_tree(X, y, max_depth, min_leaf)

        # Successive (g, h) over one presorted root, as boosting rounds
        # use it; lam 0 with zero hessians makes infinite and NaN scores.
        root = cart.presort(X)
        before = [part.copy() for part in root]
        lam = 0.0 if case % 5 == 0 else 1.0
        for _ in range(3):
            p = rng.random(n)
            p[rng.random(n) < 0.2] = 1.0
            g, h = p - (rng.random(n) < 0.5), p * (1.0 - p)
            with np.errstate(divide="ignore", invalid="ignore"):
                assert cart.grow_regression_tree(X, g, h, max_depth, min_leaf, lam, root) == \
                    _reference_regression_tree(X, g, h, max_depth, min_leaf, lam)
        assert all(np.array_equal(a, b) for a, b in zip(root, before))

        if np.unique(y).size < 2:
            continue
        params = {
            "n_trees": 2,
            "max_features": ["sqrt", "all"][case % 2],
            "bootstrap": case % 4 < 2,
            "max_depth": max_depth,
            "min_samples_leaf": min_leaf,
        }
        matrix = _matrix(X, [ALL_LABELS[c] for c in y])
        got = forest.fit(matrix, y, params, seed=case).trees
        with monkeypatch.context() as patch:
            patch.setattr(forest, "grow_classification_tree", _reference_classification_tree)
            assert got == forest.fit(matrix, y, params, seed=case).trees


@pytest.mark.parametrize("block_elements", [None, 1, 40])
def test_one_workspace_grows_the_trees_of_fresh_ones(monkeypatch, block_elements):
    if block_elements is not None:
        monkeypatch.setattr(cart, "_BLOCK_ELEMENTS", block_elements)
    rng = np.random.default_rng(197)
    for case in range(40):
        X = _tie_heavy(rng)
        n = X.shape[0]
        max_depth = int(rng.choice([0, 1, 6]))
        min_leaf = int(rng.integers(1, 5))
        root = cart.presort(X)
        before = [part.copy() for part in root]
        workspace = cart.new_regression_workspace(root)
        # lam 0 with zero hessians makes infinite and NaN scores.
        lam = 0.0 if case % 3 == 0 else 1.0
        for _ in range(4):
            p = rng.random(n)
            p[rng.random(n) < 0.2] = 1.0
            g, h = p - (rng.random(n) < 0.5), p * (1.0 - p)
            with np.errstate(divide="ignore", invalid="ignore"):
                assert cart.grow_regression_tree(X, g, h, max_depth, min_leaf, lam, root, workspace) == \
                    cart.grow_regression_tree(X, g, h, max_depth, min_leaf, lam, root)
        assert all(np.array_equal(a, b) for a, b in zip(root, before))


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="counts Linux minor page faults")
def test_boosting_fit_reuses_its_scratch_memory():
    import resource

    # Block-sized arrays allocated and freed per node go back to the kernel
    # and fault in again at the next node: about 470 k minor faults here.
    rng = np.random.default_rng(199)
    dense = rng.random((640, 116))
    dense[rng.random(dense.shape) < 0.9] = 0.0
    y = np.arange(640) % 8
    dense[np.arange(640), y] += 1.0
    matrix = _matrix(dense, [ALL_LABELS[c] for c in y])
    params = dict(DEFAULT_PARAMS[ModelKind.GRADIENT_BOOSTED_TREES], n_rounds=50)
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    boosting.fit(matrix, y, params, seed=0)
    assert resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before < 50_000


# ---------------------------------------------------------------------------
# Random forest
# ---------------------------------------------------------------------------

def test_forest_without_randomness_reduces_to_the_single_tree():
    rng = np.random.default_rng(101)
    matrix = _clustered(rng)
    tree = train(ModelKind.DECISION_TREE, matrix)
    forest = train(
        ModelKind.RANDOM_FOREST,
        matrix,
        params=HyperParams(
            values={"n_trees": 1, "bootstrap": False, "max_features": "all"}
        ),
    )
    assert forest.learner.trees[0] == tree.learner.nodes
    assert predict_matrix(forest, matrix) == predict_matrix(tree, matrix)


def test_forest_probabilities_are_vote_fractions():
    rng = np.random.default_rng(103)
    matrix = _clustered(rng)
    model = _fast_model(ModelKind.RANDOM_FOREST, matrix, seed=7)
    for row in matrix.to_dense()[:16]:
        dist = predict_proba(model, row)
        votes = [p * 10 for p in dist.probabilities]
        assert all(abs(v - round(v)) < 1e-9 for v in votes)
        assert math.fsum(dist.probabilities) == pytest.approx(1.0, abs=1e-12)
        assert dist.argmax() == predict(model, row)


def test_forest_training_is_seed_deterministic():
    rng = np.random.default_rng(107)
    matrix = _clustered(rng, per_class=4)
    first = _fast_model(ModelKind.RANDOM_FOREST, matrix, seed=5)
    second = _fast_model(ModelKind.RANDOM_FOREST, matrix, seed=5)
    other = _fast_model(ModelKind.RANDOM_FOREST, matrix, seed=6)
    assert first.learner.to_payload() == second.learner.to_payload()
    assert first.learner.to_payload() != other.learner.to_payload()


# ---------------------------------------------------------------------------
# Gradient-boosted trees
# ---------------------------------------------------------------------------

def test_boosting_training_loss_descends_monotonically():
    rng = np.random.default_rng(109)
    matrix = _clustered(rng, per_class=4)
    model = train(
        ModelKind.GRADIENT_BOOSTED_TREES,
        matrix,
        params=HyperParams(values={"n_rounds": 20, "learning_rate": 0.3}),
    )
    losses = model.learner.train_loss
    assert len(losses) == 21
    assert all(b <= a + 1e-9 for a, b in zip(losses, losses[1:]))
    assert losses[-1] < losses[0]


def test_boosting_gives_absent_classes_zero_probability():
    labels = [ClassLabel.TROJAN] * 3 + [ClassLabel.BENIGN] * 3
    dense = [[1.0, 0.0]] * 3 + [[0.0, 1.0]] * 3
    model = train(
        ModelKind.GRADIENT_BOOSTED_TREES,
        _matrix(dense, labels),
        params=HyperParams(values={"n_rounds": 5}),
    )
    dist = predict_proba(model, {0: 1.0})
    present = {ClassLabel.TROJAN.ordinal, ClassLabel.BENIGN.ordinal}
    for ordinal, p in enumerate(dist.probabilities):
        if ordinal not in present:
            assert p == 0.0
    assert math.fsum(dist.probabilities) == pytest.approx(1.0, abs=1e-12)
    assert predict(model, {0: 1.0}) is ClassLabel.TROJAN


# ---------------------------------------------------------------------------
# k-nearest neighbors
# ---------------------------------------------------------------------------

def test_knn_with_k_one_recalls_each_training_row():
    rng = np.random.default_rng(113)
    matrix = _clustered(rng)
    model = train(
        ModelKind.K_NEAREST_NEIGHBORS, matrix, params=HyperParams(values={"k": 1})
    )
    assert predict_matrix(model, matrix) == list(matrix.labels)


def test_knn_distance_ties_resolve_to_the_earlier_training_row():
    matrix = _matrix(
        [[1.0, 0.0], [0.0, 1.0]], [ClassLabel.WORM, ClassLabel.ADWARE]
    )
    model = train(
        ModelKind.K_NEAREST_NEIGHBORS, matrix, params=HyperParams(values={"k": 1})
    )
    assert predict(model, {0: 1.0, 1: 1.0}) is ClassLabel.WORM


def test_knn_vote_ties_resolve_to_the_lower_class_ordinal():
    matrix = _matrix(
        [[1.0, 0.0], [0.0, 1.0]], [ClassLabel.SPYWARE, ClassLabel.BACKDOOR]
    )
    model = train(
        ModelKind.K_NEAREST_NEIGHBORS, matrix, params=HyperParams(values={"k": 2})
    )
    winner = predict(model, {0: 1.0, 1: 1.0})
    assert winner is min(ClassLabel.SPYWARE, ClassLabel.BACKDOOR, key=lambda l: l.ordinal)


def test_knn_unit_rows_are_the_rows_divided_by_their_norms():
    rng = np.random.default_rng(131)
    dense = rng.normal(size=(300, 9)) * (rng.random((300, 9)) < 0.5)
    dense[[4, 200]] = 0.0
    matrix = _matrix(dense)
    dense = matrix.to_dense()
    learner = neighbors.fit(matrix, np.zeros(300, dtype=np.int64), {"k": 3}, 0)
    norms = np.sqrt((dense ** 2).sum(axis=1))
    norms[norms == 0.0] = 1.0
    assert np.array_equal(learner._unit.view(np.int64), (dense / norms[:, np.newaxis]).view(np.int64))


def test_knn_fit_memory_is_one_dense_copy_plus_norm_blocks():
    import tracemalloc

    # Wide and sparse: the dense unit matrix dwarfs the CSR rows and spans
    # many norm blocks, the last one partial.
    rng = np.random.default_rng(223)
    n, dim = 100, 20000
    cols = np.sort(rng.choice(dim, size=(n, 50)), axis=1)
    rows = tuple({int(j): float(rng.random()) + 0.5 for j in r} for r in cols)
    y = np.arange(n, dtype=np.int64) % 8
    matrix = FeatureMatrix.from_rows(rows, dim, [f"s{i}" for i in range(n)], [ALL_LABELS[c] for c in y])
    dense_bytes = 8 * n * dim
    csr_bytes = matrix.indptr.nbytes + matrix.indices.nbytes + matrix.data.nbytes
    tracemalloc.start()
    try:
        learner = neighbors.fit(matrix, y, {"k": 3}, 0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < dense_bytes + csr_bytes + 2 * 8 * neighbors._NORM_BLOCK_ELEMENTS
    dense = matrix.to_dense()
    norms = np.sqrt((dense ** 2).sum(axis=1))
    assert np.array_equal(learner._unit.view(np.int64), (dense / norms[:, np.newaxis]).view(np.int64))


def test_knn_probabilities_are_neighbor_vote_fractions():
    rng = np.random.default_rng(127)
    matrix = _clustered(rng)
    model = train(ModelKind.K_NEAREST_NEIGHBORS, matrix)
    dist = predict_proba(model, matrix.to_dense()[0])
    assert all(abs(p * 5 - round(p * 5)) < 1e-12 for p in dist.probabilities)
    assert math.fsum(dist.probabilities) == pytest.approx(1.0, abs=1e-12)


# ---------------------------------------------------------------------------
# Naive Bayes
# ---------------------------------------------------------------------------

def test_bayes_prefers_the_class_that_owns_the_vocabulary():
    labels = [ClassLabel.DOWNLOADER] * 3 + [ClassLabel.VIRUS] * 3
    dense = [[1.0, 0.5, 0.0, 0.0]] * 3 + [[0.0, 0.0, 1.0, 0.5]] * 3
    model = train(ModelKind.MULTINOMIAL_NAIVE_BAYES, _matrix(dense, labels))
    assert predict(model, {0: 2.0}) is ClassLabel.DOWNLOADER
    assert predict(model, {3: 2.0}) is ClassLabel.VIRUS


def test_bayes_uniform_classes_give_uniform_posterior_on_an_empty_row():
    dense = np.eye(8)
    model = train(ModelKind.MULTINOMIAL_NAIVE_BAYES, _matrix(dense, list(ALL_LABELS)))
    dist = predict_proba(model, {})
    assert dist.probabilities == pytest.approx((0.125,) * 8, abs=1e-12)


def test_bayes_argmax_is_scale_invariant_under_uniform_priors():
    rng = np.random.default_rng(131)
    matrix = _clustered(rng)
    model = train(ModelKind.MULTINOMIAL_NAIVE_BAYES, matrix)
    for _ in range(50):
        row = {
            int(j): float(abs(rng.normal()))
            for j in rng.choice(16, size=4, replace=False)
        }
        base = predict(model, row)
        for scale in (0.25, 3.0):
            scaled = {j: w * scale for j, w in row.items()}
            assert predict(model, scaled) is base


def test_bayes_fit_is_invariant_under_row_permutation():
    rng = np.random.default_rng(137)
    dense = np.abs(rng.normal(size=(24, 6))) * (rng.random((24, 6)) < 0.5)
    labels = [ALL_LABELS[int(rng.integers(0, 8))] for _ in range(24)]
    base = train(ModelKind.MULTINOMIAL_NAIVE_BAYES, _matrix(dense, labels))
    perm = rng.permutation(24)
    shuffled = train(
        ModelKind.MULTINOMIAL_NAIVE_BAYES,
        _matrix(dense[perm], [labels[i] for i in perm]),
    )
    assert base.learner.to_payload() == shuffled.learner.to_payload()


def test_bayes_scores_match_the_per_row_softmax_bit_for_bit():
    rng = np.random.default_rng(229)
    dense = np.abs(rng.normal(size=(40, 12))) * (rng.random((40, 12)) < 0.5)
    model = train(ModelKind.MULTINOMIAL_NAIVE_BAYES, _matrix(dense))
    learner = model.learner
    X = np.abs(rng.normal(size=(200, 12))) * rng.choice([0.01, 1.0, 50.0], size=(200, 1))
    expected = np.zeros((200, 8))
    for r, x in enumerate(X):
        s = learner.W @ x + learner.b
        expected[r, learner.heads] = np.exp(s - s.max())
    assert np.array_equal(learner.scores(X).view(np.int64), expected.view(np.int64))


def test_bayes_rejects_negative_weights():
    matrix = FeatureMatrix.from_rows(
        rows=({0: -1.0}, {0: 1.0}),
        n_cols=1,
        sample_ids=("a", "b"),
        labels=(ClassLabel.TROJAN, ClassLabel.BENIGN),
    )
    with pytest.raises(DegenerateData):
        train(ModelKind.MULTINOMIAL_NAIVE_BAYES, matrix)


# ---------------------------------------------------------------------------
# Linear SVM
# ---------------------------------------------------------------------------

def test_svm_separates_a_separable_corpus():
    rng = np.random.default_rng(139)
    matrix = _clustered(rng)
    model = train(ModelKind.LINEAR_SVM, matrix)
    assert predict_matrix(model, matrix) == list(matrix.labels)


def test_svm_has_no_probability_output():
    rng = np.random.default_rng(149)
    matrix = _clustered(rng, per_class=3)
    model = _fast_model(ModelKind.LINEAR_SVM, matrix)
    with pytest.raises(Unsupported):
        predict_proba(model, matrix.to_dense()[0])


def test_svm_training_is_seed_deterministic():
    rng = np.random.default_rng(151)
    matrix = _clustered(rng, per_class=3)
    first = _fast_model(ModelKind.LINEAR_SVM, matrix, seed=9)
    second = _fast_model(ModelKind.LINEAR_SVM, matrix, seed=9)
    assert first.learner.to_payload() == second.learner.to_payload()


def _per_head_svm_fit(matrix, y, params, seed):
    """Reference: each head runs its own SGD loop, one sample per step."""
    lam = float(params["reg_lambda"])
    epochs = int(params["epochs"])
    X = matrix.to_dense()
    n, v = X.shape
    Xa = np.concatenate([X, np.ones((n, 1))], axis=1)
    heads = sorted(int(c) for c in np.unique(y))
    weights, bias = [], []
    for c in heads:
        sign = np.where(y == c, 1.0, -1.0)
        w = np.zeros(v + 1, dtype=np.float64)
        rng = np.random.default_rng([abs(seed), c])
        t = 0
        for _ in range(epochs):
            for i in rng.permutation(n):
                t += 1
                lr = 1.0 / (lam * t)
                margin = sign[i] * float(w @ Xa[i])
                w *= 1.0 - lr * lam
                if margin < 1.0:
                    w += lr * sign[i] * Xa[i]
        weights.append([float(val) for val in w[:v]])
        bias.append(float(w[v]))
    return heads, weights, bias


@pytest.mark.parametrize(
    "n_rows, n_classes, dim, epochs, seed, lam",
    [
        (2, 2, 40, 1, 0, 1e-4),  # two rows
        (9, 3, 64, 2, -5, 1e-4),  # negative seed, five classes absent
        (31, 8, 50, 3, 11, 1e-4),
        (17, 5, 33, 1, -1, 0.5),
        (24, 7, 70, 2, 3, 1e-2),
        (40, 8, 117, 3, 7, 1e-4),
        # Rows gathered in blocks of 2 MiB // (heads * (dim + 1) * 8) steps:
        (21, 8, 4095, 2, 5, 1e-3),  # blocks of 8, the last one 5 rows
        (100, 3, 2000, 2, -2, 1e-4),  # blocks of 43, the last one 14 rows
        (9, 8, 40000, 1, 9, 1e-4),  # wider than the buffer: one row per step
        # Separable (fewer rows than columns) over many epochs: hinge-free
        # stretches of hundreds of steps run across speculative blocks of 32
        # steps and across gathers of 58 rows; 150 rows is no multiple of 32.
        (150, 3, 1500, 20, 17, 1e-4),
        (45, 5, 90, 24, 19, 1e-3),  # one gather per epoch; stretches cross epochs
        (30, 4, 20, 3, 21, 1.0),  # a head hits at nearly every step, epoch starts included
    ],
)
def test_lockstep_svm_matches_the_per_head_loop_bit_for_bit(n_rows, n_classes, dim, epochs, seed, lam):
    rng = np.random.default_rng(abs(seed) * 1000 + n_rows)
    classes = rng.choice(8, size=n_classes, replace=False)
    # Every class present, the last one on a single row.
    y = np.concatenate([classes, rng.choice(classes[:-1], size=n_rows - n_classes)])
    y = y[rng.permutation(n_rows)].astype(np.int64)
    dense = rng.normal(size=(n_rows, dim)) * (rng.random((n_rows, dim)) < 0.6)
    matrix = _matrix(dense, [ALL_LABELS[c] for c in y])
    params = {"reg_lambda": lam, "epochs": epochs}
    learner = svm.fit(matrix, y, params, seed)
    heads, weights, bias = _per_head_svm_fit(matrix, y, params, seed)
    payload = learner.to_payload()
    assert payload["heads"] == heads
    assert np.array_equal(np.array(payload["weights"]).view(np.int64), np.array(weights).view(np.int64))
    assert np.array_equal(np.array(payload["bias"]).view(np.int64), np.array(bias).view(np.int64))


def test_svm_fit_scratch_memory_is_bounded_by_the_gather_budget():
    import tracemalloc

    # Each speculative block holds one weight array per step; on a matrix
    # this wide the budget allows one step, not a fixed block of them.
    rng = np.random.default_rng(211)
    dense = rng.normal(size=(9, 40000)) * (rng.random((9, 40000)) < 0.6)
    y = np.arange(9) % 8
    matrix = _matrix(dense, [ALL_LABELS[c] for c in y])
    w_bytes = 8 * 40001 * 8
    tracemalloc.start()
    try:
        svm.fit(matrix, y, {"reg_lambda": 1e-4, "epochs": 1}, seed=9)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # About 8 W: the dense and bias-augmented copies of the input (2.2 W),
    # the two-step weight block, the step and the gathered row (4 W) and the
    # learner's weight array (1 W).
    assert peak < 12 * w_bytes + 2 * svm._GATHER_BYTES


@pytest.mark.parametrize("seed", range(5))
def test_lockstep_svm_margins_round_like_the_per_head_loop(seed):
    # With the bias column, the two row patterns' product sums to 1 - 2**-53
    # left to right but to 1.0 in other orders, which flips the hinge test.
    dense = np.array([[1.0, 1.0, 1.0], [-1.0, 1.0, -(2.0 ** -53)]] * 3)
    y = np.array([0, 0, 0, 0, 0, 1], dtype=np.int64)
    matrix = _matrix(dense, [ALL_LABELS[c] for c in y])
    params = {"reg_lambda": 1.0, "epochs": 2}
    learner = svm.fit(matrix, y, params, seed)
    _, weights, bias = _per_head_svm_fit(matrix, y, params, seed)
    payload = learner.to_payload()
    assert (payload["weights"], payload["bias"]) == (weights, bias)


# ---------------------------------------------------------------------------
# Shared prediction surface
# ---------------------------------------------------------------------------

def test_batch_prediction_matches_per_row_prediction():
    rng = np.random.default_rng(157)
    matrix = _clustered(rng, per_class=3)
    queries = np.abs(rng.normal(size=(20, 16))) * (rng.random((20, 16)) < 0.4)
    query_matrix = _matrix(queries)
    for kind in ALL_KINDS:
        model = _fast_model(kind, matrix)
        batch = predict_matrix(model, query_matrix)
        single = [predict(model, row) for row in query_matrix.to_dense()]
        assert batch == single, kind
        for row, label in zip(query_matrix.to_dense(), single):
            if kind is ModelKind.LINEAR_SVM:
                with pytest.raises(Unsupported):
                    predict_proba(model, row)
            else:
                assert predict_proba(model, row).argmax() is label, kind


def test_prediction_rejects_out_of_range_indices_and_widths():
    rng = np.random.default_rng(163)
    matrix = _clustered(rng, per_class=3)
    model = train(ModelKind.DECISION_TREE, matrix)
    with pytest.raises(DimensionMismatch):
        predict(model, {16: 1.0})
    with pytest.raises(DimensionMismatch):
        predict(model, [1.0, 2.0])
    with pytest.raises(DimensionMismatch):
        predict_matrix(model, _matrix(np.zeros((2, 3))))


def test_class_distribution_invariants():
    uniform = (0.125,) * 8
    assert ClassDistribution(uniform).argmax() is ALL_LABELS[0]
    with pytest.raises(DimensionMismatch):
        ClassDistribution((0.5, 0.5))
    with pytest.raises(DimensionMismatch):
        ClassDistribution((1.5, -0.5) + (0.0,) * 6)
    with pytest.raises(DimensionMismatch):
        ClassDistribution((0.9,) + (0.0,) * 7)
    peaked = (0.0, 0.0, 0.6, 0.0, 0.4, 0.0, 0.0, 0.0)
    assert ClassDistribution(peaked).argmax() is ALL_LABELS[2]


# ---------------------------------------------------------------------------
# Persistence
# ---------------------------------------------------------------------------

def test_saved_models_reload_with_identical_behavior(tmp_path):
    rng = np.random.default_rng(167)
    matrix = _clustered(rng, per_class=3)
    queries = [
        {
            int(j): float(abs(rng.normal()))
            for j in rng.choice(16, size=int(rng.integers(1, 6)), replace=False)
        }
        for _ in range(100)
    ]
    for kind in ALL_KINDS:
        model = _fast_model(kind, matrix, seed=3)
        path = tmp_path / f"{kind.value}.json"
        save_model(model, path)
        loaded = load_model(path)
        assert loaded.kind is kind
        assert loaded.dim == model.dim
        assert loaded.hyperparams == model.hyperparams
        assert loaded.seed == model.seed
        assert loaded.data_fingerprint == model.data_fingerprint
        for row in queries:
            assert predict(loaded, row) is predict(model, row)
            if kind is not ModelKind.LINEAR_SVM:
                before = predict_proba(model, row).probabilities
                after = predict_proba(loaded, row).probabilities
                assert before == after


def test_saving_a_loaded_model_rewrites_its_file_byte_for_byte(tmp_path):
    matrix = _clustered(np.random.default_rng(197), per_class=3)
    for kind in ALL_KINDS:
        path, again = tmp_path / f"{kind.value}.json", tmp_path / f"{kind.value}-again.json"
        save_model(_fast_model(kind, matrix, seed=5), path)
        save_model(load_model(path), again)
        assert again.read_bytes() == path.read_bytes(), kind


def test_truncated_model_file_is_reported_corrupt(tmp_path):
    rng = np.random.default_rng(173)
    model = train(ModelKind.DECISION_TREE, _clustered(rng, per_class=2))
    path = tmp_path / "model.json"
    save_model(model, path)
    text = path.read_text()
    path.write_text(text[: len(text) // 2])
    with pytest.raises(CorruptModel):
        load_model(path)


def test_non_object_model_file_is_reported_corrupt(tmp_path):
    path = tmp_path / "model.json"
    path.write_text("[1,2,3]")
    with pytest.raises(CorruptModel):
        load_model(path)


def _set_first_knn_column(document, column):
    document["payload"]["rows"][0][0][0] = column


@pytest.mark.parametrize("kind, corrupt", [
    pytest.param(ModelKind.LINEAR_SVM,
                 lambda d: d["payload"].update(weights=[w[:-1] for w in d["payload"]["weights"]]),
                 id="svm-weights-one-column-short"),
    pytest.param(ModelKind.LINEAR_SVM, lambda d: d["payload"]["bias"].pop(), id="svm-bias-one-short"),
    pytest.param(ModelKind.LINEAR_SVM, lambda d: d.update(dim=d["dim"] + 1), id="svm-model-dim-wider"),
    pytest.param(ModelKind.MULTINOMIAL_NAIVE_BAYES,
                 lambda d: d["payload"].update(log_theta=[w[:-1] for w in d["payload"]["log_theta"]]),
                 id="nb-weights-one-column-short"),
    pytest.param(ModelKind.K_NEAREST_NEIGHBORS,
                 lambda d: d["payload"].update(dim=d["dim"] + 1), id="knn-payload-dim-wider"),
    pytest.param(ModelKind.K_NEAREST_NEIGHBORS,
                 lambda d: _set_first_knn_column(d, d["dim"]), id="knn-column-at-dim"),
    pytest.param(ModelKind.K_NEAREST_NEIGHBORS,
                 lambda d: _set_first_knn_column(d, -1), id="knn-column-negative"),
])
def test_payload_that_disagrees_with_dim_is_reported_corrupt(tmp_path, kind, corrupt):
    _assert_corrupt_after_edit(tmp_path, kind, corrupt)


def _first_split(nodes):
    return next(node for node in nodes if "f" in node)


def _first_leaf(nodes):
    return next(node for node in nodes if "f" not in node)


def _gbt_tree(document):
    return document["payload"]["rounds"][0][0]


@pytest.mark.parametrize("kind, corrupt", [
    pytest.param(ModelKind.GRADIENT_BOOSTED_TREES,
                 lambda d: d["payload"]["heads"].__setitem__(-1, 9), id="gbt-heads-holding-9"),
    pytest.param(ModelKind.GRADIENT_BOOSTED_TREES,
                 lambda d: d["payload"]["heads"].reverse(), id="gbt-heads-descending"),
    pytest.param(ModelKind.GRADIENT_BOOSTED_TREES,
                 lambda d: d["payload"]["rounds"][0].pop(), id="gbt-round-one-tree-short"),
    pytest.param(ModelKind.GRADIENT_BOOSTED_TREES,
                 lambda d: _first_split(_gbt_tree(d)).update(f=d["dim"]), id="gbt-feature-at-dim"),
    pytest.param(ModelKind.GRADIENT_BOOSTED_TREES,
                 lambda d: _first_split(_gbt_tree(d)).update(f=-1), id="gbt-feature-negative"),
    pytest.param(ModelKind.GRADIENT_BOOSTED_TREES,
                 lambda d: _first_split(_gbt_tree(d)).update(l=99), id="gbt-child-99"),
    pytest.param(ModelKind.GRADIENT_BOOSTED_TREES,
                 lambda d: _first_split(_gbt_tree(d)).update(r=0), id="gbt-child-back-at-root"),
    pytest.param(ModelKind.GRADIENT_BOOSTED_TREES,
                 lambda d: _first_leaf(_gbt_tree(d)).pop("v"), id="gbt-leaf-without-value"),
    pytest.param(ModelKind.DECISION_TREE,
                 lambda d: _first_leaf(d["payload"]["nodes"])["c"].pop(), id="tree-counts-one-short"),
    pytest.param(ModelKind.DECISION_TREE,
                 lambda d: _first_split(d["payload"]["nodes"]).update(l=0), id="tree-child-back-at-root"),
    pytest.param(ModelKind.DECISION_TREE,
                 lambda d: _first_split(d["payload"]["nodes"]).update(f=d["dim"]), id="tree-feature-at-dim"),
    pytest.param(ModelKind.RANDOM_FOREST,
                 lambda d: _first_split(d["payload"]["trees"][0]).update(r=99), id="forest-child-99"),
])
def test_malformed_tree_payload_is_reported_corrupt(tmp_path, kind, corrupt):
    _assert_corrupt_after_edit(tmp_path, kind, corrupt)


def _keep_first_head(document, weights, bias):
    """A linear model of one class head: ``train`` needs two classes."""
    for key in ("heads", weights, bias):
        del document["payload"][key][1:]


def _keep_no_gbt_head(document):
    payload = document["payload"]
    payload["heads"] = []
    payload["rounds"] = [[] for _ in payload["rounds"]]


@pytest.mark.parametrize("kind, corrupt", [
    pytest.param(ModelKind.LINEAR_SVM,
                 lambda d: d["payload"]["heads"].__setitem__(-1, 9), id="svm-heads-holding-9"),
    pytest.param(ModelKind.MULTINOMIAL_NAIVE_BAYES,
                 lambda d: d["payload"]["heads"].__setitem__(-1, 9), id="nb-heads-holding-9"),
    pytest.param(ModelKind.K_NEAREST_NEIGHBORS,
                 lambda d: d["payload"]["labels"].__setitem__(0, 12), id="knn-label-12"),
    pytest.param(ModelKind.K_NEAREST_NEIGHBORS,
                 lambda d: d["payload"]["labels"].pop(), id="knn-one-label-short"),
    pytest.param(ModelKind.LINEAR_SVM,
                 lambda d: _keep_first_head(d, "weights", "bias"), id="svm-one-head"),
    pytest.param(ModelKind.MULTINOMIAL_NAIVE_BAYES,
                 lambda d: _keep_first_head(d, "log_theta", "log_prior"), id="nb-one-head"),
    pytest.param(ModelKind.GRADIENT_BOOSTED_TREES, lambda d: _keep_no_gbt_head(d), id="gbt-no-heads"),
    pytest.param(ModelKind.K_NEAREST_NEIGHBORS,
                 lambda d: d["payload"].update(labels=[0] * len(d["payload"]["labels"])),
                 id="knn-labels-one-class"),
])
def test_out_of_range_class_ordinals_are_reported_corrupt(tmp_path, kind, corrupt):
    _assert_corrupt_after_edit(tmp_path, kind, corrupt)


def _set_setting(document, key, value):
    """Write one setting into both places a model file holds it."""
    document["hyperparams"][key] = value
    document["payload"][key] = value


@pytest.mark.parametrize("kind, corrupt", [
    pytest.param(ModelKind.K_NEAREST_NEIGHBORS,
                 lambda d: _set_setting(d, "k", 0), id="knn-k-0"),
    pytest.param(ModelKind.GRADIENT_BOOSTED_TREES,
                 lambda d: _set_setting(d, "learning_rate", math.nan), id="gbt-learning-rate-nan"),
    pytest.param(ModelKind.GRADIENT_BOOSTED_TREES,
                 lambda d: _set_setting(d, "learning_rate", -5.0), id="gbt-learning-rate-minus-5"),
    pytest.param(ModelKind.K_NEAREST_NEIGHBORS,
                 lambda d: d["payload"].update(k=d["hyperparams"]["k"] + 1), id="knn-payload-k-differs"),
    pytest.param(ModelKind.DECISION_TREE,
                 lambda d: d["hyperparams"].update(depth=3), id="tree-unknown-setting"),
    pytest.param(ModelKind.GRADIENT_BOOSTED_TREES,
                 lambda d: d["hyperparams"].pop("reg_lambda"), id="gbt-setting-missing"),
])
def test_stored_settings_off_their_rule_are_reported_corrupt(tmp_path, kind, corrupt):
    _assert_corrupt_after_edit(tmp_path, kind, corrupt)


def _assert_corrupt_after_edit(tmp_path, kind, corrupt):
    model = _fast_model(kind, _clustered(np.random.default_rng(191), per_class=2))
    path = tmp_path / "model.json"
    save_model(model, path)
    document = json.loads(path.read_text())
    corrupt(document)
    path.write_text(json.dumps(document))
    with pytest.raises(CorruptModel):
        load_model(path)


def test_future_format_version_is_rejected(tmp_path):
    rng = np.random.default_rng(179)
    model = train(ModelKind.DECISION_TREE, _clustered(rng, per_class=2))
    path = tmp_path / "model.json"
    save_model(model, path)
    document = json.loads(path.read_text())
    document["format_version"] = 2
    path.write_text(json.dumps(document))
    with pytest.raises(VersionMismatch):
        load_model(path)


def test_unknown_kind_in_model_file_is_reported_corrupt(tmp_path):
    rng = np.random.default_rng(181)
    model = train(ModelKind.DECISION_TREE, _clustered(rng, per_class=2))
    path = tmp_path / "model.json"
    save_model(model, path)
    document = json.loads(path.read_text())
    document["kind"] = "Perceptron"
    path.write_text(json.dumps(document))
    with pytest.raises(CorruptModel):
        load_model(path)


def test_fingerprint_tracks_training_data_order():
    dense = [[1.0], [2.0]]
    labels = [ClassLabel.TROJAN, ClassLabel.BENIGN]
    a = train(ModelKind.DECISION_TREE, _matrix(dense, labels, ids=["a", "b"]))
    b = train(ModelKind.DECISION_TREE, _matrix(dense, labels, ids=["b", "a"]))
    assert a.data_fingerprint != b.data_fingerprint
