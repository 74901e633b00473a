"""Tests for the classical classifiers: kNN, NB, SVM, trees, ensembles, MLP."""

import numpy as np
import pytest

from repro.ml import (
    AdaBoostClassifier,
    DecisionTreeClassifier,
    DecisionTreeRegressor,
    GaussianNB,
    GradientBoostingClassifier,
    GradientBoostingRegressor,
    KNeighborsClassifier,
    KNeighborsRegressor,
    LinearSVC,
    MLPClassifier,
    MLPRegressor,
    RandomForestClassifier,
    accuracy_score,
    r2_score,
)


@pytest.fixture(scope="module")
def blobs():
    rng = np.random.default_rng(0)
    X = np.vstack([rng.normal(0, 0.7, (60, 3)), rng.normal(3, 0.7, (60, 3))])
    y = np.repeat([0, 1], 60)
    return X, y


@pytest.fixture(scope="module")
def blobs3():
    rng = np.random.default_rng(1)
    X = np.vstack([rng.normal(c, 0.6, (40, 2)) for c in (0.0, 3.0, 6.0)])
    y = np.repeat([0, 1, 2], 40)
    return X, y


ALL_BINARY = [
    KNeighborsClassifier,
    GaussianNB,
    LinearSVC,
    DecisionTreeClassifier,
    RandomForestClassifier,
    AdaBoostClassifier,
    GradientBoostingClassifier,
    MLPClassifier,
]

MULTICLASS = [
    KNeighborsClassifier,
    GaussianNB,
    DecisionTreeClassifier,
    RandomForestClassifier,
    AdaBoostClassifier,
    GradientBoostingClassifier,
    MLPClassifier,
]


@pytest.mark.parametrize("model_cls", ALL_BINARY)
def test_binary_blobs_high_accuracy(model_cls, blobs):
    X, y = blobs
    model = model_cls().fit(X, y)
    assert accuracy_score(y, model.predict(X)) > 0.9


@pytest.mark.parametrize("model_cls", MULTICLASS)
def test_multiclass_blobs(model_cls, blobs3):
    X, y = blobs3
    model = model_cls().fit(X, y)
    assert accuracy_score(y, model.predict(X)) > 0.9


@pytest.mark.parametrize(
    "model_cls",
    [KNeighborsClassifier, GaussianNB, RandomForestClassifier, MLPClassifier,
     GradientBoostingClassifier],
)
def test_predict_proba_sums_to_one(model_cls, blobs):
    X, y = blobs
    model = model_cls().fit(X, y)
    probs = model.predict_proba(X[:10])
    assert probs.shape == (10, 2)
    assert np.allclose(probs.sum(axis=1), 1.0)
    assert np.all(probs >= 0)


class TestKNN:
    def test_k1_memorizes_training_set(self, blobs):
        X, y = blobs
        model = KNeighborsClassifier(n_neighbors=1).fit(X, y)
        assert accuracy_score(y, model.predict(X)) == 1.0

    def test_k_larger_than_n_clamps(self):
        X = np.array([[0.0], [1.0], [2.0]])
        y = np.array([0, 0, 1])
        model = KNeighborsClassifier(n_neighbors=50).fit(X, y)
        assert model.predict(np.array([[0.5]]))[0] == 0

    def test_invalid_k(self):
        with pytest.raises(ValueError):
            KNeighborsClassifier(n_neighbors=0)

    def test_empty_fit_raises(self):
        with pytest.raises(ValueError):
            KNeighborsClassifier().fit(np.empty((0, 2)), np.empty(0))

    def test_regressor_interpolates(self):
        X = np.arange(10.0).reshape(-1, 1)
        y = 2.0 * np.arange(10.0)
        model = KNeighborsRegressor(n_neighbors=2).fit(X, y)
        pred = model.predict(np.array([[4.5]]))[0]
        assert pred == pytest.approx(9.0)


class TestGaussianNB:
    def test_priors_sum_to_one(self, blobs):
        X, y = blobs
        model = GaussianNB().fit(X, y)
        assert model.priors_.sum() == pytest.approx(1.0)

    def test_unbalanced_priors(self):
        rng = np.random.default_rng(2)
        X = np.vstack([rng.normal(0, 1, (90, 1)), rng.normal(5, 1, (10, 1))])
        y = np.array([0] * 90 + [1] * 10)
        model = GaussianNB().fit(X, y)
        assert model.priors_[0] == pytest.approx(0.9)


class TestSVM:
    def test_decision_function_sign_matches_predict(self, blobs):
        X, y = blobs
        model = LinearSVC().fit(X, y)
        scores = model.decision_function(X)
        preds = model.predict(X)
        assert np.all((scores >= 0) == (preds == model.classes_[1]))

    def test_invalid_c(self):
        with pytest.raises(ValueError):
            LinearSVC(C=0.0)

    def test_multiclass_rejected(self):
        with pytest.raises(ValueError):
            LinearSVC().fit(np.ones((3, 1)), [0, 1, 2])


class TestDecisionTree:
    def test_xor_needs_depth(self):
        # XOR is not linearly separable; a depth-2 tree can solve it.
        X = np.array([[0, 0], [0, 1], [1, 0], [1, 1]] * 10, dtype=float)
        y = np.array([0, 1, 1, 0] * 10)
        model = DecisionTreeClassifier(max_depth=3).fit(X, y)
        assert accuracy_score(y, model.predict(X)) == 1.0

    def test_depth_one_is_a_stump(self):
        X = np.linspace(0, 1, 50).reshape(-1, 1)
        y = (X.ravel() > 0.5).astype(int)
        model = DecisionTreeClassifier(max_depth=1).fit(X, y)
        # Threshold candidates are quantile-capped, so the split may land a
        # sample off the exact boundary; near-perfect is the contract.
        assert accuracy_score(y, model.predict(X)) >= 0.95
        root = model._root
        assert root.left.is_leaf and root.right.is_leaf

    def test_sample_weights_shift_majority(self):
        X = np.zeros((4, 1))
        y = np.array([0, 0, 1, 1])
        w_heavy_one = np.array([0.1, 0.1, 10.0, 10.0])
        model = DecisionTreeClassifier(max_depth=1).fit(X, y, sample_weight=w_heavy_one)
        assert model.predict(np.zeros((1, 1)))[0] == 1

    def test_invalid_depth(self):
        with pytest.raises(ValueError):
            DecisionTreeClassifier(max_depth=0)

    def test_regressor_fits_step(self):
        X = np.linspace(0, 1, 60).reshape(-1, 1)
        y = np.where(X.ravel() > 0.5, 10.0, -10.0)
        model = DecisionTreeRegressor(max_depth=2).fit(X, y)
        assert r2_score(y, model.predict(X)) > 0.99


class TestEnsembles:
    def test_forest_beats_single_stump_on_noisy_data(self):
        rng = np.random.default_rng(3)
        X = rng.normal(size=(300, 5))
        y = ((X[:, 0] + X[:, 1] * X[:, 2]) > 0).astype(int)
        stump = DecisionTreeClassifier(max_depth=1).fit(X, y)
        forest = RandomForestClassifier(n_estimators=15, max_depth=6, seed=1).fit(X, y)
        assert accuracy_score(y, forest.predict(X)) > accuracy_score(y, stump.predict(X))

    def test_adaboost_improves_over_rounds(self):
        rng = np.random.default_rng(4)
        X = rng.normal(size=(200, 4))
        y = ((X[:, 0] > 0) ^ (X[:, 1] > 0)).astype(int)
        weak = AdaBoostClassifier(n_estimators=1, max_depth=1).fit(X, y)
        strong = AdaBoostClassifier(n_estimators=30, max_depth=1).fit(X, y)
        assert accuracy_score(y, strong.predict(X)) >= accuracy_score(y, weak.predict(X))

    def test_gbr_reduces_residuals(self):
        rng = np.random.default_rng(5)
        X = rng.uniform(-2, 2, size=(200, 1))
        y = np.sin(2 * X.ravel())
        few = GradientBoostingRegressor(n_estimators=3, seed=0).fit(X, y)
        many = GradientBoostingRegressor(n_estimators=80, seed=0).fit(X, y)
        assert r2_score(y, many.predict(X)) > r2_score(y, few.predict(X))
        assert r2_score(y, many.predict(X)) > 0.9

    def test_gb_classifier_multiclass_proba(self, blobs3):
        X, y = blobs3
        model = GradientBoostingClassifier(n_estimators=10).fit(X, y)
        probs = model.predict_proba(X[:5])
        assert probs.shape == (5, 3)
        assert np.allclose(probs.sum(axis=1), 1.0)

    @pytest.mark.parametrize(
        "model_cls", [RandomForestClassifier, GradientBoostingClassifier]
    )
    def test_same_seed_is_deterministic(self, model_cls, blobs):
        X, y = blobs
        a = model_cls(n_estimators=10, seed=5).fit(X, y)
        b = model_cls(n_estimators=10, seed=5).fit(X, y)
        assert np.array_equal(a.predict_proba(X), b.predict_proba(X))


class TestMLP:
    def test_loss_decreases(self, blobs):
        X, y = blobs
        model = MLPClassifier(hidden=(16,), n_epochs=50).fit(X, y)
        assert model.loss_curve_[-1] < model.loss_curve_[0]

    def test_nonlinear_boundary(self):
        rng = np.random.default_rng(6)
        X = rng.uniform(-1, 1, size=(400, 2))
        y = ((X[:, 0] ** 2 + X[:, 1] ** 2) < 0.4).astype(int)
        model = MLPClassifier(hidden=(32, 16), n_epochs=200, lr=3e-3).fit(X, y)
        assert accuracy_score(y, model.predict(X)) > 0.9

    def test_regressor_learns_quadratic(self):
        rng = np.random.default_rng(7)
        X = rng.uniform(-2, 2, size=(300, 1))
        y = X.ravel() ** 2
        model = MLPRegressor(hidden=(32,), n_epochs=300, lr=3e-3).fit(X, y)
        assert r2_score(y, model.predict(X)) > 0.95

    def test_n_parameters_counts(self):
        model = MLPClassifier(hidden=(8,), n_epochs=1).fit(
            np.random.default_rng(8).normal(size=(20, 3)), np.arange(20) % 2
        )
        # (3*8 + 8) + (8*2 + 2)
        assert model.n_parameters() == 3 * 8 + 8 + 8 * 2 + 2

    def test_unfitted_predict_raises(self):
        with pytest.raises(RuntimeError):
            MLPClassifier().predict(np.ones((2, 2)))

    def test_multioutput_regression(self):
        rng = np.random.default_rng(9)
        X = rng.normal(size=(100, 2))
        Y = np.column_stack([X[:, 0] + X[:, 1], X[:, 0] - X[:, 1]])
        model = MLPRegressor(hidden=(16,), n_epochs=200, lr=3e-3).fit(X, Y)
        pred = model.predict(X)
        assert pred.shape == (100, 2)
