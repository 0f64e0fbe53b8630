import json

import numpy as np
import pytest

from refractory.classify import (
    ADABOOST,
    CLASSIFIERS,
    GBDT,
    LOGREG,
    SVM_LINEAR,
    SVM_RBF,
    TREE,
    ClassifierSpec,
    binomial_deviance,
    decision_score,
    feature_importance,
    fit_classifier,
    model_summary,
    predict,
    predict_proba,
    pseudo_residuals,
    sigmoid,
    write_model_summary,
)
from refractory.errors import ConvergenceError
from refractory.linalg import pairwise_sq_dists


def _xor(n_copies=20):
    base = np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0]])
    X = np.tile(base, (n_copies, 1))
    y = np.tile(np.array([0.0, 1.0, 1.0, 0.0]), n_copies)
    return X, y


def _blobs(n=60, gap=6.0, seed=0):
    rng = np.random.default_rng(seed)
    X = np.vstack([
        rng.normal(size=(n // 2, 2)),
        rng.normal(size=(n // 2, 2)) + gap,
    ])
    y = np.repeat([0.0, 1.0], n // 2)
    return X, y


def _accuracy(model, X, y):
    return float((predict(model, X) == y).mean())


def test_pseudo_residual_matches_loss_derivative():
    # Central difference of the per-sample deviance in its score argument
    # must land on y - sigmoid(score).
    rng = np.random.default_rng(0)
    y = (rng.random(50) > 0.5).astype(float)
    score = rng.normal(scale=3.0, size=50)
    resid = pseudo_residuals(y, score)
    eps = 1e-4
    for i in range(50):
        lo = binomial_deviance(y[i : i + 1], score[i : i + 1] - eps)
        hi = binomial_deviance(y[i : i + 1], score[i : i + 1] + eps)
        assert abs((lo - hi) / (2 * eps) - resid[i]) < 1e-6


def test_sigmoid_saturates_without_overflow():
    z = np.array([-1e4, -10.0, 0.0, 10.0, 1e4])
    p = sigmoid(z)
    assert np.all(np.isfinite(p))
    assert p[0] == 0.0 or p[0] < 1e-100
    assert p[2] == 0.5
    assert p[-1] == 1.0 or p[-1] > 1 - 1e-100


def test_binomial_deviance_known_value():
    # score 0 gives log 2 regardless of labels
    y = np.array([0.0, 1.0])
    assert abs(binomial_deviance(y, np.zeros(2)) - np.log(2.0)) < 1e-12


def test_gbdt_learns_xor_logreg_cannot():
    X, y = _xor()
    gbdt = fit_classifier(ClassifierSpec(method=GBDT, n_stages=30, max_depth=2), X, y)
    assert _accuracy(gbdt, X, y) == 1.0
    logreg = fit_classifier(ClassifierSpec(method=LOGREG), X, y)
    assert _accuracy(logreg, X, y) <= 0.75


def test_tree_learns_xor():
    X, y = _xor()
    model = fit_classifier(ClassifierSpec(method=TREE, max_depth=2), X, y)
    assert _accuracy(model, X, y) == 1.0


def test_gbdt_deviance_trace_non_increasing():
    X, y = _blobs(seed=1, gap=2.0)
    model = fit_classifier(ClassifierSpec(method=GBDT, n_stages=40, max_depth=3), X, y)
    trace = np.asarray(model.deviance_trace)
    assert len(trace) == 40
    assert np.all(np.diff(trace) <= 1e-12)
    # and it actually improves on the base rate
    assert trace[-1] < binomial_deviance(y, np.full(len(y), model.base_score)) - 0.1


def test_gbdt_base_score_is_log_odds():
    X, y = _blobs(seed=2)
    model = fit_classifier(ClassifierSpec(method=GBDT, n_stages=1), X, y)
    p = y.mean()
    assert abs(model.base_score - np.log(p / (1 - p))) < 1e-12


def test_gbdt_constant_features_predict_base_rate():
    X = np.ones((40, 3))
    y = np.array([1.0] * 10 + [0.0] * 30)
    model = fit_classifier(ClassifierSpec(method=GBDT, n_stages=5), X, y)
    np.testing.assert_allclose(predict_proba(model, X), 0.25, atol=1e-9)


def test_gbdt_decision_score_is_logit_of_proba():
    X, y = _blobs(seed=3)
    model = fit_classifier(ClassifierSpec(method=GBDT, n_stages=10), X, y)
    score = decision_score(model, X)
    np.testing.assert_allclose(sigmoid(score), predict_proba(model, X), atol=1e-12)


def test_decision_score_rejects_non_gbdt():
    X, y = _blobs(seed=4)
    model = fit_classifier(ClassifierSpec(method=LOGREG), X, y)
    with pytest.raises(ValueError):
        decision_score(model, X)


def test_logreg_gradient_small_at_solution():
    X, y = _blobs(seed=5, gap=3.0)
    spec = ClassifierSpec(method=LOGREG, l2=1.0, max_iter=20000, tol=1e-8)
    model = fit_classifier(spec, X, y)
    p = sigmoid(X @ model.weights + model.intercept)
    grad_w = X.T @ (p - y) / len(y) + spec.l2 * model.weights
    grad_b = np.mean(p - y)
    assert np.sqrt(np.sum(grad_w**2) + grad_b**2) <= 1e-5


def test_logreg_converges_when_features_outnumber_rows():
    rng = np.random.default_rng(3)
    X = rng.poisson(0.5, size=(60, 150)).astype(float)
    y = rng.integers(0, 2, 60).astype(float)
    spec = ClassifierSpec(method=LOGREG)
    model = fit_classifier(spec, X, y)
    p = sigmoid(X @ model.weights + model.intercept)
    grad_w = X.T @ (p - y) / len(y) + spec.l2 * model.weights
    grad_b = np.mean(p - y)
    assert np.sqrt(np.sum(grad_w**2) + grad_b**2) <= spec.tol


def test_logreg_raises_when_out_of_iterations():
    X, y = _blobs(seed=7, gap=3.0)
    with pytest.raises(ConvergenceError) as info:
        fit_classifier(ClassifierSpec(method=LOGREG, max_iter=1), X, y)
    assert info.value.iterations == 1


def test_logreg_separates_blobs():
    X, y = _blobs(seed=6)
    model = fit_classifier(ClassifierSpec(method=LOGREG, l2=0.01), X, y)
    assert _accuracy(model, X, y) == 1.0


def test_adaboost_stage_weights_positive():
    X, y = _blobs(seed=7, gap=2.0)
    model = fit_classifier(ClassifierSpec(method=ADABOOST, n_stages=20), X, y)
    assert len(model.stages) >= 1
    assert all(a > 0 for a in model.stage_weights)
    assert _accuracy(model, X, y) >= 0.9


def test_adaboost_perfect_stump_stops_after_one_stage():
    X, y = _blobs(seed=8, gap=10.0)
    model = fit_classifier(ClassifierSpec(method=ADABOOST, n_stages=50), X, y)
    assert len(model.stages) == 1
    assert _accuracy(model, X, y) == 1.0


def test_svm_linear_separates_blobs():
    X, y = _blobs(seed=9, gap=8.0)
    model = fit_classifier(ClassifierSpec(method=SVM_LINEAR, max_iter=2000), X, y)
    assert _accuracy(model, X, y) == 1.0


def test_svm_rbf_learns_xor():
    X, y = _xor(n_copies=10)
    model = fit_classifier(
        ClassifierSpec(method=SVM_RBF, max_iter=3000, svm_reg=0.001, gamma=2.0), X, y
    )
    assert _accuracy(model, X, y) == 1.0


def test_svm_rbf_derives_gamma_when_unset():
    X, y = _blobs(seed=10)
    model = fit_classifier(ClassifierSpec(method=SVM_RBF, max_iter=500), X, y)
    assert model.gamma is not None and model.gamma > 0



def _noisy_linear(seed, n=80, d=6):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, d))
    y = (X @ rng.normal(size=d) + rng.normal(scale=1.5, size=n) > 0).astype(float)
    return X, y


def _primal_pegasos(X, y, reg, max_iter):
    # Reference: Pegasos on the primal weights w, keeping the best of the
    # max_iter + 1 iterates by objective.
    n, d = X.shape
    ys = 2.0 * y - 1.0
    w, b, best = np.zeros(d), 0.0, None
    for t in range(1, max_iter + 2):
        margin = ys * (X @ w + b)
        objective = 0.5 * reg * float(w @ w) + float(np.mean(np.maximum(0.0, 1.0 - margin)))
        if best is None or objective < best[0]:
            best = (objective, w, b)
        viol, eta = margin < 1.0, 1.0 / (reg * t)
        w = w - eta * (reg * w - ys[viol] @ X[viol] / n)
        b = b + eta * float(ys[viol].sum()) / n
    return best[1], best[2]


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_svm_linear_matches_primal_pegasos(seed):
    X, y = _noisy_linear(seed)
    model = fit_classifier(ClassifierSpec(method=SVM_LINEAR, max_iter=300), X, y)
    w, b = _primal_pegasos(X, y, 0.01, 300)
    np.testing.assert_allclose(X @ model.weights + model.intercept, X @ w + b, rtol=0.0, atol=1e-9)


# At seed 0 and 30 steps the last iterate has the lowest objective.
@pytest.mark.parametrize("seed, max_iter", [(0, 30), (0, 300), (1, 300), (2, 300)])
def test_svm_rbf_bit_equal_to_two_product_loop(seed, max_iter):
    # The loop as written before the SVMs shared one: K beta formed twice per
    # step, and the last iterate scored after the loop.
    X, y = _noisy_linear(seed)
    spec = ClassifierSpec(method=SVM_RBF, max_iter=max_iter)
    model = fit_classifier(spec, X, y)
    n, ys = len(y), 2.0 * y - 1.0
    K = np.exp(-model.gamma * pairwise_sq_dists(X))
    beta, b, best = np.zeros(n), 0.0, None
    for t in range(1, spec.max_iter + 1):
        margin = ys * (K @ beta + b)
        viol = margin < 1.0
        hinge = float(np.mean(np.maximum(0.0, 1.0 - margin)))
        objective = 0.5 * spec.svm_reg * float(beta @ (K @ beta)) + hinge
        if best is None or objective < best[0]:
            best = (objective, beta.copy(), b)
        eta = 1.0 / (spec.svm_reg * t)
        beta = (1.0 - eta * spec.svm_reg) * beta
        beta[viol] += eta * ys[viol] / n
        b = b + eta * float(ys[viol].sum()) / n
    margin = ys * (K @ beta + b)
    hinge = float(np.mean(np.maximum(0.0, 1.0 - margin)))
    objective = 0.5 * spec.svm_reg * float(beta @ (K @ beta)) + hinge
    if objective < best[0]:
        best = (objective, beta, b)
    np.testing.assert_array_equal(model.dual_coef, best[1])
    assert model.intercept == best[2]

@pytest.mark.parametrize("method", CLASSIFIERS)
def test_probabilities_in_unit_interval(method):
    X, y = _blobs(seed=11, gap=2.0)
    spec = ClassifierSpec(method=method, n_stages=10, max_iter=300)
    model = fit_classifier(spec, X, y)
    p = predict_proba(model, X)
    assert p.shape == (len(y),)
    assert np.all(p >= 0.0) and np.all(p <= 1.0)


@pytest.mark.parametrize("method", CLASSIFIERS)
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_predict_proba_rejects_non_finite_rows(method, bad):
    X, y = _blobs(seed=11, gap=2.0)
    model = fit_classifier(ClassifierSpec(method=method, n_stages=10, max_iter=300), X, y)
    X_bad = X[:3].copy()
    X_bad[1, 0] = bad
    with pytest.raises(ValueError):
        predict_proba(model, X_bad)
    if method == GBDT:
        with pytest.raises(ValueError):
            decision_score(model, X_bad)


@pytest.mark.parametrize("method", CLASSIFIERS)
def test_fit_deterministic(method):
    X, y = _blobs(seed=12, gap=2.0)
    spec = ClassifierSpec(method=method, n_stages=10, max_iter=300, seed=3)
    a = predict_proba(fit_classifier(spec, X, y), X)
    b = predict_proba(fit_classifier(spec, X, y), X)
    np.testing.assert_array_equal(a, b)


def test_importance_concentrates_on_signal_feature():
    rng = np.random.default_rng(13)
    X = rng.normal(size=(200, 4))
    y = (X[:, 2] > 0).astype(float)
    model = fit_classifier(ClassifierSpec(method=GBDT, n_stages=10, max_depth=2), X, y)
    imp = feature_importance(model).weights
    assert abs(imp.sum() - 1.0) < 1e-12
    assert imp[2] > 0.9


def test_importance_zero_when_no_splits():
    X = np.ones((20, 2))
    y = np.array([0.0, 1.0] * 10)
    model = fit_classifier(ClassifierSpec(method=TREE, max_depth=3), X, y)
    imp = feature_importance(model).weights
    np.testing.assert_array_equal(imp, 0.0)


def test_importance_undefined_for_coefficient_models():
    X, y = _blobs(seed=14)
    for method in (LOGREG, SVM_LINEAR, SVM_RBF):
        model = fit_classifier(ClassifierSpec(method=method, max_iter=100), X, y)
        with pytest.raises(ValueError):
            feature_importance(model)


def test_model_summary_schema_gbdt(tmp_path):
    X, y = _blobs(seed=15)
    model = fit_classifier(ClassifierSpec(method=GBDT, n_stages=5), X, y)
    summary = model_summary(model, feature_names=["a", "b"])
    assert summary["method"] == GBDT
    assert summary["n_features"] == 2
    assert summary["n_stages_fit"] == 5
    assert len(summary["deviance_trace"]) == 5
    assert set(summary["feature_importance"]) == {"a", "b"}
    assert set(summary["hyperparameters"]) == {
        "learning_rate", "max_depth", "n_stages", "l2", "max_iter",
        "svm_reg", "gamma", "seed",
    }
    path = tmp_path / "summary.json"
    write_model_summary(summary, path)
    assert json.loads(path.read_text()) == json.loads(json.dumps(summary))


def test_model_summary_default_names_and_logreg_nulls():
    X, y = _blobs(seed=16)
    model = fit_classifier(ClassifierSpec(method=LOGREG, max_iter=50), X, y)
    summary = model_summary(model)
    assert summary["feature_importance"] is None
    assert summary["deviance_trace"] is None
    tree = fit_classifier(ClassifierSpec(method=TREE, max_depth=2), X, y)
    assert set(model_summary(tree)["feature_importance"]) == {"f0", "f1"}


def test_model_summary_name_length_mismatch():
    X, y = _blobs(seed=17)
    model = fit_classifier(ClassifierSpec(method=TREE), X, y)
    with pytest.raises(ValueError):
        model_summary(model, feature_names=["only_one"])


def test_spec_validation():
    with pytest.raises(ValueError):
        ClassifierSpec(method="FOREST")
    with pytest.raises(ValueError):
        ClassifierSpec(learning_rate=0.0)
    with pytest.raises(ValueError):
        ClassifierSpec(n_stages=0)
    with pytest.raises(ValueError):
        ClassifierSpec(svm_reg=0.0)
    with pytest.raises(ValueError):
        ClassifierSpec(l2=-1.0)


def test_spec_rejects_zero_l2():
    # With l2 = 0 and at least as many features as rows, the Newton system
    # is singular and the maximum-likelihood estimate need not exist.
    with pytest.raises(ValueError):
        ClassifierSpec(l2=0.0)


def test_fit_rejects_bad_targets():
    X = np.zeros((4, 2))
    spec = ClassifierSpec(method=TREE)
    with pytest.raises(ValueError):
        fit_classifier(spec, X, np.array([0.0, 1.0, 2.0, 1.0]))
    with pytest.raises(ValueError):
        fit_classifier(spec, X, np.ones(4))  # single class
    with pytest.raises(ValueError):
        fit_classifier(spec, np.array([[np.nan, 0.0]] * 4), np.array([0.0, 1.0, 0.0, 1.0]))
    with pytest.raises(ValueError):
        fit_classifier(spec, X, np.array([0.0, 1.0]))  # length mismatch


def test_predict_proba_rejects_wrong_width():
    X, y = _blobs(seed=18)
    model = fit_classifier(ClassifierSpec(method=LOGREG, max_iter=50), X, y)
    with pytest.raises(ValueError):
        predict_proba(model, np.zeros((3, 5)))
