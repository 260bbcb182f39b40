"""Tests for the multinomial distribution and penalized MLR fitting."""

import itertools

import numpy as np
import pytest
from scipy.optimize import minimize

from rfsquash.data import Dataset, gen_friedman1
from rfsquash.errors import NumericError
from rfsquash.forest import ForestConfig, fit_forest, rederive_subsamples
from rfsquash.mlr import (
    MlrFitConfig,
    MlrModel,
    _softmax,
    class_probabilities,
    class_probability_matrix,
    fit_mlr,
    multinomial_pmf,
    penalized_gradient,
    penalized_log_likelihood,
    predict_class,
)
from rfsquash.surrogate import extract_leaf_dataset


def _random_model(rng, k, p, scale=1.0):
    return MlrModel(
        rng.normal(scale=scale, size=k - 1),
        rng.normal(scale=scale, size=(k - 1, p)),
    )


def _params_flat(model):
    return np.hstack([model.intercepts[:, None], model.coefficients]).ravel()


def _model_from_flat(flat, k, p):
    grid = flat.reshape(k - 1, p + 1)
    return MlrModel(grid[:, 0], grid[:, 1:])


class TestMultinomialPmf:
    def test_single_trial(self):
        assert multinomial_pmf([1, 0, 0], [0.2, 0.3, 0.5], 1) == pytest.approx(0.2)

    def test_hand_computed_value(self):
        # 3!/(2!1!0!) * 0.5^2 * 0.3 = 3 * 0.075 = 0.225
        assert multinomial_pmf([2, 1, 0], [0.5, 0.3, 0.2], 3) == pytest.approx(
            0.225, abs=1e-15
        )

    def test_total_mass_three_cells(self):
        theta = [0.5, 0.3, 0.2]
        total = sum(
            multinomial_pmf([a, b, 3 - a - b], theta, 3)
            for a in range(4)
            for b in range(4 - a)
        )
        assert total == pytest.approx(1.0, abs=1e-12)

    def test_total_mass_random_theta_all_small_supports(self):
        rng = np.random.default_rng(5)
        for n, cells in itertools.product(range(1, 5), (2, 3)):
            raw = rng.random(cells)
            theta = raw / raw.sum()
            total = 0.0
            for combo in itertools.product(range(n + 1), repeat=cells):
                if sum(combo) == n:
                    total += multinomial_pmf(list(combo), theta, n)
            assert total == pytest.approx(1.0, abs=1e-12)

    def test_zero_probability_zero_count_is_fine(self):
        assert multinomial_pmf([2, 0], [1.0, 0.0], 2) == pytest.approx(1.0)

    def test_zero_probability_positive_count_gives_zero(self):
        assert multinomial_pmf([1, 1], [1.0, 0.0], 2) == 0.0

    def test_large_counts_do_not_overflow(self):
        value = multinomial_pmf([500, 500], [0.5, 0.5], 1000)
        assert 0 < value < 1

    def test_errors(self):
        with pytest.raises(ValueError, match="equal 1-D"):
            multinomial_pmf([1, 0], [0.5, 0.3, 0.2], 1)
        with pytest.raises(ValueError, match="sum to"):
            multinomial_pmf([1, 1], [0.5, 0.5], 3)
        with pytest.raises(ValueError, match="theta sums"):
            multinomial_pmf([1, 0], [0.6, 0.6], 1)
        with pytest.raises(ValueError, match="non-negative"):
            multinomial_pmf([1, 0], [1.5, -0.5], 1)
        with pytest.raises(ValueError, match="non-negative integers"):
            multinomial_pmf([-1, 2], [0.5, 0.5], 1)


class TestClassProbabilities:
    def test_zero_model_is_uniform(self):
        model = MlrModel(np.zeros(3), np.zeros((3, 2)))
        probs = class_probabilities(model, np.array([0.4, -1.0]))
        np.testing.assert_allclose(probs, 0.25, atol=1e-15)

    def test_binary_reduction(self):
        model = MlrModel(np.zeros(1), np.zeros((1, 4)))
        probs = class_probabilities(model, np.ones(4))
        np.testing.assert_allclose(probs, [0.5, 0.5], atol=1e-15)

    def test_log_odds_closed_form(self):
        model = MlrModel(np.array([np.log(2), np.log(3)]), np.zeros((2, 2)))
        probs = class_probabilities(model, np.zeros(2))
        np.testing.assert_allclose(probs, [2 / 6, 3 / 6, 1 / 6], atol=1e-12)

    def test_sums_to_one_with_huge_logits(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            k = int(rng.integers(2, 6))
            p = int(rng.integers(1, 4))
            model = _random_model(rng, k, p, scale=1000.0)
            x = rng.normal(size=p)
            probs = class_probabilities(model, x)
            assert abs(probs.sum() - 1.0) < 1e-12
            assert np.all(probs >= 0)

    def test_dimension_mismatch(self):
        model = MlrModel(np.zeros(1), np.zeros((1, 3)))
        with pytest.raises(ValueError, match="features"):
            class_probabilities(model, np.zeros(2))

    def test_base_category_is_last(self):
        model = MlrModel(np.array([5.0]), np.zeros((1, 1)))
        assert model.base_category == 1
        probs = class_probabilities(model, np.zeros(1))
        assert probs[0] > probs[1]

    def test_overflowing_logit_takes_all_probability(self):
        # 1e300 * 1e10 overflows to +inf (and -inf); the softmax limit puts
        # all mass on the +inf leaf, or on the base when the other is -inf
        model = MlrModel(np.zeros(1), np.array([[1e300]]))
        probs = class_probability_matrix(model, np.array([[1e10], [-1e10]]))
        np.testing.assert_array_equal(probs, [[1.0, 0.0], [0.0, 1.0]])

    def test_tied_infinite_logits_share_probability(self):
        model = MlrModel(np.zeros(2), np.array([[1e300], [2e300]]))
        probs = class_probabilities(model, np.array([1e10]))
        np.testing.assert_array_equal(probs, [0.5, 0.5, 0.0])

    def test_nan_logit_raises(self):
        with pytest.raises(NumericError, match="NaN"):
            _softmax(np.array([[0.5, np.nan, 0.0], [0.0, 1.0, 0.0]]))


class TestLogLikelihoodAndGradient:
    def test_zero_model_uniform_likelihood(self):
        rng = np.random.default_rng(1)
        n, p, k = 12, 3, 4
        model = MlrModel(np.zeros(k - 1), np.zeros((k - 1, p)))
        x = rng.normal(size=(n, p))
        labels = rng.integers(0, k, size=n)
        ll = penalized_log_likelihood(model, x, labels, 0.0)
        assert ll == pytest.approx(-n * np.log(k), rel=1e-14)

    def test_single_row_logistic_score(self):
        model = MlrModel(np.zeros(1), np.zeros((1, 1)))
        x = np.zeros((1, 1))
        grad_class0 = penalized_gradient(model, x, np.array([0]), 0.0)
        assert grad_class0[0] == pytest.approx(0.5)
        grad_base = penalized_gradient(model, x, np.array([1]), 0.0)
        assert grad_base[0] == pytest.approx(-0.5)

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(7)
        h = 1e-5
        for _ in range(10):
            n, p, k = 6, 2, 3
            x = rng.normal(size=(n, p))
            labels = rng.integers(0, k, size=n)
            lam = float(rng.uniform(0, 0.5))
            model = _random_model(rng, k, p)
            grad = penalized_gradient(model, x, labels, lam)
            flat = _params_flat(model)
            for i in range(flat.size):
                up, down = flat.copy(), flat.copy()
                up[i] += h
                down[i] -= h
                fd = (
                    penalized_log_likelihood(_model_from_flat(up, k, p), x, labels, lam)
                    - penalized_log_likelihood(
                        _model_from_flat(down, k, p), x, labels, lam
                    )
                ) / (2 * h)
                assert abs(grad[i] - fd) / max(1e-8, abs(fd)) < 1e-6

    def test_label_out_of_range(self):
        model = MlrModel(np.zeros(1), np.zeros((1, 1)))
        with pytest.raises(ValueError, match="labels"):
            penalized_log_likelihood(model, np.zeros((1, 1)), np.array([2]), 0.0)


class TestFitMlr:
    def test_separable_two_class_classifies_training_data(self):
        rng = np.random.default_rng(3)
        x = np.concatenate([rng.uniform(0, 0.45, 25), rng.uniform(0.55, 1, 25)])
        x = x.reshape(-1, 1)
        labels = (x[:, 0] > 0.5).astype(int)
        result = fit_mlr(x, labels, 2, MlrFitConfig(l2_penalty=1e-6, max_iterations=200))
        predicted = np.argmax(class_probability_matrix(result.model, x), axis=1)
        np.testing.assert_array_equal(predicted, labels)

    def test_all_labels_base_category_keeps_zero_coefficients(self):
        # Categories absent from the labels are pinned at zero, so a training
        # set containing only the base category returns the zero model; the
        # uniform argmax then resolves to index 0 by the lowest-index rule.
        x = np.random.default_rng(0).normal(size=(10, 2))
        labels = np.full(10, 2)
        result = fit_mlr(x, labels, 3, MlrFitConfig(l2_penalty=0.5))
        np.testing.assert_array_equal(result.model.intercepts, 0.0)
        np.testing.assert_array_equal(result.model.coefficients, 0.0)
        assert result.converged
        assert predict_class(result.model, x[0]) == 0

    def test_absent_middle_category_stays_zero(self):
        rng = np.random.default_rng(4)
        x = rng.normal(size=(30, 2))
        labels = rng.choice([0, 2], size=30)
        result = fit_mlr(x, labels, 3, MlrFitConfig(l2_penalty=0.01))
        assert result.model.intercepts[1] == 0.0
        np.testing.assert_array_equal(result.model.coefficients[1], 0.0)
        assert np.any(result.model.coefficients[0] != 0.0)

    def test_grid_search_oracle_tiny_instance(self):
        x = np.array([[0.1], [0.35], [0.6], [0.95]])
        labels = np.array([0, 0, 1, 1])
        lam = 0.1
        result = fit_mlr(
            x, labels, 2, MlrFitConfig(l2_penalty=lam, gradient_tolerance=1e-10)
        )
        fitted_value = penalized_log_likelihood(result.model, x, labels, lam)
        grid = np.arange(-5.0, 5.0 + 1e-9, 0.05)
        alpha, beta = np.meshgrid(grid, grid, indexing="ij")
        alpha, beta = alpha.ravel(), beta.ravel()
        # class 0 is the non-base category: theta_0 = sigmoid(alpha + beta x)
        eta = alpha[None, :] + x @ beta[None, :]
        log_p0 = -np.log1p(np.exp(-eta))
        log_p1 = -np.log1p(np.exp(eta))
        ll = np.where(labels[:, None] == 0, log_p0, log_p1).sum(axis=0)
        ll -= 0.5 * lam * (alpha**2 + beta**2)
        assert fitted_value >= ll.max() - 1e-12

    def test_penalized_objective_nondecreasing_over_iteration_budget(self):
        rng = np.random.default_rng(8)
        x = rng.normal(size=(40, 3))
        labels = rng.integers(0, 3, size=40)
        previous = -np.inf
        for budget in range(1, 8):
            result = fit_mlr(
                x,
                labels,
                3,
                MlrFitConfig(
                    l2_penalty=0.01, max_iterations=budget, gradient_tolerance=1e-14
                ),
            )
            value = penalized_log_likelihood(result.model, x, labels, 0.01)
            assert value >= previous - 1e-12
            previous = value

    def test_identical_fits_are_bit_equal(self):
        rng = np.random.default_rng(9)
        x = rng.normal(size=(50, 2))
        labels = rng.integers(0, 4, size=50)
        config = MlrFitConfig(l2_penalty=0.05, gradient_tolerance=1e-9)
        a = fit_mlr(x, labels, 4, config)
        b = fit_mlr(x, labels, 4, config)
        np.testing.assert_array_equal(_params_flat(a.model), _params_flat(b.model))
        assert (a.iterations, a.grad_max_norm) == (b.iterations, b.grad_max_norm)

    def test_matches_scipy_oracle(self):
        # Independent oracle: scipy's BFGS on the public objective and
        # gradient, sharing no optimizer code with the package.
        rng = np.random.default_rng(10)
        x = rng.normal(size=(60, 3))
        labels = rng.integers(0, 3, size=60)
        lam = 0.01
        oracle = minimize(
            lambda v: -penalized_log_likelihood(_model_from_flat(v, 3, 3), x, labels, lam),
            np.zeros(8),
            jac=lambda v: -penalized_gradient(_model_from_flat(v, 3, 3), x, labels, lam),
            method="BFGS",
            options={"gtol": 1e-8},
        )
        assert oracle.success
        result = fit_mlr(
            x, labels, 3, MlrFitConfig(l2_penalty=lam, gradient_tolerance=1e-9)
        )
        assert result.converged and result.optimizer_used == "newton"
        assert np.max(np.abs(_params_flat(result.model) - oracle.x)) < 1e-6

    def test_converges_above_two_thousand_parameters(self):
        # A depth-8 tree on Friedman #1 plus 20 noise columns routes to over
        # 100 leaves, so its surrogate has more than 2000 parameters.
        base = gen_friedman1(400, 1.0, seed=21)
        noise = np.random.default_rng(22).uniform(size=(400, 20))
        ds = Dataset(base.responses, np.hstack([base.features, noise]))
        config = ForestConfig(
            subsample_size=400, features_per_split=30, max_depth=8, n_trees=1,
            min_leaf=2, seed=5,
        )
        forest = fit_forest(ds, config)
        leaves = extract_leaf_dataset(forest.trees[0], ds, rederive_subsamples(forest)[0])
        active = np.count_nonzero(np.bincount(leaves.labels)[: leaves.n_leaves - 1])
        assert active * (ds.n_features + 1) > 2000
        result = fit_mlr(leaves.features, leaves.labels, leaves.n_leaves, MlrFitConfig())
        assert result.converged
        assert result.grad_max_norm <= MlrFitConfig().gradient_tolerance

    def test_binary_fit_matches_independent_logistic(self):
        # Independent oracle: Newton iteration on the sigmoid parameterization,
        # sharing no code with the package implementation.
        def binary_logistic(x, targets, lam):
            phi = np.hstack([np.ones((x.shape[0], 1)), x])
            w = np.zeros(phi.shape[1])
            for _ in range(200):
                mu = 1.0 / (1.0 + np.exp(-(phi @ w)))
                grad = phi.T @ (targets - mu) - lam * w
                hess = (phi * (mu * (1 - mu))[:, None]).T @ phi + lam * np.eye(w.size)
                w = w + np.linalg.solve(hess, grad)
                if np.max(np.abs(grad)) < 1e-12:
                    break
            return w

        rng = np.random.default_rng(11)
        for _ in range(5):
            n = int(rng.integers(20, 120))
            p = int(rng.integers(1, 5))
            x = rng.normal(size=(n, p)) * rng.uniform(0.3, 2.0)
            labels = rng.integers(0, 2, size=n)
            result = fit_mlr(
                x, labels, 2,
                MlrFitConfig(l2_penalty=0.01, gradient_tolerance=1e-10, max_iterations=300),
            )
            oracle = binary_logistic(x, (labels == 0).astype(float), 0.01)
            mine = np.hstack([result.model.intercepts, result.model.coefficients[0]])
            assert np.max(np.abs(mine - oracle)) < 1e-6

    def test_reported_convergence_flag(self):
        rng = np.random.default_rng(12)
        x = rng.normal(size=(30, 2))
        labels = rng.integers(0, 3, size=30)
        tight = fit_mlr(x, labels, 3, MlrFitConfig(l2_penalty=0.01))
        assert tight.converged
        starved = fit_mlr(
            x, labels, 3, MlrFitConfig(l2_penalty=0.01, max_iterations=1)
        )
        assert not starved.converged
        assert starved.iterations == 1

    def test_errors(self):
        x = np.zeros((3, 1))
        with pytest.raises(ValueError, match="n_categories"):
            fit_mlr(x, np.zeros(3, dtype=int), 1, MlrFitConfig())
        with pytest.raises(ValueError, match="empty"):
            fit_mlr(np.zeros((0, 1)), np.zeros(0, dtype=int), 2, MlrFitConfig())
        with pytest.raises(NumericError, match="non-finite"):
            fit_mlr(np.array([[np.nan]]), np.array([0]), 2, MlrFitConfig())
        with pytest.raises(ValueError, match="labels"):
            fit_mlr(x, np.array([0, 1, 5]), 2, MlrFitConfig())

    def test_config_validation(self):
        with pytest.raises(ValueError):
            MlrFitConfig(l2_penalty=-1.0)
        with pytest.raises(ValueError):
            MlrFitConfig(max_iterations=0)
        with pytest.raises(ValueError):
            MlrFitConfig(gradient_tolerance=0.0)
        with pytest.raises(TypeError):  # one optimizer; there is nothing to pick
            MlrFitConfig(optimizer="sgd")


class TestPredictClass:
    def test_uniform_ties_break_low(self):
        model = MlrModel(np.zeros(2), np.zeros((2, 1)))
        assert predict_class(model, np.array([0.3])) == 0

    def test_dominant_logit(self):
        model = MlrModel(np.array([5.0]), np.zeros((1, 2)))
        for x in (np.zeros(2), np.ones(2) * 100):
            assert predict_class(model, x) == 0

    def test_matches_recomputed_argmax(self):
        rng = np.random.default_rng(13)
        for _ in range(50):
            k = int(rng.integers(2, 6))
            p = int(rng.integers(1, 4))
            model = _random_model(rng, k, p, scale=2.0)
            x = rng.normal(size=p)
            assert predict_class(model, x) == int(
                np.argmax(class_probabilities(model, x))
            )
