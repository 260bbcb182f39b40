"""Tests for the multinomial distribution and penalized MLR fitting."""

import itertools
import re
import tracemalloc
import warnings

import numpy as np
import pytest
from scipy.optimize import minimize

from rfsquash import mlr
from rfsquash.data import Dataset, gen_friedman1
from rfsquash.errors import NumericError
from rfsquash.forest import ForestConfig, fit_forest, rederive_subsamples
from rfsquash.mlr import (
    MlrFitConfig,
    MlrModel,
    _Objective,
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


def _leaf_dataset():
    """A depth-5 tree's leaf allocation of its 1000 Friedman #1 rows: K = 32."""
    ds = gen_friedman1(2000, 1.0, seed=23)
    config = ForestConfig(
        subsample_size=1000, features_per_split=10, max_depth=5, n_trees=1,
        min_leaf=8, seed=6,
    )
    forest = fit_forest(ds, config)
    tree = forest.trees[0]
    features, labels = extract_leaf_dataset(tree, ds, rederive_subsamples(forest)[0])
    return features, labels, tree.n_leaves


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
        assert (result.iterations, result.cg_steps) == (0, 0)
        assert predict_class(result.model, x[0]) == 0

    def test_one_category_is_the_parameter_free_model(self):
        # a single-leaf tree's allocation: every label is the only category
        x = np.random.default_rng(1).normal(size=(6, 3))
        result = fit_mlr(x, np.zeros(6, dtype=int), 1, MlrFitConfig())
        assert result.model.intercepts.shape == (0,)
        assert result.model.coefficients.shape == (0, 3)
        assert result.converged and result.optimizer_used == "newton"
        assert (result.iterations, result.cg_steps) == (0, 0)
        np.testing.assert_array_equal(class_probability_matrix(result.model, x), 1.0)
        assert predict_class(result.model, x[0]) == 0

    def test_zero_width_features_fit_the_intercepts(self):
        # a single-leaf tree's surrogate is fitted on its split features: none
        x = np.empty((9, 0))
        single = fit_mlr(x, np.zeros(9, dtype=int), 1, MlrFitConfig())
        assert single.model.coefficients.shape == (0, 0)
        assert single.converged and (single.iterations, single.cg_steps) == (0, 0)
        labels = np.array([0, 0, 0, 0, 0, 0, 1, 1, 1])
        config = MlrFitConfig(l2_penalty=1e-3)
        binary = fit_mlr(x, labels, 2, config)
        assert binary.model.coefficients.shape == (1, 0)
        assert binary.converged and binary.iterations > 0
        assert np.isfinite(binary.model.intercepts).all()
        # the intercept-only MLE is the log-odds of the label counts, up to
        # the penalty's pull
        assert binary.model.intercepts[0] == pytest.approx(np.log(6 / 3), abs=1e-3)
        grad = penalized_gradient(binary.model, x, labels, config.l2_penalty)
        assert np.abs(grad).max() <= config.gradient_tolerance
        with pytest.raises(ValueError, match="no rows"):
            fit_mlr(np.empty((0, 0)), np.zeros(0, dtype=int), 1, MlrFitConfig())

    def test_rejects_anything_but_rows(self):
        # a 3-D input used to fail to unpack its shape; a lone number passed
        # as a one-feature row
        for x in (np.zeros((2, 4, 10)), np.float64(1.0)):
            message = f"fit_mlr expects p features per row, got an input of shape {x.shape}"
            with pytest.raises(ValueError, match=re.escape(message)):
                fit_mlr(x, np.zeros(2, dtype=int), 2, MlrFitConfig())
        assert fit_mlr(np.zeros(4), np.zeros(1, dtype=int), 2, MlrFitConfig()).model.n_features == 4

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
        assert a.cg_steps == b.cg_steps

    def test_cg_steps_count_the_hessian_products(self, monkeypatch):
        rng = np.random.default_rng(14)
        x = rng.normal(size=(80, 3))
        labels = rng.integers(0, 5, size=80)
        config = MlrFitConfig(l2_penalty=1e-3, gradient_tolerance=1e-8)
        result = fit_mlr(x, labels, 5, config)
        assert result.converged and result.iterations >= 2
        # every Newton iteration takes at least one CG step
        assert result.cg_steps >= result.iterations
        assert fit_mlr(x, labels, 5, config).cg_steps == result.cg_steps
        calls = []
        original = _Objective.curvature

        def counted(self, probs, v):
            calls.append(1)
            return original(self, probs, v)

        monkeypatch.setattr(_Objective, "curvature", counted)
        assert fit_mlr(x, labels, 5, config).cg_steps == len(calls)

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
        tree = forest.trees[0]
        features, labels = extract_leaf_dataset(tree, ds, rederive_subsamples(forest)[0])
        active = np.count_nonzero(np.bincount(labels)[: tree.n_leaves - 1])
        assert active * (ds.n_features + 1) > 2000
        result = fit_mlr(features, labels, tree.n_leaves, MlrFitConfig())
        assert result.converged
        assert result.grad_max_norm <= MlrFitConfig().gradient_tolerance

    @pytest.mark.parametrize("lam", [1e-3, 1e-2])
    def test_tight_tolerance_holds_on_the_exact_gradient(self, lam):
        # The CG products are float32, but the returned optimum must meet the
        # tolerance on the float64 gradient, recomputed here by the public
        # row-major function. At lambda = 0.01 the last Newton step landed at
        # 1.02e-8; the full step then lowered f by 3.4e-12, more than 8 eps
        # |f| but within the rounding of the terms f sums, and the fit halved
        # its steps to nothing for 80 iterations.
        features, labels, k = _leaf_dataset()
        assert k >= 20
        tolerance = 1e-8
        result = fit_mlr(
            features, labels, k, MlrFitConfig(l2_penalty=lam, gradient_tolerance=tolerance)
        )
        assert result.converged
        gradient = penalized_gradient(result.model, features, labels, lam)
        assert np.max(np.abs(gradient)) <= tolerance

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

    def test_constant_column_at_zero_penalty_converges(self):
        # At lambda = 0 a constant column has no curvature at all, so its
        # preconditioner pivot is 0 - 0 and must be replaced, not divided by
        rng = np.random.default_rng(31)
        for constant in (3.0, 0.1):
            x = np.column_stack(
                [rng.normal(size=60), np.full(60, constant), rng.normal(size=60)]
            )
            labels = rng.integers(0, 3, size=60)
            result = fit_mlr(x, labels, 3, MlrFitConfig(l2_penalty=0.0))
            assert result.converged
            assert np.all(np.isfinite(result.model.coefficients))

    def test_fewer_rows_than_parameters_at_zero_penalty_converges(self):
        rng = np.random.default_rng(32)
        for _ in range(3):
            x = rng.normal(size=(5, 8))
            labels = rng.integers(0, 3, size=5)
            result = fit_mlr(x, labels, 3, MlrFitConfig(l2_penalty=0.0))
            assert result.converged

    def test_newton_step_within_rounding_of_the_optimum_is_taken(self):
        # Near the optimum the exact Newton step changed f by less than its
        # rounding error and was rejected; halving then ended at steps that
        # left f as it was, and this fit ran all 100 Newton steps at a
        # gradient of 2.2e-9 without reaching 1e-10.
        rng = np.random.default_rng(11)
        x = rng.normal(size=(100, 2)) + rng.normal(size=2) * 3
        labels = rng.integers(0, 3, size=100)
        result = fit_mlr(
            x, labels, 3, MlrFitConfig(l2_penalty=1e-3, gradient_tolerance=1e-10)
        )
        assert result.converged and result.iterations <= 20

    def test_exact_preconditioner_takes_one_cg_step_per_newton_step(self):
        # With one leaf and one feature the preconditioner is the whole
        # negative Hessian, so CG solves each Newton system in one step.
        rng = np.random.default_rng(33)
        x = rng.normal(size=(60, 1)) * 2.0 + 1.0
        labels = rng.integers(0, 2, size=60)
        result = fit_mlr(
            x, labels, 2, MlrFitConfig(l2_penalty=1e-3, gradient_tolerance=1e-10)
        )
        assert result.converged and result.iterations >= 2
        assert result.cg_steps == result.iterations

    def test_memory_stays_linear_in_rows_and_parameters(self):
        # The per-row arrays are (A, n) and (p+1, n) wide; a fit must not
        # build anything as large as rows x parameters, such as the (n, p^2)
        # outer products of an exact block-Jacobi preconditioner.
        n, p, k = 400, 200, 6
        rng = np.random.default_rng(34)
        x = rng.normal(size=(n, p))
        labels = rng.integers(0, k, size=n)
        bound = 6 * 8 * n * ((k - 1) + (p + 1))
        assert bound < 8 * n * p * p
        tracemalloc.start()
        try:
            result = fit_mlr(x, labels, k, MlrFitConfig())
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert result.converged
        assert peak < bound

    def test_errors(self):
        x = np.zeros((3, 1))
        with pytest.raises(ValueError, match="n_categories"):
            fit_mlr(x, np.zeros(3, dtype=int), 0, MlrFitConfig())
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

    @pytest.mark.parametrize("column", [[1e155, 0.0], [1e300, -1e300], [0.0, 1e-160]])
    def test_features_past_the_standardization_range_raise(self, column):
        # 1e155 and +-1e300 overflow the column's spread; a spread of 5e-161
        # overflows the penalty's T'T through (1 / spread)**2
        x = np.array(column)[:, None]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericError, match="standardize"):
                fit_mlr(x, np.array([0, 1]), 2, MlrFitConfig())

    def test_malformed_inputs_are_rejected(self):
        x = np.zeros((3, 1))
        with pytest.raises(ValueError, match="1-D"):
            fit_mlr(x, np.zeros((3, 1), dtype=int), 2, MlrFitConfig())
        with pytest.raises(ValueError, match="integers"):
            fit_mlr(x, np.array([0.0, 0.5, 1.0]), 2, MlrFitConfig())
        with pytest.raises(ValueError, match="3 feature rows vs 2 labels"):
            fit_mlr(x, np.array([0, 1]), 2, MlrFitConfig())
        model = MlrModel(np.zeros(1), np.zeros((1, 1)))
        with pytest.raises(ValueError, match="3 feature rows vs 2 labels"):
            penalized_log_likelihood(model, x, np.array([0, 1]), 0.0)

    def test_model_shapes_are_checked(self):
        with pytest.raises(ValueError, match=r"\(K-1,\)"):
            MlrModel(np.zeros((1, 1)), np.zeros((1, 2)))
        with pytest.raises(ValueError, match="2 intercepts vs 1 coefficient rows"):
            MlrModel(np.zeros(2), np.zeros((1, 2)))


class TestLineSearch:
    @staticmethod
    def _data():
        x = np.random.default_rng(8).normal(size=(80, 2))
        return x, (x[:, 0] > 0).astype(int) + (x[:, 1] > 0)

    def test_a_descent_direction_is_refused_after_every_halving(self, monkeypatch):
        objective = _Objective(*self._data(), 3, np.array([0, 1]), 1e-3)
        w = np.zeros((2, 3))
        f, grad, probs = objective.value_grad_probs(w)
        direction, _ = mlr._newton_cg_direction(objective, probs, grad, 1e-4)
        assert mlr._ascend(objective, w, direction, f, 1.0) is not None
        tries = []
        evaluate = objective.value_grad_probs
        monkeypatch.setattr(
            objective, "value_grad_probs", lambda v: tries.append(v) or evaluate(v)
        )
        assert mlr._ascend(objective, w, -direction, f, np.inf) is None
        assert len(tries) == mlr._MAX_HALVINGS
        np.testing.assert_array_equal(tries[0], -direction)
        np.testing.assert_array_equal(tries[-1], 0.5 ** (mlr._MAX_HALVINGS - 1) * -direction)

    def test_fit_stops_unconverged_when_no_step_is_taken(self, monkeypatch):
        newton = mlr._newton_cg_direction

        def backwards(*args):
            direction, steps = newton(*args)
            return -direction, steps

        monkeypatch.setattr(mlr, "_newton_cg_direction", backwards)
        result = fit_mlr(*self._data(), 3, MlrFitConfig(max_iterations=5))
        assert not result.converged
        assert result.iterations == 1 and result.cg_steps >= 1
        np.testing.assert_array_equal(result.model.intercepts, 0.0)
        np.testing.assert_array_equal(result.model.coefficients, 0.0)


class TestObjectiveOracle:
    """The category-major objective against the public row-major functions,
    on a K=4 instance whose middle category 1 has no rows."""

    K, P = 4, 2

    def _instance(self, lam):
        rng = np.random.default_rng(15)
        x = rng.normal(loc=[1.0, -2.0], scale=[0.5, 3.0], size=(40, self.P))
        labels = rng.choice([0, 2, 3], size=40)  # 3 is the base
        active = np.array([0, 2])
        objective = _Objective(x, labels, self.K, active, lam)
        w = rng.normal(scale=0.7, size=(active.size, self.P + 1))
        return x, labels, active, objective, w

    def _model(self, objective, w):
        return MlrModel(*objective.to_original(w))

    @pytest.mark.parametrize("lam", [0.0, 1e-3])
    def test_value_gradient_and_probabilities(self, lam):
        x, labels, active, objective, w = self._instance(lam)
        model = self._model(objective, w)
        assert model.intercepts[1] == 0.0 and not model.coefficients[1].any()
        expected = penalized_log_likelihood(model, x, labels, lam)
        value, grad, probs = objective.value_grad_probs(w)
        assert value == pytest.approx(expected, rel=1e-12)
        # w maps to the original parameters through T per category, so the
        # standardized gradient is the original one pushed through T'
        original = penalized_gradient(model, x, labels, lam).reshape(self.K - 1, -1)
        np.testing.assert_allclose(grad, original[active] @ objective.t, rtol=1e-10, atol=1e-12)
        np.testing.assert_allclose(
            probs, class_probability_matrix(model, x)[:, active].T, rtol=1e-12, atol=1e-15
        )

    @staticmethod
    def _negative_hessian(objective, w, h=1e-5):
        """Central finite differences of the gradient."""
        dense = np.empty((w.size, w.size))
        for i, step in enumerate(np.eye(w.size) * h):
            up = objective.value_grad_probs(w + step.reshape(w.shape))[1]
            down = objective.value_grad_probs(w - step.reshape(w.shape))[1]
            dense[:, i] = -(up - down).ravel() / (2 * h)
        return dense

    @staticmethod
    def _columns(operator, shape):
        """The matrix of a linear map of (A, p+1) arrays, over the flat order."""
        size = shape[0] * shape[1]
        return np.column_stack(
            [operator(e.reshape(shape)).ravel() for e in np.eye(size)]
        )

    @pytest.mark.parametrize("lam", [0.0, 1e-3])
    def test_curvature_matches_finite_difference_hessian(self, lam):
        _, _, _, objective, w = self._instance(lam)
        _, _, probs = objective.value_grad_probs(w)
        dense = self._negative_hessian(objective, w)
        probs32 = objective.curvature_probs(probs)
        products = self._columns(lambda v: objective.curvature(probs32, v), w.shape)
        scale = np.max(np.abs(dense))
        assert np.max(np.abs(products - dense)) <= 1e-6 * scale
        # The products are float32, so the columns of the symmetric Hessian
        # agree only to float32 rounding: at most 0.68 eps32 max|dense| over
        # 200 random instances of this shape
        symmetry = np.finfo(np.float32).eps * scale
        np.testing.assert_allclose(products, products.T, rtol=0, atol=symmetry)

    @pytest.mark.parametrize("lam", [0.0, 1e-3])
    @pytest.mark.parametrize("k", [300, -300])
    def test_curvature_scales_exactly_by_powers_of_two(self, lam, k):
        # The direction is scaled to max|v| in [1/2, 1) before its float32
        # cast, so a direction far outside float32's range neither overflows
        # nor underflows, and the product scales by exactly 2**k.
        _, _, _, objective, w = self._instance(lam)
        _, _, probs = objective.value_grad_probs(w)
        probs32 = objective.curvature_probs(probs)
        v = np.random.default_rng(17).normal(size=w.shape)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            base = objective.curvature(probs32, v)
            scaled = objective.curvature(probs32, np.ldexp(v, k))
        assert np.isfinite(scaled).all() and base.any()
        np.testing.assert_array_equal(scaled, np.ldexp(base, k))

    def test_float32_probabilities_hold_no_subnormal_at_the_optimum(self):
        # At a fitted optimum about 1% of the leaf probabilities lie below
        # float32's smallest normal; kept as subnormals they made every
        # product touching them slow, and the float32 fit about 2x slower
        # than a float64 one.
        features, labels, k = _leaf_dataset()
        result = fit_mlr(features, labels, k, MlrFitConfig())
        active = np.flatnonzero(np.bincount(labels, minlength=k)[:-1])
        probs = class_probability_matrix(result.model, features)[:, active].T
        tiny = np.finfo(np.float32).tiny
        assert np.count_nonzero(probs < tiny) > 0.005 * probs.size
        probs32 = _Objective.curvature_probs(probs)
        assert probs32.dtype == np.float32
        assert not np.any((probs32 != 0.0) & (probs32 < tiny))
        kept = probs >= 1e-20
        np.testing.assert_array_equal(probs32[kept], probs[kept].astype(np.float32))
        assert not probs32[~kept].any()

    @pytest.mark.parametrize("lam", [0.0, 1e-3])
    def test_preconditioner_matches_hessian_blocks(self, lam):
        # The preconditioner inverts, per leaf, an SPD matrix equal to the
        # leaf's diagonal Hessian block on its first row and column and on
        # its diagonal; leaves are not coupled.
        _, _, active, objective, w = self._instance(lam)
        _, _, probs = objective.value_grad_probs(w)
        dense = self._negative_hessian(objective, w)
        inverse = self._columns(objective.preconditioner(probs), w.shape)
        atol = 1e-6 * np.max(np.abs(dense))
        width = self.P + 1
        for a, b in itertools.product(range(active.size), repeat=2):
            rows, cols = slice(a * width, (a + 1) * width), slice(b * width, (b + 1) * width)
            if a != b:
                assert not inverse[rows, cols].any()
                continue
            approx, exact = np.linalg.inv(inverse[rows, cols]), dense[rows, cols]
            np.testing.assert_allclose(approx, approx.T, rtol=1e-12, atol=1e-9)
            assert np.linalg.eigvalsh(approx).min() > 0.0
            np.testing.assert_allclose(approx[0], exact[0], rtol=0, atol=atol)
            np.testing.assert_allclose(approx[:, 0], exact[:, 0], rtol=0, atol=atol)
            np.testing.assert_allclose(np.diag(approx), np.diag(exact), rtol=0, atol=atol)

    def test_preconditioner_pivots_degenerate_blocks(self):
        # At lambda = 0 a constant column has no curvature, and a leaf whose
        # probabilities are all 0 has none at all; both get positive pivots.
        rng = np.random.default_rng(16)
        x = np.column_stack([rng.normal(size=30), np.full(30, 2.0)])
        labels = rng.choice([0, 2, 3], size=30)
        objective = _Objective(x, labels, self.K, np.array([0, 2]), 0.0)
        probs = np.vstack([np.zeros(30), np.full(30, 0.25)])
        solve = objective.preconditioner(probs)
        inverse = self._columns(solve, (2, self.P + 1))
        assert np.all(np.isfinite(inverse))
        assert np.linalg.eigvalsh(0.5 * (inverse + inverse.T)).min() > 0.0
        np.testing.assert_allclose(inverse, inverse.T, rtol=1e-12, atol=1e-15)


class TestPredictClass:
    def test_uniform_ties_break_low(self):
        model = MlrModel(np.zeros(2), np.zeros((2, 1)))
        assert predict_class(model, np.array([0.3])) == 0

    def test_dominant_logit(self):
        model = MlrModel(np.array([5.0]), np.zeros((1, 2)))
        for x in (np.zeros(2), np.ones(2) * 100):
            assert predict_class(model, x) == 0

    def test_single_row_calls_reject_a_matrix(self):
        # both used to answer a matrix with its first row: class 0 here,
        # though row 1's class is 1
        model = MlrModel(np.zeros(2), np.eye(2))
        x = np.array([[5.0, 0.0], [0.0, 5.0]])
        for bad in (x, x[1:], np.float64(0.0)):
            with pytest.raises(ValueError, match="mlr model expects 2 features in one row"):
                class_probabilities(model, bad)
            with pytest.raises(ValueError, match="mlr model expects 2 features in one row"):
                predict_class(model, bad)
        assert [predict_class(model, row) for row in x] == [0, 1]
        np.testing.assert_array_equal(
            class_probabilities(model, x[1]), class_probability_matrix(model, x)[1]
        )

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
