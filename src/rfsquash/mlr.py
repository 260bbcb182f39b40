"""Multinomial distribution and L2-penalized multinomial logistic regression.

The model fixes the last category as the base: its logit is zero and carries
no parameters. Each remaining category j has an intercept and a coefficient
vector, so a K-category model over p features stores (K-1)(p+1) numbers.

Fitting maximizes

    sum_i log theta_{i, label_i}  -  (lambda/2) * ||all parameters||^2

by truncated Newton-CG with step-halving (Lin, Weng & Keerthi 2008, JMLR 9):
each Newton direction comes from conjugate gradients on Hessian-vector
products, which cost O(N (K-1)(p+1)) and never form the Hessian, and CG is
preconditioned with Boehning's fixed curvature bound (Boehning 1992, Ann.
Inst. Stat. Math. 44:197). The same path runs at every problem size. Every
per-row array of the fit is held category-major, (categories, rows), so
memory stays O(N (K-1)) and each product is one GEMM. A small
positive penalty keeps the optimum finite on separable data, where the
unpenalized MLE diverges. The fit stops when the max-norm of the penalized
gradient with respect to the original-scale parameters is within the
tolerance, or at the iteration cap.

Features are standardized internally for conditioning; the penalty is applied
to the original-scale parameters (pulled back through the standardization
map), and coefficients are mapped back to the original scale before return,
so the reported optimum maximizes exactly the objective documented above.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import gammaln

from .errors import NumericError

_MAX_HALVINGS = 50


@dataclass(frozen=True)
class MlrModel:
    """Fitted multinomial-logit parameters, base category = last index.

    Parameters
    ----------
    intercepts : np.ndarray
        Shape (K-1,), one intercept per non-base category.
    coefficients : np.ndarray
        Shape (K-1, p), one coefficient row per non-base category.
    """

    intercepts: np.ndarray
    coefficients: np.ndarray

    def __post_init__(self) -> None:
        intercepts = np.ascontiguousarray(self.intercepts, dtype=np.float64)
        coefficients = np.ascontiguousarray(self.coefficients, dtype=np.float64)
        if intercepts.ndim != 1 or coefficients.ndim != 2:
            raise ValueError("intercepts must be (K-1,), coefficients (K-1, p)")
        if coefficients.shape[0] != intercepts.shape[0]:
            raise ValueError(
                f"{intercepts.shape[0]} intercepts vs "
                f"{coefficients.shape[0]} coefficient rows"
            )
        if intercepts.shape[0] < 1:
            raise ValueError("model needs K >= 2, so at least one parameter row")
        if not (np.all(np.isfinite(intercepts)) and np.all(np.isfinite(coefficients))):
            raise ValueError("model parameters must be finite")
        intercepts.setflags(write=False)
        coefficients.setflags(write=False)
        object.__setattr__(self, "intercepts", intercepts)
        object.__setattr__(self, "coefficients", coefficients)

    @property
    def n_categories(self) -> int:
        return self.intercepts.shape[0] + 1

    @property
    def n_features(self) -> int:
        return self.coefficients.shape[1]

    @property
    def base_category(self) -> int:
        return self.n_categories - 1


@dataclass(frozen=True)
class MlrFitConfig:
    """Fitting knobs: penalty strength, the cap on Newton iterations, and the
    tolerance on the max-norm of the original-scale penalized gradient that
    counts as converged.

    Leaves of a tree fitted with a small min_leaf are nearly separable, so a
    weaker penalty leaves the logit badly conditioned: at 1e-6 and a 1e-6
    tolerance one depth-5 tree (K=31, 1500 rows) took 97 Newton steps and
    21k CG steps (24 s), against 20 Newton steps (0.13 s) at these defaults.
    """

    l2_penalty: float = 1e-3
    max_iterations: int = 100
    gradient_tolerance: float = 1e-4

    def __post_init__(self) -> None:
        if self.l2_penalty < 0:
            raise ValueError(f"l2_penalty must be >= 0, got {self.l2_penalty}")
        if self.max_iterations < 1:
            raise ValueError(f"max_iterations must be >= 1, got {self.max_iterations}")
        if self.gradient_tolerance <= 0:
            raise ValueError(
                f"gradient_tolerance must be positive, got {self.gradient_tolerance}"
            )


@dataclass(frozen=True)
class MlrFitResult:
    """A fitted model plus how the optimizer stopped.

    ``optimizer_used`` is "newton" for every fitted model and "none" when no
    category but the base has data, so there is nothing to fit. ``cg_steps``
    counts the Hessian-vector products over all Newton iterations (0 for
    "none").
    """

    model: MlrModel
    converged: bool
    iterations: int
    grad_max_norm: float
    optimizer_used: str
    cg_steps: int


def multinomial_pmf(counts, theta, n: int) -> float:
    """Probability of an outcome-count vector under a multinomial distribution.

    Computed through log-gamma so large trial counts do not overflow the
    factorials; cells with zero count contribute a factor of one even when
    their probability is zero.
    """
    counts = np.asarray(counts)
    theta = np.asarray(theta, dtype=np.float64)
    if counts.shape != theta.shape or counts.ndim != 1:
        raise ValueError(
            f"counts shape {counts.shape} and theta shape {theta.shape} must be "
            f"equal 1-D vectors"
        )
    if not np.all(counts == np.floor(counts)) or np.any(counts < 0):
        raise ValueError("counts must be non-negative integers")
    counts = counts.astype(np.int64)
    if int(counts.sum()) != n:
        raise ValueError(f"counts sum to {int(counts.sum())}, expected n={n}")
    if np.any(theta < 0):
        raise ValueError("theta entries must be non-negative")
    if abs(float(theta.sum()) - 1.0) > 1e-12:
        raise ValueError(f"theta sums to {float(theta.sum())!r}, expected 1")
    positive = counts > 0
    if np.any(theta[positive] == 0.0):
        return 0.0
    log_coef = gammaln(n + 1) - np.sum(gammaln(counts + 1))
    log_prob = np.sum(counts[positive] * np.log(theta[positive]))
    return float(np.exp(log_coef + log_prob))


def _logit_matrix(model: MlrModel, x: np.ndarray) -> np.ndarray:
    """(N, K) logits with the base-category column fixed at zero."""
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    if x.shape[1] != model.n_features:
        raise ValueError(
            f"input has {x.shape[1]} features, model expects {model.n_features}"
        )
    logits = np.zeros((x.shape[0], model.n_categories))
    with np.errstate(over="ignore", invalid="ignore"):  # _softmax handles inf/NaN
        logits[:, :-1] = model.intercepts + x @ model.coefficients.T
    return logits


def _shifted_exp(logits: np.ndarray, axis: int) -> np.ndarray:
    """The softmax numerators exp(logits - max over ``axis``), computed in
    place in ``logits`` and returned.

    Where the top logit is +inf, the +inf entries get 1 and the rest 0, so
    normalizing shares the probability evenly among them, which is the limit
    of the softmax as they grow. A NaN logit raises NumericError. Every
    caller has a base logit of zero, so the top logit is never -inf.
    """
    top = logits.max(axis=axis, keepdims=True)
    if not np.isfinite(top).all():
        if np.isnan(top).any():
            raise NumericError("a logit is NaN: the features or parameters overflowed")
        hot = top == np.inf
        logits[...] = np.where(hot, np.where(logits == np.inf, 0.0, -np.inf), logits)
        top[hot] = 0.0
    logits -= top
    np.exp(logits, out=logits)
    return logits


def _softmax(logits: np.ndarray) -> np.ndarray:
    """Row-wise softmax of an (N, K) logit matrix, in place."""
    e = _shifted_exp(logits, axis=1)
    e /= e.sum(axis=1, keepdims=True)
    return e


def class_probabilities(model: MlrModel, x: np.ndarray) -> np.ndarray:
    """Category probabilities for one feature vector; sums to 1."""
    return _softmax(_logit_matrix(model, x))[0]


def class_probability_matrix(model: MlrModel, x: np.ndarray) -> np.ndarray:
    """Row-wise category probabilities for a feature matrix."""
    return _softmax(_logit_matrix(model, x))


def predict_class(model: MlrModel, x: np.ndarray) -> int:
    """Most probable category; ties break toward the lowest index."""
    return int(np.argmax(class_probabilities(model, x)))


def _check_labels(labels: np.ndarray, k: int) -> np.ndarray:
    labels = np.asarray(labels)
    if labels.ndim != 1:
        raise ValueError("labels must be a 1-D vector")
    if not np.all(labels == np.floor(labels)):
        raise ValueError("labels must be integers")
    labels = labels.astype(np.int64)
    if labels.size and (labels.min() < 0 or labels.max() >= k):
        raise ValueError(
            f"labels must lie in 0..{k - 1}, got range "
            f"[{labels.min()}, {labels.max()}]"
        )
    return labels


def penalized_log_likelihood(
    model: MlrModel, features: np.ndarray, labels: np.ndarray, l2_penalty: float
) -> float:
    """Multinomial log-likelihood of per-row labels minus the L2 penalty."""
    labels = _check_labels(labels, model.n_categories)
    logits = _logit_matrix(model, features)
    if logits.shape[0] != labels.shape[0]:
        raise ValueError(
            f"{logits.shape[0]} feature rows vs {labels.shape[0]} labels"
        )
    shifted = logits - logits.max(axis=1, keepdims=True)
    lse = np.log(np.exp(shifted).sum(axis=1)) + logits.max(axis=1)
    ll = float(np.sum(logits[np.arange(labels.shape[0]), labels] - lse))
    penalty = 0.5 * l2_penalty * (
        float(np.sum(model.intercepts**2)) + float(np.sum(model.coefficients**2))
    )
    return ll - penalty


def penalized_gradient(
    model: MlrModel, features: np.ndarray, labels: np.ndarray, l2_penalty: float
) -> np.ndarray:
    """Gradient of the penalized log-likelihood, flattened in the fixed order
    (intercept_1, coefs_1, ..., intercept_{K-1}, coefs_{K-1})."""
    labels = _check_labels(labels, model.n_categories)
    x = np.atleast_2d(np.asarray(features, dtype=np.float64))
    probs = class_probability_matrix(model, x)
    one_hot = np.zeros_like(probs)
    one_hot[np.arange(labels.shape[0]), labels] = 1.0
    residual = (one_hot - probs)[:, :-1]  # base category carries no parameters
    grad = np.empty((model.n_categories - 1, model.n_features + 1))
    grad[:, 0] = residual.sum(axis=0) - l2_penalty * model.intercepts
    grad[:, 1:] = residual.T @ x - l2_penalty * model.coefficients
    return grad.ravel()


# ---------------------------------------------------------------------------
# Fitting
# ---------------------------------------------------------------------------


class _Objective:
    """Penalized objective in standardized coordinates, held category-major.

    Internally the design matrix is standardized column-wise. The linear map
    back to original-scale parameters is, per category,

        coefs  = coefs' / scale
        intercept = intercept' - sum_c (mean_c / scale_c) * coefs'_c

    and the penalty is (lambda/2) ||T w'||^2 with T that map, so the optimum
    found here is the optimum of the original-scale objective.

    Only the A active categories (non-base, with data) carry parameters, as
    W (A, p+1). Every per-row array is category-major: Phi' = [1, z]' is one
    contiguous (p+1, N) block, the logits are the one product W Phi' (A, N),
    and the probabilities come out (A, N). The base and inactive logits are
    exactly 0 and are never stored, so memory is O(N A).
    """

    def __init__(
        self,
        x: np.ndarray,
        labels: np.ndarray,
        n_categories: int,
        active: np.ndarray,
        l2_penalty: float,
    ) -> None:
        self.k = n_categories
        self.active = active  # indices of non-base categories with data
        self.lam = l2_penalty
        self.n, self.p = x.shape

        mean = x.mean(axis=0)
        scale = x.std(axis=0)
        scale[scale == 0.0] = 1.0
        self.phi_t = np.empty((self.p + 1, self.n))
        self.phi_t[0] = 1.0
        np.divide((x - mean).T, scale[:, None], out=self.phi_t[1:])

        # T maps standardized params [a', b'] to original [a, b] per category
        t = np.zeros((self.p + 1, self.p + 1))
        t[0, 0] = 1.0
        t[0, 1:] = -mean / scale
        t[1:, 1:] = np.diag(1.0 / scale)
        self.t = t
        self.t_inv = np.linalg.inv(t)
        self.penalty_quad = l2_penalty * (t.T @ t)

        self.one_hot = (labels == active[:, None]).astype(np.float64)  # Y (A, N)
        self.label_phi = self.one_hot @ self.phi_t.T

        # Preconditioner: Boehning's bound (1/2)(I - 11'/K) (x) G on the
        # negative log-likelihood Hessian, G = Phi'Phi, plus I (x) penalty_quad.
        # (I - 11'/K) has eigenvalue 1 - A/K along the all-ones category
        # direction and 1 across it, so the inverse applied to R (A, p+1) is
        # R B + mean(R) (B_mean - B), with B and B_mean the two block inverses.
        gram = self.phi_t @ self.phi_t.T
        shrink = 1.0 - len(active) / n_categories
        self._precond = np.linalg.pinv(0.5 * gram + self.penalty_quad, hermitian=True)
        self._precond_mean = (
            np.linalg.pinv(0.5 * shrink * gram + self.penalty_quad, hermitian=True)
            - self._precond
        )

    def to_original(self, w: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Map standardized (A, p+1) params to full original-scale (K-1, p+1)."""
        full = np.zeros((self.k - 1, self.p + 1))
        full[self.active] = w @ self.t.T
        return full[:, 0], full[:, 1:]

    def _penalty(self, w: np.ndarray) -> float:
        mapped = w @ self.t.T
        return 0.5 * self.lam * float(np.sum(mapped * mapped))

    def _numerators(self, w: np.ndarray) -> tuple[float, np.ndarray, np.ndarray]:
        """The objective, the active softmax numerators exp(z - top) (A, N)
        and their denominators (N,), top being each row's largest logit."""
        e = w @ self.phi_t
        top = e.max(axis=0)
        np.maximum(top, 0.0, out=top)  # the K - A zero logits
        e -= top
        np.exp(e, out=e)
        denom = e.sum(axis=0)
        denom += (self.k - len(self.active)) * np.exp(-top)
        # sum_i z_{i, label_i} = <W, Y Phi>, as base logits are 0
        ll = float(np.vdot(w, self.label_phi)) - float(np.sum(np.log(denom) + top))
        return ll - self._penalty(w), e, denom

    def value(self, w: np.ndarray) -> float:
        return self._numerators(w)[0]

    def value_grad_probs(self, w: np.ndarray) -> tuple[float, np.ndarray, np.ndarray]:
        """One pass computing the objective, its standardized-space gradient
        (Y - P) Phi - W Q (A, p+1), and the (A, N) active-category
        probabilities P that curvature products at w need."""
        value, probs, denom = self._numerators(w)
        probs /= denom
        grad = (self.one_hot - probs) @ self.phi_t.T
        grad -= w @ self.penalty_quad
        return value, grad, probs

    def curvature(self, probs: np.ndarray, v: np.ndarray) -> np.ndarray:
        """Negative Hessian at the point with these probabilities, applied to
        v (A, p+1), without forming the Hessian: O(N A (p+1)) time."""
        # Per row (a column here), (diag(P) - P P') u = P * (u - P'u), in place.
        u = v @ self.phi_t
        u -= np.einsum("ij,ij->j", probs, u)
        u *= probs
        return u @ self.phi_t.T + v @ self.penalty_quad

    def precondition(self, r: np.ndarray) -> np.ndarray:
        return r @ self._precond + r.mean(axis=0) @ self._precond_mean

    def grad_norm_original(self, grad_std: np.ndarray) -> float:
        """Max-norm of the penalized gradient w.r.t. original-scale parameters.

        The objective here is the original one composed with the linear
        standardization map, so its gradient is the original gradient pushed
        through the transpose of that map; inverting recovers it exactly.
        """
        return float(np.abs(grad_std @ self.t_inv).max())


def _newton_cg_direction(
    objective: _Objective, probs: np.ndarray, grad: np.ndarray, tolerance: float
) -> tuple[np.ndarray, int]:
    """Truncated preconditioned CG on (-Hessian) d = gradient; returns d and
    the number of Hessian-vector products taken.

    Stops at relative residual min(0.5, sqrt(||g||)) (Eisenstat-Walker
    forcing, superlinear near the optimum), or once the residual, which is
    the gradient the quadratic model predicts after the step, is within half
    the tolerance, or after one step per parameter.
    """
    g_norm = float(np.linalg.norm(grad))
    forcing = min(0.5, np.sqrt(g_norm)) * g_norm
    d = np.zeros_like(grad)
    r = grad.copy()
    z = objective.precondition(r)
    s = z
    rz = float(np.vdot(r, z))
    for steps in range(1, grad.size + 1):  # grad.size >= 1
        q = objective.curvature(probs, s)
        sq = float(np.vdot(s, q))
        if sq <= 0.0 or rz <= 0.0:
            # Flat direction (only reachable at lambda = 0): keep what CG
            # has, or the preconditioned gradient on the first pass.
            return (d if d.any() else z), steps
        alpha = rz / sq
        d += alpha * s
        r -= alpha * q
        if (
            np.linalg.norm(r) <= forcing
            or objective.grad_norm_original(r) <= 0.5 * tolerance
        ):
            break
        z = objective.precondition(r)
        rz_next = float(np.vdot(r, z))
        s = z + (rz_next / rz) * s
        rz = rz_next
    return d, steps


def _ascend(
    objective: _Objective, w: np.ndarray, direction: np.ndarray, f0: float
) -> tuple[np.ndarray, float, bool]:
    """Backtracking step halving; accepts only non-decreasing objective."""
    step = 1.0
    for _ in range(_MAX_HALVINGS):
        candidate = w + step * direction
        f1 = objective.value(candidate)
        if np.isfinite(f1) and f1 >= f0:
            return candidate, f1, True
        step *= 0.5
    return w, f0, False


def _fit(
    objective: _Objective, config: MlrFitConfig
) -> tuple[np.ndarray, bool, int, int, float]:
    """Truncated Newton-CG ascent with step halving, from all-zero parameters.
    Returns the parameters, whether they converged, the Newton iterations,
    the CG steps and the final gradient max-norm."""
    w = np.zeros((len(objective.active), objective.p + 1))
    f, grad, probs = objective.value_grad_probs(w)
    grad_norm = objective.grad_norm_original(grad)
    iterations = cg_steps = 0
    while grad_norm > config.gradient_tolerance and iterations < config.max_iterations:
        direction, steps = _newton_cg_direction(
            objective, probs, grad, config.gradient_tolerance
        )
        w, f, moved = _ascend(objective, w, direction, f)
        iterations += 1
        cg_steps += steps
        f, grad, probs = objective.value_grad_probs(w)
        grad_norm = objective.grad_norm_original(grad)
        if not moved:
            break
    return w, grad_norm <= config.gradient_tolerance, iterations, cg_steps, grad_norm


def fit_mlr(
    features: np.ndarray,
    labels: np.ndarray,
    n_categories: int,
    config: MlrFitConfig,
) -> MlrFitResult:
    """Fit a multinomial logistic model by penalized maximum likelihood.

    Starts from all-zero coefficients. Categories absent from the labels are
    pinned at zero coefficients; they stay addressable at prediction time.
    The fit is deterministic: equal inputs give bit-equal models.

    Returns
    -------
    MlrFitResult
        The fitted model plus whether the gradient tolerance was met before
        the iteration cap.
    """
    x = np.atleast_2d(np.asarray(features, dtype=np.float64))
    if x.size == 0:
        raise ValueError("empty feature matrix")
    if not np.all(np.isfinite(x)):
        raise NumericError("features contain non-finite values")
    if n_categories < 2:
        raise ValueError(f"need n_categories >= 2, got {n_categories}")
    labels = _check_labels(labels, n_categories)
    if labels.shape[0] != x.shape[0]:
        raise ValueError(f"{x.shape[0]} feature rows vs {labels.shape[0]} labels")

    active = np.flatnonzero(np.bincount(labels, minlength=n_categories)[:-1])
    p = x.shape[1]
    if active.size == 0:
        model = MlrModel(np.zeros(n_categories - 1), np.zeros((n_categories - 1, p)))
        return MlrFitResult(model, True, 0, 0.0, "none", 0)

    objective = _Objective(x, labels, n_categories, active, config.l2_penalty)
    w, converged, iterations, cg_steps, grad_norm = _fit(objective, config)

    alpha, beta = objective.to_original(w)
    if not (np.all(np.isfinite(alpha)) and np.all(np.isfinite(beta))):
        raise NumericError("optimizer produced non-finite coefficients")
    model = MlrModel(alpha, beta)
    return MlrFitResult(model, converged, iterations, grad_norm, "newton", cg_steps)
