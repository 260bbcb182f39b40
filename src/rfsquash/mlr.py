"""Multinomial distribution and L2-penalized multinomial logistic regression.

The model fixes the last category as the base: its logit is zero and carries
no parameters. Each remaining category j has an intercept and a coefficient
vector, so a K-category model over p features stores (K-1)(p+1) numbers.

Fitting maximizes

    sum_i log theta_{i, label_i}  -  (lambda/2) * ||all parameters||^2

by truncated Newton-CG with step-halving (Lin, Weng & Keerthi 2008, JMLR 9):
each Newton direction comes from conjugate gradients on Hessian-vector
products, which cost O(N (K-1)(p+1)) and never form the Hessian. CG is
preconditioned per category (a leaf, in a surrogate) with that category's
own curvature moments, rebuilt from the current probabilities at every
Newton step: the preconditioner matches each category's exact Hessian block
on its intercept row and column and on its diagonal, costs one
(A, N) x (N, 2p+1) product to build and O(A p) to apply, and has no p^2
term. The same path runs at every problem size. Every per-row array of the
fit is held category-major, (categories, rows), so memory stays
O(N (K-1 + p)) and each product is one GEMM. A small positive penalty keeps
the optimum finite on separable data, where the unpenalized MLE diverges.
The fit stops when the max-norm of the penalized gradient with respect to
the original-scale parameters is within the tolerance, or at the iteration
cap.

The Hessian-vector products inside CG run in float32; everything else
(objective, gradient, preconditioner, line search and stopping test) stays
float64, so a converged fit meets the tolerance on the exact gradient and
only the search directions carry float32 rounding. The probabilities are
cast once per Newton step, with entries below 1e-20 zeroed so that none
is subnormal (subnormal operands made float32 products slower than
float64 ones), and each direction is scaled by an exact power of two into
[1/2, 1) before its cast, so no operand or result leaves float32's range.

Features are standardized internally for conditioning; the penalty is applied
to the original-scale parameters (pulled back through the standardization
map), and coefficients are mapped back to the original scale before return,
so the reported optimum maximizes exactly the objective documented above over
the categories present in the labels. An absent category is pinned at zero,
where its gradient entries need not vanish; ``squash`` never meets this case,
since every leaf holds at least ``min_leaf`` >= 1 of its tree's rows.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.special import gammaln

from . import _util
from .errors import NumericError

_MAX_HALVINGS = 50
# Below this share of its diagonal entry, a pivot d is taken as lost to rounding
_PIVOT_FLOOR = 1e-12
_TINY = np.finfo(np.float64).tiny
_TINY32 = np.finfo(np.float32).tiny  # 2**-126, float32's smallest normal
# Probabilities below this are zeroed in the float32 copy that curvature
# products use, so that no operand there is subnormal: 1-1.5% of the leaf
# probabilities at a fitted optimum lie below 2**-126, and the microcode
# assists on them made an unflushed float32 fit about 2x slower than a
# float64 one.
# A floor of 2**-126 itself would still leave the products P * (u - P'u)
# subnormal wherever |u - P'u| < 1; 1e-20 keeps them normal down to
# |u - P'u| ~ 1e-18, while the scaled directions give |u| up to (p+1) sqrt(N).
# A zeroed entry moves a product entry by under 1e-20 * 2 max|u| sqrt(N), 12
# orders of magnitude below float32's rounding of terms of that size, and
# zeroing keeps each row's probabilities non-negative with a sum <= 1, so
# diag(P) - P P' stays positive semidefinite.
_PROB_FLOOR = 1e-20
# An objective change within this share of the terms f sums is rounding
# (8 machine epsilons)
_ROUNDING = 8 * np.finfo(np.float64).eps
NAN_LOGIT = "a logit is NaN: the features or parameters overflowed"


@dataclass(frozen=True)
class MlrModel:
    """Fitted multinomial-logit parameters, base category = last index.

    K >= 1. A one-category model has no parameter rows: its only category is
    the base, which gets probability 1 at every row.

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
        if not (np.isfinite(intercepts).all() and np.isfinite(coefficients).all()):
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


@dataclass(frozen=True)
class MlrFitConfig:
    """Fitting knobs: penalty strength, the cap on Newton iterations, and the
    tolerance on the max-norm of the original-scale penalized gradient that
    counts as converged.

    Leaves of a tree fitted with a small min_leaf are nearly separable, so a
    weaker penalty leaves the logit badly conditioned: at 1e-6 and a 1e-6
    tolerance one depth-5 tree (K=31, 1500 rows, p=10) took 51 Newton steps
    and 3.4k CG steps (2.1 s), against 20 Newton steps and 228 CG steps
    (0.05 s) at these defaults, on one x86-64 vCPU with single-threaded
    OpenBLAS.
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
    """A fitted model plus how the optimizer stopped: ``iterations`` Newton
    steps, ``cg_steps`` Hessian-vector products over all of them, and the
    final max-norm ``grad_max_norm`` of the original-scale penalized
    gradient over the categories present in the labels (an absent one is
    pinned at zero and not counted). ``optimizer_used`` is "newton" for
    every fit. A squashed :class:`~rfsquash.surrogate.TreeSurrogate` keeps
    this record as ``fit``.
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
    x = _util.rows(x, model.n_features, "mlr model")
    logits = np.zeros((x.shape[0], model.n_categories))
    with np.errstate(over="ignore", invalid="ignore"):  # _softmax handles inf/NaN
        logits[:, :-1] = model.intercepts + x @ model.coefficients.T
    return logits


def _softmax(logits: np.ndarray) -> np.ndarray:
    """Row-wise softmax of an (N, K) logit matrix, in place.

    Where a row's top logit is +inf, its +inf entries share the probability
    evenly and the rest get 0, which is the limit of the softmax as they
    grow. A NaN logit raises NumericError. Every caller has a base logit of
    zero, so the top logit is never -inf.
    """
    top = logits.max(axis=1, keepdims=True)
    if not np.isfinite(top).all():
        if np.isnan(top).any():
            raise NumericError(NAN_LOGIT)
        hot = top == np.inf
        logits[...] = np.where(hot, np.where(logits == np.inf, 0.0, -np.inf), logits)
        top[hot] = 0.0
    logits -= top
    np.exp(logits, out=logits)
    logits /= logits.sum(axis=1, keepdims=True)
    return logits


def class_probabilities(model: MlrModel, x: np.ndarray) -> np.ndarray:
    """Category probabilities for one feature vector; sums to 1."""
    x = _util.one_row(x, model.n_features, "mlr model")
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
    x = _util.rows(features, model.n_features, "mlr model")
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
    exactly 0 and are never stored, so memory is O(N (A + p)).

    CG is preconditioned category by category (see ``preconditioner``).
    With the weights w = P (1 - P) at the current point, one product of w
    with [1, z, z**2] gives each category's weighted row mass s, feature
    sums m and squares q: the first row and the diagonal of its Hessian
    block before the penalty's are added. No Gram matrix or inverse is
    formed.
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

        # T maps standardized params [a', b'] to original [a, b] per category.
        # Features beyond about 1e154 overflow the scale, and spreads below
        # about 1e-154 the penalty's T'T; neither leaves a finite objective.
        with np.errstate(over="ignore", invalid="ignore"):
            mean = x.mean(axis=0)
            scale = x.std(axis=0)
            scale[scale == 0.0] = 1.0
            t = np.zeros((self.p + 1, self.p + 1))
            t[0, 0] = 1.0
            t[0, 1:] = -mean / scale
            t[1:, 1:] = np.diag(1.0 / scale)
            quad = t.T @ t
        if not (np.isfinite(scale).all() and np.isfinite(quad).all()):
            raise NumericError(
                "features too large or too narrowly spread to standardize"
            )
        self.t = t
        self.t_inv = np.linalg.inv(t)
        self.penalty_quad = l2_penalty * quad

        # [1, z, z**2]' (2p+1, N): one GEMM with it gives a leaf's curvature
        # moments, and its first p+1 rows are Phi'
        self._basis_t = np.empty((2 * self.p + 1, self.n))
        self._basis_t[0] = 1.0
        np.divide((x - mean).T, scale[:, None], out=self._basis_t[1 : self.p + 1])
        np.square(self._basis_t[1 : self.p + 1], out=self._basis_t[self.p + 1 :])
        self.phi_t = self._basis_t[: self.p + 1]
        # Standardized columns have sum z**2 = N, so |z| <= sqrt(N) and the
        # float32 copy of Phi' that curvature products use cannot overflow
        self._phi32_t = self.phi_t.astype(np.float32)

        self.one_hot = (labels == active[:, None]).astype(np.float64)  # Y (A, N)
        self.label_phi = self.one_hot @ self.phi_t.T
        # The penalty's first row and diagonal, laid out as the moments are
        self._penalty_moments = np.concatenate(
            [self.penalty_quad[0], np.diag(self.penalty_quad)[1:]]
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
        top = e.max(axis=0, initial=0.0)  # initial: the K - A zero logits
        e -= top
        np.exp(e, out=e)
        denom = e.sum(axis=0)
        denom += (self.k - len(self.active)) * np.exp(-top)
        # sum_i z_{i, label_i} = <W, Y Phi>, as base logits are 0
        ll = float(np.vdot(w, self.label_phi)) - float(np.sum(np.log(denom) + top))
        return ll - self._penalty(w), e, denom

    def rounding(self, w: np.ndarray, value: float) -> float:
        """The rounding error of the objective ``value`` at w, as
        ``_numerators`` sums it: 8 eps times the size of its terms, the label
        logits <W, Y Phi> and the log-partition sum plus penalty, which is
        <W, Y Phi> - value. Near an optimum they can be many times |value|."""
        labelled = float(np.vdot(w, self.label_phi))
        return _ROUNDING * (abs(labelled) + abs(labelled - value))

    def value_grad_probs(self, w: np.ndarray) -> tuple[float, np.ndarray, np.ndarray]:
        """One pass computing the objective, its standardized-space gradient
        (Y - P) Phi - W Q (A, p+1), and the (A, N) active-category
        probabilities P that curvature products at w need."""
        value, probs, denom = self._numerators(w)
        probs /= denom
        grad = (self.one_hot - probs) @ self.phi_t.T
        grad -= w @ self.penalty_quad
        return value, grad, probs

    @staticmethod
    def curvature_probs(probs: np.ndarray) -> np.ndarray:
        """The float32 copy of the (A, N) probabilities that ``curvature``
        takes, with entries below _PROB_FLOOR zeroed, so that none is
        subnormal. Made once per Newton step."""
        flushed = probs.astype(np.float32)
        flushed *= probs >= _PROB_FLOOR
        return flushed

    def curvature(self, probs32: np.ndarray, v: np.ndarray) -> np.ndarray:
        """Negative Hessian at the point with these probabilities (as made by
        ``curvature_probs``), applied to v (A, p+1), without forming the
        Hessian: O(N A (p+1)) time.

        The data term Phi' (diag(P) - P P') Phi runs in float32. v is first
        scaled by an exact power of two, 2**-e, so that max|v| lies in
        [1/2, 1); this keeps every float32 operand and result in range
        however large or small v is (at lambda = 0 CG directions can be
        huge), and scaled entries below float32's smallest normal are zeroed.
        The result is 2**e times the float64-cast data term plus the float64
        penalty term, so curvature(P, 2**k v) == 2**k curvature(P, v)
        exactly. The products carry float32 rounding, about 1e-7 relative;
        they only steer CG, and the gradient and stopping test stay float64.
        """
        _, e = np.frexp(np.abs(v).max())
        scaled = np.ldexp(v, -e)
        v32 = scaled.astype(np.float32)
        v32 *= np.abs(scaled) >= _TINY32
        # Per row (a column here), (diag(P) - P P') u = P * (u - P'u), in place.
        u = v32 @ self._phi32_t
        u -= np.einsum("ij,ij->j", probs32, u)
        u *= probs32
        product = scaled @ self.penalty_quad
        product += u @ self._phi32_t.T
        return np.ldexp(product, e, out=product)

    def preconditioner(self, probs: np.ndarray) -> Callable[[np.ndarray], np.ndarray]:
        """The inverse of each category's curvature-moment approximation at
        the point with these probabilities, as a function of r (A, p+1).

        Category a's approximation equals its exact negative-Hessian block
        Phi' diag(w) Phi + Q, w = P_a (1 - P_a), on the first row and column
        and on the diagonal, and puts m m'/s in place of the feature-feature
        off-diagonals, with s the block's first entry and m the rest of its
        first row. It factors as L diag(s, d) L' with L = [[1, 0], [m/s, I]]
        and d = diag - m**2/s, so applying its inverse costs O(A p). Blocks of
        different categories are not coupled.
        """
        p = self.p
        weights = 1.0 - probs
        weights *= probs
        moments = weights @ self._basis_t.T  # per category [s, m, diag] (A, 2p+1)
        moments += self._penalty_moments
        mass, sums, squares = moments[:, :1], moments[:, 1 : p + 1], moments[:, p + 1 :]
        # At lambda = 0 a category whose weights all underflow has s = 0, and a
        # column without spread has d = 0, or rounding noise where its mean
        # did not round to the constant. Such coordinates carry no curvature,
        # so any positive pivot keeps L diag(s, d) L' SPD: s becomes 1, and d
        # the diagonal entry, or 1 where that is 0 too.
        mass[~(mass >= _TINY)] = 1.0
        ratio = sums / mass
        pivots = squares - ratio * sums
        degenerate = ~(pivots > _PIVOT_FLOOR * squares)
        pivots[degenerate] = np.where(squares[degenerate] > 0.0, squares[degenerate], 1.0)

        def solve(r: np.ndarray) -> np.ndarray:
            out = np.empty_like(r)
            np.divide(r[:, 1:] - ratio * r[:, :1], pivots, out=out[:, 1:])
            out[:, :1] = r[:, :1] / mass - np.einsum("ij,ij->i", ratio, out[:, 1:])[:, None]
            return out

        return solve

    def grad_norm_original(self, grad_std: np.ndarray) -> float:
        """Max-norm of the penalized gradient w.r.t. original-scale parameters.

        The objective here is the original one composed with the linear
        standardization map, so its gradient is the original gradient pushed
        through the transpose of that map; inverting recovers it exactly.
        """
        return float(np.abs(grad_std @ self.t_inv).max(initial=0.0))


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
    precondition = objective.preconditioner(probs)
    probs32 = objective.curvature_probs(probs)
    d = np.zeros_like(grad)
    r = grad.copy()
    z = precondition(r)
    s = z
    rz = float(np.vdot(r, z))
    for steps in range(1, grad.size + 1):  # grad.size >= 1
        q = objective.curvature(probs32, s)
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
        z = precondition(r)
        rz_next = float(np.vdot(r, z))
        s = z + (rz_next / rz) * s
        rz = rz_next
    return d, steps


def _ascend(
    objective: _Objective,
    w: np.ndarray,
    direction: np.ndarray,
    f0: float,
    grad_norm0: float,
) -> tuple[np.ndarray, float, np.ndarray, np.ndarray] | None:
    """Backtracking step halving from the full Newton step; accepts only a
    non-decreasing objective, except that the full step is also taken when f
    falls by no more than its rounding error (``_Objective.rounding``) while
    the gradient max-norm falls. Near the optimum an exact Newton step can
    change f by less than its rounding error, and halving it would only end
    at a step that leaves f as it is.

    Returns the new parameters with their objective, gradient and
    probabilities, or None when no step is accepted.
    """
    step = 1.0
    for _ in range(_MAX_HALVINGS):
        candidate = w + step * direction
        f1, grad, probs = objective.value_grad_probs(candidate)
        if np.isfinite(f1) and (
            f1 >= f0
            or (
                step == 1.0
                and f0 - f1 <= objective.rounding(w, f0)
                and objective.grad_norm_original(grad) < grad_norm0
            )
        ):
            return candidate, f1, grad, probs
        step *= 0.5
    return None


def fit_mlr(
    features: np.ndarray,
    labels: np.ndarray,
    n_categories: int,
    config: MlrFitConfig,
) -> MlrFitResult:
    """Fit a multinomial logistic model by penalized maximum likelihood.

    Starts from all-zero coefficients. Categories absent from the labels are
    pinned at zero coefficients; they stay addressable at prediction time.
    The optimum, ``grad_max_norm`` and the convergence test cover only the
    categories present: the gradient can be far from zero on an absent one
    (``squash`` never fits one; every leaf holds >= ``min_leaf`` >= 1 rows).
    Every fit takes the same path: with one category (K = 1), or labels all
    in the base, no category carries parameters, the gradient is empty, and
    the all-zero model comes back converged after 0 steps. Features may have
    zero columns (p = 0); the model is then intercept-only. Features that
    cannot be standardized in float64 raise NumericError. For a fixed BLAS
    library and thread count the fit is deterministic: equal inputs give
    bit-equal models.

    Returns
    -------
    MlrFitResult
        The fitted model plus whether the gradient tolerance was met before
        the iteration cap.
    """
    x = _util.rows(features, None, "fit_mlr")
    if x.shape[0] == 0:
        raise ValueError("empty feature matrix: no rows")
    if not np.isfinite(x).all():
        raise NumericError("features contain non-finite values")
    if n_categories < 1:
        raise ValueError(f"need n_categories >= 1, got {n_categories}")
    labels = _check_labels(labels, n_categories)
    if labels.shape[0] != x.shape[0]:
        raise ValueError(f"{x.shape[0]} feature rows vs {labels.shape[0]} labels")

    active = np.flatnonzero(np.bincount(labels, minlength=n_categories)[:-1])
    objective = _Objective(x, labels, n_categories, active, config.l2_penalty)
    # truncated Newton-CG ascent with step halving, from all-zero parameters
    tol = config.gradient_tolerance
    w = np.zeros((len(active), objective.p + 1))
    f, grad, probs = objective.value_grad_probs(w)
    grad_norm = objective.grad_norm_original(grad)
    iterations = cg_steps = 0
    while grad_norm > tol and iterations < config.max_iterations:
        direction, steps = _newton_cg_direction(objective, probs, grad, tol)
        iterations += 1
        cg_steps += steps
        moved = _ascend(objective, w, direction, f, grad_norm)
        if moved is None:
            break
        w, f, grad, probs = moved
        grad_norm = objective.grad_norm_original(grad)

    alpha, beta = objective.to_original(w)
    if not (np.isfinite(alpha).all() and np.isfinite(beta).all()):
        raise NumericError("optimizer produced non-finite coefficients")
    model = MlrModel(alpha, beta)
    converged = grad_norm <= tol
    return MlrFitResult(model, converged, iterations, grad_norm, "newton", cg_steps)
