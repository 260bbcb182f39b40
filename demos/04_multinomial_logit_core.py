"""The numeric core on its own: multinomial pmf, softmax, penalized fitting.

Everything the surrogate does reduces to K-category multinomial logistic
regression with the last category as the base (its logit pinned at zero).
This script pokes at the primitives directly.

Run:  python demos/04_multinomial_logit_core.py
"""

import numpy as np

from rfsquash import (
    MlrFitConfig,
    class_probabilities,
    fit_mlr,
    multinomial_pmf,
    penalized_gradient,
    penalized_log_likelihood,
    predict_class,
)

# ---------------------------------------------------------------------------
# 1. The multinomial distribution
# ---------------------------------------------------------------------------

theta = [0.5, 0.3, 0.2]
print("P(2,1,0 of 3 trials | theta=(.5,.3,.2)) =",
      multinomial_pmf([2, 1, 0], theta, 3), " (3 * .5^2 * .3 = 0.225)")

mass = 0.0
for a in range(4):
    for b in range(4 - a):
        mass += multinomial_pmf([a, b, 3 - a - b], theta, 3)
print("total mass over the n=3 support     =", mass)

# Log-gamma evaluation keeps huge factorials finite:
print("P(500,500 of 1000 | fair)            =",
      multinomial_pmf([500, 500], [0.5, 0.5], 1000))

# ---------------------------------------------------------------------------
# 2. Fit a 3-class problem and inspect the probabilities
# ---------------------------------------------------------------------------

rng = np.random.default_rng(0)
n = 600
x = rng.uniform(-2, 2, size=(n, 2))
# true classes: three soft bands over x0 + x1
score = x[:, 0] + 0.5 * x[:, 1] + rng.normal(scale=0.4, size=n)
labels = np.digitize(score, [-0.8, 0.8])

result = fit_mlr(x, labels, 3, MlrFitConfig(l2_penalty=1e-3, gradient_tolerance=1e-8))
print(f"\nfit: converged={result.converged} after {result.iterations} Newton "
      f"steps ({result.cg_steps} CG steps), grad max-norm {result.grad_max_norm:.1e}")

accuracy = np.mean([predict_class(result.model, row) for row in x] == labels)
print(f"training accuracy: {accuracy:.1%}")
for probe in ([-1.5, 0.0], [0.0, 0.0], [1.5, 0.0]):
    probs = class_probabilities(result.model, np.array(probe))
    print(f"  x={probe}: probabilities {np.round(probs, 3)}")

# ---------------------------------------------------------------------------
# 3. The objective really is maximized (spot-check against nudges)
# ---------------------------------------------------------------------------

lam = 1e-3
best = penalized_log_likelihood(result.model, x, labels, lam)
grad = penalized_gradient(result.model, x, labels, lam)
print(f"\npenalized log-likelihood at the fit: {best:.6f}")
print(f"gradient max-norm at the fit:        {np.abs(grad).max():.2e}")

from rfsquash import MlrModel  # noqa: E402  (demo-local import for clarity)

worse = 0
for _ in range(200):
    nudged = MlrModel(
        result.model.intercepts + rng.normal(scale=0.05, size=2),
        result.model.coefficients + rng.normal(scale=0.05, size=(2, 2)),
    )
    if penalized_log_likelihood(nudged, x, labels, lam) <= best:
        worse += 1
print(f"random nearby parameter nudges that do not improve it: {worse}/200")
