"""Measure the size/accuracy trade-off of squashing vs shrinking the forest.

Two ways to make a forest smaller on disk:

  a) change its parameters (fewer/shallower trees), losing accuracy, or
  b) squash it: keep (n, k, d, M) but replace each tree with its
     multinomial-logistic surrogate.

This script measures both on the Friedman #1 benchmark and prints the
frontier, so the claim "squashing trades size for accuracy better than
shrinking parameters" is evaluated, not assumed. Byte counts come from the
codec's closed-form formulas and equal the real encoded file sizes.

Run:  python demos/02_size_accuracy_tradeoff.py   (a few seconds)
"""

import numpy as np

from rfsquash import (
    ForestConfig,
    MlrFitConfig,
    fit_forest,
    forest_predict_batch,
    gen_friedman1,
    measure_size,
    split,
    squash_forest,
    surrogate_forest_predict_batch,
)

SEED = 42

data = gen_friedman1(n=3000, noise_sd=1.0, seed=SEED)
parts = split(data, test_fraction=0.25, seed=SEED)
train, test = parts.train, parts.test


def rmse(predictions):
    return float(np.sqrt(np.mean((predictions - test.responses) ** 2)))


print(f"{'model':<28} {'d':>2} {'M':>3} {'f64 bytes':>10} {'f32 bytes':>10} {'rmse':>7}")
rows = []
for depth in (2, 4, 6):
    for n_trees in (10, 30):
        config = ForestConfig(
            subsample_size=1000,
            features_per_split=10,
            max_depth=depth,
            n_trees=n_trees,
            min_leaf=5,
            seed=SEED,
        )
        forest = fit_forest(train, config)
        squashed = squash_forest(
            forest, train, MlrFitConfig(l2_penalty=1e-3, max_iterations=150)
        )
        for name, model, predictions in (
            ("forest", forest, forest_predict_batch(forest, test.features)),
            ("surrogate (expectation)", squashed,
             surrogate_forest_predict_batch(squashed, test.features)),
        ):
            row = (name, depth, n_trees, measure_size(model, "f64"),
                   measure_size(model, "f32"), rmse(predictions))
            rows.append(row)
            print(f"{row[0]:<28} {row[1]:>2} {row[2]:>3} {row[3]:>10} "
                  f"{row[4]:>10} {row[5]:>7.4f}")

# ---------------------------------------------------------------------------
# Matched-size comparison
# ---------------------------------------------------------------------------
# For each surrogate, find the most accurate plain forest that fits within
# the surrogate's byte budget. If that baseline is already better, squashing
# did not pay off at that size point.

print("\nmatched-size check (f64):")
forests = [r for r in rows if r[0] == "forest"]
for name, depth, n_trees, b64, _, err in rows:
    if name == "forest":
        continue
    candidates = [f for f in forests if f[3] <= b64]
    if not candidates:
        continue
    best = min(candidates, key=lambda f: f[5])
    verdict = "surrogate wins" if err < best[5] else "parameter-shrink baseline wins"
    print(f"  surrogate(d={depth}, M={n_trees}): {b64}B rmse={err:.4f}  vs  "
          f"best forest <= that size: (d={best[1]}, M={best[2]}) {best[3]}B "
          f"rmse={best[5]:.4f}  -> {verdict}")

print("""
Reading the table: at 10 features, one multinomial-logit category costs
(p+1) floats while a tree node costs one threshold plus three u32 ids, so
the surrogate is the larger object per leaf here. Squashing often helps
accuracy (smooth routing averages away boundary errors) but, for p of this
size, not storage. Run with fewer features to watch the sign flip.
""")
