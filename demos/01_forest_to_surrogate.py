"""Walkthrough: fit a regression forest, then squash it into leaf surrogates.

A fitted decision tree does two separable jobs: it ROUTES an input to one of
its K leaves, and it stores a summary VALUE per leaf. Routing is just a
K-way classification of the input space, so we can refit it as a multinomial
logistic regression on (features, leaf index) pairs and throw the tree
structure away. The leaf values ride along unchanged.

Run:  python demos/01_forest_to_surrogate.py
"""

import numpy as np

from rfsquash import (
    ForestConfig,
    MlrFitConfig,
    extract_leaf_dataset,
    fit_forest,
    forest_predict,
    gen_friedman1,
    squash_forest,
    surrogate_forest_predict,
)
from rfsquash.forest import rederive_subsamples, traverse_batch
from rfsquash.mlr import class_probability_matrix

# ---------------------------------------------------------------------------
# 1. Data and a small forest
# ---------------------------------------------------------------------------

data = gen_friedman1(n=1500, noise_sd=1.0, seed=7)
config = ForestConfig(
    subsample_size=700,       # rows drawn per tree, without replacement
    features_per_split=10,    # consider all features at each split
    max_depth=4,
    n_trees=10,
    min_leaf=5,
    seed=7,
)
forest = fit_forest(data, config)
print(f"forest: {forest.n_trees} trees, leaf counts "
      f"{[t.n_leaves for t in forest.trees]}")

# ---------------------------------------------------------------------------
# 2. One tree's leaf allocation, viewed as a multinomial dataset
# ---------------------------------------------------------------------------

tree = forest.trees[0]
rows = rederive_subsamples(forest)[0]  # the seeded draw tree 0 was fitted on
leaf_features, leaf_labels = extract_leaf_dataset(tree, data, rows)
print(f"\ntree 0 has K={tree.n_leaves} leaves; its subsample of "
      f"{len(rows)} rows splits into")
print("  per-leaf counts:", np.bincount(leaf_labels, minlength=tree.n_leaves))
print("  (identical to the tree's stored counts:", tree.leaf_counts, ")")

# ---------------------------------------------------------------------------
# 3. Squash: refit every tree's routing as multinomial logistic regression
# ---------------------------------------------------------------------------

fit_config = MlrFitConfig(l2_penalty=1e-4, max_iterations=150)
squashed = squash_forest(forest, data, fit_config, prediction_mode="expectation")

# How often does the surrogate route a training row to the same leaf the
# tree did? Depth-1 trees are linearly separable (always recoverable); deeper
# trees are only approximated.
surrogate = squashed.surrogates[0]
routed = traverse_batch(tree, leaf_features)
probs = class_probability_matrix(surrogate.model, leaf_features)
agreement = np.mean(np.argmax(probs, axis=1) == routed)
print(f"\nsurrogate 0 routes {agreement:.1%} of its training rows to the "
      f"same leaf as tree 0")

# ---------------------------------------------------------------------------
# 4. Forecasts: tree ensemble vs squashed ensemble
# ---------------------------------------------------------------------------

probe = gen_friedman1(n=5, noise_sd=0.0, seed=99)
print("\n      true     forest    surrogate")
for x, y in zip(probe.features, probe.responses):
    print(f"  {y:8.3f} {forest_predict(forest, x):9.3f} "
          f"{surrogate_forest_predict(squashed, x):9.3f}")

print("\nThe surrogate keeps the leaf values but replaces hard threshold")
print("routing with smooth probability-weighted routing (expectation mode).")
