"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion lines
and the criterion-6 trade-off table.

Criterion 6 regression baselines (PILOT_* constants) were fixed by a pilot
run of the exact same seeded configuration; every quantity asserted against
them is deterministic given the seed, so the tolerances only absorb
environment drift (BLAS versions, hardware).
"""

import dataclasses
import itertools
import json
import time

import numpy as np

from rfsquash import cli
from rfsquash.codec import (
    ENVELOPE_BYTES,
    FOREST_HEADER_BYTES,
    SURROGATE_HEADER_BYTES,
    decode,
    encode,
    measure_size,
)
from rfsquash.data import gen_axis_partition, gen_friedman1, split, write_csv
from rfsquash.forest import (
    ForestConfig,
    fit_forest,
    fit_tree,
    forest_predict_batch,
    traverse_batch,
)
from rfsquash.mlr import (
    MlrFitConfig,
    MlrModel,
    class_probabilities,
    class_probability_matrix,
    fit_mlr,
    multinomial_pmf,
    penalized_gradient,
    penalized_log_likelihood,
)
from rfsquash.surrogate import (
    fit_surrogate,
    squash_forest,
    surrogate_forest_predict_batch,
)

PILOT_SEED = 1729
PILOT_FOREST = dict(
    subsample_size=1000, features_per_split=10, n_trees=50, min_leaf=8, seed=PILOT_SEED
)
PILOT_FIT = MlrFitConfig(l2_penalty=1e-3, max_iterations=150, gradient_tolerance=1e-4)

# Pilot measurements (seeded run; see module docstring).
PILOT = {
    3: {
        "forest_rmse": 3.0548867600739085,
        "surrogate_rmse_expectation": 2.9494301679538255,
        "surrogate_rmse_argmax": 2.9710637796135315,
        "forest_bytes_f64": 12265,
        "forest_bytes_f32": 9265,
        "surrogate_bytes_f64": 34303,
        "surrogate_bytes_f32": 17303,
    },
    5: {
        "forest_rmse": 2.4097347699923497,
        "surrogate_rmse_expectation": 2.3421602225467226,
        "surrogate_rmse_argmax": 2.3472513658662733,
        "forest_bytes_f64": 49033,
        "forest_bytes_f32": 36841,
        "surrogate_bytes_f64": 144607,
        "surrogate_bytes_f32": 72455,
    },
    8: {
        "forest_rmse": 2.0324981598965572,
        "surrogate_rmse_expectation": 1.9731853480499413,
        "surrogate_rmse_argmax": 1.9566824513576897,
        "forest_bytes_f64": 130729,
        "forest_bytes_f32": 98113,
        "surrogate_bytes_f64": 389695,
        "surrogate_bytes_f32": 194999,
    },
}


class Budget:
    """Context manager asserting the criterion's stated runtime budget."""

    def __init__(self, number: int, seconds: float, summary: str):
        self.number = number
        self.seconds = seconds
        self.summary = summary

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.start
        if exc_type is None and elapsed <= self.seconds:
            print(
                f"\nACCEPTANCE {self.number} PASS: {self.summary} "
                f"({elapsed:.1f}s < {self.seconds:.0f}s)"
            )
            return False
        reason = "assertion failed" if exc_type else (
            f"runtime {elapsed:.1f}s exceeded {self.seconds:.0f}s budget"
        )
        print(f"\nACCEPTANCE {self.number} FAIL: {self.summary} ({reason})")
        if exc_type is None:
            raise AssertionError(reason)
        return False


def test_criterion_1_math_core_invariants():
    with Budget(1, 30, "softmax normalization, pmf total mass, gradient check"):
        rng = np.random.default_rng(101)
        # softmax normalization over 10^4 random models/inputs, logits up to 1e3
        for i in range(10_000):
            k = int(rng.integers(2, 7))
            p = int(rng.integers(1, 5))
            scale = 1000.0 if i % 4 == 0 else float(rng.uniform(0.1, 10))
            model = MlrModel(
                rng.uniform(-scale, scale, size=k - 1),
                rng.uniform(-scale, scale, size=(k - 1, p)),
            )
            probs = class_probabilities(model, rng.uniform(-1, 1, size=p))
            assert abs(float(probs.sum()) - 1.0) < 1e-12
            assert np.all(probs >= 0)

        # multinomial pmf total mass over the full support, n <= 4, m+1 <= 3
        for n, cells in itertools.product(range(1, 5), (2, 3)):
            for _ in range(5):
                raw = rng.random(cells)
                theta = raw / raw.sum()
                mass = sum(
                    multinomial_pmf(list(combo), theta, n)
                    for combo in itertools.product(range(n + 1), repeat=cells)
                    if sum(combo) == n
                )
                assert abs(mass - 1.0) < 1e-12

        # analytic vs central finite differences on 100 random small instances
        h = 1e-5
        for _ in range(100):
            n_rows = int(rng.integers(4, 9))
            p = int(rng.integers(1, 3))
            k = int(rng.integers(2, 4))
            x = rng.normal(size=(n_rows, p))
            labels = rng.integers(0, k, size=n_rows)
            lam = float(rng.uniform(0, 0.3))
            model = MlrModel(rng.normal(size=k - 1), rng.normal(size=(k - 1, p)))
            grad = penalized_gradient(model, x, labels, lam)
            flat = np.hstack([model.intercepts[:, None], model.coefficients]).ravel()
            for i in range(flat.size):
                up, down = flat.copy(), flat.copy()
                up[i] += h
                down[i] -= h
                up_m = MlrModel(
                    up.reshape(k - 1, p + 1)[:, 0], up.reshape(k - 1, p + 1)[:, 1:]
                )
                down_m = MlrModel(
                    down.reshape(k - 1, p + 1)[:, 0], down.reshape(k - 1, p + 1)[:, 1:]
                )
                fd = (
                    penalized_log_likelihood(up_m, x, labels, lam)
                    - penalized_log_likelihood(down_m, x, labels, lam)
                ) / (2 * h)
                assert abs(grad[i] - fd) / max(1e-8, abs(fd)) < 1e-6


def test_criterion_2_binary_logistic_consistency():
    with Budget(2, 60, "K=2 fit matches independent binary logistic within 1e-6"):

        def independent_binary_fit(x, targets, lam):
            # Direct Newton on the sigmoid parameterization; no shared code.
            phi = np.hstack([np.ones((x.shape[0], 1)), x])
            w = np.zeros(phi.shape[1])
            for _ in range(300):
                mu = 1.0 / (1.0 + np.exp(-(phi @ w)))
                grad = phi.T @ (targets - mu) - lam * w
                if np.max(np.abs(grad)) < 1e-12:
                    break
                hess = (phi * (mu * (1.0 - mu))[:, None]).T @ phi + lam * np.eye(w.size)
                w = w + np.linalg.solve(hess, grad)
            return w

        rng = np.random.default_rng(202)
        for _ in range(20):
            n = int(rng.integers(20, 201))
            p = int(rng.integers(1, 6))
            x = rng.normal(size=(n, p)) * rng.uniform(0.3, 3.0, size=p)
            labels = rng.integers(0, 2, size=n)
            result = fit_mlr(
                x,
                labels,
                2,
                MlrFitConfig(
                    l2_penalty=0.01, max_iterations=300, gradient_tolerance=1e-10
                ),
            )
            oracle = independent_binary_fit(x, (labels == 0).astype(float), 0.01)
            mine = np.concatenate(
                [result.model.intercepts, result.model.coefficients[0]]
            )
            assert np.max(np.abs(mine - oracle)) < 1e-6


def test_criterion_3_separable_leaf_recovery():
    with Budget(3, 60, "depth-1 surrogates match tree routing on >= 99% of rows"):
        for seed in range(20):
            raw = gen_axis_partition(900, [(0, 0.5)], [2.0, 4.0], seed=seed, p=3)
            margin_rows = np.nonzero(np.abs(raw.features[:, 0] - 0.5) >= 0.01)[0]
            assert margin_rows.shape[0] >= 500
            data = raw.subset(margin_rows[:500])
            config = ForestConfig(
                subsample_size=500,
                features_per_split=3,
                max_depth=1,
                n_trees=1,
                seed=seed,
            )
            rows = np.arange(500)
            tree = fit_tree(data, rows, config, tree_seed=seed)
            assert tree.n_leaves == 2
            surrogate = fit_surrogate(
                tree,
                data,
                rows,
                MlrFitConfig(l2_penalty=1e-6, max_iterations=300),
            )
            routed = traverse_batch(tree, data.features)
            predicted = np.argmax(
                class_probability_matrix(surrogate.model, data.features), axis=1
            )
            agreement = float(np.mean(predicted == routed))
            assert agreement >= 0.99


def test_criterion_4_depth_zero_losslessness():
    with Budget(4, 10, "depth-0 forests squash losslessly (exact f64 equality)"):
        data = gen_friedman1(800, 1.0, seed=303)
        config = ForestConfig(
            subsample_size=400,
            features_per_split=10,
            max_depth=0,
            n_trees=20,
            seed=303,
        )
        forest = fit_forest(data, config)
        squashed = squash_forest(forest, data, MlrFitConfig())
        probes = gen_friedman1(1000, 0.0, seed=404).features
        gap = np.abs(
            forest_predict_batch(forest, probes)
            - surrogate_forest_predict_batch(squashed, probes)
        )
        assert np.all(gap == 0.0)


def test_criterion_5_codec_exactness():
    with Budget(5, 30, "byte-exact round-trips and closed-form sizes"):
        rng = np.random.default_rng(505)
        for trial in range(20):
            n = int(rng.integers(60, 200))
            depth = int(rng.integers(0, 5))
            m = int(rng.integers(1, 6))
            data = gen_friedman1(n, 1.0, seed=1000 + trial)
            config = ForestConfig(
                subsample_size=max(2, n // 2),
                features_per_split=int(rng.integers(1, 11)),
                max_depth=depth,
                n_trees=m,
                min_leaf=int(rng.integers(1, 4)),
                seed=trial,
            )
            forest = fit_forest(data, config)
            squashed = squash_forest(forest, data, MlrFitConfig(l2_penalty=1e-4))
            for model, header in (
                (forest, FOREST_HEADER_BYTES),
                (squashed, SURROGATE_HEADER_BYTES),
            ):
                for width_name, w in (("f64", 8), ("f32", 4)):
                    blob = encode(model, width_name)
                    assert encode(decode(blob), width_name) == blob
                    assert measure_size(model, width_name) == len(blob)
                    # independent formula per the documented layout
                    if model is forest:
                        per_tree = sum(
                            8 + (t.n_leaves - 1) * (12 + w) + t.n_leaves * (4 + w)
                            for t in forest.trees
                        )
                    else:
                        p = squashed.n_features
                        per_tree = sum(
                            4 + (s.n_leaves - 1) * (p + 1) * w + s.n_leaves * w + 1
                            for s in squashed.surrogates
                        )
                    assert len(blob) == ENVELOPE_BYTES + header + per_tree

        # surrogate size invariant to training-set size at fixed (K, p)
        sizes = []
        for n in (500, 5000):
            data = gen_axis_partition(n, [(0, 0.5)], [2.0, 4.0], seed=6, p=4)
            config = ForestConfig(
                subsample_size=n, features_per_split=4, max_depth=1, n_trees=1, seed=0
            )
            forest = fit_forest(data, config)
            squashed = squash_forest(forest, data, MlrFitConfig())
            assert squashed.surrogates[0].n_leaves == 2
            sizes.append(measure_size(squashed, "f64"))
        assert sizes[0] == sizes[1]


def test_criterion_6_size_accuracy_tradeoff():
    with Budget(6, 300, "trade-off experiment within pilot regression bounds"):
        data = gen_friedman1(5000, 1.0, seed=PILOT_SEED)
        parts = split(data, 0.2, seed=PILOT_SEED)
        train, test = parts.train, parts.test

        def rmse(pred):
            return float(np.sqrt(np.mean((pred - test.responses) ** 2)))

        measured = {}
        baseline_points = []  # (bytes_f64, rmse) over the (d, M') parameter grid
        for depth in (3, 5, 8):
            config = ForestConfig(max_depth=depth, **PILOT_FOREST)
            forest = fit_forest(train, config)
            squashed = squash_forest(forest, train, PILOT_FIT)
            assert all(s.fit.converged for s in squashed.surrogates)
            exp = dataclasses.replace(squashed, prediction_mode="expectation")
            arg = dataclasses.replace(squashed, prediction_mode="argmax")
            cell = {
                "forest_rmse": rmse(forest_predict_batch(forest, test.features)),
                "surrogate_rmse_expectation": rmse(
                    surrogate_forest_predict_batch(exp, test.features)
                ),
                "surrogate_rmse_argmax": rmse(
                    surrogate_forest_predict_batch(arg, test.features)
                ),
                "forest_bytes_f64": measure_size(forest, "f64"),
                "forest_bytes_f32": measure_size(forest, "f32"),
                "surrogate_bytes_f64": measure_size(squashed, "f64"),
                "surrogate_bytes_f32": measure_size(squashed, "f32"),
            }
            measured[depth] = cell

            # the parameter-shrinking baseline: prefix sub-ensembles of this
            # forest are exactly the models R(n,k,depth,M') for M' <= M
            per_tree_pred = np.stack(
                [t.leaf_values[traverse_batch(t, test.features)] for t in forest.trees]
            )
            for m_prime in (1, 2, 5, 10, 20, 35, 50):
                prefix_rmse = rmse(per_tree_pred[:m_prime].mean(axis=0))
                prefix_bytes = (
                    ENVELOPE_BYTES
                    + FOREST_HEADER_BYTES
                    + sum(
                        8 + (t.n_leaves - 1) * 20 + t.n_leaves * 12
                        for t in forest.trees[:m_prime]
                    )
                )
                baseline_points.append((depth, m_prime, prefix_bytes, prefix_rmse))

        # ---- report --------------------------------------------------------
        print("\n    size/accuracy trade-off (Friedman #1, N=5000, M=50)")
        print(
            "    d  model                rmse     f64 bytes  f32 bytes  ratio_f64  ratio_f32"
        )
        for depth, cell in measured.items():
            r64 = cell["surrogate_bytes_f64"] / cell["forest_bytes_f64"]
            r32 = cell["surrogate_bytes_f32"] / cell["forest_bytes_f32"]
            print(
                f"    {depth}  forest             {cell['forest_rmse']:8.4f} "
                f"{cell['forest_bytes_f64']:10d} {cell['forest_bytes_f32']:10d}"
            )
            print(
                f"    {depth}  surrogate (expect) "
                f"{cell['surrogate_rmse_expectation']:8.4f} "
                f"{cell['surrogate_bytes_f64']:10d} {cell['surrogate_bytes_f32']:10d} "
                f"{r64:10.4f} {r32:10.4f}"
            )
            print(
                f"    {depth}  surrogate (argmax) "
                f"{cell['surrogate_rmse_argmax']:8.4f} "
                f"{cell['surrogate_bytes_f64']:10d} {cell['surrogate_bytes_f32']:10d}"
            )

        # matched-size verdict per surrogate cell, against every (d, M') point
        print("\n    matched-size comparison against the parameter-shrink baseline:")
        verdicts = []
        for depth, cell in measured.items():
            budget = cell["surrogate_bytes_f64"]
            candidates = [b for b in baseline_points if b[2] <= budget]
            best = min(candidates, key=lambda b: b[3])
            surrogate_rmse = cell["surrogate_rmse_expectation"]
            wins = surrogate_rmse < best[3]
            verdicts.append(wins)
            print(
                f"      surrogate d={depth}: {budget}B rmse={surrogate_rmse:.4f}  vs  "
                f"best baseline <= that size: d={best[0]} M={best[1]} "
                f"({best[2]}B rmse={best[3]:.4f})  -> "
                f"{'surrogate wins' if wins else 'baseline wins'}"
            )
        if all(verdicts):
            print(
                "      VERDICT: squashing beats parameter shrinking at matched size "
                "on every cell."
            )
        elif not any(verdicts):
            print(
                "      VERDICT: squashing does NOT beat parameter shrinking at "
                "matched size on this benchmark; the surrogate improves accuracy "
                "but costs ~3x the bytes at f64 (p=10)."
            )
        else:
            print(
                "      VERDICT: mixed — squashing wins only where the baseline "
                "has no room left to grow (largest cells)."
            )

        # ---- regression assertions against the pilot ------------------------
        for depth, cell in measured.items():
            pilot = PILOT[depth]
            for mode_key in ("surrogate_rmse_expectation", "surrogate_rmse_argmax"):
                assert cell[mode_key] <= 1.05 * pilot[mode_key], (
                    f"d={depth} {mode_key}: {cell[mode_key]} vs pilot {pilot[mode_key]}"
                )
            for width in ("f64", "f32"):
                ratio = (
                    cell[f"surrogate_bytes_{width}"] / cell[f"forest_bytes_{width}"]
                )
                pilot_ratio = (
                    pilot[f"surrogate_bytes_{width}"] / pilot[f"forest_bytes_{width}"]
                )
                assert abs(ratio - pilot_ratio) <= 0.05 * pilot_ratio, (
                    f"d={depth} {width} ratio {ratio} vs pilot {pilot_ratio}"
                )


def test_criterion_7_cli_determinism(tmp_path, capsys):
    with Budget(7, 120, "CLI byte-identical across reruns"):
        train_spec = "friedman1:n=400,noise=1.0"

        def run(argv):
            code = cli.main(argv)
            out = capsys.readouterr().out
            assert code == 0
            return out

        def canonical_report(raw):
            # train/squash/evaluate print one JSON document; bench prints
            # JSON lines; predict --out prints nothing
            raw = raw.strip()
            if not raw:
                return ""
            try:
                docs = [json.loads(raw)]
            except json.JSONDecodeError:
                docs = [json.loads(line) for line in raw.splitlines()]
            for doc in docs:
                doc.pop("timing", None)
            return "\n".join(json.dumps(doc, sort_keys=True) for doc in docs)

        test_csv = tmp_path / "test.csv"
        write_csv(gen_friedman1(100, 1.0, seed=9), test_csv)

        forest_path = tmp_path / "forest.rfsq"
        squash_path = tmp_path / "squash.rfsq"
        pred_path = tmp_path / "pred.csv"
        artifacts = {}
        for run_id in ("a", "b", "c"):
            reports = [
                run(["train", train_spec, "--d", "3", "--m", "6", "--n", "200",
                     "--seed", "17", "--out", str(forest_path)]),
                run(["squash", str(forest_path), train_spec, "--lambda", "1e-4",
                     "--out", str(squash_path)]),
                run(["evaluate", str(squash_path), str(test_csv)]),
                run(["predict", str(squash_path), str(test_csv), "--out",
                     str(pred_path)]),
                run(["bench", train_spec, "--d", "2,3", "--m", "4", "--lambda",
                     "1e-4", "--seed", "17"]),
            ]
            artifacts[run_id] = (
                forest_path.read_bytes(),
                squash_path.read_bytes(),
                pred_path.read_text(),
                [canonical_report(r) for r in reports],
            )

        assert artifacts["a"][0] == artifacts["b"][0] == artifacts["c"][0]
        assert artifacts["a"][1] == artifacts["b"][1] == artifacts["c"][1]
        assert artifacts["a"][2] == artifacts["b"][2] == artifacts["c"][2]
        assert artifacts["a"][3] == artifacts["b"][3] == artifacts["c"][3]
        # the fit step totals are deterministic, so they sit outside "timing"
        squash_report = json.loads(artifacts["a"][3][1])
        assert 0 < squash_report["newton_steps"] <= squash_report["cg_steps"]
