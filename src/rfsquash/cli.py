"""Command-line driver: train, squash, predict, evaluate, and bench.

Every command is deterministic for a fixed BLAS library and thread count:
train and bench draw from --seed, squash re-derives from the forest's stored
seed, and predict and evaluate draw nothing. Reports embed the resolved
configuration and are emitted as JSON (default) or aligned text. Wall-clock
timings live under a separate "timing" key so consumers can ignore the only
non-reproducible part of a report; train, squash and evaluate time their read
stage (data input plus model decode) as "read_seconds".

Exit codes: 0 success, 1 usage error, 2 data error, 3 numeric failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import itertools
import json
import sys
import time
from pathlib import Path
from typing import Any

import numpy as np

from . import codec
from .data import Dataset, gen_axis_partition, gen_friedman1, load_csv, read_numeric_csv, split
from .errors import CodecError, DataError, NumericError
from .forest import LEAF_SUMMARIES, Forest, ForestConfig, fit_forest, forest_predict_batch
from .mlr import MlrFitConfig
from .surrogate import (
    PREDICTION_MODES,
    SurrogateForest,
    squash_forest,
    surrogate_forest_predict_batch,
)

REPORT_VERSION = 1
EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_NUMERIC = 3


class UsageError(Exception):
    """Malformed command line or generator spec."""


class _Parser(argparse.ArgumentParser):
    """argparse exits with code 2 on bad flags; this project reserves 2 for
    data errors, so route usage failures through UsageError instead."""

    def error(self, message: str) -> None:  # type: ignore[override]
        raise UsageError(message)


# ---------------------------------------------------------------------------
# Dataset argument: CSV path or generator spec
# ---------------------------------------------------------------------------


def _parse_kv_spec(body: str) -> dict[str, str]:
    pairs: dict[str, str] = {}
    for chunk in body.split(","):
        if not chunk:
            continue
        if "=" not in chunk:
            raise UsageError(f"expected key=value in generator spec, got {chunk!r}")
        key, value = chunk.split("=", 1)
        pairs[key.strip()] = value.strip()
    return pairs


def _parse_axis_thresholds(text: str) -> list[tuple[int, float]]:
    thresholds = []
    for item in text.split(";"):
        if ":" not in item:
            raise UsageError(
                f"axis threshold must be feature:cutpoint, got {item!r}"
            )
        feat, cut = item.split(":", 1)
        try:
            thresholds.append((int(feat), float(cut)))
        except ValueError:
            raise UsageError(f"bad axis threshold {item!r}") from None
    return thresholds


def resolve_dataset(spec: str, response: str, seed: int) -> tuple[Dataset, dict[str, Any]]:
    """Turn a data argument into a Dataset plus a description for reports.

    Accepts a CSV path, ``friedman1:n=...,noise=...`` or
    ``axis:n=...,thresholds=f:c;f:c,values=v;v;...``.
    """
    if spec.startswith("friedman1:"):
        params = _parse_kv_spec(spec[len("friedman1:") :])
        unknown = set(params) - {"n", "noise"}
        if unknown:
            raise UsageError(f"unknown friedman1 keys: {sorted(unknown)}")
        if "n" not in params:
            raise UsageError("friedman1 spec needs n=<rows>")
        try:
            n = int(params["n"])
            noise = float(params.get("noise", "0"))
            dataset = gen_friedman1(n, noise, seed)
        except ValueError as exc:
            raise UsageError(f"bad friedman1 spec: {exc}") from None
        return dataset, {
            "source": "friedman1",
            "n": n,
            "noise_sd": noise,
            "seed": seed,
            "note": "synthetic benchmark generator (Friedman #1), stand-in "
            "for a published real-data example",
        }
    if spec.startswith("axis:"):
        params = _parse_kv_spec(spec[len("axis:") :])
        unknown = set(params) - {"n", "thresholds", "values", "p"}
        if unknown:
            raise UsageError(f"unknown axis keys: {sorted(unknown)}")
        missing = {"n", "thresholds", "values"} - set(params)
        if missing:
            raise UsageError(f"axis spec missing keys: {sorted(missing)}")
        try:
            n = int(params["n"])
            values = [float(v) for v in params["values"].split(";")]
            p = int(params["p"]) if "p" in params else None
        except ValueError as exc:
            raise UsageError(f"bad axis spec: {exc}") from None
        thresholds = _parse_axis_thresholds(params["thresholds"])
        try:
            dataset = gen_axis_partition(n, thresholds, values, seed, p=p)
        except ValueError as exc:
            raise UsageError(f"bad axis spec: {exc}") from None
        return dataset, {
            "source": "axis_partition",
            "n": n,
            "thresholds": [[f, c] for f, c in thresholds],
            "leaf_values": values,
            "seed": seed,
        }
    dataset = load_csv(spec, response)
    return dataset, {"source": "csv", "path": spec, "response_column": response}


# ---------------------------------------------------------------------------
# Shared pieces
# ---------------------------------------------------------------------------


def _errors(predicted: np.ndarray, actual: np.ndarray) -> dict[str, float]:
    residuals = predicted - actual
    return {
        "rmse": float(np.sqrt(np.mean(residuals**2))),
        "mae": float(np.mean(np.abs(residuals))),
    }


def _model_predict_batch(model: Forest | SurrogateForest, x: np.ndarray) -> np.ndarray:
    if isinstance(model, Forest):
        return forest_predict_batch(model, x)
    return surrogate_forest_predict_batch(model, x)


def _timed_predictions(
    model: Forest | SurrogateForest, x: np.ndarray
) -> tuple[np.ndarray, float]:
    """Predictions plus the wall-clock seconds per 1000 rows of that one call,
    which includes compiling the model on its first batch predict: a forest's
    flat node arrays or a surrogate forest's stack."""
    t0 = time.perf_counter()
    predictions = _model_predict_batch(model, x)
    return predictions, (time.perf_counter() - t0) / x.shape[0] * 1000.0


def _forest_config(
    args: argparse.Namespace, dataset: Dataset, depth: int, n_trees: int
) -> ForestConfig:
    return ForestConfig(
        subsample_size=args.n if args.n is not None else dataset.n_rows,
        features_per_split=args.k if args.k is not None else dataset.n_features,
        max_depth=depth,
        n_trees=n_trees,
        min_leaf=args.min_leaf,
        leaf_summary=args.leaf_summary,
        seed=args.seed,
    )


def _fit_config(args: argparse.Namespace, l2: float) -> MlrFitConfig:
    return MlrFitConfig(
        l2_penalty=l2, max_iterations=args.max_iter, gradient_tolerance=args.tol
    )


def _warn_unconverged(sf: SurrogateForest, where: str = "") -> None:
    """One stderr line naming the trees whose surrogate fit stopped before
    reaching ``--tol``; the model is still valid, so the exit code stays 0."""
    trees = [m for m, s in enumerate(sf.surrogates) if not s.fit.converged]
    if trees:
        print(
            f"warning: {where}{len(trees)} of {sf.n_trees} surrogate fits did not "
            f"converge (trees {', '.join(map(str, trees))}); raise --max-iter or --lambda",
            file=sys.stderr,
        )


def _config_echo(config: ForestConfig) -> dict[str, Any]:
    return {
        "n": config.subsample_size,
        "k": config.features_per_split,
        "d": config.max_depth,
        "m": config.n_trees,
        "min_leaf": config.min_leaf,
        "leaf_summary": config.leaf_summary,
        "seed": config.seed,
    }


def _mlr_echo(config: MlrFitConfig, mode: str) -> dict[str, Any]:
    return {
        "lambda": config.l2_penalty,
        "max_iter": config.max_iterations,
        "tol": config.gradient_tolerance,
        "mode": mode,
    }


def _leaf_histogram(model: Forest | SurrogateForest) -> dict[str, int]:
    if isinstance(model, Forest):
        counts = [t.n_leaves for t in model.trees]
    else:
        counts = [s.n_leaves for s in model.surrogates]
    histogram: dict[str, int] = {}
    for k in sorted(set(counts)):
        histogram[str(k)] = counts.count(k)
    return histogram


def _read_model_file(path: str) -> Forest | SurrogateForest:
    file_path = Path(path)
    if not file_path.exists():
        raise DataError(f"no such model file: {path}")
    try:
        data = file_path.read_bytes()
    except OSError as exc:  # a directory, no read permission, ...
        raise DataError(f"cannot read model file {path}: {exc.strerror}") from None
    return codec.decode(data)


def _write_out(path: str, data: bytes) -> None:
    """Write an --out file; a path that cannot be written is a usage error."""
    try:
        Path(path).write_bytes(data)
    except OSError as exc:
        raise UsageError(f"cannot write {path}: {exc.strerror}") from None


def _emit(report: dict[str, Any], fmt: str) -> None:
    if fmt == "json":
        print(json.dumps(report, indent=2))
    else:
        for line in _text_lines(report):
            print(line)


def _text_lines(report: dict[str, Any], prefix: str = "") -> list[str]:
    lines = []
    for key, value in report.items():
        if isinstance(value, dict):
            lines.append(f"{prefix}{key}:")
            lines.extend(_text_lines(value, prefix + "  "))
        else:
            lines.append(f"{prefix}{key}: {value}")
    return lines


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------


def cmd_train(args: argparse.Namespace) -> int:
    t0 = time.perf_counter()
    dataset, descr = resolve_dataset(args.data, args.response, args.seed)
    read_seconds = time.perf_counter() - t0
    config = _forest_config(args, dataset, args.d, args.m)
    t0 = time.perf_counter()
    forest = fit_forest(dataset, config)
    train_seconds = time.perf_counter() - t0
    blob = codec.encode(forest, args.float)
    _write_out(args.out, blob)
    predictions = forest_predict_batch(forest, dataset.features)
    _emit(
        {
            "report_version": REPORT_VERSION,
            "command": "train",
            "dataset": descr,
            "config": _config_echo(config),
            "float": args.float,
            "out": args.out,
            "metrics": {
                **_errors(predictions, dataset.responses),
                "model_bytes": len(blob),
            },
            "leaf_count_histogram": _leaf_histogram(forest),
            "timing": {"read_seconds": read_seconds, "train_seconds": train_seconds},
        },
        args.format,
    )
    return EXIT_OK


def cmd_squash(args: argparse.Namespace) -> int:
    t0 = time.perf_counter()
    forest = _read_model_file(args.forest)
    if not isinstance(forest, Forest):
        raise DataError(f"{args.forest} holds a surrogate forest, not a tree forest")
    dataset, descr = resolve_dataset(args.data, args.response, forest.config.seed)
    read_seconds = time.perf_counter() - t0
    fit_config = _fit_config(args, args.l2)
    t0 = time.perf_counter()
    sf = squash_forest(forest, dataset, fit_config, prediction_mode=args.mode)
    squash_seconds = time.perf_counter() - t0
    _warn_unconverged(sf)
    blob = codec.encode(sf, args.float)
    _write_out(args.out, blob)
    bytes_before = codec.measure_size(forest, args.float)
    bytes_after = codec.measure_size(sf, args.float)
    fits = [s.fit for s in sf.surrogates]
    _emit(
        {
            "report_version": REPORT_VERSION,
            "command": "squash",
            "dataset": descr,
            "config": _config_echo(forest.config),
            "fit": _mlr_echo(fit_config, args.mode),
            "float": args.float,
            "out": args.out,
            "bytes_before": bytes_before,
            "bytes_after": bytes_after,
            "compression_ratio": bytes_after / bytes_before,
            "leaf_count_histogram": _leaf_histogram(sf),
            "surrogates_converged": sum(f.converged for f in fits),
            "surrogates_total": len(fits),
            "newton_steps": sum(f.iterations for f in fits),
            "cg_steps": sum(f.cg_steps for f in fits),
            "timing": {"read_seconds": read_seconds, "squash_seconds": squash_seconds},
        },
        args.format,
    )
    return EXIT_OK


def _load_features(path: str, response: str, expected_p: int) -> np.ndarray:
    header, values = read_numeric_csv(path)
    if response in header:
        keep = [i for i in range(len(header)) if i != header.index(response)]
        values = values[:, keep]
    if values.shape[1] != expected_p:
        raise DataError(
            f"model expects {expected_p} features, {path} provides {values.shape[1]}"
        )
    return values


def cmd_predict(args: argparse.Namespace) -> int:
    model = _read_model_file(args.model)
    features = _load_features(args.data, args.response, model.n_features)
    predictions = _model_predict_batch(model, features)
    if args.format == "json" and not args.out:
        print(json.dumps({"predictions": predictions.tolist()}, indent=2))
        return EXIT_OK
    # one %-format over every value: the bytes of "{:.17g}".format per value,
    # in about two thirds of the time
    values = predictions.tolist()
    lines = ("%.17g\n" * len(values)) % tuple(values)
    if args.out:
        _write_out(args.out, ("prediction\n" + lines).encode("utf-8"))
    else:
        sys.stdout.write(lines)
    return EXIT_OK


def cmd_evaluate(args: argparse.Namespace) -> int:
    t0 = time.perf_counter()
    model = _read_model_file(args.model)
    dataset = load_csv(args.data, args.response)
    read_seconds = time.perf_counter() - t0
    if dataset.n_features != model.n_features:
        raise DataError(
            f"model expects {model.n_features} features, "
            f"{args.data} provides {dataset.n_features}"
        )
    predictions, per_1k = _timed_predictions(model, dataset.features)
    kind = "forest" if isinstance(model, Forest) else "surrogate_forest"
    _emit(
        {
            "report_version": REPORT_VERSION,
            "command": "evaluate",
            "model": args.model,
            "model_kind": kind,
            "dataset": {"source": "csv", "path": args.data, "response_column": args.response},
            "config": _config_echo(model.config),
            "metrics": {
                **_errors(predictions, dataset.responses),
                "model_bytes": Path(args.model).stat().st_size,
            },
            "leaf_count_histogram": _leaf_histogram(model),
            "timing": {"read_seconds": read_seconds, "predict_seconds_per_1k": per_1k},
        },
        args.format,
    )
    return EXIT_OK


# ---------------------------------------------------------------------------
# Bench
# ---------------------------------------------------------------------------


def _split_list(text: str, cast, flag: str) -> list:
    out = []
    for item in text.split(","):
        item = item.strip()
        if not item:
            continue
        try:
            out.append(cast(item))
        except ValueError:
            raise UsageError(f"bad value {item!r} for {flag}") from None
    if not out:
        raise UsageError(f"empty grid for {flag}")
    return out


def cmd_bench(args: argparse.Namespace) -> int:
    dataset, descr = resolve_dataset(args.data, args.response, args.seed)
    parts = split(dataset, args.test_fraction, args.seed)
    train, test = parts.train, parts.test

    depths = _split_list(args.d, int, "--d")
    tree_counts = _split_list(args.m, int, "--m")
    lambdas = _split_list(getattr(args, "l2"), float, "--lambda")
    modes = _split_list(args.mode, str, "--mode")
    widths = _split_list(args.float, str, "--float")
    for mode in modes:
        if mode not in PREDICTION_MODES:
            raise UsageError(f"bad --mode value {mode!r}")
    for width in widths:
        if width not in codec.FLOAT_WIDTHS:
            raise UsageError(f"bad --float value {width!r}")

    grid = list(itertools.product(depths, tree_counts, lambdas, modes, widths))
    forests: dict[tuple[int, int], tuple[Forest, float]] = {}
    squashed: dict[tuple[int, int, float], tuple[SurrogateForest, float]] = {}
    rows: list[dict[str, Any]] = []

    for depth, n_trees, lam, mode, width in grid:
        cell = {"d": depth, "m": n_trees, "lambda": lam, "mode": mode, "float": width}
        try:
            key = (depth, n_trees)
            if key not in forests:
                config = _forest_config(args, train, depth, n_trees)
                t0 = time.perf_counter()
                forest = fit_forest(train, config)
                forests[key] = (forest, time.perf_counter() - t0)
            forest, train_seconds = forests[key]

            skey = (depth, n_trees, lam)
            if skey not in squashed:
                t0 = time.perf_counter()
                fitted = squash_forest(forest, train, _fit_config(args, lam))
                squashed[skey] = (fitted, time.perf_counter() - t0)
                _warn_unconverged(fitted, f"d={depth} m={n_trees} lambda={lam:g}: ")
            sf, squash_seconds = squashed[skey]
            sf = dataclasses.replace(sf, prediction_mode=mode)

            # score and time each model as decoded from its file at this width
            forest_blob, sf_blob = codec.encode(forest, width), codec.encode(sf, width)
            forest_pred, forest_per_1k = _timed_predictions(
                codec.decode(forest_blob), test.features
            )
            sf_pred, sf_per_1k = _timed_predictions(codec.decode(sf_blob), test.features)
            forest_bytes, sf_bytes = len(forest_blob), len(sf_blob)

            rows.append(
                {
                    "cell": cell,
                    "kind": "forest",
                    **_errors(forest_pred, test.responses),
                    "bytes": forest_bytes,
                    "timing": {
                        "train_seconds": train_seconds,
                        "predict_seconds_per_1k": forest_per_1k,
                    },
                }
            )
            rows.append(
                {
                    "cell": cell,
                    "kind": "surrogate",
                    **_errors(sf_pred, test.responses),
                    "bytes": sf_bytes,
                    "compression_ratio": sf_bytes / forest_bytes,
                    "converged_fraction": float(
                        np.mean([s.fit.converged for s in sf.surrogates])
                    ),
                    "timing": {
                        "squash_seconds": squash_seconds,
                        "predict_seconds_per_1k": sf_per_1k,
                    },
                }
            )
        except (DataError, NumericError, ValueError) as exc:
            rows.append({"cell": cell, "kind": "forest", "error": str(exc)})
            rows.append({"cell": cell, "kind": "surrogate", "error": str(exc)})

    header = {
        "report_version": REPORT_VERSION,
        "command": "bench",
        "dataset": descr,
        "test_fraction": args.test_fraction,
        "seed": args.seed,
        "rows": len(rows),
    }
    if args.out:
        jsonl = "".join(json.dumps(row) + "\n" for row in rows)
        _write_out(args.out, jsonl.encode("utf-8"))
    if args.format == "json":
        print(json.dumps(header))
        for row in rows:
            print(json.dumps(row))
    else:
        print(_bench_table(rows))
    return EXIT_OK


def _bench_table(rows: list[dict[str, Any]]) -> str:
    columns = ["d", "m", "lambda", "mode", "float", "kind", "rmse", "mae", "bytes", "ratio"]
    table = [columns]
    for row in rows:
        cell = row["cell"]
        shared = [str(cell["d"]), str(cell["m"]), f"{cell['lambda']:g}",
                  cell["mode"], cell["float"], row["kind"]]
        if "error" in row:
            table.append(shared + ["error: " + row["error"], "", "", ""])
            continue
        table.append(
            shared
            + [
                f"{row['rmse']:.4f}",
                f"{row['mae']:.4f}",
                str(row["bytes"]),
                f"{row['compression_ratio']:.4f}" if "compression_ratio" in row else "",
            ]
        )
    widths = [max(len(r[i]) for r in table) for i in range(len(columns))]
    lines = []
    for r in table:
        lines.append("  ".join(val.ljust(w) for val, w in zip(r, widths)).rstrip())
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# Parser and entry point
# ---------------------------------------------------------------------------


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--format", choices=("json", "text"), default="json", help="report format"
    )


def _add_forest_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--seed", type=int, default=ForestConfig.seed, help="RNG seed for the trees, generator specs and bench's split")
    parser.add_argument("--n", type=int, default=None, help="subsample size per tree (default: all rows)")
    parser.add_argument("--k", type=int, default=None, help="features considered per split (default: all)")
    parser.add_argument("--min-leaf", type=int, default=ForestConfig.min_leaf, dest="min_leaf", help="minimum rows per leaf")
    parser.add_argument(
        "--leaf-summary",
        choices=LEAF_SUMMARIES,
        default=ForestConfig.leaf_summary,
        dest="leaf_summary",
        help="leaf statistic",
    )


def _add_mlr_flags(parser: argparse.ArgumentParser, multi: bool = False) -> None:
    lam_default = MlrFitConfig.l2_penalty
    parser.add_argument("--lambda", type=str if multi else float, dest="l2",
                        default=str(lam_default) if multi else lam_default,
                        help="L2 penalty on surrogate coefficients")
    parser.add_argument("--max-iter", type=int, default=MlrFitConfig.max_iterations,
                        dest="max_iter", help="optimizer iteration cap")
    parser.add_argument("--tol", type=float, default=MlrFitConfig.gradient_tolerance,
                        help="gradient max-norm stopping tolerance")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="rfsquash", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    train = sub.add_parser("train", help="fit a random forest and write a .rfsq file")
    train.add_argument("data", help="CSV path or generator spec (friedman1:..., axis:...)")
    train.add_argument("--out", required=True, help="output .rfsq path")
    train.add_argument("--response", default="y", help="response column name for CSV input")
    train.add_argument("--d", type=int, default=5, help="maximum tree depth")
    train.add_argument("--m", type=int, default=50, help="number of trees")
    _add_forest_flags(train)
    train.add_argument("--float", choices=tuple(codec.FLOAT_WIDTHS), default="f64",
                       help="stored float width")
    _add_common(train)
    train.set_defaults(func=cmd_train)

    squash = sub.add_parser(
        "squash", help="replace each tree with its multinomial-logistic surrogate"
    )
    squash.add_argument("forest", help="trained forest .rfsq file")
    squash.add_argument("data", help="the forest's original training data (CSV or generator spec)")
    squash.add_argument("--out", required=True, help="output .rfsq path")
    squash.add_argument("--response", default="y", help="response column name for CSV input")
    _add_mlr_flags(squash)
    squash.add_argument("--mode", choices=PREDICTION_MODES, default="expectation",
                        help="surrogate prediction mode")
    squash.add_argument("--float", choices=tuple(codec.FLOAT_WIDTHS), default="f64",
                        help="stored float width")
    _add_common(squash)
    squash.set_defaults(func=cmd_squash)

    predict = sub.add_parser("predict", help="predict with a stored model")
    predict.add_argument("model", help=".rfsq model file")
    predict.add_argument("data", help="CSV of feature rows (response column, if present, is ignored)")
    predict.add_argument("--response", default="y", help="response column to drop if present")
    predict.add_argument("--out", default=None, help="write predictions to this CSV instead of stdout")
    _add_common(predict)
    predict.set_defaults(func=cmd_predict)

    evaluate = sub.add_parser("evaluate", help="score a stored model on labeled data")
    evaluate.add_argument("model", help=".rfsq model file")
    evaluate.add_argument("data", help="CSV with features and response")
    evaluate.add_argument("--response", default="y", help="response column name")
    _add_common(evaluate)
    evaluate.set_defaults(func=cmd_evaluate)

    bench = sub.add_parser(
        "bench", help="sweep a parameter grid and report both model kinds per cell"
    )
    bench.add_argument("data", help="CSV path or generator spec")
    bench.add_argument("--response", default="y", help="response column name for CSV input")
    bench.add_argument("--test-fraction", type=float, default=0.2, dest="test_fraction",
                       help="held-out fraction for scoring")
    bench.add_argument("--d", default="3,5,8", help="comma list of depths")
    bench.add_argument("--m", default="50", help="comma list of tree counts")
    _add_forest_flags(bench)
    _add_mlr_flags(bench, multi=True)
    bench.add_argument("--mode", default="expectation", help="comma list of prediction modes")
    bench.add_argument("--float", default="f64", help="comma list of float widths")
    bench.add_argument("--out", default=None, help="also write rows as JSON lines to this path")
    _add_common(bench)
    bench.set_defaults(func=cmd_bench)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (DataError, CodecError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except NumericError as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except ValueError as exc:
        # config/parameter validation from the library: a flag value that is
        # individually parseable but invalid (e.g. --d -1, --n > rows)
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
