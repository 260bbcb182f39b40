"""Workloads, measurement loops, output checks and metric reduction.

Imported by ``run.py`` after it has pinned the thread counts. Every CLI
command runs in this process through ``rfsquash.cli.main``; loading and
single-row prediction go through the library, as a serving caller would.
"""

from __future__ import annotations

import contextlib
import ctypes
import dataclasses
import gc
import glob
import io
import json
import math
import os
import platform
import shutil
import statistics
import sys
import time
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import numpy as np
import scipy

import rfsquash
from rfsquash import cli, codec, data, forest, mlr, surrogate
from spans import Tracer

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench"
KINDS = ("forest", "surrogate")
LAYERS = ("cli", "data", "forest", "surrogate", "mlr", "codec")

# The criterion-6 pilot configuration, shared by every workload.
N_ROWS = 5000
NOISE_SD = 1.0
TEST_FRACTION = 0.2
SUBSAMPLE = 1000
MIN_LEAF = 8
FIT_FLAGS = ("--lambda", "1e-3", "--max-iter", "150", "--tol", "1e-4", "--mode", "expectation")

# The traced run's serving round scores about this many rows per model kind
# through CLI predict and times this many model loads.
ROWS_PER_ROUND = 20000
LOADS_PER_ROUND = 50
# A serving slice, run after every timed pipeline command and between them,
# times this many model loads per model kind.
LOADS_PER_SLICE = 10
MIN_PIPELINES = 3


@dataclass(frozen=True)
class Workload:
    name: str
    noise_columns: int  # U[0,1) columns appended to Friedman #1's ten features
    k: int
    d: int
    m: int
    serve_only: bool  # fit and squash in set-up; the timed loop serves the fresh rows
    holdout_rows: int  # fresh rows, held out from training, that score the models
    row_calls: int  # single-row library predictions per traced round and model kind
    slice_predicts: int  # CLI predicts per serving slice and model kind
    slice_rows: int  # single-row library predictions per serving slice and model kind
    train_every: int  # every this many serving slices also time one CLI train
    setup_reps: int


WORKLOADS = {
    w.name: w
    for w in (
        Workload("pilot_d8", 0, 10, 8, 12, False, 20000, 1000, 4, 100, 1, 3),
        Workload("wide_p30", 20, 30, 8, 8, False, 20000, 1000, 4, 100, 3, 3),
        Workload("serve_d5", 0, 10, 5, 50, True, 20000, 250, 1, 50, 3, 3),
    )
}


def smoke_variant(wl: Workload) -> Workload:
    return dataclasses.replace(
        wl, m=2, holdout_rows=2000, row_calls=20, slice_rows=10, setup_reps=2
    )


class OperationFailed(RuntimeError):
    """A CLI command exited non-zero, or a library call raised."""


class CpuPicker:
    """Moves the process to the least contended of the CPUs it may use.

    On a shared 2-vCPU virtual machine, one CPU was measured to run the same
    code up to 2x slower than the other, for a fraction of a second to
    minutes (other tenants' load, not visible as steal time); which CPU was
    slow changed over time, and the scheduler left the process on a slow
    one. Pinned this way, the best sample of a 20-second run of model loads
    varied 0.07 of its median across five seeds, against 0.47 unpinned.

    Called before each timed command, outside its timing, this times a short
    probe on every allowed CPU and pins the process to the fastest. The
    program runs on one thread (RFSQ_THREADS=1, one BLAS thread), so the pin
    changes none of its work.
    """

    PROBE_REPS = 3

    def __init__(self) -> None:
        self.cpus = sorted(os.sched_getaffinity(0))
        self.picks: dict[int, int] = {cpu: 0 for cpu in self.cpus}
        self._array = np.random.default_rng(0).random(32768)

    def _probe(self) -> float:
        best = math.inf
        for _ in range(self.PROBE_REPS):
            t0 = time.perf_counter()
            total = 0
            for i in range(2000):
                total += i
            float(self._array.sum())
            best = min(best, time.perf_counter() - t0)
        return best

    def __call__(self) -> None:
        if len(self.cpus) < 2:
            return
        probes = {}
        for cpu in self.cpus:
            os.sched_setaffinity(0, {cpu})
            probes[cpu] = self._probe()
        fastest = min(probes, key=probes.get)
        os.sched_setaffinity(0, {fastest})
        self.picks[fastest] += 1

    def release(self) -> None:
        os.sched_setaffinity(0, self.cpus)


class Counters:
    """Operation and check counts of one benchmark run."""

    def __init__(self) -> None:
        self.tracer: Tracer | None = None
        # Runs before each timed command, outside its timing.
        self.prepare: Callable[[], None] = lambda: None
        self.attempted = 0
        self.failed = 0
        self.checks_passed = 0
        self.check_failures: list[str] = []

    def check(self, ok: bool, what: str) -> None:
        if ok:
            self.checks_passed += 1
        else:
            self.check_failures.append(what)

    def cli(self, *argv: Any) -> tuple[dict[str, Any] | None, float]:
        """Run one CLI command in-process; returns its JSON report and wall seconds."""
        args = [str(a) for a in argv]
        out, err = io.StringIO(), io.StringIO()
        self.prepare()
        scope = self.tracer.span(f"cli.{args[0]}") if self.tracer else contextlib.nullcontext()
        self.attempted += 1
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), scope:
                t0 = time.perf_counter()
                code = cli.main(args)
                seconds = time.perf_counter() - t0
        except Exception as exc:
            self.failed += 1
            raise OperationFailed(f"rfsquash {' '.join(args)} raised {exc!r}") from exc
        if code != 0:
            self.failed += 1
            raise OperationFailed(
                f"rfsquash {' '.join(args)} exited {code}: {err.getvalue().strip()}"
            )
        text = out.getvalue()
        return (json.loads(text) if text.strip() else None), seconds

    def timed(self, fn: Callable, *args: Any) -> tuple[Any, float]:
        """Call one library function; returns its result and wall seconds."""
        self.attempted += 1
        try:
            t0 = time.perf_counter()
            result = fn(*args)
            seconds = time.perf_counter() - t0
        except Exception as exc:
            self.failed += 1
            raise OperationFailed(f"{fn.__name__} raised {exc!r}") from exc
        return result, seconds


# ---------------------------------------------------------------------------
# Inputs
# ---------------------------------------------------------------------------


@dataclass
class Inputs:
    train: data.Dataset
    test: data.Dataset
    holdout: data.Dataset
    probe: np.ndarray
    train_csv: Path
    test_csv: Path
    holdout_csv: Path
    probe_csv: Path


def friedman(wl: Workload, n: int, seed: int) -> data.Dataset:
    base = data.gen_friedman1(n, NOISE_SD, seed)
    if not wl.noise_columns:
        return base
    noise = np.random.default_rng([seed, wl.noise_columns]).random((n, wl.noise_columns))
    return data.Dataset(base.responses, np.hstack([base.features, noise]))


def make_inputs(wl: Workload, seed: int, work: Path) -> Inputs:
    """Data drawn from the workload seed, written where the CLI reads it."""
    work.mkdir(parents=True, exist_ok=True)
    parts = data.split(friedman(wl, N_ROWS, seed), TEST_FRACTION, seed)
    train_csv, test_csv = work / "train.csv", work / "test.csv"
    data.write_csv(parts.train, train_csv)
    data.write_csv(parts.test, test_csv)
    # Fresh rows from a second stream of the seed. Scoring on 20k of them,
    # not the 1000-row test split, keeps the RMSE of a seed close to the
    # model's true error, so RMSEs vary little between seeds.
    holdout_seed = int(np.random.SeedSequence([seed, 1]).generate_state(1)[0])
    holdout, holdout_csv = friedman(wl, wl.holdout_rows, holdout_seed), work / "holdout.csv"
    data.write_csv(holdout, holdout_csv)
    probe, probe_csv = parts.test.features, test_csv
    if wl.serve_only:
        probe, probe_csv = holdout.features, holdout_csv
    return Inputs(
        parts.train, parts.test, holdout, probe, train_csv, test_csv, holdout_csv, probe_csv
    )


# ---------------------------------------------------------------------------
# The measured operations
# ---------------------------------------------------------------------------


def model_path(out: Path, kind: str) -> Path:
    return out / f"{kind}.rfsq"


def train_argv(wl: Workload, seed: int, inputs: Inputs, out_file: Path) -> list:
    return [
        "train", inputs.train_csv, "--response", "y", "--n", SUBSAMPLE, "--k", wl.k,
        "--d", wl.d, "--m", wl.m, "--min-leaf", MIN_LEAF, "--seed", seed, "--out", out_file,
    ]


def run_pipeline(
    s: Counters, wl: Workload, seed: int, inputs: Inputs, out: Path,
    between: Callable[[], None] | None = None,
) -> dict:
    """train -> squash -> evaluate both models, each through the CLI.

    ``between``, if given, runs after each of the four commands, outside
    their timings.
    """
    out.mkdir(parents=True, exist_ok=True)
    forest_file, surrogate_file = model_path(out, "forest"), model_path(out, "surrogate")
    between = between or (lambda: None)
    train, train_s = s.cli(*train_argv(wl, seed, inputs, forest_file))
    between()
    squash, squash_s = s.cli(
        "squash", forest_file, inputs.train_csv, "--response", "y", *FIT_FLAGS,
        "--out", surrogate_file,
    )
    between()
    eval_forest, eval_forest_s = s.cli("evaluate", forest_file, inputs.test_csv)
    between()
    eval_surrogate, eval_surrogate_s = s.cli("evaluate", surrogate_file, inputs.test_csv)
    between()
    return {
        "train_s": train_s,
        "squash_s": squash_s,
        "pipeline_s": train_s + squash_s + eval_forest_s + eval_surrogate_s,
        "reports": {
            "train": train,
            "squash": squash,
            "evaluate_forest": eval_forest,
            "evaluate_surrogate": eval_surrogate,
        },
    }


def predict_batch(model, x: np.ndarray) -> np.ndarray:
    if isinstance(model, forest.Forest):
        return forest.forest_predict_batch(model, x)
    return surrogate.surrogate_forest_predict_batch(model, x)


def rmse(predicted: np.ndarray, actual: np.ndarray) -> float:
    return float(np.sqrt(np.mean((predicted - actual) ** 2)))


def routing_fidelity(fitted: forest.Forest, squashed, train: data.Dataset) -> float:
    """Share of training-subsample rows whose surrogate argmax leaf is the tree's leaf."""
    hits = total = 0
    for tree, sur, rows in zip(
        fitted.trees, squashed.surrogates, forest.rederive_subsamples(fitted)
    ):
        x = train.features[rows]
        leaves = forest.traverse_batch(tree, x)
        if sur.model is None:
            routed = np.zeros_like(leaves)
        else:
            routed = np.argmax(mlr.class_probability_matrix(sur.model, x), axis=1)
        hits += int(np.count_nonzero(routed == leaves))
        total += rows.shape[0]
    return hits / total


@dataclass
class Models:
    """Decoded models of one pipeline, their file bytes and reference predictions."""

    blobs: dict[str, bytes]
    decoded: dict[str, Any]
    probe_predictions: dict[str, np.ndarray]
    quality: dict[str, float]


def unconverged_share(pipeline: dict) -> float:
    """Share of surrogate fits the squash report counts as not converged."""
    squash = pipeline["reports"]["squash"]
    return 1.0 - squash["surrogates_converged"] / squash["surrogates_total"]


def check_models(s: Counters, pipeline: dict, inputs: Inputs, out: Path) -> Models:
    """Decode both model files, check them against the CLI reports, score them."""
    reports = pipeline["reports"]
    reported_bytes = {
        "forest": [
            reports["train"]["metrics"]["model_bytes"],
            reports["squash"]["bytes_before"],
            reports["evaluate_forest"]["metrics"]["model_bytes"],
        ],
        "surrogate": [
            reports["squash"]["bytes_after"],
            reports["evaluate_surrogate"]["metrics"]["model_bytes"],
        ],
    }
    blobs, decoded, probe_predictions, quality = {}, {}, {}, {}
    for kind in KINDS:
        blob = model_path(out, kind).read_bytes()
        model = codec.decode(blob)
        s.check(codec.encode(model, "f64") == blob, f"{kind} file re-encodes byte-identically")
        size = codec.measure_size(model, "f64")
        s.check(
            all(b == size == len(blob) for b in reported_bytes[kind]),
            f"{kind}: measure_size {size}, file {len(blob)}, CLI {reported_bytes[kind]}",
        )
        test_pred = predict_batch(model, inputs.test.features)
        probe_pred = predict_batch(model, inputs.probe)
        s.check(
            bool(np.all(np.isfinite(test_pred)) and np.all(np.isfinite(probe_pred))),
            f"{kind} predictions are finite",
        )
        recomputed = rmse(test_pred, inputs.test.responses)
        reported = reports[f"evaluate_{kind}"]["metrics"]["rmse"]
        s.check(recomputed == reported, f"{kind} RMSE: CLI {reported}, recomputed {recomputed}")
        holdout, _ = s.cli("evaluate", model_path(out, kind), inputs.holdout_csv)
        recomputed = rmse(predict_batch(model, inputs.holdout.features), inputs.holdout.responses)
        reported = holdout["metrics"]["rmse"]
        s.check(recomputed == reported, f"{kind} hold-out RMSE: CLI {reported}, recomputed {recomputed}")
        blobs[kind], decoded[kind], probe_predictions[kind] = blob, model, probe_pred
        quality[f"{kind}_rmse"] = recomputed
        quality[f"{kind}_bytes"] = len(blob)
    quality["routing_fidelity"] = routing_fidelity(
        decoded["forest"], decoded["surrogate"], inputs.train
    )
    quality["unconverged_share"] = unconverged_share(pipeline)
    return Models(blobs, decoded, probe_predictions, quality)


def check_same_files(s: Counters, models: Models, out: Path, what: str) -> None:
    for kind in KINDS:
        s.check(model_path(out, kind).read_bytes() == models.blobs[kind], f"{kind} file: {what}")


def read_predictions(path: Path) -> np.ndarray:
    lines = path.read_text(encoding="utf-8").splitlines()
    if not lines or lines[0] != "prediction":
        return np.array([])
    return np.array([float(v) for v in lines[1:]])


SINGLE_ROW = {"forest": (forest, "forest_predict"), "surrogate": (surrogate, "surrogate_forest_predict")}


def serve(
    s: Counters, inputs: Inputs, out: Path, models: Models, samples: dict[str, list[float]],
    predicts: int, loads: int, rows: int, first_row: int = 0,
) -> None:
    """CLI predict, model load and single-row prediction, per model kind.

    The single-row calls take ``rows`` probe rows from ``first_row`` on,
    wrapping round, so that successive slices score different rows.
    """
    n = inputs.probe.shape[0]
    picked = (first_row + np.arange(rows)) % n
    for kind in KINDS:
        path = model_path(out, kind)
        predictions = out / f"{kind}_predictions.csv"
        for _ in range(predicts):
            _, seconds = s.cli("predict", path, inputs.probe_csv, "--out", predictions)
            samples[f"predict_{kind}_rows_per_s"].append(n / seconds)
            s.check(
                np.array_equal(read_predictions(predictions), models.probe_predictions[kind]),
                f"CLI predict output equals library batch prediction ({kind})",
            )

        s.prepare()
        for _ in range(loads):
            blob = path.read_bytes()
            _, seconds = s.timed(codec.decode, blob)
            samples[f"load_{kind}_s"].append(seconds)

        module, name = SINGLE_ROW[kind]
        predict_row = getattr(module, name)
        model = models.decoded[kind]
        values = np.empty(rows)
        s.prepare()
        for j, i in enumerate(picked):
            values[j], seconds = s.timed(predict_row, model, inputs.probe[i])
            samples[f"row_{kind}_s"].append(seconds)
        s.check(
            bool(np.all(np.isfinite(values)))
            and np.allclose(values, models.probe_predictions[kind][picked], rtol=1e-9, atol=0.0),
            f"single-row {kind} predictions are finite and match the batch path",
        )


def serve_round(s: Counters, wl: Workload, inputs: Inputs, out: Path, models: Models) -> None:
    """The traced run's serving work: about 20k rows of CLI predict per kind."""
    predicts = max(1, round(ROWS_PER_ROUND / inputs.probe.shape[0]))
    serve(s, inputs, out, models, defaultdict(list), predicts, LOADS_PER_ROUND, wl.row_calls)


# ---------------------------------------------------------------------------
# Untraced run: the end-to-end metrics
# ---------------------------------------------------------------------------


def measure(s: Counters, wl: Workload, seed: int, seconds: float, work: Path) -> tuple[dict, dict]:
    """Set up, then repeat the workload for ``seconds``; the end-to-end metrics.

    On a shared 2-core box the same work was measured to run up to 2x slower
    during phases of a fraction of a second to minutes, caused by other
    tenants; the fastest samples outside those phases agreed within a few
    percent. So every end-to-end timing except setup_s reports its best
    sample (fastest time, highest rate), with the median printed beside it,
    and every kind of operation is sampled in small slices spread over the
    whole run rather than in a few bursts, so that a slow phase covers only
    some of its samples. A slice of serving work (and, every ``train_every``
    slices, one more CLI train) runs after each pipeline command; once no
    further pipeline fits before the deadline, slices fill the rest of the
    run. On a serve-only workload the pipelines run in set-up, and an equal
    share of the ``seconds`` of slices follows each set-up repetition.
    """
    samples: dict[str, list[float]] = defaultdict(list)
    setup_s, models, slices = [], None, 0
    train_dir = work / "train"
    train_dir.mkdir(parents=True)

    def record(pipeline: dict) -> None:
        for key in ("pipeline_s", "train_s", "squash_s"):
            samples[key].append(pipeline[key])

    def serve_slice() -> None:
        nonlocal slices
        gc.collect()
        serve(s, inputs, out, models, samples, wl.slice_predicts, LOADS_PER_SLICE,
              wl.slice_rows, slices * wl.slice_rows)
        if slices % wl.train_every == 0:
            train_file = model_path(train_dir, "forest")
            _, train_s = s.cli(*train_argv(wl, seed, inputs, train_file))
            samples["train_s"].append(train_s)
            s.check(
                train_file.read_bytes() == models.blobs["forest"],
                "forest file identical across repetitions of train",
            )
        slices += 1

    for rep in range(wl.setup_reps):
        gc.collect()
        out = work / f"setup{rep}"
        s.prepare()
        t0 = time.perf_counter()
        inputs = make_inputs(wl, seed, out)
        if wl.serve_only:
            pipeline = run_pipeline(s, wl, seed, inputs, out)
        setup_s.append(time.perf_counter() - t0)
        if wl.serve_only:
            record(pipeline)
            if models is None:
                models = check_models(s, pipeline, inputs, out)
            else:
                check_same_files(s, models, out, "identical across set-up repetitions")
            window_end = time.perf_counter() + seconds / wl.setup_reps
            while time.perf_counter() < window_end:
                serve_slice()

    pipelines, longest = 0, 0.0
    deadline = time.perf_counter() + seconds
    while not wl.serve_only:
        left = deadline - time.perf_counter()
        if pipelines < MIN_PIPELINES or left > longest:
            gc.collect()
            t0 = time.perf_counter()
            pipeline = run_pipeline(
                s, wl, seed, inputs, out, serve_slice if models is not None else None
            )
            if models is None:
                models = check_models(s, pipeline, inputs, out)
            else:
                check_same_files(s, models, out, "identical across repetitions")
            longest = max(longest, time.perf_counter() - t0)
            record(pipeline)
            pipelines += 1
        elif left > 0:
            serve_slice()
        else:
            break

    def scaled(key: str, scale: float) -> list[float]:
        return [v * scale for v in samples[key]]

    # name: (samples, unit, estimator)
    timings = {
        "setup_s": (setup_s, "s", statistics.median),
        "pipeline_s": (samples["pipeline_s"], "s", min),
        "train_s": (samples["train_s"], "s", min),
        "squash_s": (samples["squash_s"], "s", min),
    }
    for kind in KINDS:
        timings[f"predict_{kind}_rows_per_s"] = (samples[f"predict_{kind}_rows_per_s"], "rows/s", max)
    for kind in KINDS:
        timings[f"load_{kind}_ms"] = (scaled(f"load_{kind}_s", 1e3), "ms", min)
    for kind in KINDS:
        timings[f"row_{kind}_min_us"] = (scaled(f"row_{kind}_s", 1e6), "us", min)
    print_timings(timings)

    metrics = {name: (estimator(v), unit) for name, (v, unit, estimator) in timings.items()}
    q = models.quality
    for name in ("forest_rmse", "surrogate_rmse"):
        metrics[name] = (q[name], "y_units")
    for name in ("forest_bytes", "surrogate_bytes"):
        metrics[name] = (q[name], "bytes")
    metrics["routing_fidelity"] = (q["routing_fidelity"], "share")
    details = {
        "timed pipelines": f"{wl.setup_reps} (in set-up)" if wl.serve_only else pipelines,
        "serving slices": slices,
        "unconverged_share (a per-layer metric; from the squash report)": q["unconverged_share"],
    }
    return metrics, details


# ---------------------------------------------------------------------------
# Traced run: the per-layer metrics
# ---------------------------------------------------------------------------


def _kind(model) -> str:
    return "forest" if isinstance(model, forest.Forest) else "surrogate"


def _fit_facts(args: tuple, result: mlr.MlrFitResult) -> dict[str, Any]:
    features, labels, n_categories = args[:3]
    counts = np.bincount(np.asarray(labels, dtype=np.int64), minlength=n_categories)
    active = int(np.count_nonzero(counts[: n_categories - 1]))
    return {
        "K": int(n_categories),
        "params": active * (np.shape(features)[1] + 1),
        "optimizer": result.optimizer_used,
        "iterations": int(result.iterations),
        "grad_max_norm": float(result.grad_max_norm),
        "converged": bool(result.converged),
    }


def install_spans(tracer: Tracer) -> None:
    """Wrap each layer's public functions where the layer above looks them up."""
    tracer.wrap(cli, "load_csv", "data.load_csv", lambda a, r: {"rows": r.n_rows})
    tracer.wrap(cli, "read_numeric_csv", "data.read_numeric_csv", lambda a, r: {"rows": len(r[1])})
    tracer.wrap(data.Dataset, "fingerprint", "data.fingerprint")
    tracer.wrap(
        cli, "fit_forest", "forest.fit_forest",
        lambda a, r: {"leaves": sum(t.n_leaves for t in r.trees)},
    )
    tracer.wrap(cli, "forest_predict_batch", "forest.predict_batch")
    tracer.wrap(forest, "forest_predict", "forest.predict_row")
    tracer.wrap(cli, "squash_forest", "surrogate.squash_forest")
    tracer.wrap(surrogate, "fit_surrogate", "surrogate.fit_surrogate")
    tracer.wrap(surrogate, "extract_leaf_dataset", "surrogate.extract_leaf_dataset")
    tracer.wrap(surrogate, "fit_mlr", "mlr.fit_mlr", _fit_facts)
    tracer.wrap(cli, "surrogate_forest_predict_batch", "surrogate.predict_batch")
    tracer.wrap(surrogate, "surrogate_forest_predict", "surrogate.predict_row")
    tracer.wrap(codec, "encode", "codec.encode", lambda a, r: {"kind": _kind(a[0]), "bytes": len(r)})
    tracer.wrap(codec, "decode", "codec.decode", lambda a, r: {"kind": _kind(r), "bytes": len(a[0])})
    tracer.wrap(codec, "measure_size", "codec.measure_size")


def _summary(values: list[float]) -> dict[str, float]:
    return {"min": min(values), "median": statistics.median(values), "max": max(values)}


def fit_diagnostics(tracer: Tracer) -> dict[str, Any]:
    """Per-tree surrogate fit records, in tree order, with their summaries.

    fit_surrogate runs once per tree, in order; single-leaf trees call no fit_mlr.
    """
    spans = tracer.spans
    tree_of = {
        index: tree
        for tree, index in enumerate(
            i for i, sp in enumerate(spans) if sp.name == "surrogate.fit_surrogate"
        )
    }
    fits = [
        {"tree": tree_of[sp.parent], **sp.info, "seconds": sp.duration}
        for sp in spans
        if sp.name == "mlr.fit_mlr"
    ]
    summary = {
        key: _summary([f[key] for f in fits])
        for key in ("K", "params", "iterations", "grad_max_norm", "seconds")
    } if fits else {}
    return {
        "trees": fits,
        "summary": summary,
        "unconverged_trees": [f["tree"] for f in fits if not f["converged"]],
    }


def per_command(s: Counters, tracer: Tracer) -> list[dict[str, Any]]:
    """Self time of each layer inside each CLI command; they sum to its wall time."""
    own = tracer.self_times()
    rows = {}
    for i, span in enumerate(tracer.spans):
        root = tracer.root_of(i)
        if tracer.spans[root].layer != "cli":
            continue
        row = rows.setdefault(root, {"command": tracer.spans[root].name,
                                     "wall_s": tracer.spans[root].duration,
                                     **{layer: 0.0 for layer in LAYERS}})
        row[span.layer] += own[i]
    for row in rows.values():
        total = sum(row[layer] for layer in LAYERS)
        s.check(
            math.isclose(total, row["wall_s"], rel_tol=1e-9, abs_tol=1e-9),
            f"{row['command']}: layer self times {total} sum to wall time {row['wall_s']}",
        )
    return list(rows.values())


def layer_metrics(tracer: Tracer, fits: dict, quality: dict, overhead_s: float) -> dict:
    spans, own = tracer.spans, tracer.self_times()

    def total(name: str, kind: str | None = None) -> float:
        return sum(
            sp.duration for sp in spans
            if sp.name == name and (kind is None or sp.info.get("kind") == kind)
        )

    def row_us(name: str, q: float) -> float:
        return float(np.percentile([sp.duration for sp in spans if sp.name == name], q)) * 1e6

    trees = fits["trees"]
    seconds = [f["seconds"] for f in trees]
    m: dict[str, tuple[float, str]] = {
        "mlr.fit_s": (sum(seconds), "s"),
        "mlr.fit_s.p50": (statistics.median(seconds), "s"),
        "mlr.fit_s.max": (max(seconds), "s"),
        "mlr.fits": (len(trees), "count"),
        "mlr.fits_newton": (sum(f["optimizer"] == "newton" for f in trees), "count"),
        "mlr.fits_first_order": (sum(f["optimizer"] == "first_order" for f in trees), "count"),
        "mlr.iterations": (sum(f["iterations"] for f in trees), "count"),
        "mlr.iterations_max": (max(f["iterations"] for f in trees), "count"),
        "mlr.unconverged": (len(fits["unconverged_trees"]), "count"),
        "mlr.grad_max_norm_max": (max(f["grad_max_norm"] for f in trees), "norm"),
        "mlr.params": (sum(f["params"] for f in trees), "count"),
        "unconverged_share": (quality["unconverged_share"], "share"),
        "surrogate.extract_s": (total("surrogate.extract_leaf_dataset"), "s"),
        "surrogate.squash_self_s": (
            sum(o for sp, o in zip(spans, own) if sp.name == "surrogate.squash_forest"), "s"
        ),
        "surrogate.predict_batch_s": (total("surrogate.predict_batch"), "s"),
        "surrogate.predict_row_us.p50": (row_us("surrogate.predict_row", 50), "us"),
        "surrogate.predict_row_us.p99": (row_us("surrogate.predict_row", 99), "us"),
        "forest.fit_s": (total("forest.fit_forest"), "s"),
        "forest.leaves": (sum(sp.info["leaves"] for sp in spans if sp.name == "forest.fit_forest"), "count"),
        "forest.predict_batch_s": (total("forest.predict_batch"), "s"),
        "forest.predict_row_us.p50": (row_us("forest.predict_row", 50), "us"),
        "forest.predict_row_us.p99": (row_us("forest.predict_row", 99), "us"),
    }
    for kind in KINDS:
        m[f"codec.encode_s.{kind}"] = (total("codec.encode", kind), "s")
        m[f"codec.decode_s.{kind}"] = (total("codec.decode", kind), "s")
        m[f"codec.bytes.{kind}"] = (quality[f"{kind}_bytes"], "bytes")
    csv_reads = [sp for sp in spans if sp.name in ("data.load_csv", "data.read_numeric_csv")]
    m["data.read_csv_s"] = (sum(sp.duration for sp in csv_reads), "s")
    m["data.read_csv_rows"] = (sum(sp.info["rows"] for sp in csv_reads), "count")
    m["data.fingerprint_s"] = (total("data.fingerprint"), "s")
    for command in ("train", "squash", "evaluate", "predict"):
        name = f"cli.{command}"
        m[f"{name}.wall_s"] = (total(name), "s")
        m[f"{name}.self_s"] = (sum(o for sp, o in zip(spans, own) if sp.name == name), "s")
    for layer in LAYERS:
        m[f"layer.{layer}.self_s"] = (sum(o for sp, o in zip(spans, own) if sp.layer == layer), "s")
    m["trace.overhead_s"] = (overhead_s, "s")
    m["trace.spans"] = (len(spans), "count")
    return m


def traced(s: Counters, wl: Workload, seed: int, work: Path) -> tuple[dict, dict]:
    """The same round untraced, traced, then untraced again; per-layer metrics
    of the traced one. The first round warms the process up, so the tracing
    overhead is measured against the last."""
    inputs = make_inputs(wl, seed, work / "inputs")
    plain_dir, traced_dir = work / "plain", work / "traced"
    models = check_models(s, run_pipeline(s, wl, seed, inputs, plain_dir), inputs, plain_dir)
    serve_round(s, wl, inputs, plain_dir, models)

    gc.collect()
    with Tracer() as tracer:
        install_spans(tracer)
        s.tracer = tracer
        try:
            pipeline = run_pipeline(s, wl, seed, inputs, traced_dir)
            serve_round(s, wl, inputs, traced_dir, models)
        finally:
            s.tracer = None
    check_same_files(s, models, traced_dir, "traced run writes the untraced run's bytes")
    plain = run_pipeline(s, wl, seed, inputs, plain_dir)
    check_same_files(s, models, plain_dir, "identical across repetitions")

    fits = fit_diagnostics(tracer)
    quality = {**models.quality, "unconverged_share": unconverged_share(pipeline)}
    metrics = layer_metrics(tracer, fits, quality, pipeline["pipeline_s"] - plain["pipeline_s"])
    commands = per_command(s, tracer)
    squash_wall = sum(c["wall_s"] for c in commands if c["command"] == "cli.squash")
    details = {
        "untraced pipeline_s": plain["pipeline_s"],
        "traced pipeline_s": pipeline["pipeline_s"],
        "mlr.fit_s share of squash_s": metrics["mlr.fit_s"][0] / squash_wall,
    }
    trace_file = OUT_DIR / f"trace_{wl.name}_seed{seed}.json"
    trace_file.write_text(
        json.dumps(
            {
                "workload": wl.name,
                "seed": seed,
                "per_command": commands,
                "fits": fits,
                "spans": tracer.to_json(),
            }
        )
    )
    print_commands(commands)
    print_fits(fits)
    details["spans written to"] = str(trace_file.relative_to(ROOT))
    return metrics, details


# ---------------------------------------------------------------------------
# Output
# ---------------------------------------------------------------------------


def _blas_threads() -> int | None:
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs", "*openblas*"))
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(handle, symbol):
                getter = getattr(handle, symbol)
                getter.restype = ctypes.c_int
                return int(getter())
    return None


def _blas_version() -> str:
    try:
        return np.show_config(mode="dicts")["Build Dependencies"]["blas"]["version"]
    except (KeyError, TypeError):
        return "unknown"


def _git_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def environment(seed: int, smoke: bool, malloc_pinned: bool) -> dict[str, Any]:
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "openblas": _blas_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "RFSQ_THREADS": os.environ.get("RFSQ_THREADS"),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "blas_threads": _blas_threads(),
        "malloc_thresholds_pinned": malloc_pinned,
        "rfsquash": rfsquash.__version__,
        "git_commit": _git_commit(),
        "workload_seed": seed,
        "smoke": smoke,
    }


def print_timings(timings: dict[str, tuple[list[float], str, Callable]]) -> None:
    """Sample count, median and the slowest percentile with ten samples beyond it."""
    print("timing samples (the metric below is the best sample, except setup_s)")
    for name, (values, unit, estimator) in timings.items():
        line = f"  {name:<30} n={len(values):<6} median {statistics.median(values):.6g} {unit}"
        tail = 99 if len(values) >= 1000 else 90 if len(values) >= 100 else None
        if tail:
            slow = tail if estimator is not max else 100 - tail
            line += f", p{slow} {np.percentile(values, slow):.6g} {unit}"
        print(line)


def print_commands(commands: list[dict[str, Any]]) -> None:
    print("layer self time per CLI command (s); the layers sum to the wall time")
    print(f"  {'command':<14}{'wall':>9}" + "".join(f"{layer:>11}" for layer in LAYERS))
    for c in commands:
        print(
            f"  {c['command']:<14}{c['wall_s']:9.4f}"
            + "".join(f"{c[layer]:11.4f}" for layer in LAYERS)
        )


def print_fits(fits: dict[str, Any]) -> None:
    print("surrogate fits, one per tree (from the MlrFitResult fit_mlr returns)")
    print(f"  {'tree':>4} {'K':>4} {'params':>7} {'optimizer':>11} {'iter':>5} "
          f"{'grad_max_norm':>14} {'converged':>9} {'seconds':>8}")
    for f in fits["trees"]:
        print(
            f"  {f['tree']:4d} {f['K']:4d} {f['params']:7d} {f['optimizer']:>11} "
            f"{f['iterations']:5d} {f['grad_max_norm']:14.3e} {str(f['converged']):>9} "
            f"{f['seconds']:8.4f}"
        )
    for key, summary in fits["summary"].items():
        print(f"  {key}: min {summary['min']:.6g}, median {summary['median']:.6g}, "
              f"max {summary['max']:.6g}")
    print(f"  unconverged trees: {fits['unconverged_trees']}")


def emit_result(s: Counters, metrics: dict[str, tuple[float, str]], stream=None) -> int:
    """Print the checks and the one-line JSON result; returns the exit code."""
    stream = stream or sys.stdout
    for failure in s.check_failures:
        print(f"CHECK FAILED: {failure}", file=sys.stderr)
    print(f"checks: {s.checks_passed} passed, {len(s.check_failures)} failed", file=stream)
    correct = s.failed == 0 and not s.check_failures
    result = {
        "correct": correct,
        "attempted": s.attempted,
        "failed": s.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result), file=stream, flush=True)
    return 0 if correct else 1


def run(
    workload: str, seed: int, seconds: float, trace: bool, smoke: bool, malloc_pinned: bool
) -> int:
    wl = WORKLOADS[workload]
    if smoke:
        wl = smoke_variant(wl)
    print(f"rfsquash benchmark: workload {wl.name}, seed {seed}, trace {int(trace)}")
    print("environment: " + json.dumps(environment(seed, smoke, malloc_pinned)))
    print("workload: " + json.dumps(dataclasses.asdict(wl)))
    s = Counters()
    picker = CpuPicker()
    s.prepare = picker
    OUT_DIR.mkdir(exist_ok=True)
    work = OUT_DIR / f"work-{wl.name}-{seed}-{os.getpid()}"
    metrics: dict[str, tuple[float, str]] = {}
    try:
        if trace:
            metrics, details = traced(s, wl, seed, work)
        else:
            metrics, details = measure(s, wl, seed, seconds, work)
    except OperationFailed as exc:
        print(f"operation failed: {exc}", file=sys.stderr)
        metrics, details = {}, {}
    finally:
        picker.release()
        shutil.rmtree(work, ignore_errors=True)
    details["CPU picks (cpu: times chosen as least contended)"] = picker.picks
    for key, value in details.items():
        print(f"{key}: {value}")
    width = max((len(name) for name in metrics), default=0)
    for name, (value, unit) in metrics.items():
        print(f"  {name:<{width}}  {value:>16.6f}  {unit}")
    print(f"operations: {s.attempted} attempted, {s.failed} failed")
    return emit_result(s, metrics)
