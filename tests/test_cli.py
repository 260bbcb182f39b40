"""End-to-end tests of the command-line surface, invoked in-process."""

import hashlib
import json
import os
import struct
import subprocess
import sys
import zlib
from pathlib import Path

import numpy as np
import pytest

from rfsquash import cli
from rfsquash.codec import decode, encode, measure_size
from rfsquash.data import Dataset, gen_axis_partition, gen_friedman1, split, write_csv
from rfsquash.errors import CodecError
from rfsquash.forest import (
    DecisionTree,
    Forest,
    ForestConfig,
    fit_forest,
    forest_predict_batch,
)
from rfsquash.mlr import MlrFitConfig, MlrModel
from rfsquash.surrogate import (
    SurrogateForest,
    TreeSurrogate,
    squash_forest,
    surrogate_forest_predict_batch,
)

AXIS_SPEC = "axis:n=400,thresholds=0:0.5,values=2;4"
ROOT = Path(__file__).resolve().parent.parent


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 0, err
    return json.loads(out)


def strip_timing(report: dict) -> dict:
    """Drop the wall-clock section, the only run-dependent report content."""
    cleaned = {k: v for k, v in report.items() if k != "timing"}
    return cleaned


def _stump_models():
    """A one-feature stump forest (threshold 0.375, leaf values 1.25 and 2.5)
    and a surrogate forest with the same leaf values."""
    config = ForestConfig(subsample_size=2, features_per_split=1, max_depth=1, n_trees=1)
    tree = DecisionTree(
        split_features=np.array([0], dtype=np.int32),
        split_thresholds=np.array([0.375]),
        children_left=np.array([1], dtype=np.int32),
        children_right=np.array([2], dtype=np.int32),
        leaf_values=np.array([1.25, 2.5]),
        leaf_counts=np.array([1, 1], dtype=np.int32),
    )
    forest = Forest(
        trees=(tree,), config=config, dataset_rows=2, dataset_fingerprint=0, n_features=1
    )
    surrogate = TreeSurrogate(
        model=MlrModel(np.array([3.0]), np.array([[-8.0]])),
        leaf_values=np.array([1.25, 2.5]),
    )
    sf = SurrogateForest(
        surrogates=(surrogate,), config=config, prediction_mode="expectation",
        n_features=1,
    )
    return forest, sf


def _resealed(blob: bytes, old: float, new: float) -> bytes:
    """The f64 file with its one field holding ``old`` set to ``new`` and the
    payload CRC-32 resealed, so that only the model's own checks can object."""
    at = blob.index(struct.pack("<d", old), 16)
    assert blob.find(struct.pack("<d", old), at + 1) < 0
    out = bytearray(blob)
    out[at : at + 8] = struct.pack("<d", new)
    out[-4:] = struct.pack("<I", zlib.crc32(bytes(out[16:-4])))
    return bytes(out)


class TestTrain:
    def test_noiseless_axis_training_rmse_zero(self, capsys, tmp_path):
        out = tmp_path / "f.rfsq"
        report = run_json(
            capsys, "train", AXIS_SPEC, "--d", "1", "--m", "1", "--out", str(out),
            "--seed", "3",
        )
        assert report["metrics"]["rmse"] == 0.0
        assert out.exists()
        assert report["metrics"]["model_bytes"] == out.stat().st_size

    def test_reruns_are_byte_identical(self, capsys, tmp_path):
        a, b = tmp_path / "a.rfsq", tmp_path / "b.rfsq"
        ra = run_json(capsys, "train", "friedman1:n=200,noise=1", "--d", "3",
                      "--m", "4", "--out", str(a), "--seed", "11")
        rb = run_json(capsys, "train", "friedman1:n=200,noise=1", "--d", "3",
                      "--m", "4", "--out", str(b), "--seed", "11")
        assert a.read_bytes() == b.read_bytes()
        ra["out"] = rb["out"] = ""
        assert strip_timing(ra) == strip_timing(rb)

    def test_missing_response_column_exits_2(self, capsys, tmp_path):
        csv = tmp_path / "d.csv"
        csv.write_text("a,b\n1,2\n3,4\n")
        out = tmp_path / "f.rfsq"
        code, _, err = run_cli(
            capsys, "train", str(csv), "--response", "target", "--out", str(out)
        )
        assert code == 2
        assert "target" in err

    def test_unknown_flag_exits_1(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "train", AXIS_SPEC, "--bogus", "1")
        assert code == 1

    def test_bad_generator_spec_exits_1(self, capsys, tmp_path):
        out = tmp_path / "f.rfsq"
        code, _, err = run_cli(capsys, "train", "friedman1:rows=10", "--out", str(out))
        assert code == 1
        assert "friedman1" in err

    def test_bad_generator_parameter_exits_1(self, capsys, tmp_path):
        out = tmp_path / "f.rfsq"
        code, _, err = run_cli(capsys, "train", "friedman1:n=0", "--out", str(out))
        assert code == 1
        code, _, err = run_cli(
            capsys, "train", "friedman1:n=10,noise=-1", "--out", str(out)
        )
        assert code == 1

    def test_invalid_flag_value_exits_1(self, capsys, tmp_path):
        out = tmp_path / "f.rfsq"
        code, _, err = run_cli(capsys, "train", AXIS_SPEC, "--d", "-1", "--out", str(out))
        assert code == 1
        assert "max_depth" in err
        code, _, err = run_cli(
            capsys, "train", AXIS_SPEC, "--n", "100000", "--out", str(out)
        )
        assert code == 1
        assert "subsample_size" in err

    def test_min_leaf_past_the_subsample_exits_1(self, capsys, tmp_path):
        out = tmp_path / "f.rfsq"
        code, _, err = run_cli(
            capsys, "train", AXIS_SPEC, "--n", "10", "--min-leaf", "11", "--out", str(out)
        )
        assert code == 1
        assert "min_leaf 11 exceeds subsample_size 10" in err
        assert not out.exists()

    def test_csv_input(self, capsys, tmp_path):
        ds = gen_friedman1(120, 1.0, seed=4)
        csv = tmp_path / "train.csv"
        write_csv(ds, csv)
        out = tmp_path / "f.rfsq"
        report = run_json(capsys, "train", str(csv), "--d", "2", "--m", "3",
                          "--out", str(out), "--seed", "1")
        assert report["dataset"]["source"] == "csv"
        forest = decode(out.read_bytes())
        assert forest.n_trees == 3


class TestSquash:
    def _train(self, capsys, tmp_path, spec=AXIS_SPEC, d="0", m="4", seed="5"):
        forest_path = tmp_path / "f.rfsq"
        run_json(capsys, "train", spec, "--d", d, "--m", m, "--out",
                 str(forest_path), "--seed", seed)
        return forest_path

    def test_stump_forest_squash_is_lossless(self, capsys, tmp_path):
        forest_path = self._train(capsys, tmp_path, d="0")
        surrogate_path = tmp_path / "s.rfsq"
        report = run_json(capsys, "squash", str(forest_path), AXIS_SPEC,
                          "--out", str(surrogate_path))
        assert 0 < report["compression_ratio"] < 1  # stumps always shrink
        forest = decode(forest_path.read_bytes())
        sf = decode(surrogate_path.read_bytes())
        probes = gen_axis_partition(200, [(0, 0.5)], [2.0, 4.0], seed=42).features
        np.testing.assert_array_equal(
            forest_predict_batch(forest, probes),
            surrogate_forest_predict_batch(sf, probes),
        )

    def test_ratio_matches_recomputation(self, capsys, tmp_path):
        forest_path = self._train(capsys, tmp_path, d="2", m="3")
        surrogate_path = tmp_path / "s.rfsq"
        report = run_json(capsys, "squash", str(forest_path), AXIS_SPEC,
                          "--out", str(surrogate_path))
        forest = decode(forest_path.read_bytes())
        sf = decode(surrogate_path.read_bytes())
        expected = measure_size(sf, "f64") / measure_size(forest, "f64")
        assert report["compression_ratio"] == pytest.approx(expected, rel=1e-12)
        assert report["bytes_before"] == measure_size(forest, "f64")
        assert report["bytes_after"] == measure_size(sf, "f64")

    def test_mode_flag_changes_only_mode_bytes(self, capsys, tmp_path):
        forest_path = self._train(capsys, tmp_path, d="1", m="2")
        arg_path, exp_path = tmp_path / "a.rfsq", tmp_path / "e.rfsq"
        run_json(capsys, "squash", str(forest_path), AXIS_SPEC, "--mode", "argmax",
                 "--out", str(arg_path))
        run_json(capsys, "squash", str(forest_path), AXIS_SPEC, "--mode",
                 "expectation", "--out", str(exp_path))
        a, e = arg_path.read_bytes(), exp_path.read_bytes()
        assert len(a) == len(e)
        body_diffs = [
            i for i, (x, y) in enumerate(zip(a[:-4], e[:-4])) if x != y
        ]
        assert len(body_diffs) == 2  # one mode byte per tree
        assert decode(a).prediction_mode == "argmax"
        assert decode(e).prediction_mode == "expectation"

    def test_default_flags_converge(self, capsys, tmp_path):
        spec = "friedman1:n=600,noise=1.0"
        forest_path = self._train(capsys, tmp_path, spec=spec, d="4", m="2")
        code, out, err = run_cli(capsys, "squash", str(forest_path), spec,
                                 "--out", str(tmp_path / "s.rfsq"))
        assert (code, err) == (0, "")
        report = json.loads(out)
        assert report["fit"] == {
            "lambda": 1e-3, "max_iter": 100, "tol": 1e-4, "mode": "expectation"
        }
        assert report["surrogates_converged"] == report["surrogates_total"] == 2
        assert 0 < report["newton_steps"] <= report["cg_steps"]

    def test_unconverged_fits_are_named_on_stderr(self, capsys, tmp_path):
        spec = "friedman1:n=400,noise=1.0"
        forest_path = self._train(capsys, tmp_path, spec=spec, d="3", m="3")
        code, out, err = run_cli(capsys, "squash", str(forest_path), spec,
                                 "--max-iter", "1", "--out", str(tmp_path / "s.rfsq"))
        assert code == 0
        assert err == (
            "warning: 3 of 3 surrogate fits did not converge (trees 0, 1, 2); "
            "raise --max-iter or --lambda\n"
        )
        assert json.loads(out)["surrogates_converged"] == 0

    def test_wrong_training_data_exits_2(self, capsys, tmp_path):
        forest_path = self._train(capsys, tmp_path)
        out = tmp_path / "s.rfsq"
        code, _, err = run_cli(
            capsys, "squash", str(forest_path),
            "axis:n=400,thresholds=0:0.5,values=2;5", "--out", str(out),
        )
        assert code == 2
        assert "fingerprint" in err

    @pytest.mark.parametrize("scale", [1e155, 1e-160])
    def test_features_past_the_standardization_range_exit_3(self, capsys, tmp_path, scale):
        # 1e155 overflows x1's spread and 1e-160 the penalty's T'T; the one
        # line on stderr holds no numpy RuntimeWarning
        ds = gen_friedman1(200, 1.0, seed=4)
        features = ds.features.copy()
        features[:, 0] *= scale
        csv = tmp_path / "train.csv"
        write_csv(Dataset(ds.responses, features), csv)
        forest_path = tmp_path / "f.rfsq"
        run_json(capsys, "train", str(csv), "--d", "2", "--m", "2", "--out", str(forest_path))
        code, out, err = run_cli(
            capsys, "squash", str(forest_path), str(csv), "--out", str(tmp_path / "s.rfsq")
        )
        assert code == 3
        assert out == ""
        assert err.splitlines() == [
            "numeric error: features too large or too narrowly spread to standardize"
        ]

    def test_surrogate_file_rejected_as_input(self, capsys, tmp_path):
        forest_path = self._train(capsys, tmp_path)
        s1 = tmp_path / "s1.rfsq"
        run_json(capsys, "squash", str(forest_path), AXIS_SPEC, "--out", str(s1))
        code, _, err = run_cli(
            capsys, "squash", str(s1), AXIS_SPEC, "--out", str(tmp_path / "s2.rfsq")
        )
        assert code == 2


class TestEvaluateAndPredict:
    def test_perfect_model_rmse_zero(self, capsys, tmp_path):
        forest_path = tmp_path / "f.rfsq"
        run_json(capsys, "train", AXIS_SPEC, "--d", "1", "--m", "1",
                 "--out", str(forest_path), "--seed", "7")
        test_csv = tmp_path / "test.csv"
        write_csv(gen_axis_partition(100, [(0, 0.5)], [2.0, 4.0], seed=3), test_csv)
        report = run_json(capsys, "evaluate", str(forest_path), str(test_csv))
        assert report["metrics"]["rmse"] == 0.0
        assert report["metrics"]["mae"] == 0.0

    def test_constant_model_hand_arithmetic(self, capsys, tmp_path):
        # A depth-0 forest on responses {1,3} predicts 2 everywhere, so on a
        # test set with responses {1,3} the rmse is exactly 1.
        train_csv = tmp_path / "train.csv"
        train_csv.write_text("x1,y\n0.1,1\n0.2,3\n0.3,1\n0.4,3\n")
        forest_path = tmp_path / "f.rfsq"
        run_json(capsys, "train", str(train_csv), "--d", "0", "--m", "1",
                 "--out", str(forest_path))
        report = run_json(capsys, "evaluate", str(forest_path), str(train_csv))
        assert report["metrics"]["rmse"] == pytest.approx(1.0, abs=1e-15)
        assert report["metrics"]["mae"] == pytest.approx(1.0, abs=1e-15)

    def test_rmse_matches_two_pass_recomputation(self, capsys, tmp_path):
        forest_path = tmp_path / "f.rfsq"
        run_json(capsys, "train", "friedman1:n=150,noise=1", "--d", "3", "--m", "3",
                 "--out", str(forest_path), "--seed", "2")
        test_csv = tmp_path / "test.csv"
        test_ds = gen_friedman1(80, 1.0, seed=55)
        write_csv(test_ds, test_csv)
        report = run_json(capsys, "evaluate", str(forest_path), str(test_csv))
        forest = decode(forest_path.read_bytes())
        predictions = forest_predict_batch(forest, test_ds.features)
        total = 0.0
        for prediction, actual in zip(predictions, test_ds.responses):
            total += (prediction - actual) ** 2
        expected = float(np.sqrt(total / len(predictions)))
        assert report["metrics"]["rmse"] == pytest.approx(expected, abs=1e-12)

    def test_dimension_mismatch_exits_2(self, capsys, tmp_path):
        forest_path = tmp_path / "f.rfsq"
        run_json(capsys, "train", "friedman1:n=100,noise=0", "--d", "2", "--m", "2",
                 "--out", str(forest_path))
        bad_csv = tmp_path / "bad.csv"
        bad_csv.write_text("x1,y\n0.5,1\n")
        code, _, err = run_cli(capsys, "evaluate", str(forest_path), str(bad_csv))
        assert code == 2
        assert "features" in err

    def test_predict_on_a_csv_of_the_wrong_width_exits_2(self, capsys, tmp_path):
        forest_path = tmp_path / "f.rfsq"
        run_json(capsys, "train", "friedman1:n=100,noise=0", "--d", "2", "--m", "2",
                 "--out", str(forest_path))
        bad_csv = tmp_path / "bad.csv"
        bad_csv.write_text("x1,x2,y\n0.5,0.5,1\n")
        code, out, err = run_cli(capsys, "predict", str(forest_path), str(bad_csv))
        assert code == 2
        assert out == ""
        assert "model expects 10 features" in err and "provides 2" in err

    def test_predict_matches_library(self, capsys, tmp_path):
        forest_path = tmp_path / "f.rfsq"
        run_json(capsys, "train", "friedman1:n=150,noise=1", "--d", "2", "--m", "3",
                 "--out", str(forest_path), "--seed", "9")
        probe_csv = tmp_path / "probe.csv"
        probe_ds = gen_friedman1(30, 0.0, seed=77)
        write_csv(probe_ds, probe_csv)
        report = run_json(capsys, "predict", str(forest_path), str(probe_csv))
        forest = decode(forest_path.read_bytes())
        np.testing.assert_allclose(
            report["predictions"],
            forest_predict_batch(forest, probe_ds.features),
            atol=0,
        )

    def test_predict_to_file(self, capsys, tmp_path):
        forest_path = tmp_path / "f.rfsq"
        run_json(capsys, "train", AXIS_SPEC, "--d", "1", "--m", "1",
                 "--out", str(forest_path), "--seed", "5")
        probe_csv = tmp_path / "probe.csv"
        write_csv(gen_axis_partition(10, [(0, 0.5)], [2.0, 4.0], seed=1), probe_csv)
        out_csv = tmp_path / "pred.csv"
        code, _, _ = run_cli(capsys, "predict", str(forest_path), str(probe_csv),
                             "--out", str(out_csv))
        assert code == 0
        lines = out_csv.read_text().strip().splitlines()
        assert lines[0] == "prediction"
        assert len(lines) == 11

    def test_overflowing_logit_predicts_its_leaf(self, capsys, tmp_path):
        # A valid file whose linear predictor overflows at x = +-1e10 used to
        # print nan with exit 0; the +inf leaf takes the row.
        surrogate = TreeSurrogate(
            model=MlrModel(np.zeros(1), np.array([[1e300]])),
            leaf_values=np.array([1.0, 2.0]),
        )
        config = ForestConfig(
            subsample_size=1, features_per_split=1, max_depth=1, n_trees=1
        )
        model_path = tmp_path / "s.rfsq"
        model_path.write_bytes(encode(SurrogateForest(
            surrogates=(surrogate,), config=config, prediction_mode="expectation",
            n_features=1,
        )))
        probe_csv = tmp_path / "probe.csv"
        probe_csv.write_text("x1\n1e10\n-1e10\n")
        report = run_json(capsys, "predict", str(model_path), str(probe_csv))
        assert report["predictions"] == [1.0, 2.0]

    @pytest.mark.parametrize("mode", ["argmax", "expectation"])
    def test_nan_logit_exits_3(self, capsys, tmp_path, monkeypatch, mode):
        # The CSV reader admits only finite cells, and whether a row's
        # overflowing products meet as inf - inf depends on the order BLAS
        # adds them in, so the NaN logit comes from a NaN feature handed past
        # the reader.
        surrogate = TreeSurrogate(
            model=MlrModel(np.zeros(1), np.array([[1.0]])),
            leaf_values=np.array([1.0, 2.0]),
        )
        config = ForestConfig(subsample_size=1, features_per_split=1, max_depth=1, n_trees=1)
        model_path = tmp_path / "s.rfsq"
        model_path.write_bytes(encode(SurrogateForest(
            surrogates=(surrogate,), config=config, prediction_mode=mode, n_features=1,
        )))
        probe_csv = tmp_path / "probe.csv"
        probe_csv.write_text("x1\n0.5\n0.5\n")
        monkeypatch.setattr(cli, "_load_features", lambda *args: np.array([[0.5], [np.nan]]))
        code, out, err = run_cli(capsys, "predict", str(model_path), str(probe_csv))
        assert code == 3
        assert out == ""
        assert "NaN" in err

    @pytest.mark.parametrize(
        "kind, old, new",
        [
            ("forest", 2.5, float("nan")),  # a leaf value
            ("forest", 0.375, float("inf")),  # the threshold
            ("surrogate", 2.5, float("nan")),  # a leaf value
        ],
    )
    def test_non_finite_model_value_exits_2(self, capsys, tmp_path, kind, old, new):
        # Such files used to decode, and predict printed nan with exit 0.
        forest, sf = _stump_models()
        model_path = tmp_path / "m.rfsq"
        blob = encode(forest if kind == "forest" else sf, "f64")
        model_path.write_bytes(_resealed(blob, old, new))
        probe_csv = tmp_path / "probe.csv"
        probe_csv.write_text("x1\n0.25\n0.75\n")
        code, out, err = run_cli(capsys, "predict", str(model_path), str(probe_csv))
        assert code == 2
        assert out == ""
        assert "must be finite" in err

    @pytest.mark.parametrize("kind", ["forest", "surrogate"])
    def test_overflowing_sum_of_leaf_values_predicts_finite(self, capsys, tmp_path, kind):
        # Two d=0 trees of leaf value 1.5e308: their sum overflows, and
        # predict used to print Infinity (not JSON) with exit 0.
        config = ForestConfig(subsample_size=2, features_per_split=1, max_depth=0, n_trees=2)
        if kind == "forest":
            leaf = DecisionTree(
                split_features=np.zeros(0, dtype=np.int32),
                split_thresholds=np.zeros(0),
                children_left=np.zeros(0, dtype=np.int32),
                children_right=np.zeros(0, dtype=np.int32),
                leaf_values=np.array([1.5e308]),
                leaf_counts=np.array([2], dtype=np.int32),
            )
            model = Forest(trees=(leaf, leaf), config=config, dataset_rows=2,
                           dataset_fingerprint=0, n_features=1)
        else:
            one = MlrModel(np.zeros(0), np.zeros((0, 1)))
            leaf = TreeSurrogate(model=one, leaf_values=np.array([1.5e308]))
            model = SurrogateForest(surrogates=(leaf, leaf), config=config,
                                    prediction_mode="expectation", n_features=1)
        model_path = tmp_path / "m.rfsq"
        model_path.write_bytes(encode(model, "f64"))
        probe_csv = tmp_path / "probe.csv"
        probe_csv.write_text("x1\n0.25\n0.75\n")
        code, out, err = run_cli(capsys, "predict", str(model_path), str(probe_csv))
        assert code == 0, err
        assert "Infinity" not in out
        assert json.loads(out)["predictions"] == [1.5e308, 1.5e308]

    def test_overflowing_weighted_leaf_values_predict_finite(self, capsys, tmp_path):
        # A zero 2-leaf model gives each leaf of 1.5e308 probability 1/2; the
        # sum of e * v overflowed before the softmax division, and predict
        # printed Infinity with exit 0.
        surrogate = TreeSurrogate(
            model=MlrModel(np.zeros(1), np.zeros((1, 1))),
            leaf_values=np.array([1.5e308, 1.5e308]),
        )
        config = ForestConfig(subsample_size=1, features_per_split=1, max_depth=1, n_trees=1)
        model_path = tmp_path / "s.rfsq"
        model_path.write_bytes(encode(SurrogateForest(
            surrogates=(surrogate,), config=config, prediction_mode="expectation",
            n_features=1,
        )))
        probe_csv = tmp_path / "probe.csv"
        probe_csv.write_text("x1\n0.5\n")
        code, out, err = run_cli(capsys, "predict", str(model_path), str(probe_csv))
        assert code == 0, err
        assert json.loads(out)["predictions"] == [1.5e308]

    @pytest.mark.parametrize(
        "flags, digest",
        [
            (("--out",), "180cf2a91f9a7f32caa53563566c619c8097c5273a55a9c9f7b743e53e809a57"),
            (("--format", "text"), "8e7a9b13482e2cde8662090f54c29466e3f45f16cd4d03f999c66a5238e2cecc"),
            (("--format", "json"), "1622f03d37c9e60bb805de4eacb63763da35c6167beea7e214609294fd5f92d9"),
        ],
    )
    def test_predict_output_bytes_are_pinned(self, capsys, tmp_path, flags, digest):
        """SHA-256 of what predict writes for the pinned forest of
        test_training_bytes_are_pinned (k=10) on 40 Friedman #1 rows, so that
        any drift in the output format fails here."""
        config = ForestConfig(
            subsample_size=600, features_per_split=10, max_depth=8, n_trees=3, min_leaf=8,
            seed=2024,
        )
        model_path = tmp_path / "f.rfsq"
        model_path.write_bytes(encode(fit_forest(gen_friedman1(1000, 1.0, seed=7), config)))
        probe_csv = tmp_path / "probe.csv"
        write_csv(gen_friedman1(40, 0.0, seed=5), probe_csv)
        out_csv = tmp_path / "pred.csv"
        if flags == ("--out",):
            flags = ("--out", str(out_csv))
        code, out, err = run_cli(capsys, "predict", str(model_path), str(probe_csv), *flags)
        assert code == 0, err
        written = out_csv.read_bytes() if out_csv.exists() else out.encode()
        assert hashlib.sha256(written).hexdigest() == digest

    @pytest.mark.parametrize(
        "field, at, value, rule",
        [  # payload offsets of dataset_rows (after the config block and p), k, min_leaf
            ("rows", 33, 60, "subsample_size 100 exceeds dataset rows 60"),
            ("k", 4, 11, "features_per_split 11 exceeds feature count 10"),
            ("min_leaf", 16, 101, "min_leaf 101 exceeds subsample_size 100"),
        ],
    )
    def test_config_past_the_recorded_shape_exits_2(
        self, capsys, tmp_path, field, at, value, rule
    ):
        # Such files used to decode: predict ran on all three, and squash
        # stopped with a usage error on the first and ran on the others.
        ds = gen_friedman1(120, 1.0, seed=4)
        config = ForestConfig(
            subsample_size=100, features_per_split=4, max_depth=2, n_trees=2, min_leaf=2
        )
        blob = bytearray(encode(fit_forest(ds, config), "f64"))
        patch = struct.pack("<I", value)
        if field == "rows":
            # the file records its first 60 rows as its data, and they are
            ds = Dataset(ds.responses[:60], ds.features[:60])
            patch += struct.pack("<Q", ds.fingerprint())  # the fingerprint follows
        blob[16 + at : 16 + at + len(patch)] = patch
        blob[-4:] = struct.pack("<I", zlib.crc32(bytes(blob[16:-4])))
        model_path = tmp_path / "m.rfsq"
        model_path.write_bytes(bytes(blob))
        data_csv = tmp_path / "data.csv"
        write_csv(ds, data_csv)
        for argv in (
            ("predict", str(model_path), str(data_csv)),
            ("squash", str(model_path), str(data_csv), "--out", str(tmp_path / "s.rfsq")),
        ):
            code, out, err = run_cli(capsys, *argv)
            assert (code, out) == (2, ""), argv
            assert err.splitlines() == [f"data error: stored model is invalid: {rule}"]

    def test_leaf_counts_off_the_subsample_exit_2(self, capsys, tmp_path):
        # The stump's counts (1, 1) resealed as (1, 2) under subsample_size
        # 2: such a file used to decode, and predict ran on it.
        forest, _ = _stump_models()
        blob = bytearray(encode(forest, "f64"))
        blob[-8:-4] = struct.pack("<I", 2)  # the last leaf count ends the payload
        blob[-4:] = struct.pack("<I", zlib.crc32(bytes(blob[16:-4])))
        with pytest.raises(CodecError, match="leaf counts sum to 3"):
            decode(bytes(blob))
        model_path = tmp_path / "m.rfsq"
        model_path.write_bytes(bytes(blob))
        data_csv = tmp_path / "data.csv"
        write_csv(Dataset(np.array([1.25, 2.5]), np.array([[0.25], [0.75]])), data_csv)
        for argv in (
            ("predict", str(model_path), str(data_csv)),
            ("squash", str(model_path), str(data_csv), "--out", str(tmp_path / "s.rfsq")),
        ):
            code, out, err = run_cli(capsys, *argv)
            assert (code, out) == (2, ""), argv
            assert "leaf counts sum to 3" in err

    @pytest.mark.parametrize("command", ["predict", "evaluate"])
    def test_csv_that_is_not_utf8_exits_2(self, capsys, tmp_path, command):
        # UnicodeDecodeError is a ValueError, which main reports as a usage
        # error; the reader turns it into a data error naming the byte
        forest, _ = _stump_models()
        model_path = tmp_path / "m.rfsq"
        model_path.write_bytes(encode(forest))
        data = b"x1,y\n0.25,1\n0.75,2\xff\n"
        data_csv = tmp_path / "d.csv"
        data_csv.write_bytes(data)
        code, out, err = run_cli(capsys, command, str(model_path), str(data_csv))
        assert (code, out) == (2, "")
        offset = data.index(b"\xff")
        assert err == f"data error: {data_csv} is not UTF-8: byte 0xff at offset {offset}\n"

    @pytest.mark.parametrize("command", ["predict", "evaluate"])
    @pytest.mark.parametrize("line", [1, 2])
    def test_field_past_the_csv_limit_exits_2(self, capsys, tmp_path, command, line):
        # a 140000-character column name (line 1) or number (line 2)
        forest, _ = _stump_models()
        model_path = tmp_path / "m.rfsq"
        model_path.write_bytes(encode(forest))
        text = {1: "x" * 140000 + ",y\n0.25,1\n", 2: "x1,y\n0." + "0" * 140000 + "5,1\n"}
        data_csv = tmp_path / "d.csv"
        data_csv.write_text(text[line])
        code, out, err = run_cli(capsys, command, str(model_path), str(data_csv))
        assert (code, out) == (2, "")
        assert err.startswith("data error: field larger than field limit")
        assert f"at line {line} of {data_csv}" in err

    def test_missing_model_file_exits_2(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "evaluate", str(tmp_path / "none.rfsq"),
                               str(tmp_path / "none.csv"))
        assert code == 2


class TestFileErrors:
    """Unusable files exit with one line, never a traceback: an input that
    cannot be read is a data error, an --out that cannot be written a usage
    error."""

    def _model(self, tmp_path):
        forest, _ = _stump_models()
        path = tmp_path / "m.rfsq"
        path.write_bytes(encode(forest))
        return path

    @pytest.mark.parametrize("command", ["train", "evaluate"])
    def test_csv_with_only_the_response_exits_2(self, capsys, tmp_path, command):
        csv = tmp_path / "only_y.csv"
        csv.write_text("y\n1\n2\n")
        argv = {
            "train": ("train", str(csv), "--out", str(tmp_path / "f.rfsq")),
            "evaluate": ("evaluate", str(self._model(tmp_path)), str(csv)),
        }[command]
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (2, "")
        assert err == f"data error: {csv} has no feature columns, only 'y'\n"

    def test_csv_with_a_repeated_column_name_exits_2(self, capsys, tmp_path):
        csv = tmp_path / "twice.csv"
        csv.write_text("a,a,y\n1,2,3\n4,5,6\n")
        code, out, err = run_cli(capsys, "train", str(csv), "--out", str(tmp_path / "f.rfsq"))
        assert (code, out) == (2, "")
        assert err == f"data error: duplicate column names in header of {csv}\n"
        assert not (tmp_path / "f.rfsq").exists()

    def test_unknown_prediction_mode_byte_exits_2(self, capsys, tmp_path):
        # the one tree's mode byte is the payload's last; the CRC is resealed
        _, sf = _stump_models()
        blob = bytearray(encode(sf))
        assert blob[-5] == 1  # expectation
        blob[-5] = 2
        blob[-4:] = struct.pack("<I", zlib.crc32(bytes(blob[16:-4])))
        model = tmp_path / "m.rfsq"
        model.write_bytes(bytes(blob))
        probe = tmp_path / "probe.csv"
        probe.write_text("x1\n0.25\n")
        code, out, err = run_cli(capsys, "predict", str(model), str(probe))
        assert (code, out) == (2, "")
        assert err == "data error: unknown prediction-mode code 2\n"

    @pytest.mark.parametrize("command", ["predict", "squash"])
    def test_model_that_is_a_directory_exits_2(self, capsys, tmp_path, command):
        argv = [command, str(tmp_path), AXIS_SPEC]
        if command == "squash":
            argv += ["--out", str(tmp_path / "s.rfsq")]
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (2, "")
        assert err == f"data error: cannot read model file {tmp_path}: Is a directory\n"

    def test_csv_that_is_a_directory_exits_2(self, capsys, tmp_path):
        model = self._model(tmp_path)
        code, out, err = run_cli(capsys, "evaluate", str(model), str(tmp_path))
        assert (code, out) == (2, "")
        assert err == f"data error: cannot read {tmp_path}: Is a directory\n"

    @pytest.mark.parametrize("command", ["train", "bench"])
    def test_out_in_a_missing_directory_exits_1(self, capsys, tmp_path, command):
        out_path = tmp_path / "missing" / "out"
        argv = [command, "friedman1:n=150,noise=1", "--d", "1", "--m", "2",
                "--out", str(out_path)]
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (1, "")
        assert err == f"usage error: cannot write {out_path}: No such file or directory\n"


class TestBench:
    def test_row_count_is_twice_grid(self, capsys, tmp_path):
        code, out, err = run_cli(
            capsys, "bench", "friedman1:n=200,noise=1", "--d", "1,2", "--m", "2",
            "--lambda", "1e-4", "--mode", "expectation,argmax", "--float", "f64",
            "--seed", "1",
        )
        assert code == 0, err
        lines = [json.loads(line) for line in out.strip().splitlines()]
        header, rows = lines[0], lines[1:]
        grid_size = 2 * 1 * 1 * 2 * 1
        assert header["rows"] == 2 * grid_size
        assert len(rows) == 2 * grid_size
        kinds = [r["kind"] for r in rows]
        assert kinds.count("forest") == grid_size
        assert kinds.count("surrogate") == grid_size

    def test_unconverged_fits_are_named_on_stderr(self, capsys):
        code, _, err = run_cli(
            capsys, "bench", "friedman1:n=300,noise=1", "--d", "3", "--m", "2",
            "--mode", "expectation,argmax", "--float", "f64", "--max-iter", "1",
            "--seed", "1",
        )
        assert code == 0
        # one line per squash fit, which both modes share
        assert err == (
            "warning: d=3 m=2 lambda=0.001: 2 of 2 surrogate fits did not "
            "converge (trees 0, 1); raise --max-iter or --lambda\n"
        )

    def test_single_cell_matches_manual_composition(self, capsys, tmp_path):
        # composition oracle: the 1x1 bench must reproduce what the library
        # pipeline computes step by step
        code, out, err = run_cli(
            capsys, "bench", "friedman1:n=300,noise=1", "--d", "2", "--m", "3",
            "--lambda", "1e-4", "--mode", "expectation", "--float", "f64",
            "--test-fraction", "0.25", "--seed", "6",
        )
        assert code == 0, err
        rows = [json.loads(line) for line in out.strip().splitlines()][1:]

        dataset = gen_friedman1(300, 1.0, seed=6)
        parts = split(dataset, 0.25, seed=6)
        config = ForestConfig(
            subsample_size=parts.train.n_rows,
            features_per_split=parts.train.n_features,
            max_depth=2,
            n_trees=3,
            seed=6,
        )
        forest = fit_forest(parts.train, config)
        sf = squash_forest(forest, parts.train, MlrFitConfig(l2_penalty=1e-4))
        forest_rmse = float(np.sqrt(np.mean(
            (forest_predict_batch(forest, parts.test.features) - parts.test.responses) ** 2
        )))
        sf_rmse = float(np.sqrt(np.mean(
            (surrogate_forest_predict_batch(sf, parts.test.features) - parts.test.responses) ** 2
        )))
        by_kind = {r["kind"]: r for r in rows}
        assert by_kind["forest"]["rmse"] == pytest.approx(forest_rmse, abs=1e-12)
        assert by_kind["surrogate"]["rmse"] == pytest.approx(sf_rmse, abs=1e-12)
        assert by_kind["forest"]["bytes"] == measure_size(forest, "f64")
        assert by_kind["surrogate"]["bytes"] == measure_size(sf, "f64")

    def test_f32_cell_scores_the_decoded_f32_models(self, capsys, tmp_path):
        # An f32 cell reports the models its f32 files hold, not the
        # in-memory f64 ones it encoded them from.
        code, out, err = run_cli(
            capsys, "bench", "friedman1:n=300,noise=1", "--d", "2", "--m", "3",
            "--lambda", "1e-4", "--mode", "expectation", "--float", "f32",
            "--test-fraction", "0.25", "--seed", "6",
        )
        assert code == 0, err
        by_kind = {r["kind"]: r for r in map(json.loads, out.strip().splitlines()[1:])}
        parts = split(gen_friedman1(300, 1.0, seed=6), 0.25, seed=6)
        config = ForestConfig(
            subsample_size=parts.train.n_rows, features_per_split=parts.train.n_features,
            max_depth=2, n_trees=3, seed=6,
        )
        forest = fit_forest(parts.train, config)
        sf = squash_forest(forest, parts.train, MlrFitConfig(l2_penalty=1e-4))

        def rmse(model):
            predictions = cli._model_predict_batch(model, parts.test.features)
            return float(np.sqrt(np.mean((predictions - parts.test.responses) ** 2)))

        for kind, model in (("forest", forest), ("surrogate", sf)):
            blob = encode(model, "f32")
            f32_rmse = rmse(decode(blob))
            assert f32_rmse != pytest.approx(rmse(model), abs=1e-12), kind  # f32 shows
            assert by_kind[kind]["rmse"] == pytest.approx(f32_rmse, abs=1e-12), kind
            assert by_kind[kind]["bytes"] == len(blob), kind

    def test_bytes_scale_with_tree_count(self, capsys, tmp_path):
        code, out, err = run_cli(
            capsys, "bench", "friedman1:n=400,noise=1", "--d", "3", "--m", "10,20",
            "--lambda", "1e-4", "--seed", "3",
        )
        assert code == 0, err
        rows = [json.loads(line) for line in out.strip().splitlines()][1:]
        forest_bytes = {
            r["cell"]["m"]: r["bytes"] for r in rows if r["kind"] == "forest"
        }
        ratio = forest_bytes[20] / forest_bytes[10]
        assert 1.6 < ratio < 2.4  # 2x trees, within per-tree variation

    def test_jsonl_output_file(self, capsys, tmp_path):
        out_path = tmp_path / "rows.jsonl"
        code, out, err = run_cli(
            capsys, "bench", "friedman1:n=150,noise=1", "--d", "1", "--m", "2",
            "--out", str(out_path), "--seed", "2",
        )
        assert code == 0, err
        file_rows = [json.loads(line) for line in out_path.read_text().splitlines()]
        stdout_rows = [json.loads(line) for line in out.strip().splitlines()][1:]
        assert [strip_timing(r) for r in file_rows] == [
            strip_timing(r) for r in stdout_rows
        ]

    def test_text_table(self, capsys, tmp_path):
        code, out, err = run_cli(
            capsys, "bench", "friedman1:n=150,noise=1", "--d", "1", "--m", "2",
            "--format", "text", "--seed", "2",
        )
        assert code == 0, err
        lines = out.strip().splitlines()
        assert lines[0].split()[:6] == ["d", "m", "lambda", "mode", "float", "kind"]
        assert len(lines) == 3  # header + forest + surrogate

    def test_failed_cell_is_reported_not_fatal(self, capsys, tmp_path):
        # second lambda is invalid: its cells carry an error, the rest succeed
        code, out, err = run_cli(
            capsys, "bench", "friedman1:n=150,noise=1", "--d", "1", "--m", "2",
            "--lambda", "1e-4,-1", "--seed", "4",
        )
        assert code == 0, err
        rows = [json.loads(line) for line in out.strip().splitlines()][1:]
        assert len(rows) == 4
        good = [r for r in rows if "error" not in r]
        bad = [r for r in rows if "error" in r]
        assert len(good) == 2 and len(bad) == 2
        assert all(r["cell"]["lambda"] == -1 for r in bad)
        assert all("l2_penalty" in r["error"] for r in bad)

    def test_text_table_names_a_failed_cell(self, capsys, tmp_path):
        code, out, err = run_cli(
            capsys, "bench", "friedman1:n=150,noise=1", "--d", "1", "--m", "2",
            "--lambda", "-1", "--format", "text", "--seed", "4",
        )
        assert code == 0, err
        lines = out.strip().splitlines()
        assert len(lines) == 3  # header + forest + surrogate
        for line, kind in zip(lines[1:], ("forest", "surrogate")):
            assert line.split()[:6] == ["1", "2", "-1", "expectation", "f64", kind]
            assert "error: " in line and "l2_penalty" in line

    def test_deterministic_across_runs(self, capsys, tmp_path):
        outputs = []
        for _ in range(3):
            code, out, err = run_cli(
                capsys, "bench", "friedman1:n=250,noise=1", "--d", "2,3", "--m", "3",
                "--lambda", "1e-4", "--seed", "13",
            )
            assert code == 0, err
            rows = [json.loads(line) for line in out.strip().splitlines()]
            outputs.append([strip_timing(r) for r in rows])
        assert outputs[0] == outputs[1] == outputs[2]


def _text_report(report: dict, indent: str = "") -> list[str]:
    """The lines --format text prints for a JSON report: one "key: value"
    line per field, nested sections indented under a "key:" line."""
    lines = []
    for key, value in report.items():
        if isinstance(value, dict):
            lines += [f"{indent}{key}:"] + _text_report(value, indent + "  ")
        else:
            lines.append(f"{indent}{key}: {value}")
    return lines


class TestTextReports:
    @pytest.mark.parametrize("command", ["train", "squash", "evaluate"])
    def test_text_report_holds_the_json_fields(self, capsys, tmp_path, command):
        forest_path, squash_path = tmp_path / "f.rfsq", tmp_path / "s.rfsq"
        test_csv = tmp_path / "test.csv"
        write_csv(gen_friedman1(40, 1.0, seed=9), test_csv)
        spec = "friedman1:n=120,noise=1"
        argv = {
            "train": ["train", spec, "--d", "2", "--m", "2", "--seed", "3",
                      "--out", str(forest_path)],
            "squash": ["squash", str(forest_path), spec, "--out", str(squash_path)],
            "evaluate": ["evaluate", str(squash_path), str(test_csv)],
        }
        for step in ("train", "squash", "evaluate"):
            report = run_json(capsys, *argv[step])
            if step == command:
                break
        code, out, err = run_cli(capsys, *argv[command], "--format", "text")
        assert code == 0, err
        lines = out.splitlines()
        timing = lines.index("timing:")
        assert lines[:timing] == _text_report(strip_timing(report))
        assert [line.split(":")[0] for line in lines[timing + 1 :]] == [
            "  " + key for key in report["timing"]
        ]


class TestUsage:
    def test_no_command_exits_1(self, capsys):
        code, _, _ = run_cli(capsys)
        assert code == 1

    @pytest.mark.parametrize("argv, code", [(["--help"], 0), (["bogus"], 1)])
    def test_python_dash_m_runs_the_cli(self, tmp_path, argv, code):
        path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
        result = subprocess.run(
            [sys.executable, "-m", "rfsquash", *argv],
            cwd=tmp_path,
            env={**os.environ, "PYTHONPATH": path},
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert result.returncode == code, result.stderr
        assert ("usage: rfsquash" in result.stdout) == (code == 0)
        assert ("invalid choice: 'bogus'" in result.stderr) == (code == 1)

    @pytest.mark.parametrize("command", ["squash", "predict", "evaluate"])
    def test_commands_that_draw_nothing_reject_seed(self, capsys, tmp_path, command):
        # squash re-derives from the forest's stored seed; predict and
        # evaluate draw nothing
        out_flag = ["--out", str(tmp_path / "o")] if command == "squash" else []
        code, out, err = run_cli(capsys, command, "f.rfsq", "rows.csv", *out_flag, "--seed", "3")
        assert code == 1
        assert out == ""
        assert "unrecognized arguments: --seed 3" in err

    def test_train_and_bench_take_seed(self, capsys, tmp_path):
        report = run_json(capsys, "train", AXIS_SPEC, "--d", "1", "--m", "1",
                          "--out", str(tmp_path / "f.rfsq"), "--seed", "3")
        assert report["config"]["seed"] == 3
        code, out, err = run_cli(capsys, "bench", AXIS_SPEC, "--d", "1", "--m", "1",
                                 "--seed", "3")
        assert code == 0, err
        assert json.loads(out.splitlines()[0])["seed"] == 3

    def test_flag_defaults_are_the_config_defaults(self, capsys, tmp_path, monkeypatch):
        forest_path = tmp_path / "f.rfsq"
        train = run_json(capsys, "train", AXIS_SPEC, "--d", "1", "--m", "1",
                         "--out", str(forest_path))
        assert (train["config"]["min_leaf"], train["config"]["leaf_summary"],
                train["config"]["seed"]) == (
            ForestConfig.min_leaf, ForestConfig.leaf_summary, ForestConfig.seed
        )
        fit = MlrFitConfig()
        squash = run_json(capsys, "squash", str(forest_path), AXIS_SPEC,
                          "--out", str(tmp_path / "s.rfsq"))
        assert (squash["fit"]["lambda"], squash["fit"]["max_iter"], squash["fit"]["tol"]) == (
            fit.l2_penalty, fit.max_iterations, fit.gradient_tolerance
        )
        configs = []

        def spy(forest, dataset, config):
            configs.append(config)
            return squash_forest(forest, dataset, config)

        monkeypatch.setattr(cli, "squash_forest", spy)
        code, out, err = run_cli(capsys, "bench", AXIS_SPEC, "--d", "1", "--m", "1")
        assert code == 0, err
        assert configs == [fit]
        rows = [json.loads(line) for line in out.splitlines()[1:]]
        assert [r["cell"]["lambda"] for r in rows] == [fit.l2_penalty] * 2

    def test_train_requires_out(self, capsys):
        code, _, err = run_cli(capsys, "train", AXIS_SPEC)
        assert code == 1
        assert "--out" in err

    @pytest.mark.parametrize(
        "spec, message",
        [
            ("friedman1:n", "expected key=value"),
            ("friedman1:noise=1", "needs n=<rows>"),
            ("axis:n=10,thresholds=0,values=1;2", "must be feature:cutpoint"),
            ("axis:n=10,thresholds=a:0.5,values=1;2", "bad axis threshold"),
            ("axis:n=10,thresholds=0:0.5,values=1;2,q=3", "unknown axis keys"),
            ("axis:n=10,values=1;2", "axis spec missing keys"),
            ("axis:n=ten,thresholds=0:0.5,values=1;2", "bad axis spec"),
            ("axis:n=10,thresholds=0:0.5,values=1", "bad axis spec"),
        ],
    )
    def test_each_generator_spec_error_exits_1(self, capsys, tmp_path, spec, message):
        code, out, err = run_cli(capsys, "train", spec, "--out", str(tmp_path / "f.rfsq"))
        assert code == 1
        assert out == ""
        assert message in err
        assert not (tmp_path / "f.rfsq").exists()

    @pytest.mark.parametrize(
        "spec, message",
        [
            ("axis:n=10,thresholds=1:0.5,values=1;2,p=1", "p=1 too small"),
            ("axis:n=0,thresholds=0:0.5,values=1;2", "n must be >= 1"),
            ("axis:n=10,thresholds=-1:0.5,values=1;2", "must be non-negative"),
        ],
    )
    def test_axis_values_the_generator_refuses_exit_1(self, capsys, tmp_path, spec, message):
        code, out, err = run_cli(capsys, "train", spec, "--out", str(tmp_path / "f.rfsq"))
        assert code == 1
        assert out == ""
        assert "bad axis spec" in err and message in err
        assert not (tmp_path / "f.rfsq").exists()

    @pytest.mark.parametrize(
        "flag, value, message",
        [
            ("--mode", "soft", "bad --mode value 'soft'"),
            ("--float", "f16", "bad --float value 'f16'"),
            ("--d", ",", "empty grid for --d"),
            ("--d", "3,x", "bad value 'x' for --d"),
        ],
    )
    def test_bad_bench_grid_exits_1(self, capsys, flag, value, message):
        code, out, err = run_cli(
            capsys, "bench", "friedman1:n=60,noise=1", "--d", "1", "--m", "1", flag, value
        )
        assert code == 1
        assert out == ""
        assert message in err
