"""Tests for the .rfsq binary format: round-trips, errors, size formulas."""

import dataclasses
import functools
import struct
import warnings
import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rfsquash.cli import _model_predict_batch
from rfsquash.codec import (
    ENVELOPE_BYTES,
    FOREST_HEADER_BYTES,
    SURROGATE_HEADER_BYTES,
    decode,
    encode,
    forest_tree_bytes,
    measure_size,
    surrogate_tree_bytes,
)
from rfsquash.data import gen_axis_partition, gen_friedman1
from rfsquash.errors import (
    ChecksumMismatchError,
    CodecError,
    InvalidMagicError,
    NumericError,
    TruncatedPayloadError,
    UnsupportedVersionError,
)
from rfsquash.forest import ForestConfig, fit_forest, forest_predict_batch
from rfsquash.mlr import MlrFitConfig, MlrModel
from rfsquash.surrogate import SurrogateForest, TreeSurrogate, squash_forest
from rfsquash.surrogate import surrogate_forest_predict_batch


def _random_forest(seed, n=120, depth=3, m=4, p_noise=1.0):
    ds = gen_friedman1(n, p_noise, seed=seed)
    config = ForestConfig(
        subsample_size=n // 2,
        features_per_split=5,
        max_depth=depth,
        n_trees=m,
        min_leaf=2,
        seed=seed,
    )
    return ds, fit_forest(ds, config)


def _random_surrogate(seed, **kwargs):
    ds, forest = _random_forest(seed, **kwargs)
    return squash_forest(forest, ds, MlrFitConfig(l2_penalty=1e-4))


def _with_payload_bytes(blob, offset, data):
    """Overwrite payload bytes (offset from the payload start) and re-seal the CRC."""
    blob = bytearray(blob)
    blob[16 + offset : 16 + offset + len(data)] = data
    blob[-4:] = struct.pack("<I", zlib.crc32(bytes(blob[16:-4])))
    return bytes(blob)


def _with_payload_byte(blob, offset, value):
    return _with_payload_bytes(blob, offset, bytes([value]))


def _manual_surrogate(k, p, mode="expectation", scale=1.0, m=1):
    rng = np.random.default_rng(k * 1000 + p)
    surrogates = tuple(
        TreeSurrogate(
            model=(
                MlrModel(
                    rng.normal(scale=scale, size=k - 1),
                    rng.normal(scale=scale, size=(k - 1, p)),
                )
                if k > 1
                else None
            ),
            leaf_values=rng.normal(size=k),
            prediction_mode=mode,
        )
        for _ in range(m)
    )
    config = ForestConfig(
        subsample_size=10, features_per_split=1, max_depth=3, n_trees=m
    )
    return SurrogateForest(
        surrogates=surrogates, config=config, prediction_mode=mode, n_features=p
    )


class TestLayoutArithmetic:
    def test_surrogate_tree_payload_example(self):
        # K=3, p=10, f64: 4 + 2*11*8 + 3*8 + 1 = 205
        assert surrogate_tree_bytes(3, 10, 8) == 205

    def test_forest_tree_payload(self):
        # K leaves: (K-1) nodes of 20 bytes + K leaves of 12 bytes + 8 framing
        assert forest_tree_bytes(4, 8) == 8 + 3 * 20 + 4 * 12

    def test_measured_size_includes_envelope_and_header(self):
        sf = _manual_surrogate(3, 10)
        assert (
            measure_size(sf, "f64")
            == ENVELOPE_BYTES + SURROGATE_HEADER_BYTES + 205
        )


class TestRoundTrip:
    @pytest.mark.parametrize("width", ["f64", "f32"])
    def test_forest_reencode_identical(self, width):
        _, forest = _random_forest(1)
        blob = encode(forest, width)
        again = encode(decode(blob), width)
        assert blob == again

    @pytest.mark.parametrize("width", ["f64", "f32"])
    def test_surrogate_reencode_identical(self, width):
        sf = _random_surrogate(2)
        blob = encode(sf, width)
        assert encode(decode(blob), width) == blob

    def test_forest_predictions_bit_exact_at_f64(self):
        ds, forest = _random_forest(3)
        restored = decode(encode(forest, "f64"))
        probes = gen_friedman1(100, 0.0, seed=50).features
        a = forest_predict_batch(forest, probes)
        b = forest_predict_batch(restored, probes)
        np.testing.assert_array_equal(a, b)

    def test_surrogate_predictions_bit_exact_at_f64(self):
        sf = _random_surrogate(4)
        restored = decode(encode(sf, "f64"))
        probes = gen_friedman1(100, 0.0, seed=51).features
        np.testing.assert_array_equal(
            surrogate_forest_predict_batch(sf, probes),
            surrogate_forest_predict_batch(restored, probes),
        )

    def test_forest_round_trip_preserves_metadata(self):
        ds, forest = _random_forest(5)
        restored = decode(encode(forest, "f64"))
        assert restored.config == forest.config
        assert restored.dataset_rows == forest.dataset_rows
        assert restored.dataset_fingerprint == forest.dataset_fingerprint

    def test_f32_narrowing_error_bound(self):
        sf = _random_surrogate(6)
        restored = decode(encode(sf, "f32"))
        for original, back in zip(sf.surrogates, restored.surrogates):
            if original.model is None:
                continue
            rel = np.abs(back.model.coefficients - original.model.coefficients) / (
                np.abs(original.model.coefficients) + 1e-30
            )
            assert rel.max() < 1e-6

    def test_structural_claim_no_tree_fields_in_surrogate_file(self):
        # The surrogate payload has no room for thresholds or child pointers:
        # its size is fully accounted for by the documented per-tree formula.
        sf = _random_surrogate(7)
        blob = encode(sf, "f64")
        p = sf.surrogates[0].model.n_features
        expected = (
            ENVELOPE_BYTES
            + SURROGATE_HEADER_BYTES
            + sum(surrogate_tree_bytes(s.n_leaves, p, 8) for s in sf.surrogates)
        )
        assert len(blob) == expected
        restored = decode(blob)
        for s in restored.surrogates:
            assert not hasattr(s, "split_thresholds")
            assert not hasattr(s, "children_left")


class TestSizeFormulas:
    def test_formula_matches_bytes_on_random_models(self):
        for seed in range(10):
            ds, forest = _random_forest(seed, n=80 + 10 * seed, depth=2 + seed % 3)
            sf = squash_forest(forest, ds, MlrFitConfig(l2_penalty=1e-4))
            for width in ("f64", "f32"):
                assert measure_size(forest, width) == len(encode(forest, width))
                assert measure_size(sf, width) == len(encode(sf, width))

    def test_surrogate_size_independent_of_sample_size(self):
        sizes = []
        for n in (500, 5000):
            ds = gen_axis_partition(n, [(0, 0.5)], [2.0, 4.0], seed=8)
            config = ForestConfig(
                subsample_size=n,
                features_per_split=1,
                max_depth=1,
                n_trees=1,
                seed=0,
            )
            forest = fit_forest(ds, config)
            sf = squash_forest(forest, ds, MlrFitConfig())
            sizes.append(measure_size(sf, "f64"))
        assert sizes[0] == sizes[1]

    def test_forest_size_grows_with_n_but_surrogate_does_not(self):
        # the forest stores per-leaf counts over more populated leaves; the
        # surrogate layout has no n term at all
        k, p = 5, 3
        a = _manual_surrogate(k, p)
        assert measure_size(a, "f64") == measure_size(_manual_surrogate(k, p), "f64")

    def test_empty_ensemble_unrepresentable(self):
        with pytest.raises(ValueError, match="n_trees"):
            ForestConfig(subsample_size=1, features_per_split=1, max_depth=0, n_trees=0)


class TestDecodeErrors:
    def test_corrupt_payload_byte_fails_checksum(self):
        _, forest = _random_forest(9)
        blob = bytearray(encode(forest, "f64"))
        blob[30] ^= 0xFF
        with pytest.raises(ChecksumMismatchError):
            decode(bytes(blob))

    def test_truncated_stream(self):
        _, forest = _random_forest(10)
        blob = encode(forest, "f64")
        with pytest.raises(TruncatedPayloadError):
            decode(blob[:-4])

    def test_bad_magic(self):
        _, forest = _random_forest(11)
        blob = b"XXXX" + encode(forest, "f64")[4:]
        with pytest.raises(InvalidMagicError):
            decode(blob)

    def test_unknown_version(self):
        _, forest = _random_forest(12)
        blob = bytearray(encode(forest, "f64"))
        blob[4] = 99
        with pytest.raises(UnsupportedVersionError):
            decode(bytes(blob))

    def test_trailing_bytes_rejected(self):
        _, forest = _random_forest(13)
        with pytest.raises(CodecError, match="trailing"):
            decode(encode(forest, "f64") + b"\x00")

    def test_tiny_stream(self):
        with pytest.raises(TruncatedPayloadError):
            decode(b"RF")

    def test_f32_overflow_rejected_at_encode(self):
        sf = _manual_surrogate(3, 2, scale=1e300)
        with pytest.raises(NumericError, match="float32"):
            encode(sf, "f32")
        encode(sf, "f64")  # fine at full width

    def test_mode_bytes_are_the_only_difference(self):
        base = _random_surrogate(14)
        flipped = SurrogateForest(
            surrogates=tuple(
                TreeSurrogate(
                    model=s.model,
                    leaf_values=s.leaf_values,
                    prediction_mode="argmax",
                )
                for s in base.surrogates
            ),
            config=base.config,
            prediction_mode="argmax",
            n_features=base.n_features,
        )
        a = encode(base, "f64")
        b = encode(flipped, "f64")
        assert len(a) == len(b)
        diff_positions = [i for i, (x, y) in enumerate(zip(a, b)) if x != y]
        # expected positions: the per-tree mode byte plus the payload CRC
        p = base.surrogates[0].model.n_features
        offset = 16 + SURROGATE_HEADER_BYTES
        expected = []
        for s in base.surrogates:
            offset += surrogate_tree_bytes(s.n_leaves, p, 8)
            expected.append(offset - 1)
        crc_positions = set(range(len(a) - 4, len(a)))
        assert set(diff_positions) - crc_positions == set(expected)

    def test_self_loop_tree_rejected(self):
        # A root whose left child points back at itself passes the CRC but
        # would send traversal round forever.
        _, forest = _random_forest(16)
        assert forest.trees[0].n_internal > 0
        left_of_root = 29 + 16 + 8 + 4 + 8  # config, header, counts, feature, threshold
        blob = _with_payload_byte(encode(forest, "f64"), left_of_root, 0)
        with pytest.raises(CodecError, match="malformed tree 0"):
            decode(blob)

    def test_mixed_prediction_modes_rejected(self):
        sf = _random_surrogate(17)
        first_mode_byte = SURROGATE_HEADER_BYTES + surrogate_tree_bytes(
            sf.surrogates[0].n_leaves, sf.n_features, 8
        ) - 1
        blob = _with_payload_byte(encode(sf, "f64"), first_mode_byte, 0)  # argmax
        with pytest.raises(CodecError, match="mix prediction modes"):
            decode(blob)

    def test_u32_overflow_rejected_at_encode(self):
        _, forest = _random_forest(18)
        config = dataclasses.replace(forest.config, subsample_size=2**32)
        oversized = dataclasses.replace(forest, config=config)
        with pytest.raises(CodecError, match="unsigned"):
            encode(oversized, "f64")

    def test_zero_feature_forest_rejected(self):
        _, forest = _random_forest(19)
        p_field = FOREST_HEADER_BYTES - 16  # p follows the config block
        blob = _with_payload_bytes(encode(forest, "f64"), p_field, struct.pack("<I", 0))
        with pytest.raises(CodecError, match="feature count"):
            decode(blob)

    def test_nan_surrogate_parameter_rejected(self):
        sf = _random_surrogate(20)
        assert sf.surrogates[0].model is not None
        first_intercept = SURROGATE_HEADER_BYTES + 4  # after tree 0's K
        blob = _with_payload_bytes(
            encode(sf, "f64"), first_intercept, struct.pack("<d", float("nan"))
        )
        with pytest.raises(CodecError, match="finite"):
            decode(blob)

    def test_f32_signalling_nan_rejected_without_warning(self):
        # widening an f32 signalling NaN to f64 raises numpy's invalid flag
        sf = _manual_surrogate(3, 2)
        first_coefficient = SURROGATE_HEADER_BYTES + 4 + 4  # after K, intercept
        blob = _with_payload_bytes(
            encode(sf, "f32"), first_coefficient, b"\x01\x00\x80\x7f"
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(CodecError, match="finite"):
                decode(blob)

    def test_split_feature_out_of_range_rejected(self):
        # Feature index p names no column, so no row of p features could be
        # routed through this tree.
        _, forest = _random_forest(21)
        assert forest.trees[0].n_internal > 0
        root_feature = FOREST_HEADER_BYTES + 8  # after tree 0's node/leaf counts
        blob = _with_payload_bytes(
            encode(forest, "f64"), root_feature, struct.pack("<I", forest.n_features)
        )
        with pytest.raises(CodecError, match="splits feature"):
            decode(blob)

    def test_wrong_kind_flag(self):
        _, forest = _random_forest(15)
        blob = bytearray(encode(forest, "f64"))
        blob[6] = 7  # kind byte
        with pytest.raises(CodecError, match="unknown model kind"):
            decode(bytes(blob))

    def test_encode_rejects_other_types(self):
        with pytest.raises(TypeError):
            encode(object(), "f64")
        with pytest.raises(ValueError, match="float_width"):
            encode(_manual_surrogate(2, 1), "f16")


@functools.cache
def _fuzz_seed_blob(kind):
    """A small valid file of each kind; f64 forest, f32 surrogate."""
    if kind == "forest":
        return encode(_random_forest(40, n=40, depth=2, m=2)[1], "f64")
    return encode(_random_surrogate(41, n=40, depth=2, m=2), "f32")


# A file may validly declare any feature count; probes wider than this are
# not built, so such files are only decoded.
_FUZZ_MAX_FEATURES = 64


@pytest.mark.parametrize("kind", ["forest", "surrogate"])
@settings(max_examples=150, deadline=None)
@given(
    edits=st.lists(
        st.tuples(st.integers(min_value=0), st.integers(0, 255)), min_size=1, max_size=4
    )
)
def test_mutated_payload_decodes_to_a_usable_model_or_fails(kind, edits):
    """Any CRC-valid byte mutation either raises CodecError or decodes to a
    model whose batch prediction returns or raises NumericError (a mutated
    parameter can make a logit NaN)."""
    blob = _fuzz_seed_blob(kind)
    payload_len = len(blob) - ENVELOPE_BYTES
    for offset, value in edits:
        blob = _with_payload_byte(blob, offset % payload_len, value)
    try:
        model = decode(blob)
    except CodecError:
        return
    if model.n_features > _FUZZ_MAX_FEATURES:
        return
    probe = np.random.default_rng(0).uniform(-0.5, 1.5, size=(16, model.n_features))
    with np.errstate(all="ignore"):  # mutated floats may overflow to inf or nan
        try:
            assert _model_predict_batch(model, probe).shape == (16,)
        except NumericError:
            assert kind == "surrogate"
