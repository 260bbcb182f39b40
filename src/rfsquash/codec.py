"""Bit-exact binary serialization of forests and surrogate forests (.rfsq).

The format is little-endian with fixed-width fields, so files are
platform-independent and encoding is deterministic. The full layout is
documented in docs/format.md; that document is normative. Byte sizes follow
closed-form formulas (see :func:`measure_size`), which is what makes the
storage comparison between the two model kinds an exact measurement rather
than an estimate.

Envelope:  magic "RFSQ" | version u16 | kind u8 | float width u8 |
           payload length u64 | payload | CRC-32 of payload (u32).
"""

from __future__ import annotations

import struct
import zlib

import numpy as np

from .errors import (
    ChecksumMismatchError,
    CodecError,
    InvalidMagicError,
    NumericError,
    TruncatedPayloadError,
    UnsupportedVersionError,
)
from .forest import DecisionTree, Forest, ForestConfig
from .mlr import MlrModel
from .surrogate import SurrogateForest, TreeSurrogate

MAGIC = b"RFSQ"
FORMAT_VERSION = 1

KIND_FOREST = 0
KIND_SURROGATE = 1

FLOAT_WIDTHS = {"f64": 8, "f32": 4}
_LEAF_SUMMARY_CODE = {"mean": 0, "median": 1}
_LEAF_SUMMARY_NAME = {v: k for k, v in _LEAF_SUMMARY_CODE.items()}
_MODE_CODE = {"argmax": 0, "expectation": 1}
_MODE_NAME = {v: k for k, v in _MODE_CODE.items()}

ENVELOPE_BYTES = 4 + 2 + 1 + 1 + 8 + 4
_CONFIG_BLOCK = struct.Struct("<5I B Q")  # n, k, d, M, min_leaf, summary, seed
FOREST_HEADER_BYTES = _CONFIG_BLOCK.size + 4 + 4 + 8  # + p, dataset_rows, fingerprint
SURROGATE_HEADER_BYTES = _CONFIG_BLOCK.size + 4  # + p


def forest_tree_bytes(n_leaves: int, width: int) -> int:
    """Payload bytes of one serialized tree: counts, nodes, leaves."""
    return 8 + (n_leaves - 1) * (12 + width) + n_leaves * (4 + width)


def surrogate_tree_bytes(n_leaves: int, n_features: int, width: int) -> int:
    """Payload bytes of one serialized surrogate: K, coefficients, values, mode."""
    return 4 + (n_leaves - 1) * (n_features + 1) * width + n_leaves * width + 1


def _float_dtype(width: int) -> np.dtype:
    return np.dtype("<f8" if width == 8 else "<f4")


def _node_dtype(width: int) -> np.dtype:
    """One internal-node record, packed as docs/format.md lays it out."""
    return np.dtype(
        [
            ("feature", "<u4"),
            ("threshold", _float_dtype(width)),
            ("left", "<u4"),
            ("right", "<u4"),
        ]
    )


def _narrow(values: np.ndarray, width: int) -> np.ndarray:
    """Values at the stored float width; float32 overflow is an error."""
    values = np.asarray(values, dtype=np.float64)
    if width == 8:
        return values
    with np.errstate(over="ignore"):
        narrowed = values.astype("<f4")
    if not np.all(np.isfinite(narrowed)):
        raise NumericError(
            "value overflows float32 range; encode with float width f64"
        )
    return narrowed


def _pack_floats(values: np.ndarray, width: int) -> bytes:
    return _narrow(values, width).astype(_float_dtype(width), copy=False).tobytes()


class _Cursor:
    """Sequential reader that reports underruns as truncation."""

    def __init__(self, data: bytes, width: int) -> None:
        self.data = data
        self.width = width
        self.pos = 0

    def take(self, n: int) -> bytes:
        if self.pos + n > len(self.data):
            raise TruncatedPayloadError(
                f"payload ends at byte {len(self.data)}, needed {self.pos + n}"
            )
        out = self.data[self.pos : self.pos + n]
        self.pos += n
        return out

    def u8(self) -> int:
        return self.take(1)[0]

    def u32(self) -> int:
        return struct.unpack("<I", self.take(4))[0]

    def floats(self, count: int, width: int) -> np.ndarray:
        raw = self.take(count * width)
        return np.frombuffer(raw, dtype=_float_dtype(width)).astype(np.float64)

    def done(self) -> bool:
        return self.pos == len(self.data)


def _encode_config(config: ForestConfig) -> bytes:
    return _CONFIG_BLOCK.pack(
        config.subsample_size,
        config.features_per_split,
        config.max_depth,
        config.n_trees,
        config.min_leaf,
        _LEAF_SUMMARY_CODE[config.leaf_summary],
        config.seed,
    )


def _decode_config(cur: _Cursor) -> ForestConfig:
    n, k, d, m, min_leaf, summary, seed = _CONFIG_BLOCK.unpack(
        cur.take(_CONFIG_BLOCK.size)
    )
    if summary not in _LEAF_SUMMARY_NAME:
        raise CodecError(f"unknown leaf-summary code {summary}")
    return ForestConfig(
        subsample_size=n,
        features_per_split=k,
        max_depth=d,
        n_trees=m,
        min_leaf=min_leaf,
        leaf_summary=_LEAF_SUMMARY_NAME[summary],
        seed=seed,
    )


def _encode_forest_payload(forest: Forest, width: int) -> bytes:
    p = forest.n_features
    out = bytearray()
    out += _encode_config(forest.config)
    out += struct.pack("<IIQ", p, forest.dataset_rows, forest.dataset_fingerprint)
    for tree in forest.trees:
        out += struct.pack("<II", tree.n_internal, tree.n_leaves)
        nodes = np.empty(tree.n_internal, dtype=_node_dtype(width))
        nodes["feature"] = tree.split_features
        nodes["threshold"] = _narrow(tree.split_thresholds, width)
        nodes["left"] = tree.children_left
        nodes["right"] = tree.children_right
        out += nodes.tobytes()
        out += _pack_floats(tree.leaf_values, width)
        out += np.ascontiguousarray(tree.leaf_counts, dtype="<u4").tobytes()
    return bytes(out)


def _decode_forest_payload(cur: _Cursor) -> Forest:
    config = _decode_config(cur)
    p, dataset_rows, fingerprint = struct.unpack("<IIQ", cur.take(16))
    width = cur.width
    node = _node_dtype(width)
    trees = []
    for _ in range(config.n_trees):
        n_internal, n_leaves = struct.unpack("<II", cur.take(8))
        if n_leaves != n_internal + 1:
            raise CodecError(
                f"tree declares {n_internal} internal nodes and {n_leaves} leaves"
            )
        nodes = np.frombuffer(cur.take(n_internal * node.itemsize), dtype=node)
        values = cur.floats(n_leaves, width)
        counts = np.frombuffer(cur.take(4 * n_leaves), dtype="<u4").astype(np.int64)
        try:
            tree = DecisionTree(
                split_features=nodes["feature"].astype(np.int64),
                split_thresholds=nodes["threshold"].astype(np.float64),
                children_left=nodes["left"].astype(np.int64),
                children_right=nodes["right"].astype(np.int64),
                leaf_values=values,
                leaf_counts=counts,
            )
        except ValueError as exc:
            raise CodecError(f"malformed tree {len(trees)}: {exc}") from None
        trees.append(tree)
    return Forest(
        trees=tuple(trees),
        config=config,
        dataset_rows=dataset_rows,
        dataset_fingerprint=fingerprint,
        n_features=p,
    )


def _encode_surrogate_payload(sf: SurrogateForest, width: int) -> bytes:
    out = bytearray()
    out += _encode_config(sf.config)
    out += struct.pack("<I", sf.n_features)
    for s in sf.surrogates:
        k = s.n_leaves
        out += struct.pack("<I", k)
        if s.model is not None:
            params = np.hstack(
                [s.model.intercepts[:, None], s.model.coefficients]
            ).ravel()
            out += _pack_floats(params, width)
        out += _pack_floats(s.leaf_values, width)
        out += struct.pack("<B", _MODE_CODE[s.prediction_mode])
    return bytes(out)


def _decode_surrogate_payload(cur: _Cursor) -> SurrogateForest:
    config = _decode_config(cur)
    (p,) = struct.unpack("<I", cur.take(4))
    width = cur.width
    surrogates = []
    for _ in range(config.n_trees):
        k = cur.u32()
        if k < 1:
            raise CodecError("surrogate tree declares zero leaves")
        model = None
        if k > 1:
            params = cur.floats((k - 1) * (p + 1), width).reshape(k - 1, p + 1)
            model = MlrModel(intercepts=params[:, 0], coefficients=params[:, 1:])
        values = cur.floats(k, width)
        mode_code = cur.u8()
        if mode_code not in _MODE_NAME:
            raise CodecError(f"unknown prediction-mode code {mode_code}")
        surrogates.append(
            TreeSurrogate(
                model=model,
                leaf_values=values,
                prediction_mode=_MODE_NAME[mode_code],
            )
        )
    modes = {s.prediction_mode for s in surrogates}
    if len(modes) != 1:
        raise CodecError(f"surrogate trees mix prediction modes {sorted(modes)}")
    return SurrogateForest(
        surrogates=tuple(surrogates),
        config=config,
        prediction_mode=modes.pop(),
        n_features=p,
    )


def encode(model: Forest | SurrogateForest, float_width: str = "f64") -> bytes:
    """Serialize a model to .rfsq bytes.

    ``float_width`` of "f32" halves every float field as an explicit size
    lever; values outside the float32 range raise NumericError rather than
    silently saturating.
    """
    if float_width not in FLOAT_WIDTHS:
        raise ValueError(f"float_width must be one of {sorted(FLOAT_WIDTHS)}")
    width = FLOAT_WIDTHS[float_width]
    if isinstance(model, Forest):
        if not model.trees:
            raise CodecError("refusing to encode a forest with zero trees")
        kind, encode_payload = KIND_FOREST, _encode_forest_payload
    elif isinstance(model, SurrogateForest):
        if not model.surrogates:
            raise CodecError("refusing to encode a surrogate forest with zero trees")
        kind, encode_payload = KIND_SURROGATE, _encode_surrogate_payload
    else:
        raise TypeError(f"cannot encode {type(model).__name__}")
    try:
        payload = encode_payload(model, width)
    except struct.error as exc:
        raise CodecError(f"a field does not fit its unsigned integer slot: {exc}") from None
    header = MAGIC + struct.pack("<HBBQ", FORMAT_VERSION, kind, width, len(payload))
    return header + payload + struct.pack("<I", zlib.crc32(payload))


def decode(data: bytes) -> Forest | SurrogateForest:
    """Reconstruct a model from .rfsq bytes.

    Failure modes are reported distinctly: wrong magic, unknown version,
    truncation, and checksum mismatch each raise their own error type.
    """
    if len(data) < 4:
        raise TruncatedPayloadError(f"only {len(data)} bytes, no room for magic")
    if data[:4] != MAGIC:
        raise InvalidMagicError(f"bad magic {data[:4]!r}, expected {MAGIC!r}")
    if len(data) < 16:
        raise TruncatedPayloadError(f"envelope header incomplete at {len(data)} bytes")
    version, kind, width, payload_len = struct.unpack("<HBBQ", data[4:16])
    if version != FORMAT_VERSION:
        raise UnsupportedVersionError(
            f"format version {version} not supported (expected {FORMAT_VERSION})"
        )
    if width not in (4, 8):
        raise CodecError(f"invalid float width {width}")
    total = 16 + payload_len + 4
    if len(data) < total:
        raise TruncatedPayloadError(
            f"declared {payload_len} payload bytes, stream has {len(data) - 20}"
        )
    if len(data) > total:
        raise CodecError(f"{len(data) - total} trailing bytes after envelope")
    payload = data[16 : 16 + payload_len]
    (stored_crc,) = struct.unpack("<I", data[16 + payload_len :])
    if zlib.crc32(payload) != stored_crc:
        raise ChecksumMismatchError("payload CRC-32 does not match stored checksum")
    if kind == KIND_FOREST:
        decode_payload = _decode_forest_payload
    elif kind == KIND_SURROGATE:
        decode_payload = _decode_surrogate_payload
    else:
        raise CodecError(f"unknown model kind {kind}")
    cur = _Cursor(payload, width)
    try:
        # widening an f32 signalling NaN warns; the model's own finiteness
        # checks reject it. One errstate per decode, not one per array.
        with np.errstate(invalid="ignore"):
            model = decode_payload(cur)
    except ValueError as exc:  # a field the model's own checks reject
        raise CodecError(f"stored model is invalid: {exc}") from None
    if not cur.done():
        raise CodecError(f"{len(payload) - cur.pos} unread bytes inside payload")
    return model


def measure_size(model: Forest | SurrogateForest, float_width: str = "f64") -> int:
    """Serialized byte count from the closed-form layout formulas.

    Always equals ``len(encode(model, float_width))``; computing it without
    encoding keeps size sweeps cheap and gives tests an independent check on
    the writer.
    """
    if float_width not in FLOAT_WIDTHS:
        raise ValueError(f"float_width must be one of {sorted(FLOAT_WIDTHS)}")
    width = FLOAT_WIDTHS[float_width]
    if isinstance(model, Forest):
        return (
            ENVELOPE_BYTES
            + FOREST_HEADER_BYTES
            + sum(forest_tree_bytes(t.n_leaves, width) for t in model.trees)
        )
    if isinstance(model, SurrogateForest):
        return (
            ENVELOPE_BYTES
            + SURROGATE_HEADER_BYTES
            + sum(
                surrogate_tree_bytes(s.n_leaves, model.n_features, width)
                for s in model.surrogates
            )
        )
    raise TypeError(f"cannot measure {type(model).__name__}")
