"""Shared domain types, the semantic-id table, and the deterministic random source.

Every other module builds on the types here. All containers are immutable
after construction and safe to share across threads; functions are pure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

_U64_MAX = 2**64 - 1


class RqsidError(Exception):
    """Base class for all library errors."""


class ConfigError(RqsidError):
    """Invalid configuration or parameter combination."""


class DataError(RqsidError):
    """Invalid or internally inconsistent input data."""


class TokenRangeError(RqsidError):
    """Token or layer index outside the configured range."""


class MalformedSequenceError(RqsidError):
    """Flat token sequence that does not parse as a semantic id."""


class UndefinedStatError(RqsidError):
    """Statistic requested on an empty histogram."""


class ConsistencyError(RqsidError):
    """Inputs that must describe the same collection disagree."""


# An item id is a nonempty string that holds none of these characters and
# does not start with "#". Id files and interaction files then need no
# quoting, a history splits on "|", and comment lines stay apart from rows.
# NUL is out because the id table's fixed-width strings drop trailing NULs.
_ID_BREAKS = ',"|\r\n\x00'
# an odd 64-bit multiplier for the polynomial hash of `distinct`
_ID_HASH_MULTIPLIER = np.uint64(0x9E3779B97F4A7C15)


def _bad_id(item) -> DataError:
    """The error that names `item`, an id outside the alphabet."""
    return DataError(
        f"item id {item!r} is not a nonempty string without ',', '\"', '|', CR, LF or NUL "
        "that does not start with '#'"
    )


def item_id_array(item_ids) -> np.ndarray:
    """A sequence of item ids as a read-only str array, as wide as the
    longest. An id that is no string or that holds NUL is found before
    numpy sees the ids, which would stringify the one and drop a trailing
    NUL of the other: it is a DataError naming the first id outside the
    alphabet. `check_item_ids` checks the rest of the alphabet on the array.
    """
    try:
        text = "".join(item_ids)
    except TypeError:  # an id that is no string
        text = None
    if text is None or "\x00" in text:
        raise _bad_id(next(
            item for item in item_ids if not isinstance(item, str)
            or item[:1] in ("", "#") or any(c in item for c in _ID_BREAKS)
        ))
    ids = np.array(item_ids, dtype=str)
    ids.flags.writeable = False
    return ids


def check_item_ids(item_ids: np.ndarray) -> None:
    """Raise a DataError naming the first id of a str array outside the
    item-id alphabet, found in numpy without a Python string per id. The
    array cannot hold a trailing NUL, so its maker must have checked for
    those, as `item_id_array` does."""
    codes = _code_points(item_ids)
    bad = np.zeros(codes.shape, dtype=bool)  # a character that breaks its id
    for c in _ID_BREAKS.replace("\x00", ""):
        bad |= codes == ord(c)
    # an empty id, or one that starts with "#"
    bad[:, 0] |= (codes[:, 0] == 0) | (codes[:, 0] == ord("#"))
    # a NUL is padding unless a character follows it
    bad[:, :-1] |= (codes[:, :-1] == 0) & (codes[:, 1:] != 0)
    if bad.any():  # the first bad character, in row-major order, is in the first bad id
        raise _bad_id(str(item_ids[bad.argmax() // bad.shape[1]]))


def distinct(item_ids: np.ndarray) -> bool:
    """Whether no two ids of a str array are equal. The ids are hashed into
    one sorted integer array in numpy, without a Python string per id; only
    if two hashes collide is a set of the ids built (4 MiB at 100k)."""
    hashes = np.zeros(len(item_ids), dtype=np.uint64)
    for column in _code_points(item_ids).T:  # wraps modulo 2^64
        hashes *= _ID_HASH_MULTIPLIER
        hashes += column
    hashes.sort()
    if (hashes[1:] != hashes[:-1]).all():
        return True
    ids = item_ids.tolist()
    return len(set(ids)) == len(ids)


def _code_points(item_ids: np.ndarray) -> np.ndarray:
    """A nonempty str array's ids as rows of code points, padded with 0."""
    ids = np.ascontiguousarray(item_ids)
    return ids.view(np.uint32).reshape(len(ids), ids.dtype.itemsize // 4)


@dataclass(frozen=True)
class QuantizerConfig:
    """Shape and training parameters of a residual quantizer.

    num_layers
        Number of quantization layers (length of a full semantic id).
    codebook_size
        Codewords per layer.
    dim
        Embedding dimensionality.
    kmeans_iters
        Cap on Lloyd iterations per layer.
    seed
        64-bit unsigned seed; drives every random choice.
    convergence_tol
        Relative SSE improvement below which a layer stops training.
    """

    num_layers: int
    codebook_size: int
    dim: int
    kmeans_iters: int = 25
    seed: int = 0
    convergence_tol: float = 1e-4

    def __post_init__(self) -> None:
        if self.num_layers < 1:
            raise ConfigError(f"num_layers must be >= 1, got {self.num_layers}")
        if self.codebook_size < 1:
            raise ConfigError(f"codebook_size must be >= 1, got {self.codebook_size}")
        if self.dim < 1:
            raise ConfigError(f"dim must be >= 1, got {self.dim}")
        if self.kmeans_iters < 1:
            raise ConfigError(f"kmeans_iters must be >= 1, got {self.kmeans_iters}")
        if not 0 <= self.seed <= _U64_MAX:
            raise ConfigError(f"seed must be an unsigned 64-bit integer, got {self.seed}")
        if not (math.isfinite(self.convergence_tol) and self.convergence_tol >= 0):
            raise ConfigError(
                f"convergence_tol must be finite and >= 0, got {self.convergence_tol}"
            )


def check_embeddings(ids: np.ndarray, vectors: np.ndarray) -> None:
    """Raise a DataError for the first fault of `vectors`, in any layout, and
    their `ids`, a str array as `item_id_array` makes: a shape other than
    (len(ids), dim >= 1), an id outside the alphabet, a repeated id, or a
    non-finite component."""
    if vectors.ndim != 2:
        raise DataError(f"vectors must be 2-D, got shape {vectors.shape}")
    if vectors.shape[1] < 1:
        raise DataError("vectors must have at least one dimension")
    if len(ids) != vectors.shape[0]:
        raise DataError(f"{len(ids)} ids for {vectors.shape[0]} vectors")
    check_item_ids(ids)
    if not distinct(ids):
        seen = set()
        repeated = next(item for item in ids.tolist() if item in seen or seen.add(item))
        raise DataError(f"item ids must be unique; {repeated!r} repeats")
    if vectors.size and not np.all(np.isfinite(vectors)):
        raise DataError("vectors contain non-finite components")


@dataclass(frozen=True)
class EmbeddingCollection:
    """An ordered set of item vectors with opaque string ids.

    `ids` is a read-only 1-D str array and `vectors` a read-only (n, dim)
    float64 array. A read-only str array, or a read-only, C-contiguous
    float64 array, that owns its buffer, as the loaders and the generators
    hand over, is adopted; anything else is copied, the ids through
    `item_id_array`, so no writable array of a caller's can reach either.
    """

    ids: np.ndarray
    vectors: np.ndarray

    def __post_init__(self) -> None:
        ids = self.ids
        if not (isinstance(ids, np.ndarray) and ids.dtype.kind == "U" and ids.ndim == 1
                and ids.flags.owndata and not ids.flags.writeable):
            ids = item_id_array(ids)
        vectors = self.vectors
        if not (isinstance(vectors, np.ndarray) and vectors.dtype == np.float64
                and vectors.flags.c_contiguous and vectors.flags.owndata
                and not vectors.flags.writeable):
            vectors = np.array(vectors, dtype=np.float64, order="C")
        check_embeddings(ids, vectors)
        vectors.flags.writeable = False
        object.__setattr__(self, "ids", ids)
        object.__setattr__(self, "vectors", vectors)

    def __len__(self) -> int:
        return self.vectors.shape[0]

    @property
    def dim(self) -> int:
        return self.vectors.shape[1]


@dataclass(frozen=True)
class Codebook:
    """Trained residual-quantizer codebook: (L, M, D) codewords plus training SSE."""

    config: QuantizerConfig
    layers: np.ndarray
    training_sse_per_layer: tuple[float, ...]

    def __post_init__(self) -> None:
        layers = np.asarray(self.layers, dtype=np.float64)
        cfg = self.config
        expected = (cfg.num_layers, cfg.codebook_size, cfg.dim)
        if layers.shape != expected:
            raise DataError(f"codebook layers shape {layers.shape}, expected {expected}")
        if not np.all(np.isfinite(layers)):
            raise DataError("codebook contains non-finite entries")
        sse = tuple(float(s) for s in self.training_sse_per_layer)
        if len(sse) != cfg.num_layers:
            raise DataError(
                f"{len(sse)} SSE entries for {cfg.num_layers} layers"
            )
        if any(s < 0 for s in sse):
            raise DataError("training SSE entries must be non-negative")
        layers = layers.copy()
        layers.flags.writeable = False
        object.__setattr__(self, "layers", layers)
        object.__setattr__(self, "training_sse_per_layer", sse)


def sid_table(item_ids: np.ndarray, tokens, config: QuantizerConfig, is_full=None) -> np.recarray:
    """The id table: one record per item with fields `item_id` (str),
    `tokens` (int64, one per layer) and `is_full` (bool). `item_ids` is a
    str array of checked ids (see `check_item_ids` and `distinct`), as
    `EmbeddingCollection.ids`, `load_sids` and an id table hold them.

    Only layer 2 can be elided, and only with at least three layers, so an
    elided id keeps its row shape: its layer-2 slot holds -1. Each id thus
    has one canonical row, and a token histogram of layer 2 that forgets the
    mask fails its range check. `is_full` defaults to all True.
    """
    tokens = np.asarray(tokens, dtype=np.int64)
    if tokens.ndim != 2 or tokens.shape[0] == 0:
        raise ConfigError(f"expected a nonempty (n, L) id array, got shape {tokens.shape}")
    n, L, M = tokens.shape[0], config.num_layers, config.codebook_size
    if tokens.shape[1] == 0:
        raise MalformedSequenceError("semantic ids have no tokens")
    if tokens.shape[1] != L:
        raise ConsistencyError(f"ids have {tokens.shape[1]} layers, config expects {L}")
    if len(item_ids) != n:
        raise ConsistencyError(f"{len(item_ids)} item ids for {n} ids")
    is_full = np.ones(n, dtype=bool) if is_full is None else np.array(is_full, dtype=bool)
    if is_full.shape != (n,):
        raise ConsistencyError(f"full-length mask has shape {is_full.shape}, expected ({n},)")
    if L < 3 and not is_full.all():
        raise ConfigError("variable-length elision needs at least three layers")
    table = np.recarray(
        n, dtype=[("item_id", item_ids.dtype), ("tokens", np.int64, (L,)), ("is_full", bool)]
    )
    table.item_id = item_ids
    table.tokens = tokens  # the caller's `tokens` stay unwritten
    tokens = table.tokens
    present = np.ones((n, L), dtype=bool)
    if L >= 3:
        tokens[~is_full, 1] = -1
        present[:, 1] = is_full
    bad = present & ((tokens < 0) | (tokens >= M))
    if bad.any():
        row, col = np.argwhere(bad)[0]
        raise TokenRangeError(
            f"item {str(table.item_id[row])!r} layer {col + 1} token {tokens[row, col]} "
            f"outside [0, {M})"
        )
    table.is_full = is_full
    table.flags.writeable = False
    return table


class RandomSource:
    """Deterministic, splittable source of randomness.

    Wraps a numpy SeedSequence: `generator()` always yields the same stream
    for the same source, and `split(n)` derives n independent child sources
    without mutating the parent, so repeated calls agree.
    """

    def __init__(self, seed: int, _spawn_key: tuple[int, ...] = ()):
        if not 0 <= int(seed) <= _U64_MAX:
            raise ConfigError(f"seed must be an unsigned 64-bit integer, got {seed}")
        self.seed = int(seed)
        self._spawn_key = tuple(_spawn_key)

    def generator(self) -> np.random.Generator:
        seq = np.random.SeedSequence(self.seed, spawn_key=self._spawn_key)
        return np.random.Generator(np.random.PCG64(seq))

    def split(self, n: int) -> list["RandomSource"]:
        if n < 0:
            raise ConfigError(f"cannot split into {n} sources")
        return [
            RandomSource(self.seed, self._spawn_key + (i,)) for i in range(n)
        ]

    def child(self, index: int) -> "RandomSource":
        return RandomSource(self.seed, self._spawn_key + (int(index),))

    def __repr__(self) -> str:
        return f"RandomSource(seed={self.seed}, spawn_key={self._spawn_key})"


def sid_to_flat_tokens(table, config: QuantizerConfig) -> np.ndarray:
    """Map every id of an id table onto the layer-disjoint flat vocabulary.

    The token of layer l becomes (l - 1) * codebook_size + token, so tokens
    from different layers never collide and an elided layer 2 is detectable
    from the flat ids alone. Returns an (n, L) int64 matrix in table order,
    an elided id's row shifted left past its layer-2 slot and padded with -1.
    """
    L, M = config.num_layers, config.codebook_size
    flat = table.tokens + M * np.arange(L)
    elided = ~table.is_full
    flat[elided, 1:-1] = flat[elided, 2:]
    flat[elided, -1] = -1
    return flat
