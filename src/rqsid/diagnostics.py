"""Token-distribution diagnostics: histograms, concentration statistics,
path sparsity, adjacent-layer edge density, and the hourglass report.

A histogram is a 1-D array of non-negative counts, one per codebook slot.
All statistics are computed over every slot, zero-count tokens included,
because under-used slots are exactly what is being measured.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field

import numpy as np

from .core import (
    ConfigError,
    QuantizerConfig,
    TokenRangeError,
    UndefinedStatError,
)


@dataclass(frozen=True)
class Selector:
    """Head-token selection rule: the top K tokens, or the minimal prefix of
    tokens (by descending count) covering at least a fraction `value` of mass."""

    kind: str
    value: float

    @classmethod
    def top_k(cls, k: int) -> "Selector":
        if k < 0:
            raise ConfigError(f"top_k must be >= 0, got {k}")
        return cls("top_k", int(k))

    @classmethod
    def mass(cls, p: float) -> "Selector":
        if not 0 < p <= 1:
            raise ConfigError(f"mass threshold must be in (0, 1], got {p}")
        return cls("mass", float(p))

    def describe(self) -> str:
        return f"top_k={int(self.value)}" if self.kind == "top_k" else f"mass={self.value}"


@dataclass(frozen=True)
class LayerStats:
    """Concentration summary of one layer's token histogram (count array)."""

    entropy_bits: float
    gini: float
    stddev: float
    distinct_tokens: int
    utilization: float

    @classmethod
    def from_histogram(cls, counts) -> "LayerStats":
        counts = _counts_of(counts)
        return cls(
            entropy_bits=entropy_bits(counts),
            gini=gini(counts),
            stddev=stddev(counts),
            distinct_tokens=int((counts > 0).sum()),
            utilization=float((counts > 0).sum() / counts.size),
        )

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class HourglassReport:
    """Aggregate hourglass diagnostics over a set of full-length semantic ids."""

    per_layer: tuple[LayerStats, ...]
    path_sparsity: float
    edge_density: tuple[float, ...]
    hourglass_flag: bool
    head_set: frozenset[int]
    pinch_layer: int | None
    num_items: int
    distinct_sids: int
    histograms: tuple[tuple[int, ...], ...] = field(default=(), repr=False)

    def to_dict(self) -> dict:
        return {
            "per_layer": [{"layer": l, **s.to_dict()} for l, s in enumerate(self.per_layer, 1)],
            "path_sparsity": self.path_sparsity,
            "edge_density": list(self.edge_density),
            "hourglass_flag": self.hourglass_flag,
            "head_set": sorted(self.head_set),
            "pinch_layer": self.pinch_layer,
            "num_items": self.num_items,
            "distinct_sids": self.distinct_sids,
            "histograms": [list(h) for h in self.histograms],
        }


def _as_sid_array(sids) -> np.ndarray:
    arr = np.asarray(sids, dtype=np.int64)
    if arr.ndim != 2:
        raise ConfigError(f"expected an (n, L) id array, got shape {arr.shape}")
    return arr


def _counts_of(h) -> np.ndarray:
    counts = np.asarray(h, dtype=np.int64)
    if counts.ndim != 1 or (counts < 0).any():
        raise ConfigError("histogram must be a 1-D array of non-negative counts")
    return counts


def token_histogram(sids, layer: int, num_tokens: int) -> np.ndarray:
    """Exact occurrence counts of layer `layer` tokens, zero slots included:
    an int64 array of length `num_tokens`."""
    if num_tokens < 1:
        raise ConfigError(f"num_tokens must be >= 1, got {num_tokens}")
    if len(sids) == 0:
        return np.zeros(num_tokens, dtype=np.int64)
    arr = _as_sid_array(sids)
    if not 1 <= layer <= arr.shape[1]:
        raise TokenRangeError(f"layer {layer} outside [1, {arr.shape[1]}]")
    col = arr[:, layer - 1]
    if col.min() < 0 or col.max() >= num_tokens:
        raise TokenRangeError(f"token outside [0, {num_tokens}) in layer {layer}")
    return np.bincount(col, minlength=num_tokens)


def entropy_bits(h) -> float:
    """Shannon entropy of the count distribution, in bits."""
    counts = _counts_of(h)
    total = counts.sum()
    if total == 0:
        raise UndefinedStatError("entropy of an empty histogram is undefined")
    p = counts[counts > 0] / total
    return float(-(p * np.log2(p)).sum())


def gini(h) -> float:
    """Gini coefficient over all slots: sum_ij |c_i - c_j| / (2 n sum_c)."""
    counts = _counts_of(h)
    total = counts.sum()
    if total == 0:
        raise UndefinedStatError("gini of an empty histogram is undefined")
    n = counts.size
    x = np.sort(counts)
    ranks = np.arange(1, n + 1, dtype=np.float64)
    return float(((2.0 * ranks - n - 1.0) * x).sum() / (n * total))


def stddev(h) -> float:
    """Population standard deviation of the slot counts."""
    counts = _counts_of(h)
    return float(np.std(counts))


def row_groups(arr: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Equal rows of an (n, L) id array, grouped with one stable row sort.

    Returns the order that sorts the rows, with each group's rows in index
    order, and the position in it where each group starts; the number of
    groups is the number of distinct ids.
    """
    order = np.lexsort(arr.T[::-1])
    rows = arr[order]
    # a group starts at each sorted row that differs from the row before it
    starts = np.flatnonzero(np.r_[len(rows) > 0, (rows[1:] != rows[:-1]).any(axis=1)])
    return order, starts


def adjacent_pair_count(sids, layer: int, codebook_size: int) -> int:
    """Distinct (layer, layer+1) token pairs; numerator of the edge density.

    Each pair is counted as the one key a * M + b, with tokens in [0, M).
    """
    arr = _as_sid_array(sids)
    return len(np.unique(arr[:, layer - 1] * codebook_size + arr[:, layer]))


def head_tail_split(h, selector: Selector) -> tuple[frozenset[int], frozenset[int]]:
    """Split tokens into head and tail sets.

    Tokens are ordered by descending count with ties broken by ascending
    token index. top_k takes the first K tokens; mass takes the shortest
    prefix whose cumulative count share reaches the threshold.
    """
    counts = _counts_of(h)
    n = counts.size
    order = np.lexsort((np.arange(n), -counts))
    if selector.kind == "top_k":
        k = int(selector.value)
        if k > n:
            raise ConfigError(f"top_k {k} exceeds token count {n}")
    else:
        total = counts.sum()
        if total == 0:
            raise UndefinedStatError("mass split of an empty histogram is undefined")
        shares = np.cumsum(counts[order]) / total
        k = int(np.searchsorted(shares, selector.value - 1e-12) + 1)
    head = frozenset(int(t) for t in order[:k])
    tail = frozenset(int(t) for t in order[k:])
    return head, tail


def small_residual_ratio(residual_norms, reference_norms) -> float:
    """Fraction of residual norms strictly below the median reference norm.

    Descriptive companion to the hourglass report: how much of a layer's
    input mass sits near zero relative to the scale of the previous layer.
    """
    residual_norms = np.asarray(residual_norms, dtype=np.float64)
    reference_norms = np.asarray(reference_norms, dtype=np.float64)
    if residual_norms.size == 0 or reference_norms.size == 0:
        raise UndefinedStatError("residual ratio of empty norm sets is undefined")
    return float((residual_norms < np.median(reference_norms)).mean())


def hourglass_report(
    sids,
    config: QuantizerConfig,
    head_selector: Selector = Selector.mass(0.5),
    include_histograms: bool = False,
) -> HourglassReport:
    """Full hourglass diagnostic over full-length semantic ids.

    The hourglass flag is raised when one interior layer simultaneously has
    the strictly lowest entropy and the strictly highest gini of all layers.
    The head set is taken from the layer-2 histogram (layer 1 for L=1).
    """
    arr = _as_sid_array(sids)
    if arr.shape[0] == 0:
        raise UndefinedStatError("hourglass report of an empty id set is undefined")
    L, M = config.num_layers, config.codebook_size
    if arr.shape[1] != L:
        raise ConfigError(f"ids have {arr.shape[1]} layers, config expects {L}")
    hists = [token_histogram(arr, l, M) for l in range(1, L + 1)]
    stats = tuple(LayerStats.from_histogram(h) for h in hists)
    entropies = [s.entropy_bits for s in stats]
    ginis = [s.gini for s in stats]

    # a strict global entropy minimum at an interior layer is the pinch
    pinch = min(range(2, L), key=lambda l: (entropies[l - 1], l), default=None)
    flag = pinch is not None and all(
        entropies[pinch - 1] < e and ginis[pinch - 1] > g
        for l, (e, g) in enumerate(zip(entropies, ginis), 1)
        if l != pinch
    )

    head, _ = head_tail_split(hists[min(L, 2) - 1], head_selector)
    density = tuple(adjacent_pair_count(arr, l, M) / (M * M) for l in range(1, L))
    distinct = len(row_groups(arr)[1])
    return HourglassReport(
        per_layer=stats,
        path_sparsity=distinct / M**L,  # exact big-integer path-space size
        edge_density=density,
        hourglass_flag=flag,
        head_set=head,
        pinch_layer=pinch,
        num_items=int(arr.shape[0]),
        distinct_sids=distinct,
        histograms=tuple(tuple(h.tolist()) for h in hists) if include_histograms else (),
    )
