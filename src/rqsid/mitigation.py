"""Semantic-id transforms that counteract intermediate-layer concentration:
layer exchange, wholesale second-layer removal, and adaptive variable-length
ids that elide only the head tokens of layer 2.

Two capacity numbers are tracked side by side: the closed-form value
M**L + K * (M**(L-2) - M**(L-1)) and the count of ids actually reachable
under self-delimiting elision, which is the authoritative one here because
the closed form double-counts shortened forms shared across head tokens.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (
    ConfigError,
    ConsistencyError,
    QuantizerConfig,
    SemanticId,
    TokenRangeError,
    UndefinedStatError,
    VarLenSemanticId,
)
from .diagnostics import (
    HourglassReport,
    LayerHistogram,
    LayerStats,
    Selector,
    head_tail_split,
    hourglass_report,
    token_histogram,
)


@dataclass(frozen=True)
class MitigationOutcome:
    """Result of an id transform: new ids, head set, capacities, collisions."""

    transformed_sids: tuple[VarLenSemanticId, ...]
    head_set: frozenset[int]
    capacity_paper_formula: int
    capacity_empirical_distinct: int
    collisions: dict[VarLenSemanticId, tuple[str, ...]]


@dataclass(frozen=True)
class PostMitigationReport:
    """Diagnostics after a transform.

    `remaining_layer2` is computed over the tail vocabulary only (head slots
    removed, not zeroed). Both stats fields are None when every id was
    elided, which is the undefined-statistics signal.
    """

    elision_rate: float
    remaining_layer2: LayerStats | None
    full_report: HourglassReport | None
    full_length_utilization: float | None

    def to_dict(self) -> dict:
        return {
            "elision_rate": self.elision_rate,
            "remaining_layer2": None
            if self.remaining_layer2 is None
            else self.remaining_layer2.to_dict(),
            "full_report": None if self.full_report is None else self.full_report.to_dict(),
            "full_length_utilization": self.full_length_utilization,
        }


def _as_sid_array(sids) -> np.ndarray:
    arr = np.asarray(sids, dtype=np.int64)
    if arr.ndim != 2 or arr.shape[0] == 0:
        raise ConfigError(f"expected a nonempty (n, L) id array, got shape {arr.shape}")
    return arr


def _default_ids(n: int) -> tuple[str, ...]:
    return tuple(f"item_{i:06d}" for i in range(n))


def _collisions(
    transformed: tuple[VarLenSemanticId, ...], item_ids
) -> dict[VarLenSemanticId, tuple[str, ...]]:
    by_sid: dict[VarLenSemanticId, list[str]] = {}
    for sid, item in zip(transformed, item_ids):
        by_sid.setdefault(sid, []).append(item)
    return {sid: tuple(items) for sid, items in by_sid.items() if len(items) >= 2}


def exchange_layers(sids, a: int, b: int) -> list[SemanticId]:
    """Swap token positions a and b (1-based) in every id; an involution."""
    arr = _as_sid_array(sids).copy()
    L = arr.shape[1]
    if not (1 <= a <= L and 1 <= b <= L):
        raise TokenRangeError(f"layers ({a}, {b}) outside [1, {L}]")
    arr[:, [a - 1, b - 1]] = arr[:, [b - 1, a - 1]]
    return [tuple(int(t) for t in row) for row in arr]


def remove_layer(sids, config: QuantizerConfig, item_ids=None) -> MitigationOutcome:
    """Drop layer 2 from every id.

    Layer 2 is the only removable layer, and only with at least three
    layers: shortened ids must still start at layer 1 and end at layer L to
    stay decodable under the layer-disjoint vocabulary.
    """
    L, M = config.num_layers, config.codebook_size
    if L == 1:
        raise ConfigError("cannot remove a layer from a single-layer id")
    if L == 2:
        raise ConfigError(
            "removing layer 2 of a 2-layer id would drop its terminal token"
        )
    arr = _as_sid_array(sids)
    if arr.shape[1] != L:
        raise ConsistencyError(f"ids have {arr.shape[1]} layers, config expects {L}")
    item_ids = tuple(item_ids) if item_ids is not None else _default_ids(arr.shape[0])
    if len(item_ids) != arr.shape[0]:
        raise ConsistencyError(f"{len(item_ids)} item ids for {arr.shape[0]} ids")
    transformed = tuple(
        VarLenSemanticId.with_layer2_elided(tuple(int(t) for t in row)) for row in arr
    )
    return MitigationOutcome(
        transformed_sids=transformed,
        head_set=frozenset(range(M)),
        capacity_paper_formula=M ** (L - 1),
        capacity_empirical_distinct=len(set(transformed)),
        collisions=_collisions(transformed, item_ids),
    )


def varlen_topk(
    sids,
    hist: LayerHistogram,
    selector: Selector,
    config: QuantizerConfig,
    item_ids=None,
) -> MitigationOutcome:
    """Elide layer 2 for ids whose layer-2 token is in the head set.

    `hist` must be the layer-2 histogram of exactly the ids being
    transformed; tail ids pass through untouched.
    """
    L, M = config.num_layers, config.codebook_size
    if L < 3:
        raise ConfigError("variable-length elision needs at least three layers")
    arr = _as_sid_array(sids)
    if arr.shape[1] != L:
        raise ConsistencyError(f"ids have {arr.shape[1]} layers, config expects {L}")
    if hist.layer != 2 or hist.counts.size != M:
        raise ConsistencyError(
            f"histogram is for layer {hist.layer} with {hist.counts.size} slots, "
            f"expected layer 2 with {M}"
        )
    recomputed = token_histogram(arr, 2, M)
    if not np.array_equal(recomputed.counts, hist.counts):
        raise ConsistencyError("histogram does not match the id multiset")
    item_ids = tuple(item_ids) if item_ids is not None else _default_ids(arr.shape[0])
    if len(item_ids) != arr.shape[0]:
        raise ConsistencyError(f"{len(item_ids)} item ids for {arr.shape[0]} ids")

    head, _ = head_tail_split(hist, selector)
    k = len(head)
    transformed = tuple(
        VarLenSemanticId.with_layer2_elided(sid_row)
        if sid_row[1] in head
        else VarLenSemanticId.full(sid_row)
        for sid_row in (tuple(int(t) for t in row) for row in arr)
    )
    return MitigationOutcome(
        transformed_sids=transformed,
        head_set=head,
        capacity_paper_formula=M**L + k * (M ** (L - 2) - M ** (L - 1)),
        capacity_empirical_distinct=len(set(transformed)),
        collisions=_collisions(transformed, item_ids),
    )


def elision_capacity(config: QuantizerConfig, k: int) -> int:
    """Ids reachable when k head tokens of layer 2 are elided.

    Full-length forms avoid the k head tokens; all shortened forms share one
    layer-2-free shape, so they contribute M**(L-1) once, regardless of k.
    """
    L, M = config.num_layers, config.codebook_size
    if not 0 <= k <= M:
        raise ConfigError(f"k must be in [0, {M}], got {k}")
    if k == 0:
        return M**L
    return (M - k) * M ** (L - 1) + M ** (L - 1)


def post_mitigation_report(
    outcome: MitigationOutcome,
    config: QuantizerConfig,
    head_selector: Selector = Selector.mass(0.5),
) -> PostMitigationReport:
    """Recompute diagnostics over the ids that kept their full length."""
    L, M = config.num_layers, config.codebook_size
    total = len(outcome.transformed_sids)
    if total == 0:
        raise ConfigError("outcome holds no ids")
    full = [v.to_full() for v in outcome.transformed_sids if v.is_full]
    elision_rate = 1.0 - len(full) / total
    if not full:
        return PostMitigationReport(
            elision_rate=elision_rate,
            remaining_layer2=None,
            full_report=None,
            full_length_utilization=None,
        )
    arr = np.asarray(full, dtype=np.int64)
    tail_tokens = np.array(
        sorted(set(range(M)) - set(outcome.head_set)), dtype=np.int64
    )
    layer2 = token_histogram(arr, 2, M)
    remaining = LayerHistogram(2, layer2.counts[tail_tokens])
    try:
        remaining_stats = LayerStats.from_histogram(remaining)
    except UndefinedStatError:
        remaining_stats = None
    k = len(outcome.head_set)
    full_space = (M - k) * M ** (L - 1)
    distinct_full = int(np.unique(arr, axis=0).shape[0])
    return PostMitigationReport(
        elision_rate=elision_rate,
        remaining_layer2=remaining_stats,
        full_report=hourglass_report(arr, config, head_selector),
        full_length_utilization=distinct_full / full_space if full_space else None,
    )
