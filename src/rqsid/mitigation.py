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
    TokenRangeError,
    UndefinedStatError,
    sid_table,
    sid_to_flat_tokens,
)
from .diagnostics import (
    HourglassReport,
    LayerStats,
    Selector,
    head_tail_split,
    hourglass_report,
    row_groups,
    token_histogram,
)


@dataclass(frozen=True)
class MitigationOutcome:
    """Result of an id transform: the new id table, head set, capacities, and
    collisions (flat-token id -> the item ids sharing it, in table order,
    for every id held by at least two items, in order of first appearance)."""

    transformed_sids: np.recarray
    head_set: frozenset[int]
    capacity_paper_formula: int
    capacity_empirical_distinct: int
    collisions: dict[tuple[int, ...], tuple[str, ...]]


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


def _table(sids, config: QuantizerConfig) -> np.recarray:
    """`sids` as an id table; a bare (n, L) token array holds the full-length
    ids of items "0".."n-1"."""
    if isinstance(sids, np.recarray):
        if sids.tokens.shape[1] != config.num_layers:
            raise ConsistencyError(
                f"ids have {sids.tokens.shape[1]} layers, config expects {config.num_layers}"
            )
        return sids
    tokens = np.asarray(sids, dtype=np.int64)
    return sid_table(np.arange(len(tokens)).astype(str), tokens, config)


def _outcome(table, head_set, capacity_paper_formula: int, config) -> MitigationOutcome:
    """Count distinct ids and group collisions with one stable row sort."""
    order, starts = row_groups(table.tokens)
    counts = np.diff(starts, append=len(order))
    first = order[starts]
    shared = np.flatnonzero(counts >= 2)
    shared = shared[np.argsort(first[shared])]
    item_ids = table.item_id
    keys = sid_to_flat_tokens(table[first[shared]], config)
    collisions = {
        tuple(key[:n]): tuple(item_ids[order[starts[g] : starts[g] + counts[g]]].tolist())
        for key, n, g in zip(keys.tolist(), (keys >= 0).sum(axis=1).tolist(), shared.tolist())
    }
    return MitigationOutcome(
        transformed_sids=table,
        head_set=frozenset(head_set),
        capacity_paper_formula=capacity_paper_formula,
        capacity_empirical_distinct=len(counts),
        collisions=collisions,
    )


def exchange_layers(table, a: int, b: int, config: QuantizerConfig) -> np.recarray:
    """Swap token positions a and b (1-based) in every full-length id; an
    involution."""
    table = _table(table, config)
    L = config.num_layers
    if not (1 <= a <= L and 1 <= b <= L):
        raise TokenRangeError(f"layers ({a}, {b}) outside [1, {L}]")
    if not table.is_full.all():
        raise ConsistencyError("layer exchange needs full-length ids")
    tokens = table.tokens.copy()
    tokens[:, [a - 1, b - 1]] = tokens[:, [b - 1, a - 1]]
    return sid_table(table.item_id, tokens, config)


def remove_layer(sids, config: QuantizerConfig) -> MitigationOutcome:
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
    table = _table(sids, config)
    elided = sid_table(table.item_id, table.tokens, config, np.zeros(len(table), dtype=bool))
    return _outcome(elided, range(M), M ** (L - 1), config)


def varlen_topk(
    sids,
    hist: np.ndarray,
    selector: Selector,
    config: QuantizerConfig,
) -> MitigationOutcome:
    """Elide layer 2 for ids whose layer-2 token is in the head set.

    `sids` is an id table of full-length ids, and `hist` must be the layer-2
    count array of exactly those ids; tail ids pass through untouched.
    """
    L, M = config.num_layers, config.codebook_size
    if L < 3:
        raise ConfigError("variable-length elision needs at least three layers")
    table = _table(sids, config)
    if not np.array_equal(token_histogram(table.tokens, 2, M), hist):
        raise ConsistencyError(f"histogram is not the {M}-slot layer-2 count of the ids")

    head, _ = head_tail_split(hist, selector)
    k = len(head)
    is_full = ~np.isin(table.tokens[:, 1], list(head))
    elided = sid_table(table.item_id, table.tokens, config, is_full)
    return _outcome(elided, head, M**L + k * (M ** (L - 2) - M ** (L - 1)), config)


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
    outcome: MitigationOutcome, config: QuantizerConfig
) -> PostMitigationReport:
    """Recompute diagnostics over the ids that kept their full length."""
    L, M = config.num_layers, config.codebook_size
    table = outcome.transformed_sids
    arr = table.tokens[table.is_full]
    elision_rate = 1.0 - len(arr) / len(table)
    if not len(arr):
        return PostMitigationReport(
            elision_rate=elision_rate,
            remaining_layer2=None,
            full_report=None,
            full_length_utilization=None,
        )
    remaining = np.delete(token_histogram(arr, 2, M), list(outcome.head_set))
    try:
        remaining_stats = LayerStats.from_histogram(remaining)
    except UndefinedStatError:
        remaining_stats = None
    k = len(outcome.head_set)
    full_space = (M - k) * M ** (L - 1)
    full_report = hourglass_report(arr, config)
    return PostMitigationReport(
        elision_rate=elision_rate,
        remaining_layer2=remaining_stats,
        full_report=full_report,
        full_length_utilization=full_report.distinct_sids / full_space if full_space else None,
    )
