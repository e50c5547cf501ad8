"""Desk-scale generative-retrieval simulation.

A catalog trie over flat-token id sequences, a Laplace-smoothed count model
with longest-suffix back-off standing in for a trained generator, beam search
with optional trie constraint, and recall / invalid-ratio evaluation split by
head and tail layer-2 tokens.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain

import numpy as np

from .core import (
    ConfigError,
    DataError,
    QuantizerConfig,
    RandomSource,
    TokenRangeError,
)


@dataclass(frozen=True)
class Interaction:
    """One user record: a nonempty item history and the next item chosen."""

    history: tuple[str, ...]
    target: str


@dataclass(frozen=True)
class InteractionDataset:
    records: tuple[Interaction, ...]
    split: str = "train"

    def __post_init__(self) -> None:
        for rec in self.records:
            if not rec.history:
                raise DataError(f"record targeting {rec.target!r} has an empty history")

    def __len__(self) -> int:
        return len(self.records)


@dataclass(frozen=True, eq=False)
class CatalogTrie:
    """Prefix tree over the flat-token sequences of catalog ids, as arrays.

    Nodes are numbered level by level, the root 0 first, and each node's
    children are consecutive and sorted by token: node g's children are the
    nodes `first[g] + 1 .. first[g + 1]`, reached by the tokens
    `token[first[g] : first[g + 1]]`, so edge e leads to node e + 1. Fixed
    and variable-length sequences coexist because layer membership is
    encoded in the flat tokens themselves. Membership is a set of the ids.
    """

    first: np.ndarray
    token: np.ndarray
    ids: frozenset

    def contains(self, tokens) -> bool:
        return tuple(tokens) in self.ids

    def node_of(self, prefix) -> int:
        """The node `prefix` leads to, or -1 when it is not a catalog prefix."""
        node = 0
        for t in prefix:
            lo, hi = self.first[node], self.first[node + 1]
            at = lo + int(self.token[lo:hi].searchsorted(t))
            if at == hi or self.token[at] != t:
                return -1
            node = at + 1
        return int(node)


def build_trie(catalog: dict[str, tuple[int, ...]]) -> CatalogTrie:
    """Trie over a catalog mapping item ids to flat-token sequences."""
    if not catalog:
        raise DataError("cannot build a trie from an empty catalog")
    ids = frozenset(map(tuple, catalog.values()))
    lengths = np.fromiter(map(len, ids), dtype=np.int64, count=len(ids))
    flat = np.fromiter(chain.from_iterable(ids), dtype=np.int64, count=lengths.sum())
    if len(flat) and flat.min() < 0:
        raise TokenRangeError(f"catalog token {flat.min()} is negative")
    v = int(flat.max()) + 1 if len(flat) else 1
    # column d of `tokens` holds each id's token at depth d
    tokens = np.full((len(ids), lengths.max(initial=0)), -1, dtype=np.int64)
    tokens[np.arange(tokens.shape[1]) < lengths[:, None]] = flat
    node = np.zeros(len(ids), dtype=np.int64)  # each id's node at the current depth
    parents, edges = [], []
    num_nodes = 1
    for d in range(tokens.shape[1]):
        deeper = np.flatnonzero(lengths > d)
        keys, inverse = np.unique(node[deeper] * v + tokens[deeper, d], return_inverse=True)
        node[deeper] = num_nodes + inverse
        num_nodes += len(keys)
        parents.append(keys // v)
        edges.append(keys % v)
    first = np.concatenate(parents).searchsorted(np.arange(num_nodes + 1))
    return CatalogTrie(first, np.concatenate(edges), ids)


def _ranges(lo: np.ndarray, size: np.ndarray) -> np.ndarray:
    """The ranges lo[i] .. lo[i] + size[i] - 1, laid end to end."""
    return np.repeat(lo - np.cumsum(size) + size, size) + np.arange(size.sum())


# Records whose n-grams train_seq_model packs and counts in one pass. Each
# pass merges its counts into the model, so only one chunk's token list and
# key arrays are alive at a time.
_COUNT_CHUNK = 256


class SequenceModel:
    """Laplace-smoothed next-token counts with longest-suffix back-off.

    Counts are kept for every context length from 1 up to `order`. A query
    uses the longest context suffix that was ever observed; if none was,
    the distribution is uniform over the flat vocabulary.

    The counts are compiled into arrays. A context of width w is packed
    into one int64 key, its tokens as base-`vocab_size` digits, oldest
    first; each width keeps its contexts' keys sorted, so a batch of
    contexts is matched with one binary search per width. The contexts of
    all widths share CSR arrays: context g, the `offset` of its width plus
    its rank there, was followed `totals[g]` times, by the tokens
    `next[starts[g]:starts[g + 1]]` with the counts `counts[...]` of the
    same slice. A (context, next token) key packs `order + 1` tokens, so
    `vocab_size ** (order + 1)` must fit in an int64.
    """

    def __init__(self, order: int, alpha: float, vocab_size: int):
        if order < 1:
            raise ConfigError(f"order must be >= 1, got {order}")
        if alpha <= 0:
            raise ConfigError(f"alpha must be > 0, got {alpha}")
        if vocab_size < 1:
            raise ConfigError(f"vocab_size must be >= 1, got {vocab_size}")
        if vocab_size ** (order + 1) > np.iinfo(np.int64).max:
            raise ConfigError(
                f"vocab_size {vocab_size} ** (order {order} + 1) does not fit in an int64 key"
            )
        self.order = order
        self.alpha = alpha
        self.vocab_size = vocab_size
        empty = np.zeros(0, dtype=np.int64)
        self._compile([empty] * order, [empty] * order)

    def _compile(self, pairs_by_width, counts_by_width) -> None:
        """Set the lookup arrays from each width's sorted distinct
        (context, next token) keys and their counts."""
        v = self.vocab_size
        self._keys: list[np.ndarray] = []
        self._offset: list[int] = []
        starts, totals = [], []
        num_contexts = num_pairs = 0
        for pairs, counts in zip(pairs_by_width, counts_by_width):
            contexts = pairs // v
            first = np.flatnonzero(np.r_[True, contexts[1:] != contexts[:-1]])[: len(pairs)]
            self._keys.append(contexts[first])
            self._offset.append(num_contexts)
            starts.append(first + num_pairs)
            totals.append(np.add.reduceat(counts, first) if len(first) else counts)
            num_contexts += len(first)
            num_pairs += len(pairs)
        self._starts = np.append(np.concatenate(starts), num_pairs)
        self._totals = np.concatenate(totals)
        self._next = np.concatenate(pairs_by_width) % v
        self._counts = np.concatenate(counts_by_width)

    def _width_pairs(self, w: int) -> tuple[np.ndarray, np.ndarray]:
        """Width w's sorted distinct (context, next token) keys and their counts."""
        first = self._offset[w - 1]
        bounds = self._starts[first : first + len(self._keys[w - 1]) + 1]
        span = slice(bounds[0], bounds[-1])
        pairs = np.repeat(self._keys[w - 1], np.diff(bounds)) * self.vocab_size + self._next[span]
        return pairs, self._counts[span]

    def observe_stream(self, stream) -> None:
        stream = np.array([int(t) for t in stream], dtype=np.int64)
        self._observe(stream, np.array([len(stream)]))

    def _observe(self, tokens: np.ndarray, lengths: np.ndarray) -> None:
        """Count the n-grams of streams laid end to end in `tokens`."""
        v = self.vocab_size
        if len(tokens) and (tokens.min() < 0 or tokens.max() >= v):
            bad = tokens[(tokens < 0) | (tokens >= v)][0]
            raise TokenRangeError(f"stream token {bad} outside [0, {v})")
        # each token's position in its own stream
        pos = np.arange(len(tokens)) - np.repeat(np.cumsum(lengths) - lengths, lengths)
        pairs_by_width, counts_by_width = map(
            list, zip(*(self._width_pairs(w) for w in range(1, self.order + 1)))
        )
        # pairs[j] packs tokens[j : j + w + 1], a width-w context and its next token
        pairs = tokens
        for w in range(1, min(self.order, len(tokens) - 1) + 1):
            pairs = tokens[: len(tokens) - w] * v**w + pairs[1:]
            new = pairs[pos[w:] >= w]
            merged, inverse = np.unique(
                np.concatenate((pairs_by_width[w - 1], new)), return_inverse=True
            )
            counts = np.zeros(len(merged), dtype=np.int64)
            np.add.at(counts, inverse, np.r_[counts_by_width[w - 1], np.ones(len(new), np.int64)])
            pairs_by_width[w - 1], counts_by_width[w - 1] = merged, counts
        self._compile(pairs_by_width, counts_by_width)

    def _prob_rows(self, tails: np.ndarray) -> np.ndarray:
        """Next-token distributions, one row per row of `tails`.

        Each row of `tails` ends with the last tokens of one context; all
        rows hold the same number of them. Tokens outside the vocabulary
        never match, so a context containing one backs off past it.
        """
        v = self.vocab_size
        digits = tails[:, max(0, tails.shape[1] - self.order) :][:, ::-1]  # newest first
        n, width = digits.shape
        bad = (digits < 0) | (digits >= v)
        # keys[:, w - 1] packs each context's last w tokens
        keys = np.cumsum(np.where(bad, 0, digits) * v ** np.arange(width), axis=1)
        keys[np.cumsum(bad, axis=1) > 0] = -1
        match = np.full(n, -1)
        for w in range(1, width + 1):  # shortest first: a longer match overwrites
            table = self._keys[w - 1]
            if not len(table):
                continue
            at = table.searchsorted(keys[:, w - 1])
            hit = table[np.minimum(at, len(table) - 1)] == keys[:, w - 1]
            match[hit] = self._offset[w - 1] + at[hit]

        rows = np.flatnonzero(match >= 0)
        ctx = match[rows]
        lo = self._starts[ctx]
        size = self._starts[ctx + 1] - lo
        seg = _ranges(lo, size)
        counts = np.zeros((n, v))
        counts[np.repeat(rows, size), self._next[seg]] = self._counts[seg]
        totals = np.zeros(n)
        totals[rows] = self._totals[ctx]
        probs = (counts + self.alpha) / (totals + self.alpha * v)[:, None]
        probs[match < 0] = 1.0 / v
        return probs

    def probs(self, context) -> np.ndarray:
        """Distribution over the next flat token; always sums to 1."""
        tail = [int(t) for t in context[max(0, len(context) - self.order) :]]
        return self._prob_rows(np.array(tail, dtype=np.int64).reshape(1, -1))[0]

    def log_probs(self, context) -> np.ndarray:
        return np.log(self.probs(context))


def train_seq_model(
    data: InteractionDataset,
    catalog_sids: dict[str, tuple[int, ...]],
    order: int,
    alpha: float,
) -> SequenceModel:
    """Fit the count model on flattened interaction streams.

    Each record becomes one stream: the history items' flat tokens in order
    with the target item's tokens appended. Streams are counted
    `_COUNT_CHUNK` records at a time.
    """
    if len(data) == 0:
        raise DataError("cannot train a sequence model on an empty dataset")
    vocab = max(max(ts) for ts in catalog_sids.values()) + 1
    model = SequenceModel(order, alpha, vocab)
    for lo in range(0, len(data), _COUNT_CHUNK):
        tokens: list[int] = []
        lengths: list[int] = []
        for rec in data.records[lo : lo + _COUNT_CHUNK]:
            start = len(tokens)
            for item in (*rec.history, rec.target):
                ids = catalog_sids.get(item)
                if ids is None:
                    raise DataError(f"interaction references unknown item {item!r}")
                tokens.extend(ids)
            lengths.append(len(tokens) - start)
        model._observe(np.array(tokens, dtype=np.int64), np.array(lengths))
    return model


def _top(score: np.ndarray, parent_rank: np.ndarray, token: np.ndarray, width: int) -> np.ndarray:
    """Indices of the `width` best candidates by (-score, parent_rank, token).

    Only candidates scoring at least the width-th best score can make the
    cut, so the lexsort runs on those alone; the order is the same as that
    of a full sort.
    """
    if len(score) > width:
        cut = np.partition(score, len(score) - width)[len(score) - width]
        keep = np.flatnonzero(score >= cut)
    else:
        keep = np.arange(len(score))
    order = np.lexsort((token[keep], parent_rank[keep], -score[keep]))
    return keep[order[:width]]


def beam_search(
    model: SequenceModel,
    context,
    beam_width: int,
    max_len: int,
    config: QuantizerConfig,
    trie: CatalogTrie | None = None,
    fixed_prefix=None,
) -> list[tuple[tuple[int, ...], float]]:
    """Beam search over flat tokens.

    A sequence is complete once it emits a last-layer token, which works for
    both full-length and layer-2-elided ids. When a trie is given, expansion
    is restricted to its children, so only catalog prefixes are ever built.
    A fixed prefix is scored as given (log-probability 0) and included in the
    outputs; with a trie, a prefix that is no catalog prefix yields nothing.
    Results are sorted by total log-probability, ties broken by
    lexicographic order of the token sequence.

    Each step scores every (beam, next token) pair as one array. The active
    beams all have the same length, so the lexicographic order of their
    extensions is the order of (the parent's lexicographic rank, the token).
    """
    if beam_width < 1:
        raise ConfigError(f"beam_width must be >= 1, got {beam_width}")
    if max_len < 1:
        raise ConfigError(f"max_len must be >= 1, got {max_len}")
    context = tuple(int(t) for t in context)
    start = tuple(int(t) for t in fixed_prefix) if fixed_prefix else ()
    first_terminal = (config.num_layers - 1) * config.codebook_size
    if start and start[-1] >= first_terminal:
        return [(start, 0.0)]

    if trie is not None:
        node = np.array([trie.node_of(start)])
        if node[0] < 0:
            return []
    # each row of `active` is one beam's sequence after the last `order`
    # context tokens, which the model's back-off lookup reads with it; with a
    # trie, node[b] is the trie node that beam b's sequence leads to
    history = context[max(0, len(context) - model.order) :]
    active = np.array([history + start], dtype=np.int64).reshape(1, -1)
    active_logp = np.zeros(1)
    active_rank = np.zeros(1, dtype=np.int64)
    finished: list[tuple[tuple[int, ...], float]] = []
    for _ in range(max_len):
        seqs = active[:, len(history) :].tolist()
        rows = np.log(model._prob_rows(active))
        # candidate i extends beam row[i] by token[i]; their order is
        # irrelevant, since _top ranks them by a total order
        if trie is None:
            row, token = np.divmod(np.arange(len(active) * model.vocab_size), model.vocab_size)
        else:
            lo = trie.first[node]
            size = trie.first[node + 1] - lo
            row = np.repeat(np.arange(len(node)), size)
            edge = _ranges(lo, size)
            token = trie.token[edge]
        score = active_logp[row] + rows[row, token]
        parent_rank = active_rank[row]

        terminal = np.flatnonzero(token >= first_terminal)
        best = terminal[_top(score[terminal], parent_rank[terminal], token[terminal], beam_width)]
        finished.extend(
            ((*seqs[p], t), logp)
            for p, t, logp in zip(row[best].tolist(), token[best].tolist(), score[best].tolist())
        )

        going = np.flatnonzero(token < first_terminal)
        best = going[_top(score[going], parent_rank[going], token[going], beam_width)]
        if not len(best):
            break
        active = np.column_stack((active[row[best]], token[best]))
        active_logp = score[best]
        active_rank = np.empty(len(best), dtype=np.int64)
        active_rank[np.lexsort((token[best], parent_rank[best]))] = np.arange(len(best))
        if trie is not None:
            node = edge[best] + 1
    # each step keeps its best beam_width terminals, so the best beam_width
    # of their union are the overall best
    finished.sort(key=lambda item: (-item[1], item[0]))
    return finished[:beam_width]


@dataclass(frozen=True)
class EvalReport:
    """Recall and invalid-ratio metrics, overall and per head/tail partition."""

    beam_width: int
    k_list: tuple[int, ...]
    trie_constrained: bool
    record_counts: dict[str, int]
    recall: dict[int, dict[str, float]]
    invalid_ratio: dict[int, dict[str, float]]

    def to_dict(self) -> dict:
        return {
            "beam_width": self.beam_width,
            "k_list": list(self.k_list),
            "trie_constrained": self.trie_constrained,
            "record_counts": dict(self.record_counts),
            "recall": {str(k): dict(v) for k, v in self.recall.items()},
            "invalid_ratio": {str(k): dict(v) for k, v in self.invalid_ratio.items()},
        }


def _partition_of(gold: tuple[int, ...], head_set: frozenset[int], config: QuantizerConfig) -> str:
    """Head when the flat gold id has no layer-2 token (it is elided, or L is
    1) or its layer-2 token is in the head set."""
    M = config.codebook_size
    has_layer2 = len(gold) > 1 and gold[1] < 2 * M
    return "head" if not has_layer2 or gold[1] - M in head_set else "tail"


def evaluate(
    model: SequenceModel,
    test: InteractionDataset,
    catalog: dict[str, tuple[int, ...]],
    config: QuantizerConfig,
    head_set: frozenset[int],
    beam_width: int,
    k_list,
    trie_mode: str = "off",
    given_prefix_layers: int = 0,
) -> EvalReport:
    """Run beam search per test record and score recall@k and invalid ratio.

    `catalog` maps item ids to flat-token ids, as for `train_seq_model`.
    recall@k counts records whose target id appears in the top k sequences.
    invalid_ratio@k is the share of emitted top-k sequences matching no
    catalog item; with the trie constraint on it is zero by construction
    and reported as such. Records are partitioned by the target's layer-2
    token (elided ids count as head).
    """
    if trie_mode not in ("off", "on"):
        raise ConfigError(f"trie_mode must be 'off' or 'on', got {trie_mode!r}")
    k_list = tuple(int(k) for k in k_list)
    if not k_list or any(k < 1 for k in k_list):
        raise ConfigError(f"k_list must hold positive integers, got {k_list}")
    max_k = max(k_list)
    if max_k > beam_width:
        raise ConfigError(f"k={max_k} exceeds beam width {beam_width}")
    if given_prefix_layers < 0:
        raise ConfigError("given_prefix_layers must be >= 0")

    trie = build_trie(catalog)
    constrained = trie_mode == "on"

    groups = ("overall", "head", "tail")
    hits = {k: {g: 0 for g in groups} for k in k_list}
    invalid = {k: {g: 0 for g in groups} for k in k_list}
    emitted = {k: {g: 0 for g in groups} for k in k_list}
    counts = {g: 0 for g in groups}

    for rec in test.records:
        gold = catalog.get(rec.target)
        if gold is None:
            raise DataError(f"test target {rec.target!r} is not in the catalog")
        context: list[int] = []
        for item in rec.history:
            tokens = catalog.get(item)
            if tokens is None:
                raise DataError(f"test history item {item!r} is not in the catalog")
            context.extend(tokens)
        prefix = gold[:given_prefix_layers] if given_prefix_layers else None
        preds = beam_search(
            model,
            context,
            beam_width,
            max_len=config.num_layers,
            config=config,
            trie=trie if constrained else None,
            fixed_prefix=prefix,
        )
        group = _partition_of(gold, head_set, config)
        counts["overall"] += 1
        counts[group] += 1
        top = [seq for seq, _ in preds[:max_k]]
        gold_rank = top.index(gold) if gold in top else max_k
        # invalid_upto[j] counts the invalid sequences among the first j
        invalid_upto = [0]
        for seq in top:
            invalid_upto.append(invalid_upto[-1] + int(not constrained and not trie.contains(seq)))
        for k in k_list:
            shown = min(k, len(top))
            for g in ("overall", group):
                hits[k][g] += int(gold_rank < k)
                invalid[k][g] += invalid_upto[shown]
                emitted[k][g] += shown

    recall = {
        k: {g: (hits[k][g] / counts[g] if counts[g] else 0.0) for g in groups}
        for k in k_list
    }
    invalid_ratio = {
        k: {
            g: (0.0 if constrained else (invalid[k][g] / emitted[k][g] if emitted[k][g] else 0.0))
            for g in groups
        }
        for k in k_list
    }
    return EvalReport(
        beam_width=beam_width,
        k_list=k_list,
        trie_constrained=constrained,
        record_counts=counts,
        recall=recall,
        invalid_ratio=invalid_ratio,
    )


@dataclass(frozen=True)
class InteractionSpec:
    """Knobs of the synthetic interaction generator.

    Item popularity is zipf over catalog order; each item also has one
    designated successor so histories carry learnable structure. A next item
    repeats the successor with probability `repeat_prob`, otherwise it is a
    fresh popularity draw.
    """

    num_records: int
    min_history: int = 2
    max_history: int = 5
    pop_exponent: float = 1.0
    repeat_prob: float = 0.6

    def __post_init__(self) -> None:
        if self.num_records < 1:
            raise ConfigError(f"num_records must be >= 1, got {self.num_records}")
        if self.min_history < 1 or self.max_history < self.min_history:
            raise ConfigError(
                f"history bounds ({self.min_history}, {self.max_history}) invalid"
            )
        if self.pop_exponent <= 0:
            raise ConfigError(f"pop_exponent must be > 0, got {self.pop_exponent}")
        if not 0 <= self.repeat_prob <= 1:
            raise ConfigError(f"repeat_prob must be in [0, 1], got {self.repeat_prob}")


def gen_interactions(
    item_ids,
    spec: InteractionSpec,
    rng: RandomSource,
    split: str = "train",
) -> InteractionDataset:
    """Synthesize interaction records over a catalog."""
    item_ids = [str(i) for i in item_ids]
    if not item_ids:
        raise DataError("cannot generate interactions over an empty catalog")
    n = len(item_ids)
    weights = 1.0 / np.arange(1, n + 1, dtype=np.float64) ** spec.pop_exponent
    popularity = weights / weights.sum()
    succ_rng, walk_rng = rng.split(2)
    successors = succ_rng.generator().choice(n, size=n, p=popularity)
    gen = walk_rng.generator()
    # numpy's own algorithm for gen.choice(n, p=popularity), with the cdf
    # computed once instead of on every draw; the random stream is the same
    cdf = popularity.cumsum()
    cdf /= cdf[-1]

    def draw() -> int:
        return int(cdf.searchsorted(gen.random(), side="right"))

    records = []
    for _ in range(spec.num_records):
        length = int(gen.integers(spec.min_history, spec.max_history + 1)) + 1
        seq = [draw()]
        for _ in range(length - 1):
            if gen.random() < spec.repeat_prob:
                seq.append(int(successors[seq[-1]]))
            else:
                seq.append(draw())
        records.append(
            Interaction(
                history=tuple(item_ids[i] for i in seq[:-1]),
                target=item_ids[seq[-1]],
            )
        )
    return InteractionDataset(tuple(records), split=split)
