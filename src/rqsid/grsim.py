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
    `pairs[starts[g]:starts[g + 1]] % vocab_size` with the counts
    `counts[...]` of the same slice. `pairs` holds g * vocab_size + next
    token, so it is sorted, and one binary search finds the count of any
    (context, next token) pair. A (context, next token) key packs
    `order + 1` tokens, so `vocab_size ** (order + 1)` must fit in an int64.
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
        self._pairs = (np.repeat(np.arange(num_contexts), np.diff(self._starts)) * v
                       + np.concatenate(pairs_by_width) % v)
        self._counts = np.concatenate(counts_by_width)

    def _width_pairs(self, w: int) -> tuple[np.ndarray, np.ndarray]:
        """Width w's sorted distinct (context, next token) keys and their counts."""
        first = self._offset[w - 1]
        bounds = self._starts[first : first + len(self._keys[w - 1]) + 1]
        span = slice(bounds[0], bounds[-1])
        pairs = np.repeat(self._keys[w - 1], np.diff(bounds)) * self.vocab_size + (
            self._pairs[span] % self.vocab_size
        )
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

    def _match(self, tails: np.ndarray) -> np.ndarray:
        """The context each row of `tails` backs off to, or -1 for none.

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
        return match

    def _prob_rows(self, tails: np.ndarray) -> np.ndarray:
        """Next-token distributions, one row per row of `tails` (see `_match`)."""
        v = self.vocab_size
        match = self._match(tails)
        n = len(match)
        rows = np.flatnonzero(match >= 0)
        ctx = match[rows]
        lo = self._starts[ctx]
        size = self._starts[ctx + 1] - lo
        seg = _ranges(lo, size)
        counts = np.zeros((n, v))
        counts[np.repeat(rows, size), self._pairs[seg] % v] = self._counts[seg]
        totals = np.zeros(n)
        totals[rows] = self._totals[ctx]
        counts += self.alpha
        counts /= (totals + self.alpha * v)[:, None]
        counts[match < 0] = 1.0 / v
        return counts

    def _log_probs_at(self, match: np.ndarray, token: np.ndarray) -> np.ndarray:
        """log P(token[i] | context match[i]), with `match` from `_match`;
        each equals its entry of `np.log(_prob_rows(...))`, bit for bit."""
        v = self.vocab_size
        seen = match >= 0
        key = np.where(seen, match * v + token, -1)
        at = self._pairs.searchsorted(key)
        found = at < len(self._pairs)
        found[found] = self._pairs[at[found]] == key[found]
        counts = np.zeros(len(key))
        counts[found] = self._counts[at[found]]
        totals = np.zeros(len(key))
        totals[seen] = self._totals[match[seen]]
        probs = (counts + self.alpha) / (totals + self.alpha * v)
        probs[~seen] = 1.0 / v
        return np.log(probs)

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


# Records that `evaluate` decodes in one `beam_search` call. A step's
# arrays grow with the records decoded together (with the trie off, one
# float per beam and vocabulary token), so the chunk bounds that memory;
# each chunk is scored before the next is decoded. Larger chunks gained
# little speed for more memory on the 2000-item retrieval benchmark.
_DECODE_CHUNK = 8


def _top_mask(table: np.ndarray, width: int) -> np.ndarray:
    """Which entries are among the `width` best of their row of `table`:
    those above the row's width-th best score, then its first entries equal
    to it, column by column."""
    k = table.shape[1] - width
    if k <= 0:
        return np.ones(table.shape, dtype=bool)
    cut = np.partition(table, k, axis=1)[:, [k]]
    above = table > cut
    tie = table == cut
    room = width - above.sum(axis=1, keepdims=True)
    return above | (tie & (np.cumsum(tie, axis=1, dtype=np.int32) <= room))


def _best(score: np.ndarray, record: np.ndarray, num_records: int, width: int) -> np.ndarray:
    """Indices, in index order, of each record's `width` best candidates.

    Each record's candidates are consecutive and in its tie order. Row r of
    the table holds record r's scores, padded with -inf after them, so the
    padding never takes a tie from a candidate.
    """
    size = np.bincount(record, minlength=num_records)
    pos = np.arange(len(score)) - (np.cumsum(size) - size)[record]
    table = np.full((num_records, size.max(initial=0)), -np.inf)
    table[record, pos] = score
    return np.flatnonzero(_top_mask(table, width)[record, pos])


def beam_search(
    model: SequenceModel,
    contexts,
    beam_width: int,
    max_len: int,
    config: QuantizerConfig,
    trie: CatalogTrie | None = None,
    fixed_prefixes=None,
) -> list[list[tuple[tuple[int, ...], float]]]:
    """Beam search over flat tokens, one result list per context.

    A sequence is complete once it emits a last-layer token, which works for
    both full-length and layer-2-elided ids. When a trie is given, expansion
    is restricted to its children, so only catalog prefixes are ever built.
    `fixed_prefixes`, when given, holds one prefix (or None) per context. A
    prefix is scored as given (log-probability 0) and included in the
    outputs; with a trie, a prefix that is no catalog prefix yields nothing.
    Each list is sorted by total log-probability, ties broken by
    lexicographic order of the token sequence.

    All contexts decode in lockstep: each step resolves the back-off of
    every live beam of every context with one model lookup, then scores the
    dense (beam, token) block with the trie off, or only each beam's
    children with it on. A context's beams are kept in lexicographic order,
    so its candidates, enumerated by (beam, token), are in its tie order,
    and its best `beam_width` are selected without a sort.
    """
    if beam_width < 1:
        raise ConfigError(f"beam_width must be >= 1, got {beam_width}")
    if max_len < 1:
        raise ConfigError(f"max_len must be >= 1, got {max_len}")
    if fixed_prefixes is None:
        fixed_prefixes = [None] * len(contexts)
    if len(fixed_prefixes) != len(contexts):
        raise ConfigError(f"{len(fixed_prefixes)} fixed prefixes for {len(contexts)} contexts")
    starts = [tuple(int(t) for t in p) if p else () for p in fixed_prefixes]
    first_terminal = (config.num_layers - 1) * config.codebook_size
    order = model.order
    results: list[list[tuple[tuple[int, ...], float]]] = [[] for _ in starts]

    # the contexts that decode: record r is context live[r]
    live, tails, nodes = [], [], []
    for c, (context, start) in enumerate(zip(contexts, starts)):
        if start and start[-1] >= first_terminal:
            results[c] = [(start, 0.0)]
            continue
        node = trie.node_of(start) if trie is not None else 0
        if node < 0:
            continue
        tail = [int(t) for t in context[max(0, len(context) - order) :]] + list(start)
        tails.append([-1] * (order - len(tail)) + tail[max(0, len(tail) - order) :])
        nodes.append(node)
        live.append(c)

    # beam b belongs to record rec[b], and gen[b] holds what it emitted
    # after its prefix, padded with -1, which sorts a sequence before its
    # extensions as tuples do. tail[b] holds the last `order` tokens the
    # model reads, padded on the left with -1, which never matches; with a
    # trie, node[b] is the node its sequence leads to
    rec = np.arange(len(live))
    gen = np.full((len(live), max_len), -1, dtype=np.int64)
    tail = np.array(tails, dtype=np.int64).reshape(len(live), order)
    logp = np.zeros(len(live))
    node = np.array(nodes, dtype=np.int64)
    done_rec, done_seq, done_logp = [], [], []
    for depth in range(max_len):
        if not len(rec):
            break
        # each record's best terminal candidates, then its best others, as
        # (beam, token, score, node) with its beams in lexicographic order
        parts = []
        if trie is None:
            scores = model._prob_rows(tail)
            np.log(scores, out=scores)
            scores += logp[:, None]
            # row r of a table holds record r's beams' score rows end to
            # end, padded with -inf after them, so padding takes no tie
            size = np.bincount(rec, minlength=len(live))
            first = np.cumsum(size) - size
            slot = np.arange(len(rec)) - first[rec]
            for lo, hi in ((first_terminal, model.vocab_size), (0, first_terminal)):
                table = np.full((len(live), size.max(), hi - lo), -np.inf)
                table[rec, slot] = scores[:, lo:hi]
                r, at = np.nonzero(_top_mask(table.reshape(len(live), -1), beam_width))
                beam, token = np.divmod(at, hi - lo)
                beam += first[r]
                parts.append((beam, token + lo, scores[beam, token + lo], None))
        else:
            lo = trie.first[node]
            size = trie.first[node + 1] - lo
            beam = np.repeat(np.arange(len(node)), size)
            edge = _ranges(lo, size)
            token = trie.token[edge]
            score = logp[beam] + model._log_probs_at(model._match(tail)[beam], token)
            terminal = token >= first_terminal
            for part in (np.flatnonzero(terminal), np.flatnonzero(~terminal)):
                best = part[_best(score[part], rec[beam[part]], len(live), beam_width)]
                parts.append((beam[best], token[best], score[best], edge[best] + 1))

        (done_beam, done_token, done_score, _), (beam, token, logp, node) = parts
        done = gen[done_beam]
        done[:, depth] = done_token
        done_rec.append(rec[done_beam])
        done_seq.append(done)
        done_logp.append(done_score)
        rec = rec[beam]
        gen = gen[beam]
        gen[:, depth] = token
        tail = np.column_stack((tail[beam, 1:], token))

    if done_rec:
        # each step kept each record's best beam_width terminals, so the
        # best beam_width of their union are the record's overall best
        rec, seq, logp = map(np.concatenate, (done_rec, done_seq, done_logp))
        ranked = np.lexsort((*seq[:, ::-1].T, -logp, rec))
        ranked_rec = rec[ranked]
        keep = ranked[np.arange(len(ranked)) - ranked_rec.searchsorted(ranked_rec) < beam_width]
        lengths = (seq[keep] >= 0).sum(axis=1)
        for r, s, n, p in zip(rec[keep].tolist(), seq[keep].tolist(), lengths.tolist(),
                              logp[keep].tolist()):
            results[live[r]].append((starts[live[r]] + tuple(s[:n]), p))
    return results


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
    """Decode the test records in chunks and score recall@k and invalid ratio.

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

    for lo in range(0, len(test), _DECODE_CHUNK):
        golds, contexts = [], []
        for rec in test.records[lo : lo + _DECODE_CHUNK]:
            gold = catalog.get(rec.target)
            if gold is None:
                raise DataError(f"test target {rec.target!r} is not in the catalog")
            context: list[int] = []
            for item in rec.history:
                tokens = catalog.get(item)
                if tokens is None:
                    raise DataError(f"test history item {item!r} is not in the catalog")
                context.extend(tokens)
            golds.append(gold)
            contexts.append(context)
        decoded = beam_search(
            model,
            contexts,
            beam_width,
            max_len=config.num_layers,
            config=config,
            trie=trie if constrained else None,
            fixed_prefixes=[gold[:given_prefix_layers] for gold in golds],
        )
        for gold, preds in zip(golds, decoded):
            group = _partition_of(gold, head_set, config)
            counts["overall"] += 1
            counts[group] += 1
            top = [seq for seq, _ in preds[:max_k]]
            gold_rank = top.index(gold) if gold in top else max_k
            # invalid_upto[j] counts the invalid sequences among the first j
            invalid_upto = [0]
            for seq in top:
                invalid_upto.append(
                    invalid_upto[-1] + int(not constrained and not trie.contains(seq))
                )
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
