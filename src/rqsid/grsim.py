"""Desk-scale generative-retrieval simulation.

Over a catalog that is an id table, read as its flat-token matrix: a catalog
trie, a Laplace-smoothed count model with longest-suffix back-off standing in
for a trained generator, beam search with optional trie constraint, and
recall / invalid-ratio evaluation split by head and tail layer-2 tokens.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain
from typing import NamedTuple

import numpy as np

from .core import (
    ConfigError,
    DataError,
    QuantizerConfig,
    RandomSource,
    TokenRangeError,
    sid_to_flat_tokens,
)


@dataclass(frozen=True, eq=False)
class InteractionDataset:
    """User records over the rows of an id table, as two int64 arrays.

    `items` holds each record's history rows followed by its target row,
    record after record; `sizes` holds each record's item count, at least
    2 since a history is nonempty.
    """

    items: np.ndarray
    sizes: np.ndarray
    split: str = "train"

    def __post_init__(self) -> None:
        items, sizes = (np.array(a, dtype=np.int64) for a in (self.items, self.sizes))
        if items.ndim != 1 or sizes.ndim != 1 or sizes.sum() != len(items):
            raise DataError(f"{self.split} record sizes do not sum to the 1-D item count")
        if (sizes < 2).any():
            raise DataError(f"{self.split} record {np.argmax(sizes < 2)} has an empty history")
        if (items < 0).any():
            raise DataError(f"{self.split} item row {items.min()} is negative")
        items.flags.writeable = sizes.flags.writeable = False
        object.__setattr__(self, "items", items)
        object.__setattr__(self, "sizes", sizes)

    def __len__(self) -> int:
        return len(self.sizes)


def _check_rows(data: InteractionDataset, catalog: np.recarray) -> None:
    """Reject a record row past the end of the catalog."""
    if len(data.items) and data.items.max() >= len(catalog):
        raise DataError(f"{data.split} item row {data.items.max()} is not in the catalog")


@dataclass(frozen=True, eq=False)
class CatalogTrie:
    """Prefix tree over the flat-token ids of a catalog, as arrays.

    Nodes are numbered level by level, the root 0 first, and each node's
    children are consecutive and sorted by token: node g's children are the
    nodes `first[g] + 1 .. first[g + 1]`, reached by the tokens
    `token[first[g] : first[g + 1]]`, so edge e leads to node e + 1. Fixed
    and variable-length ids coexist because layer membership is encoded in
    the flat tokens themselves. Ids are self-delimiting, so a sequence is a
    catalog id exactly when `walk` finds it and it ends in a last-layer
    token. Edge e's key `parent * vocab + token[e]` is the e-th sorted key.
    """

    first: np.ndarray
    token: np.ndarray
    keys: np.ndarray
    vocab: int

    def walk(self, seqs: np.ndarray, lengths: np.ndarray) -> np.ndarray:
        """The node each sequence leads to, or -1 when it is no catalog prefix.

        Sequence i is the first `lengths[i]` entries of row i of `seqs`; a
        token outside the vocabulary, -1 included, never matches. A depth is
        one binary search of the edge keys.
        """
        v, keys = self.vocab, self.keys
        # an outside token, or any token below node -1, makes a negative key
        seqs = np.where((seqs >= 0) & (seqs < v), seqs, -len(self.first) * v)
        path = np.zeros((len(seqs), seqs.shape[1] + 1), dtype=np.int64)  # node at each depth
        for d in range(seqs.shape[1]):
            key = path[:, d] * v + seqs[:, d]
            at = keys.searchsorted(key)
            path[:, d + 1] = np.where(keys[np.minimum(at, len(keys) - 1)] == key, at + 1, -1)
        return path[np.arange(len(seqs)), lengths]


def build_trie(catalog: np.recarray, config: QuantizerConfig) -> CatalogTrie:
    """Trie over the flat-token ids of an id table."""
    if not len(catalog):
        raise DataError("cannot build a trie from an empty catalog")
    tokens = sid_to_flat_tokens(catalog, config)
    v = config.num_layers * config.codebook_size
    node = np.zeros(len(tokens), dtype=np.int64)  # each id's node at the current depth
    keys = []
    num_nodes = 1
    for d in range(tokens.shape[1]):
        deeper = np.flatnonzero(tokens[:, d] >= 0)
        depth_keys, inverse = np.unique(node[deeper] * v + tokens[deeper, d], return_inverse=True)
        node[deeper] = num_nodes + inverse
        num_nodes += len(depth_keys)
        keys.append(depth_keys)
    keys = np.concatenate(keys)
    first = (keys // v).searchsorted(np.arange(num_nodes + 1))
    return CatalogTrie(first, keys % v, keys, v)


def _streams(flat: np.ndarray, rows: np.ndarray, sizes) -> tuple[np.ndarray, np.ndarray]:
    """The flat tokens of the ids in `rows` laid end to end, and the token
    count of each run of `sizes[i]` consecutive ids."""
    tokens = flat[rows]
    present = tokens >= 0
    upto = np.cumsum(present.sum(axis=1))[np.cumsum(sizes, dtype=np.int64) - 1]
    return tokens[present], np.diff(upto, prepend=0)


def _pad(seqs) -> tuple[np.ndarray, np.ndarray]:
    """Sequences as the rows of a matrix padded with -1, and their lengths."""
    lengths = np.fromiter(map(len, seqs), dtype=np.int64, count=len(seqs))
    padded = np.full((len(seqs), lengths.max(initial=0)), -1, dtype=np.int64)
    tokens = np.fromiter(chain.from_iterable(seqs), dtype=np.int64, count=int(lengths.sum()))
    padded[np.arange(padded.shape[1]) < lengths[:, None]] = tokens
    return padded, lengths


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

    The counts are one sorted array. A context of any width is packed into
    one int64 key, its tokens plus 1 as base-`vocab_size + 1` digits,
    oldest first, so no two widths share a key and 0 is no context. Each
    observed (context, next token) pair is the key `context * vocab_size +
    next` in the sorted `pairs`, with the count `counts[...]`. `contexts`
    holds the distinct context keys of `pairs` in order: context g was
    followed `totals[g]` times, by the pairs `starts[g]:starts[g + 1]`. A
    batch of contexts is matched with one binary search of all their suffix
    keys, and each matched context's pairs fill its row of a dense
    (context, next token) block. A pair key is below `(vocab_size + 1) **
    order * vocab_size`, which must fit in an int64.
    """

    def __init__(self, order: int, alpha: float, vocab_size: int):
        if order < 1:
            raise ConfigError(f"order must be >= 1, got {order}")
        if not (math.isfinite(alpha) and alpha > 0):
            raise ConfigError(f"alpha must be finite and > 0, got {alpha}")
        if vocab_size < 1:
            raise ConfigError(f"vocab_size must be >= 1, got {vocab_size}")
        if (vocab_size + 1) ** order * vocab_size > np.iinfo(np.int64).max:
            raise ConfigError(
                f"(vocab_size {vocab_size} + 1) ** order {order} * vocab_size does not fit"
                " in an int64 key"
            )
        self.order = order
        self.alpha = alpha
        self.vocab_size = vocab_size
        self._pairs = self._counts = np.zeros(0, dtype=np.int64)
        self._compile()

    def _compile(self) -> None:
        """Set `_contexts`, `_starts` and `_totals` from `_pairs` and `_counts`."""
        contexts = self._pairs // self.vocab_size
        first = np.flatnonzero(np.r_[True, contexts[1:] != contexts[:-1]])[: len(contexts)]
        self._contexts = contexts[first]
        self._starts = np.append(first, len(contexts))
        self._totals = np.add.reduceat(self._counts, first) if len(first) else self._counts

    def _suffix_keys(self, tails: np.ndarray) -> np.ndarray:
        """The suffix keys of each row's tokens, oldest first (see `_push`)."""
        keys = np.tile(np.r_[0, [-1] * self.order], (len(tails), 1))  # no token yet
        for column in tails.T[-self.order :]:
            keys = self._push(keys, column)
        return keys

    def _push(self, keys: np.ndarray, tokens: np.ndarray) -> np.ndarray:
        """The suffix keys of each context of `keys` followed by its token:
        column w holds the key of the last w tokens, the width-(w - 1) key
        before it times `vocab_size + 1` plus the token plus 1, or a negative
        number, which never matches, where the context is shorter or one of
        them lies outside the vocabulary."""
        digit = tokens[:, None] + 1
        out = np.zeros_like(keys)
        out[:, 1:] = np.where((digit >= 1) & (digit <= self.vocab_size),
                              keys[:, :-1] * (self.vocab_size + 1) + digit, -1)
        return out

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
        follows = np.flatnonzero(pos[1:] > 0)  # tokens[j + 1] continues tokens[j]'s stream
        # row i holds the `order` tokens up to tokens[follows[i]], -1 before its stream
        back = np.arange(self.order)[::-1]
        tails = np.where(pos[follows, None] >= back,
                         tokens.take(follows[:, None] - back, mode="clip"), -1)
        contexts = self._suffix_keys(tails)
        new = (contexts * v + tokens[follows + 1, None])[contexts > 0]
        self._pairs, inverse = np.unique(np.r_[self._pairs, new], return_inverse=True)
        counts = np.zeros(len(self._pairs), dtype=np.int64)
        np.add.at(counts, inverse, np.r_[self._counts, np.ones(len(new), np.int64)])
        self._counts = counts
        self._compile()

    def _match(self, keys: np.ndarray) -> np.ndarray:
        """The context each row of suffix keys (see `_push`) backs off to,
        or -1 for none."""
        at = self._contexts.searchsorted(keys)
        hit = at < len(self._contexts)
        hit[hit] = self._contexts[at[hit]] == keys[hit]
        longest = (hit * np.arange(keys.shape[1])).max(axis=1)  # 0 when none hit
        return np.where(longest > 0, at[np.arange(len(at)), longest], -1)

    def _prob_rows(self, keys: np.ndarray) -> np.ndarray:
        """Next-token distributions, one row per row of suffix keys."""
        v = self.vocab_size
        match = self._match(keys)
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

    def probs(self, context) -> np.ndarray:
        """Distribution over the next flat token; always sums to 1."""
        tokens = np.array([int(t) for t in context], dtype=np.int64).reshape(1, -1)
        return self._prob_rows(self._suffix_keys(tokens))[0]

    def log_probs(self, context) -> np.ndarray:
        return np.log(self.probs(context))


def train_seq_model(
    data: InteractionDataset,
    catalog: np.recarray,
    config: QuantizerConfig,
    order: int,
    alpha: float,
) -> SequenceModel:
    """Fit the count model on flattened interaction streams.

    `catalog` is the id table the records index. Each record becomes one
    stream: the history items' flat tokens in order with the target item's
    tokens appended. The vocabulary ends at the largest flat token of the
    catalog. Streams are counted `_COUNT_CHUNK` records at a time.
    """
    if len(data) == 0:
        raise DataError("cannot train a sequence model on an empty dataset")
    _check_rows(data, catalog)
    flat = sid_to_flat_tokens(catalog, config)
    model = SequenceModel(order, alpha, int(flat.max()) + 1)
    starts = np.r_[0, np.cumsum(data.sizes)]
    for lo in range(0, len(data), _COUNT_CHUNK):
        hi = min(lo + _COUNT_CHUNK, len(data))
        model._observe(*_streams(flat, data.items[starts[lo] : starts[hi]], data.sizes[lo:hi]))
    return model


# `evaluate` decodes a chunk of decode states per `beam_search` call, and
# each chunk is scored before the next is decoded. A record's decode state is
# all its search reads: the last `order` tokens of its context and its fixed
# prefix, so records that share a state share its rows. A step scores up to
# beam_width * vocab_size floats per state in either mode, so a chunk holds
# as many states as keep that block within _DECODE_FLOATS, at least one and
# at most _DECODE_CHUNK. At beam 50 that is 32 states at V=48 (the 2000-item
# retrieval benchmark, where the cost per call dominates) and 6 at V=768.
_DECODE_CHUNK = 32
_DECODE_FLOATS = 1 << 18


def _keep(score: np.ndarray, row: np.ndarray, cut: np.ndarray, width: int) -> np.ndarray:
    """Which candidates are among the `width` best of their row: those
    above the row's cut, its width-th best score, then its first ones equal
    to it. Candidates come grouped by row, in each row's tie order."""
    above = score > cut[row]
    tie = score == cut[row]
    room = width - np.bincount(row[above], minlength=len(cut))
    ties = np.bincount(row[tie], minlength=len(cut))
    nth = np.cumsum(tie) - (np.cumsum(ties) - ties)[row]  # a tie's count within its row
    return above | (tie & (nth <= room[row]))


def _cut(table: np.ndarray, width: int) -> np.ndarray:
    """Each row's width-th best entry, or -inf when it has no more than
    `width`; `table` is partitioned in place."""
    k = table.shape[1] - width
    if k <= 0:
        return np.full(len(table), -np.inf)
    table.partition(k, axis=1)
    return table[:, k].copy()


class Decoded(NamedTuple):
    """Ranked sequences of a batch: row i is a sequence of context
    `context[i]`, its tokens left-packed in `tokens[i]` and padded with -1,
    and its total log-probability `logp[i]`."""

    context: np.ndarray
    tokens: np.ndarray
    logp: np.ndarray


def beam_search(
    model: SequenceModel,
    contexts,
    beam_width: int,
    max_len: int,
    config: QuantizerConfig,
    trie: CatalogTrie | None = None,
    fixed_prefixes=None,
) -> Decoded:
    """Beam search over flat tokens, up to `beam_width` rows per context:
    each context's rows are consecutive, contexts in order, and ranked by
    total log-probability, ties broken by lexicographic token order.

    A sequence is complete once it emits a last-layer token, which works for
    both full-length and layer-2-elided ids. When a trie is given, expansion
    is restricted to its children, so only catalog prefixes are ever built.
    `fixed_prefixes`, when given, holds one prefix (or None) per context. A
    prefix is scored as given (log-probability 0) and included in the
    outputs: one that ends in a last-layer token is its context's only row,
    and with a trie, one that is no catalog prefix yields no row.

    All contexts decode in lockstep: each step scores the dense (beam,
    token) block of every live beam of every context with one model lookup.
    With the trie off every entry competes, and every context holds the same
    number of beams, in consecutive rows; with it on, only each beam's
    children compete. A context's beams are kept in lexicographic order, so
    its candidates, enumerated by (beam, token), are in its tie order, and
    its best `beam_width` are selected without a sort. Each beam carries
    the suffix keys the model looks up, pushing one token per step.
    """
    if beam_width < 1:
        raise ConfigError(f"beam_width must be >= 1, got {beam_width}")
    if max_len < 1:
        raise ConfigError(f"max_len must be >= 1, got {max_len}")
    if fixed_prefixes is None:
        fixed_prefixes = [None] * len(contexts)
    if len(fixed_prefixes) != len(contexts):
        raise ConfigError(f"{len(fixed_prefixes)} fixed prefixes for {len(contexts)} contexts")
    first_terminal = (config.num_layers - 1) * config.codebook_size
    prefix, plen = _pad([() if p is None else p for p in fixed_prefixes])
    # seq[c] holds context c's prefix, padded with -1 to the longest output,
    # which sorts a sequence before its extensions as tuples do
    seq = np.pad(prefix, ((0, 0), (0, max_len)), constant_values=-1)
    node = (trie.walk(prefix, plen) if trie is not None and prefix.size
            else np.zeros(len(prefix), dtype=np.int64))
    ended = seq[np.arange(len(seq)), plen - 1] >= first_terminal  # a prefix of 0 reads -1
    live = np.flatnonzero(~ended & (node >= 0))
    # each decoding context's last `order` tokens with its prefix, newest first
    tails, _ = _pad([[*contexts[c], *prefix[c, : plen[c]]][: -model.order - 1 : -1] for c in live])

    # beam b decodes context ctx[b], and seq[b] holds its sequence, whose
    # token at this depth goes to column plen[ctx[b]] + depth; keys[b] holds
    # the suffix keys the model reads, and with a trie, node[b] is the node
    # its sequence leads to. A prefix that ended is its context's only row
    done = [(np.flatnonzero(ended), seq[ended], np.zeros(ended.sum()))]
    ctx, seq, logp, node = live, seq[live], np.zeros(len(live)), node[live]
    keys = model._suffix_keys(tails[:, ::-1])  # -1 padding, now on the left, never matches
    for depth in range(max_len):
        if not len(ctx):
            break
        scores = model._prob_rows(keys)
        np.log(scores, out=scores)
        scores += logp[:, None]
        # each context's best terminal candidates, then its best others, as
        # (beam, token, score, node) with its beams in lexicographic order
        parts = []
        if trie is None:
            # every context holds the same number of beams, in consecutive
            # rows, so context r's scores are block r of a view, enumerated
            # by (beam, token); only its cut is found on a copy
            per_ctx = len(seq) // len(live)
            for lo, hi in ((first_terminal, model.vocab_size), (0, first_terminal)):
                block = scores[:, lo:hi].reshape(len(live), per_ctx, hi - lo)
                cut = _cut(block.reshape(len(live), per_ctx * (hi - lo), copy=True), beam_width)
                r, beam, token = np.nonzero(block >= cut[:, None, None])
                score = block[r, beam, token]
                best = _keep(score, r, cut, beam_width)
                parts.append((beam[best] + r[best] * per_ctx, token[best] + lo, score[best], None))
            del block
        else:
            lo = trie.first[node]
            size = trie.first[node + 1] - lo
            beam = np.repeat(np.arange(len(node)), size)
            edge = _ranges(lo, size)
            token = trie.token[edge]
            score = scores[beam, token]
            terminal = token >= first_terminal
            for part in (np.flatnonzero(terminal), np.flatnonzero(~terminal)):
                # row c holds context c's scores, padded with -inf, which
                # lowers its cut only where it has no more than beam_width
                owner = ctx[beam[part]]
                count = np.bincount(owner, minlength=len(contexts))
                table = np.full((len(contexts), count.max(initial=0)), -np.inf)
                table[owner, np.arange(len(part)) - (np.cumsum(count) - count)[owner]] = score[part]
                best = part[_keep(score[part], owner, _cut(table, beam_width), beam_width)]
                parts.append((beam[best], token[best], score[best], edge[best] + 1))
        del scores  # before the next step allocates its block

        (done_beam, done_token, done_score, _), (beam, token, logp, node) = parts
        finished = seq[done_beam]
        finished[np.arange(len(finished)), plen[ctx[done_beam]] + depth] = done_token
        done.append((ctx[done_beam], finished, done_score))
        ctx, seq = ctx[beam], seq[beam]
        seq[np.arange(len(seq)), plen[ctx] + depth] = token
        keys = model._push(keys[beam], token)

    # each step kept each context's best beam_width terminals, so the best
    # beam_width of their union are the context's overall best
    context, seq, logp = map(np.concatenate, zip(*done))
    ranked = np.lexsort((*seq[:, ::-1].T, -logp, context))
    by = context[ranked]
    keep = ranked[np.arange(len(ranked)) - by.searchsorted(by) < beam_width]
    return Decoded(context[keep], seq[keep], logp[keep])


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


def evaluate(
    model: SequenceModel,
    test: InteractionDataset,
    catalog: np.recarray,
    config: QuantizerConfig,
    head_set: frozenset[int],
    beam_width: int,
    k_list,
    trie_mode: str = "off",
    given_prefix_layers: int = 0,
) -> EvalReport:
    """Decode each distinct decode state of the test records once, in
    chunks, and score recall@k and invalid ratio.

    `catalog` is the id table the records index, as for `train_seq_model`.
    A record's decode state is its context's last `model.order` tokens and
    its fixed prefix; `beam_search` reads nothing else of it, so each record
    is scored against its state's rows. recall@k counts records whose target
    id appears in the top k sequences. invalid_ratio@k is the share of
    emitted top-k sequences matching no catalog item; with the trie
    constraint on it is zero by construction and reported as such. Records
    are partitioned by the target's layer-2 token: elided ids, and every id
    when L is 1, count as head. With the trie off, each chunk's top-k
    sequences are walked as one token matrix.
    """
    if trie_mode not in ("off", "on"):
        raise ConfigError(f"trie_mode must be 'off' or 'on', got {trie_mode!r}")
    k_list = tuple(int(k) for k in k_list)
    if not k_list or any(k < 1 for k in k_list):
        raise ConfigError(f"k_list must hold positive integers, got {k_list}")
    max_k = max(k_list)
    if max_k > beam_width:
        raise ConfigError(f"k={max_k} exceeds beam width {beam_width}")
    if not 0 <= given_prefix_layers <= config.num_layers:
        raise ConfigError(f"given_prefix_layers must be in [0, {config.num_layers}]")

    _check_rows(test, catalog)

    trie = build_trie(catalog, config)
    constrained = trie_mode == "on"
    L = config.num_layers
    flat = sid_to_flat_tokens(catalog, config)
    last = np.cumsum(test.sizes) - 1
    target = test.items[last]
    gold = flat[target]
    # each record's decode state: its context's last `order` tokens, -1
    # before the context starts, then its prefix, the first given layers of
    # its gold id, -1 padded; state[i] is record i's row of `states`
    tokens, lengths = _streams(flat, np.delete(test.items, last), test.sizes - 1)
    ends = np.cumsum(lengths)[:, None]
    pos = ends - model.order + np.arange(model.order)
    tails = np.where(pos >= ends - lengths[:, None], tokens.take(pos, mode="clip"), -1)
    states, state = np.unique(np.hstack((tails, gold[:, :given_prefix_layers])), axis=0,
                              return_inverse=True)
    contexts, prefixes = ([[t for t in row if t >= 0] for row in part.tolist()]
                          for part in np.hsplit(states, [model.order]))
    # state s's records are by_state[first[s] : first[s + 1]]
    by_state = np.argsort(state, kind="stable")
    first = state[by_state].searchsorted(np.arange(len(states) + 1))
    ks = np.array(k_list)

    # per decode state: how many top sequences it shows, and for each k how
    # many of its first k match no catalog id; per test record: the rank of
    # its gold id among its state's top sequences (max_k when absent)
    shown = np.zeros(len(states), dtype=np.int64)
    invalid = np.zeros((len(states), len(ks)), dtype=np.int64)
    gold_rank = np.full(len(test), max_k)
    chunk = min(_DECODE_CHUNK, max(1, _DECODE_FLOATS // (beam_width * model.vocab_size)))
    for lo in range(0, len(states), chunk):
        hi = min(lo + chunk, len(states))
        decoded = beam_search(model, contexts[lo:hi], beam_width, max_len=L, config=config,
                              trie=trie if constrained else None, fixed_prefixes=prefixes[lo:hi])
        # each state's rows are consecutive and ranked; keep its top max_k
        count = np.bincount(decoded.context, minlength=hi - lo)
        rank = np.arange(len(decoded.context)) - (np.cumsum(count) - count)[decoded.context]
        top = rank < max_k
        row_state, seqs, rank = decoded.context[top] + lo, decoded.tokens[top], rank[top]
        shown[lo:hi] = np.minimum(count, max_k)
        # join (state, gold id) of each of the chunk's records to (state,
        # sequence) of its rows; a sequence decoded with a prefix may be
        # longer than L tokens, so gold ids are padded to the rows' width
        records = by_state[first[lo] : first[hi]]
        golds = np.full((len(records), seqs.shape[1]), -1)
        golds[:, :L] = gold[records]
        keys = np.column_stack((np.r_[row_state, state[records]], np.vstack((seqs, golds))))
        distinct, key = np.unique(keys, axis=0, return_inverse=True)
        rank_of = np.full(len(distinct), max_k)
        rank_of[key[: len(seqs)]] = rank
        gold_rank[records] = rank_of[key[len(seqs) :]]
        if not constrained:
            # each top sequence ends in a last-layer token, so it is a
            # catalog id exactly when the trie walks it
            bad = trie.walk(seqs, (seqs >= 0).sum(axis=1)) < 0
            np.add.at(invalid, row_state[bad], rank[bad, None] < ks)
    shown, invalid = shown[state], invalid[state]

    head = (np.ones(len(test), dtype=bool) if L == 1
            else ~catalog.is_full[target] | np.isin(catalog.tokens[target, 1], sorted(head_set)))
    # rows: overall, head, tail; columns: k_list. An empty group scores 0
    member = np.array([np.ones_like(head), head, ~head], dtype=np.int64)
    counts = member.sum(axis=1)
    recall = member @ (gold_rank[:, None] < ks) / np.maximum(counts, 1)[:, None]
    emitted = member @ np.minimum(ks, shown[:, None])
    invalid_ratio = (np.zeros(emitted.shape) if constrained
                     else member @ invalid / np.maximum(emitted, 1))
    groups = ("overall", "head", "tail")
    return EvalReport(
        beam_width=beam_width,
        k_list=k_list,
        trie_constrained=constrained,
        record_counts=dict(zip(groups, counts.tolist())),
        recall={k: dict(zip(groups, col)) for k, col in zip(k_list, recall.T.tolist())},
        invalid_ratio={k: dict(zip(groups, col))
                       for k, col in zip(k_list, invalid_ratio.T.tolist())},
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
        if not (math.isfinite(self.pop_exponent) and self.pop_exponent > 0):
            raise ConfigError(f"pop_exponent must be finite and > 0, got {self.pop_exponent}")
        if not 0 <= self.repeat_prob <= 1:
            raise ConfigError(f"repeat_prob must be in [0, 1], got {self.repeat_prob}")


_LOW_HALF = np.uint64(0xFFFFFFFF)


def _lemire_sizes(words: np.ndarray, shift: int, k: int, low: int) -> np.ndarray:
    """The sizes `low + integers(0, k)` that Lemire's method draws from the
    32-bit half at bit `shift` of each word, or -1 where it rejects the half
    and draws another."""
    m = words >> np.uint64(shift)
    m &= _LOW_HALF
    m *= np.uint64(k)
    rejected = m & _LOW_HALF < (2**32 - k) % k
    m >>= np.uint64(32)
    sizes = m.view(np.int64)
    sizes += low
    sizes[rejected] = -1
    return sizes


def gen_interactions(
    num_items: int,
    spec: InteractionSpec,
    rng: RandomSource,
    split: str = "train",
) -> InteractionDataset:
    """Synthesize interaction records over the rows of a `num_items`-row catalog.

    The records are those of numpy's scalar draws: per record, `integers(
    min_history, max_history + 1)` for its history length and a popularity
    draw `choice(n, p=popularity)` for its first item, then per step a
    `random()` that repeats the last item's successor when below
    `repeat_prob` and is otherwise followed by a popularity draw. They are
    replayed from one bulk read of the PCG64 words: `random()` is a word's
    top 53 bits, and `integers` is Lemire's method on the low half of a
    fresh word, whose high half the bit generator caches for its next
    `integers` call. So the words a record reads, at most `2 * max_history
    + 2` and one more per rejected half, depend on the words alone: one walk
    finds each record's size and first word, and the items are then drawn a
    history column at a time.
    """
    n = int(num_items)
    if n < 1:
        raise DataError("cannot generate interactions over an empty catalog")
    weights = 1.0 / np.arange(1, n + 1, dtype=np.float64) ** spec.pop_exponent
    cdf = (weights / weights.sum()).cumsum()  # the popularity cdf, as `choice` makes it
    cdf /= cdf[-1]
    succ_rng, walk_rng = rng.split(2)
    successors = cdf.searchsorted(succ_rng.generator().random(n), side="right")
    bits = walk_rng.generator().bit_generator
    state = bits.state
    k, low = spec.max_history - spec.min_history + 1, spec.min_history + 1
    words = bits.random_raw(spec.num_records * (2 * spec.max_history + 2))
    counted = 0
    while True:
        low_sizes, high_sizes = (_lemire_sizes(words, shift, k, low) for shift in (0, 32))
        rejected = sum(np.count_nonzero(s[counted:] < 0) for s in (low_sizes, high_sizes))
        if not rejected:
            break
        counted = len(words)
        words = np.append(words, bits.random_raw(rejected))  # a word per rejected half
    words >>= np.uint64(11)
    uniform = words * 2.0**-53  # each word's random()
    hop = memoryview(np.add(uniform >= spec.repeat_prob, 1, dtype=np.uint8))  # words a step reads
    low_sizes, high_sizes = memoryview(low_sizes), memoryview(high_sizes)
    # the size from the high half the bit generator holds cached, 0 for none
    cache = np.array([state["uinteger"]], dtype=np.uint64)
    cached = state["has_uint32"] and int(_lemire_sizes(cache, 0, k, low)[0])
    p, starts, sizes = 0, [], []
    for _ in range(spec.num_records):
        size = low if k == 1 else -1
        while size < 0:
            if cached:
                size, cached = cached, 0
            else:
                size, cached, p = low_sizes[p], high_sizes[p], p + 1
        starts.append(p)
        sizes.append(size)
        p += 1
        for _ in range(size - 1):
            p += hop[p]

    sizes = np.array(sizes)
    items = np.empty(sizes.sum(), dtype=np.int64)
    # per record still drawing: its size, where its items start, the word of
    # its next history step, and its last item
    left, at, q = sizes, np.cumsum(sizes) - sizes, np.array(starts)
    item = items[at] = cdf.searchsorted(uniform[q], side="right")
    q += 1
    for c in range(1, spec.max_history + 1):
        if c > spec.min_history:
            live = left > c
            left, at, q, item = left[live], at[live], q[live], item[live]
        item = successors[item]
        fresh = np.flatnonzero(uniform[q] >= spec.repeat_prob)
        item[fresh] = cdf.searchsorted(uniform[q[fresh] + 1], side="right")
        items[at + c] = item
        q += 1
        q[fresh] += 1
    return InteractionDataset(items, sizes, split)
