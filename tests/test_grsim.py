import csv
import io

import numpy as np
import pytest

from rqsid.core import (
    ConfigError,
    DataError,
    QuantizerConfig,
    RandomSource,
    TokenRangeError,
    sid_table,
    sid_to_flat_tokens,
)
from rqsid import grsim
from rqsid.grsim import (
    EvalReport,
    InteractionDataset,
    InteractionSpec,
    SequenceModel,
    beam_search,
    build_trie,
    evaluate,
    gen_interactions,
    train_seq_model,
)
from rqsid.persist import save_interactions

CFG = QuantizerConfig(num_layers=3, codebook_size=4, dim=2)
VOCAB = CFG.num_layers * CFG.codebook_size  # flat vocabulary size


def flat(sid, cfg=CFG):
    """Flat tokens of one full-length id."""
    return tuple(sid_to_flat_tokens(sid_table(np.array(["x"]), [sid], cfg), cfg)[0].tolist())


def table_of(catalog, cfg=CFG):
    """The id table whose flat ids are those of `catalog`, a dict from item
    ids to flat-token tuples; a tuple one token short elides layer 2."""
    L, M = cfg.num_layers, cfg.codebook_size
    rows = []
    for seq in catalog.values():
        row = [-1] * L
        for t in seq:
            row[t // M] = t % M
        rows.append(row)
    is_full = [len(seq) == L for seq in catalog.values()]
    return sid_table(np.array(list(catalog)), rows, cfg, is_full)


def catalog_of(table, cfg=CFG):
    """The dict from item ids to flat-token tuples of an id table."""
    flat_rows = sid_to_flat_tokens(table, cfg).tolist()
    return {item: tuple(t for t in row if t >= 0)
            for item, row in zip(table.item_id.tolist(), flat_rows)}


def dataset(table, records, split="train"):
    """The dataset of `(history, target)` records of item ids over an id table."""
    row_of = {item: row for row, item in enumerate(table.item_id.tolist())}
    items = [row_of[item] for history, target in records for item in (*history, target)]
    return InteractionDataset(items, [len(history) + 1 for history, _ in records], split)


def records_of(data, item_ids):
    """The `(history, target)` records of a dataset, as item ids."""
    items = [item_ids[row] for row in data.items.tolist()]
    return [(tuple(items[end - size : end - 1]), items[end - 1])
            for end, size in zip(np.cumsum(data.sizes).tolist(), data.sizes.tolist())]


def same(a, b):
    """Whether two datasets hold the same records and split."""
    return (a.split == b.split and np.array_equal(a.items, b.items)
            and np.array_equal(a.sizes, b.sizes))


def decode(model, contexts, *args, **kwargs):
    """beam_search's rows as one ranked list of `(sequence, log-prob)` pairs
    per context, the form it returned before it returned arrays."""
    got = beam_search(model, contexts, *args, **kwargs)
    results = [[] for _ in contexts]
    for c, row, logp in zip(got.context.tolist(), got.tokens.tolist(), got.logp.tolist()):
        results[c].append((tuple(t for t in row if t >= 0), logp))
    return results


def walk(trie, seqs):
    """The compiled trie's node for each sequence, all walked as one block."""
    return trie.walk(*grsim._pad([tuple(seq) for seq in seqs])).tolist()


def node_of(trie, prefix):
    (node,) = walk(trie, [prefix])
    return node


def contains(trie, seq, cfg=CFG):
    """Whether `seq` is a catalog id: ids are self-delimiting, so it is one
    exactly when it is a trie path ending in a last-layer token."""
    terminal = (cfg.num_layers - 1) * cfg.codebook_size
    return len(seq) > 0 and seq[-1] >= terminal and node_of(trie, seq) >= 0


class PrefixNotFoundError(LookupError):
    """Prefix is not a path in the catalog trie (distinct from a terminal node)."""


class _TrieNode:
    __slots__ = ("children", "items")

    def __init__(self) -> None:
        self.children: dict[int, _TrieNode] = {}
        self.items: list[str] = []


class ReferenceTrie:
    """The dict-of-dicts trie that the compiled CatalogTrie replaced."""

    def __init__(self) -> None:
        self._root = _TrieNode()
        self.size = 0

    def insert(self, tokens, item_id: str) -> None:
        node = self._root
        for t in tokens:
            node = node.children.setdefault(int(t), _TrieNode())
        node.items.append(item_id)
        self.size += 1

    def _walk(self, prefix) -> _TrieNode | None:
        node = self._root
        for t in prefix:
            node = node.children.get(int(t))
            if node is None:
                return None
        return node

    def contains(self, tokens) -> bool:
        node = self._walk(tokens)
        return node is not None and bool(node.items)

    def valid_next(self, prefix) -> frozenset[int]:
        """Child tokens after `prefix`; empty for a terminal-only node.

        Raises PrefixNotFoundError when the prefix is not a path at all,
        which is a different situation than a terminal with no children.
        """
        node = self._walk(prefix)
        if node is None:
            raise PrefixNotFoundError(f"prefix {list(prefix)} is not in the catalog")
        return frozenset(node.children)


def reference_trie(catalog):
    trie = ReferenceTrie()
    for item_id, tokens in catalog.items():
        trie.insert(tokens, str(item_id))
    return trie


def children(trie, prefix):
    """The compiled trie's child tokens after `prefix`, as its CSR slice."""
    node = node_of(trie, prefix)
    assert node >= 0, prefix
    return trie.token[trie.first[node] : trie.first[node + 1]].tolist()


def brute_force_beam(model, context, max_len, config, top):
    """Enumerate every terminating sequence up to max_len and rank like the
    beam: descending accumulated log-probability, ties lexicographic."""
    results = []

    def extend(seq, logp, depth):
        token_logps = model.log_probs(tuple(context) + seq)
        for t in range(model.vocab_size):
            new_seq = seq + (t,)
            new_logp = logp + float(token_logps[t])
            terminal = t >= (config.num_layers - 1) * config.codebook_size
            if terminal:
                results.append((new_seq, new_logp))
            elif depth + 1 < max_len:
                extend(new_seq, new_logp, depth + 1)

    extend((), 0.0, 0)
    results.sort(key=lambda item: (-item[1], item[0]))
    return results[:top]


def reference_beam(model, context, beam_width, max_len, config, trie=None, fixed_prefix=None):
    """The scalar beam search the array version replaced: one Python tuple
    per candidate, sorted by (-logp, seq) at every step."""

    def is_terminal(token):
        return token >= (config.num_layers - 1) * config.codebook_size

    context = tuple(int(t) for t in context)
    start = tuple(int(t) for t in fixed_prefix) if fixed_prefix else ()
    if start and is_terminal(start[-1]):
        return [(start, 0.0)]

    active = [(start, 0.0)]
    finished = []
    for _ in range(max_len):
        candidates = []
        for seq, logp in active:
            if trie is not None:
                try:
                    allowed = sorted(trie.valid_next(seq))
                except PrefixNotFoundError:
                    continue
            else:
                allowed = range(model.vocab_size)
            token_logps = model.log_probs(context + seq)
            for t in allowed:
                candidates.append((seq + (t,), logp + float(token_logps[t])))
        if not candidates:
            break
        next_active = []
        for seq, logp in candidates:
            if is_terminal(seq[-1]):
                finished.append((seq, logp))
            else:
                next_active.append((seq, logp))
        finished.sort(key=lambda item: (-item[1], item[0]))
        del finished[beam_width:]
        next_active.sort(key=lambda item: (-item[1], item[0]))
        active = next_active[:beam_width]
        if not active:
            break
    finished.sort(key=lambda item: (-item[1], item[0]))
    return finished[:beam_width]


def reference_top(score, parent_rank, token, width):
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


def reference_array_beam(model, context, beam_width, max_len, config, trie=None,
                         fixed_prefix=None):
    """The per-record array beam search that the lockstep batch replaced,
    verbatim: one call per context, and each step ranks its candidates by a
    lexsort on (-score, parent's lexicographic rank, token)."""
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
        node = np.array([node_of(trie, start)])
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
        rows = np.log(model._prob_rows(model._suffix_keys(active)))
        # candidate i extends beam row[i] by token[i]; their order is
        # irrelevant, since reference_top ranks them by a total order
        if trie is None:
            row, token = np.divmod(np.arange(len(active) * model.vocab_size), model.vocab_size)
        else:
            lo = trie.first[node]
            size = trie.first[node + 1] - lo
            row = np.repeat(np.arange(len(node)), size)
            edge = grsim._ranges(lo, size)
            token = trie.token[edge]
        score = active_logp[row] + rows[row, token]
        parent_rank = active_rank[row]

        terminal = np.flatnonzero(token >= first_terminal)
        best = terminal[
            reference_top(score[terminal], parent_rank[terminal], token[terminal], beam_width)
        ]
        finished.extend(
            ((*seqs[p], t), logp)
            for p, t, logp in zip(row[best].tolist(), token[best].tolist(), score[best].tolist())
        )

        going = np.flatnonzero(token < first_terminal)
        best = going[reference_top(score[going], parent_rank[going], token[going], beam_width)]
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


def popularity_of(num_items, pop_exponent):
    """The zipf popularity of a catalog's rows."""
    weights = 1.0 / np.arange(1, num_items + 1, dtype=np.float64) ** pop_exponent
    return weights / weights.sum()


def successors_of(num_items, pop_exponent, rng):
    """Each row's successor, as `gen_interactions` draws them from `rng`."""
    popularity = popularity_of(num_items, pop_exponent)
    return rng.split(2)[0].generator().choice(num_items, size=num_items, p=popularity)


def searchsorted_interactions(num_items, spec, rng, split="train"):
    """The scalar generator that drew one record at a time, each step's
    `random()` followed by the popularity draw of a fresh step: the same
    process as `gen_interactions` over a different order of draws."""
    n = int(num_items)
    popularity = popularity_of(n, spec.pop_exponent)
    successors = successors_of(n, spec.pop_exponent, rng).tolist()
    gen = rng.split(2)[1].generator()
    cdf = popularity.cumsum()
    cdf /= cdf[-1]

    def draw() -> int:
        return int(cdf.searchsorted(gen.random(), side="right"))

    items, sizes = [], []
    for _ in range(spec.num_records):
        sizes.append(int(gen.integers(spec.min_history, spec.max_history + 1)) + 1)
        items.append(draw())
        for _ in range(sizes[-1] - 1):
            items.append(successors[items[-1]] if gen.random() < spec.repeat_prob else draw())
    return InteractionDataset(items, sizes, split)


def documented_order_interactions(num_items, spec, rng, split="train"):
    """The records drawn record by record from the calls that
    `gen_interactions` documents, in the order it documents them."""
    n = int(num_items)
    successors = successors_of(n, spec.pop_exponent, rng).tolist()
    gen = rng.split(2)[1].generator()
    cdf = popularity_of(n, spec.pop_exponent).cumsum()
    cdf /= cdf[-1]
    sizes = gen.integers(spec.min_history, spec.max_history + 1, size=spec.num_records) + 1
    seqs = [[int(i)] for i in cdf.searchsorted(gen.random(spec.num_records), side="right")]
    for c in range(1, spec.max_history + 1):
        drawing = [seq for seq, size in zip(seqs, sizes) if size > c]
        steps = gen.random(len(drawing))
        fresh = iter(cdf.searchsorted(gen.random(np.count_nonzero(steps >= spec.repeat_prob)),
                                      side="right").tolist())
        for seq, step in zip(drawing, steps):
            seq.append(next(fresh) if step >= spec.repeat_prob else successors[seq[-1]])
    items = np.array([i for seq in seqs for i in seq], dtype=np.int64)
    return InteractionDataset(items, sizes, split)


def repeated_steps(data, successors):
    """The steps after each record's first item, and how many of them
    repeat the successor of the item before."""
    step = np.ones(len(data.items), dtype=bool)
    step[np.cumsum(data.sizes) - data.sizes] = False
    at = np.flatnonzero(step)
    return len(at), np.count_nonzero(data.items[at] == successors[data.items[at - 1]])


def assert_same_share(a, trials_a, b, trials_b):
    """Counts `a` of `trials_a` and `b` of `trials_b` draws share their
    probabilities within 5 binomial sigma of the difference, at the pooled
    share."""
    a, b = np.asarray(a), np.asarray(b)
    pooled = (a + b) / (trials_a + trials_b)
    sigma = np.sqrt(pooled * (1 - pooled) * (1 / trials_a + 1 / trials_b))
    assert (abs(a / trials_a - b / trials_b) <= 5 * sigma).all(), (a / trials_a, b / trials_b)


def reference_interactions_csv(datasets):
    """The interactions file that the writer of `(history, target)` id
    records wrote, from `(records, split)` pairs."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["user_context", "target", "split"])
    for records, split in datasets:
        for history, target in records:
            writer.writerow(["|".join(history), target, split])
    return buf.getvalue()


class ReferenceSequenceModel:
    """The dict-of-counts model the compiled SequenceModel replaced."""

    def __init__(self, order: int, alpha: float, vocab_size: int):
        if order < 1:
            raise ConfigError(f"order must be >= 1, got {order}")
        if alpha <= 0:
            raise ConfigError(f"alpha must be > 0, got {alpha}")
        if vocab_size < 1:
            raise ConfigError(f"vocab_size must be >= 1, got {vocab_size}")
        self.order = order
        self.alpha = alpha
        self.vocab_size = vocab_size
        self._counts: dict[tuple[int, ...], dict[int, int]] = {}
        self._totals: dict[tuple[int, ...], int] = {}

    def observe_stream(self, stream) -> None:
        stream = [int(t) for t in stream]
        for i in range(1, len(stream)):
            nxt = stream[i]
            for width in range(1, min(self.order, i) + 1):
                ctx = tuple(stream[i - width : i])
                slot = self._counts.setdefault(ctx, {})
                slot[nxt] = slot.get(nxt, 0) + 1
                self._totals[ctx] = self._totals.get(ctx, 0) + 1

    def _matched_context(self, context) -> tuple[int, ...] | None:
        context = tuple(int(t) for t in context[max(0, len(context) - self.order) :])
        for width in range(len(context), 0, -1):
            ctx = context[len(context) - width :]
            if ctx in self._totals:
                return ctx
        return None

    def probs(self, context) -> np.ndarray:
        """Distribution over the next flat token; always sums to 1."""
        v = self.vocab_size
        ctx = self._matched_context(context)
        if ctx is None:
            return np.full(v, 1.0 / v)
        counts = np.zeros(v, dtype=np.float64)
        for token, c in self._counts[ctx].items():
            counts[token] = c
        return (counts + self.alpha) / (self._totals[ctx] + self.alpha * v)

    def log_probs(self, context) -> np.ndarray:
        return np.log(self.probs(context))


def model_pair(order, alpha, vocab_size, streams):
    """The compiled model and the reference model, fed the same streams."""
    model = SequenceModel(order, alpha, vocab_size)
    ref = ReferenceSequenceModel(order, alpha, vocab_size)
    for stream in streams:
        model.observe_stream(stream)
        ref.observe_stream(stream)
    return model, ref


def assert_rows_equal(model, ref, context):
    for method in ("probs", "log_probs"):
        got = getattr(model, method)(context)
        want = getattr(ref, method)(context)
        assert got.dtype == want.dtype, (method, context)
        assert np.array_equal(got, want), (method, context)


def reference_matched_context(model, context):
    """The back-off lookup that converted the whole context on every call."""
    context = tuple(int(t) for t in context)
    for width in range(min(model.order, len(context)), 0, -1):
        ctx = context[len(context) - width :]
        if ctx in model._totals:
            return ctx
    return None


def reference_suffix_keys(model, tails):
    """The suffix keys rebuilt from each row's whole tail, as the model did
    on every lookup before beams carried them: column w holds the key of the
    last w tokens, 0 where the row is shorter or one of them lies outside the
    vocabulary; a tail shorter than `order` gets fewer columns."""
    digits = tails[:, max(0, tails.shape[1] - model.order) :][:, ::-1] + 1  # newest first
    bad = np.cumsum((digits < 1) | (digits > model.vocab_size), axis=1) > 0
    powers = (model.vocab_size + 1) ** np.arange(digits.shape[1])
    keys = np.cumsum(np.where(bad, 0, digits) * powers, axis=1)
    keys[bad] = 0
    return np.column_stack((np.zeros(len(keys), dtype=np.int64), keys))


def reference_evaluate(model, test, catalog, config, head_set, beam_width, k_list,
                       trie_mode="off", given_prefix_layers=0):
    """The evaluation over (item_id, (layer, token) entries) pairs that the
    flat-token catalog replaced; a target without a layer-2 entry is head.
    It decodes with reference_beam and checks membership in a ReferenceTrie."""
    M = config.codebook_size
    k_list = tuple(k_list)
    max_k = max(k_list)
    entries_by_item = dict(catalog)
    flat_by_item = {item: tuple((l - 1) * M + t for l, t in e) for item, e in catalog}
    trie = reference_trie(flat_by_item)
    constrained = trie_mode == "on"
    groups = ("overall", "head", "tail")
    hits = {k: {g: 0 for g in groups} for k in k_list}
    invalid = {k: {g: 0 for g in groups} for k in k_list}
    emitted = {k: {g: 0 for g in groups} for k in k_list}
    counts = {g: 0 for g in groups}
    for history, target in records_of(test, [item for item, _ in catalog]):
        gold = flat_by_item[target]
        context = [t for item in history for t in flat_by_item[item]]
        prefix = gold[:given_prefix_layers] if given_prefix_layers else None
        preds = reference_beam(model, context, beam_width, config.num_layers, config,
                               trie if constrained else None, prefix)
        layer2 = dict(entries_by_item[target]).get(2)
        group = "head" if layer2 is None or layer2 in head_set else "tail"
        counts["overall"] += 1
        counts[group] += 1
        top = [seq for seq, _ in preds[:max_k]]
        for k in k_list:
            for g in ("overall", group):
                hits[k][g] += int(gold in top[:k])
                invalid[k][g] += sum(
                    1 for seq in top[:k] if not constrained and not trie.contains(seq)
                )
                emitted[k][g] += len(top[:k])
    return EvalReport(
        beam_width=beam_width,
        k_list=k_list,
        trie_constrained=constrained,
        record_counts=counts,
        recall={k: {g: hits[k][g] / counts[g] if counts[g] else 0.0 for g in groups}
                for k in k_list},
        invalid_ratio={
            k: {g: 0.0 if constrained else (invalid[k][g] / emitted[k][g] if emitted[k][g]
                                           else 0.0) for g in groups}
            for k in k_list
        },
    )


class TestCatalogTrie:
    CATALOG = {"i1": flat((0, 1, 2)), "i2": flat((0, 1, 3))}
    TABLE = table_of(CATALOG)

    def test_membership(self):
        trie = build_trie(self.TABLE, CFG)
        assert contains(trie, flat((0, 1, 2)))
        assert not contains(trie, flat((0, 2, 2)))
        # a catalog prefix is a path but no id
        assert not contains(trie, flat((0, 1, 2))[:2])

    def test_valid_next(self):
        trie = build_trie(self.TABLE, CFG)
        prefix = flat((0, 1, 2))[:2]
        assert children(trie, prefix) == [2 * 4 + 2, 2 * 4 + 3]

    def test_terminal_has_no_children(self):
        trie = build_trie(self.TABLE, CFG)
        assert children(trie, flat((0, 1, 2))) == []

    def test_unknown_prefix_signals(self):
        trie = build_trie(self.TABLE, CFG)
        assert node_of(trie, (3,)) == -1
        # a missing prefix is told apart from a terminal, which has a node
        assert node_of(trie, flat((0, 1, 2))) > 0
        assert node_of(trie, flat((0, 1, 2)) + (0,)) == -1
        # -1 never matches, not even where the padding of a walk would be
        assert node_of(trie, (0, -1)) == -1
        assert walk(trie, [(), (0,), (0, -1, 10), (0, 5, 10)]) == [
            0, node_of(trie, (0,)), -1, node_of(trie, flat((0, 1, 2)))]

    def test_varlen_coexists(self):
        # i3 elides layer 2: layer-1 token 0, then layer-3 token 2
        trie = build_trie(table_of({**self.CATALOG, "i3": (0, 2 * 4 + 2)}), CFG)
        assert contains(trie, (0, 2 * 4 + 2))
        assert contains(trie, flat((0, 1, 2)))
        # after the shared layer-1 token both layer-2 and layer-3 moves exist
        assert children(trie, (0,)) == [4 + 1, 2 * 4 + 2]

    def test_empty_catalog(self):
        with pytest.raises(DataError):
            build_trie(self.TABLE[:0], CFG)


class TestCompiledTrieOracle:
    """The compiled trie has the children and members of the dict trie."""

    @staticmethod
    def random_catalog(gen, num_layers, elide_share, n):
        M = 3
        config = QuantizerConfig(num_layers=num_layers, codebook_size=M, dim=1)
        rows = gen.integers(0, M, size=(n, num_layers)).tolist()
        is_full = [not (num_layers >= 3 and gen.random() < elide_share) for _ in range(n)]
        table = sid_table(np.array([f"i{k}" for k in range(n)]), rows, config, is_full)
        return config, table, catalog_of(table, config)

    @pytest.mark.parametrize("num_layers", [1, 2, 3, 4])
    @pytest.mark.parametrize("elide_share", [0.0, 0.5])
    def test_matches_reference(self, num_layers, elide_share):
        gen = np.random.default_rng(10 * num_layers + int(10 * elide_share))
        for n in (1, 2, 7, 60):
            config, table, catalog = self.random_catalog(gen, num_layers, elide_share, n)
            trie, ref = build_trie(table, config), reference_trie(catalog)
            prefixes = {seq[:d] for seq in catalog.values() for d in range(len(seq) + 1)}
            for prefix in prefixes:
                assert children(trie, prefix) == sorted(ref.valid_next(prefix)), prefix
                assert contains(trie, prefix, config) == ref.contains(prefix), prefix
            # random sequences, most of them no catalog prefix, walked one
            # by one and as one block
            vocab = config.num_layers * config.codebook_size
            seqs = [tuple(gen.integers(-1, vocab + 1, size=int(gen.integers(1, 6))).tolist())
                    for _ in range(200)]
            for seq, node in zip(seqs, walk(trie, seqs)):
                assert node == node_of(trie, seq), seq
                assert contains(trie, seq, config) == ref.contains(seq), seq
                if seq in prefixes:
                    assert children(trie, seq) == sorted(ref.valid_next(seq)), seq
                else:
                    with pytest.raises(PrefixNotFoundError):
                        ref.valid_next(seq)
                    assert node == -1, seq
            # nodes are numbered level by level with each node's children
            # consecutive and sorted: the edges leave their parents in order
            assert np.all(np.diff(trie.first) >= 0)
            assert trie.first[0] == 0 and trie.first[-1] == len(trie.token) == len(prefixes) - 1

    def test_negative_token_rejected(self):
        # the id table refuses it, so no trie is built over a negative token
        with pytest.raises(TokenRangeError):
            build_trie(sid_table(np.array(["a", "b"]), [(0, 0, 0), (1, -1, 1)], CFG), CFG)


class TestSequenceModel:
    def test_laplace_example(self):
        # two streams A B with vocab {A=0, B=1}: P(B | A) = (2 + 1) / (2 + 2)
        model = SequenceModel(order=1, alpha=1.0, vocab_size=2)
        model.observe_stream([0, 1])
        model.observe_stream([0, 1])
        assert model.probs([0])[1] == pytest.approx(0.75)
        assert model.probs([0])[0] == pytest.approx(0.25)

    def test_unseen_context_uniform(self):
        model = SequenceModel(order=2, alpha=0.5, vocab_size=4)
        model.observe_stream([0, 1, 2])
        np.testing.assert_allclose(model.probs([3]), np.full(4, 0.25))

    def test_normalization(self):
        gen = np.random.default_rng(0)
        model = SequenceModel(order=3, alpha=0.2, vocab_size=6)
        for _ in range(40):
            model.observe_stream(gen.integers(0, 6, size=10).tolist())
        for _ in range(20):
            ctx = gen.integers(0, 6, size=int(gen.integers(0, 5))).tolist()
            assert model.probs(ctx).sum() == pytest.approx(1.0, abs=1e-12)

    def test_backoff_prefers_longest_context(self):
        model = SequenceModel(order=2, alpha=0.1, vocab_size=3)
        model.observe_stream([0, 1, 2])
        model.observe_stream([2, 1, 0])
        # context (0, 1) was seen once with next 2; the bigram table wins
        # over the ambiguous unigram context (1)
        assert model.probs([0, 1])[2] == pytest.approx((1 + 0.1) / (1 + 0.3))
        assert model.probs([1])[2] == pytest.approx((1 + 0.1) / (2 + 0.3))

    def test_probs_unchanged_for_long_context(self):
        gen = np.random.default_rng(5)
        for order in (1, 2, 3, 4):
            streams = [gen.integers(0, 6, size=8).tolist() for _ in range(40)]
            model, ref = model_pair(order, 0.3, 6, streams)
            for length in range(16):
                context = gen.integers(0, 6, size=length).tolist()
                matched = ref._matched_context(context)
                assert matched == reference_matched_context(ref, context)
                assert ref._matched_context(tuple(context)) == matched
                np.testing.assert_array_equal(
                    model.probs(context), model.probs(context[max(0, length - order):])
                )
                assert_rows_equal(model, ref, context)
                assert_rows_equal(model, ref, tuple(context))

    def test_config_validation(self):
        with pytest.raises(ConfigError):
            SequenceModel(order=0, alpha=1.0, vocab_size=2)
        with pytest.raises(ConfigError):
            SequenceModel(order=1, alpha=0.0, vocab_size=2)
        # (context, next token) keys of 7 tokens at V=768 need 67 bits
        with pytest.raises(ConfigError):
            SequenceModel(order=6, alpha=1.0, vocab_size=768)
        SequenceModel(order=5, alpha=1.0, vocab_size=768)

    # the largest vocabulary each order accepts: a pair key is below
    # (V + 1) ** order * V, which must not pass 2 ** 63 - 1
    @pytest.mark.parametrize("order,largest", [
        (1, 3037000499), (2, 2097151), (3, 55108), (4, 6207), (5, 1447)])
    def test_key_bound_edge(self, order, largest):
        top = np.iinfo(np.int64).max
        assert (largest + 1) ** order * largest <= top < (largest + 2) ** order * (largest + 1)
        SequenceModel(order, 1.0, largest)
        with pytest.raises(ConfigError, match="int64"):
            SequenceModel(order, 1.0, largest + 1)
        if order >= 3:  # the largest keys count and score without overflow
            last = largest - 1
            model, ref = model_pair(order, 1.0, largest, [[last] * (order + 2), [0, last]])
            assert model._pairs[-1] == (largest + 1) ** order * largest - 1
            for context in ([last] * order, [0], [last, 0]):
                assert_rows_equal(model, ref, context)

    @pytest.mark.parametrize("bad", [-1, 3, 5])
    def test_out_of_range_token_rejected(self, bad):
        # counted, -1 would alias token 2 as a negative index, and 5 would
        # raise a bare IndexError from probs
        model = SequenceModel(order=2, alpha=1.0, vocab_size=3)
        model.observe_stream([0, 2])
        with pytest.raises(TokenRangeError):
            model.observe_stream([0, bad, 1])
        # nothing of the rejected stream was counted
        np.testing.assert_array_equal(model.probs([0]), np.array([1.0, 1.0, 2.0]) / 4)
        np.testing.assert_array_equal(model.probs([bad]), np.full(3, 1 / 3))
        np.testing.assert_array_equal(model.probs([0, bad]), np.full(3, 1 / 3))

    def test_out_of_range_context_never_matches(self):
        # with packed keys, context (0, 5) would alias (1, 2) at V=3
        model = SequenceModel(order=2, alpha=1.0, vocab_size=3)
        model.observe_stream([1, 2, 0])
        model.observe_stream([2, 1])
        np.testing.assert_array_equal(model.probs([0, 5]), np.full(3, 1 / 3))
        np.testing.assert_array_equal(model.probs([-1, 2]), model.probs([2]))
        np.testing.assert_array_equal(model.probs([3, 2]), model.probs([2]))


class TestCompiledModelOracle:
    """The compiled model equals the dict model it replaced, bit for bit."""

    V = 7
    UNSEEN = 3  # never observed, so every context ending in it is unseen

    def streams(self, gen, count):
        tokens = [t for t in range(self.V) if t != self.UNSEEN]
        streams = [gen.choice(tokens, size=int(gen.integers(0, 10))).tolist()
                   for _ in range(count)]
        # both vocabulary edges as context and as next token
        return streams + [[0, self.V - 1, 0, self.V - 1, 1, 0]]

    def contexts(self, gen, order):
        seen = [t for t in range(self.V) if t != self.UNSEEN]
        out = [[], (), [self.UNSEEN], [0, self.UNSEEN], [self.UNSEEN, 0],
               [0], [self.V - 1], [self.V - 1, 0], [0, self.V - 1],
               [5, -1], [-1, 0], [0, self.V], [self.V, self.V - 1]]
        for length in (order - 1, order, order + 1, order + 5):
            for _ in range(12):
                ctx = gen.choice(seen, size=max(0, length)).tolist()
                out += [ctx, tuple(ctx), np.array(ctx, dtype=np.int64)]
        return out

    @pytest.mark.parametrize("order", [1, 2, 3, 4])
    def test_rows_match_reference(self, order):
        gen = np.random.default_rng(40 + order)
        for alpha in (0.01, 0.3, 2.0):
            model, ref = model_pair(order, alpha, self.V, self.streams(gen, 60))
            for context in self.contexts(gen, order):
                assert_rows_equal(model, ref, context)
            # every context the reference stored, at every width
            for ctx in ref._totals:
                assert_rows_equal(model, ref, ctx)
                assert_rows_equal(model, ref, (0, 1, 2, 4, 5, 6) + ctx)

    @pytest.mark.parametrize("order", [1, 2, 3, 4])
    def test_pushed_keys_match_rebuilt_keys(self, order):
        """Keys built from a tail's first tokens and then pushed one token at
        a time, as beams carry them, equal the keys rebuilt from the whole
        tail where those are positive, and are negative where those are 0."""
        gen = np.random.default_rng(50 + order)
        model = SequenceModel(order, 0.5, self.V)
        # tokens outside [0, V), -1 (padding) included, now and then
        tails = np.where(gen.random((400, order + 3)) < 0.1,
                         gen.choice([-1, self.V, self.V + 4], size=(400, order + 3)),
                         gen.integers(0, self.V, size=(400, order + 3)))
        for start in range(tails.shape[1] + 1):
            keys = model._suffix_keys(tails[:, :start])
            for j in range(start, tails.shape[1] + 1):
                want = reference_suffix_keys(model, tails[:, :j])
                assert np.array_equal(np.where(keys > 0, keys, 0)[:, : want.shape[1]], want)
                assert (keys[:, 0] == 0).all() and (keys[:, want.shape[1] :] < 0).all()
                assert (keys[:, 1 : want.shape[1]][want[:, 1:] == 0] < 0).all()
                if j < tails.shape[1]:
                    keys = model._push(keys, tails[:, j])

    @staticmethod
    def train_both(records, catalog, order, alpha, vocab):
        ref = ReferenceSequenceModel(order, alpha, vocab)
        for history, target in records:
            ref.observe_stream([t for item in (*history, target) for t in catalog[item]])
        table = table_of(catalog)
        model = train_seq_model(dataset(table, records), table, CFG, order, alpha)
        return model, ref

    @pytest.mark.parametrize("chunk", [None, 1, 3])
    def test_training_chunks_match_reference(self, chunk, monkeypatch):
        if chunk is not None:
            monkeypatch.setattr(grsim, "_COUNT_CHUNK", chunk)
        size = grsim._COUNT_CHUNK
        gen = np.random.default_rng(60)
        # "e*" ids elide layer 2 and are two flat tokens long
        catalog = {f"f{k}": flat(tuple(gen.integers(0, 4, size=3).tolist())) for k in range(6)}
        catalog.update({f"e{k}": (int(gen.integers(0, 4)), 8 + int(gen.integers(0, 4)))
                        for k in range(4)})
        items = sorted(catalog)
        vocab = max(max(ts) for ts in catalog.values()) + 1

        def record():
            history = tuple(gen.choice(items, size=int(gen.integers(1, 4))).tolist())
            return history, str(gen.choice(items))

        for count in (1, size, 2 * size + 3):
            records = [record() for _ in range(count)]
            for order in (1, 2, 4):
                model, ref = self.train_both(records, catalog, order, 0.2, vocab)
                for ctx in ref._totals:
                    assert_rows_equal(model, ref, ctx)
                for context in ((), (11,), (0, 9), (8, 0, 5), (1, 5, 9, 0, 4)):
                    assert_rows_equal(model, ref, context)

    def test_beam_search_matches_reference_model(self):
        gen = np.random.default_rng(61)
        catalog = TestBeamSearch.VARLEN_CATALOG
        tries = ((None, None), (build_trie(table_of(catalog), CFG), reference_trie(catalog)))
        prefixes = (None, (0,), (1, 4 + 1), (3,))
        for order in (1, 2, 3, 4):
            streams = [gen.integers(0, VOCAB, size=6).tolist() for _ in range(25)]
            model, ref = model_pair(order, float(gen.uniform(0.05, 2.0)),
                                    VOCAB, streams)
            for context in ((), (11,), tuple(gen.integers(0, 12, size=5).tolist())):
                for width in TestBeamSearch.WIDTHS:
                    for prefix in prefixes:
                        for t, ref_t in tries:
                            got = decode(model, [context], width, 3, CFG, t, [prefix])[0]
                            want = reference_beam(ref, context, width, 3, CFG, ref_t, prefix)
                            assert got == want, (order, context, width, prefix, t)


class TestTrainSeqModel:
    def test_streams_are_history_plus_target(self):
        catalog = table_of({"a": (0, 4, 8), "b": (1, 5, 9)})
        data = dataset(catalog, [(("a",), "b")])
        model = train_seq_model(data, catalog, CFG, order=1, alpha=1.0)
        # transition 8 -> 1 crosses from history into the target tokens
        assert model.probs([8])[1] > model.probs([8])[2]

    def test_unknown_item(self):
        # row 1 is past the end of a one-row catalog
        data = InteractionDataset([1, 0], [2])
        with pytest.raises(DataError):
            train_seq_model(data, table_of({"a": (0, 4, 8)}), CFG, order=1, alpha=1.0)

    def test_empty_dataset(self):
        with pytest.raises(DataError):
            train_seq_model(InteractionDataset([], []), table_of({"a": (0, 4, 8)}), CFG, 1, 1.0)

    def test_negative_token_rejected(self):
        # raised where the table is built, before any stream is counted
        data = InteractionDataset([0, 1], [2])
        with pytest.raises(TokenRangeError):
            catalog = sid_table(np.array(["a", "b"]), [(0, 0, 0), (1, -1, 1)], CFG)
            train_seq_model(data, catalog, CFG, order=2, alpha=1.0)


class TestBeamSearch:
    def test_forced_sequence(self):
        # context 2 forces token 0, then (2, 0) forces the terminal token 3
        cfg = QuantizerConfig(num_layers=2, codebook_size=2, dim=1)
        model = SequenceModel(order=2, alpha=1e-9, vocab_size=4)
        for _ in range(50):
            model.observe_stream([2, 0, 3])
        (result,) = decode(model, [(2,)], beam_width=1, max_len=2, config=cfg)
        assert result[0][0] == (0, 3)

    def test_brute_force_oracle_small(self):
        gen = np.random.default_rng(13)
        cfg = QuantizerConfig(num_layers=2, codebook_size=2, dim=1)
        for _ in range(10):
            model = SequenceModel(order=2, alpha=float(gen.uniform(0.05, 2.0)), vocab_size=4)
            for _ in range(30):
                model.observe_stream(gen.integers(0, 4, size=6).tolist())
            width = 4**3
            (got,) = decode(model, [()], beam_width=width, max_len=3, config=cfg)
            want = brute_force_beam(model, (), 3, cfg, width)
            assert got == want

    def test_trie_constraint_membership(self):
        catalog = {"i1": flat((0, 1, 2)), "i2": flat((0, 1, 3)), "i3": flat((2, 0, 0))}
        trie = build_trie(table_of(catalog), CFG)
        model = SequenceModel(order=2, alpha=0.5, vocab_size=VOCAB)
        gen = np.random.default_rng(4)
        for _ in range(20):
            model.observe_stream(gen.integers(0, 12, size=8).tolist())
        (results,) = decode(model, [()], beam_width=10, max_len=3, config=CFG, trie=trie)
        assert results
        for seq, _ in results:
            assert contains(trie, seq)
            assert seq in catalog.values()

    def test_fixed_prefix_prepended(self):
        model = SequenceModel(order=1, alpha=1.0, vocab_size=VOCAB)
        model.observe_stream([0, 5, 9])
        (results,) = decode(model, [()], beam_width=3, max_len=2, config=CFG,
                                 fixed_prefixes=[(0,)])
        assert all(seq[0] == 0 for seq, _ in results)

    # three unconstrained steps over CFG's 12 flat tokens end at most
    # 4 + 8 * 4 + 8 * 8 * 4 = 292 sequences, so the last width is exhaustive
    WIDTHS = (1, 3, 10, 12**3)
    # d, e and h elide layer 2
    VARLEN_CATALOG = {
        "a": flat((0, 1, 2)),
        "b": flat((0, 1, 3)),
        "c": flat((0, 2, 0)),
        "d": (0, 2 * 4 + 1),
        "e": (1, 2 * 4 + 3),
        "f": flat((1, 3, 3)),
        "g": flat((2, 0, 1)),
        "h": (3, 2 * 4 + 0),
    }

    @staticmethod
    def random_model(gen, alpha, order=2, streams=15):
        model = SequenceModel(order=order, alpha=alpha, vocab_size=VOCAB)
        for _ in range(streams):
            model.observe_stream(gen.integers(0, VOCAB, size=6).tolist())
        return model

    def assert_matches_reference(self, model, context, catalog=None, prefixes=(None,)):
        trie = build_trie(table_of(catalog), CFG) if catalog else None
        ref_trie = reference_trie(catalog) if catalog else None
        for width in self.WIDTHS:
            for prefix in prefixes:
                got = decode(model, [context], width, 3, CFG, trie, [prefix])[0]
                want = reference_beam(model, context, width, 3, CFG, ref_trie, prefix)
                # equal sequences, float scores and order; == on floats is exact
                assert got == want, (width, prefix)
                assert all(type(t) is int for seq, _ in got for t in seq)
                assert all(type(logp) is float for _, logp in got)

    def test_matches_reference_trie_off(self):
        gen = np.random.default_rng(21)
        for _ in range(6):
            model = self.random_model(gen, alpha=float(gen.uniform(0.05, 2.0)))
            context = gen.integers(0, VOCAB, size=3).tolist()
            self.assert_matches_reference(model, context, prefixes=(None, (0,), (0, 5), (9,)))

    def test_matches_reference_trie_on_varlen(self):
        # (1, 5) and (2, 7) are not in the trie; (3,) leads only to an elided id
        prefixes = (None, (0,), (1,), (1, 4 + 1), (3,), (2, 4 + 3), (0, 4 + 1, 2 * 4 + 2))
        gen = np.random.default_rng(22)
        for _ in range(6):
            model = self.random_model(gen, alpha=float(gen.uniform(0.05, 2.0)))
            context = gen.integers(0, VOCAB, size=3).tolist()
            self.assert_matches_reference(model, context, self.VARLEN_CATALOG, prefixes)

    def test_prefix_outside_trie_yields_nothing(self):
        trie = build_trie(table_of(self.VARLEN_CATALOG), CFG)
        ref_trie = reference_trie(self.VARLEN_CATALOG)
        model = self.random_model(np.random.default_rng(23), alpha=0.5)
        for prefix in ((2, 4 + 1), (0, 4 + 3), (1, 4 + 0)):
            assert decode(model, [()], 10, 3, CFG, trie, [prefix]) == [[]]
            assert reference_beam(model, (), 10, 3, CFG, ref_trie, prefix) == []

    def test_matches_reference_under_ties(self):
        # a large alpha flattens the seen contexts, and the rest are unseen
        # and exactly uniform, so most scores tie and the lexicographic
        # tie order decides the ranking below the exhaustive width
        gen = np.random.default_rng(24)
        for order in (1, 2):
            model = self.random_model(gen, alpha=1e6, order=order, streams=2)
            for context in ((), (11,), (0, 4)):
                self.assert_matches_reference(model, context, prefixes=(None, (1,)))
                self.assert_matches_reference(model, context, self.VARLEN_CATALOG,
                                              prefixes=(None, (1,)))
        uniform = SequenceModel(order=1, alpha=1.0, vocab_size=VOCAB)
        uniform.observe_stream([0, 0])
        (got,) = decode(uniform, [(7,)], 3, 3, CFG)
        assert [seq for seq, _ in got] == [(8,), (9,), (10,)]

    def test_tie_across_parents_is_lexicographic(self):
        # contexts 11, 0 and 1 are each seen three times, so a token seen
        # once scores x and one seen twice scores y > x in each of them:
        # (1,) outscores (0,) after one step, yet (0, 8) and (1, 9) both
        # score x + y; the tie goes to the lexicographically smaller (0, 8)
        model = SequenceModel(order=1, alpha=0.1, vocab_size=VOCAB)
        for stream in ([11, 0], [11, 1], [11, 1], [0, 8], [0, 8], [0, 11],
                       [1, 9], [1, 10], [1, 10]):
            model.observe_stream(stream)
        (got,) = decode(model, [(11,)], 2, 3, CFG)
        assert [seq for seq, _ in got] == [(1, 10), (0, 8)]
        assert got == reference_beam(model, (11,), 2, 3, CFG)

    def test_prefix_rows_with_trie(self):
        """A prefix ending in a last-layer token is its context's only row,
        scored 0, even with the trie on; a prefix that is no catalog prefix
        yields no row; rows are left-packed and padded to the longest prefix
        plus max_len."""
        trie = build_trie(table_of(self.VARLEN_CATALOG), CFG)
        model = self.random_model(np.random.default_rng(25), alpha=0.5)
        contexts = [(), (11,), (4,), (2, 7)]
        # (0, 9) is the elided id of "d"; (2, 5) leads nowhere in the trie
        got = beam_search(model, contexts, 3, 3, CFG, trie, [(0, 9), (2, 4 + 1), None, (1,)])
        assert got.tokens.dtype == np.int64 and got.tokens.shape[1] == 2 + 3
        assert got.context.tolist() == [0, 2, 2, 2, 3, 3]
        assert got.tokens[0].tolist() == [0, 9, -1, -1, -1] and got.logp[0] == 0.0
        (free,) = decode(model, [(4,)], 3, 3, CFG, trie)
        assert [tuple(t for t in row if t >= 0) for row in got.tokens[1:4].tolist()] == [
            seq for seq, _ in free]
        assert got.logp[1:4].tolist() == [logp for _, logp in free]
        assert got.tokens[4:, 0].tolist() == [1, 1]
        assert decode(model, contexts, 3, 3, CFG, trie, [(0, 9), (2, 4 + 1), None, (1,)]) == [
            reference_beam(model, context, 3, 3, CFG, reference_trie(self.VARLEN_CATALOG), prefix)
            for context, prefix in zip(contexts, [(0, 9), (2, 4 + 1), None, (1,)])]

    def test_zero_beam_rejected(self):
        model = SequenceModel(order=1, alpha=1.0, vocab_size=4)
        with pytest.raises(ConfigError):
            decode(model, [()], beam_width=0, max_len=1, config=CFG)


class TestLockstepOracle:
    """Each context of a lockstep batch gets what the per-record array
    search it replaced and the scalar reference give it alone."""

    CATALOG = TestBeamSearch.VARLEN_CATALOG
    # (3, 8), (0, 9) and (1, 11) are elided catalog ids, which end in a
    # terminal token and are returned as given; (2, 5) and (1, 4) are no
    # catalog prefixes; below (3,) and (1, 7) the trie holds one terminal
    # step, so their beams die a step before those of (0, 5) or ()
    PREFIXES = (None, (), (0,), (3,), (1, 4 + 3), (0, 4 + 1), (3, 2 * 4 + 0),
                (0, 2 * 4 + 1), (1, 2 * 4 + 3), (2, 4 + 1), (1, 4 + 0))

    def batch(self, gen, order):
        """Contexts that are empty, shorter than `order` and longer, each
        with a prefix drawn from PREFIXES; every prefix appears."""
        lengths = (0, 0, 1, order - 1, order, order + 3)
        contexts = [gen.integers(0, VOCAB, size=n).tolist()
                    for n in lengths for _ in range(2)]
        prefixes = list(self.PREFIXES) + [
            self.PREFIXES[i] for i in gen.integers(0, len(self.PREFIXES), size=len(contexts))
        ]
        shuffle = gen.permutation(len(prefixes))
        return [contexts[i % len(contexts)] for i in shuffle], [prefixes[i] for i in shuffle]

    def assert_batch_matches(self, model, contexts, prefixes):
        tries = ((None, None),
                 (build_trie(table_of(self.CATALOG), CFG), reference_trie(self.CATALOG)))
        for width in TestBeamSearch.WIDTHS:
            for max_len in (1, 2, 3):
                for trie, ref_trie in tries:
                    got = decode(model, contexts, width, max_len, CFG, trie, prefixes)
                    assert len(got) == len(contexts)
                    for context, prefix, result in zip(contexts, prefixes, got):
                        case = (width, max_len, trie is not None, context, prefix)
                        assert result == reference_array_beam(
                            model, context, width, max_len, CFG, trie, prefix), case
                        assert result == reference_beam(
                            model, context, width, max_len, CFG, ref_trie, prefix), case

    @pytest.mark.parametrize("order", [1, 2, 3])
    def test_mixed_batch_matches_references(self, order):
        gen = np.random.default_rng(70 + order)
        model = TestBeamSearch.random_model(gen, float(gen.uniform(0.05, 2.0)), order)
        self.assert_batch_matches(model, *self.batch(gen, order))

    @pytest.mark.parametrize("order", [1, 2])
    def test_tie_heavy_batch_matches_references(self, order):
        # as in TestBeamSearch.test_matches_reference_under_ties: most
        # scores tie, so each record's tie order decides its ranking
        gen = np.random.default_rng(80 + order)
        flat_model = TestBeamSearch.random_model(gen, alpha=1e6, order=order, streams=2)
        uniform = SequenceModel(order=order, alpha=1.0, vocab_size=VOCAB)
        uniform.observe_stream([0, 0])
        for model in (flat_model, uniform):
            self.assert_batch_matches(model, *self.batch(gen, order))

    @pytest.mark.parametrize("order", [1, 3])
    def test_unfitted_model_matches_reference(self, order):
        # every context backs off to the uniform distribution, and no
        # lookup may read the empty count arrays
        gen = np.random.default_rng(95 + order)
        contexts, prefixes = self.batch(gen, order)
        model = SequenceModel(order, 0.5, VOCAB)
        ref = ReferenceSequenceModel(order, 0.5, VOCAB)
        tries = ((None, None),
                 (build_trie(table_of(self.CATALOG), CFG), reference_trie(self.CATALOG)))
        for width in TestBeamSearch.WIDTHS:
            for trie, ref_trie in tries:
                got = decode(model, contexts, width, 3, CFG, trie, prefixes)
                assert got == [reference_beam(ref, context, width, 3, CFG, ref_trie, prefix)
                               for context, prefix in zip(contexts, prefixes)], width

    def test_prefixes_default_to_none(self):
        gen = np.random.default_rng(90)
        model = TestBeamSearch.random_model(gen, alpha=0.5)
        contexts = [(), (11,), (0, 4, 9)]
        assert decode(model, contexts, 5, 3, CFG) == [
            reference_array_beam(model, context, 5, 3, CFG) for context in contexts
        ]
        assert decode(model, [], 5, 3, CFG) == []
        with pytest.raises(ConfigError):
            decode(model, contexts, 5, 3, CFG, fixed_prefixes=[None, (0,)])


class TestBatchLayers:
    """At one, two and three layers, over a batch that mixes no prefix, a
    1-token prefix and a terminal prefix."""

    M = 3

    def case(self, L):
        cfg = QuantizerConfig(num_layers=L, codebook_size=self.M, dim=1)
        vocab = L * self.M
        gen = np.random.default_rng(100 + L)
        model = SequenceModel(order=2, alpha=0.3, vocab_size=vocab)
        for _ in range(20):
            model.observe_stream(gen.integers(0, vocab, size=6).tolist())
        terminal = (L - 1) * self.M
        full = tuple(l * self.M for l in range(L - 1)) + (terminal + 1,)
        prefixes = [None, (1,), full, None, (self.M - 1,), (terminal,)]
        contexts = [gen.integers(0, vocab, size=n).tolist() for n in (0, 1, 3, 4, 2, 0)]
        return cfg, model, contexts, prefixes

    @pytest.mark.parametrize("L", [1, 2, 3])
    def test_trie_off_batch_decodes_each_context_alone(self, L):
        # every live context holds the same number of beams, in consecutive
        # rows, whatever its prefix, so each decodes as it does by itself
        cfg, model, contexts, prefixes = self.case(L)
        for width in (1, 2, 5, model.vocab_size ** L):
            for max_len in range(1, L + 2):
                got = decode(model, contexts, width, max_len, cfg, fixed_prefixes=prefixes)
                for context, prefix, result in zip(contexts, prefixes, got):
                    case = (width, max_len, context, prefix)
                    (alone,) = decode(model, [context], width, max_len, cfg,
                                           fixed_prefixes=[prefix])
                    assert result == alone, case
                    assert result == reference_beam(model, context, width, max_len, cfg,
                                                    None, prefix), case

    @pytest.mark.parametrize("L", [1, 2, 3])
    def test_sequences_end_in_a_last_layer_token(self, L):
        # so evaluate counts a trie-off sequence valid when the trie walks it
        cfg, model, contexts, prefixes = self.case(L)
        gen = np.random.default_rng(110 + L)
        rows = np.vstack([[1] * L, [self.M - 1] * L, gen.integers(0, self.M, size=(10, L))])
        catalog = sid_table(np.array([f"i{k}" for k in range(len(rows))]), rows, cfg)
        terminal = (L - 1) * self.M
        for trie in (None, build_trie(catalog, cfg)):
            for width in (1, 5, model.vocab_size ** L):
                for max_len in range(1, L + 2):
                    got = decode(model, contexts, width, max_len, cfg, trie, prefixes)
                    seqs = [seq for result in got for seq, _ in result]
                    assert len(got) == len(contexts) and seqs
                    assert all(seq[-1] >= terminal for seq in seqs), (trie, width, max_len)


class TestEvaluate:
    SIDS = {"i1": (0, 1, 2), "i2": (0, 1, 3), "i3": (1, 0, 0)}
    CATALOG = {item: flat(sid) for item, sid in SIDS.items()}
    TABLE = table_of(CATALOG)

    def make_model(self):
        train = dataset(self.TABLE, [((a,), b) for a, b in
                                     [("i1", "i2"), ("i2", "i1"), ("i1", "i2"), ("i3", "i2")]])
        return train_seq_model(train, self.TABLE, CFG, order=3, alpha=0.3), train

    def test_recall_positions(self):
        model, _ = self.make_model()
        test = dataset(self.TABLE, [(("i1",), "i2")], "test")
        report = evaluate(
            model, test, self.TABLE, CFG, head_set=frozenset({1}),
            beam_width=27, k_list=(1, 3), trie_mode="on",
        )
        assert report.recall[3]["overall"] >= report.recall[1]["overall"]

    def test_invalid_ratio_example(self):
        # with the trie off, invalid_ratio@k is the share of the emitted top-k
        # sequences that match no catalog id, per partition of the targets
        model, _ = self.make_model()
        records = [(("i1",), "i2"), (("i3",), "i3"), (("i2",), "i1")]
        test = dataset(self.TABLE, records, "test")
        k_list = (1, 3, 10)
        head_set = frozenset({1})
        report = evaluate(model, test, self.TABLE, CFG, head_set, 10, k_list, "off")
        trie = reference_trie(self.CATALOG)
        for k in k_list:
            bad = {"overall": 0, "head": 0, "tail": 0}
            emitted = {"overall": 0, "head": 0, "tail": 0}
            for history, target in records:
                context = [t for item in history for t in self.CATALOG[item]]
                top = [seq for seq, _ in decode(model, [context], 10, 3, CFG)[0][:k]]
                group = "head" if self.SIDS[target][1] in head_set else "tail"
                for g in ("overall", group):
                    bad[g] += sum(1 for seq in top if not trie.contains(seq))
                    emitted[g] += len(top)
            for g in bad:
                assert report.invalid_ratio[k][g] == bad[g] / emitted[g], (k, g)
        assert report.record_counts == {"overall": 3, "head": 2, "tail": 1}
        assert 0 < report.invalid_ratio[10]["overall"] < 1

    def test_trie_mode_on_zero_invalid(self):
        model, _ = self.make_model()
        test = dataset(self.TABLE, [(("i1",), "i2"), (("i2",), "i1")], "test")
        report = evaluate(
            model, test, self.TABLE, CFG, head_set=frozenset({1}),
            beam_width=5, k_list=(1, 3, 5), trie_mode="on",
        )
        assert all(v == 0.0 for k in report.k_list for v in report.invalid_ratio[k].values())

    def test_recall_non_decreasing_in_k(self):
        model, _ = self.make_model()
        test = dataset(self.TABLE, [(("i1",), "i2"), (("i3",), "i1")], "test")
        report = evaluate(
            model, test, self.TABLE, CFG, head_set=frozenset({1}),
            beam_width=30, k_list=(1, 3, 10, 30), trie_mode="off",
        )
        overall = [report.recall[k]["overall"] for k in report.k_list]
        assert overall == sorted(overall)

    def test_partition_exhaustive_and_disjoint(self):
        model, _ = self.make_model()
        test = dataset(self.TABLE, [(("i1",), "i2"), (("i2",), "i3")], "test")
        report = evaluate(
            model, test, self.TABLE, CFG, head_set=frozenset({1}),
            beam_width=4, k_list=(1,), trie_mode="on",
        )
        rc = report.record_counts
        assert rc["head"] + rc["tail"] == rc["overall"] == 2

    def test_empty_test_set_scores_zero(self):
        model, _ = self.make_model()
        for trie_mode in ("off", "on"):
            report = evaluate(model, InteractionDataset([], [], "test"), self.TABLE, CFG,
                              frozenset({1}), 4, (1, 4), trie_mode)
            assert report.record_counts == {"overall": 0, "head": 0, "tail": 0}
            assert all(v == 0.0 for k in (1, 4) for v in report.recall[k].values())
            assert all(v == 0.0 for k in (1, 4) for v in report.invalid_ratio[k].values())

    def test_k_exceeding_beam_rejected(self):
        model, _ = self.make_model()
        test = dataset(self.TABLE, [(("i1",), "i2")], "test")
        with pytest.raises(ConfigError):
            evaluate(model, test, self.TABLE, CFG, frozenset(), 3, (5,), "on")

    def test_given_prefix_layers(self):
        model, _ = self.make_model()
        test = dataset(self.TABLE, [(("i3",), "i1")], "test")
        free = evaluate(model, test, self.TABLE, CFG, frozenset({1}), 27, (1,), "on")
        fixed = evaluate(
            model, test, self.TABLE, CFG, frozenset({1}), 27, (1,), "on",
            given_prefix_layers=1,
        )
        assert fixed.recall[1]["overall"] >= free.recall[1]["overall"]

    @pytest.mark.parametrize("given", [-1, CFG.num_layers + 1, 9])
    def test_given_prefix_layers_outside_0_to_L_rejected(self, given):
        model, _ = self.make_model()
        test = dataset(self.TABLE, [(("i3",), "i1")], "test")
        with pytest.raises(ConfigError, match="given_prefix_layers"):
            evaluate(model, test, self.TABLE, CFG, frozenset({1}), 27, (1,), "on",
                     given_prefix_layers=given)
        # all L layers given is the largest prefix
        report = evaluate(model, test, self.TABLE, CFG, frozenset({1}), 27, (1,), "on",
                          given_prefix_layers=CFG.num_layers)
        assert report.recall[1]["overall"] == 1.0

    def test_elided_gold_counts_as_head(self):
        cfg = QuantizerConfig(num_layers=3, codebook_size=4, dim=1)
        # h elides layer 2; t is the full id (1, 2, 3)
        catalog = table_of({"h": (0, 10), "t": (1, 6, 11)}, cfg)
        train = dataset(catalog, [(("t",), "h"), (("h",), "t")])
        model = train_seq_model(train, catalog, cfg, order=2, alpha=0.5)
        test = dataset(catalog, [(("t",), "h")], "test")
        report = evaluate(model, test, catalog, cfg, frozenset(), 4, (1,), "on")
        assert report.record_counts["head"] == 1


class TestEvaluateOracle:
    """evaluate over the id table equals the evaluation over per-item
    (layer, token) entries, decoded one record at a time and scored per
    sequence, that it replaced."""

    @staticmethod
    def setup_case(seed, num_layers, elide_share, num_test=40, order=3):
        gen = np.random.default_rng(seed)
        config = QuantizerConfig(num_layers=num_layers, codebook_size=4, dim=1)
        n = 40
        item_ids = [f"item_{k}" for k in range(n)]
        rows = gen.integers(0, 4, size=(n, num_layers)).tolist()
        is_full = [not (num_layers >= 3 and gen.random() < elide_share) for _ in range(n)]
        entries = [
            (item, tuple((l, t) for l, t in enumerate(row, 1) if full or l != 2))
            for item, row, full in zip(item_ids, rows, is_full)
        ]
        table = sid_table(np.array(item_ids), rows, config, is_full)
        spec = InteractionSpec(num_records=300, min_history=1, max_history=3)
        train = gen_interactions(n, spec, RandomSource(seed))
        test = gen_interactions(n, InteractionSpec(num_records=num_test), RandomSource(seed + 1),
                                "test")
        model = train_seq_model(train, table, config, order=order, alpha=0.2)
        return config, entries, table, model, test

    @staticmethod
    def decode_states(test, table, config, order, given):
        """The distinct decode states of a test set's records: the last
        `order` tokens of each context, and the first `given` tokens of its
        target's id."""
        flat_by_item = catalog_of(table, config)
        states = set()
        for history, target in records_of(test, table.item_id.tolist()):
            context = [t for item in history for t in flat_by_item[item]]
            states.add((tuple(context[-order:]), flat_by_item[target][:given]))
        return states

    @staticmethod
    def searched_states(monkeypatch):
        """The list that each later beam_search call appends its (context,
        fixed prefix) pairs to, as one list per call."""
        calls = []
        search = grsim.beam_search

        def recorded(model, contexts, *args, fixed_prefixes, **kwargs):
            calls.append([(tuple(c), tuple(p)) for c, p in zip(contexts, fixed_prefixes)])
            return search(model, contexts, *args, fixed_prefixes=fixed_prefixes, **kwargs)

        monkeypatch.setattr(grsim, "beam_search", recorded)
        return calls

    def check_each_state_decoded_once(self, monkeypatch, case, test, head_set=frozenset({0, 2})):
        """evaluate equals reference_evaluate in both trie modes for given
        layers 0-2, and hands beam_search each decode state of the test
        records exactly once; returns the state count per given layers."""
        config, entries, table, model, _ = case
        calls = self.searched_states(monkeypatch)
        counts = []
        for given in range(3):
            states = self.decode_states(test, table, config, model.order, given)
            for trie_mode in ("off", "on"):
                calls.clear()
                args = (model, test, config, head_set, 10, (1, 3, 10), trie_mode, given)
                got = evaluate(args[0], args[1], table, *args[2:])
                assert got == reference_evaluate(args[0], args[1], entries, *args[2:]), (
                    trie_mode, given)
                searched = [state for call in calls for state in call]
                assert sorted(searched) == sorted(states), (trie_mode, given)
            counts.append(len(states))
        return counts

    @pytest.mark.parametrize("seed,num_layers,elide_share",
                             [(0, 3, 0.4), (1, 3, 0.0), (2, 4, 0.6), (3, 2, 0.0), (4, 1, 0.0)])
    def test_matches_reference(self, seed, num_layers, elide_share):
        config, entries, table, model, test = self.setup_case(seed, num_layers, elide_share)
        head_set = frozenset({0, 2})
        for trie_mode in ("off", "on"):
            for given in range(min(num_layers, 3)):
                args = (model, test, config, head_set, 10, (1, 3, 10), trie_mode, given)
                got = evaluate(args[0], args[1], table, *args[2:])
                want = reference_evaluate(args[0], args[1], entries, *args[2:])
                assert got == want, (trie_mode, given)
                assert got.to_dict() == want.to_dict()


    @pytest.mark.parametrize("chunk", [None, 1, 3])
    def test_chunks_match_reference(self, chunk, monkeypatch):
        if chunk is not None:
            monkeypatch.setattr(grsim, "_DECODE_CHUNK", chunk)
        size = grsim._DECODE_CHUNK
        config, entries, table, model, test = self.setup_case(5, 3, 0.4, 2 * size + 3)
        head_set = frozenset({1, 3})
        for count in (1, size, 2 * size + 3):
            part = InteractionDataset(test.items[: test.sizes[:count].sum()], test.sizes[:count],
                                      "test")
            assert len(part) == count
            for trie_mode in ("off", "on"):
                for given in (0, 1, 2):
                    args = (model, part, config, head_set, 10, (1, 5, 10), trie_mode, given)
                    got = evaluate(args[0], args[1], table, *args[2:])
                    want = reference_evaluate(args[0], args[1], entries, *args[2:])
                    assert got == want, (count, trie_mode, given)


    @pytest.mark.parametrize("fit,chunk", [(0, 1), (2, 2), (100, grsim._DECODE_CHUNK)])
    def test_chunk_bounded_by_its_scores(self, monkeypatch, fit, chunk):
        """In either trie mode a chunk holds as many decode states as `fit`
        in _DECODE_FLOATS at beam_width * vocab_size floats each, at least
        one and at most _DECODE_CHUNK; each state is decoded once."""
        config, entries, table, model, test = self.setup_case(6, 3, 0.4, num_test=300)
        states = len(self.decode_states(test, table, config, model.order, 0))
        assert states > grsim._DECODE_CHUNK  # so the largest chunk is the bound
        monkeypatch.setattr(grsim, "_DECODE_FLOATS", fit * 10 * model.vocab_size)
        calls = self.searched_states(monkeypatch)
        head_set = frozenset({0, 3})
        for trie_mode in ("off", "on"):
            calls.clear()
            args = (model, test, config, head_set, 10, (1, 5, 10), trie_mode, 0)
            got = evaluate(args[0], args[1], table, *args[2:])
            assert got == reference_evaluate(args[0], args[1], entries, *args[2:]), trie_mode
            sizes = [len(call) for call in calls]
            assert max(sizes) == chunk and sum(sizes) == states, trie_mode

    def test_shared_last_item_decodes_once(self, monkeypatch):
        # most records end in item_0, a full-length id of `order` tokens, so
        # with no prefix they share one decode state; items whose ids collide
        # share one too
        case = self.setup_case(7, 3, 0.0)
        items = case[2].item_id.tolist()
        records = [((items[k], "item_0"), items[(3 * k) % 40]) for k in range(1, 31)]
        records += [((items[k],), items[k + 1]) for k in range(5, 15)]
        test = dataset(case[2], records, "test")
        counts = self.check_each_state_decoded_once(monkeypatch, case, test)
        assert counts[0] <= 11

    def test_prefixes_split_a_shared_context(self, monkeypatch):
        # one history for every target: one state with no prefix, then one
        # per distinct first `given` tokens of the targets
        case = self.setup_case(8, 3, 0.4)
        config, _, table, _, _ = case
        items = table.item_id.tolist()
        test = dataset(table, [(("item_3", "item_5"), target) for target in items], "test")
        flat_rows = sid_to_flat_tokens(table, config)
        counts = self.check_each_state_decoded_once(monkeypatch, case, test)
        assert counts == [1] + [len(np.unique(flat_rows[:, :g], axis=0)) for g in (1, 2)]
        assert counts[2] > counts[1] > 1

    def test_contexts_shorter_than_order(self, monkeypatch):
        # with order 8, one- and two-item contexts of at most 6 tokens are
        # shorter than order, so a context ending in the same item keeps its
        # own state unless its whole history is the same
        case = self.setup_case(9, 3, 0.4, order=8)
        table = case[2]
        records = [(("item_1",), "item_2"), (("item_0", "item_1"), "item_2"),
                   (("item_4", "item_1"), "item_2"), (("item_1",), "item_7"),
                   (("item_6", "item_0", "item_1"), "item_2")]
        test = dataset(table, records, "test")
        counts = self.check_each_state_decoded_once(monkeypatch, case, test)
        assert counts[0] == 4
        self.check_each_state_decoded_once(monkeypatch, case, case[4])

    def test_empty_test_set_decodes_nothing(self, monkeypatch):
        case = self.setup_case(10, 3, 0.4)
        assert self.check_each_state_decoded_once(
            monkeypatch, case, InteractionDataset([], [], "test")) == [0, 0, 0]


class TestGenInteractions:
    def test_deterministic(self):
        spec = InteractionSpec(num_records=50, min_history=2, max_history=4)
        a = gen_interactions(20, spec, RandomSource(3))
        b = gen_interactions(20, spec, RandomSource(3))
        assert same(a, b)

    def test_histories_within_bounds(self):
        spec = InteractionSpec(num_records=100, min_history=2, max_history=5)
        ds = gen_interactions(10, spec, RandomSource(1))
        assert len(ds) == 100
        for size in ds.sizes - 1:
            assert 2 <= size <= 5

    def test_popularity_skew(self):
        spec = InteractionSpec(num_records=400, pop_exponent=1.5, repeat_prob=0.0)
        ds = gen_interactions(50, spec, RandomSource(5))
        first = np.count_nonzero(ds.items == 0)
        last = np.count_nonzero(ds.items == 49)
        assert first > last

    def test_empty_catalog(self):
        with pytest.raises(DataError):
            gen_interactions(0, InteractionSpec(num_records=5), RandomSource(0))

    @pytest.mark.parametrize("split", ["train", "test"])
    def test_labels_split(self, split):
        assert gen_interactions(5, InteractionSpec(num_records=3), RandomSource(0), split).split \
            == split

    def test_one_item_catalog(self):
        got = gen_interactions(1, InteractionSpec(num_records=40, repeat_prob=0.5), RandomSource(4))
        assert len(got) == 40 and (got.items == 0).all()

    def test_draws_in_the_documented_order(self):
        for seed, (pop_exponent, repeat_prob) in enumerate(self.SPECS):
            for n in (1, 7, 2000):
                spec = InteractionSpec(num_records=150, min_history=1 + seed % 3,
                                       max_history=2 + seed, pop_exponent=pop_exponent,
                                       repeat_prob=repeat_prob)
                got = gen_interactions(n, spec, RandomSource(n + seed), "test")
                want = documented_order_interactions(n, spec, RandomSource(n + seed), "test")
                assert same(got, want), (n, pop_exponent, repeat_prob)

    def test_every_step_repeats_at_repeat_prob_1(self):
        spec = InteractionSpec(num_records=300, min_history=1, max_history=6, repeat_prob=1.0)
        got = gen_interactions(40, spec, RandomSource(2))
        steps = repeated_steps(got, successors_of(40, spec.pop_exponent, RandomSource(2)))
        assert steps[0] == steps[1] == len(got.items) - len(got)

    @pytest.mark.parametrize("history", [1, 3, 8])
    def test_one_history_length_fixes_every_size(self, history):
        spec = InteractionSpec(num_records=200, min_history=history, max_history=history)
        assert (gen_interactions(30, spec, RandomSource(history)).sizes == history + 1).all()

    @pytest.mark.parametrize("n,spec", [
        (2000, InteractionSpec(20_000, 2, 5, pop_exponent=1.0, repeat_prob=0.6)),
        (50, InteractionSpec(20_000, 1, 8, pop_exponent=1.7, repeat_prob=0.3)),
        (7, InteractionSpec(20_000, 3, 4, pop_exponent=0.5, repeat_prob=0.0)),
    ], ids=["2000-items", "50-items", "7-items"])
    def test_draws_the_reference_process(self, n, spec):
        """History lengths, first items and successor repeats are those of
        the scalar generator, within 5 binomial sigma."""
        got = gen_interactions(n, spec, RandomSource(n))
        want = searchsorted_interactions(n, spec, RandomSource(n))
        lengths = [np.bincount(ds.sizes - 1, minlength=spec.max_history + 1)[spec.min_history:]
                   for ds in (got, want)]
        assert_same_share(lengths[0], spec.num_records, lengths[1], spec.num_records)
        # first items by rank bucket [2**b - 1, 2**(b + 1) - 1), so that each
        # bucket holds enough popularity to count
        bucket = np.log2(np.arange(1, n + 1)).astype(int)
        popularity = np.bincount(bucket, popularity_of(n, spec.pop_exponent))
        for ds in (got, want):
            first = np.bincount(bucket[ds.items[np.cumsum(ds.sizes) - ds.sizes]],
                                minlength=len(popularity))
            sigma = np.sqrt(spec.num_records * popularity * (1 - popularity))
            assert (abs(first - spec.num_records * popularity) <= 5 * sigma).all()
        successors = successors_of(n, spec.pop_exponent, RandomSource(n))
        (steps, repeats), (want_steps, want_repeats) = (repeated_steps(ds, successors)
                                                        for ds in (got, want))
        assert_same_share(repeats, steps, want_repeats, want_steps)

    SPECS = [(pop_exponent, repeat_prob) for pop_exponent in (0.5, 1.0, 1.7)
             for repeat_prob in (0.0, 0.6, 1.0)]

    @pytest.mark.parametrize("n", [1, 7, 2000])
    def test_saved_file_matches_reference_writer(self, n, tmp_path):
        """save_interactions of generated rows writes the bytes that the
        writer of id records writes for the same records."""
        items = [f"i{k}" for k in range(n)]
        table = sid_table(np.array(items), np.zeros((n, CFG.num_layers), dtype=np.int64), CFG)
        for seed, (pop_exponent, repeat_prob) in enumerate(self.SPECS):
            spec = InteractionSpec(num_records=150, pop_exponent=pop_exponent,
                                   repeat_prob=repeat_prob)
            got = [gen_interactions(n, spec, RandomSource(seed + k), split)
                   for k, split in enumerate(("train", "test"))]
            want = [(records_of(ds, items), ds.split) for ds in got]
            save_interactions(tmp_path / "interactions.csv", got, table)
            assert ((tmp_path / "interactions.csv").read_bytes()
                    == reference_interactions_csv(want).encode()), (pop_exponent, repeat_prob)


class TestInteractionDataset:
    def test_negative_row_rejected(self):
        with pytest.raises(DataError, match="negative"):
            InteractionDataset([0, -1], [2])

    def test_empty_history_rejected(self):
        with pytest.raises(DataError, match="record 1 has an empty history"):
            InteractionDataset([0, 1, 2], [2, 1])

    @pytest.mark.parametrize("items,sizes", [([0, 1, 2], [2]), ([[0, 1]], [2]), ([0, 1], 2)])
    def test_sizes_must_cover_items(self, items, sizes):
        with pytest.raises(DataError, match="sizes"):
            InteractionDataset(items, sizes)

    def test_arrays_are_read_only(self):
        data = InteractionDataset([0, 1], [2])
        assert data.items.dtype == data.sizes.dtype == np.int64
        with pytest.raises(ValueError):
            data.items[0] = 1

    def test_evaluate_rejects_row_past_catalog(self):
        table = table_of({"a": (0, 4, 8), "b": (1, 5, 9)})
        model = train_seq_model(dataset(table, [(("a",), "b")]), table, CFG, 1, 1.0)
        for test in (InteractionDataset([0, 2], [2], "test"),
                     InteractionDataset([2, 0], [2], "test")):
            with pytest.raises(DataError, match="test item row 2 is not in the catalog"):
                evaluate(model, test, table, CFG, frozenset(), 2, (1,), "on")
