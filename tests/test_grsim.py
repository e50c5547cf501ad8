import math
from itertools import product

import numpy as np
import pytest

from rqsid.core import (
    ConfigError,
    DataError,
    PrefixNotFoundError,
    QuantizerConfig,
    RandomSource,
    VarLenSemanticId,
)
from rqsid.grsim import (
    Interaction,
    InteractionDataset,
    InteractionSpec,
    SequenceModel,
    beam_search,
    build_trie,
    evaluate,
    gen_interactions,
    train_seq_model,
)

CFG = QuantizerConfig(num_layers=3, codebook_size=4, dim=2)


def flat(sid, cfg=CFG):
    from rqsid.core import sid_to_flat_tokens

    return tuple(sid_to_flat_tokens(sid, cfg))


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


def reference_interactions(item_ids, spec, rng, split="train"):
    """The interaction generator that called gen.choice(n, p=...) per draw."""
    item_ids = [str(i) for i in item_ids]
    n = len(item_ids)
    weights = 1.0 / np.arange(1, n + 1, dtype=np.float64) ** spec.pop_exponent
    popularity = weights / weights.sum()
    succ_rng, walk_rng = rng.split(2)
    successors = succ_rng.generator().choice(n, size=n, p=popularity)
    gen = walk_rng.generator()
    records = []
    for _ in range(spec.num_records):
        length = int(gen.integers(spec.min_history, spec.max_history + 1)) + 1
        seq = [int(gen.choice(n, p=popularity))]
        for _ in range(length - 1):
            if gen.random() < spec.repeat_prob:
                seq.append(int(successors[seq[-1]]))
            else:
                seq.append(int(gen.choice(n, p=popularity)))
        records.append(
            Interaction(
                history=tuple(item_ids[i] for i in seq[:-1]),
                target=item_ids[seq[-1]],
            )
        )
    return InteractionDataset(tuple(records), split=split)


class TestCatalogTrie:
    CATALOG = [("i1", (0, 1, 2)), ("i2", (0, 1, 3))]

    def test_membership(self):
        trie = build_trie(self.CATALOG, CFG)
        assert trie.contains(flat((0, 1, 2)))
        assert not trie.contains(flat((0, 2, 2)))

    def test_valid_next(self):
        trie = build_trie(self.CATALOG, CFG)
        prefix = flat((0, 1, 2))[:2]
        assert trie.valid_next(prefix) == {2 * 4 + 2, 2 * 4 + 3}

    def test_terminal_has_no_children(self):
        trie = build_trie(self.CATALOG, CFG)
        assert trie.valid_next(flat((0, 1, 2))) == frozenset()

    def test_unknown_prefix_signals(self):
        trie = build_trie(self.CATALOG, CFG)
        with pytest.raises(PrefixNotFoundError):
            trie.valid_next((3,))

    def test_varlen_coexists(self):
        catalog = self.CATALOG + [("i3", VarLenSemanticId(((1, 0), (3, 2))))]
        trie = build_trie(catalog, CFG)
        assert trie.contains((0, 2 * 4 + 2))
        assert trie.contains(flat((0, 1, 2)))
        # after the shared layer-1 token both layer-2 and layer-3 moves exist
        assert trie.valid_next((0,)) == {4 + 1, 2 * 4 + 2}

    def test_collisions_recorded(self):
        catalog = [("a", (0, 1, 2)), ("b", (0, 1, 2))]
        trie = build_trie(catalog, CFG)
        assert trie.items_at(flat((0, 1, 2))) == ("a", "b")

    def test_empty_catalog(self):
        with pytest.raises(DataError):
            build_trie([], CFG)


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

    def test_config_validation(self):
        with pytest.raises(ConfigError):
            SequenceModel(order=0, alpha=1.0, vocab_size=2)
        with pytest.raises(ConfigError):
            SequenceModel(order=1, alpha=0.0, vocab_size=2)


class TestTrainSeqModel:
    def test_streams_are_history_plus_target(self):
        catalog = {"a": (0, 4, 8), "b": (1, 5, 9)}
        data = InteractionDataset((Interaction(("a",), "b"),))
        model = train_seq_model(data, catalog, order=1, alpha=1.0)
        # transition 8 -> 1 crosses from history into the target tokens
        assert model.probs([8])[1] > model.probs([8])[2]

    def test_unknown_item(self):
        data = InteractionDataset((Interaction(("missing",), "a"),))
        with pytest.raises(DataError):
            train_seq_model(data, {"a": (0, 4, 8)}, order=1, alpha=1.0)

    def test_empty_dataset(self):
        with pytest.raises(DataError):
            train_seq_model(InteractionDataset(()), {"a": (0, 4, 8)}, 1, 1.0)


class TestBeamSearch:
    def test_forced_sequence(self):
        # context 2 forces token 0, then (2, 0) forces the terminal token 3
        cfg = QuantizerConfig(num_layers=2, codebook_size=2, dim=1)
        model = SequenceModel(order=2, alpha=1e-9, vocab_size=4)
        for _ in range(50):
            model.observe_stream([2, 0, 3])
        result = beam_search(model, (2,), beam_width=1, max_len=2, config=cfg)
        assert result[0][0] == (0, 3)

    def test_brute_force_oracle_small(self):
        gen = np.random.default_rng(13)
        cfg = QuantizerConfig(num_layers=2, codebook_size=2, dim=1)
        for _ in range(10):
            model = SequenceModel(order=2, alpha=float(gen.uniform(0.05, 2.0)), vocab_size=4)
            for _ in range(30):
                model.observe_stream(gen.integers(0, 4, size=6).tolist())
            width = 4**3
            got = beam_search(model, (), beam_width=width, max_len=3, config=cfg)
            want = brute_force_beam(model, (), 3, cfg, width)
            assert got == want

    def test_trie_constraint_membership(self):
        catalog = [("i1", (0, 1, 2)), ("i2", (0, 1, 3)), ("i3", (2, 0, 0))]
        trie = build_trie(catalog, CFG)
        model = SequenceModel(order=2, alpha=0.5, vocab_size=CFG.flat_vocab_size)
        gen = np.random.default_rng(4)
        for _ in range(20):
            model.observe_stream(gen.integers(0, 12, size=8).tolist())
        results = beam_search(model, (), beam_width=10, max_len=3, config=CFG, trie=trie)
        assert results
        for seq, _ in results:
            assert trie.contains(seq)

    def test_fixed_prefix_prepended(self):
        model = SequenceModel(order=1, alpha=1.0, vocab_size=CFG.flat_vocab_size)
        model.observe_stream([0, 5, 9])
        results = beam_search(model, (), beam_width=3, max_len=2, config=CFG, fixed_prefix=(0,))
        assert all(seq[0] == 0 for seq, _ in results)

    # three unconstrained steps over CFG's 12 flat tokens end at most
    # 4 + 8 * 4 + 8 * 8 * 4 = 292 sequences, so the last width is exhaustive
    WIDTHS = (1, 3, 10, 12**3)
    VARLEN_CATALOG = [
        ("a", (0, 1, 2)),
        ("b", (0, 1, 3)),
        ("c", (0, 2, 0)),
        ("d", VarLenSemanticId(((1, 0), (3, 1)))),
        ("e", VarLenSemanticId(((1, 1), (3, 3)))),
        ("f", (1, 3, 3)),
        ("g", (2, 0, 1)),
        ("h", VarLenSemanticId(((1, 3), (3, 0)))),
    ]

    @staticmethod
    def random_model(gen, alpha, order=2, streams=15):
        model = SequenceModel(order=order, alpha=alpha, vocab_size=CFG.flat_vocab_size)
        for _ in range(streams):
            model.observe_stream(gen.integers(0, CFG.flat_vocab_size, size=6).tolist())
        return model

    def assert_matches_reference(self, model, context, trie=None, prefixes=(None,)):
        for width in self.WIDTHS:
            for prefix in prefixes:
                args = (model, context, width, 3, CFG, trie, prefix)
                got = beam_search(*args)
                want = reference_beam(*args)
                # equal sequences, float scores and order; == on floats is exact
                assert got == want, (width, prefix)
                assert all(type(t) is int for seq, _ in got for t in seq)
                assert all(type(logp) is float for _, logp in got)

    def test_matches_reference_trie_off(self):
        gen = np.random.default_rng(21)
        for _ in range(6):
            model = self.random_model(gen, alpha=float(gen.uniform(0.05, 2.0)))
            context = gen.integers(0, CFG.flat_vocab_size, size=3).tolist()
            self.assert_matches_reference(model, context, prefixes=(None, (0,), (0, 5), (9,)))

    def test_matches_reference_trie_on_varlen(self):
        trie = build_trie(self.VARLEN_CATALOG, CFG)
        # (1, 5) and (2, 7) are not in the trie; (3,) leads only to an elided id
        prefixes = (None, (0,), (1,), (1, 4 + 1), (3,), (2, 4 + 3), (0, 4 + 1, 2 * 4 + 2))
        gen = np.random.default_rng(22)
        for _ in range(6):
            model = self.random_model(gen, alpha=float(gen.uniform(0.05, 2.0)))
            context = gen.integers(0, CFG.flat_vocab_size, size=3).tolist()
            self.assert_matches_reference(model, context, trie, prefixes)

    def test_prefix_outside_trie_yields_nothing(self):
        trie = build_trie(self.VARLEN_CATALOG, CFG)
        model = self.random_model(np.random.default_rng(23), alpha=0.5)
        for prefix in ((2, 4 + 1), (0, 4 + 3), (1, 4 + 0)):
            assert beam_search(model, (), 10, 3, CFG, trie, prefix) == []
            assert reference_beam(model, (), 10, 3, CFG, trie, prefix) == []

    def test_matches_reference_under_ties(self):
        # a large alpha flattens the seen contexts, and the rest are unseen
        # and exactly uniform, so most scores tie and the lexicographic
        # tie order decides the ranking below the exhaustive width
        gen = np.random.default_rng(24)
        trie = build_trie(self.VARLEN_CATALOG, CFG)
        for order in (1, 2):
            model = self.random_model(gen, alpha=1e6, order=order, streams=2)
            for context in ((), (11,), (0, 4)):
                self.assert_matches_reference(model, context, prefixes=(None, (1,)))
                self.assert_matches_reference(model, context, trie, prefixes=(None, (1,)))
        uniform = SequenceModel(order=1, alpha=1.0, vocab_size=CFG.flat_vocab_size)
        uniform.observe_stream([0, 0])
        got = beam_search(uniform, (7,), 3, 3, CFG)
        assert [seq for seq, _ in got] == [(8,), (9,), (10,)]

    def test_tie_across_parents_is_lexicographic(self):
        # contexts 11, 0 and 1 are each seen three times, so a token seen
        # once scores x and one seen twice scores y > x in each of them:
        # (1,) outscores (0,) after one step, yet (0, 8) and (1, 9) both
        # score x + y; the tie goes to the lexicographically smaller (0, 8)
        model = SequenceModel(order=1, alpha=0.1, vocab_size=CFG.flat_vocab_size)
        for stream in ([11, 0], [11, 1], [11, 1], [0, 8], [0, 8], [0, 11],
                       [1, 9], [1, 10], [1, 10]):
            model.observe_stream(stream)
        got = beam_search(model, (11,), 2, 3, CFG)
        assert [seq for seq, _ in got] == [(1, 10), (0, 8)]
        assert got == reference_beam(model, (11,), 2, 3, CFG)

    def test_zero_beam_rejected(self):
        model = SequenceModel(order=1, alpha=1.0, vocab_size=4)
        with pytest.raises(ConfigError):
            beam_search(model, (), beam_width=0, max_len=1, config=CFG)


class TestEvaluate:
    CATALOG = [("i1", (0, 1, 2)), ("i2", (0, 1, 3)), ("i3", (1, 0, 0))]

    def make_model(self):
        flat_map = {item: flat(sid) for item, sid in self.CATALOG}
        train = InteractionDataset(
            tuple(
                Interaction((a,), b)
                for a, b in [("i1", "i2"), ("i2", "i1"), ("i1", "i2"), ("i3", "i2")]
            )
        )
        return train_seq_model(train, flat_map, order=3, alpha=0.3), train

    def test_recall_positions(self):
        model, _ = self.make_model()
        test = InteractionDataset((Interaction(("i1",), "i2"),), split="test")
        report = evaluate(
            model, test, self.CATALOG, CFG, head_set=frozenset({1}),
            beam_width=27, k_list=(1, 3), trie_mode="on",
        )
        assert report.recall[3]["overall"] >= report.recall[1]["overall"]

    def test_invalid_ratio_example(self):
        # with the trie off, invalid_ratio@k is the share of the emitted top-k
        # sequences that match no catalog id, per partition of the targets
        model, _ = self.make_model()
        test = InteractionDataset(
            (Interaction(("i1",), "i2"), Interaction(("i3",), "i3"), Interaction(("i2",), "i1")),
            split="test",
        )
        k_list = (1, 3, 10)
        head_set = frozenset({1})
        report = evaluate(model, test, self.CATALOG, CFG, head_set, 10, k_list, "off")
        trie = build_trie(self.CATALOG, CFG)
        flat_map = {item: flat(sid) for item, sid in self.CATALOG}
        sid_map = dict(self.CATALOG)
        for k in k_list:
            bad = {"overall": 0, "head": 0, "tail": 0}
            emitted = {"overall": 0, "head": 0, "tail": 0}
            for rec in test.records:
                context = [t for item in rec.history for t in flat_map[item]]
                top = [seq for seq, _ in beam_search(model, context, 10, 3, CFG)[:k]]
                group = "head" if sid_map[rec.target][1] in head_set else "tail"
                for g in ("overall", group):
                    bad[g] += sum(1 for seq in top if not trie.contains(seq))
                    emitted[g] += len(top)
            for g in bad:
                assert report.invalid_ratio[k][g] == bad[g] / emitted[g], (k, g)
        assert report.record_counts == {"overall": 3, "head": 2, "tail": 1}
        assert 0 < report.invalid_ratio[10]["overall"] < 1

    def test_trie_mode_on_zero_invalid(self):
        model, _ = self.make_model()
        test = InteractionDataset(
            (Interaction(("i1",), "i2"), Interaction(("i2",), "i1")), split="test"
        )
        report = evaluate(
            model, test, self.CATALOG, CFG, head_set=frozenset({1}),
            beam_width=5, k_list=(1, 3, 5), trie_mode="on",
        )
        assert all(v == 0.0 for k in report.k_list for v in report.invalid_ratio[k].values())

    def test_recall_non_decreasing_in_k(self):
        model, _ = self.make_model()
        test = InteractionDataset(
            (Interaction(("i1",), "i2"), Interaction(("i3",), "i1")), split="test"
        )
        report = evaluate(
            model, test, self.CATALOG, CFG, head_set=frozenset({1}),
            beam_width=30, k_list=(1, 3, 10, 30), trie_mode="off",
        )
        overall = [report.recall[k]["overall"] for k in report.k_list]
        assert overall == sorted(overall)

    def test_partition_exhaustive_and_disjoint(self):
        model, _ = self.make_model()
        test = InteractionDataset(
            (Interaction(("i1",), "i2"), Interaction(("i2",), "i3")), split="test"
        )
        report = evaluate(
            model, test, self.CATALOG, CFG, head_set=frozenset({1}),
            beam_width=4, k_list=(1,), trie_mode="on",
        )
        rc = report.record_counts
        assert rc["head"] + rc["tail"] == rc["overall"] == 2

    def test_k_exceeding_beam_rejected(self):
        model, _ = self.make_model()
        test = InteractionDataset((Interaction(("i1",), "i2"),), split="test")
        with pytest.raises(ConfigError):
            evaluate(model, test, self.CATALOG, CFG, frozenset(), 3, (5,), "on")

    def test_given_prefix_layers(self):
        model, _ = self.make_model()
        test = InteractionDataset((Interaction(("i3",), "i1"),), split="test")
        free = evaluate(model, test, self.CATALOG, CFG, frozenset({1}), 27, (1,), "on")
        fixed = evaluate(
            model, test, self.CATALOG, CFG, frozenset({1}), 27, (1,), "on",
            given_prefix_layers=1,
        )
        assert fixed.recall[1]["overall"] >= free.recall[1]["overall"]

    def test_elided_gold_counts_as_head(self):
        cfg = QuantizerConfig(num_layers=3, codebook_size=4, dim=1)
        catalog = [
            ("h", VarLenSemanticId(((1, 0), (3, 2)))),
            ("t", VarLenSemanticId.full((1, 2, 3))),
        ]
        flat_map = {"h": (0, 10), "t": (1, 6, 11)}
        train = InteractionDataset((Interaction(("t",), "h"), Interaction(("h",), "t")))
        model = train_seq_model(train, flat_map, order=2, alpha=0.5)
        test = InteractionDataset((Interaction(("t",), "h"),), split="test")
        report = evaluate(model, test, catalog, cfg, frozenset(), 4, (1,), "on")
        assert report.record_counts["head"] == 1


class TestGenInteractions:
    def test_deterministic(self):
        spec = InteractionSpec(num_records=50, min_history=2, max_history=4)
        items = [f"i{k}" for k in range(20)]
        a = gen_interactions(items, spec, RandomSource(3))
        b = gen_interactions(items, spec, RandomSource(3))
        assert a == b

    def test_histories_within_bounds(self):
        spec = InteractionSpec(num_records=100, min_history=2, max_history=5)
        ds = gen_interactions([f"i{k}" for k in range(10)], spec, RandomSource(1))
        assert len(ds) == 100
        for rec in ds.records:
            assert 2 <= len(rec.history) <= 5

    def test_popularity_skew(self):
        spec = InteractionSpec(num_records=400, pop_exponent=1.5, repeat_prob=0.0)
        items = [f"i{k}" for k in range(50)]
        ds = gen_interactions(items, spec, RandomSource(5))
        first = sum(1 for r in ds.records for it in (*r.history, r.target) if it == "i0")
        last = sum(1 for r in ds.records for it in (*r.history, r.target) if it == "i49")
        assert first > last

    def test_empty_catalog(self):
        with pytest.raises(DataError):
            gen_interactions([], InteractionSpec(num_records=5), RandomSource(0))

    @pytest.mark.parametrize("n", [1, 7, 2000])
    def test_matches_choice_reference(self, n):
        items = [f"i{k}" for k in range(n)]
        for pop_exponent in (0.5, 1.0, 1.7):
            for repeat_prob in (0.0, 0.6, 1.0):
                spec = InteractionSpec(
                    num_records=150, pop_exponent=pop_exponent, repeat_prob=repeat_prob
                )
                seed = n + int(10 * pop_exponent) + int(10 * repeat_prob)
                got = gen_interactions(items, spec, RandomSource(seed), "test")
                want = reference_interactions(items, spec, RandomSource(seed), "test")
                assert got == want, (pop_exponent, repeat_prob)
