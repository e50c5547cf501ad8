from itertools import product

import numpy as np
import pytest

from rqsid.core import (
    ConfigError,
    ConsistencyError,
    QuantizerConfig,
    TokenRangeError,
    UndefinedStatError,
    sid_table,
)
from rqsid.diagnostics import (
    LayerStats,
    Selector,
    gini,
    head_tail_split,
    hourglass_report,
    token_histogram,
)
from rqsid.mitigation import (
    PostMitigationReport,
    elision_capacity,
    exchange_layers,
    post_mitigation_report,
    remove_layer,
    varlen_topk,
)
from test_persist import table_entries

CFG = QuantizerConfig(num_layers=3, codebook_size=4, dim=2)


CFG10 = QuantizerConfig(num_layers=3, codebook_size=10, dim=1)


def table(rows, cfg=CFG10):
    return sid_table(np.array([f"i{k}" for k in range(len(rows))]), rows, cfg)


class TestExchangeLayers:
    def test_swap(self):
        out = exchange_layers(table([(3, 7, 9)]), 1, 2, CFG10)
        assert out.tokens.tolist() == [[7, 3, 9]]
        assert out.item_id.tolist() == ["i0"]

    def test_involution(self):
        gen = np.random.default_rng(0)
        sids = table(gen.integers(0, 4, size=(50, 3)), CFG)
        twice = exchange_layers(exchange_layers(sids, 1, 2, CFG), 1, 2, CFG)
        np.testing.assert_array_equal(twice, sids)

    def test_histogram_swap(self):
        gen = np.random.default_rng(1)
        sids = gen.integers(0, 4, size=(80, 3))
        swapped = exchange_layers(table(sids, CFG), 1, 2, CFG)
        h1 = token_histogram(sids, 1, 4)
        h2_after = token_histogram(swapped.tokens, 2, 4)
        np.testing.assert_array_equal(h1, h2_after)

    def test_preserves_token_multiset(self):
        gen = np.random.default_rng(2)
        sids = gen.integers(0, 4, size=(30, 3))
        swapped = exchange_layers(table(sids, CFG), 2, 3, CFG)
        for before, after in zip(sids, swapped.tokens):
            assert sorted(before) == sorted(after)

    def test_out_of_range(self):
        with pytest.raises(TokenRangeError):
            exchange_layers(table([(0, 1, 2)], CFG), 1, 4, CFG)

    def test_elided_ids_rejected(self):
        elided = remove_layer(table([(0, 1, 2)], CFG), CFG).transformed_sids
        with pytest.raises(ConsistencyError):
            exchange_layers(elided, 1, 3, CFG)


class TestRemoveLayer:
    def test_collision_reported(self):
        cfg = QuantizerConfig(num_layers=3, codebook_size=8, dim=1)
        out = remove_layer(sid_table(np.array(["a", "b"]), [(0, 5, 2), (0, 6, 2)], cfg), cfg)
        assert out.transformed_sids.tokens.tolist() == [[0, -1, 2], [0, -1, 2]]
        assert not out.transformed_sids.is_full.any()
        assert out.collisions == {(0, 2 * 8 + 2): ("a", "b")}

    def test_capacity_formula(self):
        cfg = QuantizerConfig(num_layers=3, codebook_size=4096, dim=1)
        out = remove_layer([(0, 0, 0)], cfg)
        assert out.capacity_paper_formula == 4096**2 == 16_777_216

    def test_distinct_bounded_by_capacity(self):
        gen = np.random.default_rng(3)
        sids = gen.integers(0, 4, size=(300, 3))
        out = remove_layer(sids, CFG)
        assert out.capacity_empirical_distinct <= 4**2
        assert out.capacity_empirical_distinct <= 300

    def test_single_layer_rejected(self):
        cfg = QuantizerConfig(num_layers=1, codebook_size=4, dim=1)
        with pytest.raises(ConfigError):
            remove_layer([(0,)], cfg)

    def test_two_layers_rejected(self):
        cfg = QuantizerConfig(num_layers=2, codebook_size=4, dim=1)
        with pytest.raises(ConfigError):
            remove_layer([(0, 1)], cfg)


class TestVarlenTopK:
    def make(self, sids, selector, m=10):
        cfg = QuantizerConfig(num_layers=3, codebook_size=m, dim=1)
        hist = token_histogram(sids, 2, m)
        return varlen_topk(table(sids, cfg), hist, selector, cfg), cfg

    def test_head_elided_tail_untouched(self):
        sids = [(3, 7, 9), (3, 8, 9), (3, 7, 1)]
        out, _ = self.make(sids, Selector.top_k(1))
        assert out.head_set == {7}
        assert out.transformed_sids.tokens.tolist() == [[3, -1, 9], [3, 8, 9], [3, -1, 1]]
        assert out.transformed_sids.is_full.tolist() == [False, True, False]

    def test_k0_identity(self):
        sids = [(1, 2, 3), (4, 5, 6)]
        out, cfg = self.make(sids, Selector.top_k(0))
        assert out.head_set == frozenset()
        assert out.capacity_paper_formula == 10**3
        assert out.transformed_sids.is_full.all()
        assert [tuple(row) for row in out.transformed_sids.tokens.tolist()] == sids

    def test_paper_capacity_value(self):
        cfg = QuantizerConfig(num_layers=3, codebook_size=4096, dim=1)
        sids = [(0, t, 0) for t in range(400)] + [(1, 500, 1)]
        hist = token_histogram(sids, 2, 4096)
        out = varlen_topk(sids, hist, Selector.top_k(400), cfg)
        assert out.capacity_paper_formula == 62_010_228_736

    def test_histogram_mismatch(self):
        sids = [(1, 2, 3)]
        hist = np.array([0, 0, 5, 0])
        with pytest.raises(ConsistencyError):
            varlen_topk(sids, hist, Selector.top_k(1),
                        QuantizerConfig(num_layers=3, codebook_size=4, dim=1))

    @pytest.mark.parametrize("hist", [
        [0, 0, 1, 0, 0], [0, 0, 1], [[0, 0, 1, 0]], [0, 1, 0, 0],
    ], ids=["extra-slot", "short", "2-d", "layer-1"])
    def test_histogram_not_the_layer2_count_array(self, hist):
        # the ids' layer-2 count array is [0, 0, 1, 0]
        with pytest.raises(ConsistencyError):
            varlen_topk([(1, 2, 3)], hist, Selector.top_k(1),
                        QuantizerConfig(num_layers=3, codebook_size=4, dim=1))

    def test_partition_property(self):
        gen = np.random.default_rng(7)
        sids = [tuple(map(int, r)) for r in gen.integers(0, 6, size=(120, 3))]
        out, _ = self.make(sids, Selector.mass(0.5), m=6)
        rows = out.transformed_sids.tokens.tolist()
        for original, row, full in zip(sids, rows, out.transformed_sids.is_full):
            if original[1] in out.head_set:
                assert not full and row == [original[0], -1, original[2]]
            else:
                assert full and row == list(original)

    def test_determinism(self):
        gen = np.random.default_rng(8)
        sids = [tuple(map(int, r)) for r in gen.integers(0, 5, size=(60, 3))]
        a, _ = self.make(sids, Selector.top_k(2), m=5)
        b, _ = self.make(sids, Selector.top_k(2), m=5)
        np.testing.assert_array_equal(a.transformed_sids, b.transformed_sids)
        assert a.collisions == b.collisions
        assert a.head_set == b.head_set


# --- the object-per-item code the id table replaced, on (layer, token) entries


def full_entries(sid):
    return tuple((layer, int(t)) for layer, t in enumerate(sid, start=1))


def elided_entries(sid):
    return tuple((layer, int(t)) for layer, t in enumerate(sid, start=1) if layer != 2)


def reference_collisions(transformed, item_ids):
    by_sid = {}
    for sid, item in zip(transformed, item_ids):
        by_sid.setdefault(sid, []).append(item)
    return {sid: tuple(items) for sid, items in by_sid.items() if len(items) >= 2}


def reference_remove(rows, config, item_ids):
    M, L = config.codebook_size, config.num_layers
    transformed = tuple(elided_entries(row) for row in rows)
    return {
        "transformed": transformed,
        "head_set": frozenset(range(M)),
        "capacity_paper_formula": M ** (L - 1),
        "capacity_empirical_distinct": len(set(transformed)),
        "collisions": reference_collisions(transformed, item_ids),
    }


def reference_varlen(rows, selector, config, item_ids):
    M, L = config.codebook_size, config.num_layers
    head, _ = head_tail_split(token_histogram(rows, 2, M), selector)
    transformed = tuple(
        elided_entries(row) if row[1] in head else full_entries(row) for row in rows
    )
    return {
        "transformed": transformed,
        "head_set": head,
        "capacity_paper_formula": M**L + len(head) * (M ** (L - 2) - M ** (L - 1)),
        "capacity_empirical_distinct": len(set(transformed)),
        "collisions": reference_collisions(transformed, item_ids),
    }


def reference_post(transformed, head_set, config, head_selector=Selector.mass(0.5)):
    L, M = config.num_layers, config.codebook_size
    full = [tuple(t for _, t in e) for e in transformed if len(e) == L]
    elision_rate = 1.0 - len(full) / len(transformed)
    if not full:
        return PostMitigationReport(elision_rate, None, None, None)
    arr = np.asarray(full, dtype=np.int64)
    tail_tokens = np.array(sorted(set(range(M)) - set(head_set)), dtype=np.int64)
    remaining = token_histogram(arr, 2, M)[tail_tokens]
    try:
        remaining_stats = LayerStats.from_histogram(remaining)
    except UndefinedStatError:
        remaining_stats = None
    full_space = (M - len(head_set)) * M ** (L - 1)
    distinct_full = len(set(full))
    return PostMitigationReport(
        elision_rate=elision_rate,
        remaining_layer2=remaining_stats,
        full_report=hourglass_report(arr, config, head_selector),
        full_length_utilization=distinct_full / full_space if full_space else None,
    )


def flat_of_entries(entries, config):
    return tuple((layer - 1) * config.codebook_size + t for layer, t in entries)


class TestObjectPathOracle:
    """Transforms on the id table equal the object-per-item transforms."""

    SELECTORS = (Selector.top_k(0), Selector.top_k(1), Selector.top_k(3),
                 Selector.mass(0.5), Selector.mass(1.0))

    @staticmethod
    def catalog(seed, n=400, m=5, num_layers=3):
        gen = np.random.default_rng(seed)
        config = QuantizerConfig(num_layers=num_layers, codebook_size=m, dim=1)
        # skewed layer 2 and few distinct ids, so that groups are large
        rows = gen.integers(0, m, size=(n, num_layers))
        rows[:, 1] = np.minimum(gen.geometric(0.45, size=n) - 1, m - 1)
        item_ids = [f"item_{k}" for k in gen.permutation(n).tolist()]
        return [tuple(r) for r in rows.tolist()], item_ids, config

    def assert_same(self, outcome, want, item_ids, config):
        got = outcome.transformed_sids
        assert got.item_id.tolist() == item_ids
        assert table_entries(got) == list(zip(item_ids, want["transformed"]))
        assert outcome.head_set == want["head_set"]
        assert outcome.capacity_paper_formula == want["capacity_paper_formula"]
        assert outcome.capacity_empirical_distinct == want["capacity_empirical_distinct"]
        # same groups, same item order in each, same group order
        assert list(outcome.collisions.items()) == [
            (flat_of_entries(sid, config), items) for sid, items in want["collisions"].items()
        ]
        assert outcome.collisions
        got_post = post_mitigation_report(outcome, config).to_dict()
        assert got_post == reference_post(want["transformed"], want["head_set"], config).to_dict()

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_varlen_matches_reference(self, seed):
        rows, item_ids, config = self.catalog(seed, num_layers=3 + seed % 2)
        ids = sid_table(np.array(item_ids), rows, config)
        hist = token_histogram(rows, 2, config.codebook_size)
        for selector in self.SELECTORS:
            outcome = varlen_topk(ids, hist, selector, config)
            want = reference_varlen(rows, selector, config, item_ids)
            self.assert_same(outcome, want, item_ids, config)

    @pytest.mark.parametrize("seed", [0, 1])
    def test_remove_matches_reference(self, seed):
        rows, item_ids, config = self.catalog(seed, num_layers=3 + seed)
        outcome = remove_layer(sid_table(np.array(item_ids), rows, config), config)
        self.assert_same(outcome, reference_remove(rows, config, item_ids), item_ids, config)


class TestEmpiricalCapacity:
    @pytest.mark.parametrize("m,k", [(2, 0), (2, 1), (3, 2), (4, 1), (4, 3), (4, 4)])
    def test_enumeration_matches_formula(self, m, k):
        cfg = QuantizerConfig(num_layers=3, codebook_size=m, dim=1)
        all_sids = [sid for sid in product(range(m), repeat=3)]
        hist = token_histogram(all_sids, 2, m)
        out = varlen_topk(all_sids, hist, Selector.top_k(k), cfg)
        assert out.capacity_empirical_distinct == elision_capacity(cfg, k)

    def test_remove_layer_matches_enumeration(self):
        for m in (2, 3, 4):
            cfg = QuantizerConfig(num_layers=3, codebook_size=m, dim=1)
            all_sids = list(product(range(m), repeat=3))
            out = remove_layer(all_sids, cfg)
            assert out.capacity_empirical_distinct == m**2 == out.capacity_paper_formula

    def test_formulas_disagree_for_interior_k(self):
        # the closed form credits each head token with its own block of
        # shortened ids; enumeration shows they are shared
        cfg = QuantizerConfig(num_layers=3, codebook_size=4, dim=1)
        k = 2
        paper = 4**3 + k * (4 - 4**2)
        assert paper != elision_capacity(cfg, k)


class TestPostMitigationReport:
    def test_top1_removal_lowers_gini_on_constructed_histogram(self):
        # layer-2 counts 12, 4, 3, 1: strict max and a non-uniform remainder
        sids = (
            [(0, 0, t % 4) for t in range(12)]
            + [(1, 1, t % 4) for t in range(4)]
            + [(2, 2, t % 4) for t in range(3)]
            + [(3, 3, 0)]
        )
        cfg = QuantizerConfig(num_layers=3, codebook_size=4, dim=1)
        hist = token_histogram(sids, 2, 4)
        before = gini(hist)
        out = varlen_topk(sids, hist, Selector.top_k(1), cfg)
        post = post_mitigation_report(out, cfg)
        assert post.remaining_layer2 is not None
        assert post.remaining_layer2.gini < before

    def test_elide_all_signals_undefined(self):
        sids = [(0, 1, 2), (1, 1, 3)]
        cfg = QuantizerConfig(num_layers=3, codebook_size=4, dim=1)
        hist = token_histogram(sids, 2, 4)
        out = varlen_topk(sids, hist, Selector.top_k(4), cfg)
        post = post_mitigation_report(out, cfg)
        assert post.elision_rate == 1.0
        assert post.remaining_layer2 is None
        assert post.full_report is None

    def test_k0_report_matches_pre(self):
        gen = np.random.default_rng(9)
        sids = [tuple(map(int, r)) for r in gen.integers(0, 4, size=(100, 3))]
        cfg = QuantizerConfig(num_layers=3, codebook_size=4, dim=1)
        hist = token_histogram(sids, 2, 4)
        out = varlen_topk(sids, hist, Selector.top_k(0), cfg)
        post = post_mitigation_report(out, cfg)
        assert post.elision_rate == 0.0
        pre = hourglass_report(sids, cfg)
        assert post.full_report.per_layer == pre.per_layer
        assert post.full_report.path_sparsity == pre.path_sparsity
        assert post.full_length_utilization == pre.path_sparsity


class TestFullLengthUtilizationDirection:
    """post / pre = (D_tail / D_pre) * M / (M - k): utilization rises exactly
    when head ids hold less than k/M of the distinct ids, so its direction
    comes from the catalog, not from the formula."""

    def check(self, sids):
        cfg = QuantizerConfig(num_layers=3, codebook_size=4, dim=1)
        hist = token_histogram(sids, 2, 4)
        out = varlen_topk(sids, hist, Selector.top_k(1), cfg)
        post = post_mitigation_report(out, cfg)
        pre = hourglass_report(sids, cfg).path_sparsity
        assert out.head_set == {0}
        distinct = set(sids)
        d_tail = sum(sid[1] != 0 for sid in distinct)
        ratio = post.full_length_utilization / pre
        assert ratio == pytest.approx(d_tail / len(distinct) * 4 / 3, rel=1e-12)
        return pre, post.full_length_utilization

    def test_collapsed_head_ids_raise_utilization(self):
        # six items share one head id; head share 1/5 < k/M = 1/4
        sids = [(0, 0, 0)] * 6 + [(1, 1, 1), (2, 2, 2), (3, 3, 3), (1, 2, 3)]
        pre, post = self.check(sids)
        assert (pre, post) == (5 / 64, 4 / 48)
        assert post > pre

    def test_distinct_head_ids_lower_utilization(self):
        # every head id distinct; head share 4/6 > k/M = 1/4
        sids = [(0, 0, 0), (1, 0, 1), (2, 0, 2), (3, 0, 3), (1, 1, 1), (2, 2, 2)]
        pre, post = self.check(sids)
        assert (pre, post) == (6 / 64, 2 / 48)
        assert post < pre


class TestElisionCapacity:
    def test_k0(self):
        assert elision_capacity(CFG, 0) == 4**3

    def test_bounds(self):
        with pytest.raises(ConfigError):
            elision_capacity(CFG, 5)
        with pytest.raises(ConfigError):
            elision_capacity(CFG, -1)
