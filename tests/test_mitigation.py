from itertools import product

import numpy as np
import pytest

from rqsid.core import ConfigError, ConsistencyError, QuantizerConfig, VarLenSemanticId
from rqsid.diagnostics import (
    LayerHistogram,
    Selector,
    gini,
    hourglass_report,
    token_histogram,
)
from rqsid.mitigation import (
    elision_capacity,
    exchange_layers,
    post_mitigation_report,
    remove_layer,
    varlen_topk,
)

CFG = QuantizerConfig(num_layers=3, codebook_size=4, dim=2)


class TestExchangeLayers:
    def test_swap(self):
        assert exchange_layers([(3, 7, 9)], 1, 2) == [(7, 3, 9)]

    def test_involution(self):
        gen = np.random.default_rng(0)
        sids = gen.integers(0, 4, size=(50, 3))
        twice = exchange_layers(exchange_layers(sids, 1, 2), 1, 2)
        assert twice == [tuple(r) for r in sids]

    def test_histogram_swap(self):
        gen = np.random.default_rng(1)
        sids = gen.integers(0, 4, size=(80, 3))
        swapped = exchange_layers(sids, 1, 2)
        h1 = token_histogram(sids, 1, 4)
        h2_after = token_histogram(swapped, 2, 4)
        np.testing.assert_array_equal(h1.counts, h2_after.counts)

    def test_preserves_token_multiset(self):
        gen = np.random.default_rng(2)
        sids = gen.integers(0, 4, size=(30, 3))
        swapped = exchange_layers(sids, 2, 3)
        for before, after in zip(sids, swapped):
            assert sorted(before) == sorted(after)

    def test_out_of_range(self):
        from rqsid.core import TokenRangeError

        with pytest.raises(TokenRangeError):
            exchange_layers([(0, 1, 2)], 1, 4)


class TestRemoveLayer:
    def test_collision_reported(self):
        out = remove_layer([(0, 5, 2), (0, 6, 2)],
                           QuantizerConfig(num_layers=3, codebook_size=8, dim=1),
                           item_ids=("a", "b"))
        assert all(sid.entries == ((1, 0), (3, 2)) for sid in out.transformed_sids)
        assert len(out.collisions) == 1
        (items,) = out.collisions.values()
        assert items == ("a", "b")

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
    def make(self, sids, selector, m=10, item_ids=None):
        cfg = QuantizerConfig(num_layers=3, codebook_size=m, dim=1)
        hist = token_histogram(sids, 2, m)
        return varlen_topk(sids, hist, selector, cfg, item_ids=item_ids), cfg

    def test_head_elided_tail_untouched(self):
        sids = [(3, 7, 9), (3, 8, 9), (3, 7, 1)]
        out, _ = self.make(sids, Selector.top_k(1))
        assert out.head_set == {7}
        assert out.transformed_sids[0].entries == ((1, 3), (3, 9))
        assert out.transformed_sids[1] == VarLenSemanticId.full((3, 8, 9))
        assert out.transformed_sids[2].entries == ((1, 3), (3, 1))

    def test_k0_identity(self):
        sids = [(1, 2, 3), (4, 5, 6)]
        out, cfg = self.make(sids, Selector.top_k(0))
        assert out.head_set == frozenset()
        assert out.capacity_paper_formula == 10**3
        assert all(sid.is_full for sid in out.transformed_sids)
        assert [sid.to_full() for sid in out.transformed_sids] == sids

    def test_paper_capacity_value(self):
        cfg = QuantizerConfig(num_layers=3, codebook_size=4096, dim=1)
        sids = [(0, t, 0) for t in range(400)] + [(1, 500, 1)]
        hist = token_histogram(sids, 2, 4096)
        out = varlen_topk(sids, hist, Selector.top_k(400), cfg)
        assert out.capacity_paper_formula == 62_010_228_736

    def test_histogram_mismatch(self):
        sids = [(1, 2, 3)]
        hist = LayerHistogram(2, [0, 0, 5, 0])
        with pytest.raises(ConsistencyError):
            varlen_topk(sids, hist, Selector.top_k(1),
                        QuantizerConfig(num_layers=3, codebook_size=4, dim=1))

    def test_partition_property(self):
        gen = np.random.default_rng(7)
        sids = [tuple(map(int, r)) for r in gen.integers(0, 6, size=(120, 3))]
        out, _ = self.make(sids, Selector.mass(0.5), m=6)
        for original, transformed in zip(sids, out.transformed_sids):
            if original[1] in out.head_set:
                assert transformed.elided_layers == (2,)
                assert transformed.layer_token(1) == original[0]
                assert transformed.layer_token(3) == original[2]
            else:
                assert transformed == VarLenSemanticId.full(original)

    def test_determinism(self):
        gen = np.random.default_rng(8)
        sids = [tuple(map(int, r)) for r in gen.integers(0, 5, size=(60, 3))]
        a, _ = self.make(sids, Selector.top_k(2), m=5)
        b, _ = self.make(sids, Selector.top_k(2), m=5)
        assert a.transformed_sids == b.transformed_sids
        assert a.head_set == b.head_set


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
