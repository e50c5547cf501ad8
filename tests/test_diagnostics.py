import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rqsid.core import (
    ConfigError,
    QuantizerConfig,
    TokenRangeError,
    UndefinedStatError,
)
from rqsid.diagnostics import (
    LayerStats,
    Selector,
    entropy_bits,
    gini,
    head_tail_split,
    hourglass_report,
    row_groups,
    small_residual_ratio,
    stddev,
    token_histogram,
)

CFG = QuantizerConfig(num_layers=3, codebook_size=4, dim=2)


def gini_brute_force(counts):
    counts = list(counts)
    n = len(counts)
    total = sum(counts)
    pairwise = sum(abs(a - b) for a in counts for b in counts)
    return pairwise / (2 * n * total)


class TestTokenHistogram:
    SIDS = [(0, 1, 2), (0, 1, 3), (1, 1, 2)]

    def test_layer2(self):
        h = token_histogram(self.SIDS, 2, 4)
        np.testing.assert_array_equal(h, [0, 3, 0, 0])

    def test_layer1(self):
        h = token_histogram(self.SIDS, 1, 4)
        np.testing.assert_array_equal(h, [2, 1, 0, 0])

    def test_empty_input(self):
        h = token_histogram([], 2, 4)
        np.testing.assert_array_equal(h, [0, 0, 0, 0])

    def test_layer_out_of_range(self):
        with pytest.raises(TokenRangeError):
            token_histogram(self.SIDS, 4, 4)

    def test_token_out_of_range(self):
        with pytest.raises(TokenRangeError):
            token_histogram([(0, 9, 0)], 2, 4)

    def test_is_an_int64_count_array(self):
        h = token_histogram(np.array(self.SIDS), 3, 4)
        assert h.dtype == np.int64 and h.shape == (4,)


class TestCountValidation:
    """Every histogram consumer takes a 1-D array of non-negative counts."""

    @pytest.mark.parametrize("counts", [[[1, 2], [3, 4]], [3, -1, 2]], ids=["2-d", "negative"])
    @pytest.mark.parametrize("consume", [
        lambda c: head_tail_split(c, Selector.top_k(1)),
        entropy_bits,
        LayerStats.from_histogram,
    ], ids=["head_tail_split", "entropy_bits", "from_histogram"])
    def test_rejected(self, consume, counts):
        with pytest.raises(ConfigError):
            consume(counts)

    def test_from_histogram_takes_a_list(self):
        stats = LayerStats.from_histogram([2, 2, 0, 0])
        assert stats.entropy_bits == pytest.approx(1.0, abs=1e-12)
        assert (stats.distinct_tokens, stats.utilization) == (2, 0.5)


class TestEntropy:
    def test_uniform_four(self):
        assert entropy_bits([5, 5, 5, 5]) == pytest.approx(2.0, abs=1e-12)

    def test_degenerate(self):
        assert entropy_bits([10, 0, 0, 0]) == pytest.approx(0.0, abs=1e-12)

    def test_halves_and_quarters(self):
        assert entropy_bits([2, 2, 4]) == pytest.approx(1.5, abs=1e-12)

    def test_empty(self):
        with pytest.raises(UndefinedStatError):
            entropy_bits([0, 0, 0])


class TestGini:
    def test_equal(self):
        assert gini([5, 5, 5, 5]) == pytest.approx(0.0, abs=1e-12)

    def test_single_spike(self):
        assert gini([10, 0, 0, 0]) == pytest.approx(0.75, abs=1e-12)

    def test_constant_is_zero(self):
        for c in (1, 3, 17):
            assert gini([c] * 6) == pytest.approx(0.0, abs=1e-12)

    def test_against_brute_force(self):
        gen = np.random.default_rng(4)
        for _ in range(60):
            counts = gen.integers(0, 40, size=int(gen.integers(2, 12)))
            if counts.sum() == 0:
                counts[0] = 1
            assert gini(counts) == pytest.approx(gini_brute_force(counts), abs=1e-12)

    def test_empty(self):
        with pytest.raises(UndefinedStatError):
            gini([0, 0])


class TestStddev:
    def test_equal(self):
        assert stddev([5, 5, 5, 5]) == 0.0

    def test_single_spike(self):
        assert stddev([10, 0, 0, 0]) == pytest.approx(math.sqrt(18.75), abs=1e-12)

    def test_scaling(self):
        base = [3, 1, 4, 1, 5]
        assert stddev([7 * c for c in base]) == pytest.approx(7 * stddev(base), abs=1e-9)


class TestStatisticBounds:
    @given(
        st.lists(st.integers(min_value=0, max_value=1000), min_size=1, max_size=64).filter(
            lambda c: sum(c) > 0
        )
    )
    @settings(max_examples=300)
    def test_entropy_bounded_and_permutation_invariant(self, counts):
        h = np.asarray(counts)
        e = entropy_bits(h)
        assert -1e-12 <= e <= math.log2(len(counts)) + 1e-12
        perm = np.random.default_rng(0).permutation(h)
        assert entropy_bits(perm) == pytest.approx(e, abs=1e-12)

    @given(
        st.lists(st.integers(min_value=0, max_value=1000), min_size=1, max_size=64).filter(
            lambda c: sum(c) > 0
        )
    )
    @settings(max_examples=300)
    def test_gini_bounded(self, counts):
        g = gini(counts)
        m = len(counts)
        assert -1e-12 <= g <= (m - 1) / m + 1e-12

    def test_entropy_max_iff_uniform(self):
        assert entropy_bits([7, 7, 7, 7]) == pytest.approx(2.0, abs=1e-12)
        assert entropy_bits([8, 7, 7, 7]) < 2.0


class TestPathSparsity:
    """The hourglass report's distinct ids over the path-space size M**L."""

    def test_three_distinct(self):
        cfg = QuantizerConfig(num_layers=3, codebook_size=2, dim=1)
        sids = [(0, 0, 0), (0, 0, 1), (1, 1, 1)]
        assert hourglass_report(sids, cfg).path_sparsity == pytest.approx(0.375)

    def test_all_identical(self):
        cfg = QuantizerConfig(num_layers=3, codebook_size=2, dim=1)
        assert hourglass_report([(1, 0, 1)] * 9, cfg).path_sparsity == pytest.approx(1 / 8)

    def test_counting_bound(self):
        gen = np.random.default_rng(6)
        cfg = QuantizerConfig(num_layers=3, codebook_size=3, dim=1)
        for _ in range(30):
            n = int(gen.integers(1, 60))
            sids = gen.integers(0, 3, size=(n, 3))
            ps = hourglass_report(sids, cfg).path_sparsity
            assert ps <= min(1.0, n / 27) + 1e-12

    def test_huge_path_space_no_overflow(self):
        cfg = QuantizerConfig(num_layers=64, codebook_size=4096, dim=1)
        sids = [tuple(0 for _ in range(64))]
        assert hourglass_report(sids, cfg).path_sparsity >= 0.0


class TestHeadTailSplit:
    COUNTS = np.array([50, 30, 15, 5])

    def test_top1(self):
        head, tail = head_tail_split(self.COUNTS, Selector.top_k(1))
        assert head == {0}
        assert tail == {1, 2, 3}

    def test_mass80(self):
        head, _ = head_tail_split(self.COUNTS, Selector.mass(0.8))
        assert head == {0, 1}

    def test_top_all(self):
        head, tail = head_tail_split(self.COUNTS, Selector.top_k(4))
        assert head == {0, 1, 2, 3}
        assert tail == set()

    def test_ties_break_by_index(self):
        head, _ = head_tail_split([7, 9, 7, 1], Selector.top_k(2))
        assert head == {0, 1}

    def test_k_too_large(self):
        with pytest.raises(ConfigError):
            head_tail_split(self.COUNTS, Selector.top_k(5))

    def test_bad_mass(self):
        with pytest.raises(ConfigError):
            Selector.mass(0.0)
        with pytest.raises(ConfigError):
            Selector.mass(1.2)


class TestHourglassReport:
    def test_uniform_layers_no_flag(self):
        # every layer cycles through all tokens evenly
        sids = [(i % 4, (i // 4) % 4, (i // 16) % 4) for i in range(64)]
        report = hourglass_report(sids, CFG)
        assert not report.hourglass_flag

    def test_constant_layer2_flags(self):
        gen = np.random.default_rng(1)
        sids = [(int(a), 2, int(b)) for a, b in gen.integers(0, 4, size=(200, 2))]
        report = hourglass_report(sids, CFG)
        assert report.hourglass_flag
        assert report.pinch_layer == 2

    def test_no_interior_layer(self):
        cfg = QuantizerConfig(num_layers=2, codebook_size=4, dim=1)
        sids = [(0, 1), (1, 2), (2, 2)]
        report = hourglass_report(sids, cfg)
        assert report.pinch_layer is None
        assert not report.hourglass_flag

    def test_sparsity_invariant(self):
        gen = np.random.default_rng(5)
        sids = gen.integers(0, 4, size=(30, 3))
        report = hourglass_report(sids, CFG)
        assert report.path_sparsity <= min(1.0, 30 / 4**3) + 1e-12
        assert report.distinct_sids <= report.num_items

    def test_edge_density_recount(self):
        gen = np.random.default_rng(2)
        sids = gen.integers(0, 4, size=(50, 3))
        report = hourglass_report(sids, CFG)
        pairs = [{(row[l], row[l + 1]) for row in sids.tolist()} for l in (0, 1)]
        assert report.edge_density == tuple(len(p) / 16 for p in pairs)

    @pytest.mark.parametrize("M", [1, 2, 256])
    def test_edge_density_matches_row_sort(self, M):
        # the pair counts the report made with np.unique(axis=0) row sorts,
        # with both vocabulary edges in every layer
        cfg = QuantizerConfig(num_layers=4, codebook_size=M, dim=1)
        gen = np.random.default_rng(M)
        sids = np.vstack([gen.integers(0, M, size=(3000, 4)), [[0] * 4, [M - 1] * 4],
                          [[0, M - 1] * 2, [M - 1, 0] * 2]])
        report = hourglass_report(sids, cfg)
        want = tuple(len(np.unique(sids[:, [l - 1, l]], axis=0)) / M**2 for l in (1, 2, 3))
        assert report.edge_density == want

    def test_to_dict_round_trips_through_json(self):
        import json

        gen = np.random.default_rng(8)
        sids = gen.integers(0, 4, size=(40, 3))
        report = hourglass_report(sids, CFG, include_histograms=True)
        doc = json.loads(json.dumps(report.to_dict()))
        assert doc["num_items"] == 40
        assert [s["layer"] for s in doc["per_layer"]] == [1, 2, 3]
        assert len(doc["histograms"]) == 3


def reference_flag(entropies, ginis):
    """The interior-layer loop that the report's single pinch test replaced."""
    L = len(entropies)
    for l in range(2, L):
        others = [j for j in range(1, L + 1) if j != l]
        if all(entropies[l - 1] < entropies[j - 1] for j in others) and all(
            ginis[l - 1] > ginis[j - 1] for j in others
        ):
            return True
    return False


@st.composite
def small_id_sets(draw):
    """A config with L in 1..5 and M in 1..3, and ids over it: few slots and
    few rows, so layers often tie in entropy or gini."""
    L, M = draw(st.integers(1, 5)), draw(st.integers(1, 3))
    row = st.lists(st.integers(0, M - 1), min_size=L, max_size=L)
    rows = draw(st.lists(row, min_size=1, max_size=12))
    return QuantizerConfig(num_layers=L, codebook_size=M, dim=1), np.array(rows)


class TestHourglassFlagOracle:
    @given(small_id_sets())
    @settings(max_examples=400, deadline=None)
    def test_flag_and_pinch_match_the_interior_loop(self, case):
        cfg, sids = case
        report = hourglass_report(sids, cfg)
        entropies = [s.entropy_bits for s in report.per_layer]
        ginis = [s.gini for s in report.per_layer]
        assert report.hourglass_flag == reference_flag(entropies, ginis)
        L = cfg.num_layers
        want_pinch = min(range(2, L), key=lambda l: (entropies[l - 1], l)) if L >= 3 else None
        assert report.pinch_layer == want_pinch


@st.composite
def id_sets_with_duplicates(draw):
    """A config with L in 1..4 and M in 1..4, and ids over it drawn from a
    small pool of rows, the first row repeated last, so ids always repeat."""
    L, M = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    row = st.lists(st.integers(0, M - 1), min_size=L, max_size=L)
    pool = draw(st.lists(row, min_size=1, max_size=6))
    rows = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=20))
    return QuantizerConfig(num_layers=L, codebook_size=M, dim=1), np.array(rows + rows[:1])


class TestRowGroups:
    @given(id_sets_with_duplicates())
    @settings(max_examples=300, deadline=None)
    def test_matches_row_unique(self, case):
        cfg, sids = case
        order, starts = row_groups(sids)
        want, inverse, counts = np.unique(sids, axis=0, return_inverse=True,
                                          return_counts=True)
        np.testing.assert_array_equal(sids[order[starts]], want)
        np.testing.assert_array_equal(np.diff(starts, append=len(sids)), counts)
        # each group's rows in index order
        inverse = inverse.ravel().tolist()
        assert order.tolist() == sorted(range(len(sids)), key=lambda i: (inverse[i], i))
        assert hourglass_report(sids, cfg).distinct_sids == len(want)

    def test_no_rows(self):
        order, starts = row_groups(np.zeros((0, 3), dtype=np.int64))
        assert len(order) == len(starts) == 0


class TestSmallResidualRatio:
    def test_half_below_median(self):
        ratio = small_residual_ratio([0.1, 0.2, 5.0, 6.0], [1.0, 2.0, 3.0, 4.0])
        assert ratio == pytest.approx(0.5)

    def test_empty(self):
        with pytest.raises(UndefinedStatError):
            small_residual_ratio([], [1.0])
