import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rqsid.core import (
    Codebook,
    ConfigError,
    DataError,
    EmbeddingCollection,
    MalformedSequenceError,
    QuantizerConfig,
    RandomSource,
    TokenRangeError,
    VarLenSemanticId,
    parse_flat_tokens,
    sid_to_flat_tokens,
    validate_sid,
)

CFG34 = QuantizerConfig(num_layers=3, codebook_size=4, dim=2)


class TestQuantizerConfig:
    def test_valid(self):
        cfg = QuantizerConfig(num_layers=3, codebook_size=256, dim=32)
        assert cfg.flat_vocab_size == 768

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"num_layers": 0},
            {"codebook_size": 0},
            {"dim": 0},
            {"kmeans_iters": 0},
            {"seed": -1},
            {"seed": 2**64},
            {"convergence_tol": -1e-9},
        ],
    )
    def test_invalid(self, kwargs):
        base = dict(num_layers=3, codebook_size=4, dim=2)
        base.update(kwargs)
        with pytest.raises(ConfigError):
            QuantizerConfig(**base)


class TestEmbeddingCollection:
    def test_from_pairs(self):
        ec = EmbeddingCollection.from_pairs([("a", [0.0, 1.0]), ("b", [2.0, 3.0])])
        assert len(ec) == 2 and ec.dim == 2
        assert not ec.vectors.flags.writeable

    def test_duplicate_ids(self):
        with pytest.raises(DataError):
            EmbeddingCollection(("a", "a"), np.zeros((2, 3)))

    def test_non_finite(self):
        with pytest.raises(DataError):
            EmbeddingCollection(("a",), np.array([[np.nan, 0.0]]))

    def test_dim_mismatch_count(self):
        with pytest.raises(DataError):
            EmbeddingCollection(("a", "b"), np.zeros((3, 2)))


class TestCodebook:
    def test_shape_checked(self):
        with pytest.raises(DataError):
            Codebook(CFG34, np.zeros((3, 4, 3)), (0.0, 0.0, 0.0))

    def test_sse_length_checked(self):
        with pytest.raises(DataError):
            Codebook(CFG34, np.zeros((3, 4, 2)), (0.0,))

    def test_immutable(self):
        cb = Codebook(CFG34, np.zeros((3, 4, 2)), (0.0, 0.0, 0.0))
        with pytest.raises(ValueError):
            cb.layers[0, 0, 0] = 1.0


class TestFlatCodec:
    def test_full_sid_flattens(self):
        assert sid_to_flat_tokens((3, 1, 2), CFG34) == [3, 5, 10]

    def test_varlen_flattens(self):
        sid = VarLenSemanticId(((1, 3), (3, 2)))
        assert sid_to_flat_tokens(sid, CFG34) == [3, 10]

    def test_round_trip_of_flat_example(self):
        parsed = parse_flat_tokens([3, 5, 10], CFG34)
        assert parsed.to_full() == (3, 1, 2)

    def test_parse_elided(self):
        parsed = parse_flat_tokens([3, 10], CFG34)
        assert parsed.entries == ((1, 3), (3, 2))
        assert parsed.elided_layers == (2,)

    def test_parse_layer_regression(self):
        with pytest.raises(MalformedSequenceError):
            parse_flat_tokens([10, 3], CFG34)

    def test_parse_duplicate_layer(self):
        with pytest.raises(MalformedSequenceError):
            parse_flat_tokens([3, 3, 10], CFG34)

    def test_parse_missing_first_layer(self):
        with pytest.raises(MalformedSequenceError):
            parse_flat_tokens([5, 10], CFG34)

    def test_parse_missing_last_layer(self):
        with pytest.raises(MalformedSequenceError):
            parse_flat_tokens([3, 5], CFG34)

    def test_parse_out_of_range(self):
        with pytest.raises(TokenRangeError):
            parse_flat_tokens([12], CFG34)
        with pytest.raises(TokenRangeError):
            parse_flat_tokens([-1], CFG34)

    def test_parse_empty(self):
        with pytest.raises(MalformedSequenceError):
            parse_flat_tokens([], CFG34)

    def test_flat_token_out_of_range_in_sid(self):
        with pytest.raises(TokenRangeError):
            sid_to_flat_tokens((3, 1, 4), CFG34)

    def test_layer_ranges_disjoint(self):
        cfg = QuantizerConfig(num_layers=4, codebook_size=7, dim=1)
        by_layer = [set() for _ in range(4)]
        for token in range(7):
            sid = (token,) * 4
            flat = sid_to_flat_tokens(sid, cfg)
            assert parse_flat_tokens(flat, cfg).entries == tuple(enumerate(sid, start=1))
            for layer, t in enumerate(flat):
                by_layer[layer].add(t)
        assert all(len(s) == 7 for s in by_layer)
        assert set().union(*by_layer) == set(range(cfg.flat_vocab_size))


@st.composite
def sid_and_config(draw):
    L = draw(st.integers(min_value=1, max_value=5))
    M = draw(st.integers(min_value=1, max_value=9))
    cfg = QuantizerConfig(num_layers=L, codebook_size=M, dim=1)
    tokens = tuple(draw(st.integers(min_value=0, max_value=M - 1)) for _ in range(L))
    elide = L >= 3 and draw(st.booleans())
    if elide:
        sid = VarLenSemanticId.with_layer2_elided(tokens)
    else:
        sid = VarLenSemanticId.full(tokens)
    return sid, cfg


class TestRoundTripProperty:
    @given(sid_and_config())
    @settings(max_examples=300)
    def test_flat_round_trip(self, case):
        sid, cfg = case
        assert parse_flat_tokens(sid_to_flat_tokens(sid, cfg), cfg) == sid


class TestVarLenValidation:
    def test_full_is_valid(self):
        VarLenSemanticId.full((1, 2, 3)).validate(CFG34)

    def test_elided_layer3_rejected(self):
        bad = VarLenSemanticId(((1, 0), (2, 1), (4, 2)))
        cfg = QuantizerConfig(num_layers=4, codebook_size=4, dim=1)
        with pytest.raises(MalformedSequenceError):
            bad.validate(cfg)

    def test_to_full_on_elided(self):
        sid = VarLenSemanticId.with_layer2_elided((1, 2, 3))
        assert not sid.is_full
        assert sid.layer_token(2) is None
        assert sid.layer_token(3) == 3
        with pytest.raises(MalformedSequenceError):
            sid.to_full()

    def test_validate_sid_rejects_wrong_length(self):
        with pytest.raises(TokenRangeError):
            validate_sid((1, 2), CFG34)


class TestRandomSource:
    def test_same_seed_same_stream(self):
        a = RandomSource(42).generator().standard_normal(8)
        b = RandomSource(42).generator().standard_normal(8)
        np.testing.assert_array_equal(a, b)

    def test_generator_is_idempotent(self):
        rs = RandomSource(7)
        np.testing.assert_array_equal(
            rs.generator().standard_normal(4), rs.generator().standard_normal(4)
        )

    def test_split_is_pure(self):
        rs = RandomSource(9)
        first = [c.generator().standard_normal(3) for c in rs.split(3)]
        second = [c.generator().standard_normal(3) for c in rs.split(3)]
        for a, b in zip(first, second):
            np.testing.assert_array_equal(a, b)

    def test_children_differ(self):
        rs = RandomSource(9)
        kids = rs.split(2)
        a = kids[0].generator().standard_normal(4)
        b = kids[1].generator().standard_normal(4)
        assert not np.array_equal(a, b)

    def test_seed_bounds(self):
        with pytest.raises(ConfigError):
            RandomSource(-1)
        with pytest.raises(ConfigError):
            RandomSource(2**64)
