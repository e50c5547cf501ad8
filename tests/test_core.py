import csv
import json
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rqsid.core import (
    Codebook,
    ConfigError,
    ConsistencyError,
    DataError,
    EmbeddingCollection,
    MalformedSequenceError,
    QuantizerConfig,
    RandomSource,
    TokenRangeError,
    check_item_ids,
    distinct,
    item_id_array,
    sid_table,
    sid_to_flat_tokens,
)
from rqsid import core
from rqsid.diagnostics import token_histogram
from rqsid.persist import load_embeddings, load_sids, save_embeddings_binary

CFG34 = QuantizerConfig(num_layers=3, codebook_size=4, dim=2)


class TestQuantizerConfig:
    def test_valid(self):
        cfg = QuantizerConfig(num_layers=3, codebook_size=256, dim=32)
        assert cfg.num_layers * cfg.codebook_size == 768

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


# ids outside the item-id alphabet, and ids at its edges
BAD_ITEM_IDS = ["", "#item", "#", "a,b", 'a"b', "a|k", "a\rb", "a\nb", "a\x00", "|", 7]
GOOD_ITEM_IDS = ["a#b", "a", " ", " a ", "\t", "é", "a'b", "\u2028", "\x85", "a;b", "-1"]


class TestEmbeddingCollection:
    def test_duplicate_ids(self):
        with pytest.raises(DataError):
            EmbeddingCollection(("a", "a"), np.zeros((2, 3)))

    def test_non_finite(self):
        with pytest.raises(DataError):
            EmbeddingCollection(("a",), np.array([[np.nan, 0.0]]))

    def test_dim_mismatch_count(self):
        with pytest.raises(DataError):
            EmbeddingCollection(("a", "b"), np.zeros((3, 2)))

    @pytest.mark.parametrize("bad", BAD_ITEM_IDS)
    def test_id_outside_alphabet(self, bad):
        with pytest.raises(DataError, match=re.escape(repr(bad))):
            EmbeddingCollection(("a", bad), np.zeros((2, 3)))

    @pytest.mark.parametrize("bad", [["b"], {"b": 1}, {"b"}], ids=["list", "dict", "set"])
    def test_unhashable_id_named_before_uniqueness(self, bad):
        with pytest.raises(DataError, match=re.escape(repr(bad))):
            EmbeddingCollection(("a", bad, bad), np.zeros((3, 2)))

    def test_ids_at_alphabet_edges(self):
        data = EmbeddingCollection(tuple(GOOD_ITEM_IDS), np.zeros((len(GOOD_ITEM_IDS), 1)))
        assert data.ids.tolist() == GOOD_ITEM_IDS
        assert data.ids.dtype == np.dtype(("U", max(map(len, GOOD_ITEM_IDS))))

    def test_read_only_owned_array_adopted(self):
        ids = np.array(["a", "b", "c"])
        ids.flags.writeable = False
        vectors = np.empty((3, 2))
        vectors[:] = [[0.0, 1.0], [2.0, 3.0], [4.0, 5.0]]
        vectors.flags.writeable = False
        data = EmbeddingCollection(ids, vectors)
        assert data.ids is ids and data.vectors is vectors
        assert not data.ids.flags.writeable and not data.vectors.flags.writeable

    @pytest.mark.parametrize("kind", ["tuple", "writable", "read-only view"])
    def test_other_ids_copied(self, kind):
        base = np.array(["a", "b", "c"])
        ids = {"tuple": ("a", "b", "c"), "writable": base, "read-only view": base.view()}[kind]
        if kind == "read-only view":
            ids.flags.writeable = False
        data = EmbeddingCollection(ids, np.zeros((3, 2)))
        assert not np.shares_memory(data.ids, base)
        assert not data.ids.flags.writeable
        base[0] = "z"
        assert data.ids.tolist() == ["a", "b", "c"]

    @pytest.mark.parametrize("kind", ["writable", "read-only view", "float32", "fortran"])
    def test_other_arrays_copied(self, kind):
        base = np.arange(6, dtype=np.float64).reshape(3, 2).copy()  # owns its buffer
        vectors = {"writable": base, "read-only view": base.view(),
                   "float32": base.astype(np.float32), "fortran": np.asfortranarray(base)}[kind]
        if kind == "read-only view":
            vectors.flags.writeable = False
        data = EmbeddingCollection(("a", "b", "c"), vectors)
        assert not np.shares_memory(data.vectors, vectors)
        assert not data.vectors.flags.writeable and data.vectors.flags.c_contiguous
        assert data.vectors.dtype == np.float64
        # a write to the caller's array after construction does not reach `vectors`
        (base if kind == "read-only view" else vectors)[0, 0] = 99.0
        np.testing.assert_array_equal(data.vectors, np.arange(6.0).reshape(3, 2))
        with pytest.raises(ValueError):
            data.vectors[0, 0] = 1.0


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


def table(rows, cfg=CFG34, is_full=None):
    return sid_table(np.array([f"i{k}" for k in range(len(rows))]), rows, cfg, is_full)


def load(tmp_path, rows, cfg=CFG34):
    path = tmp_path / "sids.csv"
    path.write_text("item_id,layer,token\n" + "".join(f"{r}\n" for r in rows))
    return load_sids(path, cfg)


def entries_of_flat(flat, cfg):
    """(layer, token) pairs recovered from a padded flat-token row by arithmetic."""
    return tuple((t // cfg.codebook_size + 1, t % cfg.codebook_size) for t in flat if t >= 0)


def flat_tuples(table, cfg):
    """The flattening that the padded matrix replaced: one tuple per row."""
    L, M = cfg.num_layers, cfg.codebook_size
    flat = (table.tokens + M * np.arange(L)).tolist()
    return [
        tuple(row) if full else (row[0], *row[2:])
        for row, full in zip(flat, table.is_full.tolist())
    ]


class TestFlatCodec:
    def test_full_sid_flattens(self):
        flat = sid_to_flat_tokens(table([(3, 1, 2)]), CFG34)
        assert flat.dtype == np.int64
        assert flat.tolist() == [[3, 5, 10]]

    def test_varlen_flattens(self):
        # an elided id shifts left past its layer-2 slot and pads with -1
        elided = table([(3, 0, 2), (1, 2, 3)], is_full=[False, True])
        assert sid_to_flat_tokens(elided, CFG34).tolist() == [[3, 10, -1], [1, 6, 11]]

    def test_round_trip_of_flat_example(self):
        (flat,) = sid_to_flat_tokens(table([(3, 1, 2)]), CFG34).tolist()
        assert flat == [3, 5, 10]
        assert entries_of_flat(flat, CFG34) == ((1, 3), (2, 1), (3, 2))

    def test_parse_elided(self, tmp_path):
        loaded = load(tmp_path, ["x,1,3", "x,3,2"])
        assert loaded.item_id.tolist() == ["x"]
        assert loaded.tokens.tolist() == [[3, -1, 2]]
        assert loaded.is_full.tolist() == [False]
        assert entries_of_flat(sid_to_flat_tokens(loaded, CFG34)[0], CFG34) == ((1, 3), (3, 2))

    def test_parse_layer_regression(self, tmp_path):
        with pytest.raises(MalformedSequenceError):
            load(tmp_path, ["x,3,2", "x,1,3"])

    def test_parse_duplicate_layer(self, tmp_path):
        with pytest.raises(MalformedSequenceError):
            load(tmp_path, ["x,1,3", "x,1,3", "x,3,2"])

    def test_parse_missing_first_layer(self, tmp_path):
        with pytest.raises(MalformedSequenceError):
            load(tmp_path, ["x,2,1", "x,3,2"])

    def test_parse_missing_last_layer(self, tmp_path):
        with pytest.raises(MalformedSequenceError):
            load(tmp_path, ["x,1,3", "x,2,1"])

    def test_parse_out_of_range(self, tmp_path):
        with pytest.raises(TokenRangeError):
            load(tmp_path, ["x,1,3", "x,2,4", "x,3,2"])
        with pytest.raises(TokenRangeError):
            load(tmp_path, ["x,1,-1", "x,3,2"])
        with pytest.raises(TokenRangeError):
            table([(0, -1, 0)])

    def test_parse_empty(self):
        with pytest.raises(MalformedSequenceError):
            sid_table(np.array(["x"]), np.zeros((1, 0), dtype=np.int64), CFG34)

    def test_flat_token_out_of_range_in_sid(self):
        with pytest.raises(TokenRangeError):
            table([(3, 1, 4)])

    def test_layer_ranges_disjoint(self):
        cfg = QuantizerConfig(num_layers=4, codebook_size=7, dim=1)
        rows = [(token,) * 4 for token in range(7)]
        by_layer = [set() for _ in range(4)]
        for sid, flat in zip(rows, sid_to_flat_tokens(table(rows, cfg), cfg).tolist()):
            assert entries_of_flat(flat, cfg) == tuple(enumerate(sid, start=1))
            for layer, t in enumerate(flat):
                by_layer[layer].add(t)
        assert all(len(s) == 7 for s in by_layer)
        assert set().union(*by_layer) == set(range(cfg.num_layers * cfg.codebook_size))


class TestSidTable:
    def test_fields_and_elided_slot(self):
        t = table([(1, 2, 3), (0, 3, 1)], is_full=[True, False])
        assert t.dtype.names == ("item_id", "tokens", "is_full")
        assert t.item_id.tolist() == ["i0", "i1"]
        # an elided id keeps one canonical row: -1 in its layer-2 slot
        assert t.tokens.tolist() == [[1, 2, 3], [0, -1, 1]]
        assert [bool(row.is_full) for row in t] == [True, False]
        assert not t.flags.writeable

    def test_forgotten_mask_fails_histogram(self):
        t = table([(1, 2, 3), (0, 3, 1)], is_full=[True, False])
        with pytest.raises(TokenRangeError):
            token_histogram(t.tokens, 2, 4)

    def test_item_ids_at_alphabet_edges(self):
        t = sid_table(np.array(GOOD_ITEM_IDS), [(0, 0, 0)] * len(GOOD_ITEM_IDS), CFG34)
        assert t.item_id.tolist() == GOOD_ITEM_IDS

    def test_missing_item_ids(self):
        with pytest.raises(ConsistencyError):
            sid_table(np.array(["a"]), [(0, 0, 0), (1, 1, 1)], CFG34)

    def test_bad_shapes(self):
        one = np.array(["a"])
        with pytest.raises(ConfigError):
            sid_table(one, [0, 0, 0], CFG34)
        with pytest.raises(ConfigError):
            sid_table(one[:0], np.zeros((0, 3), dtype=np.int64), CFG34)
        with pytest.raises(ConsistencyError):
            sid_table(one, [(0, 0)], CFG34)
        with pytest.raises(ConsistencyError):
            sid_table(one, [(0, 0, 0)], CFG34, is_full=[True, True])

    def test_elision_needs_three_layers(self):
        cfg = QuantizerConfig(num_layers=2, codebook_size=4, dim=1)
        with pytest.raises(ConfigError):
            sid_table(np.array(["a"]), [(0, 0)], cfg, is_full=[False])


class TestStrArrayIds:
    """check_item_ids and distinct on a str array, which item_id_array makes."""

    # an array drops a trailing NUL, so only an inner one can be found there
    @pytest.mark.parametrize("bad", [b for b in BAD_ITEM_IDS
                                     if isinstance(b, str) and not b.endswith("\x00")]
                             + ["a\x00b", "\x00a"])
    def test_bad_id_named(self, bad):
        with pytest.raises(DataError, match=re.escape(repr(bad))):
            check_item_ids(np.array(["a", bad, "b"]))

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.text("ab é\x85\U0001d11e", min_size=1, max_size=4), min_size=1,
                    max_size=30))
    def test_distinct_matches_set(self, ids):
        assert distinct(np.array(ids)) == (len(set(ids)) == len(ids))

    def test_colliding_hashes_compared_as_strings(self, monkeypatch):
        # with multiplier 0 an id's hash is its last code point
        monkeypatch.setattr(core, "_ID_HASH_MULTIPLIER", np.uint64(0))
        assert distinct(np.array(["ab", "cb", "b"]))
        assert not distinct(np.array(["ab", "cb", "ab"]))


_ID_BREAKS = ',"|\r\n\x00'


def reference_check_item_ids(item_ids):
    """The sequence path of `check_item_ids`, which took the ids as a list."""
    try:
        text = "".join(item_ids)
    except TypeError:  # an id that is no string
        text = None
    if (text is not None and all(item_ids) and not any(c in text for c in _ID_BREAKS)
            and ("#" not in text or not any(item[0] == "#" for item in item_ids))):
        return
    bad = next(
        item for item in item_ids
        if not isinstance(item, str) or item[:1] in ("", "#") or any(c in item for c in _ID_BREAKS)
    )
    raise DataError(
        f"item id {bad!r} is not a nonempty string without ',', '\"', '|', CR, LF or NUL "
        "that does not start with '#'"
    )


def reference_distinct(item_ids):
    """The sequence path of `distinct`: Python's hashes, sorted, then a set."""
    hashes = np.fromiter(map(hash, item_ids), dtype=np.int64, count=len(item_ids))
    hashes.sort()
    if (hashes[1:] != hashes[:-1]).all():
        return True
    return len(set(item_ids)) == len(item_ids)


def reference_check_ids(item_ids):
    """The ids of a collection checked as lists: the alphabet, then uniqueness."""
    reference_check_item_ids(item_ids)
    if not reference_distinct(item_ids):
        seen = set()
        repeated = next(item for item in item_ids if item in seen or seen.add(item))
        raise DataError(f"item ids must be unique; {repeated!r} repeats")


def outcome(check, *args):
    """None if `check` accepts `args`, else its DataError's message."""
    try:
        check(*args)
    except DataError as e:
        return str(e)
    return None


def write_json_embeddings(path, item_ids):
    """An embeddings file of zero vectors whose header lists `item_ids`."""
    n = len(item_ids)
    save_embeddings_binary(path, EmbeddingCollection([f"i{k}" for k in range(n)],
                                                     np.zeros((n, 1))))
    header = json.loads(path.read_text())
    header["item_ids"] = item_ids
    path.write_text(json.dumps(header))
    return path


def write_csv_embeddings(path, item_ids):
    """A CSV embeddings file of zero vectors, each id quoted as it needs."""
    with open(path, "w", encoding="utf-8", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(["item_id", "v0"])
        writer.writerows([item, "0.0"] for item in item_ids)
    return path


def entry_outcomes(item_ids, directory):
    """What each way in makes of `item_ids`: the array path as a collection
    runs it, a collection, and load_embeddings on a JSON file and, for
    string ids, on a CSV file."""
    vectors = np.zeros((len(item_ids), 1))
    outcomes = {
        "array": outcome(lambda: core.check_embeddings(item_id_array(item_ids), vectors)),
        "collection": outcome(EmbeddingCollection, item_ids, vectors),
        "json": outcome(load_embeddings, write_json_embeddings(directory / "e.json", item_ids)),
    }
    if all(isinstance(item, str) for item in item_ids):
        outcomes["csv"] = outcome(load_embeddings,
                                  write_csv_embeddings(directory / "e.csv", item_ids))
    return outcomes


# ids of the alphabet and near it, and ids far outside it
FAIR_IDS = st.text("ab#é ", min_size=1, max_size=3)
ODD_IDS = st.one_of(st.text(',"|\r\n\x00#a', max_size=3), st.integers(-3, 3), st.none(),
                    st.lists(st.text("ab", max_size=1), max_size=1))


class TestIdsAgainstReference:
    """Ids checked as one str array, at every way in, against the sequence
    checks: the same accept or reject, naming the same id."""

    @settings(max_examples=150, deadline=None)
    @given(st.lists(st.one_of(FAIR_IDS, FAIR_IDS, ODD_IDS), min_size=1, max_size=6))
    def test_drawn_ids(self, tmp_path_factory, item_ids):
        want = outcome(reference_check_ids, item_ids)
        got = entry_outcomes(item_ids, tmp_path_factory.mktemp("ids"))
        assert got == dict.fromkeys(got, want)

    @pytest.mark.parametrize("bad", BAD_ITEM_IDS)
    @pytest.mark.parametrize("place", ["alone", "between", "after-a-repeat", "after-another"])
    def test_bad_ids(self, tmp_path, bad, place):
        item_ids = {"alone": [bad], "between": ["a", bad, "a"], "after-a-repeat": ["a", "a", bad],
                    "after-another": ["#c", bad]}[place]
        want = outcome(reference_check_ids, item_ids)
        assert want is not None
        got = entry_outcomes(item_ids, tmp_path)
        assert got == dict.fromkeys(got, want)


@st.composite
def table_and_config(draw):
    L = draw(st.integers(min_value=1, max_value=5))
    M = draw(st.integers(min_value=1, max_value=9))
    cfg = QuantizerConfig(num_layers=L, codebook_size=M, dim=1)
    n = draw(st.integers(min_value=1, max_value=6))
    rows = [tuple(draw(st.integers(min_value=0, max_value=M - 1)) for _ in range(L))
            for _ in range(n)]
    is_full = [not (L >= 3 and draw(st.booleans())) for _ in range(n)]
    return rows, is_full, cfg


class TestRoundTripProperty:
    @given(table_and_config())
    @settings(max_examples=300)
    def test_flat_round_trip(self, case):
        rows, is_full, cfg = case
        flat = sid_to_flat_tokens(table(rows, cfg, is_full), cfg)
        assert flat.shape == (len(rows), cfg.num_layers)
        for sid, full, tokens in zip(rows, is_full, flat.tolist()):
            expected = tuple(
                (layer, t) for layer, t in enumerate(sid, start=1) if full or layer != 2
            )
            assert entries_of_flat(tokens, cfg) == expected
            # the padding follows the id's tokens
            assert tokens == [t for t in tokens if t >= 0] + [-1] * (not full)


class TestFlatMatrixOracle:
    @pytest.mark.parametrize("num_layers", [1, 2, 3, 4])
    def test_matches_tuple_oracle(self, num_layers):
        gen = np.random.default_rng(num_layers)
        for M in (1, 3, 16):
            cfg = QuantizerConfig(num_layers=num_layers, codebook_size=M, dim=1)
            for n in (1, 5, 200):
                rows = gen.integers(0, M, size=(n, num_layers))
                is_full = gen.random(n) < 0.5 if num_layers >= 3 else np.ones(n, dtype=bool)
                t = table(rows, cfg, is_full)
                flat = sid_to_flat_tokens(t, cfg)
                want = flat_tuples(t, cfg)
                assert flat.shape == (n, num_layers)
                assert [tuple(t for t in row if t >= 0) for row in flat.tolist()] == want
                lengths = (flat >= 0).sum(axis=1)
                assert lengths.tolist() == [len(w) for w in want]
                assert (flat[np.arange(num_layers) >= lengths[:, None]] == -1).all()


class TestVarLenValidation:
    def test_full_is_valid(self):
        assert table([(1, 2, 3)]).is_full.tolist() == [True]

    def test_elided_layer3_rejected(self, tmp_path):
        cfg = QuantizerConfig(num_layers=4, codebook_size=4, dim=1)
        with pytest.raises(MalformedSequenceError):
            load(tmp_path, ["x,1,0", "x,2,1", "x,4,2"], cfg)

    def test_to_full_on_elided(self):
        elided = table([(1, 2, 3)], is_full=[False])
        assert not elided.is_full.any()
        assert elided.tokens.tolist() == [[1, -1, 3]]
        assert sid_to_flat_tokens(elided, CFG34).tolist() == [[1, 2 * 4 + 3, -1]]


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
