import csv
import hashlib
import io
import itertools
import json
import re
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rqsid.core import (
    Codebook,
    DataError,
    EmbeddingCollection,
    MalformedSequenceError,
    QuantizerConfig,
    TokenRangeError,
    sid_table,
)
from rqsid import persist
from rqsid.grsim import InteractionDataset
from rqsid.persist import (
    INLINE_CODEBOOK_LIMIT,
    OutputLock,
    load_codebook,
    load_embeddings,
    load_interactions,
    load_sids,
    record_run,
    save_codebook,
    save_embeddings_binary,
    save_interactions,
    save_labels,
    save_sids,
    sha256_file,
)
from test_core import reference_check_item_ids

CFG = QuantizerConfig(num_layers=3, codebook_size=4, dim=2, kmeans_iters=7, seed=11, convergence_tol=1e-3)


def sized_codebook(dim):
    cfg = replace(CFG, dim=dim)
    gen = np.random.default_rng(0)
    return Codebook(cfg, gen.standard_normal((3, 4, dim)), (3.0, 2.0, 1.0))


# the largest dim at which a 3 x 4 codebook is embedded in its header, and
# the smallest at which it gets a binary sidecar
INLINE_DIM = INLINE_CODEBOOK_LIMIT // 12
BINARY_DIM = INLINE_DIM + 1


class TestCodebookFormat:
    def test_round_trip_binary(self, tmp_path):
        cb = sized_codebook(BINARY_DIM)
        written = save_codebook(tmp_path / "cb.json", cb, head_set={1, 3})
        assert written == [tmp_path / "cb.json", tmp_path / "cb.bin"]
        loaded, head = load_codebook(tmp_path / "cb.json")
        assert head == {1, 3}
        assert loaded.config == cb.config
        # float32 storage: reload equals the float32 rounding of the original
        np.testing.assert_array_equal(
            loaded.layers, cb.layers.astype("<f4").astype(np.float64)
        )

    def test_round_trip_inline(self, tmp_path):
        cb = sized_codebook(INLINE_DIM)
        written = save_codebook(tmp_path / "cb.json", cb)
        assert written == [tmp_path / "cb.json"]
        loaded, head = load_codebook(tmp_path / "cb.json")
        assert head is None
        np.testing.assert_array_equal(
            loaded.layers, cb.layers.astype("<f4").astype(np.float64)
        )

    def test_save_is_idempotent_after_reload(self, tmp_path):
        cb = sized_codebook(BINARY_DIM)
        save_codebook(tmp_path / "a.json", cb)
        loaded, _ = load_codebook(tmp_path / "a.json")
        save_codebook(tmp_path / "b.json", loaded)
        assert (tmp_path / "a.bin").read_bytes() == (tmp_path / "b.bin").read_bytes()
        a = json.loads((tmp_path / "a.json").read_text())
        b = json.loads((tmp_path / "b.json").read_text())
        a["layers_file"] = b["layers_file"] = ""
        assert a == b

    def test_digest_checked(self, tmp_path):
        cb = sized_codebook(BINARY_DIM)
        save_codebook(tmp_path / "cb.json", cb)
        blob = bytearray((tmp_path / "cb.bin").read_bytes())
        blob[0] ^= 0xFF
        (tmp_path / "cb.bin").write_bytes(bytes(blob))
        with pytest.raises(DataError):
            load_codebook(tmp_path / "cb.json")


def table_entries(table):
    """(item_id, (layer, token) entries) per row of an id table."""
    L = table.tokens.shape[1]
    return [
        (item, tuple((layer, t) for layer, t in zip(range(1, L + 1), row) if full or layer != 2))
        for item, row, full in zip(
            table.item_id.tolist(), table.tokens.tolist(), table.is_full.tolist()
        )
    ]


def reference_validate(entries, config):
    """The checks of the per-item id object the id table replaced."""
    if not entries:
        raise MalformedSequenceError("semantic id has no entries")
    layers = [l for l, _ in entries]
    if any(b <= a for a, b in zip(layers, layers[1:])):
        raise MalformedSequenceError(f"layer indices not strictly increasing: {layers}")
    if layers[0] != 1:
        raise MalformedSequenceError(f"first entry is layer {layers[0]}, expected layer 1")
    if layers[-1] != config.num_layers:
        raise MalformedSequenceError(f"last entry is layer {layers[-1]}")
    if set(range(1, config.num_layers + 1)) - set(layers) - {2}:
        raise MalformedSequenceError("only layer 2 may be elided")
    for layer, token in entries:
        if not 0 <= token < config.codebook_size:
            raise TokenRangeError(f"layer {layer} token {token} out of range")
    return entries


def reference_load_sids(path, config):
    """The object-per-item loader the id table replaced, row by row: comment
    lines only before the header, an item's rows contiguous, three fields
    of integers per row, and each item's entries validated once every row
    is read."""
    rows_by_item = {}
    with open(path, newline="", encoding="utf-8") as f:
        rows = (row for row in csv.reader(f) if row)
        header = next((row for row in rows if not row[0].startswith("#")), None)
        if header != ["item_id", "layer", "token"]:
            raise DataError(f"unexpected header {header}")
        previous = None
        for row in rows:
            item = row[0]
            if item != previous and item in rows_by_item:
                raise DataError(f"the rows of item {item!r} are not contiguous")
            previous = item
            entries = rows_by_item.setdefault(item, [])
            try:
                if len(row) != 3:
                    raise ValueError
                entries.append((int(row[1]), int(row[2])))
            except ValueError:
                raise DataError(f"malformed row for item {item!r}") from None
    if not rows_by_item:
        raise DataError("no ids")
    items = []
    for item, entries in rows_by_item.items():
        try:
            items.append((item, reference_validate(tuple(entries), config)))
        except (MalformedSequenceError, TokenRangeError) as e:
            raise type(e)(f"item {item!r}: {e}") from None
    return items


def reference_save_sids(path, items):
    """The writer the id table replaced, over (item_id, entries) pairs."""
    buf = io.StringIO()
    buf.write("# semantic ids in long form; tokens 0-based, layers 1-based\n")
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["item_id", "layer", "token"])
    for item_id, entries in items:
        for layer, token in entries:
            writer.writerow([item_id, layer, token])
    Path(path).write_text(buf.getvalue())


def write_sids(path, rows):
    path.write_text("# comment\nitem_id,layer,token\n" + "".join(f"{r}\n" for r in rows))
    return path


# Characters an item id may hold, with one of each kind a file format could
# trip on: space and tab, "#" past the first place, a quote other than '"',
# other separators, and line breaks that universal newlines do not split on.
ID_CHARS = st.sampled_from(list(" \t#'abz09_-;:\\/é\x85\x0b\x0c\x1c\u2028\u00a0")) | (
    st.characters(exclude_characters=',"|\r\n\x00', exclude_categories=("Cs",)))
ITEM_IDS = st.builds(
    lambda head, tail: head + tail,
    ID_CHARS.filter(lambda c: c != "#"), st.text(ID_CHARS, max_size=6),
)


@st.composite
def id_tables(draw):
    """A random id table whose ids sit at the alphabet's edges, with elided rows."""
    L = draw(st.integers(min_value=1, max_value=4))
    M = draw(st.integers(min_value=1, max_value=300))
    config = QuantizerConfig(num_layers=L, codebook_size=M, dim=1)
    items = draw(st.lists(ITEM_IDS, min_size=1, max_size=25, unique=True))
    tokens = draw(st.lists(st.lists(st.integers(0, M - 1), min_size=L, max_size=L),
                           min_size=len(items), max_size=len(items)))
    is_full = draw(st.lists(st.booleans() if L >= 3 else st.just(True),
                            min_size=len(items), max_size=len(items)))
    return sid_table(np.array(items), tokens, config, is_full), config


def random_entries(gen, n, config, elide_share):
    """Random valid (item_id, entries) pairs in a shuffled item order."""
    items = []
    for k in gen.permutation(n).tolist():
        sid = gen.integers(0, config.codebook_size, size=config.num_layers).tolist()
        elided = config.num_layers >= 3 and gen.random() < elide_share
        items.append((f"item_{k}", tuple(
            (layer, t) for layer, t in enumerate(sid, start=1) if not elided or layer != 2
        )))
    return items


class TestSidFormat:
    def test_round_trip_mixed_lengths(self, tmp_path):
        table = sid_table(np.array(["a", "b", "c"]), [(0, 1, 2), (3, 0, 0), (1, 1, 1)], CFG,
                          is_full=[True, False, True])
        save_sids(tmp_path / "sids.csv", table)
        loaded = load_sids(tmp_path / "sids.csv", CFG)
        assert loaded.item_id.tolist() == ["a", "b", "c"]
        assert loaded.tokens.tolist() == [[0, 1, 2], [3, -1, 0], [1, 1, 1]]
        assert loaded.is_full.tolist() == [True, False, True]
        assert table_entries(loaded)[1] == ("b", ((1, 3), (3, 0)))

    def test_header_comment_present(self, tmp_path):
        save_sids(tmp_path / "sids.csv", sid_table(np.array(["a"]), [(0, 1, 2)], CFG))
        first = (tmp_path / "sids.csv").read_text().splitlines()[0]
        assert first.startswith("#") and "0-based" in first

    def test_invalid_tokens_rejected_on_load(self, tmp_path):
        (tmp_path / "bad.csv").write_text(
            "item_id,layer,token\nx,1,0\nx,2,9\nx,3,0\n"
        )
        with pytest.raises(TokenRangeError):
            load_sids(tmp_path / "bad.csv", CFG)


class TestSidOracle:
    """The id table against the object-per-item code it replaced."""

    @pytest.mark.parametrize("num_layers,elide_share", [(3, 0.0), (3, 0.5), (4, 0.7), (2, 0.0)])
    def test_load_matches_reference(self, tmp_path, num_layers, elide_share):
        config = QuantizerConfig(num_layers=num_layers, codebook_size=5, dim=1)
        items = random_entries(np.random.default_rng(num_layers), 300, config, elide_share)
        path = tmp_path / "sids.csv"
        reference_save_sids(path, items)
        assert reference_load_sids(path, config) == items
        loaded = load_sids(path, config)
        assert table_entries(loaded) == items
        assert loaded.is_full.tolist() == [len(e) == num_layers for _, e in items]
        # the writer reproduces the file byte for byte
        save_sids(tmp_path / "again.csv", loaded)
        assert (tmp_path / "again.csv").read_bytes() == path.read_bytes()

    def test_load_matches_reference_on_cli_files(self, tmp_path):
        from rqsid.cli import main

        root = tmp_path
        argvs = [
            ("gen", "--kind", "clustered", "--n", 1500, "--d", 6, "--clusters", 24,
             "--seed", 2, "--out", root / "gen"),
            ("train", "--embeddings", root / "gen" / "embeddings.json", "--num-layers", 3,
             "--codebook-size", 8, "--seed", 2, "--out", root / "train"),
            ("encode", "--embeddings", root / "gen" / "embeddings.json",
             "--codebook", root / "train" / "codebook.json", "--out", root / "enc"),
            ("mitigate", "--sids", root / "enc" / "sids.csv",
             "--codebook", root / "train" / "codebook.json",
             "--mode", "varlen", "--head-mass", "0.5", "--out", root / "mit"),
        ]
        for argv in argvs:
            assert main([str(a) for a in argv]) == 0
        config = load_codebook(root / "train" / "codebook.json")[0].config
        for stage in ("enc", "mit"):
            path = root / stage / "sids.csv"
            loaded = load_sids(path, config)
            assert table_entries(loaded) == reference_load_sids(path, config)
            assert len(loaded) == 1500
        assert not load_sids(root / "mit" / "sids.csv", config).is_full.all()


class TestSidRoundTrip:
    @settings(max_examples=150, deadline=None)
    @given(id_tables())
    def test_round_trip_matches_reference(self, tmp_path_factory, drawn):
        table, config = drawn
        root = tmp_path_factory.mktemp("sids")
        save_sids(root / "sids.csv", table)
        reference_save_sids(root / "ref.csv", table_entries(table))
        assert (root / "sids.csv").read_bytes() == (root / "ref.csv").read_bytes()
        loaded = load_sids(root / "sids.csv", config)
        assert loaded.tobytes() == table.tobytes()
        assert loaded.item_id.tolist() == table.item_id.tolist()
        assert table_entries(loaded) == reference_load_sids(root / "sids.csv", config)

    def test_written_in_blocks(self, tmp_path, monkeypatch):
        items = random_entries(np.random.default_rng(5), 23, CFG, 0.5)
        reference_save_sids(tmp_path / "ref.csv", items)
        table = load_sids(tmp_path / "ref.csv", CFG)
        monkeypatch.setattr("rqsid.persist._WRITE_BLOCK", 4)
        save_sids(tmp_path / "sids.csv", table)
        assert (tmp_path / "sids.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()

    def test_failed_write_keeps_old_file(self, tmp_path, monkeypatch):
        class FailingTable:
            """An id table whose second block of rows fails to arrive."""

            def __init__(self, table):
                self.table, self.tokens = table, table.tokens

            def __len__(self):
                return len(self.table)

            def __getitem__(self, rows):
                if rows.start:
                    raise OSError("device full")
                return self.table[rows]

        path = write_sids(tmp_path / "sids.csv", ["a,1,0", "a,2,1", "a,3,2"])
        before = path.read_bytes()
        monkeypatch.setattr("rqsid.persist._WRITE_BLOCK", 1)
        table = sid_table(np.array(["b", "c"]), [(0, 1, 2), (1, 2, 3)], CFG)
        with pytest.raises(OSError, match="device full"):
            save_sids(path, FailingTable(table))
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["sids.csv"]


# Malformed id-file bodies, each with the item its error must name.
MALFORMED_BODIES = {
    "short-row": (["a,1,1", "a,2,2", "a,3,3", "b,1,1", "b,2", "b,3,3"], DataError, "b"),
    "extra-field": (["a,1,1", "a,2,2,junk", "a,3,3"], DataError, "a"),
    "id-only": (["a,1,1", "a,2,2", "a,3,3", "b"], DataError, "b"),
    "text-layer": (["a,1,1", "a,two,2", "a,3,3"], DataError, "a"),
    "text-token": (["a,1,1", "a,2,2", "a,3,x"], DataError, "a"),
    "float-token": (["a,1,1", "a,2,2.0", "a,3,3"], DataError, "a"),
    "empty-token": (["a,1,1", "a,2,", "a,3,3"], DataError, "a"),
    "interleaved": (["a,1,1", "b,1,1", "a,2,2", "b,2,2", "a,3,3", "b,3,3"], DataError, "a"),
    "repeated": (["a,1,1", "a,2,2", "a,3,3", "b,1,1", "b,2,2", "b,3,3", "a,1,1"],
                 DataError, "a"),
    "split-before-malformed": (["a,1,1", "b,1,1", "a,2,2", "c,1,x"], DataError, "a"),
    "malformed-before-split": (["c,1,x", "a,1,1", "b,1,1", "a,2,2"], DataError, "c"),
    "split-after-bad-layers": (["c,1,1", "c,3,3", "c,2,2", "a,1,1", "b,1,1", "a,2,2"],
                               DataError, "a"),
    "layers-out-of-order": (["a,1,1", "a,3,3", "a,2,2"], MalformedSequenceError, "a"),
    "layer-1-missing": (["a,1,1", "a,2,2", "a,3,3", "b,2,2", "b,3,3"],
                        MalformedSequenceError, "b"),
    "layer-3-missing": (["a,1,1", "a,2,2"], MalformedSequenceError, "a"),
    "layer-repeated": (["a,1,1", "a,2,2", "a,2,2", "a,3,3"], MalformedSequenceError, "a"),
    "too-many-layers": (["a,1,1", "a,2,2", "a,3,3", "a,4,0"], MalformedSequenceError, "a"),
    "one-row": (["a,1,1", "a,2,2", "a,3,3", "b,1,1"], MalformedSequenceError, "b"),
    "first-bad-layers-named": (["a,1,1", "a,2,2", "b,3,3", "b,1,1", "b,2,2"],
                               MalformedSequenceError, "a"),
    "token-out-of-range": (["a,1,1", "a,2,9", "a,3,3"], TokenRangeError, "a"),
    "empty-body": ([], DataError, None),
    "blank-body": (["", ""], DataError, None),
}


class TestLoaderContract:
    @pytest.mark.parametrize("case", MALFORMED_BODIES, ids=list(MALFORMED_BODIES))
    def test_malformed_file_fails_as_reference(self, tmp_path, case):
        rows, error, item = MALFORMED_BODIES[case]
        path = write_sids(tmp_path / "sids.csv", rows)
        with pytest.raises(error) as found:
            load_sids(path, CFG)
        with pytest.raises(error) as expected:
            reference_load_sids(path, CFG)
        if item is not None:
            assert repr(item) in str(found.value)
            assert repr(item) in str(expected.value)

    def test_int_leniency_kept(self, tmp_path):
        # int() and numpy's text reader both read " 3", "+3", "3 " and "\t3\u2003"
        path = write_sids(tmp_path / "sids.csv", ["a, 1,+3", "a,+2, 0", "a,3 ,\t3\u2003"])
        assert table_entries(load_sids(path, CFG)) == reference_load_sids(path, CFG)
        assert load_sids(path, CFG).tokens.tolist() == [[3, 0, 3]]

    @pytest.mark.parametrize("value", [str(2**63), str(-(2**63) - 1)])
    def test_int64_overflow_is_malformed(self, tmp_path, value):
        for row in (f"a,2,{value}", f"a,{value},2"):
            path = write_sids(tmp_path / "sids.csv", ["a,1,1", row, "a,3,3"])
            with pytest.raises(DataError, match="malformed row for item 'a'"):
                load_sids(path, CFG)

    def test_crlf_blank_lines_and_no_final_newline(self, tmp_path):
        text = "# c\r\n\r\nitem_id,layer,token\r\na,1,1\r\n\r\na,2,2\r\na,3,3\r\nb,1,0\r\nb,3,1"
        path = tmp_path / "sids.csv"
        path.write_bytes(text.encode())
        loaded = load_sids(path, CFG)
        assert table_entries(loaded) == reference_load_sids(path, CFG)
        assert table_entries(loaded) == [("a", ((1, 1), (2, 2), (3, 3))), ("b", ((1, 0), (3, 1)))]

    def test_comment_lines_only_before_header(self, tmp_path):
        rows = ["a,1,1", "a,2,2", "a,3,3", "#b,1,1", "#b,2,2", "#b,3,3"]
        path = write_sids(tmp_path / "sids.csv", rows)
        with pytest.raises(DataError, match="'#b'"):
            load_sids(path, CFG)
        path = write_sids(tmp_path / "sids.csv", ["a,1,1", "# note", "a,2,2", "a,3,3"])
        with pytest.raises(DataError, match="'# note'"):
            load_sids(path, CFG)

    @pytest.mark.parametrize("bad", ['"a"', "a|k", "", "#", "#item", 'a"b', "|"],
                             ids=["quoted", "pipe", "empty", "hash", "comment", "quote", "bar"])
    def test_id_outside_alphabet_rejected(self, tmp_path, bad):
        path = write_sids(tmp_path / "sids.csv", ["a,1,1", "a,2,2", "a,3,3",
                                                  f"{bad},1,1", f"{bad},2,2", f"{bad},3,3"])
        with pytest.raises(DataError, match=re.escape(repr(bad))):
            load_sids(path, CFG)


    @pytest.mark.parametrize("rows", [
        ["a,1,1", "b,1,1", "a,2,2", "b,2,2", "a,3,3", "b,3,3"],
        ["a,1,1", "a,2,2", "a,3,3", "b,1,1", "b,2,2", "b,3,3", "a,1,1", "a,2,2", "a,3,3"],
    ], ids=["interleaved", "duplicate"])
    def test_split_item_rejected(self, tmp_path, rows):
        with pytest.raises(DataError, match="not contiguous"):
            load_sids(write_sids(tmp_path / "sids.csv", rows), CFG)

    @pytest.mark.parametrize("rows", [["a,1"], ["a,1,x"], ["a,one,1"]],
                             ids=["short", "token-text", "layer-text"])
    def test_malformed_row_rejected(self, tmp_path, rows):
        with pytest.raises(DataError):
            load_sids(write_sids(tmp_path / "sids.csv", rows), CFG)

    def test_no_ids_rejected(self, tmp_path):
        with pytest.raises(DataError):
            load_sids(write_sids(tmp_path / "sids.csv", []), CFG)

    def test_missing_header_rejected(self, tmp_path):
        (tmp_path / "sids.csv").write_text("# only a comment\n")
        with pytest.raises(DataError):
            load_sids(tmp_path / "sids.csv", CFG)


class TestStreamedSidLoad:
    """load_sids, which scans a block of lines at a time, against the
    reference on TestSidOracle's files, with blocks a few rows long."""

    @pytest.fixture
    def blocks(self, monkeypatch):
        """Shrink the read block to `size` characters; the list fills with
        the blocks of lines that load_sids converts."""
        seen = []
        line_blocks = persist._line_blocks
        monkeypatch.setattr(persist, "_line_blocks",
                            lambda f: (seen.append(b) or b for b in line_blocks(f)))

        def shrink(size):
            monkeypatch.setattr(persist, "_SID_READ_BLOCK", size)
            seen.clear()
            return seen
        return shrink

    @pytest.mark.parametrize("size", [1, 7, 64, 1000])
    @pytest.mark.parametrize("num_layers,elide_share", [(3, 0.0), (3, 0.5), (4, 0.7), (2, 0.0)])
    def test_load_matches_reference(self, tmp_path, blocks, size, num_layers, elide_share):
        config = QuantizerConfig(num_layers=num_layers, codebook_size=5, dim=1)
        items = random_entries(np.random.default_rng(num_layers), 300, config, elide_share)
        path = tmp_path / "sids.csv"
        reference_save_sids(path, items)
        seen = blocks(size)
        loaded = load_sids(path, config)
        assert table_entries(loaded) == items
        assert loaded.is_full.tolist() == [len(e) == num_layers for _, e in items]
        # some item's rows straddle a block boundary
        assert len(seen) > 1
        assert any(a.rsplit("\n", 2)[-2].split(",")[0] == b.split(",")[0]
                   for a, b in zip(seen, seen[1:]))

    @pytest.mark.parametrize("size", [1, 5, 16])
    def test_crlf_blank_lines_and_no_final_newline(self, tmp_path, blocks, size):
        text = "# c\r\n\r\nitem_id,layer,token\r\na,1,1\r\n\r\na,2,2\r\na,3,3\r\nb,1,0\r\nb,3,1"
        path = tmp_path / "sids.csv"
        path.write_bytes(text.encode())
        blocks(size)
        assert table_entries(load_sids(path, CFG)) == reference_load_sids(path, CFG)

    def test_split_item_across_blocks(self, tmp_path, blocks):
        rows = ["a,1,1", "a,2,2", "b,1,1", "b,2,2", "b,3,3", "a,3,3"]
        path = write_sids(tmp_path / "sids.csv", rows)
        seen = blocks(6)
        with pytest.raises(DataError, match="the rows of item 'a' are not contiguous"):
            load_sids(path, CFG)
        # the halves of item a were converted in different blocks
        assert seen[0] == "a,1,1\n" and "a,3,3\n" in seen[-1]
        with pytest.raises(DataError, match="not contiguous"):
            reference_load_sids(path, CFG)

    @pytest.mark.parametrize("size", [1, 5, 13])
    @pytest.mark.parametrize("case", MALFORMED_BODIES, ids=list(MALFORMED_BODIES))
    def test_malformed_file_fails_as_in_one_block(self, tmp_path, blocks, size, case):
        rows, error, _ = MALFORMED_BODIES[case]
        path = write_sids(tmp_path / "sids.csv", rows)
        with pytest.raises(error) as whole:
            load_sids(path, CFG)
        blocks(size)
        with pytest.raises(error) as streamed:
            load_sids(path, CFG)
        assert str(streamed.value) == str(whole.value)


def previous_load_sids(path, config, block=1 << 18):
    """The loader that converted a block of lines at a time with str.split
    and numpy's str-to-int conversion, which reads ints as int() does."""
    L = config.num_layers
    items, firsts, layer_blocks, token_blocks = [], [], [], []
    last = None
    with open(path, encoding="utf-8") as f:
        persist._skip_sid_header(f, path)
        rest, texts = "", []
        for chunk in iter(lambda: f.read(block), ""):
            rest += chunk
            cut = rest.rfind("\n") + 1
            if cut:
                texts.append(rest[:cut])
                rest = rest[cut:]
        if rest:
            texts.append(rest + "\n")
    for text in texts:
        if text[:1] == "\n" or "\n\n" in text:
            text = "".join(f"{line}\n" for line in text.split("\n") if line)
        rows = text.count("\n")
        if not rows:
            continue
        fields = text.replace("\n", ",\n,").split(",")
        fields.pop()
        try:
            layer_blocks.append(np.array(fields[1::4], dtype=np.int64))
            token_blocks.append(np.array(fields[2::4], dtype=np.int64))
            aligned = len(fields) == 4 * rows and fields[3::4].count("\n") == rows
        except (ValueError, OverflowError):
            aligned = False
        if not aligned:
            raise previous_bad_item(path) from None
        ids = np.array(fields[0::4], dtype=object)
        first = np.empty(rows, dtype=bool)
        first[0] = ids[0] != last
        np.not_equal(ids[1:], ids[:-1], out=first[1:])
        items += ids[first].tolist()
        firsts.append(first)
        last = ids[-1]
    if not items:
        raise DataError(f"{path} holds no ids")
    if len(set(items)) != len(items):
        raise previous_bad_item(path)
    first, layers, tokens = map(np.concatenate, (firsts, layer_blocks, token_blocks))
    rows = len(first)
    starts = np.flatnonzero(first)
    sizes = np.diff(starts, append=rows)
    is_full = sizes == L
    item_of_row = np.cumsum(first) - 1
    place = np.arange(rows) - starts[item_of_row]
    expected = place + 1 + ((place > 0) & ~is_full[item_of_row])
    bad = np.logical_or.reduceat(layers != expected, starts)
    bad |= ~is_full & ((sizes != L - 1) | (L < 3))
    if bad.any():
        k = int(bad.argmax())
        raise MalformedSequenceError(
            f"item {items[k]!r} has layers {layers[starts[k]:starts[k] + sizes[k]].tolist()}; "
            f"expected 1..{L} in order, with only layer 2 allowed to be missing"
        )
    table_tokens = np.full((len(items), L), -1, dtype=np.int64)
    table_tokens[item_of_row, layers - 1] = tokens
    reference_check_item_ids(items)
    return sid_table(np.array(items), table_tokens, config, is_full)


def previous_malformed_row(line):
    fields = line.split(",")
    if len(fields) != 3:
        return True
    try:
        np.array(fields[1:], dtype=np.int64)
    except (ValueError, OverflowError):
        return True
    return False


def previous_bad_item(path):
    with open(path, encoding="utf-8") as f:
        persist._skip_sid_header(f, path)
        lines = [line for line in f.read().split("\n") if line]
    seen = set()
    rows = zip((line.split(",", 1)[0] for line in lines), map(previous_malformed_row, lines))
    for item, block in itertools.groupby(rows, key=lambda row: row[0]):
        if item in seen:
            return DataError(f"{path}: the rows of item {item!r} are not contiguous")
        if any(bad for _, bad in block):
            return DataError(f"{path} has a malformed row for item {item!r}")
        seen.add(item)
    raise AssertionError("a row was rejected, but no item is split or malformed")


def load_outcome(load, path, config):
    """(table bytes, item ids) of a load, or (error type, message)."""
    try:
        table = load(path, config)
    except (DataError, MalformedSequenceError, TokenRangeError) as e:
        return type(e), str(e)
    return table.tobytes(), table.item_id.tolist()


# Layer and token fields that int() and numpy's text reader read alike.
SHARED_INT_FIELDS = ["0", "1", "2", "3", "4", "5", "-1", " 2", "+3", "1 ", "", "x", "2.0", "1e1",
                     "9" * 19, "99999999999999999999"]


@st.composite
def sid_bodies(draw):
    """A layer count and a short id-file body that may break any rule of
    the format."""
    L = draw(st.integers(min_value=2, max_value=4))
    items = st.sampled_from(["a", "b", "c", " a", "é"])
    fields = st.sampled_from(SHARED_INT_FIELDS)
    row = st.one_of(
        st.builds(lambda i, l, t: f"{i},{l},{t}", items, fields, fields),
        st.builds(lambda i, l: f"{i},{l}", items, fields),
        st.builds(lambda i, l, t, x: f"{i},{l},{t},{x}", items, fields, fields, fields),
        st.sampled_from(["", " ", "a"]),
    )
    valid = st.builds(
        lambda i, tokens, full: [f"{i},{l},{t}" for l, t in enumerate(tokens, start=1)
                                 if full or l != 2],
        items, st.lists(st.sampled_from("0123"), min_size=L, max_size=L), st.booleans(),
    )
    chunks = draw(st.lists(st.one_of(valid, st.lists(row, min_size=1, max_size=3)),
                           max_size=6))
    return replace(CFG, num_layers=L), [line for chunk in chunks for line in chunk]


class TestLoaderOracle:
    """load_sids, which reads through numpy's C text reader, against the
    previous block loader: equal tables, or equal errors."""

    @settings(max_examples=150, deadline=None)
    @given(id_tables())
    def test_round_trip_matches_previous(self, tmp_path_factory, drawn):
        table, config = drawn
        path = tmp_path_factory.mktemp("sids") / "sids.csv"
        save_sids(path, table)
        loaded = load_sids(path, config)
        assert loaded.tobytes() == table.tobytes()
        assert loaded.dtype == table.dtype
        assert load_outcome(load_sids, path, config) == load_outcome(previous_load_sids, path, config)

    @settings(max_examples=400, deadline=None)
    @given(sid_bodies())
    def test_any_body_matches_previous(self, tmp_path_factory, drawn):
        config, rows = drawn
        path = write_sids(tmp_path_factory.mktemp("sids") / "sids.csv", rows)
        assert load_outcome(load_sids, path, config) == load_outcome(previous_load_sids, path, config)

    @pytest.mark.parametrize("rows,error", [
        (["a,1,0", "a,3,0", "a,4,0"], None),
        (["a,1,0", "a,2,0", "a,4,0"], MalformedSequenceError),
        (["a,1,0", "a,3,0"], MalformedSequenceError),
        (["a,1,0", "a,3,0", "a,3,0", "a,4,0"], MalformedSequenceError),
        (["a,1,0", "a,2,0", "a,3,0", "a,4,0", "b,2,0", "b,3,0", "b,4,0"], MalformedSequenceError),
    ], ids=["elided", "skips-3", "ends-at-3", "repeats-3", "starts-at-2"])
    def test_four_layers(self, tmp_path, rows, error):
        config = replace(CFG, num_layers=4)
        path = write_sids(tmp_path / "sids.csv", rows)
        outcome = load_outcome(load_sids, path, config)
        assert outcome == load_outcome(previous_load_sids, path, config)
        assert outcome[0] == error if error else isinstance(outcome[0], bytes)

    @settings(max_examples=5, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.sampled_from([(3, 0.0), (3, 0.4), (4, 0.7), (1, 0.0)]))
    def test_files_past_the_block_size(self, tmp_path_factory, seed, shape):
        # ids of 1 to 30 characters, some of them more than one byte long
        num_layers, elide_share = shape
        gen = np.random.default_rng(seed)
        config = QuantizerConfig(num_layers=num_layers, codebook_size=300, dim=1)
        n = 40000 // num_layers
        alphabet = np.array(list("abcxyz019_- #é\u2028"))
        heads = alphabet[alphabet != "#"]
        ids = list(dict.fromkeys(
            gen.choice(heads) + "".join(gen.choice(alphabet, size=gen.integers(0, 30)))
            for _ in range(n)
        ))
        tokens = gen.integers(0, 300, size=(len(ids), num_layers))
        is_full = ~((gen.random(len(ids)) < elide_share) & (num_layers >= 3))
        table = sid_table(np.array(ids), tokens, config, is_full)
        path = tmp_path_factory.mktemp("sids") / "sids.csv"
        save_sids(path, table)
        assert path.stat().st_size > 2 * (1 << 18)
        loaded = load_sids(path, config)
        assert loaded.tobytes() == table.tobytes()
        assert loaded.tobytes() == previous_load_sids(path, config).tobytes()

    @pytest.mark.parametrize("newline", ["\n", "\r\n", ""])
    @pytest.mark.parametrize("longest", ["abcdefghij", "é" * 10, "\u2028x" * 5, "𝄞" * 3])
    def test_id_as_long_as_the_longest_line_allows(self, tmp_path, newline, longest):
        # The ids are read as bytes as wide as the longest line; the longest
        # id here fills the longest line but for ",1,0", with no final newline.
        path = tmp_path / "sids.csv"
        body = ["a,1,299", "a,2,0", "a,3,1", f"{longest},1,0", f"{longest},2,0", f"{longest},3,0"]
        text = "item_id,layer,token\n" + "\n".join(body)
        path.write_bytes((text.replace("\n", newline or "\n") + newline).encode())
        config = replace(CFG, codebook_size=300)
        loaded = load_sids(path, config)
        assert loaded.item_id.tolist() == ["a", longest]
        assert loaded.dtype["item_id"] == np.dtype(("U", len(longest)))
        assert loaded.tobytes() == previous_load_sids(path, config).tobytes()

    @pytest.mark.parametrize("at", [0, 1, 2999, 5998, 5999])
    def test_first_malformed_row_found_in_a_long_file(self, tmp_path, at):
        rows = [f"i{k // 3},{k % 3 + 1},0" for k in range(6000)]
        rows[at] = rows[at] + ",junk"
        later = (at + 6000) // 2
        if later > at:  # a later bad row
            rows[later] = rows[later].replace(",0", ",x")
        path = write_sids(tmp_path / "sids.csv", rows)
        with pytest.raises(DataError, match=f"malformed row for item 'i{at // 3}'"):
            load_sids(path, CFG)
        assert load_outcome(load_sids, path, CFG) == load_outcome(previous_load_sids, path, CFG)


class TestIntGrammar:
    """Layers and tokens follow one grammar, numpy's text reader's, on the
    fast path and on the path that names the bad item."""

    @pytest.mark.parametrize("field", ["1_0", "\u0663", "2.0", "0x1", "", " ", "1 0"])
    def test_rejected_field_names_its_item(self, tmp_path, field):
        for row in (f"b,2,{field}", f"b,{field},0"):
            path = write_sids(tmp_path / "sids.csv", ["a,1,0", "a,2,0", "a,3,0",
                                                      "b,1,0", row, "b,3,0"])
            with pytest.raises(DataError, match="malformed row for item 'b'"):
                load_sids(path, CFG)

    def test_underscores_and_other_digits_were_read_before(self, tmp_path):
        # the tightening: int() read these as 10 and 3
        path = write_sids(tmp_path / "sids.csv", ["a,1,1_0", "a,2,\u0663", "a,3,0"])
        assert previous_load_sids(path, replace(CFG, codebook_size=16)).tokens.tolist() == [[10, 3, 0]]
        with pytest.raises(DataError, match="malformed row for item 'a'"):
            load_sids(path, replace(CFG, codebook_size=16))

    @pytest.mark.parametrize("rows,item", [
        (["a,1,0", "a,2,0", "a,3,0", "b,1", "b,2,0", "b,3,0"], "b"),
        (["a,1,0", "a,2,0,0", "a,3"], "a"),
        (["a,1,0", "a,2,0", "a,3,0", " ", "b,1,0"], " "),
        (["a,1,0", "a,2,0", "a,3,0", "\t"], "\t"),
    ], ids=["short", "long-then-short", "whitespace-line", "tab-line"])
    def test_ragged_and_whitespace_rows(self, tmp_path, rows, item):
        path = write_sids(tmp_path / "sids.csv", rows)
        with pytest.raises(DataError, match=re.escape(f"malformed row for item {item!r}")):
            load_sids(path, CFG)

    @pytest.mark.parametrize("body", ["", "\n\n", "\r\n"], ids=["none", "blank", "crlf"])
    def test_empty_body_holds_no_ids_without_a_warning(self, tmp_path, body):
        path = tmp_path / "sids.csv"
        path.write_bytes(f"# c\nitem_id,layer,token\n{body}".encode())
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DataError, match="holds no ids"):
                load_sids(path, CFG)

    @pytest.mark.parametrize("rows", [["a\x00,1,0", "a\x00,2,0", "a\x00,3,0"],
                                      ["b,1,0", "b,2,0", "b,3,0", "a\x00b,1,0", "a\x00b,2,0",
                                       "a\x00b,3,0"]], ids=["trailing", "inner"])
    def test_nul_in_an_id_rejected(self, tmp_path, rows):
        path = write_sids(tmp_path / "sids.csv", rows)
        with pytest.raises(DataError, match=re.escape(repr(rows[-1].split(",")[0]))):
            load_sids(path, CFG)


class TestEmbeddingFormats:
    def test_csv_round_trip_lossless(self, tmp_path):
        gen = np.random.default_rng(1)
        data = EmbeddingCollection(("a", "b", "c"), gen.standard_normal((3, 5)))
        # the CSV form is read only, as the import path for outside embeddings
        (tmp_path / "emb.csv").write_text("item_id,v0,v1,v2,v3,v4\n" + "".join(
            ",".join([item, *map(repr, row)]) + "\n"
            for item, row in zip(data.ids, data.vectors.tolist())))
        loaded = load_embeddings(tmp_path / "emb.csv")
        assert loaded.ids.tolist() == data.ids.tolist()
        np.testing.assert_array_equal(loaded.vectors, data.vectors)

    def test_binary_round_trip_lossless(self, tmp_path):
        gen = np.random.default_rng(2)
        data = EmbeddingCollection(("x", "y"), gen.standard_normal((2, 4)))
        save_embeddings_binary(tmp_path / "emb.json", data)
        loaded = load_embeddings(tmp_path / "emb.json")
        assert loaded.ids.tolist() == data.ids.tolist()
        np.testing.assert_array_equal(loaded.vectors, data.vectors)

    def test_binary_digest_checked(self, tmp_path):
        gen = np.random.default_rng(3)
        data = EmbeddingCollection(("x",), gen.standard_normal((1, 3)))
        save_embeddings_binary(tmp_path / "emb.json", data)
        blob = bytearray((tmp_path / "emb.bin").read_bytes())
        blob[-1] ^= 0x01
        (tmp_path / "emb.bin").write_bytes(bytes(blob))
        with pytest.raises(DataError):
            load_embeddings(tmp_path / "emb.json")


def reference_load_embeddings_binary(path):
    """The binary loader that read the whole file before it built the array."""
    header = json.loads(path.read_text())
    bin_path = path.parent / header["vectors_file"]
    payload = bin_path.read_bytes()
    if hashlib.sha256(payload).hexdigest() != header["vectors_sha256"]:
        raise DataError(f"digest mismatch for {bin_path}")
    shape = (header["count"], header["dim"])
    if len(payload) != 8 * shape[0] * shape[1]:
        raise DataError(f"{bin_path} holds {len(payload)} bytes, expected {shape[0]}x{shape[1]} float64")
    vectors = np.frombuffer(payload, dtype="<f8").reshape(shape)
    return EmbeddingCollection(tuple(header["item_ids"]), vectors)


def _resized(blob, header, size, rehash):
    """The .bin cut or padded to `size` bytes, its digest updated if `rehash`."""
    blob = (blob + bytes(8 * 8))[:size]
    if rehash:
        header["vectors_sha256"] = hashlib.sha256(blob).hexdigest()
    return blob


def _flipped(blob, header):
    blob = bytearray(blob)
    blob[-1] ^= 0x01
    return bytes(blob)


def _counted(blob, header, count):
    header["count"] = count
    return blob


def _extra_vector(blob, header):
    """One more vector than item ids, with count and digest to match."""
    header["count"] += 1
    return _resized(blob, header, len(blob) + 8 * header["dim"], rehash=True)


# each damages a binary embeddings file of 3 vectors of dim 4 (96 bytes)
DAMAGED_EMBEDDINGS = {
    "short": (lambda b, h: _resized(b, h, 88, rehash=False), "digest mismatch"),
    "long": (lambda b, h: _resized(b, h, 104, rehash=False), "digest mismatch"),
    "short-rehashed": (lambda b, h: _resized(b, h, 88, rehash=True), "holds 88 bytes"),
    "long-rehashed": (lambda b, h: _resized(b, h, 104, rehash=True), "holds 104 bytes"),
    "wrong-digest": (_flipped, "digest mismatch"),
    "count-too-high": (lambda b, h: _counted(b, h, 4), "holds 96 bytes, expected 4x4"),
    "count-negative": (lambda b, h: _counted(b, h, -3), "holds 96 bytes, expected -3x4"),
    "count-beyond-ids": (_extra_vector, "3 ids for 4 vectors"),
}


class TestDamagedEmbeddings:
    @pytest.mark.parametrize("loader", [load_embeddings, persist.load_residuals],
                             ids=["collection", "residuals"])
    @pytest.mark.parametrize("case", DAMAGED_EMBEDDINGS, ids=list(DAMAGED_EMBEDDINGS))
    def test_fails_as_reference(self, tmp_path, monkeypatch, case, loader):
        # two-row blocks, so the vectors are read across blocks
        monkeypatch.setattr(persist, "_VECTOR_READ_BLOCK", 2 * 4 * 8)
        damage, message = DAMAGED_EMBEDDINGS[case]
        data = EmbeddingCollection(("x", "y", "z"), np.random.default_rng(7).standard_normal((3, 4)))
        path = tmp_path / "emb.json"
        save_embeddings_binary(path, data)
        header = json.loads(path.read_text())
        blob = damage((tmp_path / "emb.bin").read_bytes(), header)
        (tmp_path / "emb.bin").write_bytes(blob)
        path.write_text(json.dumps(header))
        with pytest.raises(DataError, match=message) as found:
            loader(path)
        with pytest.raises(DataError) as expected:
            reference_load_embeddings_binary(path)
        assert str(found.value) == str(expected.value)

    def test_written_from_the_vectors_buffer(self, tmp_path):
        data = EmbeddingCollection(("x", "y"), np.random.default_rng(8).standard_normal((2, 3)))
        save_embeddings_binary(tmp_path / "emb.json", data)
        payload = data.vectors.astype("<f8").tobytes()
        assert (tmp_path / "emb.bin").read_bytes() == payload
        header = json.loads((tmp_path / "emb.json").read_text())
        assert header["vectors_sha256"] == hashlib.sha256(payload).hexdigest()
        loaded = load_embeddings(tmp_path / "emb.json")
        assert loaded.vectors.tobytes() == data.vectors.tobytes()
        assert not loaded.vectors.flags.writeable


class TestBlockReader:
    @pytest.mark.parametrize("count", [1, 7, 8, 9, 16, 25])
    def test_both_layouts_equal(self, tmp_path, monkeypatch, count):
        # blocks of 8 rows: a file within one block, of whole blocks, and
        # of whole blocks and a part
        monkeypatch.setattr(persist, "_VECTOR_READ_BLOCK", 8 * 3 * 8 + 7)
        data = EmbeddingCollection(tuple(f"i{k}" for k in range(count)),
                                   np.random.default_rng(count).standard_normal((count, 3)))
        save_embeddings_binary(tmp_path / "emb.json", data)
        loaded = load_embeddings(tmp_path / "emb.json")
        residuals = persist.load_residuals(tmp_path / "emb.json")
        assert loaded.vectors.flags.c_contiguous and not loaded.vectors.flags.writeable
        assert residuals.flags.f_contiguous and residuals.flags.writeable
        assert loaded.ids.tolist() == data.ids.tolist()
        assert loaded.vectors.tobytes() == data.vectors.tobytes()
        assert residuals.tobytes(order="C") == data.vectors.tobytes()

    def test_csv_residuals_are_column_major(self, tmp_path):
        (tmp_path / "emb.csv").write_text("item_id,v0,v1\na,0.5,1.0\nb,0.25,-2.0\n")
        residuals = persist.load_residuals(tmp_path / "emb.csv")
        assert residuals.flags.f_contiguous and residuals.flags.writeable
        assert residuals.tolist() == [[0.5, 1.0], [0.25, -2.0]]

    @pytest.mark.parametrize("ids, message", [
        (["a", ["b"], "c"], r"item id \['b'\]"), (["a", "b", "a"], "unique"),
    ], ids=["unhashable", "repeated"])
    def test_residuals_check_ids_as_the_collection(self, tmp_path, ids, message):
        data = EmbeddingCollection(("x", "y", "z"), np.zeros((3, 2)))
        save_embeddings_binary(tmp_path / "emb.json", data)
        header = json.loads((tmp_path / "emb.json").read_text())
        header["item_ids"] = ids
        (tmp_path / "emb.json").write_text(json.dumps(header))
        for loader in (load_embeddings, persist.load_residuals):
            with pytest.raises(DataError, match=message):
                loader(tmp_path / "emb.json")


def reference_labels_csv(ids, labels):
    """The labels file that the csv.writer version of save_labels wrote."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["item_id", "cluster"])
    for item_id, label in zip(ids, labels):
        writer.writerow([item_id, int(label)])
    return buf.getvalue()


class TestLabelFormat:
    @given(st.lists(ITEM_IDS, max_size=30, unique=True), st.data())
    @settings(max_examples=150, deadline=None)
    def test_matches_reference_writer(self, tmp_path_factory, ids, data):
        # ids at the alphabet's edges need no quoting, so no writer quotes them
        labels = np.array(data.draw(st.lists(st.integers(0, 10**6), min_size=len(ids),
                                             max_size=len(ids))), dtype=np.int64)
        path = tmp_path_factory.mktemp("labels") / "labels.csv"
        save_labels(path, np.array(ids, dtype=str), labels)
        assert path.read_bytes() == reference_labels_csv(ids, labels).encode("utf-8")


def joined_labels(ids, labels):
    """The labels file that save_labels built as one text before writing it."""
    rows = "".join([f"{item_id},{label}\n" for item_id, label in zip(ids.tolist(), labels.tolist())])
    return ("item_id,cluster\n" + rows).encode()


def joined_interactions(datasets, catalog):
    """The interactions file that save_interactions built as one text before
    writing it."""
    parts = ["user_context,target,split\n"]
    for ds in datasets:
        targets = np.cumsum(ds.sizes) - 1
        seps = np.full(len(ds.items), "|", dtype=object)
        seps[targets - 1] = ","
        seps[targets] = f",{ds.split}\n"
        parts += itertools.chain.from_iterable(
            zip(catalog.item_id[ds.items].tolist(), seps.tolist())
        )
    return "".join(parts).encode()


class TestBlockedWriters:
    """save_labels and save_interactions write a block of rows at a time, and
    their bytes are those of the writers that joined the whole file first."""

    @pytest.mark.parametrize("block", [3, 1000, persist._WRITE_BLOCK])
    def test_labels(self, tmp_path, monkeypatch, block):
        ids = np.array([f"\u00e9{k}-x" for k in range(2 * persist._WRITE_BLOCK + 7)])
        labels = np.random.default_rng(block).integers(0, 10**6, size=len(ids))
        monkeypatch.setattr("rqsid.persist._WRITE_BLOCK", block)
        save_labels(tmp_path / "labels.csv", ids, labels)
        assert (tmp_path / "labels.csv").read_bytes() == joined_labels(ids, labels)

    @pytest.mark.parametrize("block", [3, 1000, persist._WRITE_BLOCK])
    def test_interactions(self, tmp_path, monkeypatch, block):
        gen = np.random.default_rng(block)
        ids = np.array([f"\u00e9{k}-x" for k in range(500)])
        catalog = sid_table(ids, gen.integers(0, 4, size=(len(ids), 3)), CFG)
        datasets = []
        for split, records in (("train", 5000), ("test", 700)):
            sizes = gen.integers(2, 7, size=records)
            items = gen.integers(0, len(ids), size=sizes.sum())
            datasets.append(InteractionDataset(items, sizes, split))
        assert len(datasets[0].items) > 2 * persist._WRITE_BLOCK
        monkeypatch.setattr("rqsid.persist._WRITE_BLOCK", block)
        save_interactions(tmp_path / "inter.csv", datasets, catalog)
        assert (tmp_path / "inter.csv").read_bytes() == joined_interactions(datasets, catalog)


class TestInteractionFormat:
    def test_round_trip_with_splits(self, tmp_path):
        catalog = sid_table(np.array(["a", "b", "c"]), [(0, 0, 0), (1, 1, 1), (2, 2, 2)], CFG)
        # records a b -> c and c -> a, then b -> c
        train = InteractionDataset([0, 1, 2, 2, 0], [3, 2], split="train")
        test = InteractionDataset([1, 2], [2], split="test")
        save_interactions(tmp_path / "inter.csv", [train, test], catalog)
        assert (tmp_path / "inter.csv").read_text() == (
            "user_context,target,split\na|b,c,train\nc,a,train\nb,c,test\n")
        loaded = load_interactions(tmp_path / "inter.csv", catalog)
        for got, want in ((loaded["train"], train), (loaded["test"], test)):
            assert got.split == want.split
            np.testing.assert_array_equal(got.items, want.items)
            np.testing.assert_array_equal(got.sizes, want.sizes)

    @pytest.mark.parametrize("row,message", [
        ("a|x,b,train", "train item 'x' not in catalog"),
        ("a,y,valid", "valid item 'y' not in catalog"),
        (",b,train", "train record 1 has an empty history"),
    ], ids=["history", "other-split", "empty-history"])
    def test_load_rejects_rows_outside_catalog(self, tmp_path, row, message):
        catalog = sid_table(np.array(["a", "b"]), [(0, 0, 0), (1, 1, 1)], CFG)
        (tmp_path / "inter.csv").write_text(f"user_context,target,split\na,b,train\n{row}\n")
        with pytest.raises(DataError, match=message):
            load_interactions(tmp_path / "inter.csv", catalog)

    @pytest.mark.parametrize("row", ["a\x00,b,train", "a|b,a\x00,test", "b|a\x00b,a,train"],
                             ids=["trailing-in-history", "trailing-in-target", "inner"])
    def test_load_names_an_id_with_nul_as_outside_the_alphabet(self, tmp_path, row):
        # the catalog's array cannot hold "a\x00", so it is checked as read
        catalog = sid_table(np.array(["a", "b"]), [(0, 0, 0), (1, 1, 1)], CFG)
        (tmp_path / "inter.csv").write_text(f"user_context,target,split\na,b,train\n{row}\n")
        bad = next(item for item in re.split("[|,]", row) if "\x00" in item)
        with pytest.raises(DataError, match=re.escape(f"item id {bad!r} is not")):
            load_interactions(tmp_path / "inter.csv", catalog)


class TestManifest:
    def test_record_and_verify(self, tmp_path):
        out = tmp_path / "emb.csv"
        out.write_text("item_id,v0,v1\na,0.5,-1.25\n")
        record_run(tmp_path, "gen", {"n": 1}, {"gen": 0.1}, [out])
        (run,) = json.loads((tmp_path / "manifest.json").read_text())["runs"]
        assert run["outputs"] == [
            {"path": "emb.csv", "bytes": out.stat().st_size, "sha256": sha256_file(out)}
        ]

    def test_records_peak_rss(self, tmp_path):
        out = tmp_path / "emb.csv"
        out.write_text("item_id,v0,v1\na,0.5,-1.25\n")
        record_run(tmp_path, "gen", {}, {}, [out])
        (run,) = json.loads((tmp_path / "manifest.json").read_text())["runs"]
        assert isinstance(run["max_rss_mb"], float) and run["max_rss_mb"] > 0

    def test_runs_accumulate(self, tmp_path):
        out = tmp_path / "emb.csv"
        out.write_text("item_id,v0,v1\na,0.5,-1.25\n")
        record_run(tmp_path, "gen", {}, {}, [out])
        record_run(tmp_path, "train", {}, {}, [out])
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert [r["command"] for r in manifest["runs"]] == ["gen", "train"]
        digest = sha256_file(out)
        assert all(o["sha256"] == digest for r in manifest["runs"] for o in r["outputs"])


class TestOutputLock:
    def test_exclusive(self, tmp_path):
        from rqsid.core import ConfigError

        with OutputLock(tmp_path):
            with pytest.raises(ConfigError):
                with OutputLock(tmp_path):
                    pass
        # released: can lock again
        with OutputLock(tmp_path):
            pass
