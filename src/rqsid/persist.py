"""File formats and run bookkeeping.

Formats:
  codebook  JSON header plus a sibling binary of row-major little-endian
            float32 codewords (embedded in the JSON for tiny codebooks).
  ids       long-form item_id,layer,token rows with 0-based tokens, after
            a header and the comment lines before it; read by numpy's C
            text reader, which holds the ids as one fixed-width array.
  embeddings JSON header plus float64 binary; CSV item_id,v0..v{D-1} is
            read too, to import embeddings made elsewhere.
  interactions CSV user_context,target,split with pipe-separated context.
  reports   one JSON document with a schema_version field.

Item ids keep to the alphabet of `core.check_item_ids`, so id rows never
need quoting. All writes go through a temp file and an atomic rename; every
emitted file is digested into the run manifest.
"""

from __future__ import annotations

import csv
import hashlib
import io
import itertools
import json
import os
import resource
import sys
import tempfile
from contextlib import contextmanager
from dataclasses import fields
from pathlib import Path

import numpy as np

from .core import (
    Codebook,
    ConfigError,
    DataError,
    EmbeddingCollection,
    MalformedSequenceError,
    QuantizerConfig,
    check_embeddings,
    check_item_ids,
    distinct,
    item_id_array,
    sid_table,
)
from .grsim import InteractionDataset

FORMAT_VERSION = 1
# Codebooks at or below this many floats are embedded directly in the JSON.
INLINE_CODEBOOK_LIMIT = 4096
# bytes of an embeddings binary that are read, hashed and placed at once
_VECTOR_READ_BLOCK = 1 << 20


def sha256_bytes(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def sha256_file(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for block in iter(lambda: f.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


@contextmanager
def atomic_writer(path):
    """A binary file that replaces `path` once the block exits without error."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.")
    try:
        with os.fdopen(fd, "wb") as f:
            yield f
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def atomic_write_bytes(path, data) -> None:
    """Write a bytes-like object to `path` atomically."""
    with atomic_writer(path) as f:
        f.write(data)


def atomic_write_json(path, obj) -> None:
    """Write `obj` as sorted, indented JSON and a newline to `path` atomically,
    a chunk at a time as the encoder makes it, not as one whole text."""
    with atomic_writer(path) as f, io.TextIOWrapper(f, encoding="utf-8", newline="") as text:
        json.dump(obj, text, sort_keys=True, indent=2)
        text.write("\n")


@contextmanager
def _utf8_text(path, newline=None):
    """The UTF-8 text file `path`, opened for reading; bytes that do not
    decode as UTF-8 are a DataError naming it."""
    with open(path, encoding="utf-8", newline=newline) as f:
        try:
            yield f
        except UnicodeDecodeError as e:
            raise DataError(f"{path} is not UTF-8 text: {e}") from None


def _load_header(path: Path, kind: str, **types) -> dict:
    """The JSON header of a `kind` file, holding each key of `types`."""
    try:
        header = json.loads(path.read_text())
    except ValueError as e:  # undecodable bytes as well as malformed JSON
        raise DataError(f"{path} is not a JSON header: {e}") from None
    if not isinstance(header, dict) or header.get("kind") != kind:
        raise DataError(f"{path} is not a {kind} file")
    _require_keys(path, header, **types)
    return header


def _require_keys(path: Path, header: dict, **types) -> None:
    """Check that `header` holds each key with a value of its type (never a bool)."""
    missing = [k for k in types if k not in header]
    if missing:
        raise DataError(f"{path} lacks the header keys {missing}")
    wrong = [k for k, t in types.items()
             if isinstance(header[k], bool) or not isinstance(header[k], t)]
    if wrong:
        raise DataError(f"{path} has header keys of the wrong type: {wrong}")


def _number_array(path: Path, key: str, value, ndim: int) -> np.ndarray:
    """A header value as a float64 array of `ndim` dimensions, from numbers only."""
    try:
        array = np.asarray(value)
    except ValueError:  # ragged nesting
        array = None
    if array is None or array.dtype.kind not in "iuf" or array.ndim != ndim:
        raise DataError(f"{path} key {key!r} is not a {ndim}-d array of numbers")
    return array.astype(np.float64)


# --- codebook ---------------------------------------------------------------


def save_codebook(path, codebook: Codebook, head_set=None):
    """Write a codebook header, plus a binary sidecar unless it has at most
    `INLINE_CODEBOOK_LIMIT` floats, which are embedded in the header.

    Returns the list of written paths. Codewords are stored as little-endian
    float32; reload before encoding so file and in-memory codebooks agree.
    """
    path = Path(path)
    cfg = codebook.config
    weights = codebook.layers.astype("<f4")
    header = {
        "format_version": FORMAT_VERSION,
        "kind": "codebook",
        "num_layers": cfg.num_layers,
        "codebook_size": cfg.codebook_size,
        "dim": cfg.dim,
        "kmeans_iters": cfg.kmeans_iters,
        "seed": cfg.seed,
        "convergence_tol": cfg.convergence_tol,
        "training_sse_per_layer": list(codebook.training_sse_per_layer),
        "token_base": 0,
    }
    if head_set is not None:
        header["head_set"] = sorted(int(t) for t in head_set)
    written = []
    if weights.size <= INLINE_CODEBOOK_LIMIT:
        header["layers"] = weights.tolist()
    else:
        bin_path = path.with_suffix(".bin")
        payload = weights.tobytes(order="C")
        atomic_write_bytes(bin_path, payload)
        header["layers_file"] = bin_path.name
        header["layers_dtype"] = "float32-le"
        header["layers_sha256"] = sha256_bytes(payload)
        written.append(bin_path)
    atomic_write_json(path, header)
    written.insert(0, path)
    return written


def load_codebook(path) -> tuple[Codebook, frozenset[int] | None]:
    path = Path(path)
    header = _load_header(path, "codebook", num_layers=int, codebook_size=int, dim=int,
                          kmeans_iters=int, seed=int, convergence_tol=(int, float),
                          training_sse_per_layer=list)
    head = header.get("head_set")
    if head is not None:
        _require_keys(path, header, head_set=list)
        M = header["codebook_size"]
        if not all(isinstance(t, int) and not isinstance(t, bool) and 0 <= t < M for t in head):
            raise DataError(f"{path} key 'head_set' holds a value that is no token in [0, {M})")
    try:
        cfg = QuantizerConfig(**{f.name: header[f.name] for f in fields(QuantizerConfig)})
    except ConfigError as e:
        raise DataError(f"{path} holds an invalid codebook header: {e}") from None
    shape = (cfg.num_layers, cfg.codebook_size, cfg.dim)
    if "layers" in header:
        layers = _number_array(path, "layers", header["layers"], 3)
    else:
        _require_keys(path, header, layers_file=str, layers_sha256=str)
        bin_path = path.parent / header["layers_file"]
        payload = bin_path.read_bytes()
        if sha256_bytes(payload) != header["layers_sha256"]:
            raise DataError(f"digest mismatch for {bin_path}")
        layers = np.frombuffer(payload, dtype="<f4").astype(np.float64)
        if layers.size != int(np.prod(shape)):
            raise DataError(f"{bin_path} holds {layers.size} floats, expected {np.prod(shape)}")
        layers = layers.reshape(shape)
    sse = _number_array(path, "training_sse_per_layer", header["training_sse_per_layer"], 1)
    codebook = Codebook(cfg, layers, tuple(sse.tolist()))
    return codebook, (frozenset(head) if head is not None else None)


# --- semantic ids -----------------------------------------------------------

_SID_COMMENT = "# semantic ids in long form; tokens 0-based, layers 1-based"
_SID_HEADER = "item_id,layer,token"
# items or rows per block of text that a writer formats and writes at once
_WRITE_BLOCK = 8192
# characters of an id file's body that `load_sids` scans at once
_SID_READ_BLOCK = 1 << 18
# how numpy's text reader splits an id row: at "," only, with no comment or
# quote character, so an id keeps every character it holds
_SID_FIELDS = {"delimiter": ",", "comments": None, "quotechar": None}
# an id row as numpy's text reader reads it for its layer and token: three
# fields, or a ValueError; the id itself is read apart, so one character
# of it is enough here
_SID_ROW = np.dtype([("item_id", "U1"), ("layer", np.int64), ("token", np.int64)])


def save_sids(path, table) -> None:
    """Write an id table in long form; an elided layer 2 has no row.

    Item ids hold no character that needs quoting, so each item's rows are
    one formatted string, written a block of items at a time.
    """
    L = table.tokens.shape[1]
    # "{0}" is the item id and "{l}" its layer-l token
    full = "".join(f"{{0}},{l},{{{l}}}\n" for l in range(1, L + 1))
    elided = "".join(f"{{0}},{l},{{{l}}}\n" for l in range(1, L + 1) if l != 2)
    with atomic_writer(path) as f:
        f.write(f"{_SID_COMMENT}\n{_SID_HEADER}\n".encode())
        for start in range(0, len(table), _WRITE_BLOCK):
            block = table[start : start + _WRITE_BLOCK]
            formats = [full if is_full else elided for is_full in block.is_full.tolist()]
            rows = map(str.format, formats, block.item_id.tolist(), *block.tokens.T.tolist())
            f.write("".join(rows).encode())


def load_sids(path, config: QuantizerConfig) -> np.recarray:
    """Read an id file into an id table (see `core.sid_table`).

    Comment lines may precede the header. Each row is item_id,layer,token;
    blank lines hold no row. The rows of one item must be contiguous and list
    layers 1..L in order, with only layer 2 allowed to be missing. An item
    whose rows are split by another item's rows, or that has a row without
    exactly three fields or with a layer or token that numpy's text reader
    does not read as an int64 (ASCII digits after an optional sign, with
    surrounding whitespace), is a DataError naming the first such item;
    failing that, an item with other layers is a MalformedSequenceError
    naming the first one.

    The body is scanned a block of lines at a time for its longest line.
    numpy's C text reader then reads the rows, which must have three fields,
    with int64 layer and token columns, and the id column as fixed-width
    bytes as wide as the longest line, of which only each item's first row
    is kept. No row becomes a Python string. A file that is not UTF-8 is a
    DataError.
    """
    L = config.num_layers
    width, rows_seen, nul = 1, False, False
    with _utf8_text(path) as f:  # universal newlines: CRLF reads as LF
        skip = _skip_sid_header(f, path)
        for text in _line_blocks(f):
            nul = nul or "\x00" in text
            data = np.frombuffer(text.encode(), dtype=np.uint8)
            ends = np.flatnonzero(data == 10)
            rows_seen = rows_seen or len(ends) < len(data)
            # each line's length in bytes, newline included, bounds its id's
            width = max(width, int(np.diff(ends, prepend=-1).max()))
    if not rows_seen:
        raise DataError(f"{path} holds no ids")
    try:
        records = _read_sid_rows(path, skip)
    except ValueError:  # a row without three fields, or a field that is no int64
        raise _bad_item(path) from None
    rows = len(records)
    # latin-1 maps each byte to one character, so each id's UTF-8 bytes
    raw = np.loadtxt(path, dtype=f"S{width}", skiprows=skip, usecols=(0,), ndmin=2,
                     encoding="latin-1", **_SID_FIELDS)[:, 0]
    first = np.empty(rows, dtype=bool)  # an item's first row
    first[0] = True
    np.not_equal(raw[1:], raw[:-1], out=first[1:])
    raw = raw[first]
    items = _decode_ids(raw)
    del raw
    if not distinct(items):
        raise _bad_item(path)
    table_tokens, is_full = _item_tokens(items, first, records["layer"], records["token"], L)
    del first, records
    if nul:  # fixed-width ids drop a trailing NUL, so the ids as read name it
        item_id_array([item for item, _ in itertools.groupby(map(_row_id, _body_lines(path)))])
    check_item_ids(items)
    return sid_table(items, table_tokens, config, is_full)


def _item_tokens(items, first, layers, tokens, L):
    """The (items, L) token matrix, layer 2 at -1 where elided, and the
    full-length mask of id rows with the given first rows, layers and
    tokens; a MalformedSequenceError names the first item with other layers."""
    rows = len(first)
    starts = np.flatnonzero(first)
    ends = np.append(starts[1:], rows) - 1  # each item's last row
    # An item lists layers 1..L, or 1, 3..L with layer 2 elided: it starts
    # at layer 1, ends at layer L, and each of its rows adds 1 to the layer
    # of the row before, except that layer 3 may follow layer 1.
    step = np.diff(layers)
    broken = np.zeros(rows, dtype=bool)  # the step into the row breaks that rule
    broken[1:] = (step != 1) & ((step != 2) | (layers[:-1] != 1)) & ~first[1:]
    del step
    bad = np.logical_or.reduceat(broken, starts)
    bad |= (layers[starts] != 1) | (layers[ends] != L)
    if bad.any():
        k = int(bad.argmax())
        raise MalformedSequenceError(
            f"item {str(items[k])!r} has layers {layers[starts[k]:ends[k] + 1].tolist()}; "
            f"expected 1..{L} in order, with only layer 2 allowed to be missing"
        )
    # the table slot of each row: its item's row, at its layer's column
    slot = np.cumsum(first)
    slot -= 1
    slot *= L
    slot += layers
    slot -= 1
    table_tokens = np.full((len(starts), L), -1, dtype=np.int64)
    table_tokens.reshape(-1)[slot] = tokens
    return table_tokens, ends - starts == L - 1


def _skip_sid_header(f, path) -> int:
    """Read an id file's comment lines and header; return how many lines that was."""
    count = 0
    for line in f:
        count += 1
        if line != "\n" and not line.startswith("#"):
            break
    else:
        line = ""
    if line.rstrip("\n") != _SID_HEADER:
        raise DataError(f"{path} has unexpected id header {line.strip()!r}")
    return count


def _line_blocks(f):
    """The rest of the text file `f` in blocks of whole lines of about
    `_SID_READ_BLOCK` characters; a last line without a newline gets one."""
    rest = ""
    for chunk in iter(lambda: f.read(_SID_READ_BLOCK), ""):
        rest += chunk
        cut = rest.rfind("\n") + 1
        if cut:
            yield rest[:cut]
            rest = rest[cut:]
    if rest:
        yield rest + "\n"


def _decode_ids(raw: np.ndarray) -> np.ndarray:
    """Ids held as UTF-8 bytes, as a str array as wide as the longest."""
    width = max(1, int(np.char.str_len(raw).max()))
    codes = raw.view(np.uint8).reshape(len(raw), raw.itemsize)[:, :width]
    if codes.max() < 0x80:  # ASCII: each byte is its character's code point
        return codes.astype(np.uint32).view(np.dtype(("U", width))).reshape(-1)
    return np.char.decode(raw, "utf-8")


def _body_lines(path) -> list[str]:
    """The nonblank lines after an id file's header."""
    with open(path, encoding="utf-8") as f:
        _skip_sid_header(f, path)
        return [line for line in f.read().split("\n") if line]


def _row_id(line: str) -> str:
    return line.split(",", 1)[0]


def _read_sid_rows(source, skip: int = 0) -> np.ndarray:
    """The rows of an id file body (a path, after `skip` lines, or a list of
    lines) as `_SID_ROW` records; a ValueError if a row does not have three
    fields or a layer or token is no int64."""
    return np.loadtxt(source, dtype=_SID_ROW, skiprows=skip, ndmin=1, encoding="utf-8",
                      **_SID_FIELDS)


def _sid_rows_read(lines: list[str]) -> bool:
    """Whether numpy's text reader reads every line as an `item_id,layer,token`
    row of int64 numbers, as `load_sids` reads a file."""
    try:
        _read_sid_rows(lines)
    except ValueError:
        return False
    return True


def _first_malformed(lines: list[str]) -> int | None:
    """The index of the first line that `load_sids` rejects as a row, by
    halving the lines that hold it; None if it rejects none."""
    if _sid_rows_read(lines):
        return None
    lo, hi = 0, len(lines)  # lines[lo:hi] holds the first rejected line
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if _sid_rows_read(lines[lo:mid]):
            lo = mid
        else:
            hi = mid
    return lo


def _bad_item(path) -> DataError:
    """The error for the first item, in file order, whose rows follow another
    item's rows or include a malformed row, from a second read of the body."""
    lines = _body_lines(path)
    malformed = _first_malformed(lines)
    seen = set()
    row = 0
    for item, block in itertools.groupby(map(_row_id, lines)):
        if item in seen:
            return DataError(f"{path}: the rows of item {item!r} are not contiguous")
        row += len(list(block))
        if malformed is not None and malformed < row:
            return DataError(f"{path} has a malformed row for item {item!r}")
        seen.add(item)
    raise AssertionError("a row was rejected, but no item is split or malformed")


# --- embeddings -------------------------------------------------------------


def save_embeddings_binary(path, data: EmbeddingCollection):
    """JSON header plus float64 little-endian binary; lossless. On a
    little-endian host the vectors' own buffer is written and hashed."""
    path = Path(path)
    bin_path = path.with_suffix(".bin")
    vectors = data.vectors  # C-contiguous native float64, as the collection holds it
    if vectors.dtype != np.dtype("<f8"):
        vectors = vectors.astype("<f8")
    payload = memoryview(vectors).cast("B")
    atomic_write_bytes(bin_path, payload)
    header = {
        "format_version": FORMAT_VERSION,
        "kind": "embeddings",
        "count": len(data),
        "dim": data.dim,
        "vectors_dtype": "float64-le",
        "vectors_file": bin_path.name,
        "vectors_sha256": sha256_bytes(payload),
        "item_ids": data.ids.tolist(),
    }
    atomic_write_json(path, header)
    return [path, bin_path]


def load_embeddings(path) -> EmbeddingCollection:
    """Load either format; .csv by extension, JSON header otherwise."""
    path = Path(path)
    if path.suffix == ".csv":
        with _utf8_text(path, newline="") as f:
            reader = csv.reader(f)
            header = next(reader, None)
            if not header or header[0] != "item_id":
                raise DataError(f"{path} has unexpected embedding header {header}")
            dim = len(header) - 1
            ids, rows = [], []
            for row in reader:
                if not row:
                    continue
                if len(row) != dim + 1:
                    raise DataError(f"{path} row for {row[0]!r} has {len(row) - 1} values, expected {dim}")
                try:
                    rows.append([float(v) for v in row[1:]])
                except ValueError:
                    raise DataError(f"{path} row for {row[0]!r} has a non-numeric value") from None
                ids.append(row[0])
        if not ids:
            raise DataError(f"{path} holds no embeddings")
        return EmbeddingCollection(ids, np.asarray(rows, dtype=np.float64))
    ids, vectors = _load_binary_embeddings(path, "C")
    vectors.flags.writeable = False  # the collection adopts it
    return EmbeddingCollection(ids, vectors)


def load_residuals(path) -> np.ndarray:
    """The vectors of an embeddings file, checked as `load_embeddings` checks
    them, as the writable column-major array `quantizer.train_rq` takes: a
    binary file is read straight into it, a CSV file loaded, then copied."""
    path = Path(path)
    if path.suffix == ".csv":
        return np.array(load_embeddings(path).vectors, order="F")
    ids, vectors = _load_binary_embeddings(path, "F")
    check_embeddings(ids, vectors)
    return vectors


def _load_binary_embeddings(path: Path, order: str) -> tuple[np.ndarray, np.ndarray]:
    """The item ids of a binary embeddings file, as `item_id_array` makes
    them, and its vectors, as a new array of `order` layout, read and hashed
    a `_VECTOR_READ_BLOCK` of rows at a time. A file of any other size is
    hashed whole, to name its first fault: its digest, then its size."""
    header = _load_header(path, "embeddings", count=int, dim=int, vectors_file=str,
                          vectors_sha256=str, item_ids=list)
    ids = item_id_array(header.pop("item_ids"))  # the list goes before the vectors come
    bin_path = path.parent / header["vectors_file"]
    count, dim, digest = header["count"], header["dim"], header["vectors_sha256"]
    with open(bin_path, "rb") as f:
        if min(count, dim) >= 0 and os.fstat(f.fileno()).st_size == 8 * count * dim:
            vectors = np.empty((count, dim), dtype="<f8", order=order)
            rows = max(1, _VECTOR_READ_BLOCK // (8 * dim or 1))
            block, h = np.empty((min(rows, count), dim), dtype="<f8"), hashlib.sha256()
            for start in range(0, count, rows):
                part = block[: count - start]
                if f.readinto(part.reshape(-1).view(np.uint8)) < part.nbytes:
                    break
                h.update(part)
                vectors[start : start + len(part)] = part
            else:
                if not f.read(1) and h.hexdigest() == digest:
                    return ids, vectors
    if sha256_file(bin_path) != digest:
        raise DataError(f"digest mismatch for {bin_path}")
    size = bin_path.stat().st_size
    raise DataError(f"{bin_path} holds {size} bytes, expected {count}x{dim} float64")


def save_labels(path, ids, labels) -> None:
    """Write item_id,cluster rows, one per item of the str array `ids`, a
    block of rows at a time."""
    labels = np.asarray(labels, dtype=np.int64)
    with atomic_writer(path) as f:
        f.write(b"item_id,cluster\n")
        for start in range(0, len(ids), _WRITE_BLOCK):
            block = slice(start, start + _WRITE_BLOCK)
            rows = zip(ids[block].tolist(), labels[block].tolist())
            f.write("".join([f"{item_id},{label}\n" for item_id, label in rows]).encode())


# --- interactions -----------------------------------------------------------


def save_interactions(path, datasets, catalog) -> None:
    """Write datasets over the rows of `catalog` into one file, by item id,
    a block of items at a time."""
    with atomic_writer(path) as f:
        f.write(b"user_context,target,split\n")
        for ds in datasets:
            # the text after each item: a history item's "|" or ",", a target's ",split\n"
            targets = np.cumsum(ds.sizes) - 1
            seps = np.full(len(ds.items), "|", dtype=object)
            seps[targets - 1] = ","
            seps[targets] = f",{ds.split}\n"
            for start in range(0, len(ds.items), _WRITE_BLOCK):
                block = slice(start, start + _WRITE_BLOCK)
                rows = zip(catalog.item_id[ds.items[block]].tolist(), seps[block].tolist())
                f.write("".join(itertools.chain.from_iterable(rows)).encode())


def load_interactions(path, catalog) -> dict[str, InteractionDataset]:
    """Read interaction records grouped by split tag, as rows of `catalog`."""
    row_of = dict(zip(catalog.item_id.tolist(), range(len(catalog))))
    by_split: dict[str, tuple[list[int], list[int]]] = {}
    with _utf8_text(path, newline="") as f:
        reader = csv.reader(f)
        header = next(reader, None)
        if header != ["user_context", "target", "split"]:
            raise DataError(f"{path} has unexpected interaction header {header}")
        for row in reader:
            if not row:
                continue
            if len(row) != 3:
                raise DataError(f"{path} row {row} has {len(row)} fields, expected 3")
            context, target, split = row
            record = [*(context.split("|") if context else ()), target]
            items, sizes = by_split.setdefault(split, ([], []))
            try:
                items.extend(map(row_of.__getitem__, record))
            except KeyError as e:
                # catalog ids are checked, so only a missing id can break the alphabet
                check_item_ids(item_id_array(record))
                raise DataError(f"{path}: {split} item {e.args[0]!r} not in catalog") from None
            sizes.append(len(record))
    return {split: InteractionDataset(*lists, split) for split, lists in by_split.items()}


# --- reports and manifest ---------------------------------------------------


def save_report(path, kind: str, payload: dict) -> None:
    doc = {"schema_version": FORMAT_VERSION, "kind": kind}
    doc.update(payload)
    atomic_write_json(path, doc)


MANIFEST_NAME = "manifest.json"
_faults_at_begin = 0  # ru_minflt when the running command began


def begin_command() -> None:
    """Mark where a command begins, for its record's `minor_faults`."""
    global _faults_at_begin
    _faults_at_begin = resource.getrusage(resource.RUSAGE_SELF).ru_minflt


def _read_manifest(out_dir: Path) -> dict:
    """The manifest in `out_dir`, or a new one; a foreign or corrupt one is a DataError."""
    manifest_path = out_dir / MANIFEST_NAME
    if not manifest_path.exists():
        return {"format_version": FORMAT_VERSION, "kind": "run_manifest", "runs": []}
    return _load_header(manifest_path, "run_manifest", runs=list)


def record_run(
    out_dir, command: str, config: dict, timings: dict, outputs, kmeans: dict | None = None
) -> Path:
    """Append one run record to the manifest in `out_dir`. `kmeans`, given by
    the commands that run k-means, records how its rounds were split.
    `max_rss_mb` is the process's peak resident set size so far, in MB
    (2^20 bytes): the command's own peak when it runs in a process of its
    own. `minor_faults` counts the minor page faults since `begin_command`."""
    usage = resource.getrusage(resource.RUSAGE_SELF)
    out_dir = Path(out_dir)
    manifest_path = out_dir / MANIFEST_NAME
    manifest = _read_manifest(out_dir)
    from . import __version__

    record = {
        "command": command,
        "tool_version": __version__,
        "config": config,
        "timings_s": {k: round(float(v), 6) for k, v in timings.items()},
        # ru_maxrss counts kilobytes on Linux and bytes on macOS
        "max_rss_mb": round(usage.ru_maxrss / (2**20 if sys.platform == "darwin" else 2**10), 1),
        "minor_faults": usage.ru_minflt - _faults_at_begin,
        "outputs": [
            {
                "path": str(Path(p).relative_to(out_dir)),
                "bytes": Path(p).stat().st_size,
                "sha256": sha256_file(p),
            }
            for p in outputs
        ],
    }
    if kmeans is not None:
        record["kmeans"] = kmeans
    manifest["runs"].append(record)
    atomic_write_json(manifest_path, manifest)
    return manifest_path


class OutputLock:
    """Exclusive lock on an output directory, held for one command.

    Entering it also reads the directory's manifest, so a command refuses a
    foreign or corrupt one before it writes anything.
    """

    def __init__(self, out_dir):
        self.path = Path(out_dir) / ".lock"

    def __enter__(self):
        self.path.parent.mkdir(parents=True, exist_ok=True)
        _read_manifest(self.path.parent)
        try:
            fd = os.open(self.path, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
        except FileExistsError:
            raise ConfigError(
                f"output directory is locked by {self.path}; remove it if stale"
            ) from None
        os.close(fd)
        return self

    def __exit__(self, *exc):
        try:
            os.unlink(self.path)
        except FileNotFoundError:
            pass
        return False
