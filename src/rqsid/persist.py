"""File formats and run bookkeeping.

Formats:
  codebook  JSON header plus a sibling binary of row-major little-endian
            float32 codewords (embedded in the JSON for tiny codebooks).
  ids       long-form CSV item_id,layer,token with 0-based tokens.
  embeddings CSV item_id,v0..v{D-1}, or JSON header plus float64 binary.
  interactions CSV user_context,target,split with pipe-separated context.
  reports   one JSON document with a schema_version field.

All writes go through a temp file and an atomic rename; every emitted file
is digested into the run manifest.
"""

from __future__ import annotations

import csv
import hashlib
import io
import itertools
import json
import os
import tempfile
from operator import itemgetter
from pathlib import Path

import numpy as np

from .core import (
    Codebook,
    ConfigError,
    DataError,
    EmbeddingCollection,
    MalformedSequenceError,
    QuantizerConfig,
    sid_table,
)
from .grsim import Interaction, InteractionDataset

FORMAT_VERSION = 1
# Codebooks at or below this many floats are embedded directly in the JSON.
INLINE_CODEBOOK_LIMIT = 4096


def sha256_bytes(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def sha256_file(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for block in iter(lambda: f.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def atomic_write_bytes(path, data: bytes) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.")
    try:
        with os.fdopen(fd, "wb") as f:
            f.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def atomic_write_text(path, text: str) -> None:
    atomic_write_bytes(path, text.encode("utf-8"))


def dump_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


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
        header["layers"] = [
            [[float(v) for v in row] for row in layer] for layer in weights
        ]
    else:
        bin_path = path.with_suffix(".bin")
        payload = weights.tobytes(order="C")
        atomic_write_bytes(bin_path, payload)
        header["layers_file"] = bin_path.name
        header["layers_dtype"] = "float32-le"
        header["layers_sha256"] = sha256_bytes(payload)
        written.append(bin_path)
    atomic_write_text(path, dump_json(header))
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
    cfg = QuantizerConfig(
        num_layers=header["num_layers"],
        codebook_size=header["codebook_size"],
        dim=header["dim"],
        kmeans_iters=header["kmeans_iters"],
        seed=header["seed"],
        convergence_tol=header["convergence_tol"],
    )
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


def save_sids(path, table) -> None:
    """Write an id table in long form; an elided layer 2 has no row."""
    buf = io.StringIO()
    buf.write(_SID_COMMENT + "\n")
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["item_id", "layer", "token"])
    layers = range(1, table.tokens.shape[1] + 1)
    writer.writerows(
        (item_id, layer, token)
        for item_id, row, full in zip(
            table.item_id.tolist(), table.tokens.tolist(), table.is_full.tolist()
        )
        for layer, token in zip(layers, row)
        if full or layer != 2
    )
    atomic_write_text(path, buf.getvalue())


def load_sids(path, config: QuantizerConfig) -> np.recarray:
    """Read an id file into an id table (see `core.sid_table`).

    The rows of one item must be contiguous and list layers 1..L in order,
    with only layer 2 allowed to be missing. An item whose rows are split by
    another item's rows is a DataError.
    """
    L = config.num_layers
    is_full_of_layers = {tuple(range(1, L + 1)): True}
    if L >= 3:
        is_full_of_layers[(1, *range(3, L + 1))] = False
    item_ids: list[str] = []
    tokens: list[int] = []
    is_full: list[bool] = []
    seen: set[str] = set()
    # raised once the whole file is read, so that a split item, which can
    # look like a malformed one, is reported as split
    malformed: list[MalformedSequenceError] = []
    with open(path, newline="") as f:
        rows = (row for row in csv.reader(f) if row and not row[0].startswith("#"))
        header = next(rows, None)
        if header != ["item_id", "layer", "token"]:
            raise DataError(f"{path} has unexpected id header {header}")
        for item_id, block in itertools.groupby(rows, key=itemgetter(0)):
            if item_id in seen:
                raise DataError(f"{path}: the rows of item {item_id!r} are not contiguous")
            seen.add(item_id)
            try:
                layers, toks = zip(*((int(layer), int(token)) for _, layer, token in block))
            except ValueError:  # also a row without exactly three fields
                raise DataError(f"{path} has a malformed row for item {item_id!r}") from None
            full = is_full_of_layers.get(layers)
            if full is None:
                malformed.append(MalformedSequenceError(
                    f"item {item_id!r} has layers {list(layers)}; expected 1..{L} in "
                    "order, with only layer 2 allowed to be missing"
                ))
                continue
            item_ids.append(item_id)
            is_full.append(full)
            tokens.extend(toks if full else (toks[0], -1, *toks[1:]))
    if malformed:
        raise malformed[0]
    if not item_ids:
        raise DataError(f"{path} holds no ids")
    return sid_table(item_ids, np.reshape(tokens, (-1, L)), config, is_full)


# --- embeddings -------------------------------------------------------------


def save_embeddings_csv(path, data: EmbeddingCollection) -> None:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["item_id"] + [f"v{i}" for i in range(data.dim)])
    for item_id, vec in zip(data.ids, data.vectors):
        writer.writerow([item_id] + [repr(float(v)) for v in vec])
    atomic_write_text(path, buf.getvalue())


def save_embeddings_binary(path, data: EmbeddingCollection):
    """JSON header plus float64 little-endian binary; lossless."""
    path = Path(path)
    bin_path = path.with_suffix(".bin")
    payload = data.vectors.astype("<f8").tobytes(order="C")
    atomic_write_bytes(bin_path, payload)
    header = {
        "format_version": FORMAT_VERSION,
        "kind": "embeddings",
        "count": len(data),
        "dim": data.dim,
        "vectors_dtype": "float64-le",
        "vectors_file": bin_path.name,
        "vectors_sha256": sha256_bytes(payload),
        "item_ids": list(data.ids),
    }
    atomic_write_text(path, dump_json(header))
    return [path, bin_path]


def load_embeddings(path) -> EmbeddingCollection:
    """Load either format; .csv by extension, JSON header otherwise."""
    path = Path(path)
    if path.suffix == ".csv":
        with open(path, newline="") as f:
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
        return EmbeddingCollection(tuple(ids), np.asarray(rows, dtype=np.float64))
    header = _load_header(path, "embeddings", count=int, dim=int, vectors_file=str,
                          vectors_sha256=str, item_ids=list)
    bin_path = path.parent / header["vectors_file"]
    payload = bin_path.read_bytes()
    if sha256_bytes(payload) != header["vectors_sha256"]:
        raise DataError(f"digest mismatch for {bin_path}")
    shape = (header["count"], header["dim"])
    if len(payload) != 8 * shape[0] * shape[1]:
        raise DataError(f"{bin_path} holds {len(payload)} bytes, expected {shape[0]}x{shape[1]} float64")
    vectors = np.frombuffer(payload, dtype="<f8").reshape(shape)
    return EmbeddingCollection(tuple(header["item_ids"]), vectors)


def save_labels(path, ids, labels) -> None:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["item_id", "cluster"])
    for item_id, label in zip(ids, labels):
        writer.writerow([item_id, int(label)])
    atomic_write_text(path, buf.getvalue())


# --- interactions -----------------------------------------------------------


def save_interactions(path, datasets) -> None:
    """Write datasets into one file; each row carries its split tag."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["user_context", "target", "split"])
    for ds in datasets:
        for rec in ds.records:
            writer.writerow(["|".join(rec.history), rec.target, ds.split])
    atomic_write_text(path, buf.getvalue())


def load_interactions(path) -> dict[str, InteractionDataset]:
    """Read interaction records grouped by split tag."""
    by_split: dict[str, list[Interaction]] = {}
    with open(path, newline="") as f:
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
            history = tuple(t for t in context.split("|") if t)
            by_split.setdefault(split, []).append(Interaction(history, target))
    return {
        split: InteractionDataset(tuple(records), split=split)
        for split, records in by_split.items()
    }


# --- reports and manifest ---------------------------------------------------


def save_report(path, kind: str, payload: dict) -> None:
    doc = {"schema_version": FORMAT_VERSION, "kind": kind}
    doc.update(payload)
    atomic_write_text(path, dump_json(doc))


MANIFEST_NAME = "manifest.json"


def record_run(out_dir, command: str, config: dict, timings: dict, outputs) -> Path:
    """Append one run record to the manifest in `out_dir`."""
    out_dir = Path(out_dir)
    manifest_path = out_dir / MANIFEST_NAME
    manifest = {"format_version": FORMAT_VERSION, "kind": "run_manifest", "runs": []}
    if manifest_path.exists():
        manifest = _load_header(manifest_path, "run_manifest", runs=list)
    from . import __version__

    manifest["runs"].append(
        {
            "command": command,
            "tool_version": __version__,
            "config": config,
            "timings_s": {k: round(float(v), 6) for k, v in timings.items()},
            "outputs": [
                {
                    "path": str(Path(p).relative_to(out_dir)),
                    "bytes": Path(p).stat().st_size,
                    "sha256": sha256_file(p),
                }
                for p in outputs
            ],
        }
    )
    atomic_write_text(manifest_path, dump_json(manifest))
    return manifest_path


class OutputLock:
    """Exclusive lock on an output directory, held for one command."""

    def __init__(self, out_dir):
        self.path = Path(out_dir) / ".lock"

    def __enter__(self):
        self.path.parent.mkdir(parents=True, exist_ok=True)
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
