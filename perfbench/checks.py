"""Output invariants for each stage, checked with the benchmark's own readers.

The readers below parse the on-disk formats directly (JSON headers, raw
little-endian binaries, long-form id CSVs) rather than going through
rqsid.persist, so a defect in the program's loaders cannot hide a defect in
its outputs. Every check returns a list of problems; an empty list passes.
No byte digest is compared: any correct implementation passes.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

import numpy as np

ENCODE_SAMPLE = 512


def read_embeddings(path) -> tuple[list[str], np.ndarray]:
    path = Path(path)
    header = json.loads(path.read_text())
    raw = (path.parent / header["vectors_file"]).read_bytes()
    vectors = np.frombuffer(raw, dtype="<f8").reshape(header["count"], header["dim"])
    return list(header["item_ids"]), vectors


def read_codebook(path) -> tuple[dict, np.ndarray]:
    """Header and the (L, M, d) codewords as float64."""
    path = Path(path)
    header = json.loads(path.read_text())
    shape = (header["num_layers"], header["codebook_size"], header["dim"])
    if "layers" in header:
        layers = np.asarray(header["layers"], dtype=np.float64)
    else:
        raw = (path.parent / header["layers_file"]).read_bytes()
        layers = np.frombuffer(raw, dtype="<f4").astype(np.float64)
    return header, layers.reshape(shape)


def read_sids(path) -> dict[str, list[tuple[int, int]]]:
    """item id -> [(layer, token), ...] in file order."""
    rows: dict[str, list[tuple[int, int]]] = {}
    with open(path, newline="") as f:
        for row in csv.reader(f):
            if not row or row[0].startswith("#") or row == ["item_id", "layer", "token"]:
                continue
            rows.setdefault(row[0], []).append((int(row[1]), int(row[2])))
    return rows


def full_tokens(sids: dict[str, list[tuple[int, int]]], num_layers: int, problems: list):
    """(item ids, (n, L) token array); reports ids that are not full length."""
    expected = list(range(1, num_layers + 1))
    items = list(sids)
    arr = np.zeros((len(items), num_layers), dtype=np.int64)
    bad = []
    for i, item in enumerate(items):
        entries = sids[item]
        if [layer for layer, _ in entries] != expected:
            bad.append(item)
            continue
        arr[i] = [token for _, token in entries]
    if bad:
        problems.append(f"{len(bad)} ids are not full length, first {bad[0]}: {sids[bad[0]]}")
    return items, arr


def check_gen(gen_dir, n: int, d: int) -> list[str]:
    ids, vectors = read_embeddings(Path(gen_dir) / "embeddings.json")
    problems = []
    if vectors.shape != (n, d):
        problems.append(f"embeddings have shape {vectors.shape}, expected {(n, d)}")
    if len(set(ids)) != len(ids) or len(ids) != vectors.shape[0]:
        problems.append("item ids are not unique or do not match the vector count")
    if not np.all(np.isfinite(vectors)):
        problems.append("embeddings hold non-finite values")
    return problems


def check_train(train_dir) -> list[str]:
    header, layers = read_codebook(Path(train_dir) / "codebook.json")
    sse = header["training_sse_per_layer"]
    problems = []
    if len(sse) != layers.shape[0]:
        problems.append(f"{len(sse)} training sse values for {layers.shape[0]} layers")
    if any(b > a for a, b in zip(sse, sse[1:])):
        problems.append(f"training sse increases over layers: {sse}")
    if not np.all(np.isfinite(layers)):
        problems.append("codewords hold non-finite values")
    return problems


def check_encode(gen_dir, train_dir, encode_dir, seed: int,
                 sample: int = ENCODE_SAMPLE) -> list[str]:
    """Tokens of a seeded item sample equal a brute-force float64 residual
    argmin against the saved codebook. A token whose distance ties the
    minimum to within float64 rounding is accepted, since the program's
    distance expansion may order exact near-ties differently."""
    ids, vectors = read_embeddings(Path(gen_dir) / "embeddings.json")
    _, layers = read_codebook(Path(train_dir) / "codebook.json")
    problems: list[str] = []
    items, arr = full_tokens(read_sids(Path(encode_dir) / "sids.csv"), layers.shape[0],
                             problems)
    if items != ids:
        return problems + ["encoded item ids differ from the embedding item ids"]
    pick = np.random.default_rng(seed).choice(len(ids), size=min(sample, len(ids)),
                                              replace=False)
    residual = vectors[pick].copy()
    # An item is reported at its first wrong layer only; later layers of it
    # are computed from a different residual and would repeat the report.
    ok = np.ones(len(pick), dtype=bool)
    for l, codewords in enumerate(layers):
        dist = ((residual[:, None, :] - codewords[None, :, :]) ** 2).sum(axis=2)
        best = dist.min(axis=1)
        tokens = arr[pick, l]
        if tokens.min() < 0 or tokens.max() >= codewords.shape[0]:
            return problems + [f"layer {l + 1} token out of range"]
        chosen = dist[np.arange(len(pick)), tokens]
        wrong = np.flatnonzero(ok & (chosen > best + 1e-9 * (1.0 + best)))
        for i in wrong[:3]:
            problems.append(
                f"item {ids[pick[i]]} layer {l + 1}: token {tokens[i]}, "
                f"nearest is {int(dist[i].argmin())}"
            )
        ok[wrong] = False
        residual -= codewords[tokens]
    return problems


def check_analyze(analyze_dir, n: int) -> list[str]:
    report = json.loads((Path(analyze_dir) / "hourglass_report.json").read_text())
    problems = []
    hists = report["histograms"]
    if len(hists) != len(report["per_layer"]):
        problems.append(f"{len(hists)} histograms for {len(report['per_layer'])} layers")
    for hist, stats in zip(hists, report["per_layer"]):
        counts = np.asarray(hist, dtype=np.float64)
        if counts.sum() != n:
            problems.append(f"layer {stats['layer']} histogram sums to {counts.sum()}, not {n}")
            continue
        p = counts[counts > 0] / n
        entropy = float(-(p * np.log2(p)).sum())
        if not math.isclose(entropy, stats["entropy_bits"], rel_tol=1e-9, abs_tol=1e-9):
            problems.append(
                f"layer {stats['layer']} entropy {stats['entropy_bits']} "
                f"but histogram gives {entropy}"
            )
    return problems


def varlen_recount(encode_arr: np.ndarray, head: set[int]) -> tuple[int, int]:
    """(elided ids, distinct ids) after eliding layer 2 of head-token ids."""
    elided = np.isin(encode_arr[:, 1], sorted(head))
    keys = encode_arr.copy()
    keys[elided, 1] = -1
    return int(elided.sum()), int(np.unique(keys, axis=0).shape[0])


def check_mitigate(encode_dir, mitigate_dir, num_layers: int) -> list[str]:
    """Elided and distinct counts equal a recount from encode's ids and the
    stored head set, and each mitigated id is its encode id with layer 2
    dropped exactly when that token is in the head set."""
    problems: list[str] = []
    items, arr = full_tokens(read_sids(Path(encode_dir) / "sids.csv"), num_layers, problems)
    header, _ = read_codebook(Path(mitigate_dir) / "codebook.json")
    head = set(header.get("head_set", []))
    if not head:
        return problems + ["mitigated codebook stores no head set"]
    report = json.loads((Path(mitigate_dir) / "mitigation_report.json").read_text())
    elided, distinct = varlen_recount(arr, head)
    n = len(items)
    reported_elided = n - round((1.0 - report["post_report"]["elision_rate"]) * n)
    if reported_elided != elided:
        problems.append(f"report implies {reported_elided} elided ids, recount gives {elided}")
    if report["capacity_empirical_distinct"] != distinct:
        problems.append(
            f"report has {report['capacity_empirical_distinct']} distinct ids, "
            f"recount gives {distinct}"
        )
    mitigated = read_sids(Path(mitigate_dir) / "sids.csv")
    if list(mitigated) != items:
        return problems + ["mitigated item ids differ from the encoded item ids"]
    for item, row in zip(items, arr):
        want = [(l + 1, int(t)) for l, t in enumerate(row) if not (l == 1 and t in head)]
        if mitigated[item] != want:
            problems.append(f"item {item}: mitigated id {mitigated[item]}, expected {want}")
            break
    return problems


def check_simulate(sim_dir, test_records: int, trie: str) -> list[str]:
    report = json.loads((Path(sim_dir) / "eval_report.json").read_text())
    problems = []
    counts = report["record_counts"]
    if counts["overall"] != test_records or counts["head"] + counts["tail"] != test_records:
        problems.append(f"record counts {counts} for {test_records} test records")
    ks = sorted(report["recall"], key=int)
    for group in ("overall", "head", "tail"):
        recalls = [report["recall"][k][group] for k in ks]
        if any(b < a for a, b in zip(recalls, recalls[1:])):
            problems.append(f"{group} recall decreases in k: {recalls}")
    if trie == "on" and any(
        v != 0 for per_k in report["invalid_ratio"].values() for v in per_k.values()
    ):
        problems.append(f"trie-on invalid ratio is not zero: {report['invalid_ratio']}")
    return problems
