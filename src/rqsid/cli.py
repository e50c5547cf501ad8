"""Command-line front end: gen, train, encode, analyze, mitigate, simulate, sweep.

Every flag can also be supplied through a JSON config file (flat keys, or a
section named after the command); explicit flags win. Exit codes: 0 success,
2 configuration error, 3 data error.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import logging
import sys
import time
from pathlib import Path

import numpy as np

from . import datagen, persist
from .core import (
    ConfigError,
    DataError,
    QuantizerConfig,
    RandomSource,
    RqsidError,
    sid_table,
    sid_to_flat_tokens,
)
from .diagnostics import (
    Selector,
    head_tail_split,
    hourglass_report,
    small_residual_ratio,
    token_histogram,
)
from .grsim import InteractionSpec, evaluate, gen_interactions, train_seq_model
from .mitigation import exchange_layers, post_mitigation_report, remove_layer, varlen_topk
from .quantizer import encode_all, train_rq

log = logging.getLogger("rqsid")


class _Params:
    """Flag values with config-file fallback."""

    def __init__(self, args: argparse.Namespace, command: str):
        self._args = vars(args)
        cfg = {}
        path = self._args.get("config")
        if path:
            try:
                cfg = json.loads(Path(path).read_text())
            except FileNotFoundError:
                raise ConfigError(f"config file {path} does not exist") from None
            except json.JSONDecodeError as e:
                raise ConfigError(f"config file {path} is not valid JSON: {e}") from None
        self._flat = {k: v for k, v in cfg.items() if not isinstance(v, dict)}
        self._section = cfg.get(command, {})

    def get(self, key: str, default=None):
        value = self._args.get(key)
        if value is not None:
            return value
        if key in self._section:
            return self._section[key]
        if key in self._flat:
            return self._flat[key]
        return default

    def require(self, key: str):
        value = self.get(key)
        if value is None:
            raise ConfigError(f"missing required option --{key.replace('_', '-')}")
        return value

    def snapshot(self, keys) -> dict:
        return {k: self.get(k) for k in keys}


def _selector(params: _Params, default=None):
    top_k = params.get("head_top_k")
    mass = params.get("head_mass")
    if top_k is not None and mass is not None:
        raise ConfigError("give either --head-top-k or --head-mass, not both")
    if top_k is not None:
        return Selector.top_k(int(top_k))
    if mass is not None:
        return Selector.mass(float(mass))
    return default


def _int_list(text) -> list[int]:
    items = text if isinstance(text, (list, tuple)) else [v for v in str(text).split(",") if v]
    try:
        return [int(v) for v in items]
    except (TypeError, ValueError):
        raise ConfigError(f"expected comma-separated integers, got {text!r}") from None


def _load_full_sids(path, config):
    """Load an id file that must hold full-length ids only."""
    table = persist.load_sids(path, config)
    if not table.is_full.all():
        raise DataError(
            f"{path} holds variable-length ids; this command needs full-length ids"
        )
    return table


# --- commands ----------------------------------------------------------------


def cmd_gen(args) -> int:
    p = _Params(args, "gen")
    out = Path(p.require("out"))
    seed = int(p.get("seed", 0))
    kind = p.get("kind", "uniform")
    n = int(p.require("n"))
    d = int(p.require("d"))
    fmt = p.get("format", "binary")
    rng = RandomSource(seed)

    t0 = time.perf_counter()
    outputs = []
    with persist.OutputLock(out):
        if kind == "uniform":
            data = datagen.gen_uniform(n, d, rng)
            labels = None
        elif kind == "clustered":
            spec = datagen.ClusterSpec(
                num_clusters=int(p.get("clusters", 512)),
                radius=float(p.get("radius", 0.05)),
                center_scale=float(p.get("center_scale", 1.0)),
                size_law=p.get("size_law", "zipf"),
                zipf_exponent=float(p.get("zipf_s", 1.2)),
            )
            data, labels = datagen.gen_clustered(n, d, spec, rng)
        else:
            raise ConfigError(f"unknown generator kind {kind!r}")
        if fmt == "csv":
            emb_path = out / "embeddings.csv"
            persist.save_embeddings_csv(emb_path, data)
            outputs.append(emb_path)
        else:
            outputs.extend(persist.save_embeddings_binary(out / "embeddings.json", data))
        if labels is not None:
            labels_path = out / "labels.csv"
            persist.save_labels(labels_path, data.ids, labels)
            outputs.append(labels_path)
        keys = ["kind", "n", "d", "seed", "format", "clusters", "radius",
                "center_scale", "size_law", "zipf_s"]
        persist.record_run(out, "gen", p.snapshot(keys),
                           {"gen": time.perf_counter() - t0}, outputs)
    print(f"wrote {len(outputs)} files to {out}")
    return 0


def cmd_train(args) -> int:
    p = _Params(args, "train")
    out = Path(p.require("out"))
    seed = int(p.get("seed", 0))
    data = persist.load_embeddings(p.require("embeddings"))
    config = QuantizerConfig(
        num_layers=int(p.get("num_layers", 3)),
        codebook_size=int(p.get("codebook_size", 256)),
        dim=data.dim,
        kmeans_iters=int(p.get("kmeans_iters", 25)),
        seed=seed,
        convergence_tol=float(p.get("tol", 1e-4)),
    )
    t0 = time.perf_counter()
    codebook = train_rq(data, config, RandomSource(seed))
    train_s = time.perf_counter() - t0
    with persist.OutputLock(out):
        outputs = persist.save_codebook(out / "codebook.json", codebook)
        keys = ["embeddings", "num_layers", "codebook_size", "kmeans_iters", "tol", "seed"]
        persist.record_run(out, "train", p.snapshot(keys), {"train": train_s}, outputs)
    print(
        f"trained {config.num_layers}x{config.codebook_size} codebook on "
        f"{len(data)} vectors; sse per layer: "
        + ", ".join(f"{s:.4g}" for s in codebook.training_sse_per_layer)
    )
    return 0


def cmd_encode(args) -> int:
    p = _Params(args, "encode")
    out = Path(p.require("out"))
    data = persist.load_embeddings(p.require("embeddings"))
    codebook, _ = persist.load_codebook(p.require("codebook"))
    t0 = time.perf_counter()
    sids, sq_norms = encode_all(data, codebook)
    encode_s = time.perf_counter() - t0
    with persist.OutputLock(out):
        sid_path = out / "sids.csv"
        persist.save_sids(sid_path, sid_table(data.ids, sids, codebook.config))
        report_path = out / "encode_report.json"
        per_layer = [float(m) for m in sq_norms[:, 1:].mean(axis=0)]
        persist.save_report(
            report_path,
            "encode_report",
            {
                "items": len(data),
                "mean_squared_error_per_layer": per_layer,
                "final_mean_squared_error": per_layer[-1],
            },
        )
        persist.record_run(
            out,
            "encode",
            p.snapshot(["embeddings", "codebook"]),
            {"encode": encode_s},
            [sid_path, report_path],
        )
    print(f"encoded {len(data)} vectors; final reconstruction mse {per_layer[-1]:.6g}")
    return 0


def cmd_analyze(args) -> int:
    p = _Params(args, "analyze")
    out = Path(p.require("out"))
    codebook, _ = persist.load_codebook(p.require("codebook"))
    config = codebook.config
    table = _load_full_sids(p.require("sids"), config)
    selector = _selector(p, Selector.mass(0.5))
    t0 = time.perf_counter()
    report = hourglass_report(table.tokens, config, selector, include_histograms=True)
    payload = report.to_dict()
    payload["head_selector"] = selector.describe()
    emb_path = p.get("embeddings")
    if emb_path:
        data = persist.load_embeddings(emb_path)
        _, sq_norms = encode_all(data, codebook)
        payload["small_residual_ratio"] = small_residual_ratio(
            np.sqrt(sq_norms[:, 1]), np.sqrt(sq_norms[:, 0])
        )
    analyze_s = time.perf_counter() - t0
    with persist.OutputLock(out):
        report_path = out / "hourglass_report.json"
        persist.save_report(report_path, "hourglass_report", payload)
        persist.record_run(
            out,
            "analyze",
            p.snapshot(["sids", "codebook", "embeddings", "head_top_k", "head_mass"]),
            {"analyze": analyze_s},
            [report_path],
        )
    print(
        f"analyzed {len(table)} ids: hourglass_flag={report.hourglass_flag}, "
        f"pinch_layer={report.pinch_layer}, path_sparsity={report.path_sparsity:.3g}"
    )
    return 0


def cmd_mitigate(args) -> int:
    p = _Params(args, "mitigate")
    out = Path(p.require("out"))
    mode = p.require("mode")
    codebook, _ = persist.load_codebook(p.require("codebook"))
    config = codebook.config
    table = _load_full_sids(p.require("sids"), config)

    t0 = time.perf_counter()
    payload: dict = {"mode": mode, "items": len(table)}
    head_set = None
    if mode == "exchange":
        swap = _int_list(p.get("swap", "1,2"))
        if len(swap) != 2 or not all(1 <= v <= config.num_layers for v in swap):
            raise ConfigError(f"--swap needs two layers in [1, {config.num_layers}], got {swap}")
        a, b = swap
        transformed = exchange_layers(table, a, b, config)
        payload["swap"] = [a, b]
        payload["report"] = hourglass_report(transformed.tokens, config).to_dict()
    elif mode == "remove":
        outcome = remove_layer(table, config)
        transformed = outcome.transformed_sids
        post = post_mitigation_report(outcome, config)
        payload.update(_outcome_payload(outcome, post))
    elif mode == "varlen":
        selector = _selector(p)
        if selector is None:
            raise ConfigError("varlen mode needs --head-top-k or --head-mass")
        hist = token_histogram(table.tokens, 2, config.codebook_size)
        outcome = varlen_topk(table, hist, selector, config)
        transformed = outcome.transformed_sids
        post = post_mitigation_report(outcome, config)
        head_set = outcome.head_set
        payload["head_selector"] = selector.describe()
        payload.update(_outcome_payload(outcome, post))
    else:
        raise ConfigError(f"unknown mitigation mode {mode!r}")
    mitigate_s = time.perf_counter() - t0

    with persist.OutputLock(out):
        outputs = []
        sid_path = out / "sids.csv"
        persist.save_sids(sid_path, transformed)
        outputs.append(sid_path)
        report_path = out / "mitigation_report.json"
        persist.save_report(report_path, "mitigation_report", payload)
        outputs.append(report_path)
        if head_set is not None:
            # Persist the head set with the codebook so later stages agree.
            outputs.extend(
                persist.save_codebook(out / "codebook.json", codebook, head_set=head_set)
            )
        keys = ["sids", "codebook", "mode", "swap", "head_top_k", "head_mass"]
        persist.record_run(out, "mitigate", p.snapshot(keys), {"mitigate": mitigate_s}, outputs)
    print(f"applied {mode} to {len(table)} ids; wrote {out / 'sids.csv'}")
    return 0


def _outcome_payload(outcome, post) -> dict:
    return {
        "head_set_size": len(outcome.head_set),
        "capacity_paper_formula": outcome.capacity_paper_formula,
        "capacity_empirical_distinct": outcome.capacity_empirical_distinct,
        "collision_groups": len(outcome.collisions),
        "collided_items": sum(len(v) for v in outcome.collisions.values()),
        "post_report": post.to_dict(),
    }


def cmd_simulate(args) -> int:
    p = _Params(args, "simulate")
    out = Path(p.require("out"))
    seed = int(p.get("seed", 0))
    k_list = _int_list(p.get("k_list", "1,5,10,50"))
    codebook, stored_head = persist.load_codebook(p.require("codebook"))
    config = codebook.config
    selector = _selector(p)
    if stored_head is not None and selector is not None:
        raise ConfigError(
            "--head-top-k/--head-mass select a head set, but the codebook already stores one"
        )
    catalog = persist.load_sids(p.require("sids"), config)

    interactions_path = p.get("interactions")
    generated = None
    if interactions_path:
        splits = persist.load_interactions(interactions_path)
        if "train" not in splits or "test" not in splits:
            raise DataError(f"{interactions_path} must hold 'train' and 'test' splits")
        train_ds, test_ds = splits["train"], splits["test"]
    else:
        spec = InteractionSpec(
            num_records=int(p.get("records", 2000)),
            min_history=int(p.get("history_min", 2)),
            max_history=int(p.get("history_max", 5)),
            pop_exponent=float(p.get("pop_s", 1.0)),
            repeat_prob=float(p.get("repeat_prob", 0.6)),
        )
        test_spec = InteractionSpec(
            num_records=int(p.get("test_records", max(200, spec.num_records // 5))),
            min_history=spec.min_history,
            max_history=spec.max_history,
            pop_exponent=spec.pop_exponent,
            repeat_prob=spec.repeat_prob,
        )
        train_rng, test_rng = RandomSource(seed).split(2)
        item_ids = catalog.item_id.tolist()
        train_ds = gen_interactions(item_ids, spec, train_rng, split="train")
        test_ds = gen_interactions(item_ids, test_spec, test_rng, split="test")
        generated = [train_ds, test_ds]

    if stored_head is not None:
        head_set = stored_head
    else:
        if not catalog.is_full.all():
            raise DataError(
                "catalog has variable-length ids but the codebook stores no head set"
            )
        hist = token_histogram(catalog.tokens, 2, config.codebook_size)
        head_set, _ = head_tail_split(hist, selector or Selector.mass(0.5))

    flat = dict(zip(catalog.item_id.tolist(), sid_to_flat_tokens(catalog, config)))
    t0 = time.perf_counter()
    model = train_seq_model(train_ds, flat, int(p.get("order", 3)), float(p.get("alpha", 0.1)))
    train_s = time.perf_counter() - t0
    t0 = time.perf_counter()
    report = evaluate(
        model,
        test_ds,
        flat,
        config,
        head_set,
        beam_width=int(p.get("beam", 50)),
        k_list=k_list,
        trie_mode=p.get("trie", "off"),
        given_prefix_layers=int(p.get("given_layers", 0)),
    )
    eval_s = time.perf_counter() - t0

    with persist.OutputLock(out):
        outputs = []
        if generated is not None:
            inter_path = out / "interactions.csv"
            persist.save_interactions(inter_path, generated)
            outputs.append(inter_path)
        report_path = out / "eval_report.json"
        persist.save_report(report_path, "eval_report", report.to_dict())
        outputs.append(report_path)
        keys = ["sids", "codebook", "interactions", "records", "test_records", "order",
                "alpha", "beam", "k_list", "trie", "given_layers", "seed"]
        persist.record_run(
            out, "simulate", p.snapshot(keys),
            {"train_model": train_s, "evaluate": eval_s}, outputs,
        )
    ks = ", ".join(f"r@{k}={report.recall[k]['overall']:.3f}" for k in report.k_list)
    print(f"evaluated {len(test_ds)} records ({report.record_counts['head']} head): {ks}")
    return 0


def cmd_sweep(args) -> int:
    p = _Params(args, "sweep")
    out = Path(p.require("out"))
    seed = int(p.get("seed", 0))
    layer_set = _int_list(p.get("num_layers_set", "3,4"))
    size_set = _int_list(p.get("codebook_size_set", "64,256"))
    regimes = [r.strip() for r in str(p.get("regimes", "uniform,zipf")).split(",") if r.strip()]
    n = int(p.get("n", 20000))
    d = int(p.get("d", 32))
    if not layer_set or not size_set or not regimes:
        raise ConfigError("sweep grid must not be empty")

    max_l = max(layer_set)
    fields = ["num_layers", "codebook_size", "regime", "seed", "hourglass_flag",
              "pinch_layer", "path_sparsity"]
    for stat in ("entropy", "gini", "stddev"):
        fields += [f"{stat}_l{l}" for l in range(1, max_l + 1)]
    fields.append("error")

    t0 = time.perf_counter()
    rows = []
    for L in layer_set:
        for M in size_set:
            for regime in regimes:
                cell_seed = seed + 7919 * L + 104729 * M
                row = {"num_layers": L, "codebook_size": M, "regime": regime,
                       "seed": cell_seed, "error": ""}
                try:
                    row.update(_sweep_cell(n, d, L, M, regime, cell_seed, p))
                except RqsidError as e:  # record the failure, keep sweeping
                    row["error"] = f"{type(e).__name__}: {e}"
                rows.append(row)
    sweep_s = time.perf_counter() - t0

    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=fields, restval="", lineterminator="\n")
    writer.writeheader()
    for row in rows:
        writer.writerow(row)
    with persist.OutputLock(out):
        sweep_path = out / "sweep.csv"
        persist.atomic_write_text(sweep_path, buf.getvalue())
        keys = ["num_layers_set", "codebook_size_set", "regimes", "n", "d", "seed"]
        persist.record_run(out, "sweep", p.snapshot(keys), {"sweep": sweep_s}, [sweep_path])
    failed = sum(1 for r in rows if r["error"])
    print(f"swept {len(rows)} cells ({failed} failed) -> {out / 'sweep.csv'}")
    return 0


def _sweep_cell(n, d, L, M, regime, cell_seed, p) -> dict:
    if M**L > 100 * n:
        log.warning(
            "cell L=%d M=%d: path space %d vastly exceeds n=%d; sparsity will be tiny",
            L, M, M**L, n,
        )
    rng = RandomSource(cell_seed)
    if regime == "uniform":
        data = datagen.gen_uniform(n, d, rng)
    elif regime == "zipf":
        spec = datagen.ClusterSpec(
            num_clusters=int(p.get("clusters", 512)),
            radius=float(p.get("radius", 0.05)),
            center_scale=float(p.get("center_scale", 1.0)),
            size_law="zipf",
            zipf_exponent=float(p.get("zipf_s", 1.2)),
        )
        data, _ = datagen.gen_clustered(n, d, spec, rng)
    else:
        raise ConfigError(f"unknown regime {regime!r}")
    config = QuantizerConfig(
        num_layers=L, codebook_size=M, dim=d,
        kmeans_iters=int(p.get("kmeans_iters", 25)),
        seed=cell_seed, convergence_tol=float(p.get("tol", 1e-4)),
    )
    codebook = train_rq(data, config, rng.child(1000))
    sids, _ = encode_all(data, codebook)
    report = hourglass_report(sids, config)
    row = {
        "hourglass_flag": report.hourglass_flag,
        "pinch_layer": "" if report.pinch_layer is None else report.pinch_layer,
        "path_sparsity": report.path_sparsity,
    }
    for l, stats in enumerate(report.per_layer, start=1):
        row[f"entropy_l{l}"] = stats.entropy_bits
        row[f"gini_l{l}"] = stats.gini
        row[f"stddev_l{l}"] = stats.stddev
    return row


# --- parser ------------------------------------------------------------------


def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--config", help="JSON config file; flags win on conflict")
    sub.add_argument("--seed", type=int, help="64-bit unsigned seed (default 0)")
    sub.add_argument("--out", help="output directory")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rqsid",
        description="Residual-quantization semantic ids: train, diagnose, mitigate, simulate.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen", help="generate synthetic embeddings")
    g.add_argument("--kind", choices=["uniform", "clustered"])
    g.add_argument("--n", type=int, help="number of points")
    g.add_argument("--d", type=int, help="dimensionality")
    g.add_argument("--clusters", type=int, help="cluster count (clustered)")
    g.add_argument("--radius", type=float, help="within-cluster std (clustered)")
    g.add_argument("--center-scale", dest="center_scale", type=float)
    g.add_argument("--size-law", dest="size_law", choices=["uniform", "zipf"])
    g.add_argument("--zipf-s", dest="zipf_s", type=float, help="zipf exponent")
    g.add_argument("--format", choices=["binary", "csv"])
    _add_common(g)
    g.set_defaults(func=cmd_gen)

    t = sub.add_parser("train", help="train a residual-quantization codebook")
    t.add_argument("--embeddings", help="embeddings file (.csv or .json)")
    t.add_argument("--num-layers", dest="num_layers", type=int)
    t.add_argument("--codebook-size", dest="codebook_size", type=int)
    t.add_argument("--kmeans-iters", dest="kmeans_iters", type=int)
    t.add_argument("--tol", type=float, help="relative SSE stop tolerance")
    _add_common(t)
    t.set_defaults(func=cmd_train)

    e = sub.add_parser("encode", help="assign semantic ids to embeddings")
    e.add_argument("--embeddings")
    e.add_argument("--codebook")
    _add_common(e)
    e.set_defaults(func=cmd_encode)

    a = sub.add_parser("analyze", help="hourglass diagnostics over an id file")
    a.add_argument("--sids")
    a.add_argument("--codebook")
    a.add_argument("--embeddings", help="optional, enables the residual-magnitude ratio")
    a.add_argument("--head-top-k", dest="head_top_k", type=int)
    a.add_argument("--head-mass", dest="head_mass", type=float)
    _add_common(a)
    a.set_defaults(func=cmd_analyze)

    m = sub.add_parser("mitigate", help="transform ids: exchange, remove, varlen")
    m.add_argument("--sids")
    m.add_argument("--codebook")
    m.add_argument("--mode", choices=["exchange", "remove", "varlen"])
    m.add_argument("--swap", help="layer pair for exchange, e.g. 1,2")
    m.add_argument("--head-top-k", dest="head_top_k", type=int)
    m.add_argument("--head-mass", dest="head_mass", type=float)
    _add_common(m)
    m.set_defaults(func=cmd_mitigate)

    s = sub.add_parser("simulate", help="generative-retrieval simulation")
    s.add_argument("--sids", help="catalog id file")
    s.add_argument("--codebook")
    s.add_argument("--interactions", help="existing interaction CSV with train/test splits")
    s.add_argument("--records", type=int, help="synthesized training records")
    s.add_argument("--test-records", dest="test_records", type=int)
    s.add_argument("--history-min", dest="history_min", type=int)
    s.add_argument("--history-max", dest="history_max", type=int)
    s.add_argument("--pop-s", dest="pop_s", type=float, help="item popularity exponent")
    s.add_argument("--repeat-prob", dest="repeat_prob", type=float)
    s.add_argument("--order", type=int, help="model context length in flat tokens")
    s.add_argument("--alpha", type=float, help="Laplace smoothing")
    s.add_argument("--beam", type=int, help="beam width")
    s.add_argument("--k-list", dest="k_list", help="comma-separated recall cutoffs")
    s.add_argument("--trie", choices=["on", "off"], help="constrain decoding to the catalog")
    s.add_argument("--given-layers", dest="given_layers", type=int,
                   help="condition on this many gold prefix tokens")
    s.add_argument("--head-top-k", dest="head_top_k", type=int,
                   help="head set for the head/tail split: the K most frequent layer-2 "
                        "tokens; only for a codebook that stores no head set")
    s.add_argument("--head-mass", dest="head_mass", type=float,
                   help="head set for the head/tail split: the fewest layer-2 tokens "
                        "covering this share of ids (default 0.5); only for a codebook "
                        "that stores no head set")
    _add_common(s)
    s.set_defaults(func=cmd_simulate)

    w = sub.add_parser("sweep", help="hourglass statistics over a parameter grid")
    w.add_argument("--num-layers-set", dest="num_layers_set", help="e.g. 3,4")
    w.add_argument("--codebook-size-set", dest="codebook_size_set", help="e.g. 64,256")
    w.add_argument("--regimes", help="comma-separated subset of uniform,zipf")
    w.add_argument("--n", type=int)
    w.add_argument("--d", type=int)
    w.add_argument("--clusters", type=int)
    w.add_argument("--radius", type=float)
    w.add_argument("--center-scale", dest="center_scale", type=float)
    w.add_argument("--zipf-s", dest="zipf_s", type=float)
    w.add_argument("--kmeans-iters", dest="kmeans_iters", type=int)
    w.add_argument("--tol", type=float)
    _add_common(w)
    w.set_defaults(func=cmd_sweep)

    return parser


def main(argv=None) -> int:
    logging.basicConfig(level=logging.WARNING, format="%(levelname)s %(name)s: %(message)s")
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:  # argparse exits 2 on bad flags, 0 on --help
        return int(e.code or 0)
    try:
        return args.func(args)
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return 2
    except (RqsidError, OSError) as e:
        print(f"data error: {e}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    raise SystemExit(main())
