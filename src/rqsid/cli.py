"""Command-line front end: gen, train, encode, analyze, mitigate, simulate, sweep.

Each option is declared once, in `build_parser`, with its type, choices and
default. A JSON config file (flat keys, or a section named after the command)
is read as flags placed before the explicit ones, so the same parser checks
its values and explicit flags win. Each run's manifest records every option's
value. Exit codes: 0 success, 2 configuration error, 3 data error.
"""

from __future__ import annotations

import argparse
import csv
import ctypes
import dataclasses
import io
import json
import logging
import sys
import time
from pathlib import Path

import numpy as np

from . import datagen, persist
from .core import (
    Codebook,
    ConfigError,
    DataError,
    QuantizerConfig,
    RandomSource,
    RqsidError,
    sid_table,
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
from .quantizer import encode_all, train_rq, worker_info

log = logging.getLogger("rqsid")

# glibc's M_MMAP_THRESHOLD (-3) and M_TRIM_THRESHOLD (-1), pinned: a freed
# block of 4 MiB or more (a 100k x 32 matrix) goes back to the OS, not to a
# heap that later stages keep, and the heap top is trimmed only past 16 MiB
# free, so the buffers each Lloyd round remakes are not faulted in anew.
_MALLOPT = ((-3, 4 << 20), (-1, 16 << 20))


def _selector(args, default=None):
    if args.head_top_k is not None and args.head_mass is not None:
        raise ConfigError("give either --head-top-k or --head-mass, not both")
    if args.head_top_k is not None:
        return Selector.top_k(args.head_top_k)
    if args.head_mass is not None:
        return Selector.mass(args.head_mass)
    return default


def _int_list(text: str) -> list[int]:
    try:
        return [int(v) for v in text.split(",") if v]
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated integers, got {text!r}"
        ) from None


_REGIMES = ("uniform", "zipf")


def _regime_list(text: str) -> list[str]:
    names = [v.strip() for v in text.split(",") if v.strip()]
    unknown = [v for v in names if v not in _REGIMES]
    if unknown:
        raise argparse.ArgumentTypeError(
            f"unknown regimes {unknown}, expected a subset of {','.join(_REGIMES)}"
        )
    return names


def _options(args) -> dict:
    """Every option's value as parsed, config-file values included."""
    return {k: v for k, v in vars(args).items() if k not in ("command", "config", "func")}


def _cluster_spec(args, size_law: str) -> datagen.ClusterSpec:
    return datagen.ClusterSpec(
        num_clusters=args.clusters,
        radius=args.radius,
        center_scale=args.center_scale,
        size_law=size_law,
        zipf_exponent=args.zipf_s,
    )


def _quantizer_config(args, num_layers, codebook_size, dim, seed) -> QuantizerConfig:
    return QuantizerConfig(
        num_layers=num_layers,
        codebook_size=codebook_size,
        dim=dim,
        kmeans_iters=args.kmeans_iters,
        seed=seed,
        convergence_tol=args.tol,
    )


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
    out = Path(args.out)
    rng = RandomSource(args.seed)
    # checked before the output directory is made
    spec = None if args.kind == "uniform" else _cluster_spec(args, args.size_law)

    t0 = time.perf_counter()
    outputs = []
    with persist.OutputLock(out):
        if spec is None:
            data = datagen.gen_uniform(args.n, args.d, rng)
            labels = None
        else:
            data, labels = datagen.gen_clustered(args.n, args.d, spec, rng)
        outputs.extend(persist.save_embeddings_binary(out / "embeddings.json", data))
        if labels is not None:
            labels_path = out / "labels.csv"
            persist.save_labels(labels_path, data.ids, labels)
            outputs.append(labels_path)
        persist.record_run(out, "gen", _options(args), {"gen": time.perf_counter() - t0}, outputs)
    print(f"wrote {len(outputs)} files to {out}")
    return 0


def cmd_train(args) -> int:
    out = Path(args.out)
    residuals = persist.load_residuals(args.embeddings)  # the one copy of the vectors
    n, dim = residuals.shape
    config = _quantizer_config(args, args.num_layers, args.codebook_size, dim, args.seed)
    t0 = time.perf_counter()
    codebook = train_rq(residuals, config, RandomSource(args.seed))
    train_s = time.perf_counter() - t0
    with persist.OutputLock(out):
        outputs = persist.save_codebook(out / "codebook.json", codebook)
        persist.record_run(
            out, "train", _options(args), {"train": train_s}, outputs, worker_info()
        )
    print(
        f"trained {config.num_layers}x{config.codebook_size} codebook on "
        f"{n} vectors; sse per layer: "
        + ", ".join(f"{s:.4g}" for s in codebook.training_sse_per_layer)
    )
    return 0


def cmd_encode(args) -> int:
    out = Path(args.out)
    data = persist.load_embeddings(args.embeddings)
    codebook, _ = persist.load_codebook(args.codebook)
    t0 = time.perf_counter()
    sids, sq_norms = encode_all(data.vectors, codebook)
    encode_s = time.perf_counter() - t0
    per_layer = [float(m) for m in sq_norms[:, 1:].mean(axis=0)]
    ids = data.ids
    del data, sq_norms  # the vectors go before the id table is built
    with persist.OutputLock(out):
        sid_path = out / "sids.csv"
        persist.save_sids(sid_path, sid_table(ids, sids, codebook.config))
        report_path = out / "encode_report.json"
        persist.save_report(
            report_path,
            "encode_report",
            {
                "items": len(ids),
                "mean_squared_error_per_layer": per_layer,
                "final_mean_squared_error": per_layer[-1],
            },
        )
        persist.record_run(
            out, "encode", _options(args), {"encode": encode_s}, [sid_path, report_path],
            worker_info(),
        )
    print(f"encoded {len(ids)} vectors; final reconstruction mse {per_layer[-1]:.6g}")
    return 0


def cmd_analyze(args) -> int:
    out = Path(args.out)
    codebook, _ = persist.load_codebook(args.codebook)
    config = codebook.config
    table = _load_full_sids(args.sids, config)
    selector = _selector(args, Selector.mass(0.5))
    t0 = time.perf_counter()
    report = hourglass_report(table.tokens, config, selector, include_histograms=True)
    items = len(table)
    del table  # the id table goes before the embeddings load
    payload = report.to_dict()
    payload["head_selector"] = selector.describe()
    if args.embeddings:
        vectors = persist.load_residuals(args.embeddings)  # not the ids
        # the ratio reads only the raw and layer-1 residual norms
        layer1 = Codebook(
            dataclasses.replace(config, num_layers=1),
            codebook.layers[:1],
            codebook.training_sse_per_layer[:1],
        )
        _, sq_norms = encode_all(vectors, layer1)
        payload["small_residual_ratio"] = small_residual_ratio(
            np.sqrt(sq_norms[:, 1]), np.sqrt(sq_norms[:, 0])
        )
    analyze_s = time.perf_counter() - t0
    with persist.OutputLock(out):
        report_path = out / "hourglass_report.json"
        persist.save_report(report_path, "hourglass_report", payload)
        persist.record_run(
            out, "analyze", _options(args), {"analyze": analyze_s}, [report_path],
            worker_info(),
        )
    print(
        f"analyzed {items} ids: hourglass_flag={report.hourglass_flag}, "
        f"pinch_layer={report.pinch_layer}, path_sparsity={report.path_sparsity:.3g}"
    )
    return 0


def cmd_mitigate(args) -> int:
    out = Path(args.out)
    mode = args.mode
    selector = _selector(args)
    if mode == "varlen" and selector is None:
        raise ConfigError("varlen mode needs --head-top-k or --head-mass")
    if mode != "varlen" and selector is not None:
        raise ConfigError(f"--head-top-k/--head-mass apply to --mode varlen, not {mode}")
    if mode != "exchange" and args.swap is not None:
        raise ConfigError(f"--swap applies to --mode exchange, not {mode}")
    if mode == "exchange" and args.swap is None:
        args.swap = [1, 2]  # so the manifest records the pair used
    codebook, _ = persist.load_codebook(args.codebook)
    config = codebook.config
    table = _load_full_sids(args.sids, config)

    t0 = time.perf_counter()
    payload: dict = {"mode": mode, "items": len(table)}
    outcome = None
    if mode == "exchange":
        swap = args.swap
        if len(swap) != 2 or not all(1 <= v <= config.num_layers for v in swap):
            raise ConfigError(f"--swap needs two layers in [1, {config.num_layers}], got {swap}")
        a, b = swap
        transformed = exchange_layers(table, a, b, config)
        payload["swap"] = [a, b]
        payload["report"] = hourglass_report(transformed.tokens, config).to_dict()
    elif mode == "remove":
        outcome = remove_layer(table, config)
    else:
        hist = token_histogram(table.tokens, 2, config.codebook_size)
        outcome = varlen_topk(table, hist, selector, config)
        payload["head_selector"] = selector.describe()
    if outcome is not None:
        transformed = outcome.transformed_sids
        payload.update(_outcome_payload(outcome, post_mitigation_report(outcome, config)))
    mitigate_s = time.perf_counter() - t0

    with persist.OutputLock(out):
        outputs = []
        sid_path = out / "sids.csv"
        persist.save_sids(sid_path, transformed)
        outputs.append(sid_path)
        report_path = out / "mitigation_report.json"
        persist.save_report(report_path, "mitigation_report", payload)
        outputs.append(report_path)
        if outcome is not None:
            # Persist the head set with the codebook so later stages agree
            # on which ids are elided; after remove it holds all M tokens.
            outputs.extend(
                persist.save_codebook(out / "codebook.json", codebook, head_set=outcome.head_set)
            )
        persist.record_run(out, "mitigate", _options(args), {"mitigate": mitigate_s}, outputs)
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
    out = Path(args.out)
    if args.test_records is None:
        args.test_records = max(200, args.records // 5)
    codebook, stored_head = persist.load_codebook(args.codebook)
    config = codebook.config
    selector = _selector(args)
    if stored_head is not None and selector is not None:
        raise ConfigError(
            "--head-top-k/--head-mass select a head set, but the codebook already stores one"
        )
    catalog = persist.load_sids(args.sids, config)

    generated, timings = None, {}
    if args.interactions:
        splits = persist.load_interactions(args.interactions, catalog)
        if "train" not in splits or "test" not in splits:
            raise DataError(f"{args.interactions} must hold 'train' and 'test' splits")
        train_ds, test_ds = splits["train"], splits["test"]
    else:
        spec, test_spec = (
            InteractionSpec(
                num_records=records,
                min_history=args.history_min,
                max_history=args.history_max,
                pop_exponent=args.pop_s,
                repeat_prob=args.repeat_prob,
            )
            for records in (args.records, args.test_records)
        )
        train_rng, test_rng = RandomSource(args.seed).split(2)
        t0 = time.perf_counter()
        train_ds = gen_interactions(len(catalog), spec, train_rng, split="train")
        test_ds = gen_interactions(len(catalog), test_spec, test_rng, split="test")
        timings["gen_interactions"] = time.perf_counter() - t0
        generated = [train_ds, test_ds]

    if stored_head is not None:
        head_set = stored_head
    else:
        if not catalog.is_full.all():
            raise DataError(
                "catalog has variable-length ids but the codebook stores no head set"
            )
        hist = token_histogram(catalog.tokens, min(config.num_layers, 2), config.codebook_size)
        head_set, _ = head_tail_split(hist, selector or Selector.mass(0.5))

    t0 = time.perf_counter()
    model = train_seq_model(train_ds, catalog, config, args.order, args.alpha)
    timings["train_model"] = time.perf_counter() - t0
    t0 = time.perf_counter()
    report = evaluate(
        model,
        test_ds,
        catalog,
        config,
        head_set,
        beam_width=args.beam,
        k_list=args.k_list,
        trie_mode=args.trie,
        given_prefix_layers=args.given_layers,
    )
    timings["evaluate"] = time.perf_counter() - t0

    with persist.OutputLock(out):
        outputs = []
        if generated is not None:
            inter_path = out / "interactions.csv"
            persist.save_interactions(inter_path, generated, catalog)
            outputs.append(inter_path)
        report_path = out / "eval_report.json"
        persist.save_report(report_path, "eval_report", report.to_dict())
        outputs.append(report_path)
        persist.record_run(out, "simulate", _options(args), timings, outputs)
    ks = ", ".join(f"r@{k}={report.recall[k]['overall']:.3f}" for k in report.k_list)
    print(f"evaluated {len(test_ds)} records ({report.record_counts['head']} head): {ks}")
    return 0


def cmd_sweep(args) -> int:
    out = Path(args.out)
    layer_set, size_set, regimes = args.num_layers_set, args.codebook_size_set, args.regimes
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
                cell_seed = args.seed + 7919 * L + 104729 * M
                row = {"num_layers": L, "codebook_size": M, "regime": regime,
                       "seed": cell_seed, "error": ""}
                try:
                    row.update(_sweep_cell(args, L, M, regime, cell_seed))
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
        persist.atomic_write_bytes(sweep_path, buf.getvalue().encode())
        persist.record_run(
            out, "sweep", _options(args), {"sweep": sweep_s}, [sweep_path], worker_info()
        )
    failed = sum(1 for r in rows if r["error"])
    print(f"swept {len(rows)} cells ({failed} failed) -> {out / 'sweep.csv'}")
    return 0


def _sweep_cell(args, L, M, regime, cell_seed) -> dict:
    n, d = args.n, args.d
    if M**L > 100 * n:
        log.warning(
            "cell L=%d M=%d: path space %d vastly exceeds n=%d; sparsity will be tiny",
            L, M, M**L, n,
        )
    rng = RandomSource(cell_seed)
    if regime == "uniform":
        data = datagen.gen_uniform(n, d, rng)
    else:
        data, _ = datagen.gen_clustered(n, d, _cluster_spec(args, "zipf"), rng)
    config = _quantizer_config(args, L, M, d, cell_seed)
    codebook = train_rq(np.array(data.vectors, order="F"), config, rng.child(1000))
    sids, _ = encode_all(data.vectors, codebook)
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


class _Parser(argparse.ArgumentParser):
    """An argument parser that maps each option's dest to its action, its
    parents' options included, so that a config file can name options."""

    def __init__(self, *args, parents=(), **kwargs):
        self.options = {k: a for parent in parents for k, a in parent.options.items()}
        super().__init__(*args, parents=parents, **kwargs)
        self.options.pop("help", None)

    def add_argument(self, *args, **kwargs):
        action = super().add_argument(*args, **kwargs)
        self.options[action.dest] = action
        return action


def build_parser() -> tuple[argparse.ArgumentParser, dict[str, _Parser]]:
    """The rqsid parser, and its command parsers by name."""
    common = _Parser(add_help=False)
    common.add_argument("--config", help="JSON config file: flat keys, or a section named "
                        "after the command; its values are parsed like flags, which win")
    common.add_argument("--out", required=True, help="output directory")
    seed = _Parser(add_help=False)
    seed.add_argument("--seed", type=int, default=0, help="64-bit unsigned seed")
    clusters = _Parser(add_help=False)
    clusters.add_argument("--clusters", type=int, default=512, help="cluster count")
    clusters.add_argument("--radius", type=float, default=0.05, help="within-cluster std")
    clusters.add_argument("--center-scale", type=float, default=1.0,
                          help="cluster centers are uniform in [-scale, scale]")
    clusters.add_argument("--zipf-s", type=float, default=1.2, help="zipf size exponent")
    lloyd = _Parser(add_help=False)
    lloyd.add_argument("--kmeans-iters", type=int, default=25, help="Lloyd rounds per layer")
    lloyd.add_argument("--tol", type=float, default=1e-4, help="relative SSE stop tolerance")
    head = _Parser(add_help=False)
    head.add_argument("--head-top-k", type=int,
                      help="head set: the K most frequent layer-2 tokens (mitigate takes "
                           "it with --mode varlen only)")
    head.add_argument("--head-mass", type=float,
                      help="head set: the fewest layer-2 tokens covering this share of ids "
                           "(analyze and simulate default to 0.5; mitigate takes it with "
                           "--mode varlen only; simulate takes neither flag when the "
                           "codebook stores a head set)")
    embeddings = _Parser(add_help=False)
    embeddings.add_argument("--embeddings", required=True, help="embeddings file (.csv or .json)")
    codebook = _Parser(add_help=False)
    codebook.add_argument("--codebook", required=True, help="codebook file")
    sids = _Parser(add_help=False)
    sids.add_argument("--sids", required=True, help="semantic id file")

    parser = _Parser(
        prog="rqsid",
        description="Residual-quantization semantic ids: train, diagnose, mitigate, simulate.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    commands = {}

    def command(name, func, help, *parents):
        commands[name] = sub.add_parser(name, help=help, parents=[common, *parents])
        commands[name].set_defaults(func=func)
        return commands[name]

    g = command("gen", cmd_gen, "generate synthetic embeddings", seed, clusters)
    g.add_argument("--kind", choices=["uniform", "clustered"], default="uniform")
    g.add_argument("--n", type=int, required=True, help="number of points")
    g.add_argument("--d", type=int, required=True, help="dimensionality")
    g.add_argument("--size-law", choices=["uniform", "zipf"], default="zipf",
                   help="cluster sizes (clustered)")

    t = command("train", cmd_train, "train a residual-quantization codebook",
                seed, lloyd, embeddings)
    t.add_argument("--num-layers", type=int, default=3)
    t.add_argument("--codebook-size", type=int, default=256)

    command("encode", cmd_encode, "assign semantic ids to embeddings", embeddings, codebook)

    a = command("analyze", cmd_analyze, "hourglass diagnostics over an id file",
                sids, codebook, head)
    a.add_argument("--embeddings", help="optional, enables the residual-magnitude ratio")

    m = command("mitigate", cmd_mitigate, "transform ids: exchange, remove, varlen",
                sids, codebook, head)
    m.add_argument("--mode", choices=["exchange", "remove", "varlen"], required=True)
    m.add_argument("--swap", type=_int_list,
                   help="layer pair for --mode exchange (default 1,2); any other mode "
                        "takes no --swap")

    s = command("simulate", cmd_simulate, "generative-retrieval simulation",
                seed, sids, codebook, head)
    s.add_argument("--interactions", help="existing interaction CSV with train/test splits")
    s.add_argument("--records", type=int, default=2000, help="synthesized training records")
    s.add_argument("--test-records", type=int,
                   help="synthesized test records (default max(200, records / 5))")
    s.add_argument("--history-min", type=int, default=2)
    s.add_argument("--history-max", type=int, default=5)
    s.add_argument("--pop-s", type=float, default=1.0, help="item popularity exponent")
    s.add_argument("--repeat-prob", type=float, default=0.6)
    s.add_argument("--order", type=int, default=3, help="model context length in flat tokens")
    s.add_argument("--alpha", type=float, default=0.1, help="Laplace smoothing")
    s.add_argument("--beam", type=int, default=50, help="beam width")
    s.add_argument("--k-list", type=_int_list, default="1,5,10,50", help="recall cutoffs")
    s.add_argument("--trie", choices=["on", "off"], default="off",
                   help="constrain decoding to the catalog")
    s.add_argument("--given-layers", type=int, default=0,
                   help="condition on this many gold prefix tokens, at most L")

    w = command("sweep", cmd_sweep, "hourglass statistics over a parameter grid",
                seed, clusters, lloyd)
    w.add_argument("--num-layers-set", type=_int_list, default="3,4")
    w.add_argument("--codebook-size-set", type=_int_list, default="64,256")
    w.add_argument("--regimes", type=_regime_list, default=",".join(_REGIMES),
                   help=f"subset of {','.join(_REGIMES)}")
    w.add_argument("--n", type=int, default=20000)
    w.add_argument("--d", type=int, default=32)
    return parser, commands


def _config_argv(argv: list[str], commands: dict[str, _Parser]) -> list[str]:
    """argv with its --config file's values put between the command and its flags.

    Flat keys apply to every command with such an option, a section named
    after the command to that command alone. A later token wins, so flags
    win over the section and the section over flat keys.
    """
    if not argv or argv[0] not in commands:
        return argv
    # the file may hold required options, so find it before the full parse
    finder = argparse.ArgumentParser(prog=f"rqsid {argv[0]}", add_help=False)
    finder.add_argument("--config")
    path = finder.parse_known_args(argv[1:])[0].config
    if path is None:
        return argv
    try:
        cfg = json.loads(Path(path).read_text())
    except OSError as e:
        raise ConfigError(f"cannot read config file {path}: {e.strerror}") from None
    except ValueError as e:
        raise ConfigError(f"config file {path} is not valid JSON: {e}") from None
    if not isinstance(cfg, dict):
        raise ConfigError(f"config file {path} does not hold a JSON object")
    # a key holding an object must name a command, any other key an option
    known = {k for c in commands.values() for k in c.options}
    unknown = [k for k, v in cfg.items() if k not in (commands if isinstance(v, dict) else known)]
    options = commands[argv[0]].options
    section = cfg[argv[0]] if isinstance(cfg.get(argv[0]), dict) else {}
    unknown += [f"{argv[0]}.{k}" for k in section if k not in options]
    if unknown:
        raise ConfigError(f"config file {path} names no option {unknown}")
    values = [(k, v) for k, v in cfg.items() if k in options] + list(section.items())
    return [argv[0], *(_flag(options[k], v) for k, v in values if v is not None), *argv[1:]]


def _flag(action: argparse.Action, value) -> str:
    """The `--flag=value` token for a config value, left to argparse to check."""
    if isinstance(value, list) and action.type in (_int_list, _regime_list):
        value = ",".join(str(v) for v in value)
    elif isinstance(value, (list, dict)):
        raise ConfigError(f"{action.dest} takes one value, got {value!r}")
    return f"{action.option_strings[-1]}={value}"


def main(argv=None) -> int:
    logging.basicConfig(level=logging.WARNING, format="%(levelname)s %(name)s: %(message)s")
    mallopt = getattr(ctypes.CDLL(None), "mallopt", None)  # absent on macOS
    for param, value in _MALLOPT if mallopt else ():
        mallopt(param, value)
    persist.begin_command()
    parser, commands = build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        args = parser.parse_args(_config_argv(argv, commands))
        return args.func(args)
    except SystemExit as e:  # argparse exits 2 on bad flags, 0 on --help
        return int(e.code or 0)
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return 2
    except (RqsidError, OSError) as e:
        print(f"data error: {e}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    raise SystemExit(main())
