"""The rqsid functions the traced run wraps, and the per-layer metrics
derived from its spans. Every metric is reported on every workload; a
function the workload never calls reads 0."""

from __future__ import annotations

import math
import statistics

from spans import Target, Tracer, self_times

CLI_COMMANDS = ("train", "encode", "analyze", "mitigate", "simulate")
PERSIST = ("load_embeddings", "load_codebook", "save_codebook", "load_sids",
           "save_sids", "save_report", "record_run", "save_interactions")
KMEANS_LAYERS = 3


def _trie_mode(args) -> str:
    return "on" if args.get("trie") is not None else "off"


TARGETS = (
    [Target("rqsid.cli", f"cmd_{c}", f"cli.{c}") for c in CLI_COMMANDS]
    + [Target("rqsid.persist", f, f"persist.{f}") for f in PERSIST if f != "load_sids"]
    + [
        Target("rqsid.persist", "load_sids", "persist.load_sids",
               keep=lambda args, result: len(result)),
        Target("rqsid.datagen", "gen_clustered", "datagen.gen"),
        Target("rqsid.datagen", "gen_uniform", "datagen.gen"),
        Target("rqsid.quantizer", "train_rq", "quantizer.train_rq"),
        Target("rqsid.quantizer", "kmeans", "quantizer.kmeans",
               keep=lambda args, result: float(result.sse)),
        Target("rqsid.quantizer", "encode_all", "quantizer.encode_all",
               keep=lambda args, result: len(args["data"])),
        Target("rqsid.diagnostics", "hourglass_report", "diagnostics.hourglass_report"),
        Target("rqsid.diagnostics", "token_histogram", "diagnostics.token_histogram"),
        Target("rqsid.diagnostics", "head_tail_split", "diagnostics.head_tail_split"),
        Target("rqsid.mitigation", "varlen_topk", "mitigation.varlen_topk",
               keep=lambda args, result: result),
        Target("rqsid.mitigation", "post_mitigation_report",
               "mitigation.post_mitigation_report"),
        Target("rqsid.grsim", "gen_interactions", "grsim.gen_interactions"),
        Target("rqsid.grsim", "train_seq_model", "grsim.train_seq_model"),
        Target("rqsid.grsim", "build_trie", "grsim.build_trie"),
        Target("rqsid.grsim", "evaluate", "grsim.evaluate",
               label=lambda args: args["trie_mode"], keep=lambda args, result: result),
        Target("rqsid.grsim", "beam_search", "grsim.beam_search", label=_trie_mode),
        Target("rqsid.core", "sid_to_flat_tokens", "core.sid_to_flat_tokens",
               count_only=True),
    ]
)


def _percentile(values, q: float) -> float:
    """Nearest-rank percentile; 0 for no values."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(1, math.ceil(len(ordered) * q / 100)) - 1]


def missing_calls(tracer: Tracer, expected) -> list[str]:
    return sorted(name for name in expected if tracer.calls(name) == 0)


def layer_metrics(tracer: Tracer, bytes_written: int) -> dict[str, tuple[float, str]]:
    """Per-layer metric name -> (value, unit), from one traced pipeline."""
    own = self_times(tracer.spans)
    out: dict[str, tuple[float, str]] = {}

    def total(name) -> float:
        return sum(s.duration for s in tracer.named(name))

    for c in CLI_COMMANDS:
        out[f"cli.{c}.self_s"] = (sum(own[s.span_id] for s in tracer.named(f"cli.{c}")), "s")
    for f in PERSIST:
        out[f"persist.{f}.s"] = (total(f"persist.{f}"), "s")
    out["persist.load_sids.ids"] = (
        sum(tracer.kept[s.span_id] for s in tracer.named("persist.load_sids")), "count")
    out["persist.bytes_written"] = (bytes_written, "bytes")
    out["datagen.gen.s"] = (total("datagen.gen"), "s")
    out["quantizer.train_rq.s"] = (total("quantizer.train_rq"), "s")

    # Layer l is the l-th kmeans call under train_rq, by start time.
    train_ids = {s.span_id for s in tracer.named("quantizer.train_rq")}
    per_layer = [s for s in tracer.named("quantizer.kmeans") if s.parent in train_ids]
    for l in range(1, KMEANS_LAYERS + 1):
        spans = per_layer[l - 1::KMEANS_LAYERS]
        out[f"quantizer.kmeans.l{l}.s"] = (sum(s.duration for s in spans), "s")
        out[f"quantizer.kmeans.l{l}.sse"] = (sum(tracer.kept[s.span_id] for s in spans),
                                             "sq_dist")

    enc = tracer.named("quantizer.encode_all")
    enc_s = sum(s.duration for s in enc)
    items = sum(tracer.kept[s.span_id] for s in enc)
    out["quantizer.encode_all.s"] = (enc_s, "s")
    out["quantizer.encode_all.calls"] = (len(enc), "count")
    out["quantizer.encode_all.items_per_s"] = (items / enc_s if enc_s else 0.0, "1/s")

    out["diagnostics.hourglass_report.s"] = (total("diagnostics.hourglass_report"), "s")
    out["diagnostics.hourglass_report.calls"] = (
        tracer.calls("diagnostics.hourglass_report"), "count")
    out["diagnostics.token_histogram.calls"] = (
        tracer.calls("diagnostics.token_histogram"), "count")
    out["diagnostics.head_tail_split.s"] = (total("diagnostics.head_tail_split"), "s")

    out["mitigation.varlen_topk.s"] = (total("mitigation.varlen_topk"), "s")
    out["mitigation.post_mitigation_report.s"] = (
        total("mitigation.post_mitigation_report"), "s")
    outcomes = [tracer.kept[s.span_id] for s in tracer.named("mitigation.varlen_topk")]
    out["mitigation.elided_ids"] = (
        sum(sum(1 for sid in o.transformed_sids if not sid.is_full) for o in outcomes),
        "count")
    out["mitigation.distinct_ids"] = (
        sum(o.capacity_empirical_distinct for o in outcomes), "count")
    out["mitigation.collision_groups"] = (sum(len(o.collisions) for o in outcomes), "count")
    out["mitigation.collided_items"] = (
        sum(len(v) for o in outcomes for v in o.collisions.values()), "count")

    for f in ("gen_interactions", "train_seq_model", "build_trie"):
        out[f"grsim.{f}.s"] = (total(f"grsim.{f}"), "s")
    for mode in ("off", "on"):
        out[f"grsim.evaluate.{mode}.s"] = (total(f"grsim.evaluate.{mode}"), "s")
    for mode in ("off", "on"):
        ms = [s.duration * 1e3 for s in tracer.named(f"grsim.beam_search.{mode}")]
        out[f"grsim.beam_search.{mode}.calls"] = (len(ms), "count")
        out[f"grsim.beam_search.{mode}.s"] = (sum(ms) / 1e3, "s")
        out[f"grsim.beam_search.{mode}.p50_ms"] = (
            statistics.median(ms) if ms else 0.0, "ms")
        out[f"grsim.beam_search.{mode}.p99_ms"] = (_percentile(ms, 99), "ms")
    reports = {mode: [tracer.kept[s.span_id] for s in tracer.named(f"grsim.evaluate.{mode}")]
               for mode in ("off", "on")}
    off = reports["off"]
    out["grsim.invalid_ratio_at_50.off"] = (
        statistics.fmean(r.invalid_ratio[50]["overall"] for r in off) if off else 0.0,
        "ratio")
    for mode, rs in reports.items():
        out[f"grsim.hits_at_10.{mode}"] = (
            sum(round(r.recall[10]["overall"] * r.record_counts["overall"]) for r in rs),
            "count")
    out["core.sid_to_flat_tokens.calls"] = (tracer.calls("core.sid_to_flat_tokens"), "count")
    return out
