"""The rqsid functions the traced benchmark wraps by name still exist and
are still called.

`perfbench/layers.py` names each function it traces by module and attribute,
and labels decoding spans by the `trie` and `trie_mode` arguments. The traced
run fails when an expected function, such as `grsim.beam_search` in a trie
mode, records no calls. A rename, a lazy import, a moved call or a decoding
path that bypasses `beam_search` would otherwise surface only in a full
traced benchmark run.
"""

import importlib
import inspect
import json
from pathlib import Path

import numpy as np
import pytest

from rqsid import cli, grsim, persist
from rqsid.core import Codebook, QuantizerConfig, sid_table
from rqsid.diagnostics import Selector, token_histogram
from rqsid.grsim import InteractionDataset
from rqsid.mitigation import varlen_topk

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture
def layers(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))  # layers imports its sibling spans
    return importlib.import_module("layers")


def test_every_target_resolves_to_a_callable(layers):
    assert layers.TARGETS
    for target in layers.TARGETS:
        module = importlib.import_module(target.module)
        assert callable(getattr(module, target.attr, None)), (target.module, target.attr)


def test_decoding_spans_find_their_label_arguments():
    assert "trie" in inspect.signature(grsim.beam_search).parameters
    assert "trie_mode" in inspect.signature(grsim.evaluate).parameters


def test_evaluate_decodes_through_module_beam_search(monkeypatch):
    """evaluate calls the module-level beam_search, binding `trie` to match
    its trie mode, so the traced run labels and counts its decoding spans."""
    config = QuantizerConfig(num_layers=3, codebook_size=4, dim=1)
    # flat ids (0, 5, 10), (1, 6, 11) and (2, 9): c elides layer 2
    catalog = sid_table(np.array(["a", "b", "c"]), [(0, 1, 2), (1, 2, 3), (2, 0, 1)], config,
                        [True, True, False])
    # records a -> b, b -> c, c -> a and a -> c as catalog rows
    train = InteractionDataset([0, 1, 1, 2, 2, 0, 0, 2], [2, 2, 2, 2])
    test = InteractionDataset([0, 1, 1, 2, 2, 0], [2, 2, 2], split="test")
    model = grsim.train_seq_model(train, catalog, config, order=2, alpha=0.5)
    signature = inspect.signature(grsim.beam_search)
    decode = grsim.beam_search
    tries = []

    def counted(*args, **kwargs):
        tries.append(signature.bind(*args, **kwargs).arguments.get("trie"))
        return decode(*args, **kwargs)

    monkeypatch.setattr(grsim, "beam_search", counted)
    for trie_mode in ("off", "on"):
        tries.clear()
        grsim.evaluate(model, test, catalog, config, frozenset({1}), 4, (1, 4), trie_mode)
        assert tries, trie_mode
        assert all((trie is not None) == (trie_mode == "on") for trie in tries), trie_mode


def test_traced_simulate_calls_every_expected_grsim_function(layers, tmp_path):
    """`simulate` with the trie off, then on, under the benchmark's tracer
    calls every function a simulating workload expects, in both trie modes."""
    spans = importlib.import_module("spans")
    workloads = importlib.import_module("workloads")
    config = QuantizerConfig(num_layers=3, codebook_size=4, dim=2)
    gen = np.random.default_rng(0)
    codebook = Codebook(config, gen.normal(size=(3, 4, 2)), (1.0, 0.5, 0.25))
    persist.save_codebook(tmp_path / "codebook.json", codebook)
    items = [f"item_{k}" for k in range(24)]
    persist.save_sids(tmp_path / "sids.csv",
                      sid_table(np.array(items), gen.integers(0, 4, size=(24, 3)), config))
    tracer = spans.Tracer("contract")
    tracer.install(layers.TARGETS)
    try:
        for trie in ("off", "on"):
            assert cli.main([
                "simulate", "--sids", str(tmp_path / "sids.csv"),
                "--codebook", str(tmp_path / "codebook.json"), "--records", "60",
                "--test-records", "10", "--beam", "5", "--k-list", "1,5",
                "--trie", trie, "--out", str(tmp_path / trie),
            ]) == 0
    finally:
        tracer.uninstall()
    expected = workloads._GRSIM | {"grsim.evaluate.off", "grsim.beam_search.off"}
    assert layers.missing_calls(tracer, expected) == []


def test_traced_toy_pipeline_derives_every_per_layer_metric(layers, tmp_path):
    """gen -> train -> encode -> analyze -> mitigate (varlen) -> simulate
    (trie off, then on) at toy size under the benchmark's tracer: the
    derived metrics name every per-layer metric BENCHMARK.json declares,
    and every function both gated workloads expect is called."""
    spans = importlib.import_module("spans")
    workloads = importlib.import_module("workloads")
    declared = json.loads((PERFBENCH.parent / "BENCHMARK.json").read_text())
    gen, train, enc, mit = (tmp_path / name for name in ("gen", "train", "enc", "mit"))
    sids, codebook = ("--sids", enc / "sids.csv"), ("--codebook", train / "codebook.json")
    runs = [
        ("gen", "--kind", "clustered", "--n", 600, "--d", 4, "--clusters", 8, "--seed", 1,
         "--out", gen),
        ("train", "--embeddings", gen / "embeddings.json", "--num-layers", 3,
         "--codebook-size", 4, "--kmeans-iters", 3, "--out", train),
        ("encode", "--embeddings", gen / "embeddings.json", *codebook, "--out", enc),
        ("analyze", *sids, *codebook, "--embeddings", gen / "embeddings.json",
         "--out", tmp_path / "an"),
        ("mitigate", *sids, *codebook, "--mode", "varlen", "--head-mass", 0.5, "--out", mit),
    ] + [
        ("simulate", "--sids", mit / "sids.csv", "--codebook", mit / "codebook.json",
         "--records", 60, "--test-records", 10, "--beam", 50, "--k-list", "1,5,10,50",
         "--trie", trie, "--out", tmp_path / f"sim_{trie}")
        for trie in ("off", "on")
    ]
    tracer = spans.Tracer("contract")
    tracer.install(layers.TARGETS)
    try:
        for argv in runs:
            assert cli.main([str(a) for a in argv]) == 0, argv
    finally:
        tracer.uninstall()
    metrics = layers.layer_metrics(tracer, 0)
    want = {m["name"] for m in declared["per_layer"]} - {"trace_overhead_s"}
    assert sorted(want - set(metrics)) == []
    for name in ("zipf-100k", "retrieval-2k"):
        assert layers.missing_calls(tracer, workloads.WORKLOADS[name].expected_calls) == [], name


def test_varlen_topk_takes_a_token_histogram_positionally():
    """The span tests call varlen_topk(sids, hist, selector, config) with a
    token_histogram result, as `mitigate` does."""
    config = QuantizerConfig(num_layers=3, codebook_size=4, dim=2, seed=0)
    sids = [(0, 1, 2), (1, 1, 3), (2, 0, 3)]
    hist = token_histogram(sids, 2, 4)
    outcome = varlen_topk(sids, hist, Selector.top_k(1), config)
    assert outcome.head_set == {1}
    assert outcome.transformed_sids.is_full.tolist() == [False, False, True]


def test_small_codebook_is_one_file(tmp_path):
    """The stage-check tests copy only `codebook.json` of a small codebook,
    so one of at most INLINE_CODEBOOK_LIMIT floats must need no sidecar."""
    config = QuantizerConfig(num_layers=4, codebook_size=32, dim=32)
    assert config.num_layers * config.codebook_size * config.dim == persist.INLINE_CODEBOOK_LIMIT
    codebook = Codebook(config, np.random.default_rng(0).normal(size=(4, 32, 32)),
                        (1.0, 0.5, 0.25, 0.125))
    written = persist.save_codebook(tmp_path / "codebook.json", codebook, head_set={3})
    assert written == [tmp_path / "codebook.json"]
    alone = tmp_path / "alone"
    alone.mkdir()
    (alone / "codebook.json").write_bytes((tmp_path / "codebook.json").read_bytes())
    loaded, head = persist.load_codebook(alone / "codebook.json")
    assert head == {3}
    np.testing.assert_array_equal(loaded.layers, codebook.layers.astype(np.float32))
