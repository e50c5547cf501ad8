"""The rqsid functions the traced benchmark wraps by name still exist and
are still called.

`perfbench/layers.py` names each function it traces by module and attribute,
and labels decoding spans by the `trie` and `trie_mode` arguments. The traced
run fails when `grsim.beam_search` records no calls in a trie mode it
expects. A rename, or a decoding path that bypasses `beam_search`, would
otherwise surface only in a full traced benchmark run.
"""

import importlib
import inspect
from pathlib import Path

import pytest

from rqsid import grsim
from rqsid.core import QuantizerConfig
from rqsid.grsim import Interaction, InteractionDataset

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
    catalog = {"a": (0, 5, 10), "b": (1, 6, 11), "c": (2, 9)}
    train = InteractionDataset(tuple(Interaction((x,), y) for x, y in
                                     [("a", "b"), ("b", "c"), ("c", "a"), ("a", "c")]))
    test = InteractionDataset(tuple(Interaction((x,), y) for x, y in
                                    [("a", "b"), ("b", "c"), ("c", "a")]), split="test")
    model = grsim.train_seq_model(train, catalog, order=2, alpha=0.5)
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
