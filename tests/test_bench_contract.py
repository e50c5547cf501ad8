"""The rqsid functions the traced benchmark wraps by name still exist.

`perfbench/layers.py` names each function it traces by module and attribute,
and labels decoding spans by the `trie` and `trie_mode` arguments. A rename
there would otherwise surface only in a full traced benchmark run.
"""

import importlib
import inspect
from pathlib import Path

import pytest

from rqsid import grsim

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
