"""The stage checks pass on real program output and catch tampering."""

import json

import numpy as np
import pytest

import checks
from rqsid.cli import main as cli

N, L, M = 300, 3, 8


@pytest.fixture(scope="module")
def work(tmp_path_factory):
    w = tmp_path_factory.mktemp("pipeline")
    for argv in (
        ["gen", "--kind", "clustered", "--n", str(N), "--d", "4", "--clusters", "8",
         "--seed", "3", "--out", f"{w}/gen"],
        ["train", "--embeddings", f"{w}/gen/embeddings.json", "--num-layers", str(L),
         "--codebook-size", str(M), "--seed", "3", "--out", f"{w}/train"],
        ["encode", "--embeddings", f"{w}/gen/embeddings.json",
         "--codebook", f"{w}/train/codebook.json", "--out", f"{w}/encode"],
        ["analyze", "--sids", f"{w}/encode/sids.csv", "--codebook", f"{w}/train/codebook.json",
         "--out", f"{w}/analyze"],
        ["mitigate", "--sids", f"{w}/encode/sids.csv", "--codebook", f"{w}/train/codebook.json",
         "--mode", "varlen", "--head-mass", "0.5", "--out", f"{w}/mitigate"],
    ):
        assert cli(argv) == 0
    return w


def test_program_outputs_pass_every_check(work):
    assert checks.check_gen(work / "gen", N, 4) == []
    assert checks.check_train(work / "train") == []
    assert checks.check_encode(work / "gen", work / "train", work / "encode", seed=0) == []
    assert checks.check_analyze(work / "analyze", N) == []
    assert checks.check_mitigate(work / "encode", work / "mitigate", L) == []


def _tamper_one_token(src, dst, gen_dir, train_dir):
    """Copy an id file, moving one layer-1 token to a strictly farther codeword."""
    ids, vectors = checks.read_embeddings(gen_dir / "embeddings.json")
    _, layers = checks.read_codebook(train_dir / "codebook.json")
    lines = src.read_text().splitlines(keepends=True)
    for i, line in enumerate(lines):
        fields = line.rstrip("\n").split(",")
        if len(fields) == 3 and fields[1] == "1":
            item, _, token = fields
            dist = ((vectors[ids.index(item)] - layers[0]) ** 2).sum(axis=1)
            worse = int(np.argmax(dist))
            assert dist[worse] > dist[int(token)]
            lines[i] = f"{item},1,{worse}\n"
            dst.write_text("".join(lines))
            return item
    raise AssertionError("no layer-1 row found")


def test_one_tampered_token_fails_the_encode_check(work, tmp_path):
    enc = tmp_path / "encode"
    enc.mkdir()
    item = _tamper_one_token(work / "encode" / "sids.csv", enc / "sids.csv",
                             work / "gen", work / "train")
    problems = checks.check_encode(work / "gen", work / "train", enc, seed=0)
    assert len(problems) == 1 and problems[0].startswith(f"item {item} layer 1")


def test_wrong_distinct_count_fails_the_mitigate_check(work, tmp_path):
    mit = tmp_path / "mitigate"
    mit.mkdir()
    for name in ("sids.csv", "codebook.json"):
        (mit / name).write_bytes((work / "mitigate" / name).read_bytes())
    report = json.loads((work / "mitigate" / "mitigation_report.json").read_text())
    report["capacity_empirical_distinct"] += 1
    (mit / "mitigation_report.json").write_text(json.dumps(report))
    problems = checks.check_mitigate(work / "encode", mit, L)
    assert len(problems) == 1 and "distinct ids" in problems[0]


def test_varlen_recount_merges_ids_that_differ_only_in_an_elided_token():
    arr = np.array([[0, 1, 2], [0, 3, 2], [0, 4, 2], [1, 1, 2]])
    assert checks.varlen_recount(arr, {1, 3}) == (3, 3)


def _eval_report(path, recall_at_10, invalid):
    report = {
        "record_counts": {"overall": 4, "head": 1, "tail": 3},
        "recall": {"1": {"overall": 0.5, "head": 0.0, "tail": 0.5},
                   "10": {"overall": recall_at_10, "head": 0.0, "tail": 0.5}},
        "invalid_ratio": {"1": {"overall": invalid, "head": 0.0, "tail": 0.0},
                          "10": {"overall": 0.0, "head": 0.0, "tail": 0.0}},
    }
    path.mkdir()
    (path / "eval_report.json").write_text(json.dumps(report))
    return path


def test_simulate_check_reads_recall_order_and_trie_validity(tmp_path):
    good = _eval_report(tmp_path / "good", 0.75, 0.0)
    assert checks.check_simulate(good, 4, "on") == []
    assert checks.check_simulate(good, 5, "on") != []
    falling = _eval_report(tmp_path / "falling", 0.25, 0.0)
    assert checks.check_simulate(falling, 4, "off") != []
    invalid = _eval_report(tmp_path / "invalid", 0.75, 0.1)
    assert checks.check_simulate(invalid, 4, "off") == []
    assert checks.check_simulate(invalid, 4, "on") != []
