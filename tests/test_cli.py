import json
import tracemalloc
import weakref

import numpy as np
import pytest

import rqsid.cli
import rqsid.core
from rqsid import persist
from rqsid.cli import main
from rqsid.diagnostics import Selector, hourglass_report, small_residual_ratio
from rqsid.persist import (
    load_codebook,
    load_embeddings,
    load_interactions,
    load_sids,
    save_interactions,
    save_report,
    sha256_bytes,
    sha256_file,
)
import rqsid.quantizer as quantizer
from rqsid.quantizer import encode_all, worker_info


def run(*argv):
    return main([str(a) for a in argv])


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """gen -> train -> encode on a small zipf-clustered dataset."""
    root = tmp_path_factory.mktemp("pipeline")
    gen_dir, train_dir, enc_dir = root / "gen", root / "train", root / "enc"
    assert run(
        "gen", "--kind", "clustered", "--n", 4000, "--d", 8, "--clusters", 40,
        "--radius", "0.05", "--zipf-s", "1.2", "--seed", 7, "--out", gen_dir,
    ) == 0
    assert run(
        "train", "--embeddings", gen_dir / "embeddings.json", "--num-layers", 3,
        "--codebook-size", 16, "--seed", 7, "--out", train_dir,
    ) == 0
    assert run(
        "encode", "--embeddings", gen_dir / "embeddings.json",
        "--codebook", train_dir / "codebook.json", "--out", enc_dir,
    ) == 0
    return root


class TestPipeline:
    def test_outputs_exist(self, pipeline):
        assert (pipeline / "gen" / "embeddings.json").exists()
        assert (pipeline / "gen" / "labels.csv").exists()
        assert (pipeline / "train" / "codebook.json").exists()
        assert (pipeline / "enc" / "sids.csv").exists()

    def test_analyze_reports_hourglass(self, pipeline):
        out = pipeline / "analyze"
        assert run(
            "analyze", "--sids", pipeline / "enc" / "sids.csv",
            "--codebook", pipeline / "train" / "codebook.json",
            "--embeddings", pipeline / "gen" / "embeddings.json",
            "--out", out,
        ) == 0
        report = json.loads((out / "hourglass_report.json").read_text())
        assert report["kind"] == "hourglass_report"
        assert report["hourglass_flag"] is True
        assert report["pinch_layer"] == 2
        assert 0 <= report["small_residual_ratio"] <= 1

    def test_analyze_report_matches_full_encode(self, pipeline, tmp_path):
        # analyze encodes with layer 1 alone; the report must equal the one
        # computed from a full L-layer encode
        embeddings = pipeline / "gen" / "embeddings.json"
        codebook_path = pipeline / "train" / "codebook.json"
        assert run(
            "analyze", "--sids", pipeline / "enc" / "sids.csv", "--codebook", codebook_path,
            "--embeddings", embeddings, "--out", tmp_path / "analyze",
        ) == 0
        data = load_embeddings(embeddings)
        codebook, _ = load_codebook(codebook_path)
        sids, sq_norms = encode_all(data.vectors, codebook)
        selector = Selector.mass(0.5)
        payload = hourglass_report(
            sids, codebook.config, selector, include_histograms=True
        ).to_dict()
        payload["head_selector"] = selector.describe()
        payload["small_residual_ratio"] = small_residual_ratio(
            np.sqrt(sq_norms[:, 1]), np.sqrt(sq_norms[:, 0])
        )
        save_report(tmp_path / "reference.json", "hourglass_report", payload)
        assert (tmp_path / "analyze" / "hourglass_report.json").read_bytes() == (
            tmp_path / "reference.json"
        ).read_bytes()

    def test_encode_report_monotone(self, pipeline):
        report = json.loads((pipeline / "enc" / "encode_report.json").read_text())
        mse = report["mean_squared_error_per_layer"]
        assert all(b <= a for a, b in zip(mse, mse[1:]))

    def test_manifests_verify(self, pipeline):
        for stage in ("gen", "train", "enc"):
            manifest = json.loads((pipeline / stage / "manifest.json").read_text())
            outputs = [o for run_ in manifest["runs"] for o in run_["outputs"]]
            assert outputs
            for o in outputs:
                assert sha256_file(pipeline / stage / o["path"]) == o["sha256"]

    def test_mitigate_varlen(self, pipeline):
        out = pipeline / "mitigate"
        assert run(
            "mitigate", "--sids", pipeline / "enc" / "sids.csv",
            "--codebook", pipeline / "train" / "codebook.json",
            "--mode", "varlen", "--head-mass", "0.5", "--out", out,
        ) == 0
        report = json.loads((out / "mitigation_report.json").read_text())
        assert report["capacity_empirical_distinct"] <= 4000
        assert report["post_report"]["elision_rate"] > 0
        # head set persisted with the codebook copy
        header = json.loads((out / "codebook.json").read_text())
        assert header["head_set"]

    def test_mitigate_exchange(self, pipeline):
        out = pipeline / "exchange"
        assert run(
            "mitigate", "--sids", pipeline / "enc" / "sids.csv",
            "--codebook", pipeline / "train" / "codebook.json",
            "--mode", "exchange", "--swap", "1,2", "--out", out,
        ) == 0
        assert (out / "sids.csv").exists()

    def test_simulate_after_remove(self, pipeline, tmp_path):
        # remove elides every id, so its codebook stores all M tokens as the
        # head set, and every test record is head
        removed = tmp_path / "removed"
        assert run(
            "mitigate", "--sids", pipeline / "enc" / "sids.csv",
            "--codebook", pipeline / "train" / "codebook.json",
            "--mode", "remove", "--out", removed,
        ) == 0
        header = json.loads((removed / "codebook.json").read_text())
        assert header["head_set"] == list(range(16))
        out = tmp_path / "sim"
        assert run(
            "simulate", "--sids", removed / "sids.csv",
            "--codebook", removed / "codebook.json", "--records", 300,
            "--test-records", 60, "--beam", 10, "--k-list", "1,10", "--out", out,
        ) == 0
        counts = json.loads((out / "eval_report.json").read_text())["record_counts"]
        assert counts == {"overall": 60, "head": 60, "tail": 0}

    def test_simulate_after_mitigation(self, pipeline):
        out = pipeline / "sim"
        assert run(
            "simulate", "--sids", pipeline / "mitigate" / "sids.csv",
            "--codebook", pipeline / "mitigate" / "codebook.json",
            "--records", 500, "--test-records", 100, "--beam", 10,
            "--k-list", "1,5,10", "--trie", "on", "--seed", 7, "--out", out,
        ) == 0
        report = json.loads((out / "eval_report.json").read_text())
        assert report["trie_constrained"] is True
        assert all(v == 0.0 for k in ("1", "5", "10") for v in report["invalid_ratio"][k].values())
        assert (out / "interactions.csv").exists()

    def test_simulate_one_layer_codebook(self, tmp_path):
        # the head set comes from layer 1, and every test record is head
        gen, train, enc = tmp_path / "gen", tmp_path / "train", tmp_path / "enc"
        assert run("gen", "--kind", "clustered", "--n", 300, "--d", 4, "--clusters", 8,
                   "--seed", 5, "--out", gen) == 0
        assert run("train", "--embeddings", gen / "embeddings.json", "--num-layers", 1,
                   "--codebook-size", 8, "--seed", 5, "--out", train) == 0
        assert run("encode", "--embeddings", gen / "embeddings.json",
                   "--codebook", train / "codebook.json", "--out", enc) == 0
        for trie in ("off", "on"):
            out = tmp_path / f"sim-{trie}"
            assert run(
                "simulate", "--sids", enc / "sids.csv", "--codebook", train / "codebook.json",
                "--records", 200, "--test-records", 40, "--beam", 8, "--k-list", "1,8",
                "--trie", trie, "--out", out,
            ) == 0
            counts = json.loads((out / "eval_report.json").read_text())["record_counts"]
            assert counts == {"overall": 40, "head": 40, "tail": 0}

    def test_interactions_load_save_round_trip(self, pipeline, tmp_path):
        """A CLI-written interactions file, read as catalog rows and written
        again, is byte-identical."""
        sids, codebook = pipeline / "enc" / "sids.csv", pipeline / "train" / "codebook.json"
        assert run(
            "simulate", "--sids", sids, "--codebook", codebook, "--records", 300,
            "--test-records", 60, "--beam", 5, "--k-list", "1,5", "--seed", 3,
            "--out", tmp_path / "sim",
        ) == 0
        catalog = load_sids(sids, load_codebook(codebook)[0].config)
        written = tmp_path / "sim" / "interactions.csv"
        splits = load_interactions(written, catalog)
        assert list(splits) == ["train", "test"]
        assert [len(ds) for ds in splits.values()] == [300, 60]
        save_interactions(tmp_path / "again.csv", list(splits.values()), catalog)
        assert (tmp_path / "again.csv").read_bytes() == written.read_bytes()


class TestDeterminism:
    def test_rerun_byte_identical(self, tmp_path):
        digests = []
        for attempt in ("one", "two"):
            base = tmp_path / attempt
            assert run(
                "gen", "--kind", "clustered", "--n", 800, "--d", 6, "--clusters", 16,
                "--seed", 13, "--out", base / "gen",
            ) == 0
            assert run(
                "train", "--embeddings", base / "gen" / "embeddings.json",
                "--num-layers", 2, "--codebook-size", 8, "--seed", 13,
                "--out", base / "train",
            ) == 0
            digests.append(
                (
                    sha256_file(base / "gen" / "embeddings.bin"),
                    sha256_file(base / "train" / "codebook.json"),
                )
            )
        assert digests[0] == digests[1]


class TestErrors:
    def test_missing_sid_file_exits_3(self, tmp_path, capsys):
        code = run(
            "analyze", "--sids", tmp_path / "nope.csv",
            "--codebook", tmp_path / "nope.json", "--out", tmp_path / "out",
        )
        assert code == 3
        assert not (tmp_path / "out" / "hourglass_report.json").exists()

    def test_bad_flag_combo_exits_2(self, tmp_path):
        code = run(
            "gen", "--kind", "clustered", "--n", 10, "--d", 2, "--clusters", 99,
            "--out", tmp_path / "out",
        )
        assert code == 2

    def test_unknown_kind_exits_2(self, tmp_path):
        assert run("gen", "--kind", "nope", "--n", 5, "--d", 2, "--out", tmp_path) == 2

    def test_missing_required_exits_2(self, tmp_path):
        assert run("train", "--out", tmp_path) == 2

    @pytest.mark.parametrize("argv", [
        lambda root: ("gen", "--kind", "uniform", "--n", 5, "--d", 2, "--threads", 2),
        lambda root: ("train", "--embeddings", root / "gen" / "embeddings.json",
                      "--num-layers", 2, "--codebook-size", 4, "--inline-codebook"),
        lambda root: ("mitigate", "--sids", root / "enc" / "sids.csv",
                      "--codebook", root / "train" / "codebook.json",
                      "--mode", "remove", "--layer", 2),
        lambda root: ("encode", "--embeddings", root / "gen" / "embeddings.json",
                      "--codebook", root / "train" / "codebook.json", "--seed", 1),
        lambda root: ("analyze", "--sids", root / "enc" / "sids.csv",
                      "--codebook", root / "train" / "codebook.json", "--seed", 1),
        lambda root: ("mitigate", "--sids", root / "enc" / "sids.csv",
                      "--codebook", root / "train" / "codebook.json",
                      "--mode", "remove", "--seed", 1),
        lambda root: ("gen", "--kind", "uniform", "--n", 5, "--d", 2, "--format", "csv"),
    ], ids=["threads", "inline-codebook", "layer", "encode-seed", "analyze-seed",
            "mitigate-seed", "gen-format"])
    def test_removed_flags_exit_2(self, pipeline, tmp_path, argv):
        # each argv is valid apart from the removed flag
        assert run(*argv(pipeline), "--out", tmp_path / "out") == 2
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("argv", [
        lambda root: ("train", "--embeddings", root / "gen" / "embeddings.json",
                      "--num-layers", 2, "--codebook-size", 4, "--tol", "nan"),
        lambda root: ("gen", "--kind", "clustered", "--n", 50, "--d", 2, "--clusters", 4,
                      "--zipf-s", "nan"),
        lambda root: ("gen", "--kind", "clustered", "--n", 50, "--d", 2, "--clusters", 4,
                      "--center-scale", "inf"),
        lambda root: ("gen", "--kind", "clustered", "--n", 50, "--d", 2, "--clusters", 4,
                      "--radius", "nan"),
        lambda root: ("simulate", "--sids", root / "enc" / "sids.csv",
                      "--codebook", root / "train" / "codebook.json",
                      "--records", 50, "--test-records", 10, "--alpha", "nan"),
        lambda root: ("simulate", "--sids", root / "enc" / "sids.csv",
                      "--codebook", root / "train" / "codebook.json",
                      "--records", 50, "--test-records", 10, "--pop-s", "nan"),
        lambda root: ("simulate", "--sids", root / "enc" / "sids.csv",
                      "--codebook", root / "train" / "codebook.json",
                      "--records", 50, "--test-records", 10, "--pop-s", "inf"),
    ], ids=["train-tol", "gen-zipf-s", "gen-center-scale", "gen-radius", "simulate-alpha",
            "simulate-pop-s-nan", "simulate-pop-s-inf"])
    def test_non_finite_float_option_exits_2(self, pipeline, tmp_path, argv):
        # each check is a comparison that NaN passes unless finiteness is tested
        assert run(*argv(pipeline), "--out", tmp_path / "out") == 2
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("given", [-1, 4, 9])
    def test_given_layers_outside_0_to_L_exits_2(self, pipeline, tmp_path, given):
        # the pipeline's ids have L = 3 layers
        assert run("simulate", "--sids", pipeline / "enc" / "sids.csv",
                   "--codebook", pipeline / "train" / "codebook.json", "--records", 50,
                   "--test-records", 10, "--given-layers", given, "--out", tmp_path / "out") == 2
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("argv", [
        ("mitigate", "--mode", "exchange", "--swap", "1"),
        ("mitigate", "--mode", "exchange", "--swap", "1,2,3"),
        ("mitigate", "--mode", "exchange", "--swap", "1,x"),
        ("mitigate", "--mode", "exchange", "--swap", "1,4"),
        ("simulate", "--k-list", "1,x"),
    ], ids=["swap-one", "swap-three", "swap-text", "swap-range", "k-list-text"])
    def test_bad_int_list_exits_2(self, pipeline, tmp_path, argv):
        code = run(
            *argv, "--sids", pipeline / "enc" / "sids.csv",
            "--codebook", pipeline / "train" / "codebook.json", "--out", tmp_path / "out",
        )
        assert code == 2
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("mode,flags", [
        ("exchange", ("--head-top-k", 1)), ("remove", ("--head-mass", "0.5")),
    ], ids=["exchange", "remove"])
    def test_head_flag_outside_varlen_mode_exits_2(self, pipeline, tmp_path, mode, flags):
        # exchange and remove take no head set
        code = run(
            "mitigate", "--sids", pipeline / "enc" / "sids.csv",
            "--codebook", pipeline / "train" / "codebook.json",
            "--mode", mode, *flags, "--out", tmp_path / "out",
        )
        assert code == 2
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("flags", [
        ("--head-top-k", 1), ("--head-mass", "0.9"), ("--head-top-k", 1, "--head-mass", "0.9"),
    ], ids=["top-k", "mass", "both"])
    def test_head_flag_with_stored_head_set_exits_2(self, pipeline, tmp_path, flags):
        mitigated = tmp_path / "mitigated"
        assert run(
            "mitigate", "--sids", pipeline / "enc" / "sids.csv",
            "--codebook", pipeline / "train" / "codebook.json",
            "--mode", "varlen", "--head-mass", "0.5", "--out", mitigated,
        ) == 0
        code = run(
            "simulate", "--sids", mitigated / "sids.csv",
            "--codebook", mitigated / "codebook.json", "--records", 50,
            "--test-records", 10, "--beam", 5, "--k-list", "1,5", *flags,
            "--out", tmp_path / "out",
        )
        assert code == 2
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("mode,flags", [
        ("varlen", ("--head-mass", "0.5")), ("remove", ()),
    ], ids=["varlen", "remove"])
    def test_swap_outside_exchange_mode_exits_2(self, pipeline, tmp_path, capsys, mode, flags):
        code = run(
            "mitigate", "--sids", pipeline / "enc" / "sids.csv",
            "--codebook", pipeline / "train" / "codebook.json",
            "--mode", mode, *flags, "--swap", "9,9", "--out", tmp_path / "out",
        )
        assert code == 2
        assert "--swap" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("flag,value", [
        ("--records", 5), ("--records", 2000), ("--test-records", 10), ("--history-min", 9),
        ("--history-max", 5), ("--pop-s", "0.5"), ("--repeat-prob", "0.6"),
    ])
    def test_synthesis_flag_with_interactions_exits_2(self, pipeline, tmp_path, capsys, flag,
                                                      value):
        interactions = tmp_path / "interactions.csv"
        interactions.write_text("user_context,target,split\nitem_000000,item_000001,train\n"
                                "item_000001,item_000000,test\n")
        code = run(
            "simulate", "--sids", pipeline / "enc" / "sids.csv",
            "--codebook", pipeline / "train" / "codebook.json",
            "--interactions", interactions, flag, value, "--out", tmp_path / "out",
        )
        assert code == 2
        assert flag in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    # one byte that is no UTF-8 in an item id, in each kind of text input
    def test_undecodable_sid_file_exits_3(self, pipeline, tmp_path, capsys):
        sids = tmp_path / "sids.csv"
        sids.write_bytes(b"item_id,layer,token\na,1,1\na,2,2\na,3,3\n"
                         b"b\xff,1,1\nb\xff,2,2\nb\xff,3,3\n")
        code = run(
            "analyze", "--sids", sids, "--codebook", pipeline / "train" / "codebook.json",
            "--out", tmp_path / "out",
        )
        assert code == 3
        assert str(sids) in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_undecodable_embedding_csv_exits_3(self, tmp_path, capsys):
        embeddings = tmp_path / "embeddings.csv"
        embeddings.write_bytes(b"item_id,v0,v1\na,0.5,1.0\nb\xff,0.25,0.5\nc,1.0,0.0\n")
        assert self.train_exit_code(tmp_path, embeddings) == 3
        assert str(embeddings) in capsys.readouterr().err

    def test_undecodable_interactions_exits_3(self, pipeline, tmp_path, capsys):
        interactions = tmp_path / "interactions.csv"
        interactions.write_bytes(b"user_context,target,split\nitem_000000,item_000001,train\n"
                                 b"item_000001,item_\xff,test\n")
        code = run(
            "simulate", "--sids", pipeline / "enc" / "sids.csv",
            "--codebook", pipeline / "train" / "codebook.json",
            "--interactions", interactions, "--out", tmp_path / "out",
        )
        assert code == 3
        assert str(interactions) in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_split_item_in_sid_file_exits_3(self, pipeline, tmp_path):
        sids = tmp_path / "sids.csv"
        sids.write_text("item_id,layer,token\na,1,1\nb,1,1\na,2,2\nb,2,2\na,3,3\nb,3,3\n")
        code = run(
            "analyze", "--sids", sids, "--codebook", pipeline / "train" / "codebook.json",
            "--out", tmp_path / "out",
        )
        assert code == 3
        assert not (tmp_path / "out").exists()

    def test_sid_row_with_extra_field_exits_3(self, pipeline, tmp_path, capsys):
        sids = tmp_path / "sids.csv"
        sids.write_text("item_id,layer,token\na,1,1\na,2,2\na,3,3\n"
                        "b,1,1\nb,2,2,junk\nb,3,3\n")
        code = run(
            "analyze", "--sids", sids, "--codebook", pipeline / "train" / "codebook.json",
            "--out", tmp_path / "out",
        )
        assert code == 3
        assert "'b'" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("text", ['{"runs": 5}', "not json"], ids=["foreign", "not-json"])
    def test_unreadable_manifest_exits_3(self, pipeline, tmp_path, text):
        out = tmp_path / "out"
        out.mkdir()
        (out / "manifest.json").write_text(text)
        code = run("train", "--embeddings", pipeline / "gen" / "embeddings.json",
                   "--num-layers", 2, "--codebook-size", 4, "--out", out)
        assert code == 3
        assert (out / "manifest.json").read_text() == text

    @pytest.mark.parametrize("text", ['{"runs": 5}', "not json"], ids=["foreign", "not-json"])
    def test_unreadable_manifest_refused_before_any_write(self, tmp_path, text):
        out = tmp_path / "out"
        out.mkdir()
        (out / "manifest.json").write_text(text)
        assert run("gen", "--kind", "uniform", "--n", 50, "--d", 3, "--out", out) == 3
        assert [p.name for p in out.iterdir()] == ["manifest.json"]
        assert (out / "manifest.json").read_text() == text

    @pytest.mark.parametrize("odd", ["#item_{:03d}", "a|k{:03d}"], ids=["hash", "pipe"])
    def test_item_id_outside_alphabet_exits_3_at_train(self, tmp_path, capsys, odd):
        # one id in ten is odd; "#" ids were dropped from the id file after
        # encode, and "|" ids broke an interactions replay
        ids = [odd.format(k) if k % 10 == 0 else f"item_{k:03d}" for k in range(300)]
        vectors = np.random.default_rng(0).random((300, 3))
        embeddings = tmp_path / "embeddings.csv"
        embeddings.write_text("item_id,v0,v1,v2\n" + "".join(
            ",".join([item, *map(repr, row)]) + "\n" for item, row in zip(ids, vectors.tolist())))
        assert self.train_exit_code(tmp_path, embeddings) == 3
        assert repr(odd.format(0)) in capsys.readouterr().err

    def test_comment_like_row_in_sid_file_exits_3(self, pipeline, tmp_path):
        sids = tmp_path / "sids.csv"
        sids.write_text("# ids\nitem_id,layer,token\na,1,1\na,2,2\na,3,3\n"
                        "#b,1,1\n#b,2,2\n#b,3,3\n")
        code = run(
            "analyze", "--sids", sids, "--codebook", pipeline / "train" / "codebook.json",
            "--out", tmp_path / "out",
        )
        assert code == 3
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("row", [
        "item_000000|#item_000001,item_000002,train", "item_000000||item_000001,item_000002,train",
        'item_000000,"item,000002",train'], ids=["hash", "empty", "comma"])
    def test_interactions_id_outside_alphabet_exits_3(self, pipeline, tmp_path, capsys, row):
        interactions = tmp_path / "interactions.csv"
        interactions.write_text("user_context,target,split\nitem_000000,item_000001,train\n"
                                f"{row}\nitem_000001,item_000000,test\n")
        code = run(
            "simulate", "--sids", pipeline / "enc" / "sids.csv",
            "--codebook", pipeline / "train" / "codebook.json",
            "--interactions", interactions, "--out", tmp_path / "out",
        )
        assert code == 3
        assert "item id" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("rows,item", [
        ("item_000000|item_missing,item_000001,train\nitem_000001,item_000000,test\n",
         "train item 'item_missing'"),
        ("item_000000,item_000001,train\nitem_000001,item_gone,test\n", "test item 'item_gone'"),
    ], ids=["train-history", "test-target"])
    def test_interactions_item_outside_catalog_exits_3(self, pipeline, tmp_path, capsys, rows,
                                                        item):
        interactions = tmp_path / "interactions.csv"
        interactions.write_text("user_context,target,split\n" + rows)
        code = run(
            "simulate", "--sids", pipeline / "enc" / "sids.csv",
            "--codebook", pipeline / "train" / "codebook.json",
            "--interactions", interactions, "--out", tmp_path / "out",
        )
        assert code == 3
        assert item in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_head_set_token_out_of_range_exits_3(self, pipeline, tmp_path):
        header = json.loads((pipeline / "train" / "codebook.json").read_text())
        header["head_set"] = [999, -3]
        codebook = tmp_path / "codebook.json"
        codebook.write_text(json.dumps(header))
        code = run(
            "simulate", "--sids", pipeline / "enc" / "sids.csv", "--codebook", codebook,
            "--records", 50, "--test-records", 10, "--beam", 5, "--k-list", "1,5",
            "--out", tmp_path / "out",
        )
        assert code == 3
        assert not (tmp_path / "out").exists()

    def test_interactions_row_with_two_fields_exits_3(self, pipeline, tmp_path):
        interactions = tmp_path / "interactions.csv"
        interactions.write_text("user_context,target,split\nitem_0|item_1,item_2\n")
        code = run(
            "simulate", "--sids", pipeline / "enc" / "sids.csv",
            "--codebook", pipeline / "train" / "codebook.json",
            "--interactions", interactions, "--out", tmp_path / "out",
        )
        assert code == 3
        assert not (tmp_path / "out").exists()

    @staticmethod
    def train_exit_code(tmp_path, embeddings):
        code = run("train", "--embeddings", embeddings, "--num-layers", 2,
                   "--codebook-size", 2, "--out", tmp_path / "out")
        assert not (tmp_path / "out").exists()
        return code

    def test_non_numeric_embedding_csv_exits_3(self, tmp_path):
        embeddings = tmp_path / "embeddings.csv"
        embeddings.write_text("item_id,v0,v1\na,0.5,1.0\nb,0.25,oops\nc,1.0,0.0\n")
        assert self.train_exit_code(tmp_path, embeddings) == 3

    def test_embedding_header_not_json_exits_3(self, tmp_path):
        embeddings = tmp_path / "embeddings.json"
        embeddings.write_text('{"kind": "embeddings", "count": ')
        assert self.train_exit_code(tmp_path, embeddings) == 3

    @staticmethod
    def write_binary_embeddings(tmp_path, floats, **header):
        payload = np.arange(floats, dtype="<f8").tobytes()
        (tmp_path / "e.bin").write_bytes(payload)
        doc = {"kind": "embeddings", "count": 3, "dim": 2, "vectors_file": "e.bin",
               "vectors_sha256": sha256_bytes(payload), "item_ids": ["a", "b", "c"], **header}
        path = tmp_path / "embeddings.json"
        path.write_text(json.dumps({k: v for k, v in doc.items() if v is not None}))
        return path

    def test_embedding_header_without_count_exits_3(self, tmp_path):
        embeddings = self.write_binary_embeddings(tmp_path, 6, count=None)
        assert self.train_exit_code(tmp_path, embeddings) == 3

    def test_embedding_binary_of_wrong_size_exits_3(self, tmp_path):
        embeddings = self.write_binary_embeddings(tmp_path, 5)
        assert self.train_exit_code(tmp_path, embeddings) == 3

    @pytest.mark.parametrize("key, value, floats", [
        ("count", 3.0, 6), ("dim", True, 3), ("item_ids", "abc", 6), ("vectors_file", 5, 6),
    ], ids=["float-count", "bool-dim", "text-item-ids", "number-file"])
    def test_embedding_header_value_of_wrong_type_exits_3(self, tmp_path, key, value, floats):
        embeddings = self.write_binary_embeddings(tmp_path, floats, **{key: value})
        assert self.train_exit_code(tmp_path, embeddings) == 3

    @pytest.mark.parametrize("command", ["train", "encode"])
    @pytest.mark.parametrize("bad", [["b"], {"b": 1}], ids=["list", "dict"])
    def test_unhashable_item_id_exits_3(self, pipeline, tmp_path, capsys, command, bad):
        # the id is named before any check that hashes the ids
        embeddings = self.write_binary_embeddings(tmp_path, 6, item_ids=["a", bad, "c"])
        flags = (["--num-layers", 2, "--codebook-size", 2] if command == "train"
                 else ["--codebook", pipeline / "train" / "codebook.json"])
        assert run(command, "--embeddings", embeddings, *flags, "--out", tmp_path / "out") == 3
        assert f"item id {bad!r} is not" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("source,bad", [
        ("json", 7), ("json", "b\x00"), ("json", "b|c"), ("json", "a"),
        ("csv", "b\x00"), ("csv", "#b"), ("csv", "a"),
        ("sids", "b\x00"), ("sids", "#b"), ("sids", "a"),
        ("interactions", "item_000002\x00"), ("interactions", "#b"),
    ])
    def test_bad_item_id_exits_3_naming_it(self, pipeline, tmp_path, capsys, source, bad):
        # each file holds the ids "a", "c" and then `bad`; "a" is a repeat
        if source == "json":
            embeddings = self.write_binary_embeddings(tmp_path, 6, item_ids=["a", "c", bad])
            code = self.train_exit_code(tmp_path, embeddings)
        elif source == "csv":
            embeddings = tmp_path / "embeddings.csv"
            embeddings.write_text(f"item_id,v0,v1\na,0.5,1.0\nc,1.0,0.0\n{bad},0.25,0.5\n")
            code = self.train_exit_code(tmp_path, embeddings)
        else:
            if source == "sids":
                sids = tmp_path / "sids.csv"
                sids.write_text("item_id,layer,token\n" + "".join(
                    f"{item},{layer},0\n" for item in ("a", "c", bad) for layer in (1, 2, 3)))
                argv = ("analyze", "--sids", sids)
            else:
                interactions = tmp_path / "interactions.csv"
                interactions.write_text("user_context,target,split\nitem_000000,item_000001,"
                                        f"train\nitem_000001|{bad},item_000003,test\n")
                argv = ("simulate", "--sids", pipeline / "enc" / "sids.csv",
                        "--interactions", interactions)
            code = run(*argv, "--codebook", pipeline / "train" / "codebook.json",
                       "--out", tmp_path / "out")
            assert not (tmp_path / "out").exists()
        assert code == 3
        assert repr(bad) in capsys.readouterr().err

    def test_encode_checks_its_ids_once(self, pipeline, tmp_path, monkeypatch):
        calls = []
        for name in ("check_item_ids", "distinct"):
            def counted(*args, _name=name, _check=getattr(rqsid.core, name)):
                calls.append(_name)
                return _check(*args)
            for module in (rqsid.core, persist):
                monkeypatch.setattr(module, name, counted)
        assert run("encode", "--embeddings", pipeline / "gen" / "embeddings.json",
                   "--codebook", pipeline / "train" / "codebook.json",
                   "--out", tmp_path / "enc") == 0
        assert sorted(calls) == ["check_item_ids", "distinct"]

    @staticmethod
    def analyze_exit_code(pipeline, tmp_path, codebook):
        code = run("analyze", "--sids", pipeline / "enc" / "sids.csv", "--codebook", codebook,
                   "--out", tmp_path / "out")
        assert not (tmp_path / "out").exists()
        return code

    def test_codebook_not_json_exits_3(self, pipeline, tmp_path):
        codebook = tmp_path / "codebook.json"
        codebook.write_bytes(b"\x89PNG not a codebook")
        assert self.analyze_exit_code(pipeline, tmp_path, codebook) == 3

    def test_codebook_without_num_layers_exits_3(self, pipeline, tmp_path):
        header = json.loads((pipeline / "train" / "codebook.json").read_text())
        del header["num_layers"]
        codebook = tmp_path / "codebook.json"
        codebook.write_text(json.dumps(header))
        assert "layers" in header  # inline, so there is no binary to copy
        assert self.analyze_exit_code(pipeline, tmp_path, codebook) == 3

    @pytest.mark.parametrize("key, value", [
        ("num_layers", "3"), ("seed", True), ("convergence_tol", "1e-4"),
        ("training_sse_per_layer", 5), ("head_set", 3),
    ], ids=["text-num-layers", "bool-seed", "text-tol", "number-sse", "number-head-set"])
    def test_codebook_header_value_of_wrong_type_exits_3(self, pipeline, tmp_path, key, value):
        header = json.loads((pipeline / "train" / "codebook.json").read_text())
        header[key] = value
        codebook = tmp_path / "codebook.json"
        codebook.write_text(json.dumps(header))
        assert self.analyze_exit_code(pipeline, tmp_path, codebook) == 3

    @pytest.mark.parametrize("key, value", [
        ("layers", "abc"), ("layers", [[[0.0, 1.0]], [[2.0]]]), ("layers", [[0.0, 1.0]]),
        ("layers", [[["0.5"]]]), ("head_set", ["x"]), ("head_set", [1, True]),
        ("training_sse_per_layer", ["x", 1.0, 2.0]),
    ], ids=["text-layers", "ragged-layers", "2d-layers", "text-in-layers", "text-in-head-set",
            "bool-in-head-set", "text-in-sse"])
    def test_codebook_malformed_list_exits_3(self, pipeline, tmp_path, key, value):
        header = json.loads((pipeline / "train" / "codebook.json").read_text())
        header[key] = value
        codebook = tmp_path / "codebook.json"
        codebook.write_text(json.dumps(header))
        assert self.analyze_exit_code(pipeline, tmp_path, codebook) == 3

    @pytest.mark.parametrize("key, value", [
        ("num_layers", 0), ("codebook_size", 0), ("dim", 0), ("kmeans_iters", 0), ("seed", -1),
        ("convergence_tol", -1.0), ("convergence_tol", float("nan")),
    ], ids=["num-layers", "codebook-size", "dim", "kmeans-iters", "seed", "negative-tol",
            "nan-tol"])
    def test_codebook_header_value_out_of_range_exits_3(self, pipeline, tmp_path, capsys, key,
                                                        value):
        # the file is at fault, not the command line
        header = json.loads((pipeline / "train" / "codebook.json").read_text())
        header[key] = value
        codebook = tmp_path / "codebook.json"
        codebook.write_text(json.dumps(header))
        assert self.analyze_exit_code(pipeline, tmp_path, codebook) == 3
        err = capsys.readouterr().err
        assert err.startswith("data error:") and str(codebook) in err

    def test_bad_sweep_set_exits_2(self, tmp_path):
        assert run("sweep", "--num-layers-set", "3,x", "--out", tmp_path / "out") == 2
        assert not (tmp_path / "out").exists()

    def test_unknown_sweep_regime_exits_2(self, tmp_path):
        # rejected before any cell runs, on the command line or in a config file
        assert run("sweep", "--regimes", "uniform,zpf", "--out", tmp_path / "out") == 2
        assert not (tmp_path / "out").exists()
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"sweep": {"regimes": ["zipf", "unifrom"]}}))
        assert run("sweep", "--config", cfg, "--out", tmp_path / "out") == 2
        assert not (tmp_path / "out").exists()


class TestConfigFile:
    def test_flags_win_over_config(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"gen": {"kind": "uniform", "n": 50, "d": 3}, "seed": 1}))
        out = tmp_path / "a"
        assert run("gen", "--config", cfg, "--out", out) == 0
        out2 = tmp_path / "b"
        assert run("gen", "--config", cfg, "--n", 20, "--out", out2) == 0
        n_a = json.loads((out / "embeddings.json").read_text())["count"]
        n_b = json.loads((out2 / "embeddings.json").read_text())["count"]
        assert (n_a, n_b) == (50, 20)

    def test_missing_config_exits_2(self, tmp_path):
        assert run("gen", "--config", tmp_path / "nope.json", "--out", tmp_path) == 2

    @pytest.mark.parametrize("argv, cfg", [
        (("gen", "--d", 2), {"gen": {"n": "abc"}}),
        (("train", "--embeddings", "e.json"), {"train": {"num_layers": [3]}}),
        (("train", "--embeddings", "e.json"), {"train": {"num_layer": 2}}),
        (("gen", "--n", 5, "--d", 2), {"seeed": 2}),
        (("gen", "--n", 5, "--d", 2), {"gne": {"n": 5}}),
    ], ids=["text-int", "list-int", "unknown-section-key", "unknown-flat-key",
            "unknown-section"])
    def test_bad_config_value_exits_2(self, tmp_path, argv, cfg):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        assert run(*argv, "--config", path, "--out", tmp_path / "out") == 2
        assert not (tmp_path / "out").exists()

    def test_required_options_from_config_only(self, pipeline, tmp_path):
        out = tmp_path / "out"
        embeddings = str(pipeline / "gen" / "embeddings.json")
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"seed": 3, "train": {
            "embeddings": embeddings, "num_layers": 2, "codebook_size": 4, "out": str(out)}}))
        assert run("train", "--config", cfg) == 0
        assert recorded_options(out) == {
            "embeddings": embeddings, "num_layers": 2, "codebook_size": 4, "kmeans_iters": 25,
            "tol": 1e-4, "seed": 3, "out": str(out),
        }

    def test_list_values(self, tmp_path):
        out = tmp_path / "sweep"
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"sweep": {
            "num_layers_set": [2], "codebook_size_set": [4, 8], "regimes": ["uniform"],
            "n": 30, "d": 4}}))
        assert run("sweep", "--config", cfg, "--out", out) == 0
        options = recorded_options(out)
        assert (options["num_layers_set"], options["codebook_size_set"], options["regimes"]) == (
            [2], [4, 8], ["uniform"])
        rows = (out / "sweep.csv").read_text().splitlines()[1:]
        assert len(rows) == 2 and all(row.endswith(",") for row in rows)  # no error text


def recorded_options(out):
    return json.loads((out / "manifest.json").read_text())["runs"][-1]["config"]


class TestManifest:
    def test_simulate_records_every_option(self, pipeline, tmp_path):
        out = tmp_path / "sim"
        sids = str(pipeline / "enc" / "sids.csv")
        codebook = str(pipeline / "train" / "codebook.json")
        assert run(
            "simulate", "--sids", sids, "--codebook", codebook, "--records", 300,
            "--pop-s", "0.5", "--repeat-prob", "0.2", "--history-min", 3, "--beam", 5,
            "--k-list", "1,5", "--out", out,
        ) == 0
        assert recorded_options(out) == {
            "sids": sids, "codebook": codebook, "interactions": None, "records": 300,
            "test_records": 200, "history_min": 3, "history_max": 5, "pop_s": 0.5,
            "repeat_prob": 0.2, "order": 3, "alpha": 0.1, "beam": 5, "k_list": [1, 5],
            "trie": "off", "given_layers": 0, "head_top_k": None, "head_mass": None,
            "seed": 0, "out": str(out),
        }

    def test_simulate_times_the_records_it_draws(self, pipeline, tmp_path):
        common = ("--sids", pipeline / "enc" / "sids.csv", "--codebook",
                  pipeline / "train" / "codebook.json", "--beam", 5, "--k-list", "1,5")
        assert run("simulate", *common, "--records", 300, "--test-records", 60,
                   "--out", tmp_path / "drawn") == 0
        assert run("simulate", *common, "--interactions", tmp_path / "drawn" / "interactions.csv",
                   "--out", tmp_path / "loaded") == 0
        timed = [set(json.loads((tmp_path / d / "manifest.json").read_text())["runs"][-1]
                     ["timings_s"]) for d in ("drawn", "loaded")]
        assert timed == [{"gen_interactions", "train_model", "evaluate"},
                         {"train_model", "evaluate"}]
        # a run over a file records no synthesis option as used
        assert [recorded_options(tmp_path / "loaded")[dest] for dest in (
            "records", "test_records", "history_min", "history_max", "pop_s", "repeat_prob",
        )] == [None] * 6

    @pytest.mark.parametrize("mode,flags,swap", [
        ("exchange", (), [1, 2]), ("exchange", ("--swap", "3,1"), [3, 1]),
        ("varlen", ("--head-mass", "0.5"), None),
    ], ids=["exchange-default", "exchange-given", "varlen"])
    def test_mitigate_records_the_swap_used(self, pipeline, tmp_path, mode, flags, swap):
        out = tmp_path / "mitigate"
        assert run(
            "mitigate", "--sids", pipeline / "enc" / "sids.csv",
            "--codebook", pipeline / "train" / "codebook.json",
            "--mode", mode, *flags, "--out", out,
        ) == 0
        assert recorded_options(out)["swap"] == swap

    def test_sweep_records_every_option(self, tmp_path):
        out = tmp_path / "sweep"
        assert run(
            "sweep", "--num-layers-set", 2, "--codebook-size-set", 4, "--regimes", "uniform",
            "--n", 30, "--d", 4, "--out", out,
        ) == 0
        assert recorded_options(out) == {
            "num_layers_set": [2], "codebook_size_set": [4], "regimes": ["uniform"], "n": 30,
            "d": 4, "clusters": 512, "radius": 0.05, "center_scale": 1.0, "zipf_s": 1.2,
            "kmeans_iters": 25, "tol": 1e-4, "seed": 0, "out": str(out),
        }


class TestKMeansWorkersRecorded:
    def test_train_encode_analyze_record_the_split(self, pipeline, tmp_path):
        out = tmp_path / "analyze"
        assert run(
            "analyze", "--sids", pipeline / "enc" / "sids.csv",
            "--codebook", pipeline / "train" / "codebook.json", "--out", out,
        ) == 0
        info = worker_info()
        assert info["workers"] >= 1
        assert info["blas_setter"] in {None} | {s for _, s in quantizer._BLAS_SYMBOLS}
        for run_dir, command in [(pipeline / "train", "train"), (pipeline / "enc", "encode"),
                                 (out, "analyze")]:
            record = json.loads((run_dir / "manifest.json").read_text())["runs"][-1]
            assert record["command"] == command
            assert record["kmeans"] == info
        gen_record = json.loads((pipeline / "gen" / "manifest.json").read_text())["runs"][-1]
        assert "kmeans" not in gen_record


class TestOneMatrixPerStage:
    """Each stage holds one copy of the vectors and drops what it no longer reads."""

    def test_train_runs_on_the_loaded_array(self, pipeline, tmp_path, monkeypatch):
        loaded, trained_on = [], []
        load_residuals, kmeans = persist.load_residuals, quantizer.kmeans

        def tracked_load(path):
            residuals = load_residuals(path)
            loaded.append(weakref.ref(residuals))
            return residuals

        def checked_kmeans(points, *args, **kwargs):
            trained_on.append(points is loaded[0]())
            return kmeans(points, *args, **kwargs)

        def no_collection(path):
            raise AssertionError("train loaded an embedding collection")

        monkeypatch.setattr(persist, "load_residuals", tracked_load)
        monkeypatch.setattr(persist, "load_embeddings", no_collection)
        monkeypatch.setattr(quantizer, "kmeans", checked_kmeans)
        out = tmp_path / "train"
        assert run(
            "train", "--embeddings", pipeline / "gen" / "embeddings.json", "--num-layers", 3,
            "--codebook-size", 16, "--seed", 7, "--out", out,
        ) == 0
        assert trained_on == [True] * 3
        for name in ("codebook.json", "codebook.bin"):
            if (pipeline / "train" / name).exists():
                assert (out / name).read_bytes() == (pipeline / "train" / name).read_bytes()
        (record,) = json.loads((out / "manifest.json").read_text())["runs"]
        assert record["max_rss_mb"] > 0

    def test_train_peak_below_1_75_matrices(self, tmp_path, monkeypatch):
        # numpy reports its buffers to tracemalloc. One worker, since each
        # worker adds its own scoring scratch; a first run makes the imports
        # that train makes on first use, so that they are not counted.
        monkeypatch.setattr(quantizer, "_find_blas", lambda: None)
        monkeypatch.setattr(quantizer, "_WORKERS", quantizer._Workers())
        n, d = 20000, 32
        assert run("gen", "--kind", "clustered", "--n", n, "--d", d, "--clusters", 64,
                   "--seed", 1, "--out", tmp_path / "gen") == 0
        argv = ["train", "--embeddings", tmp_path / "gen" / "embeddings.json", "--num-layers", 2,
                "--codebook-size", 16, "--kmeans-iters", 3, "--seed", 2]
        assert run(*argv, "--out", tmp_path / "first") == 0
        tracemalloc.start()
        try:
            assert run(*argv, "--out", tmp_path / "train") == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.75 * n * d * 8

    def test_encode_frees_the_vectors_before_the_id_table(self, pipeline, tmp_path, monkeypatch):
        loaded, alive = [], []
        load_embeddings, sid_table = persist.load_embeddings, rqsid.cli.sid_table

        def tracked_load(path):
            data = load_embeddings(path)
            loaded.append(weakref.ref(data.vectors))
            return data

        def checked_table(*args, **kwargs):
            alive.append(loaded[0]() is not None)
            return sid_table(*args, **kwargs)

        monkeypatch.setattr(persist, "load_embeddings", tracked_load)
        monkeypatch.setattr(rqsid.cli, "sid_table", checked_table)
        out = tmp_path / "enc"
        assert run("encode", "--embeddings", pipeline / "gen" / "embeddings.json",
                   "--codebook", pipeline / "train" / "codebook.json", "--out", out) == 0
        assert alive == [False]
        for name in ("sids.csv", "encode_report.json"):
            assert (out / name).read_bytes() == (pipeline / "enc" / name).read_bytes()

    def test_analyze_frees_the_id_table_before_the_embeddings(self, pipeline, tmp_path,
                                                               monkeypatch):
        # analyze reads the vectors alone, never an embedding collection
        tables, alive = [], []
        load_sids, load_residuals = persist.load_sids, persist.load_residuals

        def tracked_sids(*args):
            table = load_sids(*args)
            tables.append(weakref.ref(table))
            return table

        def checked_load(path):
            alive.append(tables[0]() is not None)
            return load_residuals(path)

        def no_collection(path):
            raise AssertionError("analyze loaded an embedding collection")

        monkeypatch.setattr(persist, "load_sids", tracked_sids)
        monkeypatch.setattr(persist, "load_residuals", checked_load)
        monkeypatch.setattr(persist, "load_embeddings", no_collection)
        assert run("analyze", "--sids", pipeline / "enc" / "sids.csv",
                   "--codebook", pipeline / "train" / "codebook.json",
                   "--embeddings", pipeline / "gen" / "embeddings.json",
                   "--out", tmp_path / "analyze") == 0
        assert alive == [False]

    def test_records_minor_faults(self, pipeline):
        for stage, command in (("gen", "gen"), ("train", "train"), ("enc", "encode")):
            record = json.loads((pipeline / stage / "manifest.json").read_text())["runs"][-1]
            assert record["command"] == command
            assert isinstance(record["minor_faults"], int) and record["minor_faults"] >= 0


class TestManifestReplay:
    """A manifest's options, given back as a config file, reproduce its outputs."""

    @staticmethod
    def replay(run_dir, tmp_path):
        record = json.loads((run_dir / "manifest.json").read_text())["runs"][-1]
        cfg = tmp_path / "replay.json"
        cfg.write_text(json.dumps({record["command"]: record["config"]}))
        out = tmp_path / "replay"
        assert run(record["command"], "--config", cfg, "--out", out) == 0
        assert record["outputs"]
        for output in record["outputs"]:
            assert sha256_file(out / output["path"]) == output["sha256"], output["path"]

    @pytest.mark.parametrize("stage", ["gen", "train", "enc"])
    def test_pipeline_stage(self, pipeline, tmp_path, stage):
        self.replay(pipeline / stage, tmp_path)

    def test_sweep(self, tmp_path):
        assert run(
            "sweep", "--num-layers-set", "2,3", "--codebook-size-set", 4, "--n", 300,
            "--d", 4, "--clusters", 8, "--tol", 0, "--seed", 5, "--out", tmp_path / "sweep",
        ) == 0
        self.replay(tmp_path / "sweep", tmp_path)


class TestSweep:
    def test_grid_rows_and_direction(self, tmp_path):
        out = tmp_path / "sweep"
        assert run(
            "sweep", "--num-layers-set", "3", "--codebook-size-set", "8,16",
            "--regimes", "uniform,zipf", "--n", 3000, "--d", 8,
            "--clusters", 32, "--seed", 3, "--out", out,
        ) == 0
        lines = (out / "sweep.csv").read_text().splitlines()
        header = lines[0].split(",")
        rows = [dict(zip(header, line.split(","))) for line in lines[1:]]
        assert len(rows) == 4
        assert all(r["error"] == "" for r in rows)
        # paired cells share a seed; zipf concentrates layer 2 harder
        by_cell = {(r["codebook_size"], r["regime"]): r for r in rows}
        for m in ("8", "16"):
            zipf = float(by_cell[(m, "zipf")]["gini_l2"])
            uni = float(by_cell[(m, "uniform")]["gini_l2"])
            assert zipf > uni

    def test_cell_failure_recorded_not_fatal(self, tmp_path):
        out = tmp_path / "sweep"
        # clusters > n makes the zipf cells fail while uniform cells succeed
        assert run(
            "sweep", "--num-layers-set", "2", "--codebook-size-set", "4",
            "--regimes", "uniform,zipf", "--n", 30, "--d", 4,
            "--clusters", 64, "--seed", 1, "--out", out,
        ) == 0
        lines = (out / "sweep.csv").read_text().splitlines()
        header = lines[0].split(",")
        rows = [dict(zip(header, line.split(","))) for line in lines[1:]]
        assert len(rows) == 2
        status = {r["regime"]: bool(r["error"]) for r in rows}
        assert status["zipf"] and not status["uniform"]

    def test_programming_error_propagates(self, tmp_path, monkeypatch):
        def broken(*args):
            raise TypeError("broken cell")

        monkeypatch.setattr(rqsid.cli, "_sweep_cell", broken)
        with pytest.raises(TypeError, match="broken cell"):
            run("sweep", "--num-layers-set", "2", "--codebook-size-set", "4",
                "--regimes", "uniform", "--n", 30, "--d", 4, "--out", tmp_path / "sweep")
        assert not (tmp_path / "sweep").exists()
