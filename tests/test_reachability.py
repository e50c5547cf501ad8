"""Every `src/` function is entered by some CLI run, except a named few.

A child process sets a `sys.setprofile` hook, imports `rqsid.cli`, runs
`cli.main` in-process over one small run of each command form, and records
the code objects it entered; so code run at import counts as it does for a
command run from the shell. Inputs stay below `quantizer._SPLIT_MIN_ROWS`
rows, so no call splits onto pool threads, which the hook does not follow.
Run as a script, this file is that child: `python test_reachability.py DIR`.
"""

import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

# Functions no CLI run enters, each kept for a reason ROADMAP gives: C9 and
# its brute-force oracle, C7, and debugging.
UNENTERED = {
    "grsim.SequenceModel.observe_stream",
    "grsim.SequenceModel.probs",
    "grsim.SequenceModel.log_probs",
    "mitigation.elision_capacity",
    "core.RandomSource.__repr__",
}

SRC = Path(__file__).resolve().parents[1] / "src"


def key(code) -> tuple[str, int, str]:
    return code.co_filename, code.co_firstlineno, code.co_name


def source_functions() -> dict[tuple[str, int, str], str]:
    """Every function defined under `src/rqsid`, lambdas, comprehensions and
    class bodies aside, by its qualified name and keyed as a profiled
    frame's code object is."""
    found = {}

    def walk(code, prefix):
        for const in filter(inspect.iscode, code.co_consts):
            name = prefix + const.co_name
            # a class body runs once at import and is not a function
            if not const.co_flags & inspect.CO_OPTIMIZED:
                walk(const, name + ".")
                continue
            if not const.co_name.startswith("<"):
                found[key(const)] = name
            walk(const, name + ".<locals>.")

    for path in sorted((SRC / "rqsid").glob("*.py")):
        walk(compile(path.read_text(), str(path), "exec"), path.stem + ".")
    return found


def cli_runs(root: Path):
    """(argv, exit code) of each run, in order; later runs read earlier outputs."""
    emb = root / "gen" / "embeddings.json"
    codebook, sids = root / "train" / "codebook.json", root / "enc" / "sids.csv"
    varlen_codebook, varlen_sids = root / "mv" / "codebook.json", root / "mv" / "sids.csv"
    csv = root / "embeddings.csv"
    csv.write_text("item_id,v0,v1\n" + "".join(f"i{i},{i % 7},{i % 5}\n" for i in range(40)))
    # the same rows times 1e9: norms past the float32 bound, scored exactly
    huge = root / "huge.csv"
    huge.write_text("item_id,v0,v1\n" + "".join(
        f"i{i},{i % 7 * 1e9},{i % 5 * 1e9}\n" for i in range(40)))
    cfg = root / "cfg.json"
    cfg.write_text(json.dumps({"seed": 3, "train": {"num_layers": 2, "codebook_size": 4}}))
    bad = root / "bad.csv"
    bad.write_text("item_id,layer,token\na,1,0\na,2,0\na,x,0\n")
    bad_id = root / "bad_id.csv"
    bad_id.write_text("item_id,layer,token\na\x00,1,0\na\x00,2,0\na\x00,3,0\n")
    return [
        (("gen", "--kind", "uniform", "--n", 300, "--d", 4, "--out", root / "gen_u"), 0),
        (("gen", "--kind", "clustered", "--n", 3000, "--d", 8, "--clusters", 24,
          "--seed", 1, "--out", root / "gen"), 0),
        (("train", "--embeddings", emb, "--num-layers", 2, "--codebook-size", 4,
          "--kmeans-iters", 5, "--out", root / "small"), 0),
        (("train", "--embeddings", emb, "--num-layers", 3, "--codebook-size", 64,
          "--kmeans-iters", 5, "--out", root / "train"), 0),
        (("train", "--embeddings", csv, "--config", cfg, "--out", root / "csv"), 0),
        (("train", "--embeddings", huge, "--config", cfg, "--out", root / "huge"), 0),
        (("encode", "--embeddings", huge, "--codebook", root / "huge" / "codebook.json",
          "--out", root / "huge_enc"), 0),
        (("encode", "--embeddings", emb, "--codebook", codebook, "--out", root / "enc"), 0),
        (("analyze", "--sids", sids, "--codebook", codebook, "--out", root / "an"), 0),
        (("analyze", "--sids", sids, "--codebook", codebook, "--embeddings", emb,
          "--head-top-k", 4, "--out", root / "an_emb"), 0),
        (("mitigate", "--sids", sids, "--codebook", codebook, "--mode", "exchange",
          "--out", root / "mx"), 0),
        (("mitigate", "--sids", sids, "--codebook", codebook, "--mode", "remove",
          "--out", root / "mr"), 0),
        (("mitigate", "--sids", sids, "--codebook", codebook, "--mode", "varlen",
          "--head-mass", 0.5, "--out", root / "mv"), 0),
        (("simulate", "--sids", varlen_sids, "--codebook", varlen_codebook, "--records", 200,
          "--beam", 5, "--k-list", "1,5", "--trie", "on", "--out", root / "s_on"), 0),
        (("simulate", "--sids", sids, "--codebook", codebook, "--records", 200, "--beam", 5,
          "--k-list", "1,5", "--given-layers", 1, "--out", root / "s_off"), 0),
        (("simulate", "--sids", varlen_sids, "--codebook", varlen_codebook, "--interactions",
          root / "s_on" / "interactions.csv", "--beam", 5, "--k-list", "1,5",
          "--out", root / "s_in"), 0),
        (("sweep", "--n", 600, "--d", 4, "--clusters", 8, "--num-layers-set", 2,
          "--codebook-size-set", 4, "--regimes", "uniform,zipf", "--kmeans-iters", 5,
          "--out", root / "sweep"), 0),
        (("analyze", "--sids", bad, "--codebook", codebook, "--out", root / "bad"), 3),
        (("analyze", "--sids", bad_id, "--codebook", codebook, "--out", root / "bad_id"), 3),
    ]


def trace(root: Path) -> dict:
    """Run every CLI form under a profile hook set before rqsid is imported;
    return the runs that exited with another code than expected, and the
    source functions never entered."""
    entered = set()

    def profile(frame, event, arg):
        if event == "call":
            entered.add(key(frame.f_code))

    sys.setprofile(profile)
    try:
        from rqsid.cli import main

        failed = [list(map(str, argv)) for argv, code in cli_runs(root)
                  if main([str(a) for a in argv]) != code]
    finally:
        sys.setprofile(None)
    unentered = sorted(name for k, name in source_functions().items() if k not in entered)
    return {"failed": failed, "unentered": unentered}


def test_cli_enters_every_function_but_the_named_few(tmp_path):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SRC), *filter(None, [os.environ.get("PYTHONPATH")])]))
    subprocess.run([sys.executable, __file__, str(tmp_path)], env=env, check=True,
                   stdout=subprocess.DEVNULL, timeout=300)
    result = json.loads((tmp_path / "trace.json").read_text())
    assert result["failed"] == []
    assert set(result["unentered"]) == UNENTERED


if __name__ == "__main__":
    root = Path(sys.argv[1])
    (root / "trace.json").write_text(json.dumps(trace(root)))
