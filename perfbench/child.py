"""One repetition of a workload in a fresh process.

Run by run.py, never by hand: it imports rqsid from the checkout's `src`,
runs the gen stage (the set-up) and then, unless --setup-only, every
pipeline stage in order through `rqsid.cli.main`, one at a time. Set-up
and each stage record their wall time and their reference time
(`speed.py`); an untraced pipeline runs under the host-speed probe. Stage outputs are
checked after the last stage, outside the timed pipeline, and the result is
written as JSON to --out.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
import traceback
from pathlib import Path

import checks
import layers
import speed
from spans import Tracer
from workloads import WORKLOADS, Stage, Workload, stage_argv


def _timed(cli_main, argv) -> tuple[int, float, float]:
    start = time.monotonic()
    try:
        rc = cli_main(argv)
    except Exception:  # a crashing stage is a failed stage; later stages still run
        traceback.print_exc()
        rc = -1
    return rc, start, time.monotonic()


def _check(stage: Stage, wl: Workload, work: Path, seed: int) -> list[str]:
    n = int(wl.gen.flag("--n"))
    try:
        if stage.kind == "gen":
            return checks.check_gen(work / "gen", n, int(wl.gen.flag("--d")))
        if stage.kind == "train":
            return checks.check_train(work / "train")
        if stage.kind == "encode":
            return checks.check_encode(work / "gen", work / "train", work / "encode", seed)
        if stage.kind == "analyze":
            return checks.check_analyze(work / "analyze", n)
        if stage.kind == "mitigate":
            return checks.check_mitigate(work / "encode", work / "mitigate",
                                         int(wl.stages[0].flag("--num-layers")))
        if stage.kind == "simulate":
            return checks.check_simulate(work / stage.name,
                                         int(stage.flag("--test-records")),
                                         stage.flag("--trie"))
    except (OSError, ValueError, KeyError, IndexError) as e:
        return [f"check could not read the outputs: {type(e).__name__}: {e}"]
    raise ValueError(f"no check for stage kind {stage.kind!r}")


def _manifests(work: Path, stages) -> tuple[dict, int]:
    """Stage -> {output path: sha256} from each manifest, and bytes written."""
    digests, written = {}, 0
    for stage in stages:
        path = work / stage.name / "manifest.json"
        if not path.exists():
            continue
        outputs = json.loads(path.read_text())["runs"][-1]["outputs"]
        digests[stage.name] = {o["path"]: o["sha256"] for o in outputs}
        written += sum(o["bytes"] for o in outputs)
    return digests, written


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--work", required=True, help="scratch directory for stage outputs")
    ap.add_argument("--spawned", type=float, required=True,
                    help="time.monotonic() when the parent started this process")
    ap.add_argument("--out", required=True, help="result JSON path")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--trace", help="record spans and write them to this path")
    args = ap.parse_args()

    sys.path.insert(0, str(Path.cwd() / "src"))
    wl = WORKLOADS[args.workload]
    work = Path(args.work)
    tracer = None
    if args.trace:
        # cli imports its dependencies lazily; load them all first so every
        # namespace that binds a wrapped function exists when it is patched.
        import rqsid.cli  # noqa: F401
        import rqsid.persist  # noqa: F401

        tracer = Tracer(f"{wl.name}-seed{args.seed}-traced")
        tracer.install(layers.TARGETS)
    from rqsid.cli import main as cli_main

    all_stages = (wl.gen,) + wl.stages
    rc, start, end = _timed(cli_main, stage_argv(wl.gen, str(work), args.seed))
    setup_wall = time.monotonic() - args.spawned
    result = {"setup_s": speed.scale(setup_wall, speed.burst()), "setup_wall_s": setup_wall,
              "stages": [{"name": "gen", "kind": "gen", "rc": rc, "s": end - start}]}
    if not args.setup_only:
        # The traced repetition runs without the probe, so that spans hold
        # only program time.
        probe = speed.SpeedProbe(tick_s=0 if tracer else speed.TICK_S)
        timed = []
        with probe:
            for stage in wl.stages:
                seen = len(probe.samples)
                rc, start, end = _timed(cli_main, stage_argv(stage, str(work), args.seed))
                timed.append((end - start, probe.samples[seen:]))
                result["stages"].append({"name": stage.name, "kind": stage.kind,
                                         "trie": stage.flag("--trie"), "rc": rc})
        pipeline = result["stages"][1:]
        for record, (wall, ticks), ref in zip(pipeline, timed, speed.reference_times(timed)):
            record.update(s=wall - sum(ticks), ref_s=ref, ticks=len(ticks))
        result["pipeline_s"] = sum(r["s"] for r in pipeline)
        result["pipeline_ref_s"] = sum(r["ref_s"] for r in pipeline)
        result["probe_s"] = sum(sum(ticks) for _, ticks in timed)
        if tracer is not None:
            tracer.uninstall()
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        for stage, record in zip(all_stages, result["stages"]):
            record["problems"] = _check(stage, wl, work, args.seed)
        result["digests"], written = _manifests(work, all_stages)
        if tracer is not None:
            result["layers"] = layers.layer_metrics(tracer, written)
            result["missing_calls"] = layers.missing_calls(tracer, wl.expected_calls)
            Path(args.trace).write_text(json.dumps(tracer.dump()))
    Path(args.out).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
