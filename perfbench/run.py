"""rqsid benchmark: run one workload's CLI pipeline and report its metrics.

    python3 perfbench/run.py --workload zipf-100k --seed 1 --seconds 45 --trace 0

Run from the root of a source checkout; rqsid is imported from `src`. Each
repetition runs in a fresh child process (closed loop: one client, one stage
at a time) with the BLAS pool pinned to the CPUs this process may use.
Set-up probes that only import and run `gen` come first. Repetitions then
start while the next one, taking as long as the last, still ends within
--seconds (at least one runs). With --trace 0 the last stdout line holds the
end-to-end metrics, medians over repetitions; with --trace 1 an extra traced
repetition follows and the line holds the per-layer metrics. Every metric,
the machine facts and the artifact digests are printed above that line and
saved under .perfbench-out/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS

SETUP_PROBES = 5
# A run must end within 180 s: children still running at this point are
# killed, and no untraced repetition starts after half of it, which leaves
# room for the traced one.
DEADLINE_S = 170.0
# Stages below this median are reported but count only inside the pipeline.
NOISE_FLOOR_S = 0.5
END_TO_END = {"setup_s": "s", "pipeline_ref_s": "s", "peak_rss_mb": "MB"}
STAGE_METRICS = ("train_s", "encode_s", "analyze_s", "mitigate_s",
                 "simulate_off_s", "simulate_on_s")
HERE = Path(__file__).resolve().parent


def _stage_metric(record) -> str:
    if record["kind"] == "simulate":
        return f"simulate_{record['trie']}_s"
    return f"{record['kind']}_s"


class Run:
    def __init__(self, root: Path, args, threads: int):
        self.root, self.args = root, args
        self.env = dict(os.environ)
        for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
            self.env[var] = str(threads)
        self.scratch = root / ".perfbench-work" / f"{args.workload}-{args.seed}-{os.getpid()}"
        self.started = time.monotonic()
        self.count = 0

    def child(self, *extra: str) -> dict | None:
        """Run one child to completion; None if it crashed or timed out."""
        self.count += 1
        work = self.scratch / f"rep{self.count}"
        out = self.scratch / f"rep{self.count}.json"
        remaining = DEADLINE_S + 5 - (time.monotonic() - self.started)
        cmd = [sys.executable, str(HERE / "child.py"), "--workload", self.args.workload,
               "--seed", str(self.args.seed), "--work", str(work), "--out", str(out),
               *extra, "--spawned"]
        try:
            subprocess.run(cmd + [repr(time.monotonic())], cwd=self.root, env=self.env,
                           stdout=subprocess.DEVNULL, timeout=max(remaining, 1.0),
                           check=True)
        except (subprocess.CalledProcessError, subprocess.TimeoutExpired) as e:
            print(f"child failed: {e}", file=sys.stderr)
            return None
        finally:
            shutil.rmtree(work, ignore_errors=True)
        return json.loads(out.read_text())

    def elapsed(self) -> float:
        return time.monotonic() - self.started


def _machine(threads: int, root: Path) -> dict:
    import numpy

    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                                text=True, timeout=30).stdout.strip() or None
    except (OSError, subprocess.TimeoutExpired):
        commit = None
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas"),
        "blas_threads": threads,
        "git_commit": commit,
    }


def _tally(children) -> tuple[int, int]:
    attempted = failed = 0
    for c in children:
        if c is None:
            attempted, failed = attempted + 1, failed + 1
            continue
        for record in c["stages"]:
            attempted += 1
            failed += bool(record["rc"] != 0 or record.get("problems"))
    return attempted, failed


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "rqsid" / "cli.py").is_file():
        print(f"no rqsid source under {root / 'src'}; run from a checkout root",
              file=sys.stderr)
        return 2
    threads = len(os.sched_getaffinity(0))
    run = Run(root, args, threads)
    try:
        # Set-up probes sit on both sides of the repetitions, so that their
        # median samples the host's speed at more than one moment.
        probes = [run.child("--setup-only") for _ in range(SETUP_PROBES // 2)]
        reps_started = run.elapsed()
        reps = []
        while True:
            began = run.elapsed()
            reps.append(run.child())
            # Start another only if one as long as this one still fits.
            now = run.elapsed()
            ends = now + (now - began)
            if ends - reps_started > args.seconds or ends > DEADLINE_S / 2:
                break
        probes += [run.child("--setup-only") for _ in range(SETUP_PROBES - len(probes))]
        traced = run.child("--trace", str(run.scratch / "spans.json")) if args.trace else None
        spans = (run.scratch / "spans.json").read_text() if traced else None
    finally:
        shutil.rmtree(run.scratch, ignore_errors=True)

    untraced = probes + reps
    attempted, failed = _tally(untraced + ([traced] if args.trace else []))
    good = [r for r in reps if r is not None]
    if not good or (args.trace and traced is None):
        print("no " + ("traced " if good else "") + "repetition completed", file=sys.stderr)
        return 1
    if traced is not None and traced["missing_calls"]:
        print("traced run recorded no calls of: " + ", ".join(traced["missing_calls"])
              + "; the trace targets are out of date", file=sys.stderr)
        return 1

    def median(key):
        return statistics.median(r[key] for r in good)

    setups = [c["setup_s"] for c in untraced if c is not None]
    e2e = {"setup_s": statistics.median(setups), "pipeline_ref_s": median("pipeline_ref_s"),
           "peak_rss_mb": median("peak_rss_mb")}
    # Printed and saved, not gated: wall times swing with the host's speed.
    wall = {"setup_wall_s": statistics.median(c["setup_wall_s"] for c in untraced
                                              if c is not None),
            "pipeline_wall_s": median("pipeline_s"), "probe_s": median("probe_s")}
    stage_medians = {}
    for name in STAGE_METRICS:
        per_rep = [[(s["s"], s["ref_s"]) for s in r["stages"][1:] if _stage_metric(s) == name]
                   for r in good]
        if any(per_rep):
            stage_medians[name] = [statistics.median(sum(t[i] for t in rep) for rep in per_rep)
                                   for i in (0, 1)]
    error_ratio = failed / attempted

    out = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
           "repetitions": len(reps), "setup_samples": len(setups),
           "machine": _machine(threads, root), "end_to_end": e2e, "wall": wall,
           "stages": {k: {"wall_s": w, "ref_s": r} for k, (w, r) in stage_medians.items()},
           "error_ratio": error_ratio, "digests": good[0]["digests"],
           "problems": {s["name"]: s["problems"] for r in good for s in r["stages"]
                        if s.get("problems")}}
    print(f"workload {args.workload} seed {args.seed}: {len(reps)} repetition(s), "
          f"{attempted} stages attempted, {failed} failed")
    print("machine " + json.dumps(out["machine"], sort_keys=True))
    for name, value in e2e.items():
        print(f"  {name:<16} {value:12.4f} {END_TO_END[name]}")
    for name, value in wall.items():
        print(f"  {name:<16} {value:12.4f} s  (wall, not gated)")
    for name, (wall_s, ref_s) in stage_medians.items():
        note = "  (under 0.5 s: counted in pipeline only)" if ref_s < NOISE_FLOOR_S else ""
        print(f"  {name:<16} {ref_s:12.4f} s ref, {wall_s:.4f} s wall{note}")
    print(f"  {'error_ratio':<16} {error_ratio:12.4f} ratio")
    for stage, files in out["digests"].items():
        for path, digest in files.items():
            print(f"  sha256 {stage}/{path} {digest}")
    for stage, problems in out["problems"].items():
        for p in problems:
            print(f"  FAILED CHECK {stage}: {p}")

    if args.trace:
        layer = dict(traced["layers"])
        layer["trace_overhead_s"] = (traced["pipeline_s"] - wall["pipeline_wall_s"], "s")
        out["layers"] = layer
        for name, (value, unit) in layer.items():
            print(f"  {name:<40} {value:14.6g} {unit}")
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in layer.items()}
    else:
        metrics = {k: {"value": v, "unit": END_TO_END[k]} for k, v in e2e.items()}

    results = root / ".perfbench-out"
    results.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (results / f"{stem}.json").write_text(json.dumps(out, indent=2, sort_keys=True) + "\n")
    if spans is not None:
        (results / f"{stem}-spans.json").write_text(spans)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
