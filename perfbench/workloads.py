"""Workload definitions: the CLI stages each workload runs, in order.

A stage is (name, kind, argv). `name` is unique within a workload and names
the stage's output directory; `kind` is the CLI command, used to group stage
times (the trie modes of `simulate` are told apart by its `--trie` flag).
Paths in argv are written relative to the run's work directory as
`{work}/<stage>/<file>` and filled in by `stage_argv`.
"""

from __future__ import annotations

from dataclasses import dataclass

SIM_100K = ["--records", "4000", "--test-records", "200", "--beam", "50",
            "--k-list", "1,5,10,50"]
SIM_2K = ["--records", "4000", "--test-records", "600", "--history-min", "2",
          "--history-max", "4", "--pop-s", "0.8", "--repeat-prob", "0.7",
          "--beam", "50", "--k-list", "1,5,10,50"]


@dataclass(frozen=True)
class Stage:
    name: str
    kind: str
    argv: tuple[str, ...]

    def flag(self, name: str) -> str | None:
        return self.argv[self.argv.index(name) + 1] if name in self.argv else None


@dataclass(frozen=True)
class Workload:
    name: str
    gen: Stage
    stages: tuple[Stage, ...]
    # Wrapped functions the traced run must see called at least once.
    expected_calls: frozenset[str]


def _stage(name, kind, *argv) -> Stage:
    return Stage(name, kind, (kind,) + tuple(argv))


def _id_stages(tol: tuple[str, ...], codebook_size: str, analyze: bool) -> list[Stage]:
    """train -> encode -> [analyze] -> mitigate (varlen, head mass 0.5)."""
    stages = [
        _stage("train", "train", "--embeddings", "{work}/gen/embeddings.json",
               "--num-layers", "3", "--codebook-size", codebook_size, *tol,
               "--seed", "{seed}"),
        _stage("encode", "encode", "--embeddings", "{work}/gen/embeddings.json",
               "--codebook", "{work}/train/codebook.json"),
    ]
    if analyze:
        stages.append(
            _stage("analyze", "analyze", "--sids", "{work}/encode/sids.csv",
                   "--codebook", "{work}/train/codebook.json",
                   "--embeddings", "{work}/gen/embeddings.json"))
    stages.append(
        _stage("mitigate", "mitigate", "--sids", "{work}/encode/sids.csv",
               "--codebook", "{work}/train/codebook.json",
               "--mode", "varlen", "--head-mass", "0.5"))
    return stages


def _simulate(name, catalog_stage, codebook_stage, trie, settings) -> Stage:
    return _stage(name, "simulate", "--sids", f"{{work}}/{catalog_stage}/sids.csv",
                  "--codebook", f"{{work}}/{codebook_stage}/codebook.json",
                  *settings, "--trie", trie, "--seed", "{seed}")


_ALWAYS = frozenset({
    "cli.train", "cli.encode", "cli.mitigate",
    "datagen.gen", "quantizer.train_rq", "quantizer.kmeans", "quantizer.encode_all",
    "persist.load_embeddings", "persist.load_codebook", "persist.save_codebook",
    "persist.load_sids", "persist.save_sids", "persist.save_report", "persist.record_run",
    "diagnostics.hourglass_report", "diagnostics.token_histogram",
    "diagnostics.head_tail_split",
    "mitigation.varlen_topk", "mitigation.post_mitigation_report",
})
_GRSIM = frozenset({
    "cli.simulate", "persist.save_interactions", "grsim.gen_interactions",
    "grsim.train_seq_model", "grsim.build_trie", "grsim.evaluate.on",
    "grsim.beam_search.on", "core.sid_to_flat_tokens",
})

# Train runs with --tol 0 at 100k so every layer runs its full 25 Lloyd
# rounds: with the default tol the zipf layer-1 round count ranges 7-10 by
# data seed, which alone moves train time by +-15% from seed to seed.
_FULL_ROUNDS = ("--tol", "0")

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "zipf-100k",
            _stage("gen", "gen", "--kind", "clustered", "--n", "100000", "--d", "32",
                   "--clusters", "512", "--zipf-s", "1.2", "--seed", "{seed}"),
            tuple(_id_stages(_FULL_ROUNDS, "256", analyze=True) + [
                _simulate("simulate", "mitigate", "mitigate", "on", SIM_100K),
            ]),
            _ALWAYS | _GRSIM | {"cli.analyze"},
        ),
        Workload(
            "uniform-100k",
            _stage("gen", "gen", "--kind", "uniform", "--n", "100000", "--d", "32",
                   "--seed", "{seed}"),
            tuple(_id_stages(_FULL_ROUNDS, "256", analyze=True)),
            _ALWAYS | {"cli.analyze"},
        ),
        Workload(
            "retrieval-2k",
            _stage("gen", "gen", "--kind", "clustered", "--n", "2000", "--d", "8",
                   "--clusters", "64", "--seed", "{seed}"),
            tuple(_id_stages((), "16", analyze=False) + [
                _simulate("sim-full-off", "encode", "train", "off", SIM_2K),
                _simulate("sim-full-on", "encode", "train", "on", SIM_2K),
                _simulate("sim-varlen-off", "mitigate", "mitigate", "off", SIM_2K),
                _simulate("sim-varlen-on", "mitigate", "mitigate", "on", SIM_2K),
            ]),
            _ALWAYS | _GRSIM | {"grsim.evaluate.off", "grsim.beam_search.off"},
        ),
    )
}


def stage_argv(stage: Stage, work: str, seed: int) -> list[str]:
    argv = [a.format(work=work, seed=seed) for a in stage.argv]
    return argv + ["--out", f"{work}/{stage.name}"]
