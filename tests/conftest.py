"""Shared fixtures for the acceptance benchmarks.

The heavy 10-seed runs are session-scoped so every criterion reads from the
same trained artifacts. Acceptance tests register one line per criterion,
printed in the terminal summary.
"""

import time

import numpy as np
import pytest

_ACCEPTANCE_LINES: list[tuple[str, bool, str]] = []

BENCH_SEEDS = tuple(range(10))
BENCH_N = 100_000
BENCH_D = 32
BENCH_M = 256
BENCH_L = 3
BENCH_CLUSTERS = 512
BENCH_ZIPF_S = 1.2
BENCH_RADIUS = 0.05

GR_SEEDS = tuple(range(10))


def record_criterion(name: str, ok: bool, detail: str) -> None:
    _ACCEPTANCE_LINES.append((name, ok, detail))


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _ACCEPTANCE_LINES:
        return
    terminalreporter.section("acceptance criteria")
    for name, ok, detail in _ACCEPTANCE_LINES:
        status = "PASS" if ok else "FAIL"
        terminalreporter.write_line(f"{status}  {name}: {detail}")


@pytest.fixture(scope="session")
def zipf_bench():
    """Ten full-scale zipf-clustered runs: train, encode, diagnose."""
    from rqsid.core import QuantizerConfig, RandomSource
    from rqsid.datagen import ClusterSpec, gen_clustered
    from rqsid.diagnostics import hourglass_report
    from rqsid.quantizer import encode_all, train_rq

    spec = ClusterSpec(
        num_clusters=BENCH_CLUSTERS,
        radius=BENCH_RADIUS,
        center_scale=1.0,
        size_law="zipf",
        zipf_exponent=BENCH_ZIPF_S,
    )
    runs = []
    t0 = time.perf_counter()
    for seed in BENCH_SEEDS:
        config = QuantizerConfig(
            num_layers=BENCH_L,
            codebook_size=BENCH_M,
            dim=BENCH_D,
            kmeans_iters=25,
            seed=seed,
            convergence_tol=1e-4,
        )
        data, _ = gen_clustered(BENCH_N, BENCH_D, spec, RandomSource(seed))
        codebook = train_rq(np.array(data.vectors, order="F"), config, RandomSource(seed))
        sids, sq_norms = encode_all(data.vectors, codebook)
        runs.append(
            {
                "seed": seed,
                "config": config,
                "sids": sids,
                "report": hourglass_report(sids, config),
                "recon": [float(m) for m in sq_norms[:, 1:].mean(axis=0)],
            }
        )
    elapsed = time.perf_counter() - t0
    return {"runs": runs, "elapsed_s": elapsed}


@pytest.fixture(scope="session")
def uniform_bench():
    """Ten uniform runs paired with zipf_bench by seed and config."""
    from rqsid.core import QuantizerConfig, RandomSource
    from rqsid.datagen import gen_uniform
    from rqsid.diagnostics import hourglass_report
    from rqsid.quantizer import encode_all, train_rq

    runs = []
    for seed in BENCH_SEEDS:
        config = QuantizerConfig(
            num_layers=BENCH_L,
            codebook_size=BENCH_M,
            dim=BENCH_D,
            kmeans_iters=25,
            seed=seed,
            convergence_tol=1e-4,
        )
        data = gen_uniform(BENCH_N, BENCH_D, RandomSource(seed))
        codebook = train_rq(np.array(data.vectors, order="F"), config, RandomSource(seed))
        sids, sq_norms = encode_all(data.vectors, codebook)
        runs.append(
            {
                "seed": seed,
                "report": hourglass_report(sids, config),
                "recon": [float(m) for m in sq_norms[:, 1:].mean(axis=0)],
            }
        )
    return runs


@pytest.fixture(scope="session")
def gr_bench():
    """Ten seeds of the retrieval simulation over a skewed catalog."""
    from rqsid.core import QuantizerConfig, RandomSource, sid_table
    from rqsid.datagen import ClusterSpec, gen_clustered
    from rqsid.diagnostics import Selector, head_tail_split, token_histogram
    from rqsid.grsim import InteractionSpec, evaluate, gen_interactions, train_seq_model
    from rqsid.quantizer import encode_all, train_rq

    runs = []
    for seed in GR_SEEDS:
        config = QuantizerConfig(
            num_layers=3, codebook_size=16, dim=8, kmeans_iters=25,
            seed=seed, convergence_tol=1e-4,
        )
        spec = ClusterSpec(
            num_clusters=64, radius=0.05, center_scale=1.0,
            size_law="zipf", zipf_exponent=1.2,
        )
        data, _ = gen_clustered(2000, 8, spec, RandomSource(seed))
        codebook = train_rq(np.array(data.vectors, order="F"), config, RandomSource(seed))
        sid_arr, _ = encode_all(data.vectors, codebook)
        table = sid_table(data.ids, sid_arr, config)
        hist = token_histogram(sid_arr, 2, config.codebook_size)
        head, _ = head_tail_split(hist, Selector.mass(0.5))

        inter = dict(min_history=2, max_history=4, pop_exponent=0.8, repeat_prob=0.7)
        train_rng, test_rng = RandomSource(seed + 1000).split(2)
        train = gen_interactions(
            len(data.ids), InteractionSpec(num_records=4000, **inter), train_rng, "train"
        )
        test = gen_interactions(
            len(data.ids), InteractionSpec(num_records=600, **inter), test_rng, "test"
        )
        model = train_seq_model(train, table, config, order=3, alpha=0.1)
        k_list = (1, 5, 10, 50)
        runs.append(
            {
                "seed": seed,
                "off": evaluate(model, test, table, config, head, 50, k_list, "off"),
                "on": evaluate(model, test, table, config, head, 50, k_list, "on"),
            }
        )
    return runs
