import numpy as np
import pytest

from rqsid.core import ConfigError, RandomSource
from rqsid.datagen import ClusterSpec, cluster_sizes, gen_clustered, gen_uniform


class TestClusterSpec:
    def test_bad_size_law(self):
        with pytest.raises(ConfigError):
            ClusterSpec(num_clusters=3, radius=0.1, center_scale=1.0, size_law="pareto")

    def test_bad_zipf_exponent(self):
        with pytest.raises(ConfigError):
            ClusterSpec(num_clusters=3, radius=0.1, center_scale=1.0, size_law="zipf", zipf_exponent=0.0)

    def test_radius_warning(self, caplog):
        with caplog.at_level("WARNING"):
            ClusterSpec(num_clusters=2, radius=2.0, center_scale=1.0)
        assert any("radius" in r.message for r in caplog.records)


class TestClusterSizes:
    def test_uniform_divides_evenly(self):
        spec = ClusterSpec(num_clusters=3, radius=0.1, center_scale=1.0)
        np.testing.assert_array_equal(cluster_sizes(12, spec), [4, 4, 4])

    def test_zipf_largest_remainder(self):
        # weights 1, 1/2, 1/3 over 11 points -> quotas 6, 3, 2 exactly
        spec = ClusterSpec(num_clusters=3, radius=0.1, center_scale=1.0, size_law="zipf", zipf_exponent=1.0)
        np.testing.assert_array_equal(cluster_sizes(11, spec), [6, 3, 2])

    def test_sizes_sum_and_monotone(self):
        gen = np.random.default_rng(0)
        for _ in range(50):
            k = int(gen.integers(1, 40))
            n = int(gen.integers(k, 5000))
            s = float(gen.uniform(0.2, 2.5))
            spec = ClusterSpec(num_clusters=k, radius=0.1, center_scale=1.0, size_law="zipf", zipf_exponent=s)
            sizes = cluster_sizes(n, spec)
            assert sizes.sum() == n
            assert all(b <= a for a, b in zip(sizes, sizes[1:]))

    def test_more_clusters_than_points(self):
        spec = ClusterSpec(num_clusters=5, radius=0.1, center_scale=1.0)
        with pytest.raises(ConfigError):
            cluster_sizes(3, spec)


class TestGenUniform:
    def test_deterministic_and_distinct(self):
        a = gen_uniform(4, 2, RandomSource(5))
        b = gen_uniform(4, 2, RandomSource(5))
        np.testing.assert_array_equal(a.vectors, b.vectors)
        assert a.ids.tolist() == b.ids.tolist() == [f"item_{i:06d}" for i in range(4)]
        assert len({tuple(v) for v in a.vectors}) == 4

    def test_bounds(self):
        data = gen_uniform(5000, 7, RandomSource(1))
        assert data.vectors.min() >= -1.0
        assert data.vectors.max() <= 1.0

    def test_mean_within_clt_bound(self):
        n = 100_000
        data = gen_uniform(n, 3, RandomSource(2))
        # component variance 1/3, so the sample mean has sigma = 1/sqrt(3n)
        bound = 5.0 / np.sqrt(3 * n)
        assert np.all(np.abs(data.vectors.mean(axis=0)) < bound)

    def test_zero_points_rejected(self):
        with pytest.raises(ConfigError):
            gen_uniform(0, 3, RandomSource(0))


class TestGenClustered:
    def test_deterministic(self):
        spec = ClusterSpec(num_clusters=4, radius=0.05, center_scale=1.0, size_law="zipf", zipf_exponent=1.0)
        a, la = gen_clustered(100, 3, spec, RandomSource(9))
        b, lb = gen_clustered(100, 3, spec, RandomSource(9))
        np.testing.assert_array_equal(a.vectors, b.vectors)
        np.testing.assert_array_equal(la, lb)

    def test_labels_match_generating_cluster(self):
        # tight blobs far apart: nearest generated center identifies the blob
        spec = ClusterSpec(num_clusters=5, radius=1e-3, center_scale=10.0)
        data, labels = gen_clustered(200, 4, spec, RandomSource(3))
        assert labels.shape == (200,)
        assert set(np.unique(labels)) == set(range(5))
        for c in range(5):
            members = data.vectors[labels == c]
            spread = members - members.mean(axis=0)
            assert np.abs(spread).max() < 0.1

    def test_too_many_clusters(self):
        spec = ClusterSpec(num_clusters=10, radius=0.1, center_scale=1.0)
        with pytest.raises(ConfigError):
            gen_clustered(5, 2, spec, RandomSource(0))


def reference_gen_clustered(n, d, spec, rng):
    """The vectors of `gen_clustered` as it drew each cluster into two
    temporaries: centers[c] + radius * noise."""
    sources = rng.split(1 + spec.num_clusters)
    centers = sources[0].generator().uniform(
        -spec.center_scale, spec.center_scale, size=(spec.num_clusters, d)
    )
    return np.concatenate([
        centers[c] + spec.radius * sources[1 + c].generator().standard_normal((int(size), d))
        for c, size in enumerate(cluster_sizes(n, spec))
    ])


class TestClusteredInPlace:
    @pytest.mark.parametrize("n, d, spec", [
        (1000, 8, ClusterSpec(num_clusters=16, radius=0.05, center_scale=1.0,
                              size_law="zipf", zipf_exponent=1.2)),
        (777, 3, ClusterSpec(num_clusters=5, radius=0.7, center_scale=2.5)),
        (64, 32, ClusterSpec(num_clusters=64, radius=1e-3, center_scale=10.0,
                             size_law="zipf", zipf_exponent=0.5)),
    ], ids=["zipf", "uniform", "one-per-cluster"])
    def test_matches_temporary_formula(self, n, d, spec):
        data, _ = gen_clustered(n, d, spec, RandomSource(11))
        want = reference_gen_clustered(n, d, spec, RandomSource(11))
        assert data.vectors.tobytes() == want.tobytes()
