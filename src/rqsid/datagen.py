"""Deterministic synthetic embedding generators: uniform and long-tail clustered.

The clustered generator realizes the regime where a handful of clusters hold
most of the points (zipf sizes) so that residual magnitudes after the first
quantization layer are strongly mixed.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from .core import ConfigError, DataError, EmbeddingCollection, RandomSource

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class ClusterSpec:
    """Cluster layout for `gen_clustered`.

    size_law "uniform" splits points as evenly as possible; "zipf" gives
    cluster i a share proportional to 1 / i**zipf_exponent.
    """

    num_clusters: int
    radius: float
    center_scale: float
    size_law: str = "uniform"
    zipf_exponent: float = 1.0

    def __post_init__(self) -> None:
        if self.num_clusters < 1:
            raise ConfigError(f"num_clusters must be >= 1, got {self.num_clusters}")
        if not (math.isfinite(self.radius) and self.radius > 0):
            raise ConfigError(f"radius must be finite and > 0, got {self.radius}")
        if not (math.isfinite(self.center_scale) and self.center_scale > 0):
            raise ConfigError(f"center_scale must be finite and > 0, got {self.center_scale}")
        if self.size_law not in ("uniform", "zipf"):
            raise ConfigError(f"size_law must be 'uniform' or 'zipf', got {self.size_law!r}")
        if not math.isfinite(self.zipf_exponent) or (
            self.size_law == "zipf" and self.zipf_exponent <= 0
        ):
            raise ConfigError(f"zipf_exponent must be finite and > 0, got {self.zipf_exponent}")
        if self.radius >= self.center_scale:
            log.warning(
                "cluster radius %g >= center_scale %g; clusters will overlap heavily",
                self.radius,
                self.center_scale,
            )


def _item_ids(n: int) -> np.ndarray:
    # made one id at a time, with no list of n strings
    ids = np.fromiter((f"item_{i:06d}" for i in range(n)), ("U", len(f"item_{n - 1:06d}")), n)
    ids.flags.writeable = False  # the collection adopts it
    return ids


def cluster_sizes(n: int, spec: ClusterSpec) -> np.ndarray:
    """Integer cluster sizes summing to n, by largest-remainder rounding.

    Weights are equal for the uniform law and 1 / rank**s for zipf, so zipf
    sizes are non-increasing in cluster rank.
    """
    k = spec.num_clusters
    if k > n:
        raise ConfigError(f"num_clusters {k} exceeds point count {n}")
    if spec.size_law == "uniform":
        weights = np.ones(k, dtype=np.float64)
    else:
        weights = 1.0 / np.arange(1, k + 1, dtype=np.float64) ** spec.zipf_exponent
    quotas = n * weights / weights.sum()
    sizes = np.floor(quotas).astype(np.int64)
    remainder = int(n - sizes.sum())
    if remainder:
        fractional = quotas - sizes
        # ties broken toward the lower cluster index
        order = np.argsort(-fractional, kind="stable")
        sizes[order[:remainder]] += 1
    return sizes


def gen_uniform(n: int, d: int, rng: RandomSource) -> EmbeddingCollection:
    """n points i.i.d. uniform on [-1, 1]^d."""
    if n < 1:
        raise ConfigError(f"n must be >= 1, got {n}")
    if d < 1:
        raise ConfigError(f"d must be >= 1, got {d}")
    vectors = rng.generator().uniform(-1.0, 1.0, size=(n, d))
    vectors.flags.writeable = False  # the collection adopts it
    return EmbeddingCollection(_item_ids(n), vectors)


def gen_clustered(
    n: int, d: int, spec: ClusterSpec, rng: RandomSource
) -> tuple[EmbeddingCollection, np.ndarray]:
    """Gaussian blobs around uniformly placed centers.

    Cluster sizes follow the spec's size law; the per-cluster random stream is
    split off the parent source so generation order never changes the output.
    Returns the collection and the true cluster label of every point.
    """
    if n < 1:
        raise ConfigError(f"n must be >= 1, got {n}")
    if d < 1:
        raise ConfigError(f"d must be >= 1, got {d}")
    sizes = cluster_sizes(n, spec)
    sources = rng.split(1 + spec.num_clusters)
    centers = sources[0].generator().uniform(
        -spec.center_scale, spec.center_scale, size=(spec.num_clusters, d)
    )
    vectors = np.empty((n, d), dtype=np.float64)
    labels = np.empty(n, dtype=np.int64)
    start = 0
    for c, size in enumerate(sizes):
        stop = start + int(size)
        # drawn in place: centers[c] + radius * noise, without temporaries
        block = sources[1 + c].generator().standard_normal(out=vectors[start:stop])
        block *= spec.radius
        block += centers[c]
        labels[start:stop] = c
        start = stop
    if not np.all(np.isfinite(vectors)):
        raise DataError("generated vectors contain non-finite components")
    vectors.flags.writeable = False  # the collection adopts it
    return EmbeddingCollection(_item_ids(n), vectors), labels
