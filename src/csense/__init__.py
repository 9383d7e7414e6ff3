"""Compressive sensing toolkit built around the coherence index.

Measurement-matrix construction (partial DFT, equiangular tight frames,
Gaussian, subsampling), uniqueness analytics (coherence, Welch bound,
rank scans, brute-force isometry constants), matching-pursuit recovery
with an exhaustive ground-truth search, and a Monte Carlo harness.
"""

from . import coherence, errors, experiments, matrices, recovery, serialization  # noqa: F401

__version__ = "0.1.0"
