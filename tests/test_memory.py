"""The n x n memory contract of the kernel and graph fits.

Each fit's peak of traced allocations, in units of one n x n float64 array,
stays at most _BOUND. A warm-up call on a few rows first loads the deferred
scipy modules, so imports do not count.
"""

import tracemalloc

import numpy as np
import pytest

import refractory as r
from refractory.cluster import AGGLOMERATIVE, SPECTRAL, ClusterConfig, fit_clusters

_N, _D = 1500, 50
_BOUND = 2.5


@pytest.fixture(scope="module")
def counts():
    return np.random.default_rng(0).poisson(0.3, size=(_N, _D)).astype(float)


@pytest.fixture(scope="module")
def kpca_model(counts):
    return r.fit_reducer("KPCA", counts, 20)


FITS = {
    "KPCA-fit": lambda X, model: r.fit_reducer("KPCA", X, 20),
    "KPCA-transform": lambda X, model: r.transform(model, X),
    "ISOMAP": lambda X, model: r.fit_reducer("ISOMAP", X, 20),
    "SPECTRAL": lambda X, model: fit_clusters(ClusterConfig(SPECTRAL, 2, restarts=1), X),
    "AGGLOMERATIVE": lambda X, model: fit_clusters(ClusterConfig(AGGLOMERATIVE, 2), X),
}


@pytest.mark.parametrize("name", FITS)
def test_fit_peaks_at_a_bounded_number_of_n_by_n_arrays(counts, kpca_model, name):
    fit = FITS[name]
    fit(counts[:60], kpca_model)
    tracemalloc.start()
    try:
        fit(counts, kpca_model)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    n_by_n = peak / (8.0 * _N * _N)
    assert n_by_n <= _BOUND, f"{name} peaked at {n_by_n:.2f} n x n arrays"


def test_agglomerative_peaks_at_its_condensed_distances_and_linkage_copy(counts):
    # The condensed distances are packed into the square buffer, which then
    # shrinks, and linkage copies them: about 1 n x n. Holding the square and
    # condensed forms together peaked at 1.50.
    fit = FITS["AGGLOMERATIVE"]
    fit(counts[:60], None)
    tracemalloc.start()
    try:
        fit(counts, None)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    n_by_n = peak / (8.0 * _N * _N)
    assert n_by_n <= 1.25, f"AGGLOMERATIVE peaked at {n_by_n:.2f} n x n arrays"
