import tracemalloc

import numpy as np
import pytest

from csense import matrices
from csense.cli import figure_scenario


def traced_peak(fn, *args):
    """fn(*args) and the peak bytes tracemalloc counted while it ran; tracing stops even if fn raises."""
    tracemalloc.start()
    try:
        result = fn(*args)
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.fixture(scope="session")
def etf14():
    return matrices.build_etf(7, 14)


@pytest.fixture(scope="session")
def etf30():
    return matrices.build_etf(15, 30)


@pytest.fixture(scope="session")
def fig3_dft():
    mat, _ = figure_scenario("fig3")
    return mat


@pytest.fixture(scope="session")
def even_rows_dft8():
    """n=8 partial DFT keeping rows {0,2,4,6}; columns 0 and 4 coincide."""
    return matrices.build_partial_dft(8, (0, 2, 4, 6))


@pytest.fixture(scope="session")
def full_dft8():
    return matrices.build_partial_dft(8, tuple(range(8)))


@pytest.fixture()
def rng():
    return np.random.default_rng(1234)
