"""Fixtures shared by the test modules."""

import pytest

from cylspec import greens, grid, identities, indicial, symbol

# Every memo in the package keyed on its arguments: the certified roots
# per (params, mode), the lattice symbol per (n, gamma, mode, lattice
# size, step), the even ``grid.Sector``'s layout per lattice size (with
# Rader's kernels at odd primes), the Green's series' components array per
# (series, source) and its convolution kernel's spectrum at the cyclic
# length next_fast_len(2n - 1) per (series, n, step), and the weighted
# Wronskian per (series, w, w_tilde, h, h_tilde).
# (``greens._gauss_nodes`` is a fixed table.)  A new memo is registered
# here, so that ``cold`` empties it too; ``test_memos.py`` checks that.
MEMOS = (
    indicial._memo,
    symbol._lattice,
    grid._rader_plan,
    greens.component_solutions,
    greens._kernel,
    identities.wronskian,
)


def clear_memos():
    for memo in MEMOS:
        memo.cache_clear()


@pytest.fixture
def cold():
    """Every memo empty before and after the test."""
    clear_memos()
    yield
    clear_memos()
