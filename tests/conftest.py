"""Fixtures shared by the test modules."""

import pytest

from cylspec import indicial, nonlinear, symbol

# Every memo in the package keyed on its arguments: the certified roots
# per (params, mode), the lattice symbol per (n, gamma, mode, lattice
# size, step), and the profile solver's operator and preconditioner per
# (params, n, step).
# (``greens._gauss_nodes`` is a fixed table.)  A new memo is registered
# here, so that ``cold`` empties it too; ``test_memos.py`` checks that.
MEMOS = (indicial._memo, symbol._lattice, nonlinear._operator)


def clear_memos():
    for memo in MEMOS:
        memo.cache_clear()


@pytest.fixture
def cold():
    """Every memo empty before and after the test."""
    clear_memos()
    yield
    clear_memos()
