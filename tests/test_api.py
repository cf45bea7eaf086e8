"""The top-level namespace: each module's ``__all__`` is its public API."""

import cylspec
from cylspec import errors, greens, grid, identities, indicial, nonlinear, profiles, symbol

MODULES = (errors, greens, grid, identities, indicial, nonlinear, profiles, symbol)


def test_no_two_modules_export_the_same_name():
    # A star import would let the later module shadow the earlier one silently.
    names = [name for module in MODULES for name in module.__all__]
    assert len(names) == len(set(names))


def test_every_top_level_name_is_its_modules_object():
    owner = {name: module for module in MODULES for name in module.__all__}
    assert cylspec.__all__ == sorted(owner)
    assert all(getattr(cylspec, name) is getattr(owner[name], name) for name in cylspec.__all__)


def test_star_import_gives_exactly_all():
    namespace = {}
    exec("from cylspec import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == cylspec.__all__
