"""Every memo in the package is one the ``cold`` fixture empties."""

import importlib
import pkgutil

import cylspec
from cylspec import greens

from conftest import MEMOS


def _package_caches():
    for info in pkgutil.iter_modules(cylspec.__path__):
        if info.name == "__main__":  # runs the CLI on import
            continue
        module = importlib.import_module(f"cylspec.{info.name}")
        for name, value in vars(module).items():
            if callable(value) and hasattr(value, "cache_clear"):
                yield f"{info.name}.{name}", value


def test_every_package_cache_is_registered():
    caches = dict(_package_caches())
    unregistered = [
        name
        for name, cache in caches.items()
        if cache is not greens._gauss_nodes and all(cache is not memo for memo in MEMOS)
    ]
    assert not unregistered, f"add to conftest.MEMOS or document as fixed: {unregistered}"
    assert all(any(memo is cache for cache in caches.values()) for memo in MEMOS)
