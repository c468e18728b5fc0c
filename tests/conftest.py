"""Fixtures shared by the test modules."""
import sys

import pytest


def _clear_package_caches() -> None:
    for name, module in list(sys.modules.items()):
        if name == "isingdefect" or name.startswith("isingdefect."):
            for value in vars(module).values():
                if callable(getattr(value, "cache_clear", None)):
                    value.cache_clear()


@pytest.fixture
def clear_package_caches():
    """A call that empties every lru_cache of the loaded package modules, as
    the benchmark worker does before each operation, so that a traced peak
    counts the tables a fresh process builds."""
    return _clear_package_caches
