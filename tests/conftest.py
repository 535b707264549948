"""Every test starts with the package's memos empty, so no result depends on
which tests ran before it."""

import functools
import inspect

import pytest

import photsub


def _memos() -> tuple:
    """Every functools.lru_cache memo at module level in photsub's modules."""
    found = []
    for _, module in inspect.getmembers(photsub, inspect.ismodule):
        if module.__name__.startswith("photsub."):
            for _, value in vars(module).items():
                if isinstance(value, functools._lru_cache_wrapper) and value not in found:
                    found.append(value)
    return tuple(found)


MEMOS = _memos()


@pytest.fixture(autouse=True)
def memos():
    """The memos a sweep reuses across points, emptied."""
    for memo in MEMOS:
        memo.cache_clear()
    return MEMOS
