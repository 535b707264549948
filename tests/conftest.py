"""Every test starts with the package's memos empty, so no result depends on
which tests ran before it."""

import functools
import inspect

import pytest

import photsub
from photsub import moments


def _memos() -> tuple:
    """Every functools cache (lru_cache or cache) at module level in photsub's
    modules: the package keeps no other kind of memo."""
    found = []
    for _, module in inspect.getmembers(photsub, inspect.ismodule):
        if module.__name__.startswith("photsub."):
            for _, value in vars(module).items():
                if isinstance(value, functools._lru_cache_wrapper) and value not in found:
                    found.append(value)
    return tuple(found)


MEMOS = _memos()


def clear() -> None:
    """Empty every memo of the package."""
    for memo in MEMOS:
        memo.cache_clear()


@pytest.fixture(autouse=True)
def memos():
    """Every memo of the package, emptied."""
    clear()
    return MEMOS


@pytest.fixture
def pin_digits(monkeypatch):
    """``pin_digits(d)`` runs every engine figure at d working digits alone:
    the first and the last attempt of :func:`photsub.moments.retried` are
    pinned there, so a ball that does not round at d flags ``precision``;
    ``pin_digits(None)`` restores the default's doubling."""
    start, cap = moments.START_DIGITS, moments.MAX_DIGITS

    def pin(digits):
        monkeypatch.setattr(moments, "START_DIGITS", digits or start)
        monkeypatch.setattr(moments, "MAX_DIGITS", digits or cap)

    return pin
