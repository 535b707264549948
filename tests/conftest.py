"""Every test starts with the package's memos empty, so no result depends on
which tests ran before it."""

import functools
import inspect

import pytest

import photsub
from photsub import moments, opalg, states


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

#: the dict memos, named here rather than found: a dict such as
#: experiments._METRICS is a table, not a memo
DICT_MEMOS = (opalg._PLANS, moments._ENTRIES, moments._PI, states._MAPS)


def clear() -> None:
    """Empty every memo of the package."""
    for memo in MEMOS:
        memo.cache_clear()
    for memo in DICT_MEMOS:
        memo.clear()


@pytest.fixture(autouse=True)
def memos():
    """The memos a sweep reuses across points, emptied with the dict memos."""
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
