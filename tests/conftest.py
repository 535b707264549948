"""Every test starts with the sweep-reuse memos empty, so no result depends
on which tests ran before it."""

import pytest

from photsub import metrology, states


@pytest.fixture(autouse=True)
def memos():
    """The memos a sweep reuses across points, emptied."""
    memos = (metrology._input_table, metrology._lossless_ports, states._balance_root)
    for memo in memos:
        memo.cache_clear()
    return memos
