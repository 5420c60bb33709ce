"""Fixtures shared by every test module."""

import pytest

from hurwitz import engine


@pytest.fixture(autouse=True)
def _fresh_cell_decodes():
    """Start each test without the cache-file decodes memoised by earlier
    ones: a decode made while a test had a check monkeypatched would
    otherwise answer for the same bytes later."""
    engine._decode_cell.cache_clear()
    yield
