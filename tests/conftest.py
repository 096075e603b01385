import importlib

import pytest

from polylim import cotderiv


@pytest.fixture
def fresh_rows(monkeypatch):
    """The table of harmonics rows seeded with row 0 alone, with expansion's
    cache cleared before and after, so that no row or record built here
    outlives the test."""
    cotderiv.expansion.cache_clear()
    monkeypatch.setattr(cotderiv, "_ROWS", [((1, 1),)])
    yield cotderiv._ROWS
    cotderiv.expansion.cache_clear()


@pytest.fixture
def fresh_polynomials(monkeypatch):
    """An empty table of derivative polynomials P_n, with the caches built
    from it cleared before and after, so that no row or value built here
    outlives the test."""
    polygamma = importlib.import_module("polylim.polygamma")
    caches = (
        cotderiv._scaled_row,
        polygamma._bernoulli_numbers,
        polygamma._series_coefficients,
    )
    for cache in caches:
        cache.cache_clear()
    monkeypatch.setattr(cotderiv, "_POLYNOMIALS", [(0, 1)])
    yield cotderiv._POLYNOMIALS
    for cache in caches:
        cache.cache_clear()
