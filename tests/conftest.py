import pytest


@pytest.fixture(autouse=True)
def _clean_polylim_env(monkeypatch):
    # Keep an ambient precision setting from leaking into tests; individual
    # tests opt back in via monkeypatch.setenv.
    monkeypatch.delenv("POLYLIM_PRECISION_TERMS", raising=False)
