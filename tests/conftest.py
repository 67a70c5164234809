"""Shared fixtures: the suite runs the same whatever the caller exported."""
import pytest


@pytest.fixture(autouse=True)
def _no_format_override(monkeypatch):
    """Clear QCLONE_FORMAT so a caller's export cannot change what the CLI
    prints by default; the tests of the variable set it themselves."""
    monkeypatch.delenv("QCLONE_FORMAT", raising=False)
