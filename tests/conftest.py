import pytest

import zetafree.trigpoly as trigpoly


@pytest.fixture
def verify_nonneg_calls(monkeypatch):
    """Route trigpoly.verify_nonneg through a counter; returns the call list."""
    calls = []
    verify_nonneg = trigpoly.verify_nonneg

    def counted(p, *args, **kwargs):
        calls.append(p)
        return verify_nonneg(p, *args, **kwargs)

    monkeypatch.setattr(trigpoly, "verify_nonneg", counted)
    return calls
