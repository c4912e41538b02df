import pytest

from odlearn import operator


@pytest.fixture(autouse=True)
def no_earlier_load(monkeypatch):
    """Each test starts with no model remembered by ``load_model``, so no test's
    build counts or outputs depend on which earlier test loaded equal bytes."""
    monkeypatch.setattr(operator, "_last_load", None)
