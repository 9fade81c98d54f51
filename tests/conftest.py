import pytest

from quasiperm import core


@pytest.fixture(params=[pytest.param(True, id=pytest.HIDDEN_PARAM),
                        pytest.param(False, id="lists")])
def numpy_pays(request, monkeypatch):
    """core._numpy_pays, the one rule that sends parsing and the D scans to
    numpy or to Python lists, answering each way in turn: True under the
    test's own id, where numpy reads and scans, and False under -lists.
    The test gets the answer."""
    monkeypatch.setattr(core, "_numpy_pays", lambda cells: request.param)
    return request.param
