import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))


@pytest.fixture(scope="session")
def qp():
    from run import load_program

    return load_program(ROOT)
