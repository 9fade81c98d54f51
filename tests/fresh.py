"""Run a script in a fresh interpreter, where sys.modules shows what it imported."""

import os
import subprocess
import sys
from pathlib import Path

import quasiperm

# the directory holding the quasiperm under test, put first on the child's path
_SRC = str(Path(quasiperm.__file__).resolve().parents[1])


def run_fresh(script: str, *argv: str) -> subprocess.CompletedProcess:
    path = os.pathsep.join(filter(None, [_SRC, os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-c", script, *argv], capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": path})
