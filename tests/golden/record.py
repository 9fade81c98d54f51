"""Rewrite every CLI golden in this directory from the current code.

    python tests/golden/record.py

Runs each case of tests/test_golden.py against the quasiperm in ./src
of this checkout, writes its golden and prints the key path of each value
that changed, one per line, prefixed by the case name.  A revision of the
CLI contract is this command plus a list of those paths and their reasons.
"""

import json
import sys
from pathlib import Path

TESTS = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(TESTS.parent / "src"), str(TESTS)]

from test_golden import CASES, GOLDEN_DIR, changed_paths, run_case  # noqa: E402


def dumps(obj, indent: str = "") -> str:
    """JSON with one key per line and each list of plain values on one line."""
    inner = indent + " "
    if isinstance(obj, dict) and obj:
        return "{\n" + ",\n".join(f"{inner}{json.dumps(k)}: {dumps(v, inner)}"
                                  for k, v in obj.items()) + f"\n{indent}}}"
    if isinstance(obj, list) and any(isinstance(v, (dict, list)) for v in obj):
        return "[\n" + ",\n".join(inner + dumps(v, inner) for v in obj) + f"\n{indent}]"
    return json.dumps(obj)


def main() -> None:
    for name in sorted(CASES):
        path = GOLDEN_DIR / f"{name}.json"
        new = run_case(name)
        if not path.exists():
            print(f"{name}: new")
        else:
            for changed in changed_paths(json.loads(path.read_text()), new):
                print(f"{name}: {changed}")
        path.write_text(dumps(new) + "\n")


if __name__ == "__main__":
    main()
