"""Golden report digests: the sha256 of stdout and the exit code of ``verify
t54`` at bounds 0-2 on the shipped quantales, the two broken tables
included.

Each command runs in-process through ``cli.main``, from the repo root, with
the quantale given by its path relative to it (the report names its inputs
by path).  ``timing_ms`` goes to stderr, so stdout is stable.  A change that
alters a report on purpose regenerates the file, from the repo root:

    PYTHONPATH=src python tests/test_golden.py

and says which digests changed, and why.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden" / "t54.json"
T54_QUANTALES = [
    "boolean",
    "lukasiewicz3",
    "diamond",
    "nilmin5",
    "lukasiewicz5",
    "mutated_boolean",
    "mutated_lukasiewicz3",
]
T54_CASES = [(name, bound) for name in T54_QUANTALES for bound in range(3)]


def t54_digest(name: str, bound: int) -> dict:
    """sha256 of the stdout of ``verify t54`` on ``src/enritch/data/<name>.json``
    at ``bound``, and its exit code; the working directory must be the repo
    root."""
    from enritch import cli

    out = io.StringIO()
    argv = ["verify", "t54", "--quantale", f"src/enritch/data/{name}.json", "--bound", str(bound)]
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    return {"sha256": hashlib.sha256(out.getvalue().encode()).hexdigest(), "exit": code}


def case_key(name: str, bound: int) -> str:
    return f"t54-{name}-b{bound}"


def test_t54_reports_match_the_golden_digests(monkeypatch):
    golden = json.loads(GOLDEN.read_text())
    assert sorted(golden) == sorted(case_key(*case) for case in T54_CASES)
    monkeypatch.chdir(ROOT)
    got = {case_key(*case): t54_digest(*case) for case in T54_CASES}
    assert got == golden
    # every exit code the suite reports occurs: pass and refused input
    assert {d["exit"] for d in golden.values()} == {0, 3}


if __name__ == "__main__":
    os.chdir(ROOT)
    digests = {case_key(*case): t54_digest(*case) for case in T54_CASES}
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(digests, indent=2, sort_keys=True) + "\n")
    sys.stdout.write(f"wrote {len(digests)} digests to {GOLDEN.relative_to(ROOT)}\n")
