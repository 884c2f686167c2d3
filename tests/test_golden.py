"""Golden report digests: the sha256 of stdout and the exit code of

* ``verify t54`` at bounds 0-3 on the shipped quantales, the two broken
  tables included (``golden/t54.json``);
* ``verify t36`` (strict and ``--lax-typing``), ``l43`` and ``t44`` at
  bounds 0-3 on the same tables (``golden/verify.json``);
* every ``hull`` command over the shipped data files, and the schema,
  precondition and usage errors of the ``hull`` commands
  (``golden/hull.json``);
* ``quantale check`` on every shipped file: each table, and each other
  document as a schema error (``golden/quantale.json``).

Each command runs in-process through ``cli.main``, with its files given by
paths relative to the working directory (the report names its inputs by
path): the repo root for ``verify``, and for the others a temporary
directory holding a copy of ``src/enritch/data``, so that ``hull tighten``
writes its output there.  ``timing_ms`` goes to stderr, so stdout is
stable; a usage error writes only to stderr and exits 2.  A change that
alters a report on purpose regenerates the files, from the repo root:

    PYTHONPATH=src python tests/test_golden.py

and says which digests changed, and why.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import json
import os
import shutil
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
GOLDEN_DIR = ROOT / "tests" / "golden"
DATA = "src/enritch/data"
T54_QUANTALES = [
    "boolean",
    "lukasiewicz3",
    "diamond",
    "nilmin5",
    "lukasiewicz5",
    "mutated_boolean",
    "mutated_lukasiewicz3",
]
T54_CASES = [(name, bound) for name in T54_QUANTALES for bound in range(4)]
# (suite, lax typing) of the other suites, each at bounds 0-3 on every table
VERIFY_SUITES = [("t36", False), ("t36", True), ("l43", False), ("t44", False)]
VERIFY_CASES = [
    (suite, lax, name, bound)
    for suite, lax in VERIFY_SUITES
    for name in T54_QUANTALES
    for bound in range(4)
]

SPACES = [
    "discrete_pair",
    "one_point",
    "three_point_with_midpoint",
    "two_point_classical",
    "two_point_partial",
]
RADII = ["mu_13", "mu_23", "mu_33"]
FAMILIES = ["family_inadmissible", "family_no_witness", "family_self_ball", "family_wide"]
MAPS = ["map_into_discrete", "map_into_midpoint"]


def data(name: str) -> str:
    return f"{DATA}/{name}.json"


def hull_cases() -> list[list[str]]:
    """Every hull command over the shipped files of the kinds it reads, then
    inputs of the wrong kind, a missing file and usage errors."""
    cases = []
    for space, mu in itertools.product(SPACES, RADII):
        cases.append(["hull", "member", data(space), data(mu)])
        cases.append(["hull", "tighten", data(space), data(mu), "--out", f"out-{space}-{mu}.json"])
    for space, mu, lam in itertools.product(SPACES, RADII, RADII):
        cases.append(["hull", "sigma", data(space), data(mu), data(lam)])
    for domain, codomain, mapping in itertools.product(SPACES, SPACES, MAPS):
        cases.append(["hull", "dense", data(domain), data(codomain), data(mapping)])
    for space, family, strict in itertools.product(SPACES, FAMILIES, [False, True]):
        cases.append(
            ["hull", "hyperfamily", data(space), data(family)]
            + (["--strict-typing"] if strict else [])
        )
    cases += [
        ["hull", "member", data("boolean"), data("mu_13")],
        ["hull", "member", data("two_point_partial"), data("two_point_partial")],
        ["hull", "sigma", data("two_point_partial"), data("mu_13"), data("family_wide")],
        ["hull", "dense", data("one_point"), data("two_point_partial"), data("mu_13")],
        ["hull", "hyperfamily", data("two_point_partial"), data("mu_13")],
        ["hull", "member", data("missing"), data("mu_13")],
        ["hull", "tighten", data("two_point_partial"), data("mu_13")],
        ["hull", "member", data("two_point_partial")],
        ["hull", "frobnicate"],
        ["hull"],
    ]
    return cases


def quantale_cases() -> list[list[str]]:
    names = sorted(path.stem for path in (ROOT / DATA).glob("*.json"))
    return [["quantale", "check", data(name)] for name in names] + [
        ["quantale", "check", data("missing")],
        ["quantale", "check"],
        ["quantale"],
    ]


def digest(argv: list[str]) -> dict:
    """sha256 of the stdout of ``cli.main(argv)`` and its exit code, a usage
    error's included, run in the current directory."""
    from enritch import cli

    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    return {"sha256": hashlib.sha256(out.getvalue().encode()).hexdigest(), "exit": code}


def t54_argv(name: str, bound: int) -> list[str]:
    return ["verify", "t54", "--quantale", data(name), "--bound", str(bound)]


def case_key(name: str, bound: int) -> str:
    return f"t54-{name}-b{bound}"


def t54_digests() -> dict:
    """The t54 digests; the working directory must be the repo root."""
    return {case_key(*case): digest(t54_argv(*case)) for case in T54_CASES}


def verify_argv(suite: str, lax: bool, name: str, bound: int) -> list[str]:
    argv = ["verify", suite, "--quantale", data(name), "--bound", str(bound)]
    return argv + ["--lax-typing"] if lax else argv


def verify_key(suite: str, lax: bool, name: str, bound: int) -> str:
    return f"{suite}{'-lax' if lax else ''}-{name}-b{bound}"


def verify_digests() -> dict:
    """The t36, l43 and t44 digests; the working directory must be the repo
    root."""
    return {verify_key(*case): digest(verify_argv(*case)) for case in VERIFY_CASES}


def command_digests(cases: list[list[str]], workdir: Path) -> dict:
    """The digests of ``cases``, keyed on their argv, run in ``workdir`` on a
    copy of the shipped data."""
    shutil.copytree(ROOT / DATA, workdir / DATA)
    here = os.getcwd()
    os.chdir(workdir)
    try:
        return {" ".join(argv): digest(argv) for argv in cases}
    finally:
        os.chdir(here)


def test_t54_reports_match_the_golden_digests(monkeypatch):
    golden = json.loads((GOLDEN_DIR / "t54.json").read_text())
    assert sorted(golden) == sorted(case_key(*case) for case in T54_CASES)
    monkeypatch.chdir(ROOT)
    assert t54_digests() == golden
    # every exit code the suite reports occurs: pass and refused input
    assert {d["exit"] for d in golden.values()} == {0, 3}


def test_verify_reports_match_the_golden_digests(monkeypatch):
    golden = json.loads((GOLDEN_DIR / "verify.json").read_text())
    assert sorted(golden) == sorted(verify_key(*case) for case in VERIFY_CASES)
    monkeypatch.chdir(ROOT)
    assert verify_digests() == golden
    # pass, a discrepancy (lax typing) and refused input
    assert {d["exit"] for d in golden.values()} == {0, 1, 3}


def test_hull_reports_match_the_golden_digests(tmp_path):
    golden = json.loads((GOLDEN_DIR / "hull.json").read_text())
    assert command_digests(hull_cases(), tmp_path) == golden
    # pass, check failed, schema error and usage error (2), and refused input
    assert {d["exit"] for d in golden.values()} == {0, 1, 2, 3}


def test_quantale_check_reports_match_the_golden_digests(tmp_path):
    golden = json.loads((GOLDEN_DIR / "quantale.json").read_text())
    assert command_digests(quantale_cases(), tmp_path) == golden
    # lawful tables, broken tables, and schema and usage errors
    assert {d["exit"] for d in golden.values()} == {0, 1, 2}


def write(name: str, digests: dict) -> None:
    path = GOLDEN_DIR / name
    path.write_text(json.dumps(digests, indent=2, sort_keys=True) + "\n")
    sys.stdout.write(f"wrote {len(digests)} digests to {path.relative_to(ROOT)}\n")


if __name__ == "__main__":
    os.chdir(ROOT)
    GOLDEN_DIR.mkdir(exist_ok=True)
    write("t54.json", t54_digests())
    write("verify.json", verify_digests())
    for name, cases in (("hull.json", hull_cases()), ("quantale.json", quantale_cases())):
        with tempfile.TemporaryDirectory() as workdir:
            write(name, command_digests(cases, Path(workdir)))
