"""The `verify` jobs of the suite workloads and their correctness gate.

Every job carries its known answer: exit code, verdict, the number of
categories or functors the suite enumerates, and the number of
discrepancies.  The gate also compares a digest of the whole report with
``golden.json``.  Reports name their input files, so the digest replaces
the ``inputs`` mapping by its sorted sha256 values and is independent of
where the checkout lives.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path

GOLDEN = Path(__file__).with_name("golden.json")

EXIT_PASS, EXIT_FAILED, EXIT_PRECONDITION = 0, 1, 3


@dataclass(frozen=True)
class SuiteJob:
    """One ``enritch verify`` invocation and its known answer."""

    key: str
    suite: str
    quantale: str
    bound: int
    code: int
    count: int = 0
    discrepancies: int = 0
    lax: bool = False

    @property
    def label(self) -> str:
        return "functors" if self.suite == "t54" else "categories"

    def argv(self, data_dir: Path) -> list[str]:
        argv = ["verify", self.suite, "--quantale", str(data_dir / f"{self.quantale}.json"),
                "--bound", str(self.bound)]
        return argv + ["--lax-typing"] if self.lax else argv


def _job(suite, quantale, bound, code, count, discrepancies=0, lax=False) -> SuiteJob:
    key = f"{suite}{'-lax' if lax else ''}-{quantale}-b{bound}"
    return SuiteJob(key, suite, quantale, bound, code, count, discrepancies, lax)


TIGHT_SPAN = (
    _job("l43", "lukasiewicz3", 3, EXIT_PASS, 117),
    _job("t44", "lukasiewicz3", 3, EXIT_PASS, 117),
    _job("l43", "nilmin5", 2, EXIT_PASS, 49),
    _job("t44", "nilmin5", 2, EXIT_PASS, 49),
)

FUNCTOR_SEARCH = (
    _job("t54", "diamond", 2, EXIT_PASS, 188),
    _job("t54", "nilmin5", 2, EXIT_PASS, 317),
    _job("t36", "lukasiewicz3", 3, EXIT_PASS, 117),
    _job("t36", "lukasiewicz3", 3, EXIT_FAILED, 117, discrepancies=56, lax=True),
    _job("t36", "mutated_lukasiewicz3", 3, EXIT_PRECONDITION, 0),
)

# Small instances of the same job kinds, for the benchmark's own tests.
TIGHT_SPAN_QUICK = (
    _job("l43", "lukasiewicz3", 2, EXIT_PASS, 18),
    _job("t44", "lukasiewicz3", 2, EXIT_PASS, 18),
)

FUNCTOR_SEARCH_QUICK = (
    _job("t54", "diamond", 1, EXIT_PASS, 9),
    _job("t36", "lukasiewicz3", 2, EXIT_PASS, 18),
    _job("t36", "lukasiewicz3", 2, EXIT_FAILED, 18, discrepancies=13, lax=True),
    _job("t36", "mutated_lukasiewicz3", 3, EXIT_PRECONDITION, 0),
)


def report_digest(report: dict) -> str:
    """sha256 of the report with its input paths replaced by their digests."""
    normal = dict(report, inputs=sorted(report.get("inputs", {}).values()))
    text = json.dumps(normal, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def load_golden() -> dict[str, str]:
    return json.loads(GOLDEN.read_text())


def check(job: SuiteJob, code, stdout: str, golden: dict[str, str]) -> str | None:
    """None when the report is the known answer, else the first mismatch."""
    if code != job.code:
        return f"exit code {code}, expected {job.code}"
    try:
        report = json.loads(stdout)
        result = report["result"]
    except (ValueError, KeyError, TypeError) as exc:
        return f"unreadable report: {exc!r}"
    if not isinstance(result, dict):
        return f"result {result!r} is not an object"
    if report.get("command") != f"verify {job.suite}":
        return f"command {report.get('command')!r}"
    if job.code == EXIT_PRECONDITION:
        if result.get("error") != "precondition":
            return f"expected a precondition error, got {result!r}"
    else:
        want = {
            "check": job.suite,
            "result": job.code == EXIT_PASS,
            "quantale": job.quantale,
            "bound": job.bound,
            "strict_typing": not job.lax,
            job.label: job.count,
            "discrepancies": job.discrepancies,
        }
        got = {k: result.get(k) for k in want}
        if got != want:
            return f"result {got!r}, expected {want!r}"
    expected = golden.get(job.key)
    if expected is None:
        return f"no golden digest for {job.key}"
    if report_digest(report) != expected:
        return "report differs from the golden digest"
    return None
