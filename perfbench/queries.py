"""The parmet-queries workload: seeded queries over random partial metrics.

A pass is a fixed list of queries.  Every query kind gets the same number
of queries of each space size, so the mix of sizes and kinds, which sets
the latency distribution, is the same for every seed; the seed draws the
spaces, the radius functions, the ball families, the sub-spaces and the
order.  Six kinds run the ``hull`` commands through ``enritch.cli.main``;
the seventh calls the library directly:
``validate_category(to_category(space))`` and
``rel_residual("left", hom, hom) == hom``, which runs the closed-form
kernel of the extended rationals.

Inputs are written as files during set-up.  Answers are recomputed with
the fractions code in ``spaces`` and compared field by field with each
report.
"""

from __future__ import annotations

import hashlib
import io
import json
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path

from . import spaces as S

KINDS = ("member", "tighten", "sigma", "hyperfamily", "hyperfamily-strict", "dense", "library")

# Queries per kind and space size in one pass: 16 per kind, 112 in all, plus
# one 64-point tighten.  Validating a space is cubic in its size, so the
# latency of a query is set by its size.  The counts put the median inside
# the block of 12-point queries and the 90th percentile inside the block of
# 24-point ones, so that neither sits on the edge between two sizes.
PER_KIND = {8: 6, 12: 6, 16: 2, 24: 2}
LARGE = (("tighten", 64),)
PER_KIND_QUICK = {8: 2, 12: 1}
# Every other query of this size runs on a space split into two halves at
# infinite distance, which makes it about twice as fast; split spaces of a
# larger size would blur the blocks the percentiles sit in.
SPLIT_SIZE = 8


def run_cli(mods, argv: list[str]) -> tuple[object, str]:
    """Run ``enritch.cli.main(argv)`` in-process; (exit code, stdout)."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = mods.cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue()


class Writer:
    """Writes input documents under one directory and records their digests."""

    def __init__(self, root: Path):
        self.root = root
        self.digests: dict[str, str] = {}

    def write(self, relative: str, document: dict) -> str:
        path = self.root / relative
        path.parent.mkdir(parents=True, exist_ok=True)
        data = (json.dumps(document, indent=2) + "\n").encode()
        path.write_bytes(data)
        self.digests[str(path)] = hashlib.sha256(data).hexdigest()
        return str(path)

    def input_digest(self) -> str:
        """One digest over every file, independent of the directory."""
        h = hashlib.sha256()
        for path in sorted(self.digests):
            h.update(Path(path).relative_to(self.root).as_posix().encode())
            h.update(self.digests[path].encode())
        return h.hexdigest()


class Space:
    def __init__(self, alpha, path: str):
        self.alpha = alpha
        self.points = [f"p{i}" for i in range(len(alpha))]
        self.path = path


def space_document(points, alpha) -> dict:
    return {"points": list(points), "alpha": [[S.fmt(v) for v in row] for row in alpha]}


def radius_document(points, r, values) -> dict:
    return {"r": S.fmt(r), "values": {p: S.fmt(v) for p, v in zip(points, values)}}


def _radius(rng):
    return Fraction(rng.randint(0, 4), rng.choice((1, 2)))


class Query:
    """One query of the loop: its inputs, how to run it and its known answer."""

    def __init__(self, kind: str, space: Space, rng, writer: Writer, tag: str):
        self.kind = kind
        self.space = space
        self.key = tag
        self.library_space = None
        self._expected = None
        alpha, points = space.alpha, space.points
        self.files = [space.path]

        if kind == "member":
            self.r = _radius(rng)
            values = S.ambient(rng, alpha, self.r)
            if rng.random() < 0.5:
                values = S.tighten(alpha, self.r, values)
            self.values = values
            self.files.append(writer.write(f"{tag}/mu.json", radius_document(points, self.r, values)))
            self.argv = ["hull", "member", space.path, self.files[1]]
        elif kind == "tighten":
            self.r = _radius(rng)
            self.values = S.ambient(rng, alpha, self.r)
            self.files.append(writer.write(f"{tag}/mu.json", radius_document(points, self.r, self.values)))
            self.out = str(writer.root / tag / "tight.json")
            self.argv = ["hull", "tighten", space.path, self.files[1], "--out", self.out]
        elif kind == "sigma":
            self.pair = []
            for name in ("mu", "lambda"):
                r = _radius(rng)
                values = S.tighten(alpha, r, S.ambient(rng, alpha, r))
                self.pair.append((r, values))
                self.files.append(writer.write(f"{tag}/{name}.json", radius_document(points, r, values)))
            self.argv = ["hull", "sigma", space.path, self.files[1], self.files[2]]
        elif kind.startswith("hyperfamily"):
            self.strict = kind == "hyperfamily-strict"
            self.r, self.family = S.family_around(rng, alpha, strict_hint=rng.random() < 0.5)
            document = {
                "r": S.fmt(self.r),
                "family": [{"point": points[c], "radius": S.fmt(rad)} for c, rad in self.family],
            }
            self.files.append(writer.write(f"{tag}/family.json", document))
            self.argv = ["hull", "hyperfamily", space.path, self.files[1]]
            if self.strict:
                self.argv.append("--strict-typing")
        elif kind == "dense":
            n = len(alpha)
            size = rng.randint(max(1, n // 2), n)
            self.image = sorted(rng.sample(range(n), size))
            names = [f"d{i}" for i in range(size)]
            sub = [[alpha[i][j] for j in self.image] for i in self.image]
            domain = writer.write(f"{tag}/domain.json", space_document(names, sub))
            mapping = writer.write(
                f"{tag}/map.json", {"map": {d: points[i] for d, i in zip(names, self.image)}}
            )
            self.files = [domain, space.path, mapping]
            self.argv = ["hull", "dense", domain, space.path, mapping]
        elif kind == "library":
            self.argv = None
        else:
            raise ValueError(f"unknown query kind {kind!r}")

    def prepare(self, mods) -> None:
        """Load the library query's space with the modules that will run it."""
        if self.kind == "library":
            self.library_space = mods.fileio.load_space(self.space.path)

    def run(self, mods) -> tuple[object, str]:
        if self.argv is not None:
            return run_cli(mods, self.argv)
        category = mods.parmet.to_category(self.library_space)
        valid = mods.categories.validate_category(category).valid
        residual = mods.relations.rel_residual("left", category.hom, category.hom)
        answer = {
            "valid": valid,
            "residual_is_hom": residual == category.hom,
            "residual": [[str(v) for v in row] for row in residual.entries],
        }
        return 0, json.dumps(answer)

    # -- the known answer ------------------------------------------------------

    def expected(self, digests: dict[str, str]) -> tuple[int, dict]:
        if self._expected is None:
            self._expected = self._compute_expected(digests)
        return self._expected

    def _compute_expected(self, digests) -> tuple[int, dict]:
        alpha, points = self.space.alpha, self.space.points
        if self.kind == "library":
            residual = S.hom_left_residual(alpha)
            return 0, {
                "valid": S.is_partial_metric(alpha),
                "residual_is_hom": residual == alpha,
                "residual": [[S.fmt(v) for v in row] for row in residual],
            }
        witnesses = None
        if self.kind == "member":
            failing = S.tight_violation(alpha, self.r, self.values)
            result = {"tight": failing is None,
                      "failing_point": None if failing is None else points[failing]}
            code = 0 if failing is None else 1
        elif self.kind == "tighten":
            tight = S.tighten(alpha, self.r, self.values)
            if S.tight_violation(alpha, self.r, tight) is not None or not all(
                S.le(t, v) for t, v in zip(tight, self.values)
            ):
                raise AssertionError("reference sweep left the tight span")
            result = {"output": radius_document(points, self.r, tight), "written": self.out}
            code = 0
        elif self.kind == "sigma":
            (r1, mu), (r2, lam) = self.pair
            forward = S.sigma_one_way(r1, mu, r2, lam)
            if forward != S.sigma_one_way(r2, lam, r1, mu):
                raise AssertionError("reference sigma is not symmetric")
            result, code = {"sigma": S.fmt(forward)}, 0
        elif self.kind.startswith("hyperfamily"):
            admissible, violation, witness = S.family_check(alpha, self.r, self.family, self.strict)
            if violation is not None:
                violation = [violation[0]] + [points[i] for i in violation[1:]]
            result = {"admissible": admissible, "violation": violation,
                      "witness": None if witness is None else points[witness]}
            if not admissible:
                code, witnesses = 3, violation
            else:
                code = 0 if witness is not None else 1
        else:
            dense = S.is_dense(alpha, self.image)
            result, code = {"dense": dense}, 0 if dense else 1
        report = {
            "command": f"hull {self.kind.split('-')[0]}",
            "inputs": {path: digests[path] for path in self.files},
            "result": result,
            "witnesses": witnesses,
        }
        return code, report

    def check(self, code, stdout: str, digests: dict[str, str]) -> str | None:
        """None when the output is the known answer, else the first mismatch."""
        want_code, want = self.expected(digests)
        if code != want_code:
            return f"exit code {code}, expected {want_code}"
        try:
            got = json.loads(stdout)
        except ValueError as exc:
            return f"unreadable report: {exc!r}"
        if got != want:
            return "report differs from the reference answer"
        if self.kind == "tighten":
            try:
                written = json.loads(Path(self.out).read_text())
            except (OSError, ValueError) as exc:
                return f"unreadable output file: {exc!r}"
            if written != want["result"]["output"]:
                return "written radius function differs from the report"
        return None


def build(rng, root: Path, quick: bool = False) -> tuple[list[Query], Writer]:
    """Draw the queries of one pass, each on a space of its own, writing every
    input file."""
    writer = Writer(root)
    schedule = [(kind, n, n == SPLIT_SIZE and i % 2 == 1) for kind in KINDS
                for n, count in (PER_KIND_QUICK if quick else PER_KIND).items()
                for i in range(count)]
    if not quick:
        schedule.extend((kind, n, False) for kind, n in LARGE)
    rng.shuffle(schedule)
    queries = []
    for i, (kind, n, split) in enumerate(schedule):
        tag = f"q{i:03d}-{kind}-n{n}"
        alpha = S.random_space(rng, n, split=split)
        path = writer.write(f"{tag}/space.json", space_document([f"p{i}" for i in range(n)], alpha))
        queries.append(Query(kind, Space(alpha, path), rng, writer, tag))
    return queries, writer
