"""Command-line front end.

    enritch quantale check FILE
    enritch hull member SPACE MU
    enritch hull tighten SPACE MU --out FILE
    enritch hull sigma SPACE MU LAMBDA
    enritch hull dense DOMAIN CODOMAIN MAP
    enritch hull hyperfamily SPACE FAMILY [--strict-typing]
    enritch verify {t36|l43|t44|t54} --quantale FILE --bound N
                   [--strict-typing | --lax-typing]

Every command prints one JSON report to stdout with the fields command,
inputs (sha256 digests of the files read), result and witnesses, in that
order.  The report bytes depend only on the inputs; wall-clock timing goes
to stderr as a single ``timing_ms=...`` line.  Exit codes: 0 pass, 1 check
failed, 2 schema error (also a file that cannot be read or written),
3 precondition error, 4 bound refusal, 5 broken library invariant.

The argument parser is built once per process, on the first ``main`` call,
and reused: parsing does not change it, and usage errors and ``--help``
write to the ``sys.stderr`` and ``sys.stdout`` of the call.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
import time

from . import fileio, parmet, verify
from .errors import (
    BoundExceededError,
    EnritchError,
    InvariantError,
    PreconditionError,
    SchemaError,
    ShapeMismatchError,
    UnsupportedQuantaleError,
)
from .quantale import check_quantale_laws

EXIT_PASS = 0
EXIT_CHECK_FAILED = 1
EXIT_SCHEMA = 2
EXIT_PRECONDITION = 3
EXIT_BOUND = 4
EXIT_INVARIANT = 5


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="enritch",
        description="exact checks for lattice-valued distance structures",
    )
    sub = parser.add_subparsers(dest="group", required=True)

    quantale = sub.add_parser("quantale", help="quantale table checks")
    quantale_sub = quantale.add_subparsers(dest="command", required=True)
    qc = quantale_sub.add_parser("check", help="verify every quantale law")
    qc.add_argument("file")

    hull = sub.add_parser("hull", help="partial-metric tight span operations")
    hull_sub = hull.add_subparsers(dest="command", required=True)

    member = hull_sub.add_parser("member", help="is a radius function tight?")
    member.add_argument("space")
    member.add_argument("mu")

    tighten = hull_sub.add_parser("tighten", help="sweep a ball system tight")
    tighten.add_argument("space")
    tighten.add_argument("mu")
    tighten.add_argument("--out", required=True, help="output radius-function file")

    sigma = hull_sub.add_parser("sigma", help="distance between tight functions")
    sigma.add_argument("space")
    sigma.add_argument("mu")
    sigma.add_argument("lam", metavar="lambda")

    dense = hull_sub.add_parser("dense", help="density of an isometric map")
    dense.add_argument("domain")
    dense.add_argument("codomain")
    dense.add_argument("map")

    family = hull_sub.add_parser("hyperfamily", help="witness for one ball family")
    family.add_argument("space")
    family.add_argument("family")
    family.add_argument(
        "--strict-typing",
        action="store_true",
        help="require the witness self-distance to equal the base radius",
    )

    ver = sub.add_parser("verify", help="exhaustive theorem suites")
    ver.add_argument("theorem", choices=sorted(verify.DOCUMENTED_BOUNDS))
    ver.add_argument("--quantale", required=True)
    ver.add_argument("--bound", type=int, required=True)
    typing = ver.add_mutually_exclusive_group()
    typing.add_argument(
        "--strict-typing",
        action="store_true",
        help="witness objects must carry the column's type (the default)",
    )
    typing.add_argument(
        "--lax-typing",
        action="store_true",
        help="compare witness columns elementwise, ignoring types",
    )

    return parser


def _report(command: str, inputs: dict[str, str], result, witnesses=None) -> dict:
    return {
        "command": command,
        "inputs": inputs,
        "result": result,
        "witnesses": witnesses,
    }


def _run(args: argparse.Namespace) -> tuple[dict, int]:
    if args.group == "quantale":
        digest = {args.file: fileio.file_digest(args.file)}
        quantale = fileio.load_quantale(args.file)
        law_report = check_quantale_laws(quantale)
        witnesses = [
            {"law": law, "witness": witness} for law, witness in law_report.failures()
        ]
        return (
            _report("quantale check", digest, law_report.to_dict(), witnesses or None),
            EXIT_PASS if law_report.passed else EXIT_CHECK_FAILED,
        )

    if args.group == "hull":
        return _run_hull(args)

    if args.group == "verify":
        digest = {args.quantale: fileio.file_digest(args.quantale)}
        quantale = fileio.load_quantale(args.quantale)
        laws = check_quantale_laws(quantale)
        if not laws.passed:
            raise PreconditionError(
                f"quantale fails its laws: {laws.failures()}"
            )
        strict = not args.lax_typing
        suite = verify.run_suite(args.theorem, quantale, args.bound, strict=strict)
        witness = suite.pop("witness")
        return (
            _report(f"verify {args.theorem}", digest, suite, witness),
            EXIT_PASS if suite["result"] else EXIT_CHECK_FAILED,
        )

    raise AssertionError(f"unhandled group {args.group!r}")


def _run_hull(args: argparse.Namespace) -> tuple[dict, int]:
    if args.command == "dense":
        digest = {
            args.domain: fileio.file_digest(args.domain),
            args.codomain: fileio.file_digest(args.codomain),
            args.map: fileio.file_digest(args.map),
        }
        domain = fileio.load_space(args.domain)
        codomain = fileio.load_space(args.codomain)
        parmet.require_valid_space(domain)
        parmet.require_valid_space(codomain)
        mapping = fileio.load_mapping(args.map)
        answer = parmet.dense_isometry_check(mapping, domain, codomain)
        return (
            _report("hull dense", digest, {"dense": answer}),
            EXIT_PASS if answer else EXIT_CHECK_FAILED,
        )

    digest = {args.space: fileio.file_digest(args.space)}
    space = fileio.load_space(args.space)
    parmet.require_valid_space(space)

    if args.command == "member":
        digest[args.mu] = fileio.file_digest(args.mu)
        mu = fileio.load_radius_function(args.mu, space)
        failing = parmet.tight_violation(space, mu)
        result = {"tight": failing is None, "failing_point": failing}
        return (
            _report("hull member", digest, result),
            EXIT_PASS if failing is None else EXIT_CHECK_FAILED,
        )

    if args.command == "tighten":
        digest[args.mu] = fileio.file_digest(args.mu)
        mu = fileio.load_radius_function(args.mu, space)
        tightened = parmet.tighten_sweep(space, mu)
        fileio.dump_radius_function(tightened, space, args.out)
        result = {"output": tightened.to_dict(space), "written": args.out}
        return _report("hull tighten", digest, result), EXIT_PASS

    if args.command == "sigma":
        digest[args.mu] = fileio.file_digest(args.mu)
        digest[args.lam] = fileio.file_digest(args.lam)
        mu = fileio.load_radius_function(args.mu, space)
        lam = fileio.load_radius_function(args.lam, space)
        value = parmet.sigma(space, mu, lam)
        return _report("hull sigma", digest, {"sigma": str(value)}), EXIT_PASS

    if args.command == "hyperfamily":
        digest[args.family] = fileio.file_digest(args.family)
        base, family = fileio.load_family(args.family, space)
        outcome = parmet.hyperconvex_family_check(
            space, base, family, strict=args.strict_typing
        )
        result = outcome.to_dict()
        if not outcome.admissible:
            return (
                _report("hull hyperfamily", digest, result, result["violation"]),
                EXIT_PRECONDITION,
            )
        return (
            _report("hull hyperfamily", digest, result),
            EXIT_PASS if outcome.witness is not None else EXIT_CHECK_FAILED,
        )

    raise AssertionError(f"unhandled hull command {args.command!r}")


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    started = time.monotonic()
    try:
        report, code = _run(args)
    except SchemaError as exc:
        report, code = _error_report(args, "schema", exc), EXIT_SCHEMA
    except BoundExceededError as exc:
        report, code = _error_report(args, "bound", exc), EXIT_BOUND
    except InvariantError as exc:
        report, code = _error_report(args, "invariant", exc), EXIT_INVARIANT
    except (
        PreconditionError,
        ShapeMismatchError,
        UnsupportedQuantaleError,
    ) as exc:
        report, code = _error_report(args, "precondition", exc), EXIT_PRECONDITION
    sys.stdout.write(json.dumps(report, indent=2) + "\n")
    sys.stderr.write(f"timing_ms={int((time.monotonic() - started) * 1000)}\n")
    return code


def _error_report(args: argparse.Namespace, kind: str, exc: EnritchError) -> dict:
    if args.group == "verify":
        command = f"verify {args.theorem}"
    else:
        command = f"{args.group} {getattr(args, 'command', '')}".strip()
    return _report(command, {}, {"error": kind, "message": str(exc)})


if __name__ == "__main__":
    raise SystemExit(main())
