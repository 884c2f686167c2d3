"""The load-time law scans against the nested loops they replaced.

``check_quantale_laws`` and the finite kernel's verification both report
the first failing element tuple in load order.  The references below are
the hand-written scans they replaced (oracles); seeded mutants of every
shipped quantale must get the same law report and the same kernel build
outcome.
"""

import random

from enritch.diagonals import FiniteDiagonals, _composites
from enritch.errors import PreconditionError, SchemaError
from enritch.quantale import FiniteQuantale, LawReport, check_quantale_laws

from conftest import shipped_quantale, swapped_diamond
from oracles import quantale_document


def reference_check_quantale_laws(q: FiniteQuantale) -> LawReport:
    results = []
    names = q.elements
    rng = range(len(names))

    def record(law, witness):
        results.append((law, witness is None, witness))

    def partial_order_witness():
        for a in rng:
            if not q.leq_table[a][a]:
                return f"not reflexive at {names[a]}"
        for a in rng:
            for b in rng:
                if a != b and q.leq_table[a][b] and q.leq_table[b][a]:
                    return f"not antisymmetric at ({names[a]}, {names[b]})"
        for a in rng:
            for b in rng:
                for c in rng:
                    if q.leq_table[a][b] and q.leq_table[b][c] and not q.leq_table[a][c]:
                        return f"not transitive at ({names[a]}, {names[b]}, {names[c]})"
        return None

    witness = partial_order_witness()
    record("partial_order", witness)
    if witness is not None:
        return LawReport(tuple(results))
    try:
        q._derive_lattice()
        record("complete_lattice", None)
    except SchemaError as exc:
        record("complete_lattice", str(exc))
        return LawReport(tuple(results))

    def associativity_witness():
        for a in rng:
            for b in rng:
                for c in rng:
                    if q._tensor(q._tensor(a, b), c) != q._tensor(a, q._tensor(b, c)):
                        return f"({names[a]}, {names[b]}, {names[c]})"
        return None

    record("tensor_associative", associativity_witness())

    def unit_witness():
        for a in rng:
            if q._tensor(q.unit, a) != a or q._tensor(a, q.unit) != a:
                return names[a]
        return None

    record("unit_identity", unit_witness())
    record(
        "unit_is_top",
        None if q.unit == q.top else f"unit {names[q.unit]} is not the top element",
    )

    def join_preservation_witness():
        for a in rng:
            if q._tensor(a, q.bottom) != q.bottom or q._tensor(q.bottom, a) != q.bottom:
                return f"bottom not absorbed at {names[a]}"
            for b in rng:
                for c in rng:
                    jbc = q.join_table[b][c]
                    if q._tensor(a, jbc) != q.join_table[q._tensor(a, b)][q._tensor(a, c)]:
                        return f"left arg at ({names[a]}, {names[b]}, {names[c]})"
                    if q._tensor(jbc, a) != q.join_table[q._tensor(b, a)][q._tensor(c, a)]:
                        return f"right arg at ({names[a]}, {names[b]}, {names[c]})"
        return None

    record("tensor_join_preserving", join_preservation_witness())

    def involution_witnesses():
        invol = None
        for a in rng:
            if q._involve(q._involve(a)) != a:
                invol = names[a]
                break
        anti = None
        for a in rng:
            for b in rng:
                if q._involve(q._tensor(a, b)) != q._tensor(q._involve(b), q._involve(a)):
                    anti = f"({names[a]}, {names[b]})"
                    break
            if anti:
                break
        joins = None
        if q._involve(q.bottom) != q.bottom:
            joins = "bottom not preserved"
        else:
            for a in rng:
                for b in rng:
                    if q._involve(q.join_table[a][b]) != q.join_table[q._involve(a)][q._involve(b)]:
                        joins = f"({names[a]}, {names[b]})"
                        break
                if joins:
                    break
        return invol, anti, joins

    invol, anti, joins = involution_witnesses()
    record("involution_involutive", invol)
    record("involution_antihomomorphism", anti)
    record("involution_join_preserving", joins)

    def adjunction_witness():
        for a in rng:
            for b in rng:
                for c in rng:
                    lhs = q.leq_table[q._tensor(a, b)][c]
                    mid = q.leq_table[a][q._residual_left(c, b)]
                    rhs = q.leq_table[b][q._residual_right(a, c)]
                    if not (lhs == mid == rhs):
                        return f"({names[a]}, {names[b]}, {names[c]})"
        return None

    record("residuation_adjunction", adjunction_witness())
    return LawReport(tuple(results))


class ReferenceDiagonals(FiniteDiagonals):
    """The finite kernel with the verification it ran before the shared scan."""

    def _verify_kernels(self) -> None:
        q = self.quantale
        for (p, t), hom in self._homs.items():
            if q.bottom not in hom:
                raise PreconditionError(
                    f"hom({q.elements[p]}, {q.elements[t]}) misses the bottom;"
                    " the quantale is not join-preserving enough for diagonals"
                )
            for u in hom:
                for v in hom:
                    if q._join((u, v)) not in hom:
                        raise PreconditionError(
                            f"hom({q.elements[p]}, {q.elements[t]})"
                            " is not closed under joins"
                        )
        for p in q.payloads():
            if self.identity(p) not in self._homs[(p, p)]:
                raise PreconditionError(
                    f"identity {q.elements[p]} is not a diagonal on itself"
                )
        for p in q.payloads():
            for m in q.payloads():
                for r in q.payloads():
                    for u in self._homs[(p, m)]:
                        for v in self._homs[(m, r)]:
                            a, b, c = _composites(q, u, m, v)
                            if not (a == b == c):
                                raise PreconditionError(
                                    "the three composition expressions disagree at "
                                    f"({q.elements[u]}: {q.elements[p]}->"
                                    f"{q.elements[m]}, {q.elements[v]}: "
                                    f"{q.elements[m]}->{q.elements[r]})"
                                )


def outcome(call, q):
    """The value of ``call(q)``, or the class and message of what it raised."""
    try:
        return "ok", call(q)
    except (SchemaError, PreconditionError) as exc:
        return type(exc).__name__, str(exc)


def scan_results(data: dict, laws, kernel) -> tuple:
    """Law report and kernel build of a fresh copy of ``data``.

    Each side gets its own copy, so that neither sees the tables the other
    derived and cached on the quantale.
    """
    q = FiniteQuantale.from_dict(data, name="mutant")
    return (
        laws(q).to_dict(),
        outcome(lambda q: kernel(q)._homs, q),
    )


SIDES = (
    (check_quantale_laws, FiniteDiagonals),
    (reference_check_quantale_laws, ReferenceDiagonals),
)


def mutant(base: dict, rng: random.Random) -> dict:
    """``base`` with 1-3 changed tensor, leq, involution or unit cells."""
    data = {
        "elements": base["elements"],
        "leq": [list(row) for row in base["leq"]],
        "tensor": [list(row) for row in base["tensor"]],
        "unit": base["unit"],
        "involution": list(base["involution"]),
    }
    elements = data["elements"]

    def other(current):
        return rng.choice([e for e in elements if e != current])

    for _ in range(rng.randint(1, 3)):
        kind = rng.choice(("tensor", "leq", "involution", "unit"))
        i, j = rng.randrange(len(elements)), rng.randrange(len(elements))
        if kind == "tensor":
            data["tensor"][i][j] = other(data["tensor"][i][j])
        elif kind == "leq":
            data["leq"][i][j] = not data["leq"][i][j]
        elif kind == "involution":
            data["involution"][i] = other(data["involution"][i])
        else:
            data["unit"] = other(data["unit"])
    return data


BASES = {
    "boolean": lambda: shipped_quantale("boolean"),
    "lukasiewicz3": lambda: shipped_quantale("lukasiewicz3"),
    "lukasiewicz5": lambda: shipped_quantale("lukasiewicz5"),
    "nilmin5": lambda: shipped_quantale("nilmin5"),
    "diamond": lambda: shipped_quantale("diamond"),
    "diamond_swap": swapped_diamond,
}
MUTANTS_PER_BASE = 2500

LAWS = {
    "partial_order", "complete_lattice", "tensor_associative", "unit_identity",
    "unit_is_top", "tensor_join_preserving", "involution_involutive",
    "involution_antihomomorphism", "involution_join_preserving",
    "residuation_adjunction",
}
KERNEL_REFUSALS = {
    "bottom": "misses the bottom",
    "join closure": "is not closed under joins",
    "identity": "is not a diagonal on itself",
    "composites": "the three composition expressions disagree",
}


class TestScansAgreeWithNestedLoops:
    def test_builtins_pass_both(self):
        for make in BASES.values():
            q = make()
            assert check_quantale_laws(q) == reference_check_quantale_laws(q)

    def test_seeded_mutants(self):
        failed_laws, refusals, compared = set(), set(), 0
        for seed, make in enumerate(BASES.values()):
            base, rng = quantale_document(make()), random.Random(seed)
            for _ in range(MUTANTS_PER_BASE):
                data = mutant(base, rng)
                got, want = (scan_results(data, *side) for side in SIDES)
                assert got == want, data
                report, kernel = got
                failed_laws |= {law["law"] for law in report["laws"] if not law["ok"]}
                if kernel[0] == "PreconditionError":
                    refusals |= {
                        kind for kind, text in KERNEL_REFUSALS.items() if text in kernel[1]
                    }
                compared += 1
        assert compared >= 15_000
        assert failed_laws == LAWS
        assert refusals == set(KERNEL_REFUSALS)
