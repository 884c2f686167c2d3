import json
import random
from fractions import Fraction
from importlib.resources import files

import pytest

from enritch.diagonals import diagonal_quantaloid
from enritch.errors import SchemaError
from enritch.quantale import LAWVERE, FiniteQuantale, check_quantale_laws
from enritch.rationals import INF, ZERO, ExtRat

from conftest import value
from oracles import (
    LAWVERE_REFERENCE,
    boolean_quantale,
    diamond_frame,
    lukasiewicz_chain,
    nilpotent_minimum_chain,
    quantale_document,
    reference_is_divisible,
)

# The reference ops; ``test_diagonals`` checks the kernel's closed forms against them.
Q = LAWVERE_REFERENCE


def lv(x):
    return value(LAWVERE, x)


class TestLawvereOrder:
    def test_leq_is_reversed_numeric_order(self):
        assert Q._leq(lv(5), lv(3))
        assert not Q._leq(lv(3), lv(5))
        assert Q._leq(lv(3), lv(3))

    def test_zero_is_top(self):
        # leq(0, q) holds only for q = 0
        for q in [1, 2, "7/2"]:
            assert not Q._leq(lv(0), lv(q))
        assert Q._leq(lv(0), lv(0))
        assert Q._leq(lv("inf"), lv(0))

    def test_tensor_is_addition(self):
        assert Q._tensor(lv(3), lv(5)) == ExtRat(8)

    def test_infinity_absorbing(self):
        assert Q._tensor(lv("inf"), lv(2)) == INF
        assert Q._tensor(lv(2), lv("inf")) == INF

    def test_join_is_numeric_infimum(self):
        assert Q._join([lv(3), lv(5)]) == ExtRat(3)
        assert Q._join([]) == INF
        assert Q._meet([]) == ZERO
        assert Q._meet([lv(3), lv(5)]) == ExtRat(5)

    def test_involution_trivial(self):
        assert Q._involve(lv(3)) == ExtRat(3)


class TestLawvereResiduals:
    def test_closed_form_examples(self):
        # p -> q = max(0, q - p): here computed as the left residual q / p
        assert Q._residual_left(lv(5), lv(3)) == ExtRat(2)
        assert Q._residual_left(lv(3), lv(5)) == ExtRat(0)
        assert Q._residual_left(lv("inf"), lv("inf")) == ZERO
        assert Q._residual_right(lv(3), lv(5)) == ExtRat(2)

    def test_adjunction_sampled_with_zero_and_infinity(self):
        rng = random.Random(23)
        pool = [ZERO, INF] + [
            ExtRat(Fraction(rng.randint(0, 24), rng.randint(1, 8))) for _ in range(30)
        ]
        for _ in range(2000):
            a, b, c = (rng.choice(pool) for _ in range(3))
            lhs = Q._leq(Q._tensor(a, b), c)
            mid = Q._leq(a, Q._residual_left(c, b))
            rhs = Q._leq(b, Q._residual_right(a, c))
            assert lhs == mid == rhs

    def test_closed_form_equals_adjunction_oracle(self):
        # the closed form must be feasible and dominate every feasible competitor
        rng = random.Random(5)
        pool = [ZERO, INF] + [
            ExtRat(Fraction(rng.randint(0, 16), rng.randint(1, 4))) for _ in range(20)
        ]
        for u in pool:
            for w in pool:
                r = w.monus(u)
                assert r + u >= w  # feasible: r (x) u <= w in quantale order
                for cand in pool:
                    if cand + u >= w:  # cand feasible
                        assert cand >= r  # cand <= r in quantale order


class TestFiniteInstances:
    def test_all_builtins_pass_all_laws(self, boolean, luk3, luk5, nilmin5, diamond):
        for q in (boolean, luk3, luk5, nilmin5, diamond):
            report = check_quantale_laws(q)
            assert report.passed, (q.name, report.failures())

    def test_boolean_two_element_order(self, boolean):
        zero, one = value(boolean, "0"), value(boolean, "1")
        assert boolean.leq_table[zero][one]
        assert not boolean.leq_table[one][zero]

    def test_lukasiewicz_tensor_value(self, luk3):
        # 1/2 (x) 1/2 = 0; cross-checked against the adjunction oracle below
        half = value(luk3, "1/2")
        assert luk3._tensor(half, half) == value(luk3, "0")

    def test_lukasiewicz_residual_against_brute_force(self, luk3, luk5):
        for q in (luk3, luk5):
            for w in q.payloads():
                for u in q.payloads():
                    winners = [
                        v
                        for v in q.payloads()
                        if q.leq_table[q._tensor(v, u)][w]
                    ]
                    brute = q._join(winners)
                    assert q._residual_left(w, u) == brute
                    # commutative, so both residuals coincide
                    assert q._residual_right(u, w) == brute

    def test_diamond_swap_is_a_quantale_with_two_objects(self, diamond_swap):
        report = check_quantale_laws(diamond_swap)
        assert report.passed, report.failures()
        a, b = (value(diamond_swap, name) for name in ("a", "b"))
        assert diamond_swap._involve(a) == b
        dq = diagonal_quantaloid(diamond_swap)
        assert [dq.format(t) for t in dq.objects()] == ["bot", "top"]

    def test_diamond_joins(self, diamond):
        a, b, top = (value(diamond, name) for name in ("a", "b", "top"))
        assert diamond._join([a, b]) == top
        assert diamond.meet_table[a][b] == value(diamond, "bot")

    def test_nilpotent_minimum_is_integral_not_divisible(self, nilmin5):
        assert nilmin5.unit == nilmin5.top
        assert not reference_is_divisible(nilmin5)

    def test_involution_distributes_over_joins_and_residuals(
        self, luk3, nilmin5, diamond, diamond_swap
    ):
        # (join S) deg = join (S deg) and (w / u) deg = u deg \ w deg, exhaustively
        for q in (luk3, nilmin5, diamond, diamond_swap):
            for a in q.payloads():
                for b in q.payloads():
                    assert q._involve(q.join_table[a][b]) == q.join_table[
                        q._involve(a)
                    ][q._involve(b)]
                    lhs = q._involve(q._residual_left(a, b))
                    rhs = q._residual_right(q._involve(b), q._involve(a))
                    assert lhs == rhs


class TestLawSuiteFailures:
    def test_mutated_tensor_cell_fails_associativity_with_witness(self, luk3):
        data = quantale_document(luk3)
        data["tensor"][0][0] = "1/2"
        mutated = FiniteQuantale.from_dict(data, name="mutated")
        report = check_quantale_laws(mutated)
        assert not report.passed
        failed = dict(report.failures())
        assert failed["tensor_associative"] == "(0, 0, 1/2)"

    def test_non_lattice_order_reported(self):
        # two incomparable elements with no join
        q = FiniteQuantale(
            elements=["a", "b"],
            leq_table=[[True, False], [False, True]],
            tensor_table=[["a", "a"], ["a", "b"]],
            unit="b",
            involution_table=["a", "b"],
        )
        report = check_quantale_laws(q)
        assert not report.passed
        assert not dict((law, True) for law, _ in report.failures()).get(
            "partial_order", False
        )
        assert any(law == "complete_lattice" for law, _ in report.failures())

    def test_broken_order_reported_first(self):
        q = FiniteQuantale(
            elements=["a", "b"],
            leq_table=[[False, True], [True, True]],
            tensor_table=[["a", "a"], ["a", "b"]],
            unit="b",
            involution_table=["a", "b"],
        )
        report = check_quantale_laws(q)
        assert report.results[0][0] == "partial_order"
        assert not report.results[0][1]


BOOLEAN_DOC = {
    "elements": ["0", "1"],
    "leq": [[True, True], [False, True]],
    "tensor": [["0", "0"], ["0", "1"]],
    "unit": "1",
    "involution": ["0", "1"],
}


class TestSerialization:
    @pytest.mark.parametrize(
        "name, make",
        [
            ("boolean", boolean_quantale),
            ("lukasiewicz3", lambda: lukasiewicz_chain(3)),
            ("lukasiewicz5", lambda: lukasiewicz_chain(5)),
            ("nilmin5", lambda: nilpotent_minimum_chain(5)),
            ("diamond", diamond_frame),
        ],
    )
    def test_shipped_file_matches_builtin(self, name, make):
        # The CLI, the benchmark and the test fixtures read the files; the
        # constructors are an independent description of the same tables.
        shipped = files("enritch") / "data" / f"{name}.json"
        assert json.loads(shipped.read_text()) == quantale_document(make())

    def test_round_trip(self, luk5):
        data = quantale_document(luk5)
        again = FiniteQuantale.from_dict(data, name=luk5.name)
        assert quantale_document(again) == data

    def test_schema_errors(self):
        with pytest.raises(SchemaError):
            FiniteQuantale.from_dict({"elements": ["a"]})
        with pytest.raises(SchemaError):
            FiniteQuantale.from_dict(
                {
                    "elements": ["a"],
                    "leq": [[True]],
                    "tensor": [["zzz"]],
                    "unit": "a",
                    "involution": ["a"],
                }
            )
        with pytest.raises(SchemaError):
            FiniteQuantale.from_dict(
                {
                    "elements": [],
                    "leq": [],
                    "tensor": [],
                    "unit": "a",
                    "involution": [],
                }
            )
        with pytest.raises(SchemaError):
            FiniteQuantale.from_dict(
                {
                    "elements": ["a"],
                    "leq": [[1]],  # must be a boolean
                    "tensor": [["a"]],
                    "unit": "a",
                    "involution": ["a"],
                }
            )
        # strings are not lists of names, and a name must be a string
        for key, value in [
            ("elements", "01"),
            ("involution", "01"),
            ("tensor", ["00", "01"]),
            ("tensor", "0001"),
            ("leq", [[True, True], "ft"]),
            ("leq", "tf"),
            ("unit", ["1"]),
            ("unit", 1),
            ("elements", ["0", 1]),
        ]:
            with pytest.raises(SchemaError):
                FiniteQuantale.from_dict({**BOOLEAN_DOC, key: value})

    def test_json_stability(self, boolean):
        once = json.dumps(quantale_document(boolean))
        again = json.dumps(quantale_document(FiniteQuantale.from_dict(quantale_document(boolean))))
        assert once == again
