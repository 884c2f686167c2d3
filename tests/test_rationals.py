import itertools
import math
import operator
import random
import sys
import time
from decimal import Decimal
from fractions import Fraction

import pytest

from enritch.errors import BoundExceededError, SchemaError
from enritch.rationals import INF, ZERO, ExtRat, integer_rows

from oracles import FractionExtRat, fraction_parse, to_fraction

# The interpreter's int-to-string digit limit, or its default where it is off.
_MAX_DIGITS = sys.get_int_max_str_digits() or 4300


def er(x) -> ExtRat:
    return ExtRat(Fraction(x))


class TestConstruction:
    def test_canonical_form(self):
        assert to_fraction(ExtRat(Fraction(2, 4))) == Fraction(1, 2)
        assert to_fraction(ExtRat(Fraction(6, 3))) == Fraction(2)
        assert (ExtRat(Fraction(6, 4))._n, ExtRat(Fraction(6, 4))._d) == (3, 2)
        assert (ExtRat(0)._n, ExtRat(0)._d) == (0, 1)
        assert (INF._n, INF._d) == (1, 0)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            ExtRat(Fraction(-1, 2))

    def test_only_int_fraction_or_none_accepted(self):
        assert ExtRat(None) == INF and ExtRat(3) == ExtRat(Fraction(3))
        for bad in [0.1, 0.5, "3/4", "inf", Decimal("1"), True, False]:
            with pytest.raises(TypeError, match="an int, a Fraction or None"):
                ExtRat(bad)

    def test_immutable(self):
        a = er(1)
        for slot in ("_n", "_d", "_frac"):
            with pytest.raises(AttributeError):
                setattr(a, slot, 2)
        assert (a._n, a._d) == (1, 1)

    def test_parse_and_format_round_trip(self):
        for text in ["0", "7", "3/4", "22/7", "inf"]:
            assert str(ExtRat.parse(text)) == text

    @pytest.mark.parametrize(
        "text", ["1e5000", "1e-5000", "7.5e4400", "-1e5000", "1e10000000", "1e-10000000"]
    )
    def test_parse_refuses_a_numerator_or_denominator_str_cannot_write(self, text):
        with pytest.raises(SchemaError, match=f"more than {_MAX_DIGITS} digits"):
            ExtRat.parse(text)

    def test_parse_draws_the_digit_limit_exactly(self):
        # 10**(limit - 1) has limit digits; 10**limit has one more
        top = ExtRat.parse(f"1e{_MAX_DIGITS - 1}")
        assert (top._n, top._d) == (10 ** (_MAX_DIGITS - 1), 1)
        low = ExtRat.parse(f"5e-{_MAX_DIGITS}")  # 1 / (2 * 10**(limit - 1))
        assert (low._n, low._d) == (1, 2 * 10 ** (_MAX_DIGITS - 1))
        for text in [f"1e{_MAX_DIGITS}", f"1e-{_MAX_DIGITS}", "1" * 2200 + "." + "1" * 2200]:
            with pytest.raises(SchemaError, match="more than"):
                ExtRat.parse(text)
        # a zero mantissa is zero whatever its exponent
        assert ExtRat.parse("0e10000000") == ExtRat.parse("-0.00E-10000000") == ZERO

    def test_format_refuses_a_value_str_cannot_write(self):
        # each literal is admitted, but their sum's denominator is the
        # product of two 2,201-digit denominators
        a = ExtRat.parse("1/" + "7" * 2200 + "1")
        b = ExtRat.parse("1/" + "3" * 2200 + "1")
        with pytest.raises(BoundExceededError, match=f"more than {_MAX_DIGITS} digits"):
            str(a + b)
        # drawn where parse draws it: at 10**limit, the first int of one digit more
        assert str(ExtRat(10 ** (_MAX_DIGITS - 1))) == "1" + "0" * (_MAX_DIGITS - 1)
        for value in [10**_MAX_DIGITS, Fraction(1, 10**_MAX_DIGITS)]:
            with pytest.raises(BoundExceededError):
                str(ExtRat(value))
        assert str(INF) == "inf"

    def test_repr_writes_a_value_str_cannot(self):
        # the sum of the two admitted literals above: str refuses it, repr
        # falls back to hex digits and still names the value
        a = ExtRat.parse("1/" + "7" * 2200 + "1")
        b = ExtRat.parse("1/" + "3" * 2200 + "1")
        total = a + b
        with pytest.raises(BoundExceededError):
            str(total)
        text = repr(total)
        assert text.startswith("ExtRat(Fraction(0x")
        assert eval(text, {"ExtRat": ExtRat, "Fraction": Fraction}) == total
        assert repr(a) == f"ExtRat({str(a)!r})"
        assert repr(INF) == "ExtRat('inf')"
        assert repr(ExtRat(Fraction(3, 4))) == "ExtRat('3/4')"

    def test_a_huge_exponent_is_refused_before_it_is_expanded(self):
        started = time.perf_counter()
        with pytest.raises(SchemaError):
            ExtRat.parse("1e10000000")
        assert time.perf_counter() - started < 1.0

    def test_parse_rejects_garbage(self):
        for bad in ["-1", "1/0", "a", "1.5.2"]:
            with pytest.raises(SchemaError):
                ExtRat.parse(bad)
        with pytest.raises(SchemaError):
            ExtRat.parse(3)


class TestArithmetic:
    def test_addition(self):
        assert er(3) + er(5) == er(8)
        assert ExtRat(Fraction(1, 2)) + ExtRat(Fraction(1, 3)) == ExtRat(Fraction(5, 6))

    def test_infinity_absorbing_both_sides(self):
        assert INF + er(2) == INF
        assert er(2) + INF == INF
        assert INF + INF == INF

    def test_addition_commutative_associative_sampled(self):
        rng = random.Random(7)
        pool = [INF, ZERO] + [
            ExtRat(Fraction(rng.randint(0, 30), rng.randint(1, 9))) for _ in range(40)
        ]
        for _ in range(500):
            a, b, c = rng.choice(pool), rng.choice(pool), rng.choice(pool)
            assert a + b == b + a
            assert (a + b) + c == a + (b + c)

    def test_monus_conventions(self):
        # b monus inf = 0, including inf monus inf
        assert er(5).monus(INF) == ZERO
        assert INF.monus(INF) == ZERO
        # inf monus finite = inf
        assert INF.monus(er(5)) == INF
        # else truncated difference
        assert er(5).monus(er(3)) == er(2)
        assert er(3).monus(er(5)) == ZERO
        assert er(3).monus(er(3)) == ZERO

    def test_monus_is_residual_of_addition(self):
        # b.monus(a) must be the least r with r + a >= b (numerically).
        rng = random.Random(11)
        pool = [INF, ZERO] + [
            ExtRat(Fraction(rng.randint(0, 12), rng.randint(1, 4))) for _ in range(25)
        ]
        for a in pool:
            for b in pool:
                r = b.monus(a)
                assert r + a >= b
                # nothing strictly smaller works: check against the pool
                for cand in pool:
                    if cand < r:
                        assert not cand + a >= b


class TestOrder:
    def test_numeric_order_with_infinity_on_top(self):
        assert er(3) < er(5) < INF
        assert not INF < INF
        assert ZERO <= er(0)

    def test_max_min_builtins_work(self):
        vals = [er(3), INF, ZERO, ExtRat(Fraction(1, 2))]
        assert max(vals) == INF
        assert min(vals) == ZERO

    def test_hash_consistency(self):
        assert hash(er(2)) == hash(ExtRat(Fraction(4, 2)))
        assert len({er(1), ExtRat(Fraction(2, 2)), INF, INF}) == 2


# Every pair from this grid is checked against Fraction arithmetic, with
# None standing for infinity.
GRID = [Fraction(0), Fraction(1, 3), Fraction(1, 2), Fraction(2), Fraction(7, 3), None]


def ext(v) -> ExtRat:
    return INF if v is None else ExtRat(v)


def ref_add(x, y):
    return None if x is None or y is None else x + y


def ref_monus(b, a):
    if a is None:
        return Fraction(0)
    if b is None:
        return None
    return max(Fraction(0), b - a)


def ref_key(v):
    """Sort key of the numeric order with infinity on top."""
    return (1, 0) if v is None else (0, v)


class TestOperatorGrid:
    @pytest.mark.parametrize(
        "x, y", list(itertools.product(GRID, GRID)), ids=lambda v: str(ext(v))
    )
    def test_against_fraction_reference(self, x, y):
        a, b = ext(x), ext(y)
        for result, expected in ((a + b, ref_add(x, y)), (a.monus(b), ref_monus(x, y))):
            assert type(result) is ExtRat
            assert (result == INF) == (expected is None)
            if expected is not None:
                assert to_fraction(result) == expected
                assert result._d == expected.denominator
            assert result == ext(expected)
            assert hash(result) == hash(ext(expected))
            with pytest.raises(AttributeError):
                result._n = 5
        for op in (operator.lt, operator.le, operator.gt, operator.ge, operator.eq):
            got = op(a, b)
            assert type(got) is bool
            assert got == op(ref_key(x), ref_key(y)), op.__name__
        if a == b:
            assert hash(a) == hash(b)

    def test_int_operands_raise(self):
        one = er(1)
        for op in (operator.lt, operator.le, operator.gt, operator.ge, operator.add):
            with pytest.raises(TypeError):
                op(one, 1)
            with pytest.raises(TypeError):
                op(1, one)
        with pytest.raises(TypeError):
            one.monus(1)
        assert one != 1


# -- differential: the int-pair ExtRat against the Fraction-backed one ------------

DENOMINATORS = (1, 2, 3, 7, 12, 97)


def random_value(rng: random.Random) -> Fraction | None:
    """0, infinity, or a rational over a mixed denominator, some of whose
    numerators exceed 2**64."""
    kind = rng.random()
    if kind < 0.1:
        return Fraction(0)
    if kind < 0.2:
        return None
    d = rng.choice(DENOMINATORS)
    n = rng.randint(2**64, 2**70) if kind < 0.4 else rng.randint(0, 40)
    return Fraction(n, d)


def assert_reduced(v: ExtRat) -> None:
    assert type(v) is ExtRat
    assert type(v._n) is int and type(v._d) is int
    assert math.gcd(v._n, v._d) == 1
    assert v._d >= 0 and v._n >= 0


class TestAgainstFractionExtRat:
    def test_seeded_pairs(self):
        rng = random.Random(2201)
        comparisons = (operator.lt, operator.le, operator.gt, operator.ge, operator.eq)
        for _ in range(20_000):
            x, y = random_value(rng), random_value(rng)
            a, b = ExtRat(x), ExtRat(y)
            ra, rb = FractionExtRat(x), FractionExtRat(y)
            assert str(a) == str(ra) and str(b) == str(rb)
            for got, want in ((a + b, ra + rb), (a.monus(b), ra.monus(rb))):
                assert_reduced(got)
                assert str(got) == str(want)
            for op in comparisons:
                assert op(a, b) is op(ra, rb), (op.__name__, x, y)
            if a == b:
                assert hash(a) == hash(b)

    def test_parse_accepts_and_refuses_alike(self):
        literals = ["0", " 7 ", "3/4", "6/8", "22/7", "inf", " inf", "1.5", "1e3",
                    "-0", "0/5", "+2", str(2**70) + "/12", "-1", "1/0", "a", "1.5.2",
                    "", "inf/2", "-inf", "nan", "1/-2", "3 /4"]
        for text in literals:
            try:
                want = str(FractionExtRat.parse(text))
            except SchemaError:
                with pytest.raises(SchemaError):
                    ExtRat.parse(text)
                continue
            got = ExtRat.parse(text)
            assert_reduced(got)
            assert str(got) == want, text

    def test_integer_rows_reads_the_slots(self):
        matrix = [
            [ExtRat(Fraction(1, 2)), INF, ZERO],
            [ExtRat(Fraction(2**65, 7)), ExtRat(3), ExtRat(Fraction(5, 12))],
        ]
        rows = integer_rows(matrix)
        scale = 84
        assert rows == [
            [42, None, 0],
            [2**65 * 12, 252, 35],
        ]
        for row, ints in zip(matrix, rows):
            for cell, k in zip(row, ints):
                assert (cell == INF) == (k is None)
                if k is not None:
                    assert Fraction(k, scale) == to_fraction(cell)


def parse_outcome(parse, text):
    """(numerator, denominator) of ``parse(text)``, or its SchemaError message."""
    try:
        value = parse(text)
    except SchemaError as exc:
        return ("error", str(exc))
    return (value._n, value._d)


def digits(rng, width: int) -> str:
    return "".join(rng.choice("0123456789") for _ in range(width))


class TestParseFastPath:
    """``ExtRat.parse`` against the Fraction-only parse it replaced."""

    def assert_same(self, texts):
        for text in texts:
            assert parse_outcome(ExtRat.parse, text) == parse_outcome(fraction_parse, text), text

    def test_seeded_canonical_literals(self):
        rng = random.Random(28)
        texts = []
        for _ in range(400):
            n, d = rng.randint(0, 10**rng.randint(1, 30)), rng.randint(1, 10**rng.randint(1, 30))
            k = rng.randint(1, 50)
            zeros = "0" * rng.randint(0, 3)
            texts += [str(n), f"{n}/{d}", f"{n * k}/{d * k}", f"{zeros}{n}/{zeros}{d}", zeros + str(n)]
        texts += ["0", "00", "0/7", "000/0001", "12/4", "1/1"]
        self.assert_same(texts)

    def test_literals_at_the_length_limits(self):
        rng = random.Random(4300)
        texts = []
        # around the fast path's length, and around the interpreter's digit limit
        for width in (638, 639, 640, 641, _MAX_DIGITS - 1, _MAX_DIGITS, _MAX_DIGITS + 1):
            body = "1" + digits(rng, width - 1)
            texts += [body, "0" * (width - 1) + "7", f"{body}/3", f"3/{body}", f"{body}/{body}"]
            texts += [f"{body[: width // 2]}/{body[width // 2 :]}"]
        self.assert_same(texts)

    def test_hostile_literals(self):
        self.assert_same([
            "+1", "-1", "1/0", "0/0", "1 / 2", " 3/4 ", "1_000", "\u0661\u0662", "1/2/3",
            "/2", "2/", "", "1.5", "2e3", "1e5000", "inf", " inf ", "/", "1/+2", "1/-2",
            "3\n", "\t3/4", "1/0_0", "\u00b2", "1/\u0662", "0x10", "Inf", "in", "1/2 ",
        ])
        for bad in (12, None, 1.5, b"1/2"):
            assert parse_outcome(ExtRat.parse, bad) == parse_outcome(fraction_parse, bad)

    def test_the_fast_path_values_are_reduced(self):
        for text in ("6/8", "0/9", "0012/0018", "10/5"):
            value = ExtRat.parse(text)
            assert_reduced(value)
            assert to_fraction(value) == Fraction(text)
