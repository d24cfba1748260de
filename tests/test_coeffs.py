import copy
import gc
import pickle
import random
import re
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from opalg.coeffs import (MAX_DEPTH, TOO_NESTED, MPoly, ParseError,
                          PolyParseError, PolyRing, ResourceLimit,
                          _add_scaled_into, _mul_terms, rational)
from opalg.groebner import leading_exps
from opalg.opoly import XY, parse_opoly

R = PolyRing(["a", "b", "c"])
a, b, c = R.var("a"), R.var("b"), R.var("c")


def is_rational(c) -> bool:
    """Whether ``c`` is an exact rational in its one form: an ``int`` when
    integral, a ``Fraction`` with denominator > 1 otherwise, never a float."""
    return type(c) is int or (type(c) is Fraction and c.denominator > 1)


def test_ring_basics():
    assert R.zero().is_zero
    assert R.one().constant_value() == 1
    assert R.const(Fraction(3, 2)).constant_value() == Fraction(3, 2)
    assert (a - a).is_zero
    with pytest.raises(ValueError):
        PolyRing(["a", "a"])


def test_arithmetic():
    p = (a + b) * (a - b)
    assert p == a * a - b * b
    assert (a + 1) ** 2 == a * a + 2 * a + 1
    assert 2 * a - a == a
    assert (a * b) / 2 == a * b * Fraction(1, 2)
    with pytest.raises(ValueError):
        (a + 1) / b


def test_rational_passes_a_fraction_through():
    q = Fraction(7, 3)
    assert rational(q) is q
    whole = rational(Fraction(-12, 4))
    assert type(whole) is int and whole == -3
    n = 10**30
    assert rational(n) is n


@pytest.mark.parametrize("value,expected", [
    (True, 1), (False, 0), (2.0, 2), (0.5, Fraction(1, 2)),
    (-0.25, Fraction(-1, 4)), ("3/4", Fraction(3, 4)), ("6/3", 2), ("-5", -5),
])
def test_rational_reads_other_inputs_through_fraction(value, expected):
    got = rational(value)
    assert got == expected and type(got) is type(expected)


def test_is_constant_counts_terms_first():
    assert not (a + 3).is_constant
    assert not (a * b - 1).is_constant
    assert R.zero().is_constant
    assert R.const(Fraction(-2, 5)).is_constant


def test_mixed_ring_rejected():
    other = PolyRing(["a", "b"])
    with pytest.raises(ValueError):
        a + other.var("a")


def test_views():
    p = a * a * b - 2 * c + 3
    assert p.degree_in("a") == 2
    assert p.variables() == {"a", "b", "c"}
    assert p.terms[(2, 1, 0)] == 1 and p.terms[(0, 0, 1)] == -2
    assert not p.is_constant
    assert R.const(5).is_constant


def test_subs_and_evaluate():
    p = a * a - b
    assert p.subs({"a": 2}).terms == (R.const(4) - b).terms
    assert p.subs({"a": b}) == b * b - b
    assert p.evaluate({"a": Fraction(1, 2), "b": Fraction(1, 4), "c": 0}) == 0
    q = (a + b) ** 3
    assert q.evaluate({"a": 1, "b": 2, "c": 9}) == 27


def monomial(ring, exps, coeff):
    """The one-term polynomial coeff * x^exps of ``ring``; zero at a zero
    coefficient."""
    coeff = rational(coeff)
    return MPoly(ring, {tuple(exps): coeff} if coeff else {})


def _random_mpoly(rng, nterms, max_exp=3):
    p = R.zero()
    for _ in range(nterms):
        e = tuple(rng.randint(0, max_exp) for _ in R.vars)
        p = p + monomial(R, e, Fraction(rng.randint(-4, 4), rng.randint(1, 3)))
    return p


def _subs_reference(p, assignment):
    """Term-by-term substitution with ring arithmetic only."""
    out = R.zero()
    for e, coeff in p.terms.items():
        term = R.const(coeff)
        for name, k in zip(R.vars, e):
            v = assignment.get(name, R.var(name))
            term = term * (v if isinstance(v, MPoly) else R.const(v)) ** k
        out = out + term
    return out


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**31 - 1))
def test_subs_agrees_with_evaluate(seed):
    rng = random.Random(seed)
    p = _random_mpoly(rng, rng.randrange(0, 6))
    assignment = {}
    for name in R.vars:  # free, rational, zero or polynomial; partial if free
        kind = rng.randrange(4)
        if kind == 1:
            assignment[name] = Fraction(rng.randint(-3, 3), rng.randint(1, 3))
        elif kind == 2:
            assignment[name] = rng.choice((0, Fraction(0), R.zero()))
        elif kind == 3:
            assignment[name] = _random_mpoly(rng, rng.randrange(0, 3), max_exp=2)
    q = p.subs(assignment)
    assert q == _subs_reference(p, assignment)
    assert all(is_rational(v) and v != 0 for v in q.terms.values())
    for _ in range(3):
        point = {n: Fraction(rng.randint(-3, 3), rng.randint(1, 2)) for n in R.vars}
        inner = {n: v.evaluate(point) if isinstance(v, MPoly) else Fraction(v)
                 for n, v in assignment.items()}
        assert q.evaluate(point) == p.evaluate(point | inner)
    if len(assignment) == len(R.vars) and \
            not any(isinstance(v, MPoly) for v in assignment.values()):
        assert q.is_constant and q.constant_value() == p.evaluate(assignment)


def test_subs_without_an_occurring_variable_returns_the_polynomial():
    p = a * a - b
    assert p.subs({"c": 3}) is p
    assert p.subs({}) is p
    assert p.subs({"a": a}) is not p


def test_subs_without_an_occurring_variable_builds_no_constant(monkeypatch):
    p = a * a - b
    calls = []
    original = PolyRing.const

    def counted(ring, value):
        calls.append(value)
        return original(ring, value)

    monkeypatch.setattr(PolyRing, "const", counted)
    assert p.subs({"c": Fraction(1, 2)}) is p
    assert calls == []
    assert p.subs({"b": 3, "c": 2}) == a * a - original(R, 3)
    assert calls == [3, 2]
    with pytest.raises(ValueError):
        p.subs({"c": PolyRing(["c"]).var("c")})


def test_subs_leaves_no_reference_cycle():
    # each call's powers used to live in a self-referencing closure, which only
    # the cyclic collector could free
    p = (a + b) ** 3 - c * a * a
    gc.collect()
    gc.disable()
    try:
        p.subs({"a": b + 1, "c": Fraction(1, 2)})
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_subs_rejects_values_from_another_ring():
    other = PolyRing(["a", "b"])
    with pytest.raises(ValueError):
        (a * b).subs({"a": other.var("b")})


def test_monomial_content():
    p = a * a * b + a * b * b
    assert p.monomial_content() == (1, 1, 0)
    assert p.divide_monomial((1, 1, 0)) == a + b
    with pytest.raises(ValueError):
        (a + b).divide_monomial((1, 0, 0))
    assert R.zero().monomial_content() == (0, 0, 0)


@pytest.mark.parametrize("text,expected", [
    ("a", lambda: a),
    ("a^2 - a", lambda: a * a - a),
    ("b^2 - b - c*e", None),   # e unknown in R
    ("-a + 3", lambda: 3 - a),
    ("2*a*b", lambda: 2 * a * b),
    ("(a + b)^2", lambda: (a + b) ** 2),
    ("1/2", lambda: R.const(Fraction(1, 2))),
    ("a b", lambda: a * b),
    ("-(a - b)", lambda: b - a),
])
def test_parse(text, expected):
    if expected is None:
        with pytest.raises(PolyParseError):
            R.parse(text)
    else:
        assert R.parse(text) == expected()


# a digit run one longer than the interpreter converts to an integer
OVERLONG = "1" * (sys.get_int_max_str_digits() + 1)


@pytest.mark.parametrize("parse, text, at", [
    (R.parse, OVERLONG + "*a", 0),
    (R.parse, "a^" + OVERLONG, 2),
    (lambda text: parse_opoly(text, XY), "x - " + OVERLONG + " y", 4),
], ids=["coefficient ring", "exponent", "operated polynomial"])
def test_overlong_digit_run_is_a_parse_error(parse, text, at):
    with pytest.raises(ParseError) as err:
        parse(text)
    assert err.value.position == at


def test_digit_run_at_the_limit_parses():
    n = int(OVERLONG[1:])
    assert R.parse(OVERLONG[1:] + "*a") == n * a
    assert parse_opoly("x - " + OVERLONG[1:] + " y", XY) == \
        parse_opoly("x", XY) - parse_opoly("y", XY).scale(n)


def test_parentheses_nest_up_to_the_depth_cap_and_no_further():
    ring = PolyRing(("a",))
    assert ring.parse("(" * MAX_DEPTH + "a" + ")" * MAX_DEPTH) == \
        ring.var("a")
    for n in (MAX_DEPTH + 1, 1200):
        with pytest.raises(ResourceLimit, match=f"^{re.escape(TOO_NESTED)}$"):
            ring.parse("(" * n + "a" + ")" * n)


@pytest.mark.parametrize("signs, sign", [(3000, 1), (3001, -1)])
def test_a_chain_of_minus_signs_is_read_in_a_loop(signs, sign):
    ring = PolyRing(("a",))
    assert ring.parse("a*" + "- " * signs + "1") == ring.var("a") * sign


def test_parse_print_roundtrip():
    for p in [a * a - a, 3 * a * b - Fraction(1, 2) * c + 1, -a, R.const(0),
              (a - b) * (b - c), a ** 3 - 2 * a * c ** 2]:
        assert R.parse(str(p)) == p


def test_str_forms():
    assert str(R.zero()) == "0"
    assert str(a * a - a) == "a^2 - a"
    assert str(-a + b) == "-a + b"
    assert str(R.const(Fraction(-1, 2))) == "-1/2"
    assert str(2 * a * b) == "2*a*b"


def test_order_keys():
    # lex with a > b > c
    assert leading_exps(a + b ** 5 * c ** 5) == (1, 0, 0)


# -- one-term products and the hash and string memos --------------------------


def _mul_terms_reference(t1: dict, t2: dict) -> dict:
    """The general product, every factor alike: the term order and
    coefficient types that ``_mul_terms`` must keep on its one-term path."""
    out: dict = {}
    for e1, c1 in t1.items():
        _add_scaled_into(out, {tuple(a + b for a, b in zip(e1, e2)): c2
                               for e2, c2 in t2.items()}, c1)
    return out


_exps = st.tuples(*[st.integers(0, 3)] * R.nvars)
_coeff = st.one_of(
    st.integers(-5, 5).filter(bool),
    st.fractions(min_value=-5, max_value=5, max_denominator=6)
    .filter(lambda q: q.denominator > 1))
_constant = st.builds(lambda c: {(0,) * R.nvars: c}, _coeff)
_terms = st.one_of(st.dictionaries(_exps, _coeff, min_size=1, max_size=1),
                   _constant,
                   st.dictionaries(_exps, _coeff, max_size=6))


def _typed_items(terms: dict) -> list:
    return [(e, c, type(c)) for e, c in terms.items()]


@settings(max_examples=300, deadline=None)
@given(t1=_terms, t2=_terms)
def test_products_keep_the_general_paths_order_and_types(t1, t2):
    assert _typed_items(_mul_terms(t1, t2)) == _typed_items(
        _mul_terms_reference(t1, t2))


def _fresh(p: MPoly) -> MPoly:
    return MPoly(p.ring, dict(p.terms))


@settings(max_examples=100, deadline=None)
@given(t1=_terms, t2=_terms, value=_terms, c=_coeff)
def test_memoised_hash_and_string_are_those_of_a_fresh_polynomial(
        t1, t2, value, c):
    p, q = MPoly(R, t1), MPoly(R, t2)
    for r in (p, q):   # fill the operands' memos before they are used
        hash(r), str(r)
    for r in (p + q, p * q, q * p, p.subs({"a": MPoly(R, value)}),
              p.subs({"b": c}), p / c, p / 1):
        # the first reading fills the memos, the second reads them
        assert (hash(r), str(r)) == (hash(_fresh(r)), str(_fresh(r)))
        assert (hash(r), str(r)) == (hash(_fresh(r)), str(_fresh(r)))


def test_division_by_one_returns_the_polynomial():
    p = 3 * a * b - Fraction(1, 2) * c
    assert p / 1 is p
    assert p / Fraction(1) is p
    assert p / R.one() is p
    assert (p / 2).terms == {(1, 1, 0): Fraction(3, 2), (0, 0, 1): Fraction(-1, 4)}


def test_a_product_by_one_is_the_other_factor(monkeypatch):
    p = 3 * a * b - Fraction(1, 2) * c
    one = R.one()
    calls = []
    original = PolyRing.const

    def counted(ring, value):
        calls.append(value)
        return original(ring, value)

    monkeypatch.setattr(PolyRing, "const", counted)
    assert p * 1 is p and 1 * p is p
    # the int one is told apart by its type before ``==``, which would
    # build a constant to compare an MPoly with
    assert calls == []
    assert p * one is p and one * p is p and one * one is one
    assert R.zero() * one == R.zero() and one * R.zero() == R.zero()
    # other products are the general path's, terms in its order
    for q in (a + b, R.const(2), R.zero()):
        for x, y in ((p, q), (q, p)):
            got = x * y
            assert list(got.terms.items()) == list(
                _mul_terms(x.terms, y.terms).items())
    assert list((p * 2).terms.items()) == [((1, 1, 0), 6), ((0, 0, 1), -1)]
    assert list((2 * p).terms.items()) == [((1, 1, 0), 6), ((0, 0, 1), -1)]
    with pytest.raises(ValueError):
        p * PolyRing(["a", "b"]).one()


@pytest.mark.parametrize("duplicate", [
    copy.copy, copy.deepcopy, lambda p: pickle.loads(pickle.dumps(p))],
    ids=["copy", "deepcopy", "pickle"])
def test_a_duplicate_polynomial_computes_its_own_memos(duplicate):
    # a memoised hash is good for one process only: a string hashes
    # differently in the next, so a pickle must not carry it
    p = a * b - Fraction(1, 2) * c
    hash(p), str(p)
    q = duplicate(p)
    assert (q._hash_memo, q._str_memo) == (None, None)
    assert q == p and hash(q) == hash(p) and str(q) == str(p)
