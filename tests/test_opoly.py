"""Operated-polynomial arithmetic, leading terms, parsing, identity objects."""

import random
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from opalg.catalog import FAMILIES
from opalg.coeffs import TOO_NESTED, MPoly, PolyRing, ResourceLimit
from opalg.groebner import buchberger, nf_mod_ideal
from opalg.gsb import associativity_defect
from opalg.opoly import (DIFFERENTIAL, ROTA_BAXTER, OpIdentity, OPoly, XY,
                         parse_opoly, to_str_opoly)
from opalg.ordering import OrderConfig, order_key
from opalg.rewrite import RuleSchema
from opalg.words import (UNIT, ParseError, Word, bracket, parse, sample_word,
                         splice, to_str)
from test_coeffs import is_rational

PURE = OrderConfig(XY, "purelex")
DLL = OrderConfig(XY, "deglenlex")


def w(text):
    return parse(text, XY)


def word_or_unit(rng):
    """A sampled word over x, y, or the unit, which ``sample_word`` never
    returns, one time in four."""
    return UNIT if rng.random() < 0.25 else sample_word(rng, XY, 3, 2)


def p(text, ring=None):
    return parse_opoly(text, XY, ring=ring)


# -- arithmetic --------------------------------------------------------------------


def test_noncommutative_product():
    assert p("x + y") * p("x - y") == p("x x - x y + y x - y y")


def test_product_bilinear_over_samples():
    rng = random.Random(2)

    def rand_poly():
        out = OPoly.zero()
        for _ in range(rng.randrange(1, 4)):
            word = word_or_unit(rng)
            out = out + OPoly({word: Fraction(rng.randrange(-3, 4))})
        return out

    for _ in range(40):
        a, b, c = rand_poly(), rand_poly(), rand_poly()
        assert a * (b + c) == a * b + a * c
        assert (a + b) * c == a * c + b * c
        assert (a * b) * c == a * (b * c)


def test_unit_word_is_multiplicative_identity():
    one = OPoly.from_word(w("1"))
    q = p("2*x [y] - y")
    assert one * q == q and q * one == q


def test_scale_and_neg():
    q = p("x - y")
    assert q.scale(Fraction(-2)) == p("-2*x + 2*y")
    assert -q == p("y - x")
    assert (q - q).is_zero


def test_zero_coefficients_drop_out():
    assert (p("x") + p("-x")).terms == {}
    assert p("0*x y").is_zero


def test_mixed_ring_rejected():
    r1, r2 = PolyRing(["a"]), PolyRing(["b"])
    with pytest.raises(ValueError):
        p("a*x", r1) + p("b*x", r2)


# -- the internal accumulation path against term-by-term references -----------------
#
# Each reference collects plain coefficient values word by word and only then
# builds the polynomial with the validating constructor ``OPoly(terms, ring)``.

AB = PolyRing(["a", "b"])
_WORD_POOL = [w(t) for t in ("1", "x", "y", "x y", "[x]", "[1]", "y [x]")]


def _coeff_pool(ring):
    if ring is None:
        return [Fraction(1), Fraction(-1), Fraction(2), Fraction(1, 2), 3]
    return [ring.one(), -ring.one(), ring.var("a"), -ring.var("a"),
            ring.parse("a - b"), ring.parse("b - a"), Fraction(1, 2), 2]


def _random_poly(rng, ring, size):
    """A sum over a small word pool, so that terms collide and cancel."""
    return OPoly({rng.choice(_WORD_POOL): rng.choice(_coeff_pool(ring))
                  for _ in range(size)}, ring=ring)


def _collect(pairs, ring):
    """OPoly(...) of the word-by-word sums of (word, coefficient) pairs."""
    zero = Fraction(0) if ring is None else ring.zero()
    sums = {}
    for word, c in pairs:
        sums[word] = sums.get(word, zero) + c
    return OPoly(sums, ring=ring)


def _ref_expand(word, values):
    """(word, coefficient) pairs of ``word`` with generators replaced."""
    out = [(UNIT, 1)]
    for a in word.atoms:
        if isinstance(a, str):
            v = values.get(a, Word((a,)))
            factor = ([(v, 1)] if isinstance(v, Word)
                      else list(v.terms.items()))
        else:
            factor = [(bracket(u), c) for u, c in _ref_expand(a, values)]
        out = [(u1 * u2, c1 * c2) for u1, c1 in out for u2, c2 in factor]
    return out


def _assert_canonical(q, ring):
    for c in q.terms.values():
        if ring is None:
            assert is_rational(c)
        else:
            assert isinstance(c, MPoly) and c.ring == ring
            assert all(map(is_rational, c.terms.values()))
        assert c != 0


@pytest.mark.parametrize("ring", [None, AB], ids=["numeric", "symbolic"])
@settings(max_examples=150, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**31 - 1))
def test_arithmetic_matches_term_by_term_reference(ring, seed):
    rng = random.Random(seed)
    a = _random_poly(rng, ring, rng.randrange(0, 5))
    b = _random_poly(rng, ring, rng.randrange(0, 5))
    if rng.random() < 0.3:
        b = b - a.scale(rng.choice([1, -1]))  # sums that cancel
    ta, tb = list(a.terms.items()), list(b.terms.items())
    results = [
        (a + b, _collect(ta + tb, ring)),
        (a - b, _collect(ta + [(u, -c) for u, c in tb], ring)),
        (a * b, _collect([(u1 * u2, c1 * c2) for u1, c1 in ta
                          for u2, c2 in tb], ring)),
        (a + (-a), OPoly.zero(ring)),
    ]
    factors = [0, 1, -3, Fraction(2, 3)]
    if ring is not None:
        factors += [ring.var("b"), ring.parse("a - 1")]
    for f in factors:
        results.append((a.scale(f), _collect([(u, c * f) for u, c in ta], ring)))
    for values in ({"x": w("y"), "y": w("x")}, {"x": w("x x"), "y": UNIT}):
        results.append((a.subst_generators(values),
                        _collect([(u2, c * c2) for u, c in ta
                                  for u2, c2 in _ref_expand(u, values)], ring)))
    for got, want in results:
        assert got == want
        _assert_canonical(got, ring)
    for values in ({"x": b, "y": w("[y]")}, {"x": a, "y": b}):
        with pytest.raises(ValueError):
            a.subst_generators(values)


@pytest.mark.parametrize("name", sorted(
    name for name, fam in FAMILIES.items() if fam.mode == ROTA_BAXTER))
def test_rota_baxter_defect_matches_product_expansion(name):
    # M(M(u, v), w) - M(u, M(v, w)) multiplied out as products, with the
    # terms of each nested pattern in the order their expansion visits them
    ident = FAMILIES[name].identity()
    ring = ident.ring

    def nested(values):
        return _collect([(u2, c * c2) for m, c in ident.pattern.terms.items()
                         for u2, c2 in _ref_expand(m, values)], ring)

    gu, gv, gw = (Word((g,)) for g in "uvw")
    for u, v, t in ((gu, gv, gw), (gu * gv, bracket(gw), bracket(UNIT))):
        want = (nested({"x": ident.pattern_at(u, v), "y": t})
                - nested({"x": u, "y": ident.pattern_at(v, t)}))
        got = associativity_defect(ident, u, v, t)
        assert list(got.terms.items()) == list(want.terms.items())
        _assert_canonical(got, ring)


def test_trusted_path_keeps_ring_checks():
    r1, r2 = PolyRing(["a"]), PolyRing(["b"])
    one, two, numeric = p("a*x", r1), p("b*x", r2), p("x")
    for left, right in ((one, two), (one, numeric), (numeric, two)):
        for op in (lambda s, t: s + t, lambda s, t: s - t, lambda s, t: s * t):
            with pytest.raises(ValueError):
                op(left, right)
    with pytest.raises(ValueError):
        one.scale(r2.var("b"))
    with pytest.raises(ValueError):
        numeric.scale(r1.var("a"))
    with pytest.raises(ValueError):
        one.subst_generators({"x": two})


# -- substitution ------------------------------------------------------------------


def test_subst_generators_expands_products():
    der = p("[x y] - [x] y - x [y]")
    inst = der.subst_generators({"x": w("x x"), "y": w("[y]")})
    assert inst == p("[x x [y]] - [x x] [y] - x x [[y]]")


def test_subst_generators_with_polynomial_values():
    # only words are substituted; products are multiplied out by ``*``
    q = p("x y")
    with pytest.raises(ValueError):
        q.subst_generators({"x": p("x + y"), "y": p("x - y")})
    with pytest.raises(ValueError):
        q.subst_generators({"x": w("y"), "y": p("x")})


# -- leading terms -----------------------------------------------------------------


def leading(poly, cfg):
    """The order-maximal word of ``poly`` with its coefficient."""
    lw = max(poly.terms, key=order_key(cfg))
    return lw, poly.terms[lw]


def test_leading_monomial_mode_contrast():
    der = p("[x y] - x [y] - [x] y")
    assert leading(der, PURE) == (w("[x y]"), 1)
    assert leading(der, DLL) == (w("[x] y"), -1)


def test_leading_law_under_deglenlex():
    rng = random.Random(13)
    for _ in range(120):
        terms = {}
        while len(terms) < 3:
            terms[word_or_unit(rng)] = Fraction(
                rng.choice([-2, -1, 1, 2, 3]))
        s = OPoly(dict(terms))
        # x ⋆ or [⋆ y]
        q = ((("x",), ()),) if rng.random() < 0.5 else (((), ()), ((), ("y",)))
        lw, lc = leading(s, DLL)
        qlw, qlc = leading(OPoly({splice(q, u.atoms): c
                                  for u, c in s.terms.items()}), DLL)
        assert qlw == splice(q, lw.atoms)
        assert qlc == lc


def test_leading_monomial_reduces_coefficients_mod_ideal():
    # a schema reduces coefficients modulo its constraint ideal and drops
    # the terms that vanish, which can move the leading word
    ident = FAMILIES["dt1"].identity()
    ring = ident.ring
    schema = RuleSchema(ident)
    q = p("(b^2 - b - c*e)*[x] [y] + b*x [y]", ring)
    assert leading(q, PURE)[0] == w("[x] [y]")
    assert leading(schema.normalize(q), PURE) == (w("x [y]"), ring.var("b"))
    assert schema.normalize(p("(b^2 - b - c*e)*[x] [y]", ring)).is_zero


def test_transformed_operator_closes_in_family_one():
    # phi(z) = c[z] + b z turns the bracket product into the family-1 pattern:
    # phi(x) phi(y) - c*N1 - b*x y lies in the constraint ideal <b^2 - b - c e>
    ring = PolyRing(["b", "c", "e"])
    gb = buchberger([ring.parse("b^2 - b - c*e")], ring)
    phi_x = p("c*[x] + b*x", ring)
    phi_y = p("c*[y] + b*y", ring)
    n1 = FAMILIES["dt1"].identity().pattern.with_ring(ring)
    diff = phi_x * phi_y - n1.scale(ring.var("c")) - p("x y", ring).scale(ring.var("b"))
    reduced = diff.map_coeffs(lambda c: nf_mod_ideal(c, gb))
    assert reduced.is_zero


# -- printing and parsing ----------------------------------------------------------


def test_print_parse_roundtrip_numeric():
    for text in ["[x y] - [x] y - x [y]", "1/2*x y + 2*[1]", "x", "-x + 1"]:
        q = p(text)
        assert p(to_str_opoly(q)) == q


def test_print_parse_roundtrip_symbolic():
    ring = PolyRing(["b", "c"])
    q = p("(b^2 - b)*x [y] + c*x + 3*y", ring)
    assert "(b^2 - b)*x [y]" in to_str_opoly(q)
    assert parse_opoly(to_str_opoly(q), XY, ring=ring) == q


def test_ordered_printing():
    q = p("x y + [x y] + [x] [y]")
    assert to_str_opoly(q, PURE).startswith("[x y]")


@pytest.mark.parametrize("bad", ["x + + y", "x +", "*x", "x * * y", "(b*x", "2**x"])
def test_parse_rejects_malformed(bad):
    ring = PolyRing(["b"])
    with pytest.raises(Exception):
        parse_opoly(bad, XY, ring=ring)


def test_parse_past_the_recursion_limit_is_a_resource_limit():
    text = "2*" + "[" * 1200 + "x y" + "]" * 1200 + " + x"
    with pytest.raises(ResourceLimit, match=f"^{re.escape(TOO_NESTED)}$"):
        parse_opoly(text, XY)


def test_parse_unknown_coefficient_symbol_needs_ring():
    with pytest.raises(Exception):
        parse_opoly("q*x y", XY)
    with pytest.raises(ParseError,
                       match="symbolic coefficient without a coefficient ring"):
        parse_opoly("(a) x", XY)


def test_parse_coefficient_groups_at_any_depth():
    ring = PolyRing(["a"])
    assert p("(((a))) x", ring) == p("a*x", ring)


@pytest.mark.parametrize("text, expected", [
    ("(1/2) x y", "1/2*x y"),
    ("(1) x", "x"),
])
def test_parse_numeric_groups_without_ring(text, expected):
    assert p(text) == p(expected)


# -- identity objects --------------------------------------------------------------


def test_identity_polynomial_differential():
    der = OpIdentity(DIFFERENTIAL, p("x [y] + [x] y"))
    assert der.pattern_at(w("x x"), w("[y]")) == p("x x [[y]] + [x x] [y]")


def test_identity_polynomial_rota_baxter():
    avg = FAMILIES["rbt1"].identity()
    assert avg.pattern_at(w("y"), w("x")) == p("y [x]")


def test_specialize_checks_constraints():
    fam = FAMILIES["dt1"].identity()
    good = fam.specialize({"b": Fraction(1), "c": Fraction(2), "e": Fraction(0)})
    assert good.pattern == p("x [y] + [x] y + 2*[x] [y]")
    with pytest.raises(ValueError):
        fam.specialize({"b": Fraction(2), "c": Fraction(1), "e": Fraction(0)})


def test_evaluate_coeffs():
    ring = PolyRing(["b"])
    q = p("b*x + (b - 1)*y", ring)
    assert q.evaluate_coeffs({"b": Fraction(1)}) == p("x")
