"""The solve layer against the plain forms it was first written in.

The oracles below are the earlier ``groebner.buchberger`` (S-pairs last in,
first out, and an ``_interreduce`` that restarts its scan after each change),
``solve._merge_leaves`` (a trial basis for every candidate merge),
``solve._leaves`` (a propagation that substitutes every decided value into
every equation, replayed from the root once per leaf),
``solve.rational_roots`` (every candidate of the rational root theorem) and
``solve.sample_points`` (seeded draws alone, with no walk of the tree).
The library must give what they give: the same polynomials, term for term
and in the same order, the same leaves and the same points.  The oracles are
run only on inputs they finish quickly; the last-in-first-out ``buchberger``
can run for minutes on some inputs (``test_groebner``'s hang seeds).
"""

import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import opalg.solve
from opalg.catalog import FAMILIES, families
from opalg.classify import _family_inspace_components, build_ansatz, classify
from opalg.groebner import buchberger, leading_exps, nf_mod_ideal
from opalg.opoly import DIFFERENTIAL, ROTA_BAXTER
from opalg.solve import (DEFAULT_POOL, _merge_leaves, _univariate_coeffs,
                         enumerate_points, find_representative,
                         rational_roots, sample_points)
from test_coeffs import monomial
from test_groebner import R, _int_poly


# -- oracles ----------------------------------------------------------------------


def reference_s_polynomial(f, g):
    ef, eg = leading_exps(f), leading_exps(g)
    lcm = tuple(max(a, b) for a, b in zip(ef, eg))
    ring = f.ring
    mf = monomial(ring, tuple(a - b for a, b in zip(lcm, ef)),
                       Fraction(1, f.terms[ef]))
    mg = monomial(ring, tuple(a - b for a, b in zip(lcm, eg)),
                       Fraction(1, g.terms[eg]))
    return f * mf - g * mg


def reference_buchberger(gens, ring):
    basis = []
    for g in gens:
        g = nf_mod_ideal(g, basis)
        if not g.is_zero:
            basis.append(g / g.terms[leading_exps(g)])
    pairs = [(i, j) for i in range(len(basis)) for j in range(i + 1, len(basis))]
    while pairs:
        i, j = pairs.pop()
        ei, ej = leading_exps(basis[i]), leading_exps(basis[j])
        if all(a == 0 or b == 0 for a, b in zip(ei, ej)):
            continue
        r = nf_mod_ideal(reference_s_polynomial(basis[i], basis[j]), basis)
        if r.is_zero:
            continue
        r = r / r.terms[leading_exps(r)]
        pairs.extend((k, len(basis)) for k in range(len(basis)))
        basis.append(r)
    return reference_interreduce(basis)


def reference_interreduce(basis):
    basis = [g for g in basis if not g.is_zero]
    changed = True
    while changed:
        changed = False
        for i in range(len(basis)):
            others = basis[:i] + basis[i + 1:]
            r = nf_mod_ideal(basis[i], others)
            if r.is_zero:
                basis.pop(i)
                changed = True
                break
            r = r / r.terms[leading_exps(r)]
            if r != basis[i]:
                basis[i] = r
                changed = True
                break
    basis.sort(key=leading_exps)
    return tuple(basis)


def reference_merge_leaves(leaves, ring):
    leaves = list(dict.fromkeys(leaves))
    merged = True
    while merged:
        merged = False
        for (b1, n1), (b2, n2) in itertools.permutations(leaves, 2):
            extra = n2 - n1
            if len(extra) != 1 or n1 - n2:
                continue
            v = next(iter(extra))
            if reference_buchberger(list(b2) + [ring.var(v)], ring) == b1:
                leaves.remove((b1, n1))
                leaves.remove((b2, n2))
                leaves.append((b2, n2 - {v}))
                merged = True
                break
    return leaves


def reference_try_point(basis, nonzero, ring, choose):
    point = {}
    eqs = list(basis)
    while True:
        live = []
        for e in eqs:
            if e.is_zero:
                continue
            if e.is_constant:
                return None
            live.append(e)
        eqs = live
        name = None
        for e in eqs:
            free = e.variables()
            if len(free) == 1:
                (name,) = free
                options = reference_rational_roots(_univariate_coeffs(e, name))
                break
        forced = name is not None
        if not forced:
            name = next((n for n in ring.vars if n not in point), None)
            if name is None:
                break
            options = DEFAULT_POOL
        if name in nonzero:
            options = [r for r in options if r != 0]
        if not options:
            return None
        val = choose(name, options, forced)
        if val is None:
            return None
        point[name] = val
        eqs = [e.subs({name: val}) for e in eqs]
    if any(g.evaluate(point) != 0 for g in basis):
        return None
    return point


def reference_leaves(basis, nonzero, ring, order):
    """``_leaves`` as one ``reference_try_point`` run per leaf, each run
    following a script of the options taken so far."""
    script = []     # [index, ordered options] per decision of the last run
    stopped = []

    def choose(name, options, forced):
        depth = len(taken)
        if depth == len(script):
            ordered = order(options, forced)
            if ordered is None:
                stopped.append(name)
                return None
            script.append([0, ordered])
        index, ordered = script[depth]
        taken.append(ordered[index])
        return ordered[index]

    while True:
        taken = []
        point = reference_try_point(basis, nonzero, ring, choose)
        if stopped:
            return
        yield point
        while script and script[-1][0] + 1 == len(script[-1][1]):
            script.pop()
        if not script:
            return
        script[-1][0] += 1


def reference_sample_points(basis, nonzero, ring, count, rng,
                            max_attempts=4000):
    """``sample_points`` drawing until it has ``count`` points or has made
    ``max_attempts`` draws, however small the tree."""
    found = enumerate_points(basis, nonzero, ring)
    if found is not None:
        return found[:count]
    found = []
    for _ in range(max_attempts):
        if len(found) >= count:
            break
        point = reference_try_point(
            basis, nonzero, ring,
            lambda name, options, forced: rng.choice(options))
        if point is not None and point not in found:
            found.append(point)
    return found


def _divisors(n):
    out = []
    d = 1
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            if d != n // d:
                out.append(n // d)
        d += 1
    return sorted(out)


def reference_rational_roots(coeffs):
    coeffs = [Fraction(c) for c in coeffs]
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    roots = set()
    while len(coeffs) > 1 and coeffs[0] == 0:
        roots.add(Fraction(0))
        coeffs = coeffs[1:]
    if len(coeffs) == 1:
        return sorted(roots)
    lcm = 1
    for c in coeffs:
        lcm = lcm * c.denominator // math.gcd(lcm, c.denominator)
    ints = [int(c * lcm) for c in coeffs]
    for p in _divisors(abs(ints[0])):
        for q in _divisors(abs(ints[-1])):
            for cand in (Fraction(p, q), Fraction(-p, q)):
                if sum(c * cand ** i for i, c in enumerate(coeffs)) == 0:
                    roots.add(cand)
    return sorted(roots)


def assert_same_polys(got, want):
    assert len(got) == len(want)
    for p, q in zip(got, want):
        assert list(p.terms.items()) == list(q.terms.items())
        assert str(p) == str(q)


# -- buchberger -------------------------------------------------------------------


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**31 - 1))
def test_buchberger_matches_the_lifo_reference_on_random_pairs(seed):
    rng = random.Random(seed)
    f, g = _int_poly(rng, rng.randint(1, 3)), _int_poly(rng, rng.randint(1, 3))
    assert_same_polys(buchberger([f, g], R), reference_buchberger([f, g], R))


ANSATZE = {
    "dt1": (DIFFERENTIAL, 1, False),
    "rbt1": (ROTA_BAXTER, 1, False),
    "dt1-units": (DIFFERENTIAL, 1, True),
    "rbt1-units": (ROTA_BAXTER, 1, True),
    "dt2": (DIFFERENTIAL, 2, False),
}


@pytest.fixture(scope="module")
def solve_inputs():
    """Per ansatz: its classification, and every ``buchberger`` input and
    leaf list ``solve`` meets while classifying it."""
    bases, leaf_lists = [], []

    def record_buchberger(gens, ring):
        bases.append((list(gens), ring))
        return buchberger(gens, ring)

    def record_merge(leaves, ring):
        leaf_lists.append((list(leaves), ring))
        return _merge_leaves(leaves, ring)

    out = {}
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(opalg.solve, "buchberger", record_buchberger)
        mp.setattr(opalg.solve, "_merge_leaves", record_merge)
        for key, (mode, degree, units) in ANSATZE.items():
            bases.clear()
            leaf_lists.clear()
            result = classify(build_ansatz(mode, degree,
                                           include_unit_terms=units))
            out[key] = (result, list(bases), list(leaf_lists))
    return out


@pytest.mark.parametrize("key", ANSATZE)
def test_solve_matches_the_references_while_classifying(key, solve_inputs):
    _, bases, leaf_lists = solve_inputs[key]
    assert bases and leaf_lists
    for gens, ring in bases:
        assert_same_polys(buchberger(gens, ring),
                          reference_buchberger(gens, ring))
    for leaves, ring in leaf_lists:
        assert _merge_leaves(leaves, ring) == \
            reference_merge_leaves(leaves, ring)


def test_buchberger_matches_the_reference_on_catalog_constraints():
    for fam in FAMILIES.values():
        ident = fam.identity()
        gens = list(ident.constraints)
        assert_same_polys(buchberger(gens, ident.ring),
                          reference_buchberger(gens, ident.ring))


# -- points -----------------------------------------------------------------------


def _points_by_every_policy(components):
    out = []
    for c in components:
        out.append(find_representative(c.basis, c.nonzero, c.ring))
        out.append(enumerate_points(c.basis, c.nonzero, c.ring))
        out.append(sample_points(c.basis, c.nonzero, c.ring, 3,
                                 random.Random(str(c.basis)),
                                 max_attempts=40, strict=False))
    return out


@pytest.mark.parametrize("key", ANSATZE)
def test_points_match_the_reference_propagation(key, solve_inputs):
    components = solve_inputs[key][0].components
    got = _points_by_every_policy(components)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(opalg.solve, "_leaves", reference_leaves)
        want = _points_by_every_policy(components)
    assert got == want
    assert any(p is not None for p in got)


def _point_set(points):
    return {tuple(sorted(p.items())) for p in points}


@pytest.mark.parametrize("key", ANSATZE)
def test_samples_match_the_rejection_sampler(key, solve_inputs):
    # a tree of at most 20 points is walked whole, and the draws reach the
    # same points; the reference stops at as many points as the walk gave,
    # which it cannot pass in a tree that holds no more.  A larger tree is
    # drawn from exactly as the reference draws
    result = solve_inputs[key][0]
    components = list(result.components + result.audit_failures)
    for fam in families(result.ansatz.mode):
        components.extend(_family_inspace_components(fam, result.ansatz))
    small = 0
    for c in components:
        got = sample_points(c.basis, c.nonzero, c.ring, 20, random.Random(0),
                            strict=False)
        tree = itertools.islice(
            (p for p in reference_leaves(c.basis, c.nonzero, c.ring,
                                         lambda options, forced: options)
             if p is not None), 21)
        if len(list(tree)) > 20:
            assert got == reference_sample_points(
                c.basis, c.nonzero, c.ring, 20, random.Random(0))
            continue
        small += 1
        assert _point_set(got) == _point_set(reference_sample_points(
            c.basis, c.nonzero, c.ring, len(got), random.Random(0)))
    assert small > 0


# -- rational roots ---------------------------------------------------------------

# exact coefficients in either form, so the lists mix ints and Fractions
_coefficient = (st.fractions(min_value=-12, max_value=12, max_denominator=6)
                | st.integers(min_value=-12, max_value=12))


@settings(max_examples=200, deadline=None)
@given(coeffs=st.lists(_coefficient, min_size=1, max_size=4).filter(any))
def test_rational_roots_match_divisor_enumeration(coeffs):
    got = rational_roots(coeffs)
    assert got == reference_rational_roots(coeffs)
    assert all(type(r) is Fraction for r in got)


@settings(max_examples=100, deadline=None)
@given(roots=st.lists(_coefficient, min_size=1, max_size=2),
       scale=st.integers(min_value=1, max_value=1000))
def test_rational_roots_of_products_of_linear_factors(roots, scale):
    # a polynomial with known rational roots, scaled so its outer
    # coefficients have many divisors
    poly = [Fraction(scale)]
    for r in roots:
        poly = [a - r * b for a, b in zip([Fraction(0)] + poly, poly + [0])]
    assert rational_roots(poly) == sorted(set(roots)) == \
        reference_rational_roots(poly)
