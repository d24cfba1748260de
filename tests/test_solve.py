import random
from fractions import Fraction

import pytest

import opalg.solve
from opalg.catalog import FAMILIES
from opalg.classify import build_ansatz, classify
from opalg.coeffs import PolyRing
from opalg.groebner import buchberger, nf_mod_ideal
from opalg.opoly import DIFFERENTIAL, ROTA_BAXTER, parse_opoly
from opalg.solve import (
    enumerate_points,
    find_representative,
    rational_roots,
    sample_points,
    solve_components,
)
from opalg.words import GeneratorSet
from test_groebner import quotient_monomials

XY = GeneratorSet(("x", "y"))

R = PolyRing(["a", "b", "e"])
a, b, e = R.var("a"), R.var("b"), R.var("e")


def is_member(component, p):
    """Whether p vanishes identically on the component's closure."""
    return nf_mod_ideal(p, component.basis).is_zero


@pytest.fixture(scope="module")
def degree1_components():
    return {mode: classify(build_ansatz(mode, 1)).components
            for mode in (DIFFERENTIAL, ROTA_BAXTER)}


def test_idempotent_pair_with_coupling_splits_into_four():
    comps = solve_components([a * a - a, b * b - b, e * (a - b)], R)
    assert len(comps) == 4
    described = {c.describe() for c in comps}
    assert described == {
        "b = 0, a = 0",             # e free
        "b - 1 = 0, a - 1 = 0",     # e free
        "e = 0, b - 1 = 0, a = 0",
        "e = 0, b = 0, a - 1 = 0",
    }
    # the two e-free components carry no nonzero assumptions after merging
    free_e = [c for c in comps if not any("e" in str(g) for g in c.basis)]
    assert all(c.nonzero == () for c in free_e)


def test_components_partition_solution_grid():
    comps = solve_components([a * a - a, b * b - b, e * (a - b)], R)
    vals = [Fraction(v) for v in (-2, -1, 0, 1, 2)]
    for va in vals:
        for vb in vals:
            for ve in vals:
                point = {"a": va, "b": vb, "e": ve}
                on_variety = (va * va == va and vb * vb == vb and ve * (va - vb) == 0)
                holders = [c for c in comps if c.contains_point(point)]
                assert len(holders) == (1 if on_variety else 0)


def test_zero_system_single_full_component():
    comps = solve_components([], R)
    assert len(comps) == 1
    assert comps[0].basis == ()
    assert comps[0].contains_point({"a": 5, "b": -1, "e": 0})


def test_inconsistent_system_no_components():
    assert solve_components([R.one()], R) == []
    assert solve_components([a, a - 1], R) == []


def test_single_constraint_stays_whole():
    comps = solve_components([b * b - b - a * e], R)
    assert len(comps) >= 1
    # whatever the split, the union must cover and not overlap
    pts = [{"a": Fraction(p), "b": Fraction(q), "e": Fraction(r)}
           for p in (-1, 0, 1, 2) for q in (-1, 0, 1, 2) for r in (-1, 0, 1, 2)]
    for pt in pts:
        on = (pt["b"] ** 2 - pt["b"] - pt["a"] * pt["e"] == 0)
        assert sum(c.contains_point(pt) for c in comps) == (1 if on else 0)


def test_representatives_lie_on_components():
    comps = solve_components([a * a - a, b * b - b, e * (a - b)], R)
    for c in comps:
        point = find_representative(c.basis, c.nonzero, R)
        assert point is not None
        assert c.contains_point(point)


def test_representative_prefers_simple_values():
    (c,) = solve_components([a - 1, b], R)
    assert find_representative(c.basis, c.nonzero, R) == \
        {"a": 1, "b": 0, "e": 0}


def test_content_split_is_found_by_the_groebner_basis():
    # no equation pins a variable or has a variable factor, so the presplit
    # hands the system on whole; only the basis {x^2, y^2} shows that x and
    # y divide a generator, and each v != 0 branch is inconsistent
    S = PolyRing(["x", "y"])
    x, y = S.var("x"), S.var("y")
    comps = solve_components([x * x + y * y, x * x - y * y], S)
    assert [c.describe() for c in comps] == ["y = 0, x = 0"]
    vals = [Fraction(v) for v in range(-2, 3)]
    for vx in vals:
        for vy in vals:
            on = vx * vx + vy * vy == 0 and vx * vx - vy * vy == 0
            assert comps[0].contains_point({"x": vx, "y": vy}) == on
    # the presplit pins a := b - 1 and leaves b^2 - 4*b + 3, which has no
    # content; only the basis {b - a - 1, a^2 - 2*a} shows that a divides a
    # generator, which is why ``_split`` keeps a case split of its own
    S = PolyRing(["b", "a"])
    b, a = S.var("b"), S.var("a")
    comps = solve_components([b - a - 1, a * a - 2 * a], S)
    assert [c.describe() for c in comps] == ["a = 0, b - 1 = 0",
                                             "a - 2 = 0, b - 3 = 0"]


def test_sampling_on_component():
    rng = random.Random(3)
    basis = buchberger([b * b - b - a * e], R)
    pts = sample_points(basis, frozenset(), R, 25, rng)
    assert len(pts) == 25
    assert len({tuple(sorted(p.items())) for p in pts}) == 25
    for p in pts:
        assert p["b"] ** 2 - p["b"] - p["a"] * p["e"] == 0


def test_negative_sample_count_raises():
    # an enumerated component must not be sliced from the end
    basis = buchberger([a * a - a, b, e], R)
    assert len(sample_points(basis, frozenset(), R, 1, random.Random(0))) == 1
    with pytest.raises(ValueError):
        sample_points(basis, frozenset(), R, -1, random.Random(0))


def test_sampling_respects_nonzero():
    rng = random.Random(5)
    basis = buchberger([a * b], R)
    comps = solve_components([a * b], R)
    for c in comps:
        pts = sample_points(c.basis, set(c.nonzero), R, 10, rng)
        for p in pts:
            assert c.contains_point(p)
            for v in c.nonzero:
                assert p[v] != 0


def test_is_member():
    comps = solve_components([a * a - a, b * b - b, e * (a - b)], R)
    for c in comps:
        assert is_member(c, R.zero())
        # e*(a-b) vanishes on every component of its own variety
        assert is_member(c, e * (a - b))


def _count_leaves(monkeypatch):
    """Count the leaves that ``_leaves`` yields, dead ends included: one per
    seeded draw, and one per leaf that a walk reaches."""
    original = opalg.solve._leaves
    leaves = [0]

    def counted(*args):
        for leaf in original(*args):
            leaves[0] += 1
            yield leaf

    monkeypatch.setattr(opalg.solve, "_leaves", counted)
    return lambda: leaves[0]


def test_single_point_component_is_enumerated_not_sampled(
        monkeypatch, degree1_components):
    # the rejection loop spent all 4000 attempts here to find its one point
    c = degree1_components[DIFFERENTIAL][4]
    assert quotient_monomials(c.basis, c.ring) == [(0,) * c.ring.nvars]
    counts = _count_leaves(monkeypatch)
    rng = random.Random(0)
    state = rng.getstate()
    pts = sample_points(c.basis, c.nonzero, c.ring, 2, rng,
                        max_attempts=4000, strict=False)
    assert len(pts) == 1 and c.contains_point(pts[0])
    assert counts() == 1
    assert rng.getstate() == state


def test_degree1_dt_sample_counts_are_pinned(monkeypatch, degree1_components):
    # components 2 and 3 have one free coefficient and every other one
    # pinned, so DEFAULT_POOL reaches only 5 and 6 of their points: each
    # draws 3 points and a repeat, then walks its tree of 5 or 6 leaves once
    # (the rejection loop spent all 300 attempts on them)
    counts = _count_leaves(monkeypatch)
    found, runs = [], []
    for c in degree1_components[DIFFERENTIAL]:
        before = counts()
        pts = sample_points(c.basis, c.nonzero, c.ring, 20, random.Random(0),
                            max_attempts=300, strict=False)
        assert all(c.contains_point(p) for p in pts)
        found.append(len(pts))
        runs.append(counts() - before)
    assert found == [20, 20, 5, 6, 1, 1]
    assert runs[2:4] == [4 + 5, 4 + 6]


# a = 0 or 1, b = 1 or -1, e = a*b, and b != 0: four rational points
FOUR_POINTS = buchberger([a * a - a, b * b - 1, e - a * b], R)


def _on_four_points(p):
    return p["a"] ** 2 == p["a"] and p["b"] ** 2 == 1 and p["e"] == p["a"] * p["b"]


def test_finite_component_gives_every_point():
    pts = enumerate_points(FOUR_POINTS, ("b",), R)
    assert len(pts) == 4
    assert len({tuple(sorted(p.items())) for p in pts}) == 4
    assert all(_on_four_points(p) for p in pts)
    rng = random.Random(1)
    assert sample_points(FOUR_POINTS, ("b",), R, 10, rng, strict=False) == pts
    assert sample_points(FOUR_POINTS, ("b",), R, 3, rng) == pts[:3]
    with pytest.raises(RuntimeError):
        sample_points(FOUR_POINTS, ("b",), R, 5, rng, strict=True)


def test_enumeration_follows_sorted_roots_depth_first():
    # the lex basis is e^3 - e, b*e - e^2, b^2 - 1, a - e^2: e is fixed
    # first, then b (by b*e - e^2 unless e = 0), then a
    pts = enumerate_points(FOUR_POINTS, (), R)
    assert [(p["e"], p["b"], p["a"]) for p in pts] == \
        [(-1, -1, 1), (0, -1, 0), (0, 1, 0), (1, 1, 1)]


def test_enumeration_respects_nonzero():
    pts = enumerate_points(FOUR_POINTS, ("a",), R)
    assert [(p["e"], p["b"], p["a"]) for p in pts] == [(-1, -1, 1), (1, 1, 1)]


def test_infinite_component_is_not_enumerated():
    assert enumerate_points(buchberger([b * b - b - a * e], R), (), R) is None
    assert enumerate_points((), (), R) is None


def test_component_without_rational_points_is_empty_at_once(monkeypatch):
    counts = _count_leaves(monkeypatch)
    basis = buchberger([b * b + 1], R)   # a and e are free, b has no root
    assert enumerate_points(basis, (), R) == []
    assert sample_points(basis, (), R, 2, random.Random(0), strict=False) == []
    assert counts() == 2


def test_enumeration_agrees_with_quotient_dimension(degree1_components):
    """A finite quotient (Groebner staircase) means a zero-dimensional ideal,
    which has at most as many points as the quotient has monomials."""
    finite = {}
    for mode, comps in degree1_components.items():
        for c in comps:
            quotient = quotient_monomials(c.basis, c.ring)
            pts = enumerate_points(c.basis, c.nonzero, c.ring)
            if quotient is None:
                continue
            assert pts is not None
            assert len(pts) <= len(quotient)
            assert all(c.contains_point(p) for p in pts)
            finite.setdefault(mode, []).append((len(pts), len(quotient)))
    assert finite == {DIFFERENTIAL: [(1, 1)] * 2, ROTA_BAXTER: [(1, 1)] * 5}


@pytest.mark.parametrize("coeffs,expected", [
    ([Fraction(-1), Fraction(0), Fraction(1)], [Fraction(-1), Fraction(1)]),
    ([Fraction(0), Fraction(1)], [Fraction(0)]),
    ([Fraction(2), Fraction(-3), Fraction(1)], [Fraction(1), Fraction(2)]),
    ([Fraction(-1, 2), Fraction(1)], [Fraction(1, 2)]),
    ([Fraction(1), Fraction(0), Fraction(1)], []),
    ([Fraction(0), Fraction(0), Fraction(3)], [Fraction(0)]),
    ([Fraction(5)], []),
    ([-1, 0, 1], [Fraction(-1), Fraction(1)]),
    ([0, 0, 3], [Fraction(0)]),
    ([6, -5, 1], [Fraction(2), Fraction(3)]),
    ([-3, 2], [Fraction(3, 2)]),
    ([8, 0, 0, -1, 0], [Fraction(2)]),
    ([Fraction(-1, 2), 0, 2], [Fraction(-1, 2), Fraction(1, 2)]),
    ([1, Fraction(-5, 6), Fraction(1, 6)], [Fraction(2), Fraction(3)]),
    ([0, Fraction(1, 3), 1], [Fraction(-1, 3), Fraction(0)]),
    ([7], []),
])
def test_rational_roots(coeffs, expected):
    # exact int or Fraction coefficients, mixed too; the roots are Fractions
    got = rational_roots(coeffs)
    assert got == expected
    assert all(type(r) is Fraction for r in got)


def test_membership_of_a_huge_weight_is_solved_in_closed_form(ceiling):
    # the weight 2^61 - 1 is the root of a linear equation; trial division
    # up to the square root of the constant term ran for over 10 s on it
    weight = 2**61 - 1
    pattern = parse_opoly(f"x [y] + [x] y + {weight}*x y", XY)
    with ceiling(1.0):
        assert FAMILIES["rbt6"].membership(pattern) == {"lam": weight}


def test_rational_roots_rejects_zero_poly():
    with pytest.raises(ValueError):
        rational_roots([0, 0])
