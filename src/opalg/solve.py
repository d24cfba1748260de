"""Exact solving of polynomial constraint systems by component splitting.

``solve_components`` decomposes the solution set of a finite system over QQ
into components, each given by a reduced Groebner basis together with a set of
variables assumed nonzero on that component.  Splitting happens only on
monomial content (an equation of the form v^k * q = 0 splits into v = 0 and
v != 0, q = 0), so the decomposition is exact and the components partition the
solution set.

``_presplit`` is the only pinning pass: it substitutes away variables that an
equation fixes linearly, and hands ``_split`` the residual system with the pin
equations restored.  ``_split`` pins nothing, since ``buchberger`` returns the
reduced lex basis, which is unique for its ideal: pinning first could change
the work done but not a component.

Rational points on a component come from one propagation walk,
``_try_point``.  Each decision fixes one variable, either to a rational root
of an equation left univariate in it or, when no equation forces one, to a
value of ``DEFAULT_POOL``; a policy picks among those options.  At each
decision the walk substitutes into, and re-tests, only the equations that hold
the decided variable.  Three policies use the walk: ``enumerate_points`` visits
every root depth-first and gives up at the first unforced decision,
``sample_points`` draws each value from a seeded ``random.Random``, and
``find_representative`` searches the simplest values first.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass
from fractions import Fraction

from .coeffs import (MPoly, PolyRing, ResourceLimit, _add_scaled_into,
                     rational, reciprocal)
from .groebner import _normal_form, _reducers, buchberger

DEFAULT_POOL = (Fraction(0), Fraction(1), Fraction(-1), Fraction(2),
                Fraction(-2), Fraction(1, 2))


@dataclass(frozen=True)
class SolutionComponent:
    """One component: V(basis) minus the zero loci of the nonzero variables."""

    ring: PolyRing
    basis: tuple            # reduced lex Groebner basis, monic, sorted
    nonzero: tuple = ()     # variable names assumed nonzero

    def contains_point(self, point: dict) -> bool:
        if any(g.evaluate(point) != 0 for g in self.basis):
            return False
        return all(Fraction(point[v]) != 0 for v in self.nonzero)

    def describe(self) -> str:
        eqs = ", ".join(f"{g} = 0" for g in self.basis) or "no equations"
        if self.nonzero:
            eqs += "; " + ", ".join(f"{v} != 0" for v in self.nonzero)
        return eqs


class SplitDepthExceeded(ResourceLimit):
    pass


# nesting cap of the case splits of one solve
MAX_SPLIT_DEPTH = 64


def solve_components(eqs, ring: PolyRing):
    """Decompose {all eqs = 0} into SolutionComponents (possibly empty list)."""
    leaves: list = []
    _presplit([e for e in eqs if not (isinstance(e, MPoly) and e.is_zero)],
              {}, frozenset(), ring, MAX_SPLIT_DEPTH, leaves)
    out = [SolutionComponent(ring, basis, tuple(sorted(nonzero)))
           for basis, nonzero in _merge_leaves(leaves, ring)]
    out.sort(key=lambda c: (len(c.basis), tuple(str(g) for g in c.basis), c.nonzero))
    return out


def _divide_nonzero_content(g, nonzero, ring):
    """g with every power of an assumed-nonzero variable that divides all of
    its terms divided out; g itself when there is none."""
    if not nonzero:
        return g
    strip = tuple(k if ring.vars[i] in nonzero else 0
                  for i, k in enumerate(g.monomial_content()))
    return g.divide_monomial(strip) if any(strip) else g


def _strip_normalize(eqs, nonzero, ring):
    """Drop zeros and duplicates, divide out assumed-nonzero variable content,
    and scale each equation monic; None when a nonzero constant appears."""
    out = []
    seen = set()
    for g in eqs:
        if g.is_zero:
            continue
        g = _divide_nonzero_content(g, nonzero, ring)
        if g.is_constant:
            if g.constant_value() != 0:
                return None
            continue
        lead = g.terms[max(g.terms)]
        if lead != 1:
            g = g / lead
        if g not in seen:
            seen.add(g)
            out.append(g)
    return out


def _find_pin(g, ring):
    """A (variable, value) pair when g is linear in the variable with a
    constant coefficient, else None.

    The variable has degree 1, so g = coeff * v + rest splits its terms into
    two dicts: those with v (v divided out) and those without."""
    for name in sorted(g.variables()):
        i = ring.index[name]
        coeff, rest = {}, {}
        for e, c in g.terms.items():
            if e[i] > 1:
                break
            if e[i]:
                coeff[e[:i] + (0,) + e[i + 1:]] = c
            else:
                rest[e] = c
        else:
            a = coeff.get((0,) * ring.nvars)
            if a is not None and len(coeff) == 1:
                value: dict = {}
                _add_scaled_into(value, rest, -reciprocal(a))
                return name, MPoly(ring, value)
    return None


def _presplit(eqs, assign, nonzero, ring, depth, leaves) -> None:
    """Cheap substitution-driven case analysis before any Groebner work.

    Variables pinned linearly are substituted away; equations with a common
    variable factor branch on that variable.  Residual systems too tangled
    for either move fall through to the Groebner splitter with the pin
    equations restored, so the ideal is preserved exactly.
    """
    if depth < 0:
        raise SplitDepthExceeded("component splitting exceeded the depth cap")
    while True:
        eqs = _strip_normalize(eqs, nonzero, ring)
        if eqs is None:
            return
        eqs.sort(key=lambda h: (len(h.terms), str(h)))
        pin = next(filter(None, (_find_pin(g, ring) for g in eqs)), None)
        if pin is None:
            break
        name, value = pin
        assign = {k: v.subs({name: value}) for k, v in assign.items()}
        assign[name] = value
        eqs = [h.subs({name: value}) for h in eqs]
    for g in eqs:
        content = g.monomial_content()
        cand = sorted(ring.vars[i] for i, k in enumerate(content) if k)
        if not cand:
            continue
        name = cand[0]
        zero = ring.zero()
        _presplit([h.subs({name: zero}) for h in eqs],
                  {k: v.subs({name: zero}) for k, v in assign.items()}
                  | {name: zero},
                  nonzero, ring, depth - 1, leaves)
        _presplit(eqs, assign, nonzero | {name}, ring, depth - 1, leaves)
        return
    residual = list(eqs) + [ring.var(v) - val for v, val in
                            sorted(assign.items())]
    _split(residual, nonzero, ring, depth, leaves)


def _split(eqs, nonzero, ring, depth, leaves) -> None:
    if depth < 0:
        raise SplitDepthExceeded("component splitting exceeded the depth cap")
    basis = buchberger(eqs, ring)
    # saturate: divide assumed-nonzero variable powers out of the generators
    while True:
        if any(g.is_constant and not g.is_zero for g in basis):
            return  # inconsistent: empty component
        stripped = [_divide_nonzero_content(g, nonzero, ring) for g in basis]
        if all(h is g for h, g in zip(stripped, basis)):
            break
        new_basis = buchberger(stripped, ring)
        if new_basis == basis:
            break
        basis = new_basis
    reds = _reducers(basis)
    for v in sorted(nonzero):
        if _normal_form(ring.var(v), reds).is_zero:
            return  # v is forced to 0 but assumed nonzero
    for g in basis:
        content = g.monomial_content()
        candidates = [ring.vars[i] for i, k in enumerate(content)
                      if k and ring.vars[i] not in nonzero]
        if not candidates:
            continue
        name = candidates[0]
        if g == ring.var(name):
            continue  # the generator already says v = 0 outright
        # branch v = 0: the ideal strictly grows (v was not a member)
        _split(list(basis) + [ring.var(name)], nonzero, ring, depth - 1, leaves)
        # branch v != 0: divide the v-power out of g
        i = ring.index[name]
        exps = tuple(content[i] if j == i else 0 for j in range(ring.nvars))
        reduced = [h for h in basis if h != g] + [g.divide_monomial(exps)]
        _split(reduced, nonzero | {name}, ring, depth - 1, leaves)
        return
    # drop assumptions the ideal already implies (v congruent to a nonzero constant)
    live = frozenset(v for v in nonzero
                     if not _normal_form(ring.var(v), reds).is_constant)
    leaves.append((basis, live))


def _merge_leaves(leaves, ring):
    """Join complementary leaves: (I + (v), N) and (I, N + {v}) --> (I, N).

    The union is exact, so merging loses nothing and undoes splits that turned
    out not to matter.  A candidate pair's trial basis of I + (v) is built
    only when v and the basis of I reduce to zero modulo the basis of the
    first leaf, which a merge needs.
    """
    leaves = list(dict.fromkeys(leaves))
    merged = True
    while merged:
        merged = False
        for (b1, n1), (b2, n2) in itertools.permutations(leaves, 2):
            extra = n2 - n1
            if len(extra) != 1 or n1 - n2:
                continue
            v = next(iter(extra))
            reds = _reducers(b1)
            if any(_normal_form(g, reds) for g in (ring.var(v), *b2)):
                continue
            if buchberger(list(b2) + [ring.var(v)], ring) == b1:
                leaves.remove((b1, n1))
                leaves.remove((b2, n2))
                leaves.append((b2, n2 - {v}))
                merged = True
                break
    return leaves


# -- rational points on components ------------------------------------------------


def rational_roots(coeffs) -> list:
    """All rational roots, as Fractions, of sum(coeffs[i] * t^i) with exact
    ``int`` or ``Fraction`` coefficients, read through ``rational``.

    Degrees 1 and 2 (after the roots at zero are divided out) are solved in
    closed form, degree 2 by the integer square root of the discriminant.
    Higher degrees try every candidate of the rational root theorem, so they
    cost trial division up to the square roots of the outer coefficients.
    """
    coeffs = [rational(c) for c in coeffs]
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    if not coeffs:
        raise ValueError("zero polynomial has every root")
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
    if len(ints) == 2:
        roots.add(Fraction(-ints[0], ints[1]))
    elif len(ints) == 3:
        c, b, a = ints
        disc = b * b - 4 * a * c
        if disc >= 0:
            root = math.isqrt(disc)
            if root * root == disc:
                roots.update((Fraction(-b - root, 2 * a),
                              Fraction(-b + root, 2 * a)))
    else:
        a0, an = abs(ints[0]), abs(ints[-1])
        for p in _divisors(a0):
            for q in _divisors(an):
                for cand in (Fraction(p, q), Fraction(-p, q)):
                    if sum(c * cand ** i for i, c in enumerate(coeffs)) == 0:
                        roots.add(cand)
    return sorted(roots)


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


def _univariate_coeffs(p: MPoly, name: str):
    """Coefficient list of p, whose only variable is name, as a univariate."""
    i = p.ring.index[name]
    coeffs = [0] * (p.degree_in(name) + 1)
    for e, c in p.terms.items():
        coeffs[e[i]] += c
    return coeffs


def _try_point(basis, nonzero, ring, choose):
    """Build a point by propagation, one decision per variable.

    A decision fixes ``name`` to ``choose(name, options, forced)``.  When an
    equation is left univariate in ``name``, ``forced`` is True and
    ``options`` are the sorted rational roots of the first such equation, in
    basis order; otherwise ``name`` is the first unfixed variable, ``forced``
    is False and ``options`` is ``DEFAULT_POOL``.  Either way zero is dropped
    for a variable assumed nonzero.  Each live equation keeps its variable
    set, and the new value is substituted into, and re-tested in, only the
    equations that hold its variable.  Returns None on a dead end or when
    ``choose`` returns None.
    """
    point: dict = {}
    eqs = [g for g in basis if not g.is_zero]
    free = [g.variables() for g in eqs]
    if not all(free):
        return None     # a nonzero constant
    while True:
        k = next((k for k, names in enumerate(free) if len(names) == 1), None)
        forced = k is not None
        if forced:
            (name,) = free[k]
            options = rational_roots(_univariate_coeffs(eqs[k], name))
        else:
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
        for k, names in enumerate(free):
            if name not in names:
                continue
            e = eqs[k].subs({name: val})
            eqs[k] = e
            free[k] = e.variables()
            if not free[k] and not e.is_zero:
                return None
    if any(g.evaluate(point) != 0 for g in basis):
        return None
    return point


def enumerate_points(basis, nonzero, ring):
    """Every rational point of the component, or None when it may be infinite.

    Runs ``_try_point``'s propagation depth-first over every rational root
    (sorted) at each forced decision; each run follows one branch of that
    tree.  A free choice means no equation fixes the next variable, and the
    enumeration gives up with None.  When no branch meets one, every rational
    point was reached: its coordinates are roots at each forced decision.  A
    zero-dimensional lex basis never meets a free choice: the lex-smallest
    unfixed variable has a basis element with a pure power of it as leading
    term, and every other variable in that element is lex-smaller, so already
    fixed (Cox, Little and O'Shea, *Ideals, Varieties, and Algorithms*, ch. 3
    sections 1-2).
    """
    points: list = []
    script: list = []   # [index, number of roots] per forced decision
    while True:
        depth, free = 0, False

        def choose(name, options, forced):
            nonlocal depth, free
            if not forced:
                free = True
                return None
            if depth == len(script):
                script.append([0, len(options)])
            idx = script[depth][0]
            depth += 1
            return options[idx]

        point = _try_point(basis, nonzero, ring, choose)
        if free:
            return None
        if point is not None:
            points.append(point)
        while script and script[-1][0] + 1 == script[-1][1]:
            script.pop()
        if not script:
            return points
        script[-1][0] += 1


def sample_points(basis, nonzero, ring, count: int, rng: random.Random,
                  max_attempts: int = 4000, strict: bool = True):
    """Distinct exact rational points on the component.

    A component whose rational points ``enumerate_points`` lists (every
    zero-dimensional one) gives the first ``count`` of them in that fixed
    order, and ``rng`` is not drawn from.  Otherwise up to ``max_attempts``
    seeded propagations each draw every value with ``rng.choice`` from the
    options ``_try_point`` offers.

    Raises when fewer than ``count`` are found, unless ``strict`` is False,
    in which case whatever was found is returned.
    """
    if count < 0:
        raise ValueError(f"cannot sample a negative number ({count}) of points")
    found = enumerate_points(basis, nonzero, ring)
    if found is not None:
        found = found[:count]
    else:
        found = []
        seen = set()
        for _ in range(max_attempts):
            if len(found) >= count:
                break
            point = _try_point(basis, nonzero, ring,
                               lambda name, options, forced: rng.choice(options))
            if point is None:
                continue
            key = tuple(sorted(point.items()))
            if key not in seen:
                seen.add(key)
                found.append(point)
    if strict and len(found) < count:
        raise RuntimeError(
            f"found only {len(found)} of {count} requested rational points")
    return found


def find_representative(basis, nonzero, ring):
    """Deterministic simple point on the component, or None if the grid misses."""
    # depth-first over the options of each decision, simplest values first;
    # a decision with a single option spends no search budget
    def choose(name, options, forced):
        if forced:
            options = sorted(options, key=lambda r: (abs(r), r < 0))
        if len(options) == 1:
            return options[0]
        idx = next(step, 0)
        return options[idx] if idx < len(options) else None

    for depth in range(4):
        for script in itertools.product(range(len(DEFAULT_POOL)), repeat=depth):
            step = iter(script)
            point = _try_point(basis, nonzero, ring, choose)
            if point is not None:
                return point
    return None
