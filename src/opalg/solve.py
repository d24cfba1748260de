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

Rational points on a component are the leaves of one finite tree, walked
depth-first by ``_leaves``: each decision fixes one variable to a rational
root of an equation left univariate in it or, when none is, to a value of
``DEFAULT_POOL``, and a policy orders the options or ends the walk.
``enumerate_points`` walks every root and gives up at the first unforced
decision, ``find_representative`` takes the first point, simplest values
first, and ``sample_points`` follows one seeded branch per draw and walks a
small tree whole.
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


def _leaves(basis, nonzero, ring, order):
    """The leaves of the propagation tree, depth-first: a point, or None for
    a dead end.

    A node fixes one variable ``name``.  When an equation is left univariate
    in it, ``forced`` is True and the options are the sorted rational roots
    of the first such equation, in basis order; otherwise ``name`` is the
    first unfixed variable, ``forced`` is False and the options are
    ``DEFAULT_POOL``.  Either way zero is dropped for a variable assumed
    nonzero, and a node with no option left is a dead end.
    ``order(options, forced)`` gives the values to branch on, in order, or
    None to end the walk.  Sibling branches copy the point, the live
    equations and their variable sets; each substitutes its value into, and
    re-tests, only the equations that hold ``name``.  So at a leaf every
    equation is zero, and the point lies on the component.
    """
    eqs = [g for g in basis if not g.is_zero]
    free = [g.variables() for g in eqs]
    if not all(free):
        yield None      # a nonzero constant
        return
    stack = [({}, eqs, free, None, None)]
    while stack:
        point, eqs, free, name, val = stack.pop()
        if name is not None and not _fix(point, eqs, free, name, val):
            yield None
            continue
        k = next((k for k, names in enumerate(free) if len(names) == 1), None)
        forced = k is not None
        if forced:
            (name,) = free[k]
            options = rational_roots(_univariate_coeffs(eqs[k], name))
        else:
            name = next((n for n in ring.vars if n not in point), None)
            if name is None:
                yield point
                continue
            options = DEFAULT_POOL
        if name in nonzero:
            options = [r for r in options if r != 0]
        if not options:
            yield None
            continue
        options = order(options, forced)
        if options is None:
            return
        for val in reversed(options):
            if len(options) > 1:
                point, eqs, free = dict(point), eqs[:], free[:]
            stack.append((point, eqs, free, name, val))


def _fix(point, eqs, free, name, val):
    """Put ``val`` for ``name`` in ``point`` and in the equations that hold
    it, in place; False when one becomes a nonzero constant."""
    point[name] = val
    for k, names in enumerate(free):
        if name in names:
            e = eqs[k] = eqs[k].subs({name: val})
            free[k] = e.variables()
            if not free[k] and not e.is_zero:
                return False
    return True


def enumerate_points(basis, nonzero, ring):
    """Every rational point of the component, or None when it may be infinite.

    Walks ``_leaves`` over the sorted roots of each forced decision.  A free
    choice means no equation fixes the next variable, and the enumeration gives
    up with None.  When no branch meets one, every rational point was reached:
    its coordinates are roots at each forced decision.  A zero-dimensional lex
    basis never meets a free choice: the lex-smallest unfixed variable has a
    basis element with a pure power of it as leading term, and every other
    variable in that element is lex-smaller, so already fixed (Cox, Little and
    O'Shea, *Ideals, Varieties, and Algorithms*, ch. 3 sections 1-2).
    """
    free = []   # the options of a free choice; append's None ends the walk
    leaves = _leaves(basis, nonzero, ring, lambda options, forced:
                     options if forced else free.append(options))
    points = [p for p in leaves if p is not None]
    return None if free else points


def sample_points(basis, nonzero, ring, count: int, rng: random.Random,
                  max_attempts: int = 4000, strict: bool = True):
    """Distinct exact rational points on the component.

    A component whose rational points ``enumerate_points`` lists (every
    zero-dimensional one) gives the first ``count`` of them in that fixed
    order, and ``rng`` is not drawn from.  Otherwise up to ``max_attempts``
    seeded propagations each follow one branch of ``_leaves``, drawing each
    value with ``rng.choice``.  At the first draw that finds no new point
    the tree is walked once, over every option and at most ``max_attempts``
    leaves; if it holds ``count`` points or fewer, those not yet drawn
    follow in walk order and nothing more is drawn.

    Raises when fewer than ``count`` are found, unless ``strict`` is False,
    in which case whatever was found is returned.
    """
    if count < 0:
        raise ValueError(f"cannot sample a negative number ({count}) of points")
    found = enumerate_points(basis, nonzero, ring)
    if found is not None:
        found = found[:count]
    else:
        found, seen, walked = [], set(), False
        for _ in range(max_attempts):
            if len(found) >= count:
                break
            point = next(_leaves(basis, nonzero, ring,
                                 lambda options, forced: (rng.choice(options),)))
            if point is not None and (
                    key := tuple(sorted(point.items()))) not in seen:
                seen.add(key)
                found.append(point)
            elif not walked:
                walked = True
                tree = _small_tree(basis, nonzero, ring, count, max_attempts)
                if tree is not None:
                    found += [p for p in tree if p not in found]
                    break
    if strict and len(found) < count:
        raise RuntimeError(
            f"found only {len(found)} of {count} requested rational points")
    return found


def _small_tree(basis, nonzero, ring, count, max_leaves):
    """The points of the whole tree, when it holds at most ``count`` within
    ``max_leaves`` leaves; else None."""
    points = []
    leaves = _leaves(basis, nonzero, ring, lambda options, forced: options)
    for n, point in enumerate(leaves, 1):
        if point is not None:
            points.append(point)
        if len(points) > count or n == max_leaves:
            return None
    return points


def find_representative(basis, nonzero, ring):
    """Deterministic simple point on the component, or None if the grid misses."""
    # depth-first, simplest roots first, over at most 1 + 6 + 36 + 216 leaves
    def simplest(options, forced):
        return sorted(options, key=lambda r: (abs(r), r < 0)) if forced else options

    leaves = itertools.islice(_leaves(basis, nonzero, ring, simplest), 259)
    return next((p for p in leaves if p is not None), None)
