"""Buchberger's algorithm and normal forms for commutative coefficient ideals.

Every basis is taken in the lex order of exponent tuples, which is the plain
tuple order: ``solve`` reads its components off a triangular lex basis.

A basis is reduced through its reducers: one (leading exponent, inverse
leading coefficient, terms) triple per nonzero element, built once per basis
by ``_reducers`` and handed to ``_normal_form`` for every polynomial reduced
by it.  ``buchberger`` keeps its basis as reducers as it grows, so it never
re-derives a leading exponent, and never inverts a monic element.  It takes
S-pairs by normal selection: a heap keyed by the total degree of the lcm of
the two leading monomials, then that lcm, then the pair's indices.  The
reduced basis of an ideal is unique (Cox, Little and O'Shea, *Ideals,
Varieties, and Algorithms*, ch. 2 section 7), so the selection changes the
work done, never the result.
"""

from __future__ import annotations

from heapq import heappop, heappush
from operator import add, le, sub

from .coeffs import MPoly, PolyRing, _add_scaled_into, reciprocal


def leading_exps(p: MPoly) -> tuple:
    if p.is_zero:
        raise ValueError("zero polynomial has no leading term")
    return max(p.terms)


def _divides(e1, e2) -> bool:
    return all(map(le, e1, e2))


def _quotient(e2, e1):
    return tuple(map(sub, e2, e1))


def _shifted(terms: dict, q) -> dict:
    return {tuple(map(add, e, q)): c for e, c in terms.items()}


def _reducer(g: MPoly) -> tuple:
    lm = max(g.terms)
    c = g.terms[lm]
    return lm, 1 if c == 1 else reciprocal(c), g.terms


def _reducers(basis) -> list:
    """The reducer triple of each nonzero element of ``basis``, in order."""
    return [_reducer(g) for g in basis if not g.is_zero]


def _normal_form(p: MPoly, reds) -> MPoly:
    """Full normal form of p modulo the basis with reducers ``reds``: every
    term reduced, by the first reducer whose leading exponent divides it."""
    out = {}
    work = dict(p.terms)
    while work:
        t = max(work)
        c = work[t]
        for lm, inv, g in reds:
            if _divides(lm, t):
                _add_scaled_into(work, _shifted(g, _quotient(t, lm)), -c * inv)
                break
        else:
            out[t] = c
            del work[t]
    return MPoly(p.ring, out)


def nf_mod_ideal(p: MPoly, basis) -> MPoly:
    """Full normal form of p modulo the given basis (every term reduced)."""
    return _normal_form(p, _reducers(basis))


def _s_terms(a, b) -> dict:
    """The terms of the S-polynomial of the elements with reducers a and b."""
    (ea, inv_a, ta), (eb, inv_b, tb) = a, b
    lcm = tuple(map(max, ea, eb))
    out: dict = {}
    _add_scaled_into(out, _shifted(ta, _quotient(lcm, ea)), inv_a)
    _add_scaled_into(out, _shifted(tb, _quotient(lcm, eb)), -inv_b)
    return out


def buchberger(gens, ring: PolyRing) -> tuple:
    """Reduced, monic, deterministically sorted lex Groebner basis."""
    basis: list = []    # the reducers of the monic elements found so far
    pairs: list = []    # heap of (deg lcm, lcm, i, j), i < j

    def append(g):
        e = max(g.terms)
        g = g / g.terms[e]
        j = len(basis)
        for i, (f, _, _) in enumerate(basis):
            # a pair with coprime leading monomials is never pushed: its
            # S-polynomial reduces to zero
            if any(map(min, f, e)):
                lcm = tuple(map(max, f, e))
                heappush(pairs, (sum(lcm), lcm, i, j))
        basis.append((e, 1, g.terms))

    for g in gens:
        g = _normal_form(g, basis)
        if not g.is_zero:
            append(g)
    while pairs:
        _, _, i, j = heappop(pairs)
        r = _normal_form(MPoly(ring, _s_terms(basis[i], basis[j])), basis)
        if not r.is_zero:
            append(r)
    return _interreduce(basis, ring)


def _interreduce(basis, ring: PolyRing) -> tuple:
    """The reduced basis of a Groebner basis given by the reducers of its
    monic elements: drop each element whose leading exponent another's
    divides, then reduce each survivor once by the others."""
    # no two leading exponents are equal: each element was reduced by those
    # before it
    minimal = [r for r in basis
               if not any(_divides(s[0], r[0]) for s in basis if s is not r)]
    out = [_normal_form(MPoly(ring, g), minimal[:k] + minimal[k + 1:])
           for k, (_, _, g) in enumerate(minimal)]
    out.sort(key=leading_exps)
    return tuple(out)
