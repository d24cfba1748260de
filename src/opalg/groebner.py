"""Buchberger's algorithm and normal forms for commutative coefficient ideals.

Every basis is taken in the lex order of exponent tuples, which is the plain
tuple order: ``solve`` reads its components off a triangular lex basis.
"""

from __future__ import annotations

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


def nf_mod_ideal(p: MPoly, basis) -> MPoly:
    """Full normal form of p modulo the given basis (every term reduced)."""
    lms = []
    for g in basis:
        if not g.is_zero:
            lm = leading_exps(g)
            lms.append((lm, reciprocal(g.terms[lm]), g.terms))
    out = {}
    work = dict(p.terms)
    while work:
        t = max(work)
        c = work[t]
        for lm, inv, g in lms:
            if _divides(lm, t):
                q = _quotient(t, lm)
                _add_scaled_into(work, {tuple(map(add, e, q)): cg
                                        for e, cg in g.items()}, -c * inv)
                break
        else:
            out[t] = c
            del work[t]
    return MPoly(p.ring, out)


def s_polynomial(f: MPoly, g: MPoly) -> MPoly:
    ef, eg = leading_exps(f), leading_exps(g)
    lcm = tuple(max(a, b) for a, b in zip(ef, eg))
    ring = f.ring
    mf = ring.monomial(_quotient(lcm, ef), reciprocal(f.terms[ef]))
    mg = ring.monomial(_quotient(lcm, eg), reciprocal(g.terms[eg]))
    return f * mf - g * mg


def buchberger(gens, ring: PolyRing) -> tuple:
    """Reduced, monic, deterministically sorted lex Groebner basis."""
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
            continue  # coprime leading monomials: S-polynomial reduces to zero
        r = nf_mod_ideal(s_polynomial(basis[i], basis[j]), basis)
        if r.is_zero:
            continue
        r = r / r.terms[leading_exps(r)]
        pairs.extend((k, len(basis)) for k in range(len(basis)))
        basis.append(r)
    return _interreduce(basis)


def _interreduce(basis) -> tuple:
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
