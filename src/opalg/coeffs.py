"""Multivariate polynomials over the rationals with exact arithmetic.

Coefficient rings for operator identities: parameters such as weights or the
entries of an ansatz live here.  Terms are stored as a dict from exponent
tuples to nonzero ``Fraction`` values; all arithmetic is exact.
"""

from __future__ import annotations

import re
from fractions import Fraction


def _add_scaled_into(acc: dict, terms: dict, c=None) -> None:
    """Add ``c * terms`` (``terms`` if ``c`` is None) into ``acc`` in place:
    the one accumulation path of ``MPoly`` and ``OPoly``.  All coefficients
    lie in one ring; a vanishing sum is dropped, a new monomial appended."""
    for m, cc in terms.items():
        if c is not None:
            cc = cc * c
        s = acc.get(m)
        if s is not None:
            cc = s + cc
        if cc:
            acc[m] = cc
        else:
            acc.pop(m, None)


def _mul_terms(t1: dict, t2: dict) -> dict:
    """The term dict of the product of two ``MPoly`` term dicts."""
    out: dict = {}
    for e1, c1 in t1.items():
        _add_scaled_into(out, {tuple(a + b for a, b in zip(e1, e2)): c2
                               for e2, c2 in t2.items()}, c1)
    return out


class PolyRing:
    """A polynomial ring QQ[v1, ..., vn] with a fixed variable order."""

    __slots__ = ("vars", "index")

    def __init__(self, names):
        names = tuple(names)
        if len(set(names)) != len(names):
            raise ValueError("duplicate variable names")
        self.vars = names
        self.index = {n: i for i, n in enumerate(names)}

    @property
    def nvars(self) -> int:
        return len(self.vars)

    def zero(self) -> "MPoly":
        return MPoly(self, {})

    def one(self) -> "MPoly":
        return self.const(1)

    def const(self, c) -> "MPoly":
        c = Fraction(c)
        return MPoly(self, {} if c == 0 else {(0,) * self.nvars: c})

    def var(self, name: str) -> "MPoly":
        i = self.index[name]
        e = [0] * self.nvars
        e[i] = 1
        return MPoly(self, {tuple(e): Fraction(1)})

    def monomial(self, exps, coeff=1) -> "MPoly":
        coeff = Fraction(coeff)
        return MPoly(self, {} if coeff == 0 else {tuple(exps): coeff})

    def parse(self, text: str) -> "MPoly":
        return _parse_poly(text, self)

    def __eq__(self, other):
        return isinstance(other, PolyRing) and self.vars == other.vars

    def __hash__(self):
        return hash(self.vars)

    def __repr__(self):
        return f"PolyRing({', '.join(self.vars)})"


class MPoly:
    """A polynomial: dict from exponent tuples to nonzero Fractions."""

    __slots__ = ("ring", "terms")

    def __init__(self, ring: PolyRing, terms: dict):
        self.ring = ring
        self.terms = terms

    # -- predicates and views ---------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.terms

    @property
    def is_constant(self) -> bool:
        z = (0,) * self.ring.nvars
        return all(e == z for e in self.terms)

    def constant_value(self) -> Fraction:
        if not self.is_constant:
            raise ValueError(f"not a constant: {self}")
        return next(iter(self.terms.values()), Fraction(0))

    def degree_in(self, name: str) -> int:
        i = self.ring.index[name]
        return max((e[i] for e in self.terms), default=0)

    def variables(self) -> set:
        out = set()
        for e in self.terms:
            for i, k in enumerate(e):
                if k:
                    out.add(self.ring.vars[i])
        return out

    # -- arithmetic ----------------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, MPoly):
            if other.ring != self.ring:
                raise ValueError("mixed polynomial rings")
            return other
        if isinstance(other, (int, Fraction)):
            return self.ring.const(other)
        return None

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        terms = dict(self.terms)
        _add_scaled_into(terms, other.terms)
        return MPoly(self.ring, terms)

    __radd__ = __add__

    def __neg__(self):
        return MPoly(self.ring, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return -(self - other)

    def __mul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return MPoly(self.ring, _mul_terms(self.terms, other.terms))

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative power")
        out = self.ring.one()
        for _ in range(n):
            out = out * self
        return out

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        if not other.is_constant or other.is_zero:
            raise ValueError("can only divide by a nonzero constant")
        inv = 1 / other.constant_value()
        return MPoly(self.ring, {e: c * inv for e, c in self.terms.items()})

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = self.ring.const(other)
        return isinstance(other, MPoly) and self.ring == other.ring and self.terms == other.terms

    def __hash__(self):
        return hash((self.ring, frozenset(self.terms.items())))

    def __bool__(self):
        return bool(self.terms)

    # -- substitution and evaluation --------------------------------------------

    def subs(self, assignment: dict) -> "MPoly":
        """Substitute variables by Fractions or MPolys of the same ring.

        Each term, with its assigned exponents cleared, is multiplied by the
        cached powers of the values and added into one term dict.  When no
        assigned variable occurs, ``self`` is returned: an ``MPoly`` is never
        changed in place."""
        ring = self.ring
        for v in assignment.values():
            if isinstance(v, MPoly) and v.ring != ring:
                raise ValueError("mixed polynomial rings")
        assigned = sorted(ring.index[name] for name in assignment)
        if not any(e[i] for e in self.terms for i in assigned):
            return self
        values = {ring.index[name]: (v if isinstance(v, MPoly)
                                     else ring.const(v)).terms
                  for name, v in assignment.items()}
        # powers[i][k - 1] is the term dict of value_i ** k; a plain dict of
        # lists, not a recursive closure, so a call leaves no reference cycle
        powers = {i: [v] for i, v in values.items()}
        out: dict = {}
        for e, c in self.terms.items():
            hit = [i for i in assigned if e[i]]
            kept = list(e)
            for i in hit:
                kept[i] = 0
            term = {tuple(kept): c}
            for i in hit:
                pw = powers[i]
                while len(pw) < e[i]:
                    pw.append(_mul_terms(pw[-1], values[i]))
                term = _mul_terms(term, pw[e[i] - 1])
            _add_scaled_into(out, term)
        return MPoly(ring, out)

    def evaluate(self, point: dict) -> Fraction:
        """Evaluate at a full rational point {name: value}."""
        total = Fraction(0)
        for e, c in self.terms.items():
            v = c
            for i, k in enumerate(e):
                if k:
                    v *= Fraction(point[self.ring.vars[i]]) ** k
            total += v
        return total

    # -- monomial content ----------------------------------------------------------

    def monomial_content(self) -> tuple:
        """Componentwise min exponent vector across all terms (zero poly: zeros)."""
        if not self.terms:
            return (0,) * self.ring.nvars
        its = iter(self.terms)
        m = list(next(its))
        for e in its:
            for i, k in enumerate(e):
                if k < m[i]:
                    m[i] = k
        return tuple(m)

    def divide_monomial(self, exps) -> "MPoly":
        """Exact division by the monomial with the given exponent vector."""
        terms = {}
        for e, c in self.terms.items():
            q = tuple(a - b for a, b in zip(e, exps))
            if any(k < 0 for k in q):
                raise ValueError("monomial does not divide every term")
            terms[q] = c
        return MPoly(self.ring, terms)

    # -- printing -----------------------------------------------------------------

    def __repr__(self):
        return f"MPoly({self})"

    def __str__(self):
        if not self.terms:
            return "0"
        parts = []
        for e in sorted(self.terms, reverse=True):
            c = self.terms[e]
            mono = "*".join(
                f"{self.ring.vars[i]}^{k}" if k > 1 else self.ring.vars[i]
                for i, k in enumerate(e) if k)
            if not mono:
                body = str(abs(c))
            elif abs(c) == 1:
                body = mono
            else:
                body = f"{abs(c)}*{mono}"
            sign = "-" if c < 0 else "+"
            parts.append((sign, body))
        first_sign, first_body = parts[0]
        out = ("-" if first_sign == "-" else "") + first_body
        for sign, body in parts[1:]:
            out += f" {sign} {body}"
        return out


# -- parsing -------------------------------------------------------------------------

_POLY_TOKEN = re.compile(r"\s+|\d+|[A-Za-z][A-Za-z0-9_]*|\^|\*|/|\+|-|\(|\)|.")


class PolyParseError(ValueError):
    def __init__(self, message, position):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class _PolyTokens:
    """The tokens of one polynomial text and the read position, shared by
    the parse functions below.  They are module-level recursions: recursive
    closures would leave a reference cycle per parse."""

    __slots__ = ("text", "ring", "toks", "pos")

    def __init__(self, text: str, ring: PolyRing):
        self.text = text
        self.ring = ring
        self.toks = [(m.group(), m.start()) for m in _POLY_TOKEN.finditer(text)
                     if not m.group().isspace()]
        self.pos = 0

    def peek(self):
        return self.toks[self.pos][0] if self.pos < len(self.toks) else None

    def take(self):
        t = self.toks[self.pos]
        self.pos += 1
        return t


def _parse_poly(text: str, ring: PolyRing) -> MPoly:
    ts = _PolyTokens(text, ring)
    if not ts.toks:
        raise PolyParseError("empty input", 0)
    p = _parse_sum(ts)
    if ts.pos < len(ts.toks):
        t, at = ts.toks[ts.pos]
        raise PolyParseError(f"unexpected token {t!r}", at)
    return p


def _parse_sum(ts: _PolyTokens) -> MPoly:
    t = ts.peek()
    sign = 1
    while t in ("+", "-"):
        ts.take()
        if t == "-":
            sign = -sign
        t = ts.peek()
    p = _parse_product(ts) * sign
    while ts.peek() in ("+", "-"):
        op, _ = ts.take()
        q = _parse_product(ts)
        p = p + q if op == "+" else p - q
    return p


def _parse_product(ts: _PolyTokens) -> MPoly:
    p = _parse_power(ts)
    while True:
        t = ts.peek()
        if t in ("*", "/"):
            ts.take()
            q = _parse_power(ts)
            p = p * q if t == "*" else p / q
        elif t is not None and (t[0].isalnum() or t == "("):
            p = p * _parse_power(ts)   # implicit product
        else:
            return p


def _parse_power(ts: _PolyTokens) -> MPoly:
    p = _parse_atomic(ts)
    if ts.peek() == "^":
        ts.take()
        t, at = ts.take() if ts.pos < len(ts.toks) else (None, len(ts.text))
        if t is None or not t.isdigit():
            raise PolyParseError("expected integer exponent", at)
        p = p ** int(t)
    return p


def _parse_atomic(ts: _PolyTokens) -> MPoly:
    if ts.pos >= len(ts.toks):
        raise PolyParseError("unexpected end of input", len(ts.text))
    t, at = ts.take()
    if t == "(":
        p = _parse_sum(ts)
        if ts.peek() != ")":
            raise PolyParseError("missing closing parenthesis", at)
        ts.take()
        return p
    if t.isdigit():
        return ts.ring.const(int(t))
    if re.match(r"[A-Za-z]", t):
        if t not in ts.ring.index:
            raise PolyParseError(f"unknown variable {t!r}", at)
        return ts.ring.var(t)
    if t == "-":
        return -_parse_atomic(ts)
    raise PolyParseError(f"unexpected token {t!r}", at)
