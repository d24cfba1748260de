"""Multivariate polynomials over the rationals with exact arithmetic.

Coefficient rings for operator identities: parameters such as weights or the
entries of an ansatz live here.  Terms are stored as a dict from exponent
tuples to nonzero exact rationals; all arithmetic is exact.  A rational
coefficient, here and in ``OPoly``, has one form (``rational``): an ``int``
when it is integral, a ``Fraction`` otherwise.  Both compare and hash equal
to the ``Fraction`` of the same value.  Two ints meet ``/`` only in
``reciprocal``, the one inversion, so no coefficient becomes a float.
An ``MPoly`` is immutable once built: its hash and string are computed once
and memoised, a product with a one-term factor is an exponent shift, and a
product by one and division by 1 return the other polynomial itself.
``ResourceLimit``, the exception of every cap, and the nesting cap are
defined here because each module that can hit a cap imports this one.
"""

from __future__ import annotations

import re
import sys
from fractions import Fraction
from operator import add


def rational(c):
    """``c`` as an exact rational in its one form: an ``int`` when it is
    integral, else a ``Fraction``.  An ``int`` and a non-integral
    ``Fraction`` pass through as they are; anything else is read by
    ``Fraction(c)``."""
    if type(c) is int:
        return c
    if type(c) is not Fraction:
        c = Fraction(c)
    return c.numerator if c.denominator == 1 else c


def reciprocal(c):
    """``1 / c`` for a nonzero rational ``c``, in the form of ``rational``:
    the one inversion of a coefficient."""
    return rational(Fraction(1, c))


def _add_scaled_into(acc: dict, terms: dict, c=None) -> None:
    """Add ``c * terms`` (``terms`` if ``c`` is None) into ``acc`` in place:
    the one accumulation path of ``MPoly`` and ``OPoly``.  All coefficients
    lie in one ring; each is stored in the form of ``rational``, a vanishing
    sum is dropped, a new monomial appended."""
    for m, cc in terms.items():
        if c is not None:
            cc = cc * c
        s = acc.get(m)
        if s is not None:
            cc = s + cc
        if cc:
            if type(cc) is Fraction and cc.denominator == 1:
                cc = cc.numerator
            acc[m] = cc
        else:
            acc.pop(m, None)


def _add_term(acc: dict, m, c) -> None:
    """Add ``c * m`` into ``acc`` in place, as ``_add_scaled_into(acc, {m:
    c})`` would: ``c`` must be a nonzero coefficient in the form of
    ``rational`` (or an ``MPoly``), so a new monomial takes it as it is and
    a repeated one is merged by ``_add_scaled_into``."""
    if m in acc:
        _add_scaled_into(acc, {m: c})
    else:
        acc[m] = c


def _signed_sum(parts) -> str:
    """Print (negative, text) pairs as the signed sum ``a - b + c``."""
    out = "".join((" - " if negative else " + ") + text
                  for negative, text in parts)
    return ("-" if parts[0][0] else "") + out[3:]


def _mul_terms(t1: dict, t2: dict) -> dict:
    """The term dict of the product of two ``MPoly`` term dicts.

    A one-term factor, on either side, shifts the exponents of the other:
    the shift is injective, so nothing accumulates, and the terms come in
    the other factor's order, as the general path would give them."""
    if len(t1) == 1 or len(t2) == 1:
        one, many = (t1, t2) if len(t1) == 1 else (t2, t1)
        ((e1, c1),) = one.items()
        out = {}
        for e2, c2 in many.items():
            c = c2 * c1
            if type(c) is Fraction and c.denominator == 1:
                c = c.numerator
            out[tuple(map(add, e1, e2))] = c
        return out
    out: dict = {}
    for e1, c1 in t1.items():
        _add_scaled_into(out, {tuple(map(add, e1, e2)): c2
                               for e2, c2 in t2.items()}, c1)
    return out


class PolyRing:
    """A polynomial ring QQ[v1, ..., vn] with a fixed variable order."""

    __slots__ = ("vars", "index", "_one")

    def __init__(self, names):
        names = tuple(names)
        if len(set(names)) != len(names):
            raise ValueError("duplicate variable names")
        self.vars = names
        self.index = {n: i for i, n in enumerate(names)}
        self._one = {(0,) * len(names): 1}  # the terms of the constant one

    @property
    def nvars(self) -> int:
        return len(self.vars)

    def zero(self) -> "MPoly":
        return MPoly(self, {})

    def one(self) -> "MPoly":
        return self.const(1)

    def const(self, c) -> "MPoly":
        c = rational(c)
        return MPoly(self, {} if c == 0 else {(0,) * self.nvars: c})

    def var(self, name: str) -> "MPoly":
        i = self.index[name]
        e = [0] * self.nvars
        e[i] = 1
        return MPoly(self, {tuple(e): 1})

    def parse(self, text: str) -> "MPoly":
        return _parse_poly(text, self)

    def __eq__(self, other):
        return isinstance(other, PolyRing) and self.vars == other.vars

    def __hash__(self):
        return hash(self.vars)

    def __repr__(self):
        return f"PolyRing({', '.join(self.vars)})"


class MPoly:
    """A polynomial: dict from exponent tuples to nonzero rationals, each an
    ``int`` when integral and a ``Fraction`` otherwise (``rational``).

    An ``MPoly`` is immutable: its ``terms`` are never changed once it is
    built, so ``__hash__`` and ``__str__`` compute their value once and keep
    it in a memo slot, and an operation that leaves a polynomial as it is
    (``subs`` of an absent variable, a product by one, division by 1)
    returns it."""

    __slots__ = ("ring", "terms", "_hash_memo", "_str_memo")

    def __init__(self, ring: PolyRing, terms: dict):
        self.ring = ring
        self.terms = terms
        self._hash_memo = None
        self._str_memo = None

    def __reduce__(self):
        # copies and unpickled polynomials are built afresh: a string's hash,
        # and so a memoised hash, differs from one process to the next
        return MPoly, (self.ring, self.terms)

    # -- predicates and views ---------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.terms

    @property
    def is_constant(self) -> bool:
        if len(self.terms) > 1:
            return False
        z = (0,) * self.ring.nvars
        return all(e == z for e in self.terms)

    def constant_value(self):
        if not self.is_constant:
            raise ValueError(f"not a constant: {self}")
        return next(iter(self.terms.values()), 0)

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
        # a product by one is the other factor; the int is tested by type
        # first, since ``==`` on an MPoly builds a constant
        if type(other) is int and other == 1:
            return self
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        one = self.ring._one
        if other.terms == one:
            return self
        if self.terms == one:
            return other
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
        c = other.constant_value()
        if c == 1:
            return self
        terms: dict = {}
        _add_scaled_into(terms, self.terms, reciprocal(c))
        return MPoly(self.ring, terms)

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = self.ring.const(other)
        return isinstance(other, MPoly) and self.ring == other.ring and self.terms == other.terms

    def __hash__(self):
        h = self._hash_memo
        if h is None:
            h = self._hash_memo = hash((self.ring,
                                        frozenset(self.terms.items())))
        return h

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

    def evaluate(self, point: dict):
        """Evaluate at a full rational point {name: value}, in the form of
        ``rational``."""
        total = 0
        for e, c in self.terms.items():
            v = c
            for i, k in enumerate(e):
                if k:
                    v *= rational(point[self.ring.vars[i]]) ** k
            total += v
        return rational(total)

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
        if self._str_memo is not None:
            return self._str_memo
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
            parts.append((c < 0, body))
        self._str_memo = out = _signed_sum(parts)
        return out


# -- parsing -------------------------------------------------------------------------

_TOKEN = re.compile(r"(\d+)|([A-Za-z][A-Za-z0-9_]*)|\S")


class ResourceLimit(RuntimeError):
    """A computation stopped at a cap or a budget before it finished."""


# Levels of brackets and parentheses a text (``Tokens``) or a word (``Word``)
# may nest.  A word's depth, ``deg``, ``leaves``, ``has_unit_bracket`` and
# redex flags are set when it is built, from those of its atoms, so reading
# them walks nothing.  Frames a level: reading a word and walking one
# (``to_str``, ``tokens``, ``plan``, ``fill``, ``find_redexes``,
# ``order_key``) 1; finding a first redex and reading a word's bracket
# towers (``tower_heights``) 0; ``delta_view`` and parentheses around words
# 2; parentheses around coefficients 4.
# ``gsb.free_dt_operator_nf`` nests at most ``MAX_DEPTH`` applications of d,
# one frame each, and takes one a generator on the catalog's patterns.  All
# stay far inside the default recursion limit of 1 000.
MAX_DEPTH = 200
TOO_NESTED = (f"nested too deep: more than {MAX_DEPTH} levels of brackets "
              "and parentheses")


class ParseError(ValueError):
    """A rejected text; ``position`` is the offset in it where reading failed."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class PolyParseError(ParseError):
    pass


class Tokens:
    """The tokens of one text and a read position, shared by the parsers of
    words, coefficients and operated polynomials.  A token is a digit run
    (kind ``"num"``), an identifier (kind ``"ident"``) or any other single
    character (its own kind); whitespace only separates tokens.  Each token
    is a ``(kind, text, position)`` triple, its position an offset into the
    text.  The parsers that read it are module-level recursions: recursive
    closures would leave a reference cycle per parse.  A digit run longer
    than the interpreter converts to an integer is rejected here, at its
    offset, so no parser meets ``int``'s own error, and a text nested past
    ``MAX_DEPTH`` raises ``ResourceLimit(TOO_NESTED)``."""

    __slots__ = ("text", "toks", "pos")

    def __init__(self, text: str):
        self.text = text
        self.toks = [("num" if m.group(1) else "ident" if m.group(2)
                      else m.group(), m.group(), m.start())
                     for m in _TOKEN.finditer(text)]
        self.pos = 0
        limit = sys.get_int_max_str_digits()
        depth = 0
        for kind, t, at in self.toks:
            depth += (kind in ("[", "(")) - (kind in ("]", ")"))
            if depth > MAX_DEPTH:
                raise ResourceLimit(TOO_NESTED)
            if limit and kind == "num" and len(t) > limit:
                raise ParseError(f"integer of more than {limit} digits", at)

    def peek(self) -> tuple:
        """The next token; past the end, ``(None, None, len(text))``."""
        if self.pos < len(self.toks):
            return self.toks[self.pos]
        return None, None, len(self.text)

    def take(self) -> tuple:
        """The next token, moving past it."""
        t = self.peek()
        self.pos += 1
        return t


def _parse_poly(text: str, ring: PolyRing) -> MPoly:
    ts = Tokens(text)
    if not ts.toks:
        raise PolyParseError("empty input", 0)
    p = _parse_sum(ts, ring)
    _, t, at = ts.peek()
    if t is not None:
        raise PolyParseError(f"unexpected token {t!r}", at)
    return p


def _parse_sum(ts: Tokens, ring: PolyRing) -> MPoly:
    sign = 1
    while ts.peek()[0] in ("+", "-"):
        if ts.take()[0] == "-":
            sign = -sign
    p = _parse_product(ts, ring) * sign
    while ts.peek()[0] in ("+", "-"):
        op = ts.take()[0]
        q = _parse_product(ts, ring)
        p = p + q if op == "+" else p - q
    return p


def _parse_product(ts: Tokens, ring: PolyRing) -> MPoly:
    p = _parse_power(ts, ring)
    while True:
        kind, t, at = ts.peek()
        if kind in ("*", "/"):
            ts.take()
            q = _parse_power(ts, ring)
            if kind == "*":
                p = p * q
            elif q.is_constant and q:
                p = p / q
            else:
                raise PolyParseError("can only divide by a nonzero constant",
                                     at)
        elif kind in ("num", "ident", "("):
            p = p * _parse_power(ts, ring)   # implicit product
        else:
            return p


def _parse_power(ts: Tokens, ring: PolyRing) -> MPoly:
    p = parse_atomic(ts, ring)
    if ts.peek()[0] == "^":
        ts.take()
        kind, t, at = ts.take()
        if kind != "num":
            raise PolyParseError("expected integer exponent", at)
        p = p ** int(t)
    return p


def parse_atomic(ts: Tokens, ring: PolyRing) -> MPoly:
    """A number, a variable or a parenthesized sum, after any number of
    ``-`` signs (read in a loop, so a chain of them takes no frames)."""
    negate = False
    kind, t, at = ts.take()
    while kind == "-":
        negate = not negate
        kind, t, at = ts.take()
    if kind == "(":
        p = _parse_sum(ts, ring)
        if ts.peek()[0] != ")":
            raise PolyParseError("missing closing parenthesis", at)
        ts.take()
    elif kind == "num":
        p = ring.const(int(t))
    elif kind == "ident":
        if t not in ring.index:
            raise PolyParseError(f"unknown variable {t!r}" if ring.vars else
                                 "symbolic coefficient without a coefficient "
                                 "ring", at)
        p = ring.var(t)
    elif kind is None:
        raise PolyParseError("unexpected end of input", at)
    else:
        raise PolyParseError(f"unexpected token {t!r}", at)
    return -p if negate else p
