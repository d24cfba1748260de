"""Operated polynomials: exact linear combinations of bracketed words.

Coefficients are either plain rationals or elements of a ``PolyRing`` (for
patterns carrying symbolic parameters).  The product is the word concatenation
extended bilinearly.

The public constructor ``OPoly(terms, ring)`` checks every coefficient.
Internal sums go through ``coeffs._add_scaled_into`` and are wrapped by
``OPoly._trusted``, which checks nothing: use it only for dicts built from
nonzero coefficients already in the ring, never for caller input.
"""

from __future__ import annotations

from fractions import Fraction

from .coeffs import (MPoly, ParseError, PolyRing, Tokens, _add_scaled_into,
                     _add_term, _signed_sum, parse_atomic, rational)
from .ordering import OrderConfig, order_key
from .words import (
    GeneratorSet,
    Word,
    fill,
    parse_word,
    plan,
    to_str,
    word_sort_key,
)


class OPoly:
    """dict from Word to nonzero coefficient: an exact rational when no ring
    is set, an ``int`` when integral and a ``Fraction`` otherwise
    (``coeffs.rational``); an ``MPoly`` of the ring when one is."""

    __slots__ = ("ring", "terms")

    def __init__(self, terms: dict = None, ring: PolyRing = None):
        self.ring = ring
        self.terms = {}
        if terms:
            for w, c in terms.items():
                c = self._coeff(c)
                if c:
                    self.terms[w] = c

    @classmethod
    def _trusted(cls, terms: dict, ring: PolyRing) -> "OPoly":
        """Wrap ``terms`` as is; see the module docstring for when."""
        p = cls.__new__(cls)
        p.ring = ring
        p.terms = terms
        return p

    # -- coefficient plumbing ------------------------------------------------

    def _coeff(self, c):
        if self.ring is None:
            if isinstance(c, MPoly):
                raise ValueError("symbolic coefficient in a numeric polynomial")
            return rational(c)
        if isinstance(c, MPoly):
            if c.ring != self.ring:
                raise ValueError("mixed coefficient rings")
            return c
        return self.ring.const(c)

    def _check_compatible(self, other: "OPoly"):
        if self.ring != other.ring:
            raise ValueError("mixed coefficient rings")

    # -- constructors -----------------------------------------------------------

    @staticmethod
    def from_word(w: Word, ring: PolyRing = None) -> "OPoly":
        return OPoly({w: 1}, ring=ring)

    @staticmethod
    def zero(ring: PolyRing = None) -> "OPoly":
        return OPoly({}, ring=ring)

    def with_ring(self, ring: PolyRing) -> "OPoly":
        """Lift a numeric polynomial into a coefficient ring."""
        if self.ring is not None:
            if self.ring == ring:
                return self
            raise ValueError("polynomial already carries a different ring")
        return OPoly({w: ring.const(c) for w, c in self.terms.items()}, ring=ring)

    # -- ring operations -----------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def __add__(self, other):
        if not isinstance(other, OPoly):
            return NotImplemented
        self._check_compatible(other)
        terms = dict(self.terms)
        _add_scaled_into(terms, other.terms)
        return OPoly._trusted(terms, self.ring)

    def __neg__(self):
        return OPoly._trusted({w: -c for w, c in self.terms.items()}, self.ring)

    def __sub__(self, other):
        if not isinstance(other, OPoly):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, MPoly)):
            return self.scale(other)
        if not isinstance(other, OPoly):
            return NotImplemented
        self._check_compatible(other)
        out: dict = {}
        for w1, c1 in self.terms.items():
            # w1 * w2 is injective in w2, so each row is a valid term dict
            _add_scaled_into(out, {w1 * w2: c2 for w2, c2 in other.terms.items()},
                             c1)
        return OPoly._trusted(out, self.ring)

    __rmul__ = __mul__  # reached only for scalars: an OPoly left operand wins

    def scale(self, c) -> "OPoly":
        c = self._coeff(c)
        if not c:
            return OPoly.zero(self.ring)
        out: dict = {}
        _add_scaled_into(out, self.terms, c)
        return OPoly._trusted(out, self.ring)

    def __eq__(self, other):
        return (isinstance(other, OPoly) and self.ring == other.ring
                and self.terms == other.terms)

    def __len__(self):
        return len(self.terms)

    def __repr__(self):
        return f"OPoly({self})"

    def __str__(self):
        return to_str_opoly(self)

    # -- substitution ----------------------------------------------------------------

    def subst_generators(self, mapping: dict) -> "OPoly":
        """Replace generators by words: a word homomorphism, so each term
        keeps its coefficient and only colliding images add up.  Each term
        is planned in the mapping's names and filled with its values.  A
        value that is not a ``Word`` raises ``ValueError``."""
        if not all(isinstance(v, Word) for v in mapping.values()):
            raise ValueError("generator values must be words")
        names = tuple(mapping)
        return _filled(((plan(w, names), c) for w, c in self.terms.items()),
                       tuple(mapping.values()), self.ring)

    def map_coeffs(self, fn) -> "OPoly":
        return OPoly({w: fn(c) for w, c in self.terms.items()}, ring=self.ring)

    def evaluate_coeffs(self, point: dict) -> "OPoly":
        """Specialize symbolic coefficients at a rational point."""
        if self.ring is None:
            return self
        return OPoly({w: c.evaluate(point) for w, c in self.terms.items()}, ring=None)


def _filled(plans, values: tuple, ring: PolyRing) -> OPoly:
    """The ``(plan, coefficient)`` terms filled with ``values``, in order."""
    out: dict = {}
    for parts, c in plans:
        _add_term(out, Word(fill(parts, values)), c)
    return OPoly._trusted(out, ring)


# -- printing ---------------------------------------------------------------------


def _coeff_parts(c):
    """(negative, body); body never starts with '-'."""
    if isinstance(c, MPoly):
        if c.is_constant:
            return _coeff_parts(c.constant_value())
        if len(c.terms) == 1:
            ((e, q),) = c.terms.items()
            return q < 0, str(MPoly(c.ring, {e: abs(q)}))
        return False, f"({c})"
    return c < 0, str(abs(c))


def to_str_opoly(p: OPoly, cfg: OrderConfig = None) -> str:
    if not p.terms:
        return "0"
    if cfg is not None:
        words = sorted(p.terms, key=order_key(cfg), reverse=True)
    else:
        words = sorted(p.terms, key=word_sort_key)
    parts = []
    for w in words:
        negative, body = _coeff_parts(p.terms[w])
        if w.is_unit:
            term = body
        elif body == "1":
            term = to_str(w)
        else:
            term = f"{body}*{to_str(w)}"
        parts.append((negative, term))
    return _signed_sum(parts)


# -- parsing ----------------------------------------------------------------------

# the tokens a term stops before; None is the end of the text
_TERM_END = (None, "+", "-", ")")
# reads the parenthesized coefficients of a numeric polynomial
_NUMBERS = PolyRing(())


def parse_opoly(text: str, gens: GeneratorSet, ring: PolyRing = None) -> OPoly:
    """Parse ``sum := ("+" | "-")? term (("+" | "-") term)*``.  A term is
    coefficient factors, each optionally followed by ``*``, then a word or a
    parenthesized sum, which must end the term.  A factor is an integer,
    ``n/d``, a ring variable or a parenthesized coefficient expression, a
    group holding no bracket and no generator name; identifiers outside the
    generator set are coefficient variables and require ``ring``.  A text
    nested past ``coeffs.MAX_DEPTH`` raises ``ResourceLimit(TOO_NESTED)``."""
    ts = Tokens(text)
    if not ts.toks:
        raise ParseError("empty polynomial", 0)
    total = _parse_sum(ts, gens, ring)
    _, tok, at = ts.peek()
    if tok is not None:
        raise ParseError(f"unexpected token {tok!r}", at)
    return OPoly._trusted(total, ring)


def _parse_sum(ts: Tokens, gens: GeneratorSet, ring: PolyRing) -> dict:
    """The term dict of the sum at the read position of ``ts``."""
    kind = ts.peek()[0]
    sign = -1 if kind == "-" else 1
    if kind in ("+", "-"):
        ts.take()
    total: dict = {}
    while True:
        _parse_term(ts, gens, ring, total, sign)
        if ts.peek()[0] not in ("+", "-"):
            return total
        sign = 1 if ts.take()[0] == "+" else -1


def _parse_term(ts: Tokens, gens: GeneratorSet, ring: PolyRing, total: dict,
                sign: int) -> None:
    """Add ``sign`` times the term at the read position of ``ts`` into
    ``total``."""
    kind, _, at = ts.peek()
    if kind in _TERM_END:
        raise ParseError("missing term", at)
    coeff = 1 if ring is None else ring.one()
    while True:
        kind, tok, at = ts.peek()
        if kind == "num":
            coeff = coeff * _parse_number(ts)
        elif kind == "ident" and tok not in gens:
            if ring is None or tok not in ring.index:
                raise ParseError(f"unknown identifier {tok!r}", at)
            ts.take()
            coeff = coeff * ring.var(tok)
        elif kind == "(" and not _group_holds_words(ts, gens):
            c = parse_atomic(ts, ring or _NUMBERS)
            coeff = coeff * (c if ring else c.constant_value())
        else:
            break
        if ts.peek()[0] == "*":
            ts.take()
    if kind != "(":
        w = Word(()) if kind in _TERM_END else parse_word(ts, gens)
        _add_scaled_into(total, {w: coeff}, sign)
        return
    ts.take()
    inner = _parse_sum(ts, gens, ring)
    if ts.take()[0] != ")":
        raise ParseError("missing closing parenthesis", at)
    _add_scaled_into(total, inner, coeff * sign)


def _parse_number(ts: Tokens):
    """An integer or ``n/d``, ``d`` nonzero, in the form of ``rational``."""
    num = int(ts.take()[1])
    if ts.peek()[0] != "/":
        return num
    ts.take()
    kind, den, at = ts.take()
    if kind != "num":
        raise ParseError("expected a denominator", at)
    if not int(den):
        raise ParseError("zero denominator", at)
    return rational(Fraction(num, int(den)))


def _group_holds_words(ts: Tokens, gens: GeneratorSet) -> bool:
    """Whether the group opening at the read position of ``ts`` holds word
    material, a bracket or a generator name, before its closing
    parenthesis."""
    depth = 0
    for kind, tok, _ in ts.toks[ts.pos:]:
        if kind == "[" or (kind == "ident" and tok in gens):
            return True
        depth += (kind == "(") - (kind == ")")
        if not depth:
            return False
    return False


# -- operator identities --------------------------------------------------------------

XY = GeneratorSet(["x", "y"])

DIFFERENTIAL = "differential"
ROTA_BAXTER = "rota_baxter"


class OpIdentity:
    """An operator identity of differential or Rota-Baxter shape.

    differential: [x y] = N(x, y);  rota_baxter: [x] [y] = [M(x, y)].
    The replacement pattern (N or M) is an OPoly in generators x, y, possibly
    with symbolic coefficients constrained by ``constraints``.  Every
    instance of it is filled from its compiled form, ``plans``.
    """

    __slots__ = ("kind", "pattern", "constraints", "name", "_plans_memo")

    def __init__(self, kind: str, pattern: OPoly, constraints=(), name: str = None):
        if kind not in (DIFFERENTIAL, ROTA_BAXTER):
            raise ValueError(f"unknown identity kind {kind!r}")
        self.kind = kind
        self.pattern = pattern
        self.constraints = tuple(constraints)
        self.name = name
        self._plans_memo = None

    @property
    def ring(self):
        return self.pattern.ring

    @property
    def plans(self) -> tuple:
        """One ``(words.plan in x and y, coefficient)`` pair per pattern
        term, in term order, compiled on first use, since many identities
        never instantiate their pattern."""
        plans = self._plans_memo
        if plans is None:
            plans = self._plans_memo = tuple(
                (plan(m, XY.names), c) for m, c in self.pattern.terms.items())
        return plans

    def pattern_at(self, u: Word, v: Word) -> OPoly:
        """Just the replacement side N(u, v) (or M(u, v))."""
        return _filled(self.plans, (u, v), self.ring)

    def specialize(self, point: dict) -> "OpIdentity":
        """Numeric identity at a rational parameter point."""
        if self.ring is None:
            return self
        for g in self.constraints:
            if g.evaluate(point) != 0:
                raise ValueError(f"point violates constraint {g} = 0")
        return OpIdentity(self.kind, self.pattern.evaluate_coeffs(point),
                          name=self.name)

    def __repr__(self):
        label = self.name or self.kind
        return f"OpIdentity({label}: {self.pattern})"
