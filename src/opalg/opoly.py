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

import re
from fractions import Fraction

from .coeffs import MPoly, PolyRing, _add_scaled_into
from .ordering import OrderConfig, order_key
from .words import (
    UNIT,
    GeneratorSet,
    ParseError,
    Word,
    parse as parse_word,
    replace_generators,
    to_str,
    word_sort_key,
)


class OPoly:
    """dict from Word to nonzero coefficient (Fraction, or MPoly when ring set)."""

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
            if type(c) is Fraction:
                return c
            if isinstance(c, MPoly):
                raise ValueError("symbolic coefficient in a numeric polynomial")
            return Fraction(c)
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
        return OPoly._trusted({w: cc * c for w, cc in self.terms.items()},
                              self.ring)

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
        keeps its coefficient and only colliding images add up.  A value
        that is not a ``Word`` raises ``ValueError``."""
        if not all(isinstance(v, Word) for v in mapping.values()):
            raise ValueError("generator values must be words")
        out: dict = {}
        for w, c in self.terms.items():
            _add_scaled_into(out, {replace_generators(w, mapping): c})
        return OPoly._trusted(out, self.ring)

    def map_coeffs(self, fn) -> "OPoly":
        return OPoly({w: fn(c) for w, c in self.terms.items()}, ring=self.ring)

    def evaluate_coeffs(self, point: dict) -> "OPoly":
        """Specialize symbolic coefficients at a rational point."""
        if self.ring is None:
            return self
        return OPoly({w: c.evaluate(point) for w, c in self.terms.items()}, ring=None)


# -- printing ---------------------------------------------------------------------


def _coeff_parts(c):
    """(sign, body) with sign in {+1, -1}; body never starts with '-'."""
    if isinstance(c, MPoly):
        if c.is_constant:
            return _coeff_parts(c.constant_value())
        if len(c.terms) == 1:
            ((e, q),) = c.terms.items()
            body = str(MPoly(c.ring, {e: abs(q)}))
            return (1 if q > 0 else -1), body
        return 1, f"({c})"
    return (1 if c >= 0 else -1), str(abs(c))


def to_str_opoly(p: OPoly, cfg: OrderConfig = None) -> str:
    if not p.terms:
        return "0"
    if cfg is not None:
        words = sorted(p.terms, key=order_key(cfg), reverse=True)
    else:
        words = sorted(p.terms, key=word_sort_key)
    parts = []
    for w in words:
        sign, body = _coeff_parts(p.terms[w])
        if w.is_unit:
            term = body
        elif body == "1":
            term = to_str(w)
        else:
            term = f"{body}*{to_str(w)}"
        parts.append((sign, term))
    first_sign, first_term = parts[0]
    out = ("-" if first_sign < 0 else "") + first_term
    for sign, term in parts[1:]:
        out += (" - " if sign < 0 else " + ") + term
    return out


# -- parsing ----------------------------------------------------------------------

_NUM = re.compile(r"\d+(/\d+)?\Z")


def parse_opoly(text: str, gens: GeneratorSet, ring: PolyRing = None) -> OPoly:
    """Parse ``coefficient word +/- ...``; identifiers outside the generator
    set are coefficient variables and require ``ring``.  A coefficient may
    multiply a parenthesized sum of terms, which must end its term."""
    chunks = _split_terms(text)
    if not chunks:
        raise ParseError("empty polynomial", 0)
    total: dict = {}
    for sign, chunk, at in chunks:
        coeff, word_text, word_at = _split_coeff(chunk, at, gens, ring)
        stripped = word_text.strip()
        if stripped.startswith("("):
            inner, after = _take_paren_group(stripped, word_at)
            if after.strip():
                raise ParseError("unexpected text after parenthesized sum",
                                 word_at + len(stripped) - len(after))
            sub = parse_opoly(inner, gens, ring)
            _add_scaled_into(total, sub.terms, coeff * sign)
            continue
        if stripped:
            w = _parse_word_at(word_text, gens, word_at)
        else:
            w = UNIT
        _add_scaled_into(total, {w: coeff}, sign)
    return OPoly._trusted(total, ring)


def _take_paren_group(text: str, at: int):
    """Split ``(inner)rest`` at the matching close parenthesis."""
    depth = 0
    for i, ch in enumerate(text):
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
            if depth == 0:
                return text[1:i], text[i + 1:]
    raise ParseError("unbalanced parenthesis", at)


def _group_mentions_words(tok: str, gens: GeneratorSet) -> bool:
    """Whether a parenthesized group contains word material (a bracket or a
    generator name), as opposed to a pure coefficient expression."""
    if "[" in tok:
        return True
    return any(name in gens for name in re.findall(r"[A-Za-z][A-Za-z0-9_]*",
                                                   tok))


def _split_terms(text: str):
    """Split on top-level + and -, tracking signs and offsets."""
    chunks = []
    depth = 0
    sign = 1
    start = None
    lead_sign_used = False
    for i, ch in enumerate(text):
        if ch in "([":
            depth += 1
        elif ch in ")]":
            depth -= 1
            if depth < 0:
                raise ParseError("unbalanced bracket or parenthesis", i)
        if depth == 0 and ch in "+-" and start is None:
            # a sign may prefix only the first term; elsewhere +/- are binary
            if chunks or lead_sign_used:
                raise ParseError("misplaced sign", i)
            if ch == "-":
                sign = -sign
            lead_sign_used = True
            continue
        if depth == 0 and ch in "+-":
            chunks.append((sign, text[start:i], start))
            sign = 1 if ch == "+" else -1
            start = None
            continue
        if start is None and not ch.isspace():
            start = i
    if depth != 0:
        raise ParseError("unbalanced bracket or parenthesis", len(text))
    if start is not None:
        chunks.append((sign, text[start:], start))
    elif chunks or lead_sign_used or not text.strip():
        if not text.strip():
            raise ParseError("empty polynomial", 0)
        raise ParseError("dangling sign", len(text) - 1)
    return chunks


_FACTOR = re.compile(r"\s*(\((?:[^()]|\([^()]*\))*\)|\d+(?:/\d+)?|[A-Za-z][A-Za-z0-9_]*)\s*(\*?)")


def _split_coeff(chunk: str, at: int, gens: GeneratorSet, ring: PolyRing):
    """Peel leading coefficient factors off a term; the rest is the word."""
    coeff = Fraction(1) if ring is None else ring.one()
    pos = 0
    while pos < len(chunk):
        m = _FACTOR.match(chunk, pos)
        if not m:
            break
        tok = m.group(1)
        if tok.startswith("("):
            if _group_mentions_words(tok, gens):
                break  # a parenthesized sum of words, not a coefficient
            if ring is None:
                raise ParseError("symbolic coefficient without a coefficient ring",
                                 at + m.start(1))
            try:
                coeff = coeff * ring.parse(tok[1:-1])
            except ValueError as e:
                raise ParseError(f"bad coefficient: {e}", at + m.start(1)) from None
        elif _NUM.match(tok):
            coeff = coeff * Fraction(tok)
        elif tok not in gens and tok != "1":
            if ring is None or tok not in ring.index:
                raise ParseError(f"unknown identifier {tok!r}", at + m.start(1))
            coeff = coeff * ring.var(tok)
        else:
            break  # start of the word part
        pos = m.end()
    return coeff, chunk[pos:], at + pos


def _parse_word_at(text: str, gens: GeneratorSet, at: int) -> Word:
    try:
        return parse_word(text, gens)
    except ParseError as e:
        raise type(e)(str(e).rsplit(" (at position", 1)[0], e.position + at) from None


# -- operator identities --------------------------------------------------------------

XY = GeneratorSet(["x", "y"])

DIFFERENTIAL = "differential"
ROTA_BAXTER = "rota_baxter"


class OpIdentity:
    """An operator identity of differential or Rota-Baxter shape.

    differential: [x y] = N(x, y);  rota_baxter: [x] [y] = [M(x, y)].
    The replacement pattern (N or M) is an OPoly in generators x, y, possibly
    with symbolic coefficients constrained by ``constraints``.
    """

    __slots__ = ("kind", "pattern", "constraints", "name")

    def __init__(self, kind: str, pattern: OPoly, constraints=(), name: str = None):
        if kind not in (DIFFERENTIAL, ROTA_BAXTER):
            raise ValueError(f"unknown identity kind {kind!r}")
        self.kind = kind
        self.pattern = pattern
        self.constraints = tuple(constraints)
        self.name = name

    @property
    def ring(self):
        return self.pattern.ring

    def pattern_at(self, u: Word, v: Word) -> OPoly:
        """Just the replacement side N(u, v) (or M(u, v))."""
        return self.pattern.subst_generators({"x": u, "y": v})

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
