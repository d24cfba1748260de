"""The token-stream parsers against the three parsers they replaced.

The reference parsers below are the regex-lexed parsers of words,
coefficients and operated polynomials that ``words.parse``,
``PolyRing.parse`` and ``parse_opoly`` replaced, kept as they were apart
from their error classes.  On seeded random texts, every text a reference
accepts must give an equal result with its terms in the same order, and
every text it rejects must raise a ``ParseError`` (a ``PolyParseError`` for
coefficients).  The operated-polynomial grammar differs on purpose in three
ways, and on the texts they touch the parser is checked against the
reference with ``lifted=True``, which makes exactly those three changes:

- a parenthesized coefficient expression may nest to any depth and is read
  by the coefficient grammar: the reference sent a group nested three deep
  through the polynomial grammar, which rejects ``(((a))) x``;
- a numeric group needs no ring: ``(1/2) x y``;
- ``n / d`` may have whitespace around ``/``: ``1 / 2 x``.

A zero denominator, which the references let through as a
``ZeroDivisionError`` or a plain ``ValueError``, is a rejection like any
other, so it needs no exception.
"""

import random
import re
from fractions import Fraction

import pytest

from opalg.coeffs import ParseError, PolyParseError, PolyRing, \
    _add_scaled_into
from opalg.opoly import OPoly, XY, parse_opoly
from opalg.words import UNIT, Word, parse


class Rejected(Exception):
    def __init__(self, message, position):
        super().__init__(f"{message} (at position {position})")


# -- the reference word parser ---------------------------------------------------

_IDENT = re.compile(r"[A-Za-z][A-Za-z0-9_]*\Z")
_TOKEN = re.compile(r"\s+|\*|\[|\]|1|[A-Za-z][A-Za-z0-9_]*|.")


def _lex(text):
    for m in _TOKEN.finditer(text):
        tok = m.group()
        if tok.isspace():
            continue
        if tok == "*":
            yield "star", tok, m.start()
        elif tok == "[" or tok == "]":
            yield tok, tok, m.start()
        elif tok == "1":
            yield "unit", tok, m.start()
        elif _IDENT.match(tok):
            yield "ident", tok, m.start()
        else:
            raise Rejected(f"unexpected character {tok!r}", m.start())


def ref_word(text, gens):
    toks = list(_lex(text))
    if not toks:
        raise Rejected("empty input", 0)
    w, pos = _ref_word(toks, 0, gens)
    if pos < len(toks):
        raise Rejected("trailing token", toks[pos][2])
    return w


def _ref_word(toks, pos, gens):
    atoms = []
    saw_unit_alone = False
    pending_star = None
    while pos < len(toks):
        kind, val, at = toks[pos]
        if kind == "]":
            break
        if kind == "star":
            if not atoms or pending_star is not None or saw_unit_alone:
                raise Rejected("misplaced concatenation symbol '*'", at)
            pending_star = at
            pos += 1
            continue
        if kind == "unit":
            if atoms or saw_unit_alone:
                raise Rejected("the unit symbol 1 must stand alone", at)
            pos += 1
            if pos < len(toks) and toks[pos][0] not in ("]",):
                raise Rejected("the unit symbol 1 must stand alone",
                               toks[pos][2])
            saw_unit_alone = True
            continue
        if kind == "ident":
            if val not in gens:
                raise Rejected(f"unknown generator {val!r}", at)
            atoms.append(val)
            pending_star = None
            pos += 1
            continue
        if kind == "[":
            open_at = at
            pos += 1
            if pos < len(toks) and toks[pos][0] == "]":
                raise Rejected("empty bracket", open_at)
            inner, pos = _ref_word(toks, pos, gens)
            if pos >= len(toks) or toks[pos][0] != "]":
                raise Rejected("missing closing bracket", open_at)
            pos += 1
            atoms.append(inner)
            pending_star = None
            continue
        raise Rejected(f"unexpected token {val!r}", at)
    if pending_star is not None:
        raise Rejected("dangling concatenation symbol '*'", pending_star)
    return Word(tuple(atoms)), pos


# -- the reference coefficient parser ----------------------------------------------

_POLY_TOKEN = re.compile(r"\s+|\d+|[A-Za-z][A-Za-z0-9_]*|\^|\*|/|\+|-|\(|\)|.")


class _PolyTokens:
    def __init__(self, text, ring):
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


def ref_poly(text, ring):
    ts = _PolyTokens(text, ring)
    if not ts.toks:
        raise Rejected("empty input", 0)
    p = _ref_sum(ts)
    if ts.pos < len(ts.toks):
        t, at = ts.toks[ts.pos]
        raise Rejected(f"unexpected token {t!r}", at)
    return p


def _ref_sum(ts):
    t = ts.peek()
    sign = 1
    while t in ("+", "-"):
        ts.take()
        if t == "-":
            sign = -sign
        t = ts.peek()
    p = _ref_product(ts) * sign
    while ts.peek() in ("+", "-"):
        op, _ = ts.take()
        q = _ref_product(ts)
        p = p + q if op == "+" else p - q
    return p


def _ref_product(ts):
    p = _ref_power(ts)
    while True:
        t = ts.peek()
        if t in ("*", "/"):
            ts.take()
            q = _ref_power(ts)
            p = p * q if t == "*" else p / q
        elif t is not None and (t[0].isalnum() or t == "("):
            p = p * _ref_power(ts)
        else:
            return p


def _ref_power(ts):
    p = _ref_atomic(ts)
    if ts.peek() == "^":
        ts.take()
        t, at = ts.take() if ts.pos < len(ts.toks) else (None, len(ts.text))
        if t is None or not t.isdigit():
            raise Rejected("expected integer exponent", at)
        p = p ** int(t)
    return p


def _ref_atomic(ts):
    if ts.pos >= len(ts.toks):
        raise Rejected("unexpected end of input", len(ts.text))
    t, at = ts.take()
    if t == "(":
        p = _ref_sum(ts)
        if ts.peek() != ")":
            raise Rejected("missing closing parenthesis", at)
        ts.take()
        return p
    if t.isdigit():
        return ts.ring.const(int(t))
    if re.match(r"[A-Za-z]", t):
        if t not in ts.ring.index:
            raise Rejected(f"unknown variable {t!r}", at)
        return ts.ring.var(t)
    if t == "-":
        return -_ref_atomic(ts)
    raise Rejected(f"unexpected token {t!r}", at)


# -- the reference operated-polynomial parser ------------------------------------------

_NUM = re.compile(r"\d+(/\d+)?\Z")
_FACTOR = re.compile(
    r"\s*(\((?:[^()]|\([^()]*\))*\)|\d+(?:/\d+)?|[A-Za-z][A-Za-z0-9_]*)\s*(\*?)")
_LIFTED_FACTOR = re.compile(r"\s*(\d+(?:/\d+)?|[A-Za-z][A-Za-z0-9_]*)\s*(\*?)")
_STAR = re.compile(r"\s*(\*?)")
_NO_VARS = PolyRing(())


def ref_opoly(text, gens, ring=None, lifted=False):
    """The reference; ``lifted`` makes the three listed changes."""
    if lifted:
        text = re.sub(r"\s*/\s*", "/", text)
    chunks = _split_terms(text)
    if not chunks:
        raise Rejected("empty polynomial", 0)
    total = {}
    for sign, chunk, at in chunks:
        coeff, word_text, word_at = _split_coeff(chunk, at, gens, ring, lifted)
        stripped = word_text.strip()
        if stripped.startswith("("):
            inner, after = _take_paren_group(stripped, word_at)
            if after.strip():
                raise Rejected("unexpected text after parenthesized sum", 0)
            sub = ref_opoly(inner, gens, ring, lifted)
            _add_scaled_into(total, sub.terms, coeff * sign)
            continue
        if stripped:
            w = ref_word(word_text, gens)
        else:
            w = UNIT
        _add_scaled_into(total, {w: coeff}, sign)
    return OPoly._trusted(total, ring)


def _take_paren_group(text, at):
    depth = 0
    for i, ch in enumerate(text):
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
            if depth == 0:
                return text[1:i], text[i + 1:]
    raise Rejected("unbalanced parenthesis", at)


def _group_mentions_words(tok, gens):
    if "[" in tok:
        return True
    return any(name in gens for name in re.findall(r"[A-Za-z][A-Za-z0-9_]*",
                                                   tok))


def _split_terms(text):
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
                raise Rejected("unbalanced bracket or parenthesis", i)
        if depth == 0 and ch in "+-" and start is None:
            if chunks or lead_sign_used:
                raise Rejected("misplaced sign", i)
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
        raise Rejected("unbalanced bracket or parenthesis", len(text))
    if start is not None:
        chunks.append((sign, text[start:], start))
    elif chunks or lead_sign_used or not text.strip():
        if not text.strip():
            raise Rejected("empty polynomial", 0)
        raise Rejected("dangling sign", len(text) - 1)
    return chunks


def _match_factor(chunk, pos, lifted):
    """(factor text, end of the match): the reference's ``_FACTOR``; lifted,
    a parenthesized group of any depth."""
    if not lifted:
        m = _FACTOR.match(chunk, pos)
        return (m.group(1), m.end()) if m else (None, pos)
    start = len(chunk) - len(chunk[pos:].lstrip())
    if not chunk.startswith("(", start):
        m = _LIFTED_FACTOR.match(chunk, pos)
        return (m.group(1), m.end()) if m else (None, pos)
    try:
        inner, _ = _take_paren_group(chunk[start:], 0)
    except Rejected:
        return None, pos
    end = start + len(inner) + 2
    return chunk[start:end], _STAR.match(chunk, end).end()


def _split_coeff(chunk, at, gens, ring, lifted):
    coeff = Fraction(1) if ring is None else ring.one()
    pos = 0
    while pos < len(chunk):
        tok, end = _match_factor(chunk, pos, lifted)
        if tok is None:
            break
        if tok.startswith("("):
            if _group_mentions_words(tok, gens):
                break
            if ring is None:
                if not lifted or re.search(r"[A-Za-z]", tok):
                    raise Rejected("symbolic coefficient without a ring", 0)
                coeff = coeff * ref_poly(tok[1:-1], _NO_VARS).constant_value()
            else:
                coeff = coeff * ref_poly(tok[1:-1], ring)
        elif _NUM.match(tok):
            coeff = coeff * Fraction(tok)
        elif tok not in gens and tok != "1":
            if ring is None or tok not in ring.index:
                raise Rejected(f"unknown identifier {tok!r}", 0)
            coeff = coeff * ring.var(tok)
        else:
            break
        pos = end
    return coeff, chunk[pos:], at + pos


def _groups(text):
    """The balanced parenthesized groups of ``text``, in closing order."""
    out, opens = [], []
    for i, ch in enumerate(text):
        if ch == "(":
            opens.append(i)
        elif ch == ")" and opens:
            out.append(text[opens.pop():i + 1])
    return out


def _listed_difference(text, ring):
    """Whether ``text`` has one of the three listed differences."""
    if re.search(r"\s/|/\s", text):
        return True
    for g in _groups(text):
        if _group_mentions_words(g, XY):
            continue
        if ring is None and not re.search(r"[A-Za-z]", g):
            return True
        depth = deepest = 0
        for ch in g:
            depth += (ch == "(") - (ch == ")")
            deepest = max(deepest, depth)
        if deepest >= 3:
            return True
    return False


# -- random texts ------------------------------------------------------------------------

ALPHABET = ("x", "y", "a", "b", "z", "0", "1", "2", "1/2", "[", "]", "(", ")",
            "+", "-", "*", "/", "^", "_", "$")


def _word(rng, depth):
    out = []
    for i in range(rng.randint(1, 3)):
        if i and rng.random() < 0.2:
            out.append("*")
        if depth and rng.random() < 0.35:
            inner = _word(rng, depth - 1) if rng.random() < 0.8 else ["1"]
            out += ["[", *inner, "]"]
        else:
            out.append(rng.choice("xy"))
    return out


def _coefficient(rng, depth):
    out = []
    for i in range(rng.randint(1, 3)):
        if i or rng.random() < 0.2:
            out.append(rng.choice("+-"))
        for j in range(rng.randint(1, 2)):
            if j:
                out += rng.choice((["*"], ["/"], []))
            if rng.random() < 0.15:
                out.append("-")
            if depth and rng.random() < 0.3:
                out += ["(", *_coefficient(rng, depth - 1), ")"]
            else:
                out.append(rng.choice(("a", "b", "0", "1", "2", "1/2")))
            if rng.random() < 0.15:
                out += ["^", "2"]
    return out


def _term(rng, depth):
    out = []
    for _ in range(rng.choice((0, 0, 1, 2))):
        if depth and rng.random() < 0.3:
            out += ["(", *_coefficient(rng, depth - 1), ")"]
        else:
            out += rng.choice((["2"], ["1/2"], ["a"], ["b"], ["0"], ["1"],
                               ["2", "/", "1"]))
        if rng.random() < 0.3:
            out.append("*")
    r = rng.random()
    if depth and r < 0.25:
        out += ["(", *_sum(rng, depth - 1), ")"]
    elif r < 0.85:
        out += _word(rng, 2)
    return out or ["1"]


def _sum(rng, depth):
    out = []
    for i in range(rng.randint(1, 3)):
        if i or rng.random() < 0.2:
            out.append(rng.choice("+-"))
        out += _term(rng, depth)
    return out


def random_text(rng):
    """A text over ``ALPHABET`` and spaces: uniform tokens, or a word, a
    coefficient or an operated polynomial, with up to two tokens inserted,
    deleted or replaced."""
    make = rng.choice((None, _word, _coefficient, _sum, _sum))
    if make is None:
        toks = [rng.choice(ALPHABET) for _ in range(rng.randint(0, 10))]
    else:
        toks = make(rng, rng.randint(1, 4))
        for _ in range(rng.choice((0, 0, 1, 2))):
            i = rng.randrange(len(toks) + 1)
            edit = rng.choice(("insert", "delete", "replace"))
            if edit != "insert":
                del toks[i:i + 1]
            if edit != "delete":
                toks.insert(i, rng.choice(ALPHABET))
    out = ""
    for t in toks:
        out += rng.choice(("", " ", " ", " ")) + t
    return out


# -- the comparison ----------------------------------------------------------------------

AB = PolyRing(("a", "b"))


def _summary(p):
    """A word, or a polynomial's ring and its terms in order."""
    return p if isinstance(p, Word) else (getattr(p, "ring", None),
                                          list(p.terms.items()))


def _result(ref_fn, text, *args):
    """The summary of what ``ref_fn`` reads, None if it rejects ``text``."""
    try:
        return _summary(ref_fn(text, *args))
    except Exception:
        return None


def _check(text, parse_fn, ref_fn, error, *args):
    """Whether the reference accepts ``text``; if it does, the parse gives
    equal terms in equal order, else it raises ``error``."""
    expected = _result(ref_fn, text, *args)
    if expected is None:
        with pytest.raises(error):
            parse_fn(text, *args)
    else:
        assert _summary(parse_fn(text, *args)) == expected, text
    return expected is not None


def _ring_parse(text, ring):
    return ring.parse(text)


def _lifted(text, gens, ring):
    return ref_opoly(text, gens, ring, lifted=True)


def test_parsers_match_references():
    rng = random.Random(16)
    accepted = {"word": 0, "poly": 0, "opoly": 0, "opoly_ring": 0}
    differs = 0
    for _ in range(6000):
        text = random_text(rng)
        accepted["word"] += _check(text, parse, ref_word, ParseError, XY)
        accepted["poly"] += _check(text, _ring_parse, ref_poly,
                                   PolyParseError, AB)
        for ring, key in ((None, "opoly"), (AB, "opoly_ring")):
            ref = _lifted if _listed_difference(text, ring) else ref_opoly
            accepted[key] += _check(text, parse_opoly, ref, ParseError, XY,
                                    ring)
            differs += ref is _lifted and (_result(ref, text, XY, ring)
                                           != _result(ref_opoly, text, XY, ring))
    # enough of each kind is accepted for the comparison to mean something,
    # and the listed differences occur
    assert min(accepted.values()) >= 400, accepted
    assert differs >= 20, differs


@pytest.mark.parametrize("text, ring, expected", [
    ("(((a))) x", AB, "a*x"),
    ("((((a - b))) 2) [x]", AB, "(2*a - 2*b)*[x]"),
    ("(1/2) x y", None, "1/2*x y"),
    ("(1) x", None, "x"),
    ("(2 - 3)*(x - y)", None, "-x + y"),
    ("1 / 2 x", None, "1/2*x"),
])
def test_listed_differences_read_as_the_lifted_reference(text, ring, expected):
    assert _listed_difference(text, ring)
    with pytest.raises(Rejected):
        ref_opoly(text, XY, ring)
    got = parse_opoly(text, XY, ring)
    assert got == ref_opoly(text, XY, ring, lifted=True)
    assert got == ref_opoly(expected, XY, ring)


def test_deep_coefficient_group_reads_by_the_coefficient_grammar():
    # a star before a sign inside a group nested three deep: the reference
    # read the group by the polynomial grammar, as a*1 - b*c
    text = "(a*-b((b)))"
    assert ref_opoly(text, XY, AB) == ref_opoly("(a - b^2)", XY, AB)
    assert parse_opoly(text, XY, AB) == ref_opoly("(-a*b^2)", XY, AB) \
        == parse_opoly("(a*-b(b))", XY, AB)


@pytest.mark.parametrize("text, parse_fn", [
    ("3/0 x", lambda t: parse_opoly(t, XY)),
    ("(1/0) x", lambda t: parse_opoly(t, XY)),
    ("(a/0) x", lambda t: parse_opoly(t, XY, AB)),
    ("a/b", AB.parse),
    ("1/(a - a)", AB.parse),
])
def test_zero_and_symbolic_denominators_are_parse_errors(text, parse_fn):
    with pytest.raises(ParseError):
        parse_fn(text)
