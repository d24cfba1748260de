"""Bracketed words: elements of the free operated monoid on a generator set.

A word is a finite sequence of atoms.  An atom is either a generator (kept as
its name string) or a bracket ``[w]`` whose content is again a word.  The empty
sequence is the unit 1.  ``[1]`` is an ordinary atom like any other and is
never simplified away.

An occurrence inside a word is placed by its *context*, a star path: one
``(left atoms, right atoms)`` pair per nesting level, outermost first, around
the bracket the occurrence descends into and, at the last level, around the
hole the occurrence fills.  ``splice`` rebuilds the word from a path and the
atoms put into its hole; putting in none deletes the hole.  ``STAR`` marks the
hole only where a context is printed.
"""

from __future__ import annotations

import random
from typing import Union

STAR = "⋆"      # a context's hole, when it is printed
RESERVED = frozenset({"1", STAR})

Atom = Union[str, "Word"]  # str: generator name; Word w in atom position: [w]


class Word:
    """An immutable bracketed word (sequence of atoms)."""

    __slots__ = ("atoms", "_hash", "_deg", "_leaves")

    def __init__(self, atoms: tuple = ()):
        self.atoms = atoms
        self._hash = hash(atoms)
        self._deg = -1
        self._leaves = -1

    # -- basic shape -------------------------------------------------------

    @property
    def breadth(self) -> int:
        return len(self.atoms)

    @property
    def is_unit(self) -> bool:
        return not self.atoms

    @property
    def deg(self) -> int:
        """Number of generator occurrences, with multiplicity."""
        if self._deg < 0:
            d = 0
            for a in self.atoms:
                d += 1 if isinstance(a, str) else a.deg
            self._deg = d
        return self._deg

    def depth(self) -> int:
        """Maximal bracket nesting."""
        d = 0
        for a in self.atoms:
            if isinstance(a, Word):
                d = max(d, 1 + a.depth())
        return d

    @property
    def leaves(self) -> int:
        """Generator occurrences plus innermost unit brackets.

        Dominates the breadth of every nesting level, so bounding it bounds
        breadth everywhere while keeping enumeration finite.
        """
        if self._leaves < 0:
            n = 0
            for a in self.atoms:
                if isinstance(a, str):
                    n += 1
                else:
                    n += 1 if a.is_unit else a.leaves
            self._leaves = n
        return self._leaves

    # -- monoid structure ----------------------------------------------------

    def __mul__(self, other: "Word") -> "Word":
        if not isinstance(other, Word):
            return NotImplemented
        if not self.atoms:
            return other
        if not other.atoms:
            return self
        return Word(self.atoms + other.atoms)

    def __eq__(self, other) -> bool:
        return isinstance(other, Word) and self._hash == other._hash and self.atoms == other.atoms

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return f"Word({to_str(self)!r})"

    def __str__(self) -> str:
        return to_str(self)


UNIT = Word(())


def gen_word(name: str) -> Word:
    return Word((name,))


def bracket(w: Word) -> Word:
    """The word [w] of breadth one."""
    return Word((w,))


def has_unit_bracket(w: Word) -> bool:
    """Does some bracket of ``w``, at any depth, hold the unit?"""
    return any(isinstance(a, Word) and (a.is_unit or has_unit_bracket(a))
               for a in w.atoms)


# -- generator sets ----------------------------------------------------------

import re as _re

_IDENT = _re.compile(r"[A-Za-z][A-Za-z0-9_]*\Z")


class GeneratorSet:
    """Ordered generator names; declaration order is the rank used by orders."""

    __slots__ = ("names", "rank")

    def __init__(self, names):
        names = tuple(names)
        seen = set()
        for n in names:
            if n in RESERVED:
                raise ValueError(f"generator name {n!r} is reserved")
            if not _IDENT.match(n):
                raise ValueError(f"invalid generator name {n!r}")
            if n in seen:
                raise ValueError(f"duplicate generator name {n!r}")
            seen.add(n)
        self.names = names
        self.rank = {n: i for i, n in enumerate(names)}

    def __contains__(self, name: str) -> bool:
        return name in self.rank

    def __iter__(self):
        return iter(self.names)

    def __len__(self):
        return len(self.names)

    def __repr__(self):
        return f"GeneratorSet({', '.join(self.names)})"


# -- printing and parsing ------------------------------------------------------


def to_str(w: Word) -> str:
    """Single-space-separated atom list; the unit prints as ``1``."""
    if w.is_unit:
        return "1"
    return " ".join(_atom_str(a) for a in w.atoms)


def _atom_str(a: Atom) -> str:
    if isinstance(a, str):
        return a
    return "[" + to_str(a) + "]"


def tokens(w: Word) -> list:
    """Flat token list: generator names and the two bracket symbols."""
    out: list = []
    _tokens_into(w, out)
    return out


def _tokens_into(w: Word, out: list) -> None:
    for a in w.atoms:
        if isinstance(a, str):
            out.append(a)
        else:
            out.append("[")
            _tokens_into(a, out)
            out.append("]")


class ParseError(ValueError):
    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class UnbalancedBrackets(ParseError):
    pass


class UnknownGenerator(ParseError):
    pass


class EmptyBracketWithoutUnit(ParseError):
    pass


_TOKEN = _re.compile(r"\s+|\*|\[|\]|1|[A-Za-z][A-Za-z0-9_]*|.")


def _lex(text: str):
    """Yield (kind, value, position); '*' and whitespace are concatenation."""
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
            raise ParseError(f"unexpected character {tok!r}", m.start())


def parse(text: str, gens: GeneratorSet) -> Word:
    """Parse the word grammar: ``word := "1" | atom+``, ``atom := IDENT | "[" word "]"``."""
    toks = list(_lex(text))
    if not toks:
        raise ParseError("empty input", 0)
    w, pos = _parse_word(toks, 0, gens)
    if pos < len(toks):
        kind, val, at = toks[pos]
        if kind == "]":
            raise UnbalancedBrackets("unmatched closing bracket", at)
        raise ParseError(f"unexpected token {val!r}", at)
    return w


def _parse_word(toks: list, pos: int, gens: GeneratorSet):
    """The word starting at ``toks[pos]`` and the position after it.  A
    module-level recursion: a recursive closure would leave a reference
    cycle per parse."""
    atoms = []
    saw_unit_alone = False
    pending_star = None
    while pos < len(toks):
        kind, val, at = toks[pos]
        if kind == "]":
            break
        if kind == "star":
            if not atoms or pending_star is not None or saw_unit_alone:
                raise ParseError("misplaced concatenation symbol '*'", at)
            pending_star = at
            pos += 1
            continue
        if kind == "unit":
            if atoms or saw_unit_alone:
                raise ParseError("the unit symbol 1 must stand alone in its word", at)
            pos += 1
            if pos < len(toks) and toks[pos][0] not in ("]",):
                raise ParseError("the unit symbol 1 must stand alone in its word", toks[pos][2])
            saw_unit_alone = True
            continue
        if kind == "ident":
            if val not in gens:
                raise UnknownGenerator(f"unknown generator {val!r}", at)
            atoms.append(val)
            pending_star = None
            pos += 1
            continue
        if kind == "[":
            open_at = at
            pos += 1
            if pos < len(toks) and toks[pos][0] == "]":
                raise EmptyBracketWithoutUnit(
                    "empty bracket: write [1] for the bracket of the unit", open_at)
            inner, pos = _parse_word(toks, pos, gens)
            if pos >= len(toks) or toks[pos][0] != "]":
                raise UnbalancedBrackets("missing closing bracket", open_at)
            pos += 1
            atoms.append(inner)
            pending_star = None
            continue
        raise ParseError(f"unexpected token {val!r}", at)
    if pending_star is not None:
        raise ParseError("dangling concatenation symbol '*'", pending_star)
    return Word(tuple(atoms)), pos


# -- star contexts and substitution --------------------------------------------


def replace_generators(w: Word, mapping: dict) -> Word:
    """``w`` with each generator named in ``mapping`` replaced by its word,
    spliced flat; a unit value deletes the generator."""
    return _replace(w, mapping)[0]


def _replace(w: Word, mapping: dict):
    """(the replaced word, whether ``w`` names a key of ``mapping``), in one
    pass; a subword naming none is kept as it is, and a lone generator
    becomes its value itself."""
    if len(w.atoms) == 1 and w.atoms[0] in mapping:
        return mapping[w.atoms[0]], True
    atoms = []
    hit = False
    for a in w.atoms:
        if isinstance(a, str):
            v = mapping.get(a)
            atoms.extend((a,) if v is None else v.atoms)
            hit = hit or v is not None
        else:
            a, inner = _replace(a, mapping)
            atoms.append(a)
            hit = hit or inner
    return (Word(tuple(atoms)) if hit else w), hit


def splice(path: tuple, atoms: tuple) -> Word:
    """The word ``path`` leads through, with ``atoms`` spliced flat into the
    hole at its end; spliced empty, the hole is deleted."""
    for left, right in reversed(path):
        atoms = (Word(left + atoms + right),)
    return atoms[0]


# -- enumeration and sampling ----------------------------------------------------


def enumerate_words(gens, max_leaves: int, max_depth: int,
                    include_unit_brackets: bool = True,
                    include_unit: bool = True) -> list:
    """All words with the given leaf and depth bounds, deterministically ordered."""
    names = tuple(gens.names if isinstance(gens, GeneratorSet) else gens)
    atom_pool = _atom_pool(names, max_leaves, max_depth, include_unit_brackets)
    out = [UNIT] if include_unit else []
    out.extend(_sequences(atom_pool, max_leaves))
    return out


def _atom_pool(names, max_leaves, max_depth, include_unit_brackets):
    """Atoms grouped by leaf count: pool[k] lists atoms with k leaves."""
    if max_depth <= 0 or max_leaves <= 0:
        pool = [[] for _ in range(max_leaves + 1)]
        if max_leaves >= 1:
            pool[1] = list(names)
        return pool
    inner = _atom_pool(names, max_leaves, max_depth - 1, include_unit_brackets)
    pool = [[] for _ in range(max_leaves + 1)]
    if max_leaves >= 1:
        pool[1] = list(names)
        if include_unit_brackets:
            pool[1].append(bracket(UNIT).atoms[0])  # the unit-content atom
    for w in _sequences(inner, max_leaves):
        pool[w.leaves].append(w)  # the word w in atom position means [w]
    return pool


def _sequences(atom_pool, max_leaves):
    """All nonempty atom sequences with total leaf count <= max_leaves."""
    results = []
    _extend_sequences((), max_leaves, atom_pool, results)
    return results


def _extend_sequences(prefix, budget, atom_pool, results) -> None:
    """Append ``prefix`` extended by every atom sequence of at most
    ``budget`` leaves to ``results``, depth-first."""
    for k in range(1, budget + 1):
        for a in atom_pool[k]:
            seq = prefix + (a,)
            results.append(Word(seq))
            _extend_sequences(seq, budget - k, atom_pool, results)


def sample_word(rng: random.Random, gens, max_leaves: int, max_depth: int) -> Word:
    """One random word other than the unit within the bounds, unit brackets
    included (not uniform; biased toward small)."""
    names = tuple(gens.names if isinstance(gens, GeneratorSet) else gens)
    w = _sample_build(rng, names, max_depth, max_leaves, False)
    if w.is_unit:
        return gen_word(rng.choice(names))
    return w


# sample_word's two mutually recursive steps, at module level so that a call
# leaves no reference cycle between closures

def _sample_atom(rng, names, depth_left, budget):
    if depth_left > 0 and rng.random() < 0.35:
        return _sample_build(rng, names, depth_left - 1, budget, True)
    return rng.choice(names)


def _sample_build(rng, names, depth_left, budget, allow_empty):
    lo = 0 if allow_empty else 1
    n = rng.randint(lo, max(lo, budget))
    atoms = []
    left = budget
    for _ in range(n):
        if left <= 0:
            break
        a = _sample_atom(rng, names, depth_left, left)
        atoms.append(a)
        left -= 1 if isinstance(a, str) else max(1, a.leaves)
    return Word(tuple(atoms))


def word_sort_key(w: Word):
    """Deterministic non-semantic key for stable listings."""
    t = tokens(w)
    return (w.leaves, w.depth(), len(t), tuple(t))
