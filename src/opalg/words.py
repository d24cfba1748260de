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

Words are hash-consed: ``Word(atoms)`` returns the one live word of its
atom tuple, kept in a module table, so two words are equal exactly when they
are one object, and a word hashes by its identity.  The table never lets a
live word go: closing the outermost ``job`` scope prunes it of the words
nothing else holds (see ``job``), so a stream of small jobs shares its words
and a word a caller keeps stays the one word of its atom tuple.  A word's
hash comes from its address, so a set of words iterates in an order that may
differ between processes under one hash seed: the library only tests
membership in such a set, or sorts it.
A word's shape (its depth, ``deg``, ``leaves``, ``has_unit_bracket`` and the
two redex flags ``has_bracketed_product`` and ``has_adjacent_brackets``) is
fixed when it is built, from the shapes of its atoms, so reading it walks
nothing; shapes that depend on a rule schema are kept by
``rewrite.RewriteMemo``.  Building a word nested past ``MAX_DEPTH`` raises
``ResourceLimit(TOO_NESTED)``; each walk takes one frame a level, and
enumeration none a leaf or level.

A word with named holes is compiled by ``plan`` and filled by ``fill``
with one value per hole, each value spliced flat or, for a bracket that
holds the hole alone, put in as one atom.  This is the one way generators
are replaced: ``opoly.OpIdentity`` plans its pattern once and fills every
instance of it from there, and ``opoly.OPoly.subst_generators`` plans each
term in the mapping's names.
"""

from __future__ import annotations

import random
import sys
from contextlib import ContextDecorator

from .coeffs import MAX_DEPTH, TOO_NESTED, ParseError, ResourceLimit, Tokens

STAR = "⋆"      # a context's hole, when it is printed
RESERVED = frozenset({"1", STAR})

_TABLE: dict = {}  # atom tuple -> its one live Word (see ``job``)
_open_jobs = 0     # job scopes open, nested ones included
_kept = 0          # words the last prune kept
# words the table holds past a job before it is pruned, about 0.25 MiB at
# ~240 B a word
TABLE_BOUND = 1024


class job(ContextDecorator):
    """The scope of one job, which owns ``memos``, the job's one
    ``rewrite.RewriteMemo`` per schema, which
    ``rewrite.job_memo`` fills, and bounds the word table.  A scope opened
    inside another shares it.  Closing the outermost scope always empties
    ``memos``, and prunes the word table (``_prune``) when it holds more
    than ``TABLE_BOUND`` words and more than twice the words the last prune
    kept; nothing else empties either.  A prune drops only the words that
    nothing outside the table references, so a word a caller holds (a
    system's pattern, ``UNIT``, a returned residue) and its atoms stay the
    one word of their atom tuples, while the words a finished job alone
    built go; the doubling spares a caller that holds many words a rescan
    of them at every close.  Each entry point of the library is decorated
    with ``job()``, so a call made with no scope open leaves no memo when
    it returns, and the next small call starts with the earlier words
    interned; a caller that opens ``with job():`` around several calls
    keeps one memo per schema across them.  Words and memos
    made with no scope open wait in the table and the dict until the next
    outermost scope closes."""

    memos: dict = {}  # schema -> RewriteMemo of the open job

    def __enter__(self):
        global _open_jobs
        _open_jobs += 1

    def __exit__(self, *exc):
        global _open_jobs
        _open_jobs -= 1
        if not _open_jobs:
            job.memos.clear()
            if len(_TABLE) > max(TABLE_BOUND, 2 * _kept):
                _prune()


def _prune():
    """Drop from the word table every word that nothing else references.
    A word's bracket atoms are built, and entered, before the word, so a
    walk from the last word entered to the first frees a dropped word
    before it meets the word's atoms, and an atom only dropped words held
    is dropped too.  Reads CPython's reference counts: a word the walk's
    list alone holds has a count of 2, the list's and the argument's."""
    global _kept
    words = list(_TABLE.values())
    _TABLE.clear()
    for i in range(len(words) - 1, -1, -1):
        if sys.getrefcount(words[i]) == 2:
            words[i] = None
    _TABLE.update((w.atoms, w) for w in words if w is not None)
    _kept = len(_TABLE)


class Word:
    """An immutable bracketed word (sequence of atoms), the one live object
    of its atom tuple (see ``job``): equality and hashing are identity."""

    __slots__ = ("atoms", "_depth", "deg", "leaves",
                 "has_unit_bracket", "has_bracketed_product",
                 "has_adjacent_brackets")

    def __new__(cls, atoms: tuple = ()):
        w = _TABLE.get(atoms)
        if w is None:
            depth = deg = leaves = 0
            unit_bracket = product = adjacent = after_bracket = False
            for a in atoms:
                if isinstance(a, str):
                    deg += 1
                    leaves += 1
                    after_bracket = False
                else:
                    if a._depth >= depth:
                        depth = a._depth + 1
                    deg += a.deg
                    leaves += a.leaves or 1  # [1] is a leaf
                    unit_bracket = (unit_bracket or not a.atoms
                                    or a.has_unit_bracket)
                    product = (product or len(a.atoms) > 1
                               or a.has_bracketed_product)
                    adjacent = (adjacent or after_bracket
                                or a.has_adjacent_brackets)
                    after_bracket = True
            if depth > MAX_DEPTH:
                raise ResourceLimit(TOO_NESTED)
            w = _TABLE[atoms] = object.__new__(cls)
            w.atoms = atoms
            w._depth = depth
            # generator occurrences, with multiplicity
            w.deg = deg
            # generator occurrences plus innermost unit brackets: this
            # dominates the breadth of every nesting level, so bounding it
            # bounds breadth everywhere while keeping enumeration finite
            w.leaves = leaves
            # does some bracket, at any depth, hold the unit?
            w.has_unit_bracket = unit_bracket
            # the redex flags: does some bracket, at any depth, hold two or
            # more atoms (a sigma redex)?  do two brackets stand side by
            # side, at any level (a pi redex)?
            w.has_bracketed_product = product
            w.has_adjacent_brackets = adjacent
        return w

    def __reduce__(self):
        # copies and unpickled words go back through the table; the default
        # would call ``Word.__new__(Word)``, get the unit, and overwrite it
        return Word, (self.atoms,)

    # -- basic shape -------------------------------------------------------

    @property
    def is_unit(self) -> bool:
        return not self.atoms

    def depth(self) -> int:
        """Maximal bracket nesting."""
        return self._depth

    # -- monoid structure ----------------------------------------------------

    def __mul__(self, other: "Word") -> "Word":
        if not isinstance(other, Word):
            return NotImplemented
        if not self.atoms:
            return other
        if not other.atoms:
            return self
        return Word(self.atoms + other.atoms)

    def __repr__(self) -> str:
        return f"Word({to_str(self)!r})"

    def __str__(self) -> str:
        return to_str(self)


# the unit; this module holds it, so no prune drops it and ``Word(())`` is
# always ``UNIT``
UNIT = Word(())


def gen_word(name: str) -> Word:
    return Word((name,))


def bracket(w: Word) -> Word:
    """The word [w] of breadth one."""
    return Word((w,))


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
    out: list = []
    _str_into(w, out)
    return "".join(out)


def _str_into(w: Word, out: list) -> None:
    if not w.atoms:
        out.append("1")
    for i, a in enumerate(w.atoms):
        if i:
            out.append(" ")
        if isinstance(a, str):
            out.append(a)
        else:
            out.append("[")
            _str_into(a, out)
            out.append("]")


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


class UnbalancedBrackets(ParseError):
    pass


class UnknownGenerator(ParseError):
    pass


class EmptyBracketWithoutUnit(ParseError):
    pass


def parse(text: str, gens: GeneratorSet) -> Word:
    """Parse one word of the grammar ``parse_word`` reads; a text nested
    past ``MAX_DEPTH`` raises ``ResourceLimit(TOO_NESTED)``."""
    ts = Tokens(text)
    if not ts.toks:
        raise ParseError("empty input", 0)
    w = parse_word(ts, gens)
    _, tok, at = ts.peek()
    if tok == "]":
        raise UnbalancedBrackets("unmatched closing bracket", at)
    if tok is not None:
        raise ParseError(f"unexpected token {tok!r}", at)
    return w


# the tokens a word stops before; None is the end of the text
_WORD_END = (None, "]", "+", "-", ")")


def parse_word(ts: Tokens, gens: GeneratorSet) -> Word:
    """The word at the read position of ``ts``, read up to the first of
    ``]``, ``+``, ``-``, ``)`` or the end: ``word := "1" | atom ("*"? atom)*``,
    ``atom := IDENT | "[" word "]"``; ``*`` and whitespace both concatenate."""
    if ts.peek()[1] == "1":
        ts.take()
        return Word(())
    atoms = []
    while ts.peek()[0] not in _WORD_END:
        kind, tok, at = ts.take()
        if kind == "[":
            if ts.peek()[0] == "]":
                raise EmptyBracketWithoutUnit(
                    "empty bracket: write [1] for the bracket of the unit", at)
            atoms.append(parse_word(ts, gens))
            _, close, close_at = ts.take()
            if close is None:
                raise UnbalancedBrackets("missing closing bracket", at)
            if close != "]":
                raise ParseError(f"unexpected token {close!r}", close_at)
        elif kind == "ident":
            if tok not in gens:
                raise UnknownGenerator(f"unknown generator {tok!r}", at)
            atoms.append(tok)
        elif kind == "*":
            if not atoms or ts.peek()[0] in _WORD_END + ("*",):
                raise ParseError("misplaced concatenation symbol '*'", at)
        else:
            raise ParseError(f"unexpected token {tok!r}", at)
    return Word(tuple(atoms))


# -- star contexts, plans and towers -------------------------------------------


def plan(w: Word, names: tuple) -> tuple:
    """``w`` compiled for ``fill``, one part per atom: ``i`` where the
    generator ``names[i]`` stands, ``~i`` for the bracket ``[names[i]]``,
    the plan of any other bracket, and any other generator as it is."""
    parts = []
    for a in w.atoms:
        if isinstance(a, str):
            parts.append(names.index(a) if a in names else a)
        elif len(a.atoms) == 1 and a.atoms[0] in names:
            parts.append(~names.index(a.atoms[0]))
        else:
            parts.append(plan(a, names))
    return tuple(parts)


def fill(parts: tuple, values: tuple) -> tuple:
    """The atoms of the word ``parts`` was planned from, with the ``i``-th
    name replaced by the word ``values[i]``: spliced flat, or as one atom
    where the name stood bracketed alone."""
    atoms = ()
    for part in parts:
        if isinstance(part, int):
            atoms += values[part].atoms if part >= 0 else (values[~part],)
        elif isinstance(part, tuple):
            atoms += (Word(fill(part, values)),)
        else:
            atoms += (part,)
    return atoms


def splice(path: tuple, atoms: tuple) -> Word:
    """The word ``path`` leads through, with ``atoms`` spliced flat into the
    hole at its end; spliced empty, the hole is deleted."""
    for left, right in reversed(path):
        atoms = (Word(left + atoms + right),)
    return atoms[0]


def tower_heights(w: Word):
    """The (generator, height) of each atom of ``w`` read as a tower of
    single brackets, ``height`` brackets around one generator; None when
    some bracket of ``w`` holds other than one atom."""
    heights = []
    for a in w.atoms:
        h = 0
        while isinstance(a, Word):
            if len(a.atoms) != 1:
                return None
            h += 1
            a = a.atoms[0]
        heights.append((a, h))
    return heights


# -- enumeration and sampling ----------------------------------------------------


@job()
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
    pool = [[] for _ in range(max_leaves + 1)]
    if max_leaves < 1:
        return pool
    pool[1] = list(names)
    for _ in range(max_depth):  # one bracket level more each pass
        inner = pool
        pool = [[] for _ in range(max_leaves + 1)]
        pool[1] = list(names)
        if include_unit_brackets:
            pool[1].append(Word(()))  # the unit in atom position means [1]
        for w in _sequences(inner, max_leaves):
            pool[w.leaves].append(w)  # the word w in atom position means [w]
    return pool


def _sequences(atom_pool, max_leaves):
    """All nonempty atom sequences with total leaf count <= max_leaves, each
    followed at once by its extensions: a depth-first walk on a stack of
    (prefix, leaves left) pairs, a prefix's extensions pushed in reverse."""
    results = []
    stack = [((), max_leaves)]
    while stack:
        prefix, budget = stack.pop()
        if prefix:
            results.append(Word(prefix))
        for k in range(budget, 0, -1):
            for a in reversed(atom_pool[k]):
                stack.append((prefix + (a,), budget - k))
    return results


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
    return (w.leaves, w._depth, len(t), tuple(t))
