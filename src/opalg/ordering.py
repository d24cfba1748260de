"""Monomial comparison on bracketed words.

Two comparison modes share the same atom rule (degree first, generators below
brackets, generators by declared rank, brackets by recursive content
comparison):

* ``purelex`` — lexicographic on atom sequences, the unit and proper prefixes
  minimal.  This is the recursive order the rewriting system is stated with;
  the instance leading-word facts it needs (a bracketed product beats every
  product-bracket-free replacement) hold on words without unit brackets,
  because those comparisons are decided strictly at the first atom by degree.
  A unit bracket has degree 0 and breaks the argument, which therefore
  covers only words without unit brackets: at u = ``[1]``, dt2's
  replacement ``[v] [[1]]`` lies above its redex ``[[1] v]``.
  Independently of unit brackets, ``purelex`` is also *not* context
  monotone on prefix-comparable pairs (x < x x, yet x y > x x y), and not
  well-founded; the tests sample both defects, and the rewrite engine
  guards them operationally.

* ``deglenlex`` — total generator degree, then breadth, then the same
  lexicographic comparison.  Context monotone and unit minimal on all inputs
  (the lex step only ever compares equal-length sequences).

``_word_key`` is the one definition of both modes.  ``order_key`` returns a
key function whose tuples compare, under Python's tuple order, as the words
do, so ``sorted`` and ``max`` run their comparisons in C; ``compare``
decides one pair by comparing two such keys, and no library code calls it.
A generator atom's key is ``(1, 0, rank)``, a bracket's is
``(deg, 1, key(content))``; a ``purelex``
word key is the tuple of its atom keys and a ``deglenlex`` one is
``(deg, breadth, atom keys)``, with bracket contents keyed in the same mode.
Each key function memoises the keys it built in a dict that lives exactly as
long as the function: build one per library call, or read the job's
through its ``RewriteMemo`` (see ``words.job``), and drop it with the call
or the job.  A memo that outlived its call (on ``OrderConfig``, say) would
keep every word any caller ever sorted.
"""

from __future__ import annotations

import random

from .words import Word, sample_word

MODES = ("purelex", "deglenlex")


class OrderConfig:
    """Immutable comparison configuration: generator ranks plus mode."""

    __slots__ = ("rank", "mode", "gens")

    def __init__(self, gens, mode: str = "purelex"):
        if mode not in MODES:
            raise ValueError(f"unknown order mode {mode!r}")
        self.gens = gens
        self.rank = dict(gens.rank)
        self.mode = mode

    def __repr__(self):
        return f"OrderConfig({', '.join(self.rank)}; {self.mode})"


def compare(u: Word, v: Word, cfg: OrderConfig) -> int:
    """-1, 0 or 1 as ``u`` lies below, at or above ``v``: the comparison of
    their ``order_key`` keys."""
    key = order_key(cfg)
    ku, kv = key(u), key(v)
    return (ku > kv) - (ku < kv)


def order_key(cfg: OrderConfig):
    """A fresh key function on words: key(u) < key(v) iff u < v under ``cfg``.

    Keys are memoised for the lifetime of the returned function only.
    """
    graded = cfg.mode == "deglenlex"
    atom_keys = {g: (1, 0, r) for g, r in cfg.rank.items()}
    memo = {}

    def key(w: Word):
        k = memo.get(w)
        return k if k is not None else _word_key(w, memo, atom_keys, graded)

    return key


def _word_key(w: Word, memo: dict, atom_keys: dict, graded: bool):
    """The key of a word missing from ``memo``, stored there.  A module-level
    recursion: a recursive closure would make its memo cyclic garbage."""
    atoms = []
    for a in w.atoms:
        ak = atom_keys.get(a)
        if ak is None:
            inner = memo.get(a)
            if inner is None:
                inner = _word_key(a, memo, atom_keys, graded)
            ak = atom_keys[a] = (a.deg, 1, inner)
        atoms.append(ak)
    k = (w.deg, len(atoms), tuple(atoms)) if graded else tuple(atoms)
    memo[w] = k
    return k


# -- random contexts ---------------------------------------------------------------


def random_context(rng: random.Random, gens, max_leaves: int,
                   max_depth: int) -> tuple:
    """A random context, as a star path: sample a word, descend into one of
    its brackets with probability 1/2 per level, at most ``max_depth``
    levels, and cut the hole at a random position of the level reached."""
    atoms = sample_word(rng, gens, max_leaves, max_depth).atoms
    path = []
    for _ in range(max_depth):
        brackets = [i for i, a in enumerate(atoms) if isinstance(a, Word)]
        if not brackets or rng.random() >= 0.5:
            break
        i = rng.choice(brackets)
        path.append((atoms[:i], atoms[i + 1:]))
        atoms = atoms[i].atoms
    i = rng.randint(0, len(atoms))
    path.append((atoms[:i], atoms[i:]))
    return tuple(path)
