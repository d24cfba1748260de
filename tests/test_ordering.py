"""Word-comparison tests: hand-checked pairs, law checking, sorting.

The library defines both orders once, by ``order_key``; ``reference_compare``
is the recursive definition they were first stated by, kept here as the
oracle that does not depend on the keys."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from opalg.catalog import FAMILIES
from opalg.ordering import OrderConfig, compare, order_key, random_context
from opalg.words import (GeneratorSet, STAR, UNIT, Word, enumerate_words, parse,
                         sample_word, splice, to_str)
from oracles import EQUAL, GREATER, LESS, check_monomial_order

XY = GeneratorSet(("x", "y"))
PURE = OrderConfig(XY, "purelex")
DLL = OrderConfig(XY, "deglenlex")


def w(text):
    return parse(text, XY)


def reference_compare(u, v, cfg):
    """Three-way comparison by recursion on atoms, with an early exit."""
    if u == v:
        return EQUAL
    if cfg.mode == "deglenlex":
        if u.deg != v.deg:
            return GREATER if u.deg > v.deg else LESS
        if len(u.atoms) != len(v.atoms):
            return GREATER if len(u.atoms) > len(v.atoms) else LESS
    for a, b in zip(u.atoms, v.atoms):
        c = _reference_compare_atoms(a, b, cfg)
        if c != EQUAL:
            return c
    if len(u.atoms) == len(v.atoms):
        return EQUAL
    # a proper prefix is smaller
    return GREATER if len(u.atoms) > len(v.atoms) else LESS


def _reference_compare_atoms(a, b, cfg):
    """Degree first, generators below brackets, generators by rank,
    brackets by their contents."""
    a_is_gen, b_is_gen = isinstance(a, str), isinstance(b, str)
    da = 1 if a_is_gen else a.deg
    db = 1 if b_is_gen else b.deg
    if da != db:
        return GREATER if da > db else LESS
    if a_is_gen and b_is_gen:
        ra, rb = cfg.rank[a], cfg.rank[b]
        return EQUAL if ra == rb else (GREATER if ra > rb else LESS)
    if a_is_gen != b_is_gen:
        return LESS if a_is_gen else GREATER
    return reference_compare(a, b, cfg)


def test_mode_validation():
    with pytest.raises(ValueError):
        OrderConfig(XY, "shortlex")


@pytest.mark.parametrize("a, b, expect", [
    ("1", "x", LESS),                 # unit below everything
    ("x", "[1]", GREATER),            # generator outranks the degree-0 bracket
    ("[x y]", "x [y]", GREATER),      # bracketed product beats split product
    ("x", "y", LESS),                 # declaration order ranks generators
    ("x", "[x]", LESS),               # equal degree: generator below bracket
    ("x", "x x", LESS),               # proper prefix is smaller
    ("[[x y]]", "[x y [1]]", GREATER),
    ("[x] y", "[x y]", LESS),
    ("[1]", "[1] [1]", LESS),
    ("x y", "y x", LESS),
    # the pinned counterexample to the leading-word argument: with u = [1]
    # the dt2 replacement monomial [v] [u] lies above the product [u v]
    ("[y] [[1]]", "[[1] y]", GREATER),
])
def test_purelex_pairs(a, b, expect):
    for cmp in (reference_compare, compare):
        assert cmp(w(a), w(b), PURE) == expect
        assert cmp(w(b), w(a), PURE) == -expect


@pytest.mark.parametrize("a, b, expect", [
    ("1", "x", LESS),
    ("x", "[1]", GREATER),            # degree decides before breadth
    ("x", "x x", LESS),
    ("[x y]", "x [y]", LESS),         # equal degree: fewer atoms is smaller
    ("x [y]", "[x] y", LESS),         # ties on degree and breadth; first atom is
                                      # a generator vs a bracket, so lex decides
    ("[1] [1]", "x", LESS),
])
def test_deglenlex_pairs(a, b, expect):
    for cmp in (reference_compare, compare):
        assert cmp(w(a), w(b), DLL) == expect
        assert cmp(w(b), w(a), DLL) == -expect


# atoms are generators or brackets; a bracket is a Word in atom position, so an
# empty one is the unit bracket [1]
_ATOMS = st.recursive(st.sampled_from(("x", "y")),
                      lambda inner: st.lists(inner, max_size=3).map(
                          lambda atoms: Word(tuple(atoms))),
                      max_leaves=8)
_WORDS = st.lists(_ATOMS, max_size=4).map(lambda atoms: Word(tuple(atoms)))


@pytest.mark.parametrize("cfg", [PURE, DLL], ids=["purelex", "deglenlex"])
@settings(max_examples=300, deadline=None)
@given(u=_WORDS, v=_WORDS)
def test_order_key_agrees_with_compare(cfg, u, v):
    key = order_key(cfg)
    ku, kv = key(u), key(v)
    assert (ku > kv) - (ku < kv) == reference_compare(u, v, cfg)
    assert compare(u, v, cfg) == reference_compare(u, v, cfg)


def test_deglenlex_key_grades_bracket_contents():
    # the top levels tie on degree and breadth, so the bracket contents
    # decide: y x has more atoms than [x y], yet its first atom has the lower
    # degree, so a key grading only the top level would rank it lower
    u, v = w("[y x]"), w("[[x y]]")
    assert compare(u, v, DLL) == GREATER
    assert compare(u, v, PURE) == LESS
    key = order_key(DLL)
    assert key(u) > key(v)


def test_equal_words_compare_equal():
    assert compare(w("[x [1] y]"), w("[x [1] y]"), PURE) == EQUAL
    assert compare(UNIT, w("1"), DLL) == EQUAL


@pytest.mark.parametrize("cfg", [PURE, DLL], ids=["purelex", "deglenlex"])
def test_total_order_on_bounded_words(cfg):
    words = enumerate_words(XY, max_leaves=3, max_depth=2,
                            include_unit_brackets=True, include_unit=True)
    ranked = sorted(words, key=order_key(cfg))
    assert len(ranked) == len(words)
    for a, b in zip(ranked, ranked[1:]):
        assert reference_compare(a, b, cfg) == LESS, (to_str(a), to_str(b))
    # spot-check transitivity against sorted position
    rng = random.Random(7)
    for _ in range(300):
        i, j = sorted(rng.sample(range(len(ranked)), 2))
        assert reference_compare(ranked[i], ranked[j], cfg) == LESS


def test_order_key_sort_deterministic_and_reverse():
    words = enumerate_words(XY, max_leaves=2, max_depth=1, include_unit=True)
    shuffled = list(words)
    random.Random(3).shuffle(shuffled)
    key = order_key(PURE)
    assert sorted(shuffled, key=key) == sorted(words, key=key)
    assert sorted(words, key=key, reverse=True) == sorted(words, key=key)[::-1]


def test_max_word():
    pool = [w("x y"), w("[x y]"), w("[x] [y]"), w("y")]
    assert max(pool, key=order_key(PURE)) == w("[x y]")
    assert max(pool, key=order_key(DLL)) == w("[x] [y]")


def test_deglenlex_laws_hold_on_samples():
    report = check_monomial_order(DLL, sample_budget=2500,
                                  rng=random.Random(11), max_leaves=4, max_depth=3)
    assert report.checked == 2500
    assert report.ok, report.summary()


def test_purelex_context_monotonicity_fails_on_prefixes():
    # the documented defect: x < x x, yet appending y reverses the comparison
    u, v, q = w("x"), w("x x"), (((), ("y",)),)  # ⋆ y
    assert compare(u, v, PURE) == LESS
    assert compare(splice(q, u.atoms), splice(q, v.atoms), PURE) == GREATER
    # and the law checker reports it rather than hiding it
    report = check_monomial_order(PURE, sample_budget=4000,
                                  rng=random.Random(5), max_leaves=4, max_depth=3)
    assert not report.ok
    assert report.monotonicity_violations
    assert not report.unit_violations
    assert not report.totality_failures


@pytest.mark.parametrize("mode", ["purelex", "deglenlex"])
def test_unit_bracket_argument_lifts_a_replacement_above_its_redex(mode):
    # a known gap, pinned as it stands: the leading-word argument covers
    # only arguments without unit brackets.  dt2 at c = 1, e = 0 is
    # [x y] -> [y] [x]; at u = [1] its replacement [v] [[1]] lies above the
    # redex [u v] = [[1] v] in both orders
    ident = FAMILIES["dt2"].specialize({"c": Fraction(1), "e": Fraction(0)})
    u, v = Word((UNIT,)), Word(("v",))
    replacement = ident.pattern_at(u, v)
    redex = Word((u * v,))
    assert [to_str(m) for m in replacement.terms] == ["[v] [[1]]"]
    assert to_str(redex) == "[[1] v]"
    order = OrderConfig(GeneratorSet(("v",)), mode)
    assert all(compare(m, redex, order) == GREATER for m in replacement.terms)


def test_report_summary_mentions_counts():
    report = check_monomial_order(DLL, sample_budget=50, rng=random.Random(0))
    text = report.summary()
    assert "50" in text


def _insert_star(w, rng, depth_left):
    """The star-word context ``random_context`` draws, built as a word: the
    construction it replaced, kept as the reference."""
    brackets = [i for i, a in enumerate(w.atoms) if isinstance(a, Word)]
    if brackets and depth_left > 0 and rng.random() < 0.5:
        i = rng.choice(brackets)
        inner = _insert_star(w.atoms[i], rng, depth_left - 1)
        return Word(w.atoms[:i] + (inner,) + w.atoms[i + 1:])
    i = rng.randint(0, len(w.atoms))
    return Word(w.atoms[:i] + (STAR,) + w.atoms[i:])


@settings(max_examples=200, deadline=None)
@given(st.integers(min_value=0, max_value=2**31 - 1))
def test_random_context_matches_star_insertion(seed):
    # the same context from the same random calls, so that every seeded
    # sample drawn after it stays the same too
    for leaves, depth in ((4, 3), (3, 1), (2, 0)):
        rng, ref = random.Random(seed), random.Random(seed)
        path = random_context(rng, XY, leaves, depth)
        want = _insert_star(sample_word(ref, XY, leaves, depth), ref, depth)
        assert splice(path, (STAR,)) == want
        assert rng.getstate() == ref.getstate()
