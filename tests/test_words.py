import copy
import pickle
import random
import re
import sys

import pytest
from hypothesis import example, given, settings, strategies as st

import opalg.words
from opalg.catalog import FAMILIES, named_pattern, pattern_names
from opalg.classify import build_ansatz
from opalg.coeffs import PolyRing, ResourceLimit, _add_scaled_into
from opalg.gsb import D_TOO_DEEP, delta_view, free_dt_operator_nf
from opalg.opoly import (DIFFERENTIAL, ROTA_BAXTER, XY, OPoly, OpIdentity,
                         parse_opoly)
from opalg.ordering import OrderConfig, order_key, random_context
from opalg.rewrite import (NotDRF, Redex, RuleSchema, _first_redex,
                           find_redexes, job_memo, normal_form,
                           reduces_to_zero)
from opalg.words import (
    MAX_DEPTH,
    STAR,
    TABLE_BOUND,
    TOO_NESTED,
    UNIT,
    EmptyBracketWithoutUnit,
    GeneratorSet,
    ParseError,
    UnbalancedBrackets,
    UnknownGenerator,
    Word,
    bracket,
    enumerate_words,
    fill,
    gen_word,
    parse,
    job,
    plan,
    sample_word,
    splice,
    to_str,
    tokens,
    tower_heights,
    word_sort_key,
)

# two more hole symbols, filled through ``reference_replace_generators``
STAR1 = STAR + "1"
STAR2 = STAR + "2"


# -- the reference substitution -----------------------------------------------------

def reference_replace_generators(w: Word, mapping: dict) -> Word:
    """``w`` with each generator named in ``mapping`` replaced by its word,
    spliced flat; a unit value deletes the generator.  The generic walk,
    independent of ``plan`` and ``fill``, and the oracle of both and of
    ``splice``."""
    return _reference_replace(w, mapping)[0]


def _reference_replace(w: Word, mapping: dict):
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
            a, inner = _reference_replace(a, mapping)
            atoms.append(a)
            hit = hit or inner
    return (Word(tuple(atoms)) if hit else w), hit


def reference_subst(p: OPoly, mapping: dict) -> list:
    """The terms of ``p`` with its generators replaced by the reference walk,
    colliding images added up, in term order."""
    out: dict = {}
    for w, c in p.terms.items():
        _add_scaled_into(out, {reference_replace_generators(w, mapping): c})
    return list(out.items())


def word_of(*atoms):
    return Word(tuple(atoms))


G = GeneratorSet(["x", "y", "z"])
x, y, z = gen_word("x"), gen_word("y"), gen_word("z")


# -- construction and shape ----------------------------------------------------

def test_unit_and_products():
    assert UNIT * x == x == x * UNIT
    assert (x * y) * z == x * (y * z)
    assert (x * y).atoms == ("x", "y")


def test_unit_bracket_is_not_simplified():
    b1 = bracket(UNIT)
    assert b1 != UNIT
    assert len(b1.atoms) == 1
    assert to_str(b1) == "[1]"
    assert to_str(bracket(b1)) == "[[1]]"


def test_shape_statistics():
    w = parse("[x [1]] y [x y [z]]", G)
    assert len(w.atoms) == 3
    assert w.depth() == 2
    assert w.deg == 5
    # leaves: x, [1], y, x, y, z
    assert w.leaves == 6
    assert UNIT.deg == 0 and UNIT.depth() == 0 and UNIT.leaves == 0
    assert bracket(UNIT).deg == 0
    assert bracket(UNIT).leaves == 1


# -- parsing and printing -------------------------------------------------------

@pytest.mark.parametrize("text,printed", [
    ("x", "x"),
    ("1", "1"),
    ("x y", "x y"),
    ("x*y", "x y"),
    ("[x y]", "[x y]"),
    ("[1]", "[1]"),
    ("[[1]]", "[[1]]"),
    ("[x][y]", "[x] [y]"),
    ("x [ y z ] x", "x [y z] x"),
    ("[[x y] z]", "[[x y] z]"),
])
def test_parse_print(text, printed):
    assert to_str(parse(text, G)) == printed


def test_parse_print_roundtrip_enumerated():
    for w in enumerate_words(G, 3, 2):
        assert parse(to_str(w), G) == w


@pytest.mark.parametrize("text,err", [
    ("[x", UnbalancedBrackets),
    ("x]", UnbalancedBrackets),
    ("[x]]", UnbalancedBrackets),
    ("w", UnknownGenerator),
    ("[]", EmptyBracketWithoutUnit),
    ("1 x", ParseError),
    ("x 1", ParseError),
    ("[1 x]", ParseError),
    ("", ParseError),
    ("x + y", ParseError),
])
def test_parse_errors(text, err):
    with pytest.raises(err):
        parse(text, G)


def test_parse_error_position():
    try:
        parse("x [y w]", G)
    except UnknownGenerator as e:
        assert e.position == 5
    else:
        pytest.fail("expected UnknownGenerator")


def test_parse_past_the_recursion_limit_is_a_resource_limit():
    text = "[" * 1200 + "x y" + "]" * 1200
    with pytest.raises(ResourceLimit, match=f"^{re.escape(TOO_NESTED)}$"):
        parse(text, G)


def test_words_nest_up_to_the_depth_cap_and_no_further():
    # a MAX_DEPTH-deep word parses, prints and reduces; building one level
    # more is a resource limit wherever it happens, never a RecursionError
    deep = "[" * MAX_DEPTH + "y" + "]" * MAX_DEPTH
    w = parse(f"[x {deep[1:-1]}]", G)
    assert w.depth() == MAX_DEPTH
    assert to_str(w) == f"[x {deep[1:-1]}]"
    assert tokens(w) == ["[", "x"] + tokens(parse(deep[1:-1], G)) + ["]"]
    assert tokens(parse(deep, G)) == (["["] * MAX_DEPTH + ["y"]
                                      + ["]"] * MAX_DEPTH)
    schema = RuleSchema(named_pattern("derivation"), order=OrderConfig(G))
    nf, trace = normal_form(OPoly.from_word(w), schema)
    assert len(trace) == 1
    assert sorted(to_str(m) for m in nf.terms) == [f"[x] {deep[1:-1]}",
                                                   f"x {deep}"]
    too_deep = f"[{deep}]"
    for build in (lambda: parse(too_deep, G), lambda: bracket(parse(deep, G)),
                  lambda: splice(((("x",), ()),), (parse(deep, G),))):
        with pytest.raises(ResourceLimit, match=f"^{re.escape(TOO_NESTED)}$"):
            build()


def _stack_depth():
    """The frames on the stack of the caller."""
    frame, n = sys._getframe(1), 0
    while frame is not None:
        n += 1
        frame = frame.f_back
    return n


def _with_headroom(frames, run):
    """``run()`` with the recursion limit ``frames`` above the stack."""
    old = sys.getrecursionlimit()
    sys.setrecursionlimit(_stack_depth() + frames)
    try:
        return run()
    finally:
        sys.setrecursionlimit(old)


# a MAX_DEPTH-deep sigma redex, and a word that it rewrites in one step
TOWER = "[" * MAX_DEPTH + "x y" + "]" * MAX_DEPTH
ONE_STEP = "[x " + "[" * (MAX_DEPTH - 1) + "y" + "]" * MAX_DEPTH


def _schema_of_deep_pattern():
    with pytest.raises(NotDRF, match=re.escape(TOWER) + "$"):
        RuleSchema(OpIdentity(DIFFERENTIAL, OPoly.from_word(parse(TOWER, G))))


def _derivation():
    return RuleSchema(named_pattern("derivation"), order=OrderConfig(G))


ENTRY_POINTS = {
    "parse": lambda: parse(TOWER, G),
    "to_str": lambda: to_str(parse(TOWER, G)) == TOWER,
    "tokens": lambda: len(tokens(parse(TOWER, G))) == 2 * MAX_DEPTH + 2,
    "has_unit_bracket": lambda: parse(
        "[" * (MAX_DEPTH - 1) + "x [1]" + "]" * (MAX_DEPTH - 1),
        G).has_unit_bracket,
    "word_sort_key": lambda: word_sort_key(parse(TOWER, G)),
    "order_key": lambda: order_key(OrderConfig(G))(parse(TOWER, G)),
    "find_redexes": lambda: len(find_redexes(parse(TOWER, G),
                                             _derivation())) == 1,
    "first_redex": lambda: _first_redex(parse(TOWER, G), True, True).a == x,
    "RuleSchema": lambda: _schema_of_deep_pattern() is None,
    "normal_form": lambda: len(normal_form(OPoly.from_word(parse(ONE_STEP, G)),
                                           _derivation())[1]) == 1,
    "reduces_to_zero": lambda: reduces_to_zero(
        OPoly.from_word(parse(ONE_STEP, G)), _derivation()).kind == "no",
    "delta_view": lambda: len(delta_view(OPoly.from_word(
        parse(ONE_STEP, G))).terms) == 1,
}


@pytest.mark.parametrize("entry", ENTRY_POINTS)
def test_a_max_depth_word_takes_at_most_two_frames_a_level(entry):
    # each walk and reader of a word takes at most two frames a nesting
    # level (coeffs.MAX_DEPTH), so none needs the recursion limit's help
    assert _with_headroom(2 * MAX_DEPTH + 50, ENTRY_POINTS[entry])


@pytest.mark.parametrize("pattern, terms", [("derivation", MAX_DEPTH),
                                             ("endomorphism", 1)])
def test_the_free_operator_takes_one_frame_a_generator(pattern, terms):
    word = Word(("z",) * MAX_DEPTH)
    got = _with_headroom(MAX_DEPTH + 50, lambda: free_dt_operator_nf(
        word, named_pattern(pattern)))
    assert len(got.terms) == terms
    for n in (MAX_DEPTH + 1, 260, 1200):
        with pytest.raises(ResourceLimit, match=f"^{re.escape(D_TOO_DEEP)}$"):
            free_dt_operator_nf(Word(("z",) * n), named_pattern(pattern))


def test_the_coefficient_reader_takes_at_most_four_frames_a_level():
    ring = PolyRing(("a",))
    text = "(" * MAX_DEPTH + "a" + ")" * MAX_DEPTH
    assert _with_headroom(4 * MAX_DEPTH + 50,
                          lambda: ring.parse(text)) == ring.var("a")


# -- the word table ---------------------------------------------------------------

def fill_past_the_threshold():
    """Build words that nothing holds until the word table is over the
    threshold at which closing the outermost job prunes it."""
    limit = max(TABLE_BOUND, 2 * opalg.words._kept)
    i = 0
    while len(opalg.words._TABLE) <= limit:
        Word((f"g{i}",))
        i += 1


def close_a_job():
    """Close a job scope that leaves the word table over its threshold, so
    that closing it prunes the table; with no other scope open, only words
    referenced outside the table remain.  The last prune's count is
    forgotten first, so that the threshold is ``TABLE_BOUND`` and the words
    this session holds need not be doubled by fillers at every call."""
    with job():
        opalg.words._kept = 0
        fill_past_the_threshold()
    assert ("g0",) not in opalg.words._TABLE
    assert_only_held_words_remain()


def assert_only_held_words_remain():
    """What a prune leaves: each word of the table is the one word of its
    atom tuple, and something outside the table holds it (a count above
    the table's, the loop's and the argument's)."""
    table = opalg.words._TABLE
    assert opalg.words._kept == len(table)
    assert all(Word(w.atoms) is w for w in table.values())
    assert all(sys.getrefcount(w) > 3 for w in table.values())


def assert_table_within_bound():
    """What an outermost job leaves: a table at most over its threshold by
    the last prune's count, each word the one word of its atom tuple."""
    table = list(opalg.words._TABLE.values())
    assert len(table) <= max(TABLE_BOUND, 2 * opalg.words._kept)
    assert all(Word(w.atoms) is w for w in table)


def test_words_of_one_atom_tuple_are_one_object_within_a_job():
    # an open job: no prune comes between the builds
    with job():
        job_memo(RuleSchema(named_pattern("derivation")))
        w = parse("[x [y z]] x", G)
        assert parse("[x [y z]] x", G) is w
        assert word_of(x * bracket(y * z), "x") is w
        assert splice(((("x",), ("z",)),), ("y",)) is parse("x y z", G)
        assert _first_redex(w, True, False) is not None


def test_two_small_jobs_in_a_row_share_their_words():
    # each call is its own outermost job; the first leaves the table under
    # its threshold, so the second finds the first's words interned, those
    # the caller does not hold included
    close_a_job()
    kept = len(opalg.words._TABLE)
    schema = _derivation()
    start = OPoly.from_word(parse("[x [y z]] [x y]", G))
    first, _ = normal_form(start, schema)
    assert not job.memos and len(opalg.words._TABLE) > kept
    assert opalg.words._kept == kept  # no prune ran
    second, _ = normal_form(start, schema)
    assert len(first.terms) > 2 and first == second
    assert all(a is b for a, b in zip(first.terms, second.terms))
    assert parse("[x [y z]] [x y]", G) is next(iter(start.terms))


def test_a_job_that_leaves_more_than_the_bound_prunes_the_table():
    # the caller keeps the enumerated words of depth 0 and 1; no kept word
    # holds one of depth 2, so those over p and q leave the table (the
    # words over the unit alone are in WORD_POOL too)
    close_a_job()
    before = parse("[x [y z]] x", G)
    with job():
        words = enumerate_words(("p", "q"), 3, 2)
        job_memo(_derivation())
        fill_past_the_threshold()
        assert len(opalg.words._TABLE) > TABLE_BOUND
        assert parse("[x [y z]] x", G) is before
        kept = [w for w in words if w.depth() < 2]
        dropped = [w.atoms for w in words if w.depth() == 2 and w.deg]
        del words
    assert not job.memos
    assert_only_held_words_remain()
    assert parse("[x [y z]] x", G) is before
    assert all(Word(w.atoms) is w for w in kept)
    assert dropped and not any(atoms in opalg.words._TABLE
                               for atoms in dropped)


def test_a_prune_keeps_a_word_held_only_through_a_held_words_atoms():
    # a bracket atom is its content word: ``y [z [1]]`` and ``z [1]`` are
    # held by the atoms of the word above them alone, and the unit in
    # ``[1]`` by this module
    close_a_job()
    outer = parse("x [y [z [1]]]", G)
    close_a_job()
    inner = parse("y [z [1]]", G)
    assert inner is outer.atoms[1]
    assert parse("z [1]", G) is inner.atoms[1]
    assert inner.atoms[1].atoms[1] is UNIT
    # a word only a dropped word held goes with it
    with job():
        parse("z [[z y x y] y]", G)
    close_a_job()
    assert ("z", "y", "x", "y") not in opalg.words._TABLE


def test_a_caller_holding_many_words_is_not_rescanned_at_every_close(
        monkeypatch):
    # the caller's 5 000 words keep the table over TABLE_BOUND; a prune
    # comes only when the table doubles what the last prune kept
    close_a_job()
    prunes = []
    prune = opalg.words._prune

    def counting():
        prunes.append(len(opalg.words._TABLE))
        prune()

    monkeypatch.setattr(opalg.words, "_prune", counting)
    held = [Word((f"h{i}", bracket(x))) for i in range(5000)]
    for i in range(300):
        with job():
            for k in range(10):
                Word((f"s{i}", bracket(Word((f"t{k}",)))))
    assert 1 <= len(prunes) <= 3
    assert all(Word(w.atoms) is w for w in held)


def test_a_word_equals_no_other_object():
    assert "__eq__" not in vars(Word) and "__hash__" not in vars(Word)
    w = parse("x [y]", G)
    assert w == w and not w != w and hash(w) == hash(parse("x [y]", G))
    twin = object.__new__(Word)  # built around the table, as nothing else is
    twin.atoms = w.atoms
    for other in (twin, "x [y]", w.atoms, OPoly.from_word(w), 1, None):
        assert w != other and not w == other and not other == w
    assert {w: 1}.get(twin) is None and twin not in {w}


def test_a_word_built_before_a_table_clear_equals_its_twin_after():
    before = parse("[x [y z]] x [1]", G)
    close_a_job()
    after = parse("[x [y z]] x [1]", G)
    assert after is before
    assert after == before and before == after
    assert hash(after) == hash(before)
    assert {before: 1}[after] == 1
    assert bracket(after) == bracket(before) != bracket(x)
    assert to_str(after) == to_str(before)


def test_the_library_builds_the_unit_in_the_open_job():
    # this module holds the unit built at import, so no prune drops it: a
    # unit the library builds or parses is ``UNIT``
    close_a_job()
    with job():
        unit = Word(())
        assert unit is UNIT and enumerate_words(G, 1, 1)[0] is UNIT
        assert parse("1", XY) is unit
        assert next(iter(parse_opoly("1", XY).terms)) is unit
        assert next(iter(parse_opoly("2 [1]", XY).terms)).atoms[0] is unit
    close_a_job()
    assert Word(()) is UNIT and () in opalg.words._TABLE


def test_generator_set_validation():
    with pytest.raises(ValueError):
        GeneratorSet(["1"])
    with pytest.raises(ValueError):
        GeneratorSet(["x", "x"])
    with pytest.raises(ValueError):
        GeneratorSet(["2x"])


# -- substitution ----------------------------------------------------------------

def test_substitute_flat_splice():
    q = ((("x",), ("y",)),)  # x ⋆ y
    assert splice(q, (STAR,)) == word_of("x", STAR, "y")
    assert splice(q, z.atoms) == parse("x z y", G)
    assert splice(q, (x * y).atoms) == parse("x x y y", G)
    assert splice(q, UNIT.atoms) == parse("x y", G)


def test_substitute_inside_bracket():
    q = ((("x",), ()), ((), ("z",)))  # x [⋆ z]
    assert splice(q, (STAR,)) == word_of("x", word_of(STAR, "z"))
    assert splice(q, (x * y).atoms) == parse("x [x y z]", G)
    assert splice(q, UNIT.atoms) == parse("x [z]", G)


def test_substitute_unit_deletes_star_inside_bracket():
    q = (((), ()), ((), ()))  # [⋆]
    assert splice(q, UNIT.atoms) == bracket(UNIT)


def test_two_star_routes_agree():
    q = word_of(STAR1, word_of("y", STAR2), "x")
    sub = reference_replace_generators
    a = sub(sub(q, {STAR1: x * y}), {STAR2: z})
    b = sub(sub(q, {STAR2: z}), {STAR1: x * y})
    assert a == b == parse("x y [y z] x", G)


def test_compose_contexts():
    # a context spliced into a context's hole is again a context: the last
    # level of the outer path merges with the first level of the inner one
    q1 = ((("x",), ()),)  # x ⋆
    q2 = (((), ()), ((), ("y",)))  # [⋆ y]
    q = ((("x",), ()), ((), ("y",)))
    assert splice(q1, splice(q2, (STAR,)).atoms) == splice(q, (STAR,))
    assert splice(q, z.atoms) == parse("x [z y]", G)
    # composition law: (q1 ∘ q2)|_u == q1|_(q2|_u)
    u = parse("[1] z", G)
    assert splice(q, u.atoms) == splice(q1, splice(q2, u.atoms).atoms)


# -- substitution against a token-level oracle ----------------------------------------

def token_scan_starts(w, u):
    """Independent oracle: starts of tokens(u) as a contiguous sublist of tokens(w)."""
    tw, tu = tokens(w), tokens(u)
    k = len(tu)
    return [i for i in range(len(tw) - k + 1) if tw[i:i + k] == tu]


def star_path(q):
    """The star path of the one-star word ``q``, found by search."""
    atoms = q.atoms
    path = []
    while STAR not in atoms:
        i = next(i for i, a in enumerate(atoms)
                 if isinstance(a, Word) and STAR in tokens(a))
        path.append((atoms[:i], atoms[i + 1:]))
        atoms = atoms[i].atoms
    i = atoms.index(STAR)
    path.append((atoms[:i], atoms[i + 1:]))
    return tuple(path)


def word_from_tokens(toks):
    """The word of a balanced token list; the inverse of ``tokens``."""
    stack = [[]]
    for t in toks:
        if t == "[":
            stack.append([])
        elif t == "]":
            inner = stack.pop()
            stack[-1].append(Word(tuple(inner)))
        else:
            stack[-1].append(t)
    (atoms,) = stack
    return Word(tuple(atoms))


WORD_POOL = enumerate_words(G, 3, 2)
PATTERNS = [x, y, x * y, bracket(x), bracket(UNIT), bracket(x * y), x * x,
            word_of("x", word_of("y"))]


@pytest.mark.parametrize("u", PATTERNS, ids=to_str)
def test_occurrences_match_token_scan(u):
    # cutting u out of w at a token-scan occurrence leaves a one-star
    # context, and splicing u along its path fills it back to w
    k = len(tokens(u))
    for w in WORD_POOL:
        tw = tokens(w)
        for s in token_scan_starts(w, u):
            q = word_from_tokens(tw[:s] + [STAR] + tw[s + k:])
            assert splice(star_path(q), u.atoms) == w


# -- enumeration ---------------------------------------------------------------------

def test_enumerate_small_counts():
    # depth 0: nonempty generator sequences of length <= 2 over {x, y}, plus the unit
    g2 = GeneratorSet(["x", "y"])
    ws = enumerate_words(g2, 2, 0)
    assert len(ws) == 1 + 2 + 4
    # depth 1, 1 leaf, no unit brackets: 1, x, [x] over {x}
    g1 = GeneratorSet(["x"])
    ws = enumerate_words(g1, 1, 1, include_unit_brackets=False)
    assert {to_str(w) for w in ws} == {"1", "x", "[x]"}
    # adding unit brackets contributes [1] at depth 1
    ws = enumerate_words(g1, 1, 1, include_unit_brackets=True)
    assert {to_str(w) for w in ws} == {"1", "x", "[x]", "[1]"}


def test_enumerate_leaf_and_depth_bounds():
    ws = enumerate_words(G, 3, 2)
    assert len(ws) == len(set(ws))
    for w in ws:
        assert w.leaves <= 3 and w.depth() <= 2
    # every word within the bounds is present: spot-check a few
    for text in ["[x [1]]", "[[1]] [1] z", "x [y z]", "[[x y]]", "z z z"]:
        assert parse(text, G) in ws


def reference_atom_pool(names, max_leaves, max_depth, include_unit_brackets):
    """The recursive atom pool enumeration was first written with, one
    frame per depth level."""
    if max_depth <= 0 or max_leaves <= 0:
        pool = [[] for _ in range(max_leaves + 1)]
        if max_leaves >= 1:
            pool[1] = list(names)
        return pool
    inner = reference_atom_pool(names, max_leaves, max_depth - 1,
                                include_unit_brackets)
    pool = [[] for _ in range(max_leaves + 1)]
    pool[1] = list(names)
    if include_unit_brackets:
        pool[1].append(UNIT)
    for w in reference_sequences(inner, max_leaves):
        pool[w.leaves].append(w)
    return pool


def reference_sequences(atom_pool, max_leaves):
    results = []
    reference_extend_sequences((), max_leaves, atom_pool, results)
    return results


def reference_extend_sequences(prefix, budget, atom_pool, results):
    """Append ``prefix`` extended by every atom sequence of at most
    ``budget`` leaves to ``results``, depth-first: one frame per leaf."""
    for k in range(1, budget + 1):
        for a in atom_pool[k]:
            seq = prefix + (a,)
            results.append(Word(seq))
            reference_extend_sequences(seq, budget - k, atom_pool, results)


@pytest.mark.parametrize("names", [("x", "y", "z"), ("x", "y")])
@pytest.mark.parametrize("leaves, depth", [(3, 2), (3, 3), (4, 2)])
@pytest.mark.parametrize("units", [True, False])
def test_enumeration_order_matches_the_recursive_reference(names, leaves,
                                                           depth, units):
    got = enumerate_words(names, leaves, depth, include_unit_brackets=units)
    pool = reference_atom_pool(names, leaves, depth, units)
    assert got == [UNIT] + reference_sequences(pool, leaves)


def test_enumeration_bounds_cost_no_frames():
    # 1 200 leaves take no frame each; 1 200 depth levels end at the cap
    flat = _with_headroom(100, lambda: enumerate_words(("x",), 1200, 0))
    assert [len(w.atoms) for w in flat] == list(range(1201))
    with pytest.raises(ResourceLimit, match=f"^{re.escape(TOO_NESTED)}$"):
        _with_headroom(100, lambda: enumerate_words(("x",), 1, 1200))


def test_enumerate_unit_bracket_iterates():
    g1 = GeneratorSet(["x"])
    ws = enumerate_words(g1, 1, 3, include_unit_brackets=True)
    for text in ["[1]", "[[1]]", "[[[1]]]"]:
        assert parse(text, g1) in ws


def test_sampler_respects_bounds():
    rng = random.Random(7)
    for _ in range(300):
        w = sample_word(rng, G, 4, 2)
        assert not w.is_unit
        assert w.leaves <= 4 and w.depth() <= 2


# -- hypothesis properties --------------------------------------------------------------

def word_strategy(max_leaves=4, max_depth=2):
    seeds = st.integers(min_value=0, max_value=2**31 - 1)
    return seeds.map(lambda s: sample_word(
        random.Random(s), G, max_leaves, max_depth))


@settings(max_examples=150, deadline=None)
@given(word_strategy())
def test_roundtrip_property(w):
    assert parse(to_str(w), G) == w


def one_star_contexts(max_leaves=4, max_depth=2):
    seeds = st.integers(min_value=0, max_value=2**31 - 1)
    return seeds.map(lambda s: random_context(
        random.Random(s), G, max_leaves, max_depth))


@settings(max_examples=150, deadline=None)
@given(one_star_contexts(), word_strategy(max_leaves=2, max_depth=1))
def test_substitution_reproduces_property(path, u):
    # splice puts u's tokens at the star's token, and cutting them out
    # again reproduces the context
    q = splice(path, (STAR,))
    tq = tokens(q)
    i = tq.index(STAR)
    tw = tokens(splice(path, u.atoms))
    assert tw == tq[:i] + tokens(u) + tq[i + 1:]
    assert word_from_tokens(tw[:i] + [STAR] + tw[i + len(tokens(u)):]) == q


def _substitute_by_counting(q, u, star):
    """A two-pass fill of the hole ``star`` of ``q``: descend only into
    brackets whose star count is nonzero."""
    def star_count(w):
        return sum(star_count(a) if isinstance(a, Word) else a == star
                   for a in w.atoms)

    atoms = []
    for a in q.atoms:
        if isinstance(a, str):
            atoms.extend(u.atoms if a == star else (a,))
        else:
            atoms.append(_substitute_by_counting(a, u, star)
                         if star_count(a) else a)
    return Word(tuple(atoms))


def _insert_hole(w, rng, hole):
    """``w`` with ``hole`` inserted at a random position and nesting level."""
    brackets = [i for i, a in enumerate(w.atoms) if isinstance(a, Word)]
    if brackets and rng.random() < 0.5:
        i = rng.choice(brackets)
        return Word(w.atoms[:i] + (_insert_hole(w.atoms[i], rng, hole),)
                    + w.atoms[i + 1:])
    i = rng.randint(0, len(w.atoms))
    return Word(w.atoms[:i] + (hole,) + w.atoms[i:])


def context_strategy():
    """Words with unit brackets and zero to two holes among STAR, STAR1 and
    STAR2."""
    def build(s):
        rng = random.Random(s)
        q = UNIT if rng.random() < 0.2 else sample_word(rng, G, 4, 3)
        for _ in range(rng.randint(0, 2)):
            q = _insert_hole(q, rng, rng.choice((STAR, STAR1, STAR2)))
        return q
    return st.integers(min_value=0, max_value=2**31 - 1).map(build)


@settings(max_examples=300, deadline=None)
@given(context_strategy(), st.one_of(st.just(UNIT), word_strategy(3, 2)))
def test_one_pass_substitute_matches_counting_definition(q, u):
    for star in (STAR, STAR1, STAR2):
        assert (reference_replace_generators(q, {star: u})
                == _substitute_by_counting(q, u, star))


def star_word_strategy():
    """Words with unit brackets and one star, built without ``splice``."""
    def build(s):
        rng = random.Random(s)
        q = UNIT if rng.random() < 0.2 else sample_word(rng, G, 4, 3)
        return _insert_hole(q, rng, STAR)
    return st.integers(min_value=0, max_value=2**31 - 1).map(build)


@settings(max_examples=300, deadline=None)
@given(star_word_strategy(), st.one_of(st.just(UNIT), word_strategy(3, 2)),
       word_strategy(3, 2))
def test_splice_matches_star_word_fill(q, u, v):
    # a star path places a word exactly as filling the star of the
    # star-word context it prints as
    path = star_path(q)
    assert splice(path, (STAR,)) == q
    assert splice(path, u.atoms) == reference_replace_generators(q, {STAR: u})
    # distinct words stay distinct in a fixed context
    assert (splice(path, u.atoms) == splice(path, v.atoms)) == (u == v)


# -- shape facts against the recursive definitions --------------------------------

def reference_deg(w):
    """The generator occurrences of ``w``, counted by a walk: one frame a
    level."""
    d = 0
    for a in w.atoms:
        d += 1 if isinstance(a, str) else reference_deg(a)
    return d


def reference_leaves(w):
    """The generator occurrences and innermost unit brackets of ``w``,
    counted by a walk."""
    n = 0
    for a in w.atoms:
        if isinstance(a, str):
            n += 1
        else:
            n += 1 if a.is_unit else reference_leaves(a)
    return n


def reference_has_unit_bracket(w):
    """Does some bracket of ``w``, at any depth, hold the unit?  A walk."""
    for a in w.atoms:
        if isinstance(a, Word) and (a.is_unit
                                    or reference_has_unit_bracket(a)):
            return True
    return False


def reference_depth(w):
    depth = 0
    for a in w.atoms:
        if isinstance(a, Word):
            depth = max(depth, reference_depth(a) + 1)
    return depth


def reference_redex_walk(word, sigma, inner_first, path=()):
    """The redexes of the sigma (``sigma``) or pi rule family inside
    ``word``, which ``path`` leads to, leftmost-outermost first (a bracket's
    content splits shortest left part first), or leftmost-innermost first
    when ``inner_first``; lazily.  The recursive walk that found every
    redex before words carried redex flags, kept as the oracle of the flags
    and of ``rewrite._first_redex``."""
    atoms = word.atoms
    for i, a in enumerate(atoms):
        if not isinstance(a, Word):
            continue
        inside = path + ((atoms[:i], atoms[i + 1:]),)
        if inner_first:
            yield from reference_redex_walk(a, sigma, inner_first, inside)
        if sigma:
            content = a.atoms
            for j in range(1, len(content)):
                yield Redex(inside, Word(content[:j]), Word(content[j:]))
        elif i + 1 < len(atoms) and isinstance(atoms[i + 1], Word):
            yield Redex(path + ((atoms[:i], atoms[i + 2:]),), a, atoms[i + 1])
        if not inner_first:
            yield from reference_redex_walk(a, sigma, inner_first, inside)


def facts(w):
    return (w.deg, w.leaves, w.has_unit_bracket, w.depth(),
            w.has_bracketed_product, w.has_adjacent_brackets)


def reference_facts(w):
    return (reference_deg(w), reference_leaves(w),
            reference_has_unit_bracket(w), reference_depth(w),
            next(reference_redex_walk(w, True, False), None) is not None,
            next(reference_redex_walk(w, False, False), None) is not None)


def test_shape_facts_match_the_walks_on_enumerated_words():
    # unit brackets included; every fact takes more than one value
    seen = set()
    for w in enumerate_words(XY, 4, 2, include_unit_brackets=True):
        assert facts(w) == reference_facts(w), w
        seen.update(enumerate(facts(w)))
    assert {(i, flag) for i in (2, 4, 5) for flag in (True, False)} <= seen
    assert len({v for i, v in seen if i == 0}) == 5


@settings(max_examples=200, deadline=None)
@given(word_strategy(max_leaves=6, max_depth=4))
def test_shape_facts_match_the_walks_on_sampled_words(w):
    assert facts(w) == reference_facts(w)


PARSED = ["1", "[1]", "[[1]]", "x [1] y", "[x [1]] y [x y [z]]",
          "[[x] [y [[1]]]]",
          "[" * (MAX_DEPTH - 1) + "x [1] y" + "]" * (MAX_DEPTH - 1),
          "[" * MAX_DEPTH + "x" + "]" * MAX_DEPTH + " y z"]


@pytest.mark.parametrize("text", PARSED, ids=range(len(PARSED)))
def test_shape_facts_match_the_walks_on_parsed_texts(text):
    # the two towers are MAX_DEPTH deep
    w = parse(text, G)
    assert facts(w) == reference_facts(w)
    assert all(facts(a) == reference_facts(a)
               for a in w.atoms if isinstance(a, Word))


def test_shape_facts_match_the_walks_on_spliced_and_rewritten_words():
    rng = random.Random(3)
    for _ in range(200):
        path = random_context(rng, G, 4, 3)
        u = sample_word(rng, G, 3, 2)
        for w in (splice(path, u.atoms), splice(path, ()),
                  splice(path, (STAR,))):
            assert facts(w) == reference_facts(w), w
    for spec in ("derivation", "weight:lam", "td"):
        schema = RuleSchema(named_pattern(spec))
        for text in ("[x [1] [y z]] [[1] x]", "[[x y] [1] z]"):
            nf, trace = normal_form(OPoly.from_word(parse(text, G)), schema)
            met = list(nf.terms) + trace.monomials
            met += [m for s in trace.steps for m in (s.a, s.b)]
            assert len(met) > 2
            for w in met:
                assert facts(w) == reference_facts(w), (spec, w)


def test_twins_across_a_table_clear_carry_equal_facts():
    texts = ["[x [1]] y [x y [z]]", "[[1]]", "z [[x] [y [[1]]]]"]
    before = [parse(t, G) for t in texts]
    close_a_job()
    after = [parse(t, G) for t in texts]
    for b, a in zip(before, after):
        assert a is b
        assert facts(a) == facts(b) == reference_facts(a)


# -- copies -----------------------------------------------------------------------

@pytest.mark.parametrize("copier", [
    copy.copy, copy.deepcopy, lambda w: pickle.loads(pickle.dumps(w))],
    ids=["copy", "deepcopy", "pickle"])
@pytest.mark.parametrize("text", ["x [y]", "x x", "[x [1]] y", "1",
                                  "[x y] [1]", "[x [1] [y]]"])
def test_a_copied_word_equals_the_original_and_leaves_the_unit_alone(
        copier, text):
    # after a prune the copy goes back through the table, which kept the
    # word it copies
    w = parse(text, XY)
    close_a_job()
    got = copier(w)
    assert got is w and facts(got) == facts(w) == reference_facts(w)
    assert UNIT.atoms == () and Word(()).atoms == ()
    assert UNIT.deg == UNIT.leaves == 0 and not UNIT.has_unit_bracket


def test_deep_copying_a_polynomial_leaves_its_words_intact():
    p = OPoly.from_word(parse("x [y [1]]", XY)) + OPoly.from_word(
        parse("[x] y", XY))
    q = copy.deepcopy(p)
    assert q == p
    assert [to_str(w) for w in q.terms] == ["x [y [1]]", "[x] y"]
    assert UNIT.atoms == () and Word(()).atoms == ()


# -- instantiation plans ------------------------------------------------------------

def catalog_identities():
    """Every identity of the catalog's families and named patterns, and of
    the degree-2 ansatzes, which nest brackets two deep."""
    named = [named_pattern(n if n not in ("weight", "rota-baxter")
                           else f"{n}:lam") for n in pattern_names()]
    ansatzes = [build_ansatz(mode, 2).identity() for mode in (DIFFERENTIAL,
                                                             ROTA_BAXTER)]
    return [f.identity() for f in FAMILIES.values()] + named + ansatzes


def plan_arguments(rng):
    """The unit, brackets, products and sampled words, as arguments."""
    fixed = [UNIT, x, bracket(UNIT), bracket(x * y), x * bracket(y * z),
             bracket(bracket(x) * y)]
    return fixed + [sample_word(rng, G, 4, 3) for _ in range(12)]


def test_plans_fill_as_the_generators_are_replaced():
    rng = random.Random(41)
    args = plan_arguments(rng)
    monomials = {m for ident in catalog_identities()
                 for m in ident.pattern.terms}
    assert len(monomials) > 30
    assert any(m.depth() == 2 for m in monomials)
    for m in monomials:
        parts = plan(m, XY.names)
        for a in args:
            for b in args:
                want = reference_replace_generators(m, {"x": a, "y": b})
                assert Word(fill(parts, (a, b))) == want, (m, a, b)


@settings(max_examples=150, deadline=None)
@given(word_strategy(max_leaves=5, max_depth=3),
       st.one_of(st.just(UNIT), word_strategy(3, 2)),
       st.one_of(st.just(UNIT), word_strategy(3, 2)))
def test_plans_of_sampled_words_fill_as_the_generators_are_replaced(w, a, b):
    # ``z`` is no hole: it stays, and so do brackets around it alone
    for names in (("x", "y"), ("y", "x"), ("x",)):
        values = (a, b)[:len(names)]
        want = reference_replace_generators(w, dict(zip(names, values)))
        assert Word(fill(plan(w, names), values)) == want


def test_a_plan_has_one_part_per_atom():
    w = parse("z [x [y]] [[x]] [1] y [z]", G)
    assert plan(w, ("x", "y")) == ("z", (0, ~1), (~0,), (), 1, ("z",))


def test_patterns_are_filled_as_the_generators_are_replaced():
    # term order matters too: the search visits an instance's terms in order
    args = plan_arguments(random.Random(43))
    for ident in catalog_identities():
        for a in args:
            for b in args:
                assert (list(ident.pattern_at(a, b).terms.items())
                        == reference_subst(ident.pattern, {"x": a, "y": b})), (
                    ident, a, b)


@settings(max_examples=150, deadline=None)
@given(st.lists(st.tuples(word_strategy(max_leaves=5, max_depth=3),
                          st.integers(-3, 3)), min_size=1, max_size=5),
       st.permutations(("x", "y", "z")), word_strategy(3, 2),
       st.sampled_from(("x", "y", "z")))
@example(terms=[(parse("[x] [y z] x", G), 2), (parse("[1] [z] y", G), -1)],
         names=("x", "y", "z"), w=parse("[x] y", G), g="x")
def test_subst_generators_replaces_as_the_reference(terms, names, w, g):
    # the unit makes a bracket around its generator alone the bracket [1]
    p = OPoly(dict(terms))
    mapping = dict(zip(names, (UNIT, gen_word(g), bracket(w))))
    assert (list(p.subst_generators(mapping).terms.items())
            == reference_subst(p, mapping))


def test_an_identity_compiles_its_pattern_once(monkeypatch):
    planned = []

    def counting_plan(w, names):
        planned.append(w)
        return plan(w, names)

    monkeypatch.setattr("opalg.opoly.plan", counting_plan)
    ident = named_pattern("weight:lam")
    assert planned == []  # nothing compiled before the first instance
    schemas = (RuleSchema(ident),
               RuleSchema(ident, OrderConfig(G, "deglenlex")))
    assert schemas[0].identity.plans is schemas[1].identity.plans
    lead = parse("[x y z]", G)
    for schema in schemas:
        for redex in find_redexes(lead, schema):
            schema.replacement(redex)
    ident.pattern_at(x, y * z)
    assert planned == list(ident.pattern.terms)


def test_tower_heights_read_single_bracket_towers():
    assert tower_heights(parse("[[x]] y [z]", G)) == [("x", 2), ("y", 0),
                                                      ("z", 1)]
    assert tower_heights(UNIT) == []
    for text in ("x [y z]", "[[x] y]", "[1] x", "[[1]]"):
        assert tower_heights(parse(text, G)) is None
