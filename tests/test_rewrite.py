"""Rewriting engine: redex enumeration, normal forms, zero tests, confluence."""

import collections
import functools
import importlib.util
import itertools
import json
import os
import random
import re
from collections import namedtuple
from fractions import Fraction

import pytest
from hypothesis import given, settings

import opalg.rewrite
import opalg.words
from opalg.catalog import FAMILIES, named_pattern
from opalg.classify import (_unit_residue, build_ansatz, classify,
                            extract_constraints, match_catalog)
from opalg.coeffs import MPoly, PolyRing, _add_scaled_into
from opalg.gsb import (GeneratorSystem, TruncationBound,
                       cdl_direct_sum_check, dt_check, generic_defect,
                       gsb_check_truncated, irr_enumerate, rbt_check)
from opalg.opoly import (DIFFERENTIAL, ROTA_BAXTER, OPoly, OpIdentity,
                         parse_opoly, to_str_opoly)
from opalg.ordering import (GREATER, OrderConfig, check_monomial_order,
                            order_key)
from opalg.rewrite import (NORMAL_FORM, STEP_CAP_EXCEEDED, NotDRF, NotRBRF,
                           NotTotallyLinear, ResourceLimit, RewriteMemo,
                           RuleSchema, TraceStep, Verdict, _first_redex,
                           _span_certificate, factored_normal_form,
                           find_redexes, in_reduced_form, is_drf, is_rbrf,
                           is_totally_linear, job_memo,
                           joinable, local_confluence_check, normal_form,
                           reduces_to_zero)
from opalg.words import (MAX_DEPTH, STAR, TOO_NESTED, GeneratorSet, UNIT, Word,
                         enumerate_words, job, parse, sample_word, to_str,
                         tokens, word_sort_key)
from test_coeffs import is_rational
from test_ordering import reference_compare
from test_words import (assert_table_within_bound, close_a_job,
                        reference_has_unit_bracket, reference_redex_walk,
                        reference_replace_generators, reference_subst,
                        word_strategy)

XY = GeneratorSet(("x", "y"))
XYZ = GeneratorSet(("x", "y", "z"))
UVW = GeneratorSet(("u", "v", "w"))

DER = named_pattern("derivation")
AVG = named_pattern("average")


def der_schema(gens=XYZ):
    return RuleSchema(DER, order=OrderConfig(gens))


# -- structural predicates -----------------------------------------------------------

def test_total_linearity():
    assert is_totally_linear(parse_opoly("x [y] + [x] y", XY))
    assert not is_totally_linear(parse_opoly("x [y] + x x", XY))
    assert not is_totally_linear(parse_opoly("x [x y]", XY))
    assert not is_totally_linear(parse_opoly("x", XY))
    assert not is_totally_linear(parse_opoly("x [y x]", XY))


def test_reduced_form_predicates():
    assert in_reduced_form(parse("x [y] [x]", XY), True)
    assert not in_reduced_form(parse("[x y]", XY), True)
    assert in_reduced_form(parse("[[x]] [1]", XY), True)
    assert in_reduced_form(parse("[x y] x", XY), False)
    assert not in_reduced_form(parse("[x] [y]", XY), False)
    assert not in_reduced_form(parse("[x [y] [1]]", XY), False)
    assert is_drf(parse_opoly("x [y] + [x] y", XY))
    assert not is_drf(parse_opoly("x [y] + [x y]", XY))
    assert is_rbrf(parse_opoly("x [y] + [x y]", XY))
    assert not is_rbrf(parse_opoly("[x] [y]", XY))


# the word-shape recursions that the redex walk and the token list replaced,
# kept as references


def ref_count_generator(w: Word, name: str) -> int:
    n = 0
    for a in w.atoms:
        if isinstance(a, str):
            n += a == name
        else:
            n += ref_count_generator(a, name)
    return n


def ref_word_is_drf(w: Word) -> bool:
    for a in w.atoms:
        if isinstance(a, Word):
            if len(a.atoms) >= 2 or not ref_word_is_drf(a):
                return False
    return True


def ref_word_is_rbrf(w: Word) -> bool:
    prev_bracket = False
    for a in w.atoms:
        if isinstance(a, Word):
            if prev_bracket or not ref_word_is_rbrf(a):
                return False
            prev_bracket = True
        else:
            prev_bracket = False
    return True


def ref_gen_positions(w: Word, out=None) -> list:
    if out is None:
        out = []
    for a in w.atoms:
        if isinstance(a, Word):
            ref_gen_positions(a, out)
        else:
            out.append(a)
    return out


def ref_total_brackets(w: Word) -> int:
    n = 0
    for a in w.atoms:
        if isinstance(a, Word):
            n += 1 + ref_total_brackets(a)
    return n


def ref_unit_residue(w: Word, depth: int = 0) -> bool:
    for a in w.atoms:
        if isinstance(a, Word):
            if a.is_unit and depth > 0:
                return True
            if ref_unit_residue(a, depth + 1):
                return True
    return False


@pytest.mark.parametrize("gens", [XY, UVW], ids=["xy", "uvw"])
def test_word_shape_matches_reference_recursions(gens):
    # unit brackets included; every predicate reads both ways on the set
    seen = set()
    for w in enumerate_words(gens, 4, 2):
        toks = tokens(w)
        got = (in_reduced_form(w, True), in_reduced_form(w, False),
               w.has_unit_bracket, _unit_residue(w))
        assert got == (ref_word_is_drf(w), ref_word_is_rbrf(w),
                       reference_has_unit_bracket(w), ref_unit_residue(w)), w
        assert [t for t in toks if t != "[" and t != "]"] == \
            ref_gen_positions(w)
        assert toks.count("[") == ref_total_brackets(w)
        assert all(toks.count(g) == ref_count_generator(w, g) for g in gens)
        seen.update(enumerate(got))
    assert len(seen) == 8


def test_schema_validation():
    with pytest.raises(NotTotallyLinear):
        RuleSchema(OpIdentity(DIFFERENTIAL, parse_opoly("x [y] + x x", XY)))
    with pytest.raises(NotDRF):
        RuleSchema(OpIdentity(DIFFERENTIAL, parse_opoly("[x y]", XY)))
    with pytest.raises(NotRBRF):
        RuleSchema(OpIdentity("rota_baxter", parse_opoly("[x] [y]", XY)))
    # the deepest word there is prints in the message that says it is not
    # in reduced form
    text = "[" * MAX_DEPTH + "x y" + "]" * MAX_DEPTH
    with pytest.raises(NotDRF, match=re.escape(f": {text}") + "$"):
        RuleSchema(OpIdentity(DIFFERENTIAL,
                              OPoly.from_word(_tower(MAX_DEPTH))))


# -- redex enumeration ---------------------------------------------------------------

def test_redexes_of_bracketed_triple():
    w = parse("[x y z]", XYZ)
    redexes = find_redexes(w, der_schema())
    got = [(to_str(r.context), to_str(r.a), to_str(r.b)) for r in redexes]
    assert got == [("⋆", "x", "y z"), ("⋆", "x y", "z")]


def test_redexes_outer_before_inner():
    w = parse("[x [y z]]", XYZ)
    redexes = find_redexes(w, der_schema())
    got = [(to_str(r.context), to_str(r.a), to_str(r.b)) for r in redexes]
    assert got[0] == ("⋆", "x", "[y z]")
    assert got[1] == ("[x ⋆]", "y", "z")


def test_redex_context_and_arguments():
    w = parse("x [x y] y", XY)
    (r,) = find_redexes(w, der_schema(XY))
    assert (to_str(r.context), to_str(r.a), to_str(r.b)) == ("x ⋆ y", "x", "y")


def test_pi_redexes_include_unit_contents():
    schema = RuleSchema(AVG)
    w = parse("[1] [x]", XY)
    (r,) = find_redexes(w, schema)
    assert (to_str(r.a), to_str(r.b)) == ("1", "x")
    w2 = parse("x [y] [x] y", XY)
    (r2,) = find_redexes(w2, schema)
    assert (to_str(r2.context), to_str(r2.a), to_str(r2.b)) == \
        ("x ⋆ y", "y", "x")


# -- normal forms --------------------------------------------------------------------

def test_normal_form_leibniz():
    p = OPoly.from_word(parse("[x y]", XY))
    nf, trace = normal_form(p, der_schema(XY))
    assert to_str_opoly(nf, OrderConfig(XY)) == "[x] y + x [y]"
    assert trace.status == "normal_form"
    assert len(trace.steps) == 1
    assert trace.order_violations == []


def test_normal_form_triple_product():
    p = OPoly.from_word(parse("[x y z]", XYZ))
    nf, _ = normal_form(p, der_schema())
    assert nf == parse_opoly("[x] y z + x [y] z + x y [z]", XYZ)


def test_normal_form_average_pi():
    schema = RuleSchema(AVG)
    p = OPoly.from_word(parse("u [v] [w]", UVW))
    nf, trace = normal_form(p, schema)
    assert to_str_opoly(nf) == "u [v [w]]"
    assert len(trace.steps) == 1


def test_normal_form_strategies_agree_on_confluent_schema():
    rng = random.Random(11)
    from opalg.words import sample_word
    schema = der_schema(XY)
    for _ in range(60):
        w = sample_word(rng, XY, 4, 3)
        p = OPoly.from_word(w)
        lo, _ = normal_form(p, schema, "lo")
        li, _ = normal_form(p, schema, "li")
        assert lo == li, to_str(w)


def test_normal_form_monitor_flags_nothing_for_derivation():
    rng = random.Random(3)
    from opalg.words import sample_word
    schema = der_schema(XY)
    for _ in range(40):
        p = OPoly.from_word(sample_word(rng, XY, 4, 2))
        _, trace = normal_form(p, schema, monitor=True)
        assert trace.order_violations == []


def test_normal_form_step_cap():
    p = OPoly.from_word(parse("[x y z]", XYZ))
    nf, trace = normal_form(p, der_schema(), step_cap=1)
    assert trace.status == "step_cap_exceeded"
    assert not nf.is_zero


def test_normal_form_order_keys_match_comparator_sort(monkeypatch):
    # the degree-1 ansatz defect (14 monomials with symbolic coefficients,
    # 40 after 8 steps): sorting by order keys must pick the same monomial
    # and redex at each step as sorting through the comparator
    ident = build_ansatz(DIFFERENTIAL, 1).identity()
    schema = RuleSchema(ident, order=OrderConfig(UVW))
    defect = generic_defect(ident)
    by_key, key_trace = normal_form(defect, schema)
    calls = []

    def comparator_key(cfg):
        calls.append(cfg)
        return functools.cmp_to_key(lambda a, b: reference_compare(a, b, cfg))

    monkeypatch.setattr(opalg.rewrite, "order_key", comparator_key)
    by_cmp, cmp_trace = normal_form(defect, schema)
    assert calls == [schema.order] and key_trace.steps
    assert by_key == by_cmp
    assert key_trace.steps == cmp_trace.steps


def test_normal_form_rejects_unknown_strategy():
    with pytest.raises(ValueError):
        normal_form(OPoly.from_word(parse("x", XY)), der_schema(XY), "magic")


# -- redexes and replacements against the context-building reference ------------

RefRedex = namedtuple("RefRedex", ["context", "a", "b"])


def reference_redexes(w: Word, schema: RuleSchema, inner_first: bool) -> list:
    """Every redex of ``w`` with its context word, as redex enumeration was
    before redexes carried star paths, kept as the oracle: each level wraps
    its contexts through the closure chain of the levels above."""
    out = []
    _reference_visit(w, Word, schema.kind == "sigma", inner_first, out)
    return out


def _reference_visit(word, wrap, sigma, inner_first, out):
    atoms = word.atoms
    for i, a in enumerate(atoms):
        here = []
        if isinstance(a, Word):
            if sigma:
                # every split of the content into two nonempty words
                for j in range(1, len(a.atoms)):
                    q = wrap(atoms[:i] + (STAR,) + atoms[i + 1:])
                    here.append(RefRedex(q, Word(a.atoms[:j]),
                                         Word(a.atoms[j:])))
            elif i + 1 < len(atoms) and isinstance(atoms[i + 1], Word):
                q = wrap(atoms[:i] + (STAR,) + atoms[i + 2:])
                here.append(RefRedex(q, a, atoms[i + 1]))
        if not inner_first:
            out.extend(here)
        if isinstance(a, Word):
            def wrap_inner(rep, _i=i, _atoms=atoms, _wrap=wrap):
                return _wrap(_atoms[:_i] + (Word(rep),) + _atoms[_i + 1:])
            _reference_visit(a, wrap_inner, sigma, inner_first, out)
        if inner_first:
            out.extend(here)


def into_context(p: OPoly, q: Word) -> OPoly:
    """q|p: each word of ``p`` filled into the star of the context word
    ``q``, in term order."""
    out = {}
    for w, c in p.terms.items():
        _add_scaled_into(out, {reference_replace_generators(q, {STAR: w}): c})
    return OPoly(out, ring=p.ring)


def reference_replacement(schema: RuleSchema, redex) -> OPoly:
    """The rule's right-hand side at ``redex`` by polynomial operations:
    the pattern at (a, b), bracketed for pi, substituted into the context,
    each by the reference walk."""
    out = OPoly(dict(reference_subst(schema.identity.pattern,
                                     {"x": redex.a, "y": redex.b})),
                ring=schema.identity.ring)
    if schema.kind == "pi":
        out = OPoly({Word((w,)): c for w, c in out.terms.items()},
                    ring=out.ring)
    return into_context(out, redex.context)


def ordered_terms(p: OPoly) -> list:
    """The terms of ``p`` in order, symbolic coefficients with their own
    term order; a numeric coefficient ``c`` is the one term ``((), c)``.
    Every rational must be in its one form."""
    out = []
    for w, c in p.terms.items():
        terms = c.terms if isinstance(c, MPoly) else {(): c}
        assert all(map(is_rational, terms.values()))
        out.append((w, list(terms.items())))
    return out


ORACLE_SCHEMAS = {
    "derivation": lambda: RuleSchema(DER, order=OrderConfig(UVW)),
    "average": lambda: RuleSchema(AVG),
    # x [y] and [y] x collide, and here cancel, where x and [y] commute
    "cancelling": lambda: RuleSchema(
        OpIdentity(DIFFERENTIAL, parse_opoly("x [y] - [y] x + x y", XY))),
    "dt ansatz": lambda: RuleSchema(build_ansatz(DIFFERENTIAL, 1).identity()),
    "rbt ansatz": lambda: RuleSchema(build_ansatz(ROTA_BAXTER, 1).identity()),
}
ORACLE_WORDS = enumerate_words(UVW, 3, 2)


@pytest.mark.parametrize("name", sorted(ORACLE_SCHEMAS))
def test_redexes_match_reference(name):
    schema = ORACLE_SCHEMAS[name]()
    found = 0
    for w in ORACLE_WORDS:
        lo = [RefRedex(r.context, r.a, r.b) for r in find_redexes(w, schema)]
        assert lo == reference_redexes(w, schema, False)
        found += len(lo)
        for inner_first in (False, True):
            first = opalg.rewrite._first_redex(w, schema.kind == "sigma",
                                               inner_first)
            want = reference_redexes(w, schema, inner_first)
            if not want:
                assert first is None
                continue
            assert RefRedex(first.context, first.a, first.b) == want[0]
            if not inner_first:
                assert first == find_redexes(w, schema)[0]
    assert found > 0


# one sigma and one pi family
FIRST_REDEX_SCHEMAS = {"sigma": lambda: RuleSchema(DER),
                       "pi": lambda: RuleSchema(AVG)}


def assert_first_redexes_match_the_walk(schema, strategy, words):
    """``_first_redex`` against the first redex of the recursive walk; the
    redex flag is clear exactly where the walk finds none."""
    sigma = schema.kind == "sigma"
    inner_first = strategy == "li"
    reducible = set()
    for w in words:
        want = next(reference_redex_walk(w, sigma, inner_first), None)
        assert _first_redex(w, sigma, inner_first) == want, to_str(w)
        assert in_reduced_form(w, sigma) == (want is None), to_str(w)
        if want is not None:
            reducible.add(w)
    return reducible


@pytest.mark.parametrize("strategy", ["lo", "li"])
@pytest.mark.parametrize("family", sorted(FIRST_REDEX_SCHEMAS))
def test_first_redex_matches_the_walk_on_enumerated_words(family, strategy):
    words = enumerate_words(UVW, 4, 2, include_unit_brackets=True)
    reducible = assert_first_redexes_match_the_walk(
        FIRST_REDEX_SCHEMAS[family](), strategy, words)
    assert 0 < len(reducible) < len(words)


@settings(max_examples=100, deadline=None)
@given(word_strategy(max_leaves=7, max_depth=4))
def test_first_redex_matches_the_walk_on_sampled_words(w):
    for make in FIRST_REDEX_SCHEMAS.values():
        for strategy in ("lo", "li"):
            assert_first_redexes_match_the_walk(make(), strategy, [w])


@pytest.mark.parametrize("name", sorted(ORACLE_SCHEMAS))
def test_replacements_match_reference(name):
    schema = ORACLE_SCHEMAS[name]()
    collided = 0
    for w in ORACLE_WORDS:
        for r in find_redexes(w, schema):
            got = schema.replacement(r)
            want = reference_replacement(schema, r)
            assert ordered_terms(got) == ordered_terms(want)
            collided += len(got) < len(schema.identity.pattern)
    # images of pattern monomials merge (or cancel) everywhere but in the
    # one-term average and the derivation
    assert (collided == 0) == (name in ("average", "derivation"))


@pytest.mark.parametrize("mode", [DIFFERENTIAL, ROTA_BAXTER])
@pytest.mark.parametrize("degree, units", [(1, False), (2, False), (1, True)],
                         ids=["degree 1", "degree 2", "units"])
def test_no_replacement_contains_its_word(mode, degree, units):
    # ``_rewrite_into`` removes the rewritten word before it adds the
    # replacement, which is only right when the replacement lacks that word
    schema = RuleSchema(build_ansatz(mode, degree,
                                     include_unit_terms=units).identity())
    rng = random.Random(29)
    words = ORACLE_WORDS + [sample_word(rng, UVW, 6, 3) for _ in range(200)]
    checked = 0
    for w in words:
        for r in find_redexes(w, schema):
            assert w not in schema.replacement(r).terms, (to_str(w), r)
            checked += 1
    assert checked == (2739 if mode == DIFFERENTIAL else 3114)


# -- the heap normal form against the sort-every-step reference -------------------


RefTrace = namedtuple("RefTrace", ["steps", "status", "order_violations"])


def reference_normal_form(p: OPoly, schema: RuleSchema, strategy: str = "lo",
                          step_cap: int = 100000, monitor: bool = False):
    """``normal_form`` as it was before its heap, kept as the oracle: every
    step re-sorts all terms by order key to find the order-maximal reducible
    monomial, lists all its redexes and builds the replacement by
    polynomial operations (``reference_redexes``,
    ``reference_replacement``), copies the whole term dict and reduces
    every coefficient modulo the constraint ideal.  Its trace builds each
    ``TraceStep`` as the step is taken."""
    inner_first = strategy == "li"
    trace = RefTrace([], NORMAL_FORM, [])
    key = (functools.cache(word_sort_key) if schema.order is None
           else order_key(schema.order))
    redexes_of = {}
    p = schema.normalize(schema.lift(p))
    while True:
        target = None
        for w in sorted(p.terms, key=key, reverse=True):
            redexes = redexes_of.get(w)
            if redexes is None:
                redexes = redexes_of[w] = reference_redexes(w, schema,
                                                            inner_first)
            if redexes:
                target = (w, redexes[0])
                break
        if target is None:
            return p, trace
        if len(trace.steps) >= step_cap:
            return p, trace._replace(status=STEP_CAP_EXCEEDED)
        w, redex = target
        repl = reference_replacement(schema, redex)
        if monitor and schema.order is not None:
            for m in repl.terms:
                if reference_compare(w, m, schema.order) != GREATER:
                    trace.order_violations.append((w, m))
        trace.steps.append(TraceStep(w, redex.context, redex.a, redex.b,
                                     p.terms[w]))
        p = schema.normalize(_reference_rewrite_at(p, w, repl))


def _reference_rewrite_at(p: OPoly, w: Word, repl: OPoly) -> OPoly:
    p._check_compatible(repl)
    c = p.terms[w]
    terms = dict(p.terms)
    if w in repl.terms:
        repl = repl - OPoly.from_word(w, ring=p.ring)
    else:
        del terms[w]
    _add_scaled_into(terms, repl.terms, c)
    return OPoly._trusted(terms, p.ring)


def assert_same_as_reference(p, schema, strategy="lo", step_cap=100000):
    """Same terms in the same order, steps, status and order violations;
    ``normal_form`` reads and fills the open job's memo."""
    got, trace = normal_form(p, schema, strategy, step_cap, monitor=True)
    want, ref = reference_normal_form(p, schema, strategy, step_cap,
                                      monitor=True)
    assert list(got.terms.items()) == list(want.terms.items())
    assert [str(c) for c in got.terms.values()] == \
        [str(c) for c in want.terms.values()]
    assert trace.steps == ref.steps and len(trace) == len(ref.steps)
    assert trace.status == ref.status
    assert trace.order_violations == ref.order_violations
    return trace


@pytest.mark.parametrize("mode, degree, step_cap, steps", [
    (DIFFERENTIAL, 1, 4000, 8),
    (DIFFERENTIAL, 2, 4000, 228),
    (ROTA_BAXTER, 1, 4000, None),
    (ROTA_BAXTER, 2, 50, 50),  # never terminates; see ROADMAP item 3
])
def test_normal_form_matches_reference_on_defects(mode, degree, step_cap,
                                                  steps):
    ident = build_ansatz(mode, degree).identity()
    schema = RuleSchema(ident, order=OrderConfig(UVW)
                        if mode == DIFFERENTIAL else None)
    defect = generic_defect(ident)
    trace = assert_same_as_reference(defect, schema, "lo", step_cap)
    if steps is not None:
        assert len(trace.steps) == steps
    for cap in (0, 1, 5):
        assert_same_as_reference(defect, schema, "lo", cap)
    if degree == 1:
        assert_same_as_reference(defect, schema, "li", step_cap)


RANDOM_SCHEMAS = {
    "derivation": lambda: der_schema(XY),
    "average": lambda: RuleSchema(AVG),  # pi rules, no order
    # [x y] -> [x] [y] + x [y] climbs in deglenlex
    "ascending": lambda: RuleSchema(
        OpIdentity(DIFFERENTIAL, parse_opoly("[x] [y] + x [y]", XY)),
        order=OrderConfig(XY, mode="deglenlex")),
}


@pytest.mark.parametrize("strategy", ["lo", "li"])
@pytest.mark.parametrize("name", sorted(RANDOM_SCHEMAS))
def test_normal_form_matches_reference_on_random_polynomials(name, strategy):
    schema = RANDOM_SCHEMAS[name]()
    rng = random.Random(f"{name}:{strategy}")
    violations = 0
    for _ in range(30):
        p = OPoly({sample_word(rng, XY, 5, 3):
                   rng.choice((1, -1, 2, Fraction(1, 2)))
                   for _ in range(rng.randint(1, 4))})
        for cap in (0, 1, 5, 40):
            trace = assert_same_as_reference(p, schema, strategy, cap)
        violations += len(trace.order_violations)
    assert (violations > 0) == (name == "ascending")


@pytest.mark.parametrize("name", sorted(RANDOM_SCHEMAS))
def test_shared_memo_matches_reference(name):
    # one job's memo of the schema serves a whole sequence of reductions, as
    # in a basis check; the two strategies' reductions interleave through
    # that one memo, and every one must match a fresh reference reduction
    schema = RANDOM_SCHEMAS[name]()
    rng = random.Random(f"shared:{name}")
    differ = 0
    with job():
        memo = job_memo(schema)
        for _ in range(40):
            p = OPoly({sample_word(rng, XY, 5, 3):
                       rng.choice((1, -1, 2, Fraction(1, 2)))
                       for _ in range(rng.randint(1, 4))})
            traces = [assert_same_as_reference(p, schema, strategy, cap)
                      for strategy in ("lo", "li") for cap in (5, 40)]
            differ += traces[1].steps != traces[3].steps
        # the strategies part on this sequence, so a memo that kept either
        # one's redexes would hand the other a wrong one
        assert differ > 0
        assert job.memos[schema] is memo and job_memo(schema) is memo
        assert job_memo(RANDOM_SCHEMAS[name]()) is not memo


def _words(terms: dict) -> dict:
    """A term dict keyed by atom tuples, keyed by words."""
    return {Word(atoms): c for atoms, c in terms.items()}


def _atom(text: str):
    """The bracket atom of a one-atom word, as the memo keys it."""
    (a,) = parse(text, XY).atoms
    return a


def test_strategy_nf_gives_up_above_a_step_that_does_not_descend():
    # a key that ranks one word z above every other makes the one step that
    # yields z ascend; the walk stops there and keeps None for that step's
    # atom and the root above it, keeps the atom it finished before, and
    # later walks finish every other atom
    with job():
        schema = der_schema(XY)
        memo = RewriteMemo(schema)
        key = memo.key
        z = parse("[x [y]]", XY)
        memo.key = lambda v: (v == z, key(v))
        # [[x y] x] steps to [x y] [x] + [[x y]] x; the walk meets [x y]
        # first, which descends, then [[x y]], whose step yields z
        root = parse("[[x y] x]", XY)
        finished, ascends = _atom("[x y]"), _atom("[[x y]]")
        assert memo.strategy_nf(root, 100) is None
        assert {a: kept is None for a, kept in memo.nf.items()} == {
            finished: False, ascends: True, root.atoms[0]: True}
        # a root whose atom is kept as None is refused at once
        assert memo.strategy_nf(root, 100) is None
        assert len(memo.nf) == 3
        # a word whose reducible atoms all have entries is their product,
        # built by no step; z, which no walk met, descends under the altered
        # key too, and a later walk finishes it in one step
        for text, kept in (("[x y]", 0), ("[x [y]]", 1),
                           ("[x y] x [x y]", 0)):
            w = parse(text, XY)
            want, _ = normal_form(OPoly.from_word(w), schema)
            got, steps = memo.strategy_nf(w, 100)
            assert _words(got) == want.terms and steps == kept
        assert z.atoms[0] in memo.nf and len(memo.nf) == 4
        # in a word, an atom kept as None refuses it, behind a finished
        # atom or not
        assert memo.strategy_nf(parse("[x y] [[x y]]", XY), 100) is None
        assert memo.strategy_nf(parse("[[x y]] y", XY), 1) is None
        # under the true order the root's closure descends, but an atom kept
        # as None stops every walk that meets it
        memo.key = key
        memo.nf.clear()
        memo.nf[ascends] = None
        assert memo.strategy_nf(root, 100) is None
        assert {a: kept is None for a, kept in memo.nf.items()} == {
            ascends: True, finished: False, root.atoms[0]: True}


def test_strategy_nf_refuses_a_word_behind_an_atom_kept_as_none(
        monkeypatch):
    # the first reducible atom's step ascends, so the walk keeps None for
    # it; a second call walks nothing, keeps nothing and builds no step
    with job():
        schema = RuleSchema(DER, order=OrderConfig(XYZ, "deglenlex"))
        memo = RewriteMemo(schema)
        w = parse("z [x y] x [[y z]] y", XYZ)
        assert memo.strategy_nf(w, 100) is None
        assert list(memo.nf.values()) == [None]
        built = []
        real = RuleSchema.replacement
        monkeypatch.setattr(RuleSchema, "replacement", lambda self, redex:
                            built.append(redex) or real(self, redex))
        assert memo.strategy_nf(w, 100) is None
        assert len(memo.nf) == 1 and built == []


def test_a_pi_word_that_holds_a_redex_goes_to_the_per_word_reducer():
    # a pi redex spans two adjacent brackets, so no atom product is a pi
    # normal form: the memo refuses [x] [y] rather than give it as its own,
    # and the sum takes the word's normal form from the per-word reducer
    with job():
        schema = RuleSchema(AVG)
        p = OPoly.from_word(parse("[x] [y]", XY))
        want, trace = normal_form(p, schema, "lo", 100)
        assert trace.status == NORMAL_FORM
        assert want.terms == {parse("[x [y]]", XY): 1}
        memo = RewriteMemo(schema)
        assert factored_normal_form(p, memo, 100, None) is None
        asked = []

        def reduce_word(w):
            asked.append(w)
            return normal_form(OPoly.from_word(w), schema)[0].terms

        assert factored_normal_form(p, memo, 100, reduce_word) == want.terms
        assert asked == list(p.terms) and not memo.nf
        # a pi word with no redex is its own normal form, with no reducer
        q = OPoly.from_word(parse("[x] y [y]", XY))
        assert factored_normal_form(q, memo, 100, None) == q.terms


def test_strategy_nf_stays_within_the_cap():
    # [[x y]] takes three steps, one per atom of its closure; a call's walks
    # keep at most ``cap`` atoms and count only the atoms they keep, so
    # what earlier calls kept costs nothing
    with job():
        schema = der_schema(XY)
        w = parse("[[x y]]", XY)
        (a,) = w.atoms
        nf, trace = normal_form(OPoly.from_word(w), schema)
        assert len(trace) == 3
        memo = RewriteMemo(schema)
        assert memo.strategy_nf(w, 0) is None
        assert not memo.nf
        assert memo.strategy_nf(w, 2) is None
        assert len(memo.nf) == 1
        # with one atom kept, a second walk meets the two others and keeps
        # them, within the cap of two
        got, steps = memo.strategy_nf(w, 2)
        assert _words(got) == nf.terms and steps == 2
        assert len(memo.nf) == 3 and got is memo.nf[a]
        # every atom kept, the word is given at any cap, a cap of 0 too
        assert memo.strategy_nf(w, 0) == (got, 0)
        # the cap bounds each call's walks, not the memo: once the memo
        # holds more atoms than the cap, a kept normal form is still given
        other = parse("[[x y] x]", XY)
        other_nf, _ = normal_form(OPoly.from_word(other), schema)
        assert _words(memo.strategy_nf(other, 100)[0]) == other_nf.terms
        assert len(memo.nf) > 3
        assert memo.strategy_nf(w, 3) == (got, 0)
        # the walks of a word share the cap: the second [[x y]] of a fresh
        # memo finds its atom kept by the first's walk, so the word takes
        # three steps
        two = Word((a, a))
        fresh = RewriteMemo(schema)
        got, steps = fresh.strategy_nf(two, 100)
        assert steps == 3 and len(fresh.nf) == 3
        assert _words(got) == normal_form(OPoly.from_word(two), schema)[0].terms
        assert RewriteMemo(schema).strategy_nf(two, 2) is None


def test_concat_merges_equal_concatenations():
    # x y z arises from (x) (y z) and from (x y) (z), so its coefficients
    # add; a pair cancelling there leaves no term, and the terms come in
    # the order of the left factor's, then the right factor's
    x, y, z = "x", "y", "z"
    left = {(x,): 2, (x, y): Fraction(1, 2), (y,): 1}
    right = {(y, z): 3, (z,): 1}
    assert list(opalg.rewrite._concat(left, right).items()) == [
        ((x, y, z), Fraction(13, 2)), ((x, z), 2), ((x, y, y, z), Fraction(3, 2)),
        ((y, y, z), 3), ((y, z), 1)]
    assert opalg.rewrite._concat({(x,): 2, (x, y): -1},
                                 {(y, z): 1, (z,): 2}) == {
        (x, z): 4, (x, y, y, z): -1}
    one = {(): 1}
    assert opalg.rewrite._concat(one, right) == right
    assert opalg.rewrite._concat(left, one) == left


BASIS_BOUND = TruncationBound(2, 1, 2)
BASIS_SYSTEM = GeneratorSystem(DER, OrderConfig(BASIS_BOUND.generator_set()))


def _basis_job(check):
    return lambda: check(BASIS_SYSTEM, BASIS_BOUND, rng=random.Random(1))


@functools.cache
def _dt1_classification():
    return classify(build_ansatz(DIFFERENTIAL, 1))


# every entry point, which opens a job scope of its own; a scope closed
# with no other open empties the job's memos, and prunes the word table of
# the words nothing else holds when it is over its threshold
ENTRY_POINTS = {
    "gsb_check_truncated": _basis_job(gsb_check_truncated),
    "cdl_direct_sum_check": _basis_job(cdl_direct_sum_check),
    "irr_enumerate": lambda: irr_enumerate(BASIS_SYSTEM, BASIS_BOUND),
    "dt_check": lambda: dt_check(DER.pattern),
    # rejected by its shape before any rewriting
    "dt_check of y x [x]": lambda: dt_check(parse_opoly("y x [x]", XY)),
    "rbt_check": lambda: rbt_check(AVG.pattern),
    "extract_constraints": lambda: extract_constraints(
        build_ansatz(DIFFERENTIAL, 1)),
    "classify": lambda: classify(build_ansatz(DIFFERENTIAL, 1)),
    "match_catalog": lambda: match_catalog(_dt1_classification(), samples=1,
                                           rng=random.Random(0)),
    "check_monomial_order": lambda: check_monomial_order(
        OrderConfig(XY, "deglenlex"), 200),
    "enumerate_words": lambda: enumerate_words(XY, 3, 2),
    "normal_form": lambda: normal_form(
        OPoly.from_word(parse("[x y] [x y]", XY)), der_schema(XY)),
    "reduces_to_zero": lambda: _search_defect(der_schema(UVW)),
    "joinable": lambda: _search_pair(_right_twisted_schema()),
    "local_confluence_check": lambda: _search_peaks(der_schema(UVW)),
}


@pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
def test_a_job_leaves_the_word_table_empty(entry):
    # the first call fills first-use caches (an identity's compiled plans,
    # say); a word built with no scope open waits in the table until the
    # next outermost scope closes, and a word the caller holds stays the one
    # word of its atom tuple whatever the close does; a forced prune leaves
    # no word of the job but those its result holds
    ENTRY_POINTS[entry]()
    before = parse("[x y] [x]", XY)
    assert opalg.words._TABLE
    result = ENTRY_POINTS[entry]()
    assert not job.memos
    assert_table_within_bound()
    assert parse("[x y] [x]", XY) is before
    close_a_job()
    assert parse("[x y] [x]", XY) is before
    del result


def test_a_job_the_caller_keeps_keeps_the_word_table():
    schema = der_schema(XY)
    with job():
        words = enumerate_words(XY, 4, 3)
        assert not dt_check(parse_opoly("y x [x]", XY)).accepted
        assert dt_check(DER.pattern).accepted
        nf, _ = normal_form(OPoly.from_word(parse("[x y]", XY)), schema)
        assert all(Word(w.atoms) is w for w in words)
        assert [parse(to_str(m), XY) is m for m in nf.terms] == [True, True]
        assert job.memos[schema] is job_memo(schema)
        assert all(isinstance(k, RuleSchema) for k in job.memos)
    assert not job.memos
    assert_table_within_bound()
    close_a_job()
    assert all(Word(w.atoms) is w for w in words)
    assert [parse(to_str(m), XY) is m for m in nf.terms] == [True, True]


def _unknown_strategy_calls():
    """Every call of an entry point that takes a strategy, each reaching
    the strategy by a different path, under the unknown strategy "ri"."""
    der, avg = RuleSchema(DER), RuleSchema(AVG)
    x_y = OPoly.from_word(parse("[x y]", XY))
    ring = PolyRing(("b", "c", "e"))
    return {
        "normal_form": lambda: normal_form(x_y, der, "ri"),
        "normal_form of zero": lambda: normal_form(OPoly.zero(), avg, "ri"),
        "dt_check accepting": lambda: dt_check(DER.pattern, strategy="ri"),
        "dt_check rejecting": lambda: dt_check(parse_opoly("y [x]", XY),
                                               strategy="ri"),
        "dt_check constrained": lambda: dt_check(
            parse_opoly("b*x [y] + b*[x] y + c*[x] [y] + e*x y", XY,
                        ring=ring), [ring.parse("b^2 - c*e")],
            strategy="ri"),
        "dt_check of zero": lambda: dt_check(OPoly.zero(), strategy="ri"),
        "rbt_check accepting": lambda: rbt_check(AVG.pattern, strategy="ri"),
        "rbt_check by the span": lambda: rbt_check(
            parse_opoly("2*[y x] + 2*x [y] + 2*y [x]", XY), strategy="ri"),
        "rbt_check symbolic": lambda: rbt_check(
            parse_opoly("[x] y + [x y] + [y] x", XY, ring=ring),
            strategy="ri"),
        "rbt_check of zero": lambda: rbt_check(OPoly.zero(), strategy="ri"),
    }


@pytest.mark.parametrize("name", sorted(_unknown_strategy_calls()))
def test_an_unknown_strategy_raises(name):
    # the strategy is checked before any reduction, so a zero polynomial
    # or defect, which takes no step, is refused too
    with pytest.raises(ValueError, match="unknown strategy 'ri'"):
        _unknown_strategy_calls()[name]()


def test_normal_form_matches_reference_under_constraints():
    ident = FAMILIES["dt1"].identity()
    schema = RuleSchema(ident, order=OrderConfig(UVW))
    assert schema.constraint_gb is not None
    defect = generic_defect(ident)
    for strategy in ("lo", "li"):
        for cap in (0, 1, 5, 100000):
            trace = assert_same_as_reference(defect, schema, strategy, cap)
        # the defect vanishes only modulo b^2 = b + c e
        assert trace.status == NORMAL_FORM
        assert normal_form(defect, schema, strategy)[0].is_zero
    rng = random.Random(17)
    ring = ident.ring
    coeffs = [ring.parse(t) for t in ("b", "b^2", "b^2 - b", "c*e", "1")]
    xy_schema = RuleSchema(ident, order=OrderConfig(XY))
    for _ in range(20):
        p = OPoly({sample_word(rng, XY, 4, 2): rng.choice(coeffs)
                   for _ in range(rng.randint(1, 3))}, ring=ring)
        for cap in (0, 1, 5, 100000):
            assert_same_as_reference(p, xy_schema, "lo", cap)


# the degree-2 differential defect reduction, the largest of the classify
# workload: 34 defect monomials, 228 heap steps, 509 equations.  The heap's
# trace is pinned by reducing the defect directly; the extraction reads the
# memo's atom-factorized normal forms and must call no normal_form at all
_DT2_JOB = """
import hashlib, importlib, json
from opalg.gsb import UVW, generic_defect
from opalg.opoly import DIFFERENTIAL
from opalg.ordering import OrderConfig
from opalg.rewrite import RuleSchema, normal_form
from opalg.words import job, to_str

# the package exports a function named classify, which hides the module
classify = importlib.import_module("opalg.classify")
ansatz = classify.build_ansatz(DIFFERENTIAL, 2)
with job():
    ident = ansatz.identity()
    _, trace = normal_form(generic_defect(ident),
                           RuleSchema(ident, order=OrderConfig(UVW)), "lo", 4000)
    steps = "\\n".join(f"{to_str(s.monomial)} | {to_str(s.context)} | "
                        f"{to_str(s.a)} | {to_str(s.b)} | {s.coeff}"
                        for s in trace.steps)

calls = [0]
original = classify.normal_form

def counted(*args, **kwargs):
    calls[0] += 1
    return original(*args, **kwargs)

classify.normal_form = counted
system = classify.extract_constraints(ansatz)
described = "\\n".join(
    [f"{len(system.equations)} constraints "
     f"({len(system.unresolved())} unresolved), strategy lo"]
    + ["  " + eq.describe() for eq in system.equations])
print(json.dumps({
    "steps": len(trace.steps), "status": trace.status,
    "equations": len(system.equations), "normal_form_calls": calls[0],
    "steps_sha256": hashlib.sha256(steps.encode()).hexdigest(),
    "describe_sha256": hashlib.sha256(described.encode()).hexdigest(),
}))
"""


def test_degree2_defect_reduction_is_frozen(run_job):
    # also under hash seeds 0 and 5, those of the basis checks' work test
    first, *others = (run_job(_DT2_JOB, hash_seed=seed)
                      for seed in (0, 1, 3, 5))
    assert others == [first] * 3
    assert first == {
        "steps": 228, "status": NORMAL_FORM, "equations": 509,
        "normal_form_calls": 0,
        "steps_sha256": "51b177cf0bbaf77ba6b66e55260deb904f6ab157fbcaf9697b21b2c2bd9db1a0",
        "describe_sha256": "542640923c362994ca38be8e8cc0dc122f19f314651676f5b75024595663d7aa",
    }


def render(trace) -> str:
    """One line per step of a reduction trace, then its status."""
    lines = []
    for n, s in enumerate(trace.steps, 1):
        lines.append(f"{n}. {to_str(s.monomial)}  at  {to_str(s.context)}"
                     f"  with  ({to_str(s.a)}, {to_str(s.b)})")
    lines.append(f"status: {trace.status}")
    if trace.order_violations:
        lines.append(f"order violations: {len(trace.order_violations)}")
    return "\n".join(lines)


def redex_measure(p: OPoly, schema: RuleSchema):
    """Nested multiset of redex sizes: per monomial, the descending tuple of
    deg values of matched subterms; overall, the descending tuple of those.

    Tuples of naturals sorted descending compare under Python's tuple order
    exactly as the multiset order, so strict decrease is a plain ``<``.
    """
    per = []
    for w in p.terms:
        sizes = sorted((r.a.deg + r.b.deg for r in find_redexes(w, schema)),
                       reverse=True)
        if sizes:
            per.append(tuple(sizes))
    return tuple(sorted(per, reverse=True))


def test_trace_render_mentions_rule_arguments():
    p = OPoly.from_word(parse("[x y]", XY))
    _, trace = normal_form(p, der_schema(XY))
    text = render(trace)
    assert "[x y]" in text and "⋆" in text


def test_redex_measure_empty_at_normal_form():
    schema = der_schema(XYZ)
    p = OPoly.from_word(parse("[x y z]", XYZ))
    before = redex_measure(p, schema)
    assert before == ((3, 3),)  # two splits of the degree-3 content
    nf, _ = normal_form(p, schema)
    assert redex_measure(nf, schema) == ()
    assert before > ()


def test_redex_measure_tuple_order_examples():
    # native tuple comparison implements the descending multiset order
    assert (3, 1) > (3,)
    assert (2, 2) < (3,)
    assert (3, 2, 1) > (3, 2)


# -- reduces_to_zero and joinable ----------------------------------------------------

def test_derivation_defect_reduces_to_zero():
    schema = RuleSchema(DER, order=OrderConfig(UVW))
    u, v, w = (Word(("u",)), Word(("v",)), Word(("w",)))
    defect = DER.pattern_at(u * v, w) - DER.pattern_at(u, v * w)
    verdict = reduces_to_zero(defect, schema)
    assert verdict.is_yes
    assert "2 steps" in verdict.detail


def test_right_twisted_defect_is_certified_nonzero():
    ident = OpIdentity(DIFFERENTIAL, parse_opoly("y [x]", XY))
    schema = RuleSchema(ident, order=OrderConfig(UVW))
    u, v, w = (Word(("u",)), Word(("v",)), Word(("w",)))
    defect = ident.pattern_at(u * v, w) - ident.pattern_at(u, v * w)
    assert to_str_opoly(defect, OrderConfig(UVW)) == "w [u v] - v w [u]"
    verdict = reduces_to_zero(defect, schema)
    assert verdict.kind == Verdict.NO
    assert to_str_opoly(verdict.witness, OrderConfig(UVW)) == "w v [u] - v w [u]"
    # identifying the outer arguments turns the witness into the familiar
    # commutator obstruction (u v - v u) [u]
    collapsed = verdict.witness.subst_generators({"w": Word(("u",))})
    expect = parse_opoly("u v [u] - v u [u]", UVW)
    assert collapsed == expect


def test_zero_is_zero():
    schema = der_schema(XY)
    verdict = reduces_to_zero(OPoly.zero(), schema)
    assert verdict.is_yes and "0 steps" in verdict.detail


def test_step_cap_gives_inconclusive():
    # the normal-form path: an unconstrained differential-shape defect
    verdict = dt_check(parse_opoly("y [x]", XY), step_cap=0).verdict
    assert (verdict.kind, verdict.detail) == (
        Verdict.INCONCLUSIVE, "step cap 0 exceeded")


def test_step_cap_gives_inconclusive_before_the_search(monkeypatch):
    # the search path: a constrained defect; a capped strategy path ends
    # the check before any search
    monkeypatch.setattr(opalg.rewrite, "_explore", None)
    ring = PolyRing(("b", "c", "e"))
    pattern = parse_opoly("b*x [y] + b*[x] y + c*[x] [y] + e*x y", XY,
                          ring=ring)
    verdict = dt_check(pattern, [ring.parse("b^2 - c*e")],
                       step_cap=0).verdict
    assert (verdict.kind, verdict.detail) == (
        Verdict.INCONCLUSIVE, "step cap 0 exceeded")


def test_explore_budget_bounds_distinct_polynomials(monkeypatch):
    # the defect reaches exactly 8 distinct polynomials, none of them zero
    ident = OpIdentity(DIFFERENTIAL, parse_opoly("[y] x - x [y] + y [x]", XY))
    schema = RuleSchema(ident, order=OrderConfig(UVW))
    defect = generic_defect(ident)
    monkeypatch.setattr(opalg.rewrite, "EXPLORE_BUDGET", 8)
    full = reduces_to_zero(defect, schema)
    assert (full.kind, full.detail) == (
        Verdict.NO, "all 8 reachable polynomials nonzero")
    monkeypatch.setattr(opalg.rewrite, "EXPLORE_BUDGET", 7)
    short = reduces_to_zero(defect, schema)
    assert (short.kind, short.detail) == (
        Verdict.INCONCLUSIVE, "exploration budget 7 exceeded")
    assert short.witness == full.witness


def _tower(depth):
    """``[...[x y]...]``, ``depth`` brackets deep."""
    w = Word(("x", "y"))
    for _ in range(depth):
        w = Word((w,))
    return w


def test_rewriting_past_the_depth_cap_is_a_resource_limit():
    # the average rule fuses [x] [T] to [x [T]], one level deeper
    schema = RuleSchema(named_pattern("average"))
    w = Word((Word(("x",)), _tower(MAX_DEPTH - 1)))
    assert w.depth() == MAX_DEPTH
    p = OPoly.from_word(w)
    for run in (normal_form, reduces_to_zero):
        with pytest.raises(ResourceLimit, match=f"^{re.escape(TOO_NESTED)}$"):
            run(p, schema)


def test_joinable_by_difference():
    schema = der_schema(XYZ)
    f = OPoly.from_word(parse("[x y]", XYZ))
    g = parse_opoly("[x] y + x [y]", XYZ)
    verdict = joinable(f, g, schema)
    assert verdict.is_yes
    assert joinable(f, f, schema).is_yes


def test_joinable_no_for_distinct_normal_forms():
    schema = der_schema(XYZ)
    f = OPoly.from_word(parse("x", XYZ))
    g = OPoly.from_word(parse("y", XYZ))
    verdict = joinable(f, g, schema)
    assert verdict.kind == Verdict.NO


# Kind, detail and witness of ``joinable`` with ``EXPLORE_BUDGET`` at 50
# on every pair of one-step reducts of every word with at most 3 leaves and
# depth at most 2 over u, v, w (no unit brackets), for two differential-shape
# schemas; recorded before the exhaustive search was rewritten.  The second
# schema reaches every outcome of ``joinable``, a zero found by search
# included.
with open(os.path.join(os.path.dirname(__file__), "frozen_peaks.json"),
          encoding="utf-8") as _f:
    FROZEN_PEAKS = json.load(_f)


def _peak_verdicts(schema):
    rows = []
    for w in enumerate_words(UVW, 3, 2, include_unit_brackets=False,
                             include_unit=False):
        reducts = [schema.replacement(r) for r in find_redexes(w, schema)]
        for i in range(len(reducts)):
            for j in range(i + 1, len(reducts)):
                v = joinable(reducts[i], reducts[j], schema)
                witness = None if v.witness is None else to_str_opoly(v.witness)
                rows.append([to_str(w), i, j, v.kind, v.detail, witness])
    return rows


@pytest.mark.parametrize("text", ["y [x]", "[y] x - x [y] + y [x]"])
def test_peak_verdicts_are_frozen(text, monkeypatch):
    monkeypatch.setattr(opalg.rewrite, "EXPLORE_BUDGET", 50)
    ident = OpIdentity(DIFFERENTIAL, parse_opoly(text, XY))
    rows = _peak_verdicts(RuleSchema(ident, order=OrderConfig(UVW)))
    assert len(rows) == 351
    assert rows == FROZEN_PEAKS[text]


# Kind, detail and witness (terms in the witness's own order) of
# ``dt_check`` / ``rbt_check`` on every 1-, 2- and 3-term support of the
# degree-1 ansatz of each shape with all coefficients 1; recorded before the
# search memoised replacements.  A "no" detail states how many steps the
# strategy took for ``dt_check``, which runs no search, and the rewrite
# steps and closure words of the span certificate for ``rbt_check``, which
# decides every such rejection with no search.
with open(os.path.join(os.path.dirname(__file__), "frozen_searches.json"),
          encoding="utf-8") as _f:
    FROZEN_SEARCHES = json.load(_f)


def _verdict_row(verdict):
    witness = None if verdict.witness is None else [
        [to_str(w), str(c)] for w, c in verdict.witness.terms.items()]
    return [verdict.kind, verdict.detail, witness]


def _check_verdicts(mode):
    check = dt_check if mode == DIFFERENTIAL else rbt_check
    words = [w for _, w in build_ansatz(mode, 1).terms]
    rows = []
    for k in (1, 2, 3):
        for support in itertools.combinations(words, k):
            pattern = OPoly({w: 1 for w in support})
            rows.append([to_str_opoly(pattern)]
                        + _verdict_row(check(pattern).verdict))
    return rows


@pytest.mark.parametrize("mode", [DIFFERENTIAL, ROTA_BAXTER])
def test_check_verdicts_are_frozen(mode):
    rows = _check_verdicts(mode)
    assert len(rows) == 8 + 28 + 56
    assert rows == FROZEN_SEARCHES[mode]


def _verify_workload():
    """The benchmark's workload module, loaded from its file."""
    path = os.path.join(os.path.dirname(os.path.dirname(__file__)),
                        "perfbench", "workloads.py")
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _requests(mode):
    """(pattern, constraints) of every request of ``mode`` in the ``verify``
    workload at seeds 11 and 201, then of every frozen support."""
    workloads = _verify_workload()
    check = "dt_check" if mode == DIFFERENTIAL else "rbt_check"
    for seed in (11, 201):
        for op in workloads.Verify(opalg, seed, "full", {}).ops():
            if op.target == check:
                yield op.args
    for row in FROZEN_SEARCHES[mode]:
        yield parse_opoly(row[0], XY), ()


def _agrees_with_the_search(report, ident, order):
    """``report``'s accept flag, inconclusive flag and witness are those of
    ``reduces_to_zero`` on the identity's defect; returns the search's
    verdict."""
    search = reduces_to_zero(generic_defect(ident), RuleSchema(ident, order))
    witness = None if search.witness is None else list(
        search.witness.terms.items())
    got = None if report.witness is None else list(
        report.witness.terms.items())
    assert (search.is_yes, search.kind == Verdict.INCONCLUSIVE,
            witness) == (report.accepted, report.inconclusive, got)
    return search


def test_dt_verdicts_agree_with_the_search():
    # the search is the oracle of ``dt_check``'s normal-form verdicts: no
    # differential-type defect reaches zero on an explored branch alone
    checked = searched = 0
    for pattern, constraints in _requests(DIFFERENTIAL):
        report = dt_check(pattern, constraints)
        if report.verdict is None:
            continue  # a pattern of the wrong shape
        ident = OpIdentity(DIFFERENTIAL, pattern, tuple(constraints))
        search = _agrees_with_the_search(report, ident, OrderConfig(UVW))
        checked += 1
        searched += search.detail.startswith("all ")
    assert (checked, searched) == (1052, 727)


def test_rbt_verdicts_agree_with_the_search():
    # the search is the oracle of ``rbt_check``'s span certificates: a
    # rejection outside the span is one the search finds exhaustively; the
    # certificates' rewrite steps and closure words are summed, so a closure
    # that misses a level changes them (no closure word here has a second
    # redex, so the spanned-defect test below guards the other redexes)
    checked = span_decided = steps = words = 0
    for pattern, constraints in _requests(ROTA_BAXTER):
        report = rbt_check(pattern, constraints)
        if report.verdict is None:
            continue  # a pattern of the wrong shape
        ident = OpIdentity(ROTA_BAXTER, pattern, tuple(constraints))
        search = _agrees_with_the_search(report, ident, None)
        checked += 1
        span = re.fullmatch(r"outside the span of (\d+) rewrite steps on "
                            r"(\d+) words", report.verdict.detail)
        if span:
            assert search.detail.startswith("all ")
            span_decided += 1
            steps += int(span[1])
            words += int(span[2])
    assert (checked, span_decided, steps, words) == (1168, 693, 1192, 7275)


def test_span_certificate_leaves_a_spanned_defect_to_the_search():
    # 2 [u v w] - v w [u] - w v [u] is the sum of the three rewrite steps
    # of its closure, yet none of its 4 reachable polynomials is zero
    schema = _right_twisted_schema()
    p = parse_opoly("2*[u v w] - v w [u] - w v [u]", UVW)
    with job():
        assert _span_certificate(p, job_memo(schema)) is None
        verdict = reduces_to_zero(p, schema)
    assert (verdict.kind, verdict.detail) == (
        Verdict.NO, "all 4 reachable polynomials nonzero")


def test_span_certificate_leaves_a_closure_past_the_budget_to_the_search(
        monkeypatch):
    # the Rota-Baxter row of ``test_type_checks_report_exhausted_search``:
    # its closure has 27 words, so at a budget of 5 the search decides it
    ident = OpIdentity(ROTA_BAXTER,
                       parse_opoly("2*[y x] + 2*x [y] + 2*y [x]", XY))
    schema = RuleSchema(ident)
    with job():
        defect = generic_defect(ident)
        memo = job_memo(schema)
        assert _span_certificate(defect, memo) == (6, 27)
        monkeypatch.setattr(opalg.rewrite, "EXPLORE_BUDGET", 26)
        assert _span_certificate(defect, memo) is None
    monkeypatch.setattr(opalg.rewrite, "EXPLORE_BUDGET", 5)
    verdict = rbt_check(ident.pattern).verdict
    assert (verdict.kind, verdict.detail) == (
        Verdict.INCONCLUSIVE, "exploration budget 5 exceeded")


def _right_twisted_schema():
    ident = OpIdentity(DIFFERENTIAL, parse_opoly("y [x]", XY))
    return RuleSchema(ident, order=OrderConfig(UVW))


def _search_defect(schema):
    defect = generic_defect(schema.identity)
    return reduces_to_zero(defect, schema).kind


def _search_pair(schema):
    # no common reduct, so both reach sets are searched; both meet the words
    # [u v], v [u] and u, and the difference search meets u; only [u v] is
    # reducible
    f, g = (parse_opoly(text, UVW) for text in ("[u v] + u", "[u v] + 2*u"))
    return joinable(f, g, schema).kind


def _search_peaks(schema):
    return local_confluence_check(schema, UVW, max_leaves=3,
                                  max_depth=1).summary()


# each rewriting job, the most times it may ask for one word's redexes: the
# job's memo serves a search call's strategy path and search, and a
# ``joinable`` call's difference search and two reach-set searches; a memo
# asks once per reducible word, and never for an irreducible one, which its
# redex flag answers
SEARCH_JOBS = {"reduces_to_zero": (_search_defect, 1),
               "joinable": (_search_pair, 1),
               "local_confluence_check": (_search_peaks, None)}


def test_search_memo_dies_with_its_call(monkeypatch):
    schema = _right_twisted_schema()
    asked = []
    original = opalg.rewrite.find_redexes

    def counted(w, schema):
        asked.append(w)
        return original(w, schema)

    monkeypatch.setattr(opalg.rewrite, "find_redexes", counted)
    for job, (run, most) in SEARCH_JOBS.items():
        runs = []
        for _ in range(2):
            asked.clear()
            runs.append((run(schema), list(asked)))
        assert runs[0][1] and runs[0] == runs[1], job
        if most is not None:
            assert max(collections.Counter(asked).values()) == most, job
            assert not any(in_reduced_form(w, True) for w in asked), job


# rejecting certifications, each with its (pattern, parameters, constraints)
# and its verdict's detail: the span certificate decides the Rota-Baxter
# ones, and the constrained differential-type one runs the exhaustive search
REJECTIONS = (
    ("rbt_check", "[x] y + [x y] + [y] x", "", (),
     "outside the span of 6 rewrite steps on 27 words"),
    ("rbt_check", "[y x] + x [y] + y [x]", "", (),
     "outside the span of 6 rewrite steps on 27 words"),
    ("rbt_check", "[x y] + x [y] + y [x]", "", (),
     "outside the span of 6 rewrite steps on 27 words"),
    ("rbt_check", "[x] y + [y] x + [y x]", "", (),
     "outside the span of 6 rewrite steps on 27 words"),
    ("dt_check", "b*x [y] + b*[x] y + c*[x] [y] + e*x y", "b c e",
     ("b^2 - c*e",), "all 16 reachable polynomials nonzero"),
)

_HASH_SEED_JOB = """
import json, sys
import opalg.rewrite as rewrite
from opalg.coeffs import PolyRing
from opalg.gsb import dt_check, rbt_check
from opalg.opoly import DIFFERENTIAL, OpIdentity, parse_opoly
from opalg.ordering import OrderConfig
from opalg.words import GeneratorSet

work = {"find_redexes": 0, "explored_polys": 0}

def counting(fn, name):
    def wrapper(*args, **kwargs):
        work[name] += 1
        return fn(*args, **kwargs)
    return wrapper

for attr, name in (("find_redexes", "find_redexes"),
                   ("_one_step_reducts", "explored_polys")):
    original = getattr(rewrite, attr)
    wrapped = counting(original, name)
    for mod_name, module in list(sys.modules.items()):
        if mod_name.startswith("opalg") and getattr(module, attr, None) is original:
            setattr(module, attr, wrapped)

XY = GeneratorSet(("x", "y"))
UVW = GeneratorSet(("u", "v", "w"))
checks = {"dt_check": dt_check, "rbt_check": rbt_check}
details = []
for check, text, params, constraints in json.loads(sys.argv[1]):
    ring = PolyRing(params.split()) if params else None
    report = checks[check](parse_opoly(text, XY, ring=ring),
                           [ring.parse(c) for c in constraints])
    details.append([report.accepted, report.verdict.detail])
ident = OpIdentity(DIFFERENTIAL, parse_opoly("y [x]", XY))
conf = rewrite.local_confluence_check(
    rewrite.RuleSchema(ident, order=OrderConfig(UVW)), UVW,
    max_leaves=3, max_depth=1)
print(json.dumps({"details": details, "summary": conf.summary(),
                  "counts": [conf.words_checked, conf.peaks_checked,
                             len(conf.nonjoinable), len(conf.inconclusive)],
                  "work": work}))
"""


def test_search_work_does_not_depend_on_hash_seed(run_job):
    rows = [row[:4] for row in REJECTIONS]
    first, second = (run_job(_HASH_SEED_JOB, json.dumps(rows), hash_seed=seed)
                     for seed in (1, 3))
    assert first["details"] == second["details"] == [
        [False, row[4]] for row in REJECTIONS]
    assert first["counts"] == second["counts"] == [562, 27, 18, 0]
    assert first["work"] == second["work"]
    assert first["work"]["explored_polys"] > 0


# -- local confluence ----------------------------------------------------------------

def test_derivation_locally_confluent_at_bound():
    report = local_confluence_check(der_schema(XYZ), XYZ,
                                    max_leaves=3, max_depth=2)
    assert report.ok
    assert report.words_checked == 3294
    assert report.peaks_checked == 496
    assert report.nonjoinable == []
    assert report.inconclusive == []
    assert "496" in report.summary()


def test_right_twisted_not_locally_confluent():
    ident = OpIdentity(DIFFERENTIAL, parse_opoly("y [x]", XY))
    schema = RuleSchema(ident, order=OrderConfig(UVW))
    report = local_confluence_check(schema, UVW, max_leaves=3, max_depth=1)
    assert not report.ok
    assert report.words_checked == 562
    assert report.peaks_checked == 27
    assert len(report.nonjoinable) == 18
    peak_words = {to_str(w) for w, _, _ in report.nonjoinable}
    assert "[u u v]" in peak_words


def test_peak_cap_raises():
    with pytest.raises(ResourceLimit):
        local_confluence_check(der_schema(XYZ), XYZ, max_leaves=3, max_depth=2,
                               peak_cap=10)
