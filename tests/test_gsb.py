"""Composition checks, truncated basis checks, and type certificates."""

import functools
import json
import os
import random
import re
import sys
from fractions import Fraction
from types import SimpleNamespace

import pytest

import opalg.rewrite
import opalg.words
from opalg import gsb
from opalg.catalog import DT_FAMILIES, RBT_FAMILIES, named_pattern
from opalg.classify import build_ansatz
from opalg.coeffs import MAX_DEPTH, PolyRing, _add_scaled_into
from opalg.gsb import (D_TOO_DEEP, UVW, CompositionRecord, GeneratorSystem,
                       NFCache, TruncationBound, cdl_direct_sum_check,
                       delta_view, dt_check, free_dt_operator_nf,
                       gsb_check_truncated, INCLUDING, INTERSECTION,
                       irr_enumerate, is_trivial, raise_order, rbt_check)
from opalg.opoly import (DIFFERENTIAL, ROTA_BAXTER, OPoly, OpIdentity,
                         parse_opoly, to_str_opoly)
from opalg.ordering import GREATER, OrderConfig, order_key, random_context
from opalg.rewrite import (NORMAL_FORM, NotDRF, ResourceLimit, RewriteMemo,
                           RuleSchema, Verdict, find_redexes, in_reduced_form,
                           normal_form)
from opalg.words import (STAR, GeneratorSet, Word, bracket, enumerate_words,
                         job, parse, splice, to_str, word_sort_key)
from test_ordering import reference_compare
from test_words import (_with_headroom, close_a_job,
                        reference_replace_generators)

XY = GeneratorSet(("x", "y"))
DER = named_pattern("derivation")


def instance(ident: OpIdentity, u: Word, v: Word) -> OPoly:
    """phi(u, v) = [u v] - N(u, v): the identity polynomial [x y] - N with
    u and v put in for x and y."""
    lhs = OPoly.from_word(parse("[x y]", XY), ring=ident.ring)
    return (lhs - ident.pattern).subst_generators({"x": u, "y": v})


def into_context(p: OPoly, q: Word) -> OPoly:
    """q|p: each word of ``p`` filled into the star of the context word
    ``q``."""
    out = {}
    for w, c in p.terms.items():
        _add_scaled_into(out, {reference_replace_generators(q, {STAR: w}): c})
    return OPoly(out, ring=p.ring)


# -- generator systems ---------------------------------------------------------------

def test_generator_system_instance():
    bound = TruncationBound(3, 2, 3)
    sys = GeneratorSystem(DER, OrderConfig(bound.generator_set()))
    u = parse("u", bound.generator_set())
    v = parse("[v] w", bound.generator_set())
    inst = instance(sys.identity, u, v)
    lead = max(inst.terms, key=order_key(sys.order))
    assert lead == Word((u * v,)) and inst.terms[lead] == 1
    assert to_str_opoly(inst, sys.order) == "[u [v] w] - [u] [v] w - u [[v] w]"


def test_generator_system_rejects_pi_identity():
    with pytest.raises(ValueError):
        GeneratorSystem(named_pattern("average"), OrderConfig(XY))


def test_truncation_bound_validation():
    with pytest.raises(ValueError):
        TruncationBound(0, 2, 3)
    with pytest.raises(ValueError):
        TruncationBound(3, 2, 99)
    # a depth of 0 is a bound of flat words; only a negative one is refused
    with pytest.raises(ValueError, match="depth >= 0"):
        TruncationBound(3, -1, 3)
    assert TruncationBound(3, 0, 3).max_depth == 0
    assert "breadth <= 3" in TruncationBound(3, 2, 3).describe()


# -- truncated basis check -----------------------------------------------------------

def test_transfer_and_concrete_modes_agree_small():
    # the transfer certificate reduces one generic triple and a sample; the
    # concrete evidence for it is that every triple at the bound reduces
    # to zero through the same is_trivial path
    bound = TruncationBound(2, 1, 3)
    sys = GeneratorSystem(DER, OrderConfig(bound.generator_set()))
    words = enumerate_words(bound.generator_set(), 2, 1,
                            include_unit_brackets=False, include_unit=False)
    cache = NFCache(sys, 100000)
    triples = [(r, s, t) for s in words for r in words for t in words
               if r.leaves + s.leaves <= 2 and s.leaves + t.leaves <= 2]
    assert len(triples) == 216
    for r, s, t in triples:
        value = DER.pattern_at(r, s * t) - DER.pattern_at(r * s, t)
        comp = CompositionRecord(INTERSECTION, Word((r * s * t,)), value)
        assert is_trivial(comp, cache) == "trivial", comp.describe()
    assert cache.order_violations == 0
    rep = gsb_check_truncated(sys, bound)
    assert rep.ok and rep.certify == "transfer"
    assert rep.intersections_checked == 216
    assert rep.including_configs == 18
    assert rep.trivial_count == 216 + 18 * 51
    assert rep.order_violations == 0
    assert rep.intersections_reduced < 216


def _listed_triples(bound):
    """Every intersection triple in the order gsb_check_truncated once
    listed them, kept as the reference for its index decoding."""
    words = enumerate_words(bound.generator_set(), bound.max_breadth,
                            bound.max_depth, include_unit_brackets=False,
                            include_unit=False)
    by_leaves = {}
    for w in words:
        by_leaves.setdefault(w.leaves, []).append(w)
    triples = []
    for ls in sorted(by_leaves):
        sides = [w for l in sorted(by_leaves) if l <= bound.max_breadth - ls
                 for w in by_leaves[l]]
        triples.extend((r, s, t) for s in by_leaves[ls] for r in sides
                       for t in sides)
    return triples


@pytest.mark.parametrize("bound", [(3, 1, 3), (2, 1, 2)])
def test_checked_triples_match_the_listed_triples(bound, monkeypatch):
    bound = TruncationBound(*bound)
    checked = []
    original = gsb.associativity_defect

    def recording(identity, r, s, t):
        checked.append((r, s, t))
        return original(identity, r, s, t)

    monkeypatch.setattr(gsb, "associativity_defect", recording)
    system = GeneratorSystem(DER, OrderConfig(bound.generator_set()))
    report = gsb_check_truncated(system, bound, rng=random.Random(5))
    triples = _listed_triples(bound)
    assert report.intersections_checked == len(triples)
    if report.certify == "concrete":
        assert checked == triples
    else:
        master = tuple(Word((g,)) for g in "uvw")
        picks = random.Random(5).sample(triples, gsb.TRANSFER_SAMPLES)
        assert checked == [master] + picks


@pytest.mark.parametrize("bound", [(3, 1, 3), (2, 2, 3)])
def test_including_leads_fill_the_pattern_only_with_a_nested_redex(
        bound, monkeypatch):
    # phi(u1, v1) is filled once per (host, side) lead that has a nested
    # redex, at the first one, and never for a lead whose redexes are all
    # top-level splits (those are the intersection cases)
    bound = TruncationBound(*bound)
    filled = []
    original = OpIdentity.pattern_at

    def recording(identity, u, v):
        filled.append((u, v))
        return original(identity, u, v)

    monkeypatch.setattr(OpIdentity, "pattern_at", recording)
    system = GeneratorSystem(DER, OrderConfig(bound.generator_set()))
    report = gsb_check_truncated(system, bound, rng=random.Random(5))
    spectator = Word(("zspec",))
    schema = RuleSchema(DER)
    words = enumerate_words(bound.generator_set(), bound.max_breadth,
                            bound.max_depth, include_unit_brackets=False,
                            include_unit=False)
    leads = [(u, v) for host in words
             for u, v in ((host, spectator), (spectator, host))
             if any(len(r.path) > 1
                    for r in find_redexes(bracket(u * v), schema))]
    assert 0 < len(leads) < 2 * len(words)
    assert len(leads) <= report.including_configs
    assert [pair for pair in filled if spectator in pair] == leads


def test_nf_cache_stores_packed_dicts(monkeypatch):
    # rewrite steps and cancelling sums delete from a term dict; the check
    # keeps its memo's atom -> normal form dict, which only grows, each
    # normal form in it, and the words it audited, so nothing it keeps for
    # the life of the check may hold deleted slots
    caches = []
    reduced = []
    heap = []

    class Recording(NFCache):
        __slots__ = ()

        def __init__(self, *args):
            super().__init__(*args)
            caches.append(self)

        def reduce(self, p):
            reduced.extend(p.terms)
            return super().reduce(p)

        def _reduced(self, w):
            heap.append(w)
            return super()._reduced(w)

    monkeypatch.setattr(gsb, "NFCache", Recording)
    bound = TruncationBound(2, 1, 3)
    # the second pattern's normal forms cancel terms as they are summed, and
    # no derivation step descends under deglenlex, so every reducible word
    # of the third check is reduced on the heap
    for ident, mode in ((DER, "purelex"),
                        (_oracle_identity("x y - x [y]"), "purelex"),
                        (DER, "deglenlex")):
        gsb_check_truncated(GeneratorSystem(
            ident, OrderConfig(bound.generator_set(), mode)), bound)
    assert len(caches) == 3 and reduced and heap
    kept = [getattr(cache, name) for cache in caches
            for name in NFCache.__slots__]
    assert not any(isinstance(v, (OPoly, dict)) for v in kept)
    memos = [cache.memo for cache in caches]
    forms = [entry for memo in memos for entry in memo.nf.values()
             if entry is not None]
    assert forms and all(type(nf) is dict for nf in forms)
    assert all(type(atoms) is tuple for nf in forms for atoms in nf)
    entries = [memo.nf for memo in memos] + forms
    assert all(sys.getsizeof(t) == sys.getsizeof(dict(t)) for t in entries)
    # only reducible bracket atoms are kept
    assert all(not in_reduced_form(Word((a,)), True)
               for memo in memos for a in memo.nf)
    # only the words reduced on the heap are audited
    assert set().union(*(cache.audited for cache in caches)) == set(heap)


def test_gsb_report_serialization():
    bound = TruncationBound(2, 1, 2)
    sys = GeneratorSystem(DER, OrderConfig(bound.generator_set()))
    rep = gsb_check_truncated(sys, bound)
    data = rep.to_dict()
    assert data["ok"] is True
    assert data["bound"] == {"max_breadth": 2, "max_depth": 1,
                             "max_generators": 2}
    assert data["nontrivial"] == []
    assert "Groebner-Shirshov" in rep.describe()


def test_gsb_detects_non_basis():
    # y [x] is not differential type, so compositions must fail to resolve
    ident = OpIdentity(DIFFERENTIAL, parse_opoly("y [x]", XY))
    bound = TruncationBound(2, 1, 3)
    sys = GeneratorSystem(ident, OrderConfig(bound.generator_set()))
    rep = gsb_check_truncated(sys, bound)
    assert not rep.ok
    assert rep.nontrivial


@pytest.mark.parametrize("spec", ["derivation", "y [x]"])
def test_both_modes_agree_at_breadth_one(spec):
    # both split arguments of an intersection [r s t] hold a leaf each, so
    # a breadth-1 bound holds no triple, and neither mode reduces one: the
    # transfer master certifies nothing there
    ident = (OpIdentity(DIFFERENTIAL, parse_opoly(spec, XY))
             if spec == "y [x]" else named_pattern(spec))
    reports = []
    for generators in (2, 3):
        bound = TruncationBound(1, 1, generators)
        system = GeneratorSystem(ident, OrderConfig(bound.generator_set()))
        reports.append(gsb_check_truncated(system, bound).to_dict())
    assert [r["certify"] for r in reports] == ["concrete", "transfer"]
    for r in reports:
        assert r["intersections_checked"] == r["intersections_reduced"] == 0
        assert r["nontrivial"] == [] and r["ok"]


def test_gsb_reduction_cap(monkeypatch):
    monkeypatch.setattr(gsb, "MAX_REDUCTIONS", 5)
    bound = TruncationBound(2, 1, 3)
    sys = GeneratorSystem(DER, OrderConfig(bound.generator_set()))
    with pytest.raises(ResourceLimit, match="reduction cap 5 exceeded"):
        gsb_check_truncated(sys, bound)


def _derivation_overlap():
    # phi(x, y x) and phi(x y, x) share the leading word [x y x]
    sys = GeneratorSystem(DER, OrderConfig(XY))
    f = instance(DER, parse("x", XY), parse("y x", XY))
    g = instance(DER, parse("x y", XY), parse("x", XY))
    return sys, [CompositionRecord(INTERSECTION, parse("[x y x]", XY), f - g)]


def test_is_trivial_marks_records():
    sys, comps = _derivation_overlap()
    for comp in comps:
        assert is_trivial(comp, NFCache(sys, 100000)) == "trivial"
        assert comp.residue is None
        assert "trivial" in comp.describe()


def test_is_trivial_step_cap_gives_no_verdict():
    # the cap bounds each word's normal form: at 0 no word of the value can
    # be rewritten, so the reduction is undecided and must raise rather than
    # call the composition nontrivial; one step per word decides it
    sys, comps = _derivation_overlap()
    for comp in comps:
        with pytest.raises(ResourceLimit):
            is_trivial(comp, NFCache(sys, 0))
        assert comp.verdict is None and comp.residue is None
        assert is_trivial(comp, NFCache(sys, 1)) == "trivial"


# -- the per-check rewrite memo against the per-word reference -----------------------

class ReferenceNFCache:
    """The basis check's per-word path before its rewrite memo, kept as the
    oracle: a fresh ``normal_form`` per new word, a word -> normal form
    map, and audits by the recursive ``reference_compare``, which also
    keys the composition audit of ``is_trivial`` through ``memo.key``."""

    def __init__(self, schema, step_cap):
        self.schema = schema
        self.step_cap = step_cap
        self.map = {}
        self.order_violations = 0
        order = schema.order
        self.memo = SimpleNamespace(key=functools.cmp_to_key(
            lambda u, v: reference_compare(u, v, order)))

    def nf_word(self, w):
        hit = self.map.get(w)
        if hit is not None:
            return hit
        word = OPoly.from_word(w, ring=self.schema.identity.ring)
        nf, trace = normal_form(word, self.schema, "lo", self.step_cap)
        if trace.status != NORMAL_FORM:
            raise ResourceLimit(f"step cap {self.step_cap} hit at {to_str(w)}")
        order = self.schema.order
        if order is not None:
            for step in trace.steps:
                if reference_compare(step.monomial, w, order) == GREATER:
                    self.order_violations += 1
        self.map[w] = nf
        return nf

    def reduce(self, p):
        out = {}
        for w, c in p.terms.items():
            _add_scaled_into(out, self.nf_word(w).terms, c)
        return self.schema.normalize(OPoly(out, ring=p.ring))


def _fresh_normal_form(p, schema, strategy="lo", step_cap=100000,
                       monitor=False):
    """``normal_form`` with a memo of its own, as each call had before: the
    job's memo of the schema is dropped first."""
    job.memos.pop(schema, None)
    return normal_form(p, schema, strategy, step_cap, monitor)


def _basis_checks(ident, size, mode, monkeypatch):
    """The report of both checks and every composition's verdict and
    residue, a dict from its words to their coefficients printed."""
    records = []

    def recording(comp, cache):
        verdict = is_trivial(comp, cache)
        residue = comp.residue
        records.append((comp.kind, comp.w, comp.context, verdict, None
                        if residue is None else
                        {w: str(c) for w, c in residue.terms.items()}))
        return verdict

    monkeypatch.setattr(gsb, "is_trivial", recording)
    bound = TruncationBound(*size)
    system = GeneratorSystem(ident, OrderConfig(bound.generator_set(), mode))
    gsb_report = gsb_check_truncated(system, bound, rng=random.Random(4))
    cdl = cdl_direct_sum_check(system, bound, rng=random.Random(5),
                               ideal_samples=30)
    cdl_report = {name: getattr(cdl, name) for name in cdl.__slots__}
    return gsb_report.to_dict(), cdl_report, records


MEMO_ORACLE_CASES = [(spec, size, "purelex")
                     for spec in ("derivation", "endomorphism", "weight:lam",
                                  "y [x]")
                     for size in ((2, 1, 3), (2, 2, 3))]
# a repeated word's steps are audited once: under deglenlex at (2, 2, 3)
# repeats carry violating steps
MEMO_ORACLE_CASES += [("derivation", size, "deglenlex")
                      for size in ((2, 1, 3), (2, 2, 3))]
# non-basis patterns: the memo's sums would order 9 residues of
# ``2*x [y] + 2*[x] y`` otherwise, and normal forms of ``x y - x [y]``
# cancel terms as they are summed
NON_BASIS = ("y [x]", "2*x [y] + 2*[x] y", "x y - x [y]")
MEMO_ORACLE_CASES += [(spec, (2, 1, 3), "purelex") for spec in NON_BASIS[1:]]


def _oracle_identity(spec):
    return (OpIdentity(DIFFERENTIAL, parse_opoly(spec, XY)) if spec in NON_BASIS
            else named_pattern(spec))


@pytest.mark.parametrize("spec, size, mode", MEMO_ORACLE_CASES,
                         ids=[f"{spec}@{','.join(map(str, size))}-{mode}"
                              for spec, size, mode in MEMO_ORACLE_CASES])
def test_basis_checks_match_the_per_word_reference(spec, size, mode,
                                                   monkeypatch):
    ident = _oracle_identity(spec)
    got = _basis_checks(ident, size, mode, monkeypatch)
    monkeypatch.setattr(gsb, "NFCache", ReferenceNFCache)
    monkeypatch.setattr(gsb, "normal_form", _fresh_normal_form)
    want = _basis_checks(ident, size, mode, monkeypatch)
    assert got == want
    report, cdl, records = got
    basis = spec not in NON_BASIS
    assert records and (not report["nontrivial"]) == basis
    assert (not cdl["failures"]) == basis
    if mode == "deglenlex" and size == (2, 1, 3):
        assert report["order_violations"] == 948


def _reducible_atoms(w):
    return sum(1 for a in w.atoms
               if isinstance(a, Word) and Word((a,)).has_bracketed_product)


def _memo_normal_forms(ident, size, mode, monkeypatch):
    """The normal form of each one-atom word whose atom the memo of one
    basis check keeps, and of each word of two or more atoms that the
    check reduced and the memo gives, expanded to words, against a fresh
    ``normal_form`` of the word, with that call's step count, and the
    number of those words that hold two or more reducible atoms."""
    caches = []
    reduced = []

    class Recording(NFCache):
        __slots__ = ()

        def __init__(self, *args):
            super().__init__(*args)
            caches.append(self)

        def reduce(self, p):
            reduced.extend(p.terms)
            return super().reduce(p)

    monkeypatch.setattr(gsb, "NFCache", Recording)
    bound = TruncationBound(*size)
    system = GeneratorSystem(ident, OrderConfig(bound.generator_set(), mode))
    with job():
        gsb_check_truncated(system, bound, rng=random.Random(4))
        (cache,) = caches
        memo = cache.memo
        words = [Word((a,)) for a, kept in memo.nf.items() if kept is not None]
        # the words of two or more atoms whose reducible atoms all have
        # entries, so that reading them walks nothing
        words += [w for w in dict.fromkeys(reduced)
                  if len(w.atoms) > 1 and _reducible_atoms(w)
                  and all(memo.nf.get(a) is not None for a in w.atoms
                          if isinstance(a, Word))]
        pairs = []
        several = 0
        for w in words:
            answer = memo.strategy_nf(w, cache.step_cap)
            if answer is None:
                continue
            got, steps = answer
            # every atom is kept, so no walk runs
            assert steps == 0
            want, trace = _fresh_normal_form(
                OPoly.from_word(w, ring=ident.ring), cache.schema)
            assert trace.status == NORMAL_FORM
            pairs.append((to_str(w), {Word(atoms): c
                                      for atoms, c in got.items()},
                          want.terms, len(trace)))
            several += _reducible_atoms(w) > 1
    return pairs, several


# words holding two or more reducible atoms: 330 of the words endomorphism's
# check reduces at (3, 1, 3)
MEMO_NF_CASES = MEMO_ORACLE_CASES + [("endomorphism", (3, 1, 3), "purelex")]


@pytest.mark.parametrize("spec, size, mode", MEMO_NF_CASES,
                         ids=[f"{spec}@{','.join(map(str, size))}-{mode}"
                              for spec, size, mode in MEMO_NF_CASES])
def test_memo_normal_forms_match_fresh_normal_forms(spec, size, mode,
                                                   monkeypatch):
    pairs, several = _memo_normal_forms(_oracle_identity(spec), size, mode,
                                        monkeypatch)
    for word, got, want, steps in pairs:
        assert got == want, word
        # one term, or the replacement of one step, whose terms are
        # irreducible, comes in normal_form's order
        if len(got) < 2 or steps == 1:
            assert list(got) == list(want), word
    # no derivation step descends under deglenlex
    assert bool(pairs) == (mode == "purelex")
    if size == (3, 1, 3):
        assert several == 330


def _closure_atoms(w, schema):
    """The reducible bracket atoms of ``w`` and of every word that
    leftmost-outermost steps reach from it, each met once."""
    seen = set()
    todo = [w]
    while todo:
        for a in todo.pop().atoms:
            if not isinstance(a, Word) or a in seen:
                continue
            redexes = find_redexes(Word((a,)), schema)
            if redexes:
                seen.add(a)
                todo.extend(schema.replacement(redexes[0]).terms)
    return seen


@pytest.mark.parametrize("spec", ["derivation", "endomorphism"])
def test_factored_steps_count_the_atoms_kept(spec):
    # a word's step count is the atoms its walks newly keep, one rewrite
    # step each: the atoms of its closure the memo did not hold, on every
    # reducible word of the bound and products of them; a second word whose
    # atoms are all kept counts none
    bound = TruncationBound(2, 2, 3)
    system = GeneratorSystem(named_pattern(spec),
                             OrderConfig(bound.generator_set()))
    with job():
        memo = RewriteMemo(system)
        words = enumerate_words(bound.generator_set(), 2, 2)
        words = [w for w in words if w.has_bracketed_product]
        # none of those holds two reducible atoms: products of them do
        words += [u * v for u in words[:40] for v in words[:40]]
        walked = 0
        for w in words:
            new = _closure_atoms(w, system) - memo.nf.keys()
            answer = memo.strategy_nf(w, 100000)
            assert answer is not None and answer[1] == len(new), to_str(w)
            steps = answer[1]
            assert memo.nf.keys() >= new and None not in memo.nf.values()
            assert memo.strategy_nf(w, 100000)[1] == 0
            walked += steps > 0
        assert walked and memo.nf.keys() == set().union(
            *(_closure_atoms(w, system) for w in words))


def test_basis_check_reads_every_normal_form_from_the_memo(monkeypatch):
    # a non-basis pattern's nonzero residues take no heap reduction of their
    # words either, and neither does any system of the basis benchmark at
    # its bound
    calls = []
    real = gsb.normal_form

    def counting(*args, **kwargs):
        calls.append(args[0])
        return real(*args, **kwargs)

    monkeypatch.setattr(gsb, "normal_form", counting)
    for spec, size in (("derivation", (2, 2, 3)),
                       ("2*x [y] + 2*[x] y", (2, 2, 3)),
                       ("derivation", (3, 1, 3)),
                       ("endomorphism", (3, 1, 3)),
                       ("endomorphism", (2, 3, 3)),
                       ("weight:lam", (2, 2, 3))):
        bound = TruncationBound(*size)
        system = GeneratorSystem(_oracle_identity(spec),
                                 OrderConfig(bound.generator_set()))
        report = gsb_check_truncated(system, bound)
        assert report.ok == (spec not in NON_BASIS), (spec, size)
        assert report.intersections_reduced and calls == [], (spec, size)


def test_step_cap_bounds_each_word_not_the_memo(monkeypatch):
    # at a step cap of 10 the memo of derivation at (2, 2, 3) grows to 297
    # atoms partway through the check: the cap bounds the walks of each
    # composition value, not the memo, and every word is still read from it
    calls = []
    caches = []
    real = gsb.normal_form

    def counting(*args, **kwargs):
        calls.append(args[0])
        return real(*args, **kwargs)

    class Recording(NFCache):
        __slots__ = ()

        def __init__(self, *args):
            super().__init__(*args)
            caches.append(self)

    monkeypatch.setattr(gsb, "normal_form", counting)
    monkeypatch.setattr(gsb, "NFCache", Recording)
    bound = TruncationBound(2, 2, 3)
    system = GeneratorSystem(DER, OrderConfig(bound.generator_set()))
    with job():
        report = gsb_check_truncated(system, bound, step_cap=10)
        (cache,) = caches
        kept = [entry for entry in cache.memo.nf.values()]
    assert calls == [] and len(kept) > 10 * 29 and None not in kept
    monkeypatch.setattr(gsb, "NFCache", ReferenceNFCache)
    monkeypatch.setattr(gsb, "normal_form", _fresh_normal_form)
    want = gsb_check_truncated(system, bound, step_cap=10)
    assert report.to_dict() == want.to_dict() and report.ok


# the step-cap table: each system under both orders at caps 0-11, 20 and
# 50, with the first cap that gives a report; every lower cap raises
CAP_TABLE = {("derivation", (2, 2, 3)): {"purelex": 3, "deglenlex": 7},
             ("endomorphism", (2, 3, 3)): {"purelex": 3, "deglenlex": 4},
             ("weight:lam", (2, 2, 3)): {"purelex": 4, "deglenlex": 20}}
TABLE_CAPS = list(range(12)) + [20, 50]


def _report_or_none(system, bound, cap):
    """The basis check's report at ``cap`` as a dict, or ``None`` where it
    raises ``ResourceLimit``."""
    try:
        return gsb_check_truncated(system, bound, step_cap=cap,
                                   rng=random.Random(4)).to_dict()
    except ResourceLimit:
        return None


@pytest.mark.parametrize("spec, size", sorted(CAP_TABLE),
                         ids=[f"{spec}@{','.join(map(str, size))}"
                              for spec, size in sorted(CAP_TABLE)])
def test_step_cap_gives_the_unbounded_report_or_raises(spec, size,
                                                        monkeypatch):
    # a cap gives the report of no cap, or raises where the per-word
    # reference raises too; the memo counts only the atoms it keeps, so
    # derivation under purelex is answered at caps 3-5, where the
    # reference's heap runs out
    bound = TruncationBound(*size)
    for mode, first in CAP_TABLE[spec, size].items():
        system = GeneratorSystem(named_pattern(spec),
                                 OrderConfig(bound.generator_set(), mode))
        got = {cap: _report_or_none(system, bound, cap) for cap in TABLE_CAPS}
        with monkeypatch.context() as patched:
            patched.setattr(gsb, "NFCache", ReferenceNFCache)
            patched.setattr(gsb, "normal_form", _fresh_normal_form)
            unbounded = _report_or_none(system, bound, 100000)
            assert unbounded is not None
            for cap, report in got.items():
                if report is None:
                    assert _report_or_none(system, bound, cap) is None, \
                        (mode, cap)
                else:
                    assert report == unbounded, (mode, cap)
        assert [cap for cap, report in got.items() if report is not None] \
            == [cap for cap in TABLE_CAPS if cap >= first], mode


class PerWordNFCache(NFCache):
    """The per-word path: each word by its own ``normal_form`` call from
    the word itself, as a check made before the memo's normal forms."""

    __slots__ = ()

    def reduce(self, p):
        out = {}
        for w, c in p.terms.items():
            _add_scaled_into(out, self._reduced(w), c)
        return self.schema.normalize(OPoly._trusted(out, p.ring))


def test_fallback_reduces_each_word_from_itself(monkeypatch):
    # under deglenlex no derivation step descends: each walk builds its
    # atom's step, finds it ascending and keeps None, and each reducible
    # word's normal_form call starts from the word itself, so the check
    # builds one replacement more than the per-word path per atom it walked
    calls, starts, caches = [], [], []
    real = opalg.rewrite.RuleSchema.replacement
    real_nf = gsb.normal_form

    def counting(self, redex):
        calls.append(redex)
        return real(self, redex)

    def recording(p, *args):
        starts.append(len(p.terms))
        return real_nf(p, *args)

    class Recording(NFCache):
        __slots__ = ()

        def __init__(self, *args):
            super().__init__(*args)
            caches.append(self)

    monkeypatch.setattr(opalg.rewrite.RuleSchema, "replacement", counting)
    monkeypatch.setattr(gsb, "normal_form", recording)
    bound = TruncationBound(2, 1, 3)
    system = GeneratorSystem(DER, OrderConfig(bound.generator_set(),
                                              "deglenlex"))
    counts, reports, single = [], [], []
    for cache in (Recording, PerWordNFCache):
        monkeypatch.setattr(gsb, "NFCache", cache)
        calls.clear()
        starts.clear()
        with job():
            reports.append(gsb_check_truncated(system, bound).to_dict())
            if cache is Recording:
                walked = list(caches[0].memo.nf.values())
        counts.append(len(calls))
        # a derivation step has two terms, so a one-term start is a word
        single.append((starts.count(1), len(starts)))
    assert reports[0] == reports[1] and reports[0]["order_violations"] == 948
    assert walked and set(walked) == {None}
    assert counts[0] == counts[1] + len(walked)
    assert single[0][0] == single[0][1] > 0 and single[1][0] == single[1][1]


def test_fallback_keeps_the_step_cap():
    # a refused word is reduced from itself under the full cap: a word
    # taking s steps is reduced at a cap of s and raises at s - 1, as
    # normal_form does
    system = GeneratorSystem(DER, OrderConfig(XY, "deglenlex"))
    w = parse("[[x y] y]", XY)
    with job():
        want, trace = normal_form(OPoly.from_word(w), system)
    steps = len(trace)
    assert trace.status == NORMAL_FORM and steps > 1
    with job():
        with pytest.raises(ResourceLimit):
            NFCache(system, steps - 1).reduce(OPoly.from_word(w))
    with job():
        cache = NFCache(system, steps)
        nf = cache.reduce(OPoly.from_word(w)).terms
        assert cache.memo.nf[w.atoms[0]] is None
    assert nf == want.terms and list(nf) == list(want.terms)


def test_constrained_basis_check_matches_the_per_word_reference(monkeypatch):
    # the memo's atom products are exact over the pattern's ring, and
    # reduction modulo the constraint ideal is linear, so a memo normal form
    # reduced modulo the ideal once is the heap's, which reduces as it goes
    ident = DT_FAMILIES[0].identity()
    assert ident.constraints
    schema = RuleSchema(ident)
    pairs, _ = _memo_normal_forms(ident, (2, 1, 3), "purelex", monkeypatch)
    assert pairs
    for word, got, want, _ in pairs:
        reduced = schema.normalize(OPoly(got, ring=ident.ring))
        assert reduced.terms == want, word
    got = _basis_checks(ident, (2, 1, 3), "purelex", monkeypatch)
    monkeypatch.setattr(gsb, "NFCache", ReferenceNFCache)
    monkeypatch.setattr(gsb, "normal_form", _fresh_normal_form)
    want = _basis_checks(ident, (2, 1, 3), "purelex", monkeypatch)
    assert got == want
    report, cdl, records = got
    assert records and not report["nontrivial"] and not cdl["failures"]


def _tower(height):
    """[[...[x y]...]], ``height`` brackets deep."""
    w = Word(("x", "y"))
    for _ in range(height):
        w = Word((w,))
    return w


def test_deep_word_reduces_as_normal_form_does():
    # each step moves the redex one bracket out: a chain of 150 steps, one
    # per atom, which the memo's walk keeps on a stack of its own, within a
    # step cap of 150 and not of 149
    system = GeneratorSystem(named_pattern("endomorphism"), OrderConfig(XY))
    with job():
        with pytest.raises(ResourceLimit):
            NFCache(system, 149).reduce(OPoly.from_word(_tower(150)))
    with job():
        w = _tower(150)
        (a,) = w.atoms
        cache = NFCache(system, 150)
        got = cache.reduce(OPoly.from_word(w)).terms
        # one step per atom of the chain, each atom kept
        assert len(cache.memo.nf) == 150 and None not in cache.memo.nf.values()
        # a one-atom word shares its atom's normal form, uncopied, and a
        # second reading walks nothing
        nf, steps = cache.memo.strategy_nf(w, cache.step_cap)
        assert nf is cache.memo.nf[a] and steps == 0
        want, trace = _fresh_normal_form(OPoly.from_word(w), system)
    assert trace.status == NORMAL_FORM and len(trace) == 150
    assert got == want.terms and len(got) == 1
    assert nf == {m.atoms: c for m, c in want.terms.items()}


def test_word_nested_max_depth_deep_reduces_within_the_recursion_limit():
    # two MAX_DEPTH-deep towers: the walk keeps its own stack, and the
    # product and the sum take no frame a level, so the word reduces with
    # the headroom every entry point has (see test_words)
    with job():
        (a,) = _tower(MAX_DEPTH).atoms
        w = Word((a, "x", a))
        assert w.depth() == MAX_DEPTH
        system = GeneratorSystem(named_pattern("endomorphism"),
                                 OrderConfig(XY))
        cache = NFCache(system, 100000)
        got = _with_headroom(2 * MAX_DEPTH + 50,
                             lambda: cache.reduce(OPoly.from_word(w))).terms
        assert len(cache.memo.nf) == MAX_DEPTH and cache.memo.nf[a]
        want, trace = _fresh_normal_form(OPoly.from_word(w), system)
    assert trace.status == NORMAL_FORM and len(trace) == 2 * MAX_DEPTH
    assert got == want.terms and list(got) == list(want.terms)


_WORK_JOB = """
import json, random, sys
from opalg import gsb
from opalg.catalog import named_pattern
from opalg.ordering import OrderConfig

steps = []
real = gsb.normal_form

def counting(*args, **kwargs):
    result = real(*args, **kwargs)
    steps.append(len(result[1]))
    return result

gsb.normal_form = counting
caches = []


class Recording(gsb.NFCache):
    __slots__ = ()

    def __init__(self, *args):
        super().__init__(*args)
        caches.append(self)


gsb.NFCache = Recording
bound = gsb.TruncationBound(2, 1, 3)
system = gsb.GeneratorSystem(named_pattern("derivation"),
                             OrderConfig(bound.generator_set(), sys.argv[1]))
report = gsb.gsb_check_truncated(system, bound, rng=random.Random(1))
fallbacks = len(steps)
cdl = gsb.cdl_direct_sum_check(system, bound, rng=random.Random(2))
(memo,) = [cache.memo.nf for cache in caches]
print(json.dumps({"gsb": report.to_dict(), "cdl": cdl.describe(),
                  "failures": len(cdl.failures), "calls": len(steps),
                  "steps": sum(steps), "fallbacks": fallbacks,
                  "entries": len(memo),
                  "normal_forms": sum(nf is not None for nf in memo.values()),
                  "sizes": sorted(len(nf) for nf in memo.values()
                                  if nf is not None)}))
"""


def test_basis_check_work_does_not_depend_on_hash_seed(run_job):
    # deglenlex is the mode whose order audits count anything here: no
    # derivation step descends in it, so the memo keeps no atom's normal
    # form and every reducible word falls back to its own normal_form call;
    # under purelex every atom the check meets has one, with the same
    # terms whatever the hash seed
    for mode, violations in (("purelex", 0), ("deglenlex", 948)):
        first, second = (run_job(_WORK_JOB, mode, hash_seed=seed)
                         for seed in (0, 5))
        assert first == second
        assert first["gsb"]["order_violations"] == violations
        assert not first["gsb"]["nontrivial"]
        assert first["failures"] == 0 and first["steps"]
        assert first["entries"]
        if mode == "purelex":
            assert first["fallbacks"] == 0
            assert first["normal_forms"] == first["entries"]
            assert len(first["sizes"]) == first["entries"]
        else:
            assert first["fallbacks"] and not first["normal_forms"]


_SHIFTED_JOB = """
import json, random, sys
from opalg import gsb, rewrite
from opalg.catalog import named_pattern
from opalg.classify import build_ansatz, classify
from opalg.coeffs import PolyRing
from opalg.opoly import DIFFERENTIAL, ROTA_BAXTER, XY, OpIdentity, parse_opoly
from opalg.ordering import OrderConfig
from opalg.words import Word

# unrelated objects and words, allocated and kept before the job, so that
# the job's words sit at other addresses, and hash otherwise, than in a
# run without them
shift = int(sys.argv[1])
kept = [object() for _ in range(shift)]
kept += [Word((f"pad{i}",) * (1 + i % 3)) for i in range(shift)]
kept += [[None] * (i % 7) for i in range(shift)]

explored = []
real = rewrite._one_step_reducts


def counting(p, memo):
    explored.append(None)
    return real(p, memo)


rewrite._one_step_reducts = counting
bound = gsb.TruncationBound(2, 1, 3)
basis = []
# the last identity is no basis: its nontrivial records print residues
for ident, mode in ((named_pattern("derivation"), "purelex"),
                    (named_pattern("derivation"), "deglenlex"),
                    (OpIdentity(DIFFERENTIAL, parse_opoly("y [x]", XY)),
                     "purelex")):
    system = gsb.GeneratorSystem(ident,
                                 OrderConfig(bound.generator_set(), mode))
    report = gsb.gsb_check_truncated(system, bound, rng=random.Random(1))
    cdl = gsb.cdl_direct_sum_check(system, bound, rng=random.Random(2))
    irr = gsb.irr_enumerate(system, bound)
    basis.append([report.to_dict(), cdl.describe(), len(irr),
                  [(str(w), reason) for w, reason in cdl.failures]])
classes = []
for mode in (DIFFERENTIAL, ROTA_BAXTER):
    result = classify(build_ansatz(mode, 1))
    equations = result.system.equations
    classes.append([len(equations), sum(e.unresolved for e in equations),
                    len(result.components), len(result.audit_failures)])
ring = PolyRing(("b", "c", "e"))
searches = []
for check, text, constraints in (
        (gsb.dt_check, "b*x [y] + b*[x] y + c*[x] [y] + e*x y",
         [ring.parse("b^2 - c*e")]),
        (gsb.rbt_check, "[x] y + [x y] + [y] x", [])):
    report = check(parse_opoly(text, XY, ring=ring), constraints)
    searches.append([report.accepted, report.verdict.detail, len(explored)])
print(json.dumps({"basis": basis, "classes": classes,
                  "searches": searches, "explored": len(explored)}))
"""


def test_work_does_not_depend_on_where_words_sit_in_memory(run_job):
    # a word hashes by its address: under one hash seed, a heap shifted by
    # objects and words kept before the job moves every address, and no
    # report count, classification count or search count may move with it
    runs = [run_job(_SHIFTED_JOB, str(shift), hash_seed=0)
            for shift in (0, 1000, 20011)]
    assert runs[0] == runs[1] == runs[2]
    first = runs[0]
    assert [row[0]["order_violations"] for row in first["basis"]] == [
        0, 948, 0]
    assert [bool(row[0]["nontrivial"]) for row in first["basis"]] == [
        False, False, True]
    assert [len(row[3]) for row in first["basis"]] == [0, 0, 74]
    assert all(count[2] for count in first["classes"])
    assert first["searches"][0][:2] == [
        False, "all 16 reachable polynomials nonzero"]
    assert first["explored"] > 0


# ``opalg gsb --format json`` output of seven checks: the first five recorded
# before the composition checks were routed through ``is_trivial``, with
# nontrivial records, order-violation counts and both certification modes;
# the two of ``2*x [y] + 2*[x] y`` recorded before a residue's terms stopped
# following the per-word path's order
with open(os.path.join(os.path.dirname(__file__), "frozen_gsb.json"),
          encoding="utf-8") as _f:
    FROZEN_GSB = json.load(_f)

_GSB_CLI_JOB = """
import contextlib, io, json, sys
from opalg.cli import main

out = []
for argv in json.loads(sys.argv[1]):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(argv)
    out.append({"argv": argv, "exit": code, "stdout": buf.getvalue()})
print(json.dumps(out))
"""


@pytest.mark.parametrize("seed", [1, 3])
def test_gsb_cli_output_is_frozen(run_job, seed):
    argvs = json.dumps([case["argv"] for case in FROZEN_GSB])
    assert run_job(_GSB_CLI_JOB, argvs, hash_seed=seed) == FROZEN_GSB


# -- irreducible words and the direct-sum check --------------------------------------

def test_irr_enumeration_single_generator():
    Z = GeneratorSet(("z",))
    sys = GeneratorSystem(DER, OrderConfig(Z))
    irr = irr_enumerate(sys, TruncationBound(2, 2, 1), gens=Z)
    plain = sorted((w for w in irr if "1" not in to_str(w)), key=word_sort_key)
    assert [to_str(w) for w in plain] == [
        "z", "[z]", "[[z]]", "z z", "[z] z", "z [z]", "[z] [z]",
        "[[z]] z", "z [[z]]", "[[z]] [z]", "[z] [[z]]", "[[z]] [[z]]"]
    assert parse("[z z]", Z) not in irr
    assert len(irr) == 31  # 12 plain + unit + 18 with unit brackets


def irr_counts(breadth, depth, gens):
    """(all, without a unit bracket) irreducible words at a bound, in closed
    form, with no rewriting: a product of at most ``breadth`` atoms, each a
    tower of at most ``depth`` brackets over one generator, gens (depth + 1)
    atoms, or a tower of at least one bracket over the unit, depth more."""
    plain = gens * (depth + 1)
    return (sum((plain + depth) ** k for k in range(breadth + 1)),
            sum(plain ** k for k in range(breadth + 1)))


IRR_COUNTS = {(2, 1, 3): (57, 43), (2, 2, 3): (133, 91),
              (2, 3, 3): (241, 157), (3, 1, 3): (400, 259),
              (3, 2, 3): (1464, 820), (2, 1, 1): (13, 7), (3, 0, 3): (40, 40)}


@pytest.mark.parametrize("dims", sorted(IRR_COUNTS))
def test_irreducible_words_are_counted_in_closed_form(dims):
    assert irr_counts(*dims) == IRR_COUNTS[dims]
    bound = TruncationBound(*dims)
    irr = irr_enumerate(GeneratorSystem(DER, OrderConfig(
        bound.generator_set())), bound)
    assert (len(irr), sum(not w.has_unit_bracket for w in irr)) == \
        IRR_COUNTS[dims]


# the systems and bounds of the benchmark's basis workload
BASIS_BOUNDS = (("derivation", (3, 1, 3)), ("endomorphism", (3, 1, 3)),
                ("endomorphism", (2, 3, 3)), ("weight:lam", (2, 2, 3)))


@pytest.mark.parametrize("spec,dims", BASIS_BOUNDS)
def test_direct_sum_report_counts_irreducible_words_in_closed_form(spec,
                                                                   dims):
    total, plain = irr_counts(*dims)
    bound = TruncationBound(*dims)
    system = GeneratorSystem(named_pattern(spec),
                             OrderConfig(bound.generator_set()))
    report = cdl_direct_sum_check(system, bound, rng=random.Random(0))
    assert (report.irr_size, report.irr_unit_surplus) == (total,
                                                          total - plain)


def test_cdl_direct_sum_small_bound():
    bound = TruncationBound(2, 2, 2)
    sys = GeneratorSystem(DER, OrderConfig(bound.generator_set()))
    rep = cdl_direct_sum_check(sys, bound, rng=random.Random(1),
                               ideal_samples=25)
    assert rep.ok
    assert rep.ideal_zeros == 25
    assert rep.oversize_hosts == 0
    assert rep.failures == []
    assert "passes" in rep.describe()


class _LastAndDeepest(random.Random):
    """Always takes the last choice and always nests, so every assembled host
    nests the deepest pool word below a bracket of the context."""

    def choice(self, seq):
        return seq[-1]

    def random(self):
        return 0.0


def test_cdl_counts_hosts_past_the_sampling_bound():
    bound = TruncationBound(2, 1, 2)
    sys = GeneratorSystem(DER, OrderConfig(bound.generator_set()))
    rep = cdl_direct_sum_check(sys, bound, rng=_LastAndDeepest(0),
                               ideal_samples=5)
    assert rep.oversize_hosts == rep.ideal_samples == 5
    assert rep.ok  # the oversize ideal elements still reduce to zero


def _fits(host: Word, bound: TruncationBound) -> bool:
    """The host size the direct-sum check accepts for an ideal element."""
    return (host.leaves <= bound.max_breadth + 3
            and host.depth() <= bound.max_depth + 1)


def _no_context_fits(u: Word, v: Word, bound: TruncationBound) -> bool:
    """A context's word is never the unit, so a context sets [u v] beside
    at least one leaf or inside at least one bracket: no context fits
    [u v] when neither smallest such host, ``x [u v]`` or ``[[u v]]``,
    fits."""
    return not (_fits(Word(("x", u * v)), bound)
                or _fits(Word((Word((u * v,)),)), bound))


def _contexts(atoms: tuple, levels: int, path: tuple = ()):
    """Every star path ``random_context`` can draw in a word of ``atoms``:
    every descent into brackets, at most ``levels`` deep, and every cut of
    the level reached."""
    for i in range(len(atoms) + 1):
        yield path + ((atoms[:i], atoms[i:]),)
    if levels:
        for i, a in enumerate(atoms):
            if isinstance(a, Word):
                yield from _contexts(a.atoms, levels - 1,
                                     path + ((atoms[:i], atoms[i + 1:]),))


@pytest.mark.parametrize("size", [(2, 1, 3), (3, 1, 3), (2, 2, 3), (2, 3, 3),
                                  (3, 0, 3)])
def test_no_context_fits_a_pair_the_ideal_draw_skips(size):
    # the check rejects a pair (u, v) before drawing its context when no
    # context can fit [u v]; every context the sampler can draw shows that
    # the rejection is exact.  A host's size depends on the pair only
    # through its leaf sum and depth, so one pair per class stands for all
    bound = TruncationBound(*size)
    gens = bound.generator_set()
    words = enumerate_words(gens, bound.max_breadth, bound.max_depth,
                            include_unit_brackets=True, include_unit=False)
    by_shape = {(w.leaves, w.depth()): w for w in words}
    pairs = {(a + b, max(d, e)): (by_shape[a, d], by_shape[b, e])
             for a, d in by_shape for b, e in by_shape}
    contexts = [path for w in words
                for path in _contexts(w.atoms, bound.max_depth)]
    skipped = 0
    for u, v in pairs.values():
        some_fits = any(_fits(splice(path, (u * v,)), bound)
                        for path in contexts)
        assert some_fits != _no_context_fits(u, v, bound), (size, u, v)
        skipped += not some_fits
    assert (skipped > 0) == (size in [(3, 1, 3), (3, 0, 3)])


def _counted_contexts(monkeypatch) -> list:
    """Patches the direct-sum check's ``random_context`` to record each
    draw in the returned list."""
    drawn = []
    real = gsb.random_context

    def counting(*args):
        drawn.append(args)
        return real(*args)

    monkeypatch.setattr(gsb, "random_context", counting)
    return drawn


def test_cdl_draws_a_context_for_each_host_when_every_pair_is_skipped(
        monkeypatch):
    # the largest pool word at (3,1,3), [w w w], fits no context beside
    # itself, so every try is skipped and only the last one draws its
    # context, for the host used as it is
    bound = TruncationBound(3, 1, 3)
    drawn = _counted_contexts(monkeypatch)
    sys = GeneratorSystem(DER, OrderConfig(bound.generator_set()))
    rep = cdl_direct_sum_check(sys, bound, rng=_LastAndDeepest(0),
                               ideal_samples=5)
    assert rep.oversize_hosts == rep.ideal_samples == len(drawn) == 5
    assert rep.ok


class _CountingTries(random.Random):
    """Counts the tries of the ideal-element draw: each takes two words."""

    def __init__(self, seed):
        self.word_draws = 0
        super().__init__(seed)

    def choice(self, seq):
        self.word_draws += isinstance(seq[0], Word)
        return super().choice(seq)


def test_cdl_draws_contexts_for_fewer_than_a_third_of_the_tries(monkeypatch):
    bound = TruncationBound(3, 1, 3)
    sys = GeneratorSystem(DER, OrderConfig(bound.generator_set()))
    drawn = _counted_contexts(monkeypatch)
    counts = []
    for _ in range(2):
        rng = _CountingTries(201)
        start = len(drawn)
        assert cdl_direct_sum_check(sys, bound, rng=rng).ok
        contexts, tries = len(drawn) - start, rng.word_draws // 2
        assert 3 * contexts < tries
        counts.append((contexts, tries))
    assert counts[0] == counts[1]


@pytest.mark.parametrize("capped", ["words", "ideal elements"])
def test_cdl_step_cap_gives_no_verdict(capped, monkeypatch):
    # a word or an ideal element left unreduced at the cap is undecided:
    # the check raises rather than report a failure
    real = gsb.normal_form

    def capped_normal_form(p, schema):
        if (len(p) == 1) == (capped == "words"):
            return real(p, schema, step_cap=0)
        return real(p, schema)

    monkeypatch.setattr(gsb, "normal_form", capped_normal_form)
    bound = TruncationBound(2, 1, 2)
    sys = GeneratorSystem(DER, OrderConfig(bound.generator_set()))
    with pytest.raises(ResourceLimit, match="step cap"):
        cdl_direct_sum_check(sys, bound, rng=random.Random(1),
                             ideal_samples=5)


def test_cdl_flags_non_confluent_pattern():
    ident = OpIdentity(DIFFERENTIAL, parse_opoly("y [x]", XY))
    bound = TruncationBound(2, 1, 2)
    sys = GeneratorSystem(ident, OrderConfig(bound.generator_set()))
    rep = cdl_direct_sum_check(sys, bound, rng=random.Random(1),
                               ideal_samples=40)
    assert not rep.ok


# -- composition values against the star-word construction --------------------------

ORACLE_IDENTITIES = {"derivation": DER,
                     "y x": OpIdentity(DIFFERENTIAL, parse_opoly("y x", XY))}


@pytest.mark.parametrize("size", [(2, 1, 3), (3, 1, 3)])
@pytest.mark.parametrize("name", sorted(ORACLE_IDENTITIES))
def test_including_values_match_star_word_construction(name, size,
                                                        monkeypatch):
    # each including value phi(u1, v1) - q|phi(a, b), in the order the
    # check reduces them
    ident = ORACLE_IDENTITIES[name]
    bound = TruncationBound(*size)
    seen = []
    real = gsb.is_trivial

    def recording(comp, cache):
        if comp.kind == INCLUDING:
            seen.append((comp.w, comp.context, comp.value))
        return real(comp, cache)

    monkeypatch.setattr(gsb, "is_trivial", recording)
    gsb_check_truncated(GeneratorSystem(ident, OrderConfig(
        bound.generator_set())), bound)
    spectator = Word(("zspec",))
    schema = GeneratorSystem(ident, OrderConfig(GeneratorSet(
        bound.generator_set().names + ("zspec",))))
    want = []
    for host in enumerate_words(bound.generator_set(), bound.max_breadth,
                                bound.max_depth, include_unit_brackets=False,
                                include_unit=False):
        for u1, v1 in ((host, spectator), (spectator, host)):
            lead = Word((u1 * v1,))
            for r in find_redexes(lead, schema):
                if len(r.path) > 1:
                    want.append((lead, r.context, instance(ident, u1, v1)
                                 - into_context(instance(ident, r.a, r.b),
                                                r.context)))
    assert want and seen == want


@pytest.mark.parametrize("size", [(2, 1, 3), (3, 1, 3), (2, 2, 3)])
@pytest.mark.parametrize("name", sorted(ORACLE_IDENTITIES))
def test_ideal_elements_match_star_word_construction(name, size,
                                                     monkeypatch):
    # each sampled ideal element q|phi(u, v), replayed from the same seed;
    # the replay prints each drawn path as its star word, which
    # test_random_context_matches_star_insertion ties to the old draw, and
    # draws no context for a pair that no context fits, except on the last
    # try, whose host is used as it is
    ident = ORACLE_IDENTITIES[name]
    bound = TruncationBound(*size)
    seen = []
    real = gsb.normal_form

    def recording(p, *args, **kwargs):
        seen.append(p)
        return real(p, *args, **kwargs)

    monkeypatch.setattr(gsb, "normal_form", recording)
    rep = cdl_direct_sum_check(GeneratorSystem(ident, OrderConfig(
        bound.generator_set())), bound, rng=random.Random(3), ideal_samples=40)
    gens = bound.generator_set()
    pool = enumerate_words(gens, bound.max_breadth, bound.max_depth,
                           include_unit=False)
    rng = random.Random(3)
    want = []
    for _ in range(40):
        for attempt in range(200):
            u, v = rng.choice(pool), rng.choice(pool)
            if attempt < 199 and _no_context_fits(u, v, bound):
                continue
            q = splice(random_context(rng, gens, bound.max_breadth,
                                      bound.max_depth), (STAR,))
            host = reference_replace_generators(q, {STAR: Word((u * v,))})
            if _fits(host, bound):
                break
        want.append(into_context(instance(ident, u, v), q))
    assert seen[rep.words_checked:] == want


# -- type certificates ---------------------------------------------------------------

def test_dt_check_accepts_all_catalog_families():
    for fam in DT_FAMILIES:
        ident = fam.identity()
        rep = dt_check(ident.pattern, ident.constraints)
        assert rep.accepted, fam.key


def test_rbt_check_accepts_all_catalog_families():
    for fam in RBT_FAMILIES:
        ident = fam.identity()
        rep = rbt_check(ident.pattern, ident.constraints)
        assert rep.accepted, fam.key
        assert not rep.inconclusive


def test_dt_check_rejects_right_twist_with_witness():
    rep = dt_check(parse_opoly("y [x]", XY))
    assert not rep.accepted
    assert rep.verdict.kind == Verdict.NO
    got = to_str_opoly(rep.witness, OrderConfig(GeneratorSet(("u", "v", "w"))))
    assert got == "w v [u] - v w [u]"
    # the verdict line carries no witness: the CLI prints it on its own line
    assert rep.describe() == f"rejected: not differential type ({rep.reason})"


# the strategy normal form is the witness of an exhausted search, and of a
# differential-type rejection, which runs no search
BUDGET_WITNESS = {
    "[y] x - x [y] + y [x]":
        "[w] u v - [w] v u + u [w] v - 2*u v [w] + u w [v] + v [w] u - v w [u]"
        " - w u [v] + w v [u]",
    "2*[y x] + 2*x [y] + 2*y [x]":
        "-8*[[u w v]] - 4*[[w v] u] + 8*[[w v u]] - 8*[u [w v]] - 4*[v [w] u]"
        " + 8*[v u [w]] - 4*[w [v] u] + 12*[w [v u]] + 4*[w u [v]]"
        " - 4*[w v [u]] + 4*u [[w v]] + 4*u [v [w]] + 4*u [w [v]]"
        " - 8*v [[u w]] + 8*v [[w u]] - 8*w [[u v]] + 4*w [[v u]]"
        " - 4*w [u [v]] - 4*w [v [u]]",
}


# the verdict of each at a search budget of 5
BUDGET_VERDICT = {
    "[y] x - x [y] + y [x]": (Verdict.NO, "nonzero normal form after 3 steps"),
    "2*[y x] + 2*x [y] + 2*y [x]": (Verdict.INCONCLUSIVE,
                                    "exploration budget 5 exceeded"),
}


@pytest.mark.parametrize("check,text", [(dt_check, "[y] x - x [y] + y [x]"),
                                        (rbt_check, "2*[y x] + 2*x [y] + 2*y [x]")])
def test_type_checks_report_exhausted_search(check, text, monkeypatch):
    monkeypatch.setattr(opalg.rewrite, "EXPLORE_BUDGET", 5)
    rep = check(parse_opoly(text, XY))
    kind, detail = BUDGET_VERDICT[text]
    assert not rep.accepted
    assert (rep.verdict.kind, rep.verdict.detail) == (kind, detail)
    assert rep.inconclusive == (kind == Verdict.INCONCLUSIVE)
    assert rep.reason == f"defect does not rewrite to zero ({detail})"
    assert rep.describe() == {
        Verdict.NO: f"rejected: not differential type ({rep.reason})",
        Verdict.INCONCLUSIVE: f"inconclusive: {rep.reason}"}[kind]
    assert to_str_opoly(rep.witness) == BUDGET_WITNESS[text]


# the decision rule of ``gsb._certify``, one row a case: the check, the
# pattern, its parameters, its constraints, the search budget (None for
# the default), what the span certificate returns at each call (True for a
# certificate, None for none) and the number of searches
DT1 = "b*x [y] + b*[x] y + c*[x] [y] + e*x y"
DECISIONS = {
    "dt derivation accepted": (dt_check, "x [y] + [x] y", (), (), None, [], 0),
    "dt right twist rejected": (dt_check, "y [x]", (), (), None, [], 0),
    "dt1 accepted": (dt_check, DT1, "bce", ("b^2 - b - c*e",), None, [], 0),
    "dt1 searched": (dt_check, DT1, "bce", ("b^2 - c*e",), None, [], 1),
    "rbt symbolic accepted": (rbt_check, "x [y] + [x] y + lam*x y",
                              ("lam",), (), None, [], 0),
    "rbt symbolic searched": (rbt_check, "x [y] + lam*[x] y", ("lam",), (),
                              None, [], 1),
    "rbt rational by the span": (rbt_check, "y [x]", (), (), None, [True],
                                 0),
    "rbt rational past the span": (rbt_check, "2*[y x] + 2*x [y] + 2*y [x]",
                                   (), (), 26, [None], 1),
}


@pytest.mark.parametrize("case", sorted(DECISIONS))
def test_type_checks_go_past_the_normal_form_only_as_the_rule_says(
        case, monkeypatch):
    # one strategy verdict a check; a rejection goes on to the span
    # certificate for a Rota-Baxter shape with rational coefficients, and to
    # the search for any Rota-Baxter shape or constraint ideal the span does
    # not decide
    check, text, params, constraints, budget, spans, searches = \
        DECISIONS[case]
    if budget is not None:
        monkeypatch.setattr(opalg.rewrite, "EXPLORE_BUDGET", budget)
    strategy_calls, span_calls, search_calls = [], [], []

    def counted(results, f):
        def wrapper(*args, **kwargs):
            results.append(f(*args, **kwargs))
            return results[-1]
        return wrapper

    strategy = counted(strategy_calls, gsb._strategy_verdict)
    monkeypatch.setattr(gsb, "_strategy_verdict", strategy)
    monkeypatch.setattr(opalg.rewrite, "_strategy_verdict", strategy)
    monkeypatch.setattr(gsb, "_span_certificate",
                        counted(span_calls, gsb._span_certificate))
    monkeypatch.setattr(opalg.rewrite, "_explore",
                        counted(search_calls, opalg.rewrite._explore))
    ring = PolyRing(tuple(params)) if params else None
    report = check(parse_opoly(text, XY, ring=ring),
                   [ring.parse(c) for c in constraints])
    assert len(strategy_calls) == 1
    assert [None if c is None else True for c in span_calls] == spans
    assert len(search_calls) == searches
    assert report.accepted == case.endswith("accepted")


def test_dt_check_structural_rejections():
    assert "totally linear" in dt_check(parse_opoly("x [y] + x x", XY)).reason
    assert "bracketed product" in dt_check(parse_opoly("[x y]", XY)).reason


def test_rbt_check_structural_rejections():
    assert "totally linear" in rbt_check(parse_opoly("x [y] + y", XY)).reason
    assert "adjacent bracket" in rbt_check(parse_opoly("[x] [y]", XY)).reason


def test_dt1_constraint_matters():
    # without the constraint b^2 = b + ce the family-1 pattern must fail
    fam = DT_FAMILIES[0]
    ident = fam.identity()
    with_constraint = dt_check(ident.pattern, ident.constraints)
    without = dt_check(ident.pattern, ())
    assert with_constraint.accepted
    assert not without.accepted


def test_inconsistent_constraints_are_refused():
    # lam - 1 and lam - 2 generate (1): every coefficient would reduce to
    # zero, and every check would pass with no test
    ring = PolyRing(("lam",))
    constraints = [ring.parse("lam - 1"), ring.parse("lam - 2")]
    message = "inconsistent constraints: lam - 1, lam - 2"
    weight = parse_opoly("x [y] + [x] y + lam*[x] [y]", XY, ring=ring)
    bound = TruncationBound(2, 1, 3)
    checks = [
        lambda: dt_check(weight, constraints),
        lambda: rbt_check(parse_opoly("x [y] + lam*[x] y", XY, ring=ring),
                          constraints),
        lambda: GeneratorSystem(OpIdentity(DIFFERENTIAL, weight, constraints),
                                OrderConfig(bound.generator_set()))]
    for check in checks:
        with pytest.raises(ValueError, match=message):
            check()


def test_type_report_describe():
    ok = dt_check(DER.pattern)
    assert ok.describe() == "accepted: differential type"
    bad = rbt_check(parse_opoly("[x] [y]", XY))
    assert bad.describe() == f"rejected: not Rota-Baxter type ({bad.reason})"


def _type_requests(count, rng):
    """``count`` seeded certification requests: one to four monomials of a
    degree-1 ansatz with coefficients drawn from 1, -1, 2 and 1/2."""
    supports = {mode: [w for _, w in build_ansatz(mode, 1).terms]
                for mode in (DIFFERENTIAL, ROTA_BAXTER)}
    values = (Fraction(1), Fraction(-1), Fraction(2), Fraction(1, 2))
    requests = []
    for _ in range(count):
        mode = rng.choice(sorted(supports))
        words = rng.sample(supports[mode], rng.randint(1, 4))
        requests.append((mode, OPoly({w: rng.choice(values) for w in words})))
    return requests


def _type_answer(mode, pattern):
    """A request's answer as the CLI shows it: the verdict, the reason and
    the witness, printed and in its term order."""
    report = (dt_check if mode == DIFFERENTIAL else rbt_check)(pattern)
    witness = report.witness
    printed = None if witness is None else (
        to_str_opoly(witness, OrderConfig(UVW)),
        [(to_str(w), str(c)) for w, c in witness.terms.items()])
    return report.accepted, report.inconclusive, report.reason, printed


def test_keeping_the_word_table_changes_no_verdict():
    # each request is its own outermost job; back to back they share the
    # word table, and after a forced prune each starts from a table that
    # holds only the words something outside it references
    requests = _type_requests(240, random.Random(11))
    close_a_job()
    kept, sizes = [], []
    for request in requests:
        kept.append(_type_answer(*request))
        sizes.append(len(opalg.words._TABLE))
    assert min(sizes) > 0
    pruned = []
    for request in requests:
        close_a_job()
        pruned.append(_type_answer(*request))
    assert pruned == kept
    assert {answer[0] for answer in kept} == {True, False}
    assert sum(answer[3] is not None for answer in kept) > 100


# -- free operator on derivative markers ---------------------------------------------

def test_raise_order_naming():
    assert raise_order("z") == "z_1"
    assert raise_order("z_1") == "z_2"
    assert raise_order("a_9") == "a_10"


def test_free_operator_leibniz():
    Z = GeneratorSet(("z",))
    d = free_dt_operator_nf(parse("z z", Z), DER)
    assert d == parse_opoly("z z_1 + z_1 z", GeneratorSet(("z", "z_1")))
    d3 = free_dt_operator_nf(parse("z z z", Z), DER)
    assert d3 == parse_opoly("z z z_1 + z z_1 z + z_1 z z",
                             GeneratorSet(("z", "z_1")))


def test_free_operator_weight_term():
    Z = GeneratorSet(("z",))
    wl = named_pattern("weight:2")
    d = free_dt_operator_nf(parse("z z", Z), wl)
    assert d == parse_opoly("z z_1 + z_1 z + 2*z_1 z_1",
                            GeneratorSet(("z", "z_1")))


def test_free_operator_agrees_with_rewriting():
    from opalg.rewrite import RuleSchema, normal_form
    Z = GeneratorSet(("z",))
    for spec in ("derivation", "weight:lam", "weight:-1"):
        ident = named_pattern(spec)
        schema = RuleSchema(ident, order=OrderConfig(Z))
        for text in ("z z", "z z z"):
            w = parse(text, Z)
            direct = free_dt_operator_nf(w, ident)
            nf, _ = normal_form(OPoly.from_word(Word((w,))), schema)
            assert delta_view(nf) == direct, (spec, text)


def test_free_operator_second_application_bracket_free():
    Z = GeneratorSet(("z",))
    first = free_dt_operator_nf(parse("z z", Z), DER)
    second = OPoly.zero(DER.ring)
    for w, c in first.terms.items():
        second = second + free_dt_operator_nf(w, DER).scale(c)
    expect = parse_opoly("z z_2 + 2*z_1 z_1 + z_2 z",
                         GeneratorSet(("z", "z_1", "z_2")))
    assert second == expect


def test_free_operator_rejections():
    Z = GeneratorSet(("z",))
    with pytest.raises(ValueError):
        free_dt_operator_nf(Word(()), DER)
    with pytest.raises(ValueError):
        free_dt_operator_nf(parse("[z]", Z), DER)
    td_like = OpIdentity(DIFFERENTIAL, parse_opoly("x [1] y", XY))
    with pytest.raises(ValueError):
        free_dt_operator_nf(parse("z z", Z), td_like)
    # a bracket of two atoms reads d of a word no shorter than the argument
    with pytest.raises(NotDRF):
        free_dt_operator_nf(parse("z z", Z), named_pattern("nijenhuis"))
    # in reduced form, but d(z z z) needs d of z z_1 z_1, which needs d(z z z)
    lengthening = OpIdentity(DIFFERENTIAL, parse_opoly("[[y]] + x y y", XY))
    with pytest.raises(ResourceLimit, match=re.escape(D_TOO_DEEP)):
        free_dt_operator_nf(parse("z z z", Z), lengthening)
