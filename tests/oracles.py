"""The independent checks the tests compare the engine's jobs against.

No job of the library runs them, so none lives in ``src/opalg``:

* ``check_monomial_order`` samples the monomial-order laws of an
  ``OrderConfig`` through ``ordering.compare``;
* ``local_confluence_check`` is acceptance criterion 6's peak-joinability
  certificate, and ``joinable`` the test of one peak;
* ``free_dt_operator_nf`` builds the normal forms of a differential-type
  identity on bracket-free words with no rewriting, and ``delta_view``
  reads rewriting's normal forms in its words;
* ``satisfied_at`` evaluates a constraint system at a point.

``joinable`` is a helper over the engine, not a second engine: it decides a
peak by ``rewrite.reduces_to_zero`` and, failing that, by two reach sets of
the engine's exhaustive search (``rewrite._explore``) through the job's
memo (``rewrite.job_memo``), inside a ``words.job`` scope of its own.  It
reads the search budget and the redex walk through the ``rewrite`` module
at call time, so a test that patches ``rewrite.EXPLORE_BUDGET`` or
``rewrite.find_redexes`` patches them here too.

This module is not collected by pytest; test modules import it by name.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass, field

from opalg import rewrite
from opalg.coeffs import MAX_DEPTH, ResourceLimit, _add_scaled_into
from opalg.opoly import OPoly, OpIdentity
from opalg.ordering import OrderConfig, compare, random_context
from opalg.rewrite import NotDRF, RuleSchema, Verdict
from opalg.words import (STAR, Word, enumerate_words, job, sample_word, splice,
                         to_str, tower_heights)

# -- the monomial-order laws ------------------------------------------------------

LESS, EQUAL, GREATER = -1, 0, 1


@dataclass
class PropertyReport:
    """Outcome of randomized order-law verification."""

    checked: int = 0
    monotonicity_violations: list = field(default_factory=list)
    unit_violations: list = field(default_factory=list)
    totality_failures: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not (self.monotonicity_violations or self.unit_violations
                    or self.totality_failures)

    def summary(self) -> str:
        if self.ok:
            return f"order laws hold on {self.checked} sampled triples"
        return (f"{len(self.monotonicity_violations)} monotonicity, "
                f"{len(self.unit_violations)} unit-minimality, "
                f"{len(self.totality_failures)} totality failures "
                f"on {self.checked} sampled triples")


@job()
def check_monomial_order(cfg: OrderConfig, sample_budget: int = 10000,
                         rng: random.Random = None, max_leaves: int = 4,
                         max_depth: int = 3) -> PropertyReport:
    """Randomized verification of the monomial-order laws for ``cfg``.

    Checks, on sampled (q, u, v): unit minimality 1 < u, totality and
    antisymmetry of the comparison, and context monotonicity
    u < v  =>  q|_u < q|_v.  Counterexample triples are collected verbatim.
    """
    rng = rng or random.Random(0)
    gens = cfg.gens
    report = PropertyReport()
    for _ in range(sample_budget):
        u = sample_word(rng, gens, max_leaves, max_depth)
        v = sample_word(rng, gens, max_leaves, max_depth)
        q = random_context(rng, gens, max_leaves, max_depth)
        report.checked += 1
        for w in (u, v):
            if not w.is_unit and compare(Word(()), w, cfg) != LESS:
                report.unit_violations.append(to_str(w))
        cuv, cvu = compare(u, v, cfg), compare(v, u, cfg)
        if cuv != -cvu or (cuv == EQUAL) != (u == v):
            report.totality_failures.append((to_str(u), to_str(v)))
            continue
        if cuv == EQUAL:
            continue
        small, big = (u, v) if cuv == LESS else (v, u)
        if compare(splice(q, small.atoms), splice(q, big.atoms), cfg) != LESS:
            report.monotonicity_violations.append(
                (to_str(splice(q, (STAR,))), to_str(small), to_str(big)))
    return report


# -- peak joinability ---------------------------------------------------------------


@job()
def joinable(f: OPoly, g: OPoly, schema: RuleSchema) -> Verdict:
    """Do ``f`` and ``g`` reach a common reduct?

    Decided through their difference first (reduction of f - g to zero
    certifies joinability); otherwise the reduct sets are intersected
    within ``rewrite.EXPLORE_BUDGET`` each.
    """
    f = schema.normalize(schema.lift(f))
    g = schema.normalize(schema.lift(g))
    if f == g:
        return Verdict(Verdict.YES, detail="equal in 0 steps")
    diff = rewrite.reduces_to_zero(f - g, schema)
    if diff.is_yes:
        return Verdict(Verdict.YES, detail=f"difference vanishes ({diff.detail})")
    memo = rewrite.job_memo(schema)
    budget = rewrite.EXPLORE_BUDGET
    reach_f, complete_f, _ = rewrite._explore(f, memo, budget)
    reach_g, complete_g, _ = rewrite._explore(g, memo, budget)
    if reach_f & reach_g:
        return Verdict(Verdict.YES, detail="common reduct found by search")
    if complete_f and complete_g:
        return Verdict(Verdict.NO, witness=f - g, detail="reduct sets disjoint")
    return Verdict(Verdict.INCONCLUSIVE, witness=f - g,
                   detail="exploration budget exhausted")


class ConfluenceReport:
    __slots__ = ("words_checked", "peaks_checked", "nonjoinable", "inconclusive",
                 "bound_note")

    def __init__(self):
        self.words_checked = 0
        self.peaks_checked = 0
        self.nonjoinable = []
        self.inconclusive = []
        self.bound_note = ""

    @property
    def ok(self) -> bool:
        return not self.nonjoinable and not self.inconclusive

    def summary(self) -> str:
        verdict = "locally confluent at bound" if self.ok else "NOT confluent"
        return (f"{verdict}: {self.words_checked} words, "
                f"{self.peaks_checked} peaks, {len(self.nonjoinable)} non-joinable, "
                f"{len(self.inconclusive)} undecided ({self.bound_note})")


@job()
def local_confluence_check(schema: RuleSchema, gens, max_leaves: int = 3,
                           max_depth: int = 2,
                           peak_cap: int = 200000) -> ConfluenceReport:
    """Check joinability of every one-step peak on all words within the bound.

    Every pair of distinct redexes of every enumerated word is a peak; the
    three relative positions (separated, overlapping, nested) all arise from
    the enumeration itself.  Raises ResourceLimit when the peak count would
    exceed ``peak_cap``.  It keeps no peak memo: it meets each enumerated
    word once.
    """
    report = ConfluenceReport()
    report.bound_note = f"leaves <= {max_leaves}, depth <= {max_depth}"
    words = enumerate_words(gens, max_leaves, max_depth,
                            include_unit_brackets=True, include_unit=True)
    for w in words:
        report.words_checked += 1
        redexes = rewrite.find_redexes(w, schema)
        if len(redexes) < 2:
            continue
        reducts = [schema.normalize(schema.replacement(r)) for r in redexes]
        for i in range(len(reducts)):
            for j in range(i + 1, len(reducts)):
                report.peaks_checked += 1
                if report.peaks_checked > peak_cap:
                    raise ResourceLimit(
                        f"peak cap {peak_cap} exceeded at {to_str(w)}")
                verdict = joinable(reducts[i], reducts[j], schema)
                if verdict.kind == Verdict.NO:
                    report.nonjoinable.append((w, reducts[i], reducts[j]))
                elif verdict.kind == Verdict.INCONCLUSIVE:
                    report.inconclusive.append((w, reducts[i], reducts[j]))
    return report


# -- the free operator on differential words ----------------------------------------

_ORDER_SUFFIX = re.compile(r"^(.*)_([0-9]+)$")


def raise_order(name: str) -> str:
    """z -> z_1 -> z_2 -> ...: the next derivative marker of a generator."""
    m = _ORDER_SUFFIX.match(name)
    if m:
        return f"{m.group(1)}_{int(m.group(2)) + 1}"
    return name + "_1"


def free_dt_operator_nf(u: Word, identity: OpIdentity) -> OPoly:
    """The induced operator d on bracket-free words over derivative markers.

    d(z_i) raises the marker; on longer words d(u1 u2...uk) expands the
    replacement pattern at (u1, u2...uk), a tower of n brackets over x or y
    (``words.tower_heights``) read as n applications of d.  The result is
    always bracket-free.  Each application of d inside another takes one
    frame; past ``MAX_DEPTH`` of them, one a generator for the catalog's
    patterns, it raises ``ResourceLimit(D_TOO_DEEP)``.
    """
    if u.is_unit:
        raise ValueError("the recursion does not define d at the unit")
    if any(isinstance(a, Word) for a in u.atoms):
        raise ValueError("d acts on bracket-free words over derivative markers")
    pattern = []  # (coefficient, [(x or y as 0 or 1, tower height), ...])
    for mono, coeff in identity.pattern.terms.items():
        if mono.has_unit_bracket:
            raise ValueError(
                "patterns with unit-bracket terms induce no operator on "
                f"bracket-free words (offending monomial {to_str(mono)})")
        towers = tower_heights(mono)
        if towers is None:
            raise NotDRF("d is defined by patterns in reduced form "
                         f"only (offending monomial {to_str(mono)})")
        pattern.append((coeff, [(("x", "y").index(g), height)
                                for g, height in towers]))
    return _d(OPoly.from_word(u, ring=identity.ring), pattern, 1)


D_TOO_DEEP = (f"the free operator nests more than {MAX_DEPTH} applications "
              "of d: one a generator of the word, or more where the pattern "
              "lengthens words")


# The recursions of ``free_dt_operator_nf`` and ``delta_view`` are
# module-level: a recursive closure would leave a reference cycle per call.


def _d(p: OPoly, pattern: list, level: int) -> OPoly:
    """d extended linearly, as the ``level``-th application inside one
    another."""
    if level > MAX_DEPTH:
        raise ResourceLimit(D_TOO_DEEP)
    ring = p.ring
    out: dict = {}
    for w, c in p.terms.items():
        atoms = w.atoms
        if len(atoms) == 1:
            _add_scaled_into(out, {Word((raise_order(atoms[0]),)): c})
            continue
        ab = (OPoly.from_word(Word(atoms[:1]), ring=ring),
              OPoly.from_word(Word(atoms[1:]), ring=ring))
        dw: dict = {}
        for coeff, factors in pattern:
            term = OPoly.from_word(Word(()), ring=ring)
            for i, height in factors:
                factor = ab[i]
                for _ in range(height):
                    factor = _d(factor, pattern, level + 1)
                term = term * factor
            _add_scaled_into(dw, term.terms, coeff)
        _add_scaled_into(out, dw, c)
    return OPoly._trusted(out, ring)


def delta_view(p: OPoly) -> OPoly:
    """Collapse pure derivative towers: a bracket around a single generator
    becomes the raised generator, recursively.  Words in reduced form over
    derivative markers become bracket-free under this view.  It takes two
    frames a nesting level of a word."""
    out: dict = {}
    for w, c in p.terms.items():
        _add_scaled_into(out, {Word(tuple(_atom_view(a) for a in w.atoms)): c})
    return OPoly._trusted(out, p.ring)


def _atom_view(a):
    """One atom under ``delta_view``."""
    if isinstance(a, str):
        return a
    inner = tuple(_atom_view(x) for x in a.atoms)
    if len(inner) == 1 and isinstance(inner[0], str):
        return raise_order(inner[0])
    return Word(inner)


# -- constraint systems -------------------------------------------------------------


def satisfied_at(system, point: dict) -> bool:
    """Does ``point`` zero every resolved equation of the
    ``classify.ConstraintSystem`` ``system``?"""
    return all(p.evaluate(point) == 0 for p in system.polynomials())
