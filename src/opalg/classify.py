"""Classification of operator identities by ansatz reduction.

A candidate replacement pattern with indeterminate coefficients is reduced
against its own rules; the surviving monomial coefficients give a polynomial
constraint system whose solution components are the admissible identities.
Components are matched against the built-in catalog by sampling points in
both directions.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction

from .catalog import Family, families
from .coeffs import MPoly, PolyRing, ResourceLimit
from .gsb import UVW, dt_check, generic_defect, rbt_check
from .opoly import DIFFERENTIAL, OPoly, OpIdentity, ROTA_BAXTER, XY
from .ordering import OrderConfig
from .rewrite import (NORMAL_FORM, RuleSchema, factored_normal_form,
                      in_reduced_form, job_memo, normal_form)
from .solve import SolutionComponent, find_representative, sample_points, \
    solve_components
from .words import (Word, enumerate_words, job, to_str, tokens,
                    tower_heights, word_sort_key)


class ReductionBudgetExceeded(ResourceLimit):
    """The defect reduction did not reach a fixed point within the budget."""


class Ansatz:
    """A totally linear candidate pattern with indeterminate coefficients."""

    __slots__ = ("mode", "terms", "ring", "pattern")

    def __init__(self, mode: str, terms):
        self.mode = mode
        self.terms = tuple(terms)
        names = [name for name, _ in self.terms]
        self.ring = PolyRing(names)
        poly = {}
        for name, word in self.terms:
            poly[word] = self.ring.var(name)
        self.pattern = OPoly(poly, ring=self.ring)

    def identity(self) -> OpIdentity:
        return OpIdentity(self.mode, self.pattern)

    def specialize(self, point: dict) -> OPoly:
        """The numeric pattern at a coefficient assignment."""
        return self.pattern.evaluate_coeffs(point)

    def coefficient_point(self, pattern: OPoly):
        """Express a concrete pattern in this ansatz's coordinates, or None
        if its support leaves the ansatz's monomial space."""
        by_word = {w: n for n, w in self.terms}
        point = {name: Fraction(0) for name, _ in self.terms}
        for w, c in pattern.terms.items():
            name = by_word.get(w)
            if name is None:
                return None
            if isinstance(c, MPoly):
                if not c.is_constant:
                    return None
                c = c.constant_value()
            point[name] = c
        return point

    def describe(self) -> str:
        body = " + ".join(f"{n}*{to_str(w)}" for n, w in self.terms)
        return f"{self.mode} ansatz with {len(self.terms)} terms: {body}"

    def __repr__(self):
        return f"Ansatz({self.mode}, {len(self.terms)} terms)"


def build_ansatz(mode: str, max_op_degree: int,
                 include_unit_terms: bool = False,
                 include_reversed: bool = True) -> Ansatz:
    """Enumerate all admissible totally linear monomials in x and y up to the
    operator degree and attach a fresh coefficient to each.

    Differential mode admits reduced (bracket-of-product-free) monomials with
    per-factor tower height up to the degree; Rota-Baxter mode admits
    monomials free of adjacent brackets with total bracket count up to the
    degree.  ``include_unit_terms`` adds unit-bracket factors within the same
    budget; ``include_reversed`` keeps the y-before-x arrangements.
    """
    if max_op_degree < 0:
        raise ValueError("operator degree must be nonnegative")
    if mode not in (DIFFERENTIAL, ROTA_BAXTER):
        raise ValueError(f"unknown mode {mode!r}")
    sigma = mode == DIFFERENTIAL
    unit_budget = max_op_degree if include_unit_terms else 0
    picked = []
    for w in enumerate_words(XY, 2 + unit_budget, max_op_degree,
                             include_unit_brackets=include_unit_terms,
                             include_unit=False):
        toks = tokens(w)
        gens = [t for t in toks if t != "[" and t != "]"]
        if sorted(gens) != ["x", "y"]:
            continue
        if not include_reversed and gens != ["x", "y"]:
            continue
        if not in_reduced_form(w, sigma):
            continue
        if not sigma and toks.count("[") > max_op_degree:
            continue
        picked.append(w)
    picked.sort(key=word_sort_key)
    terms = []
    counter = itertools.count()
    for w in picked:
        name = None
        if sigma and not include_unit_terms:
            towers = tower_heights(w)
            if towers and len(towers) == 2:
                (g1, h1), (g2, h2) = towers
                name = (f"a{h1}{h2}" if (g1, g2) == ("x", "y")
                        else f"b{h1}{h2}")
        if name is None:
            name = f"c{next(counter):02d}"
        terms.append((name, w))
    return Ansatz(mode, terms)


class Equation:
    __slots__ = ("poly", "monomial", "unresolved")

    def __init__(self, poly, monomial, unresolved):
        self.poly = poly
        self.monomial = monomial
        self.unresolved = unresolved

    def describe(self) -> str:
        tag = " (unresolved: unit-bracket residue)" if self.unresolved else ""
        return f"{self.poly} = 0   from {to_str(self.monomial)}{tag}"


class ConstraintSystem:
    __slots__ = ("ansatz", "equations")

    def __init__(self, ansatz, equations):
        self.ansatz = ansatz
        self.equations = tuple(equations)

    def polynomials(self):
        return [eq.poly for eq in self.equations if not eq.unresolved]

    def unresolved(self):
        return [eq for eq in self.equations if eq.unresolved]

    def satisfied_at(self, point: dict) -> bool:
        return all(eq.poly.evaluate(point) == 0 for eq in self.equations
                   if not eq.unresolved)


def _unit_residue(w: Word) -> bool:
    """A unit bracket nested inside another bracket, the shape the reduction
    cannot interpret canonically."""
    return any(a.has_unit_bracket for a in w.atoms if isinstance(a, Word))


@job()
def extract_constraints(ansatz: Ansatz, step_cap: int = 4000) -> ConstraintSystem:
    """Reduce the defect with the ansatz's own rules, leftmost-outermost
    first, and read off one equation per surviving monomial.

    The defect's normal form is the job memo's sum (``factored_normal_form``,
    with no per-word reduction) where the memo answers every word (see
    ``RewriteMemo.strategy_nf``), its walks keeping at most ``step_cap``
    atoms; otherwise ``normal_form`` reduces the whole defect within
    ``step_cap`` steps."""
    ident = ansatz.identity()
    order = OrderConfig(UVW) if ansatz.mode == DIFFERENTIAL else None
    schema = RuleSchema(ident, order=order)
    defect = generic_defect(ident)
    terms = factored_normal_form(defect, job_memo(schema), step_cap, None)
    if terms is None:
        nf, trace = normal_form(defect, schema, "lo", step_cap)
        if trace.status != NORMAL_FORM:
            raise ReductionBudgetExceeded(
                f"defect reduction exceeded {step_cap} steps "
                f"({len(nf.terms)} monomials pending)")
        terms = nf.terms
    equations = []
    for w in sorted(terms, key=word_sort_key):
        coeff = terms[w]
        if not isinstance(coeff, MPoly):
            coeff = ansatz.ring.const(coeff)
        equations.append(Equation(coeff, w, _unit_residue(w)))
    return ConstraintSystem(ansatz, equations)


class ClassifyResult:
    __slots__ = ("ansatz", "system", "components", "audit_failures")

    def __init__(self, ansatz, system, components, audit_failures):
        self.ansatz = ansatz
        self.system = system
        self.components = tuple(components)
        self.audit_failures = tuple(audit_failures)


def _audit_component(ansatz: Ansatz, comp: SolutionComponent) -> bool:
    point = find_representative(comp.basis, comp.nonzero, ansatz.ring)
    if point is None:
        return False
    pattern = ansatz.specialize(point)
    if ansatz.mode == DIFFERENTIAL:
        return dt_check(pattern).accepted
    return rbt_check(pattern).accepted


@job()
def classify(ansatz: Ansatz, budget: int = 4000) -> ClassifyResult:
    """Extract constraints, split the solution set into components, and
    self-audit each component's representative with the matching type check.
    Components failing the audit are reported, never silently emitted."""
    system = extract_constraints(ansatz, budget)
    components = solve_components(system.polynomials(), ansatz.ring)
    passed, failed = [], []
    for comp in components:
        (passed if _audit_component(ansatz, comp) else failed).append(comp)
    return ClassifyResult(ansatz, system, passed, failed)


# -- catalog matching ----------------------------------------------------------------


class MatchReport:
    __slots__ = ("component_matches", "unmatched_components", "mismatches",
                 "family_coverage", "uncovered_families", "samples",
                 "points_checked")

    def __init__(self, samples):
        self.samples = samples
        self.points_checked = []  # distinct points sampled, per component
        self.component_matches = {}
        self.unmatched_components = []
        self.mismatches = []
        self.family_coverage = {}
        self.uncovered_families = []

    @property
    def ok(self) -> bool:
        return not (self.unmatched_components or self.uncovered_families
                    or self.mismatches)

    def describe(self) -> str:
        lines = [f"catalog match at {self.samples} samples per component: "
                 f"{'clean' if self.ok else 'with defects'}"]
        for idx in sorted(self.component_matches):
            lines.append(f"  component {idx + 1} -> {self.component_matches[idx]}")
        for idx in self.unmatched_components:
            lines.append(f"  component {idx + 1} -> UNMATCHED")
        for key, count in sorted(self.family_coverage.items()):
            lines.append(f"  family {key}: {count} representative(s) covered")
        for key in self.uncovered_families:
            lines.append(f"  family {key}: NOT COVERED")
        if self.mismatches:
            lines.append(f"  {len(self.mismatches)} sample mismatches")
        return "\n".join(lines)


def _family_inspace_components(fam: Family, ansatz: Ansatz):
    """Components of the family's parameter space whose patterns stay inside
    the ansatz's monomial support."""
    ring = fam.ring()
    ident = fam.identity()
    support = {w for _, w in ansatz.terms}
    eqs = [c for c in ident.constraints]
    for w, coeff in ident.pattern.terms.items():
        if w not in support:
            if not isinstance(coeff, MPoly):
                coeff = ring.const(coeff)
            eqs.append(coeff)
    for poly in eqs:
        if poly.is_constant and poly.constant_value() != 0:
            return []  # a fixed out-of-space term: nothing to cover
    return solve_components(eqs, ring)


@job()
def match_catalog(result: ClassifyResult, samples: int = 20,
                  rng: random.Random = None) -> MatchReport:
    """Bidirectional containment between components and catalog families.

    A component is matched to the first catalog family, in catalog order,
    whose membership holds at every one of its sampled rational points (up
    to ``samples`` distinct points; ``points_checked`` records how many).
    Only when no family holds them all is each point tested against the
    catalog, and a point that no family holds is a mismatch.  Membership is
    solved only until a component or a point is decided: a family is
    dropped at its first failing point, a point accepted at its first
    holding family.  Every family specialization living inside the ansatz
    space must satisfy some component.  Unmatched items are listed.
    """
    if samples < 1:
        raise ValueError(f"samples must be at least 1, got {samples}")
    rng = rng or random.Random(0)
    ansatz = result.ansatz
    catalog = families(ansatz.mode)
    report = MatchReport(samples)

    for idx, comp in enumerate(result.components):
        points = sample_points(comp.basis, comp.nonzero, ansatz.ring,
                               samples, rng, strict=False)
        report.points_checked.append(len(points))
        patterns = [ansatz.specialize(point) for point in points]
        key = next((fam.key for fam in catalog if all(
            fam.membership(p) is not None for p in patterns)), None)
        if points and key is not None:
            report.component_matches[idx] = key
            continue
        report.unmatched_components.append(idx)
        report.mismatches.extend(
            (idx, point) for point, p in zip(points, patterns)
            if not any(fam.membership(p) is not None for fam in catalog))

    for fam in catalog:
        covered = 0
        reachable = 0
        for fcomp in _family_inspace_components(fam, ansatz):
            fpoints = sample_points(fcomp.basis, fcomp.nonzero, fam.ring(),
                                    max(1, samples // 4), rng, strict=False)
            for fpoint in fpoints:
                pattern = fam.specialize(fpoint).pattern
                point = ansatz.coefficient_point(pattern)
                if point is None:
                    continue
                reachable += 1
                if any(comp.contains_point(point)
                       for comp in result.components):
                    covered += 1
        report.family_coverage[fam.key] = covered
        if covered < reachable:
            report.uncovered_families.append(fam.key)
    return report
