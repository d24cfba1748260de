"""End-to-end acceptance suite: the library's headline guarantees.

Each test covers one numbered acceptance criterion and prints exactly one
PASS/FAIL line (run ``pytest tests/test_acceptance.py -s`` to see the lines
for passing criteria as well).  Expected values are frozen from independent
oracle runs; runtime ceilings are asserted with wall-clock timers.
"""

import itertools
import random
import time
from fractions import Fraction

from opalg import (DIFFERENTIAL, DT_FAMILIES, GeneratorSet, GeneratorSystem,
                   OpIdentity, OrderConfig, PolyRing, RBT_FAMILIES,
                   RuleSchema, TruncationBound, Word, bracket, buchberger,
                   build_ansatz, cdl_direct_sum_check, classify, compare,
                   dt_check, extract_constraints, gsb_check_truncated,
                   match_catalog, named_pattern, nf_mod_ideal, parse_opoly,
                   rbt_check, solve_components)
from opalg.words import gen_word
from oracles import (GREATER, check_monomial_order, local_confluence_check,
                     satisfied_at)

XY = GeneratorSet(("x", "y"))
UVW = GeneratorSet(("u", "v", "w"))


def _report(num: int, ok: bool, detail: str):
    line = f"criterion {num}: {'PASS' if ok else 'FAIL'} - {detail}"
    print(line)
    assert ok, line


# -- 1: the six differential-type catalog families verify symbolically ---------------

def test_criterion_1_family_verification():
    t0 = time.monotonic()
    param_shape = {"dt1": ("b", "c", "e"), "dt2": ("c", "e"),
                   "dt3": tuple(f"a{i}{j}" for i in range(3) for j in range(3)),
                   "dt4": ("a", "b"), "dt5": ("a",), "dt6": ("a",)}
    failed = []
    for fam in DT_FAMILIES:
        assert fam.params == param_shape[fam.key]
        ident = fam.identity()
        rep = dt_check(ident.pattern, ident.constraints)
        if not rep.accepted:
            failed.append(fam.key)
    elapsed = time.monotonic() - t0
    _report(1, not failed and elapsed < 10.0,
            f"6 differential-type families accepted symbolically "
            f"in {elapsed:.1f}s (limit 10s); failures: {failed or 'none'}")


# -- 2: rejection witness for y[x] ----------------------------------------------------

def test_criterion_2_rejection_witness():
    rep = dt_check(parse_opoly("y [x]", XY))
    assert not rep.accepted
    assert rep.witness is not None and not rep.witness.is_zero
    # the residual obstruction, with the two fresh outer generators merged,
    # is the classical commutator form (u v - v u)[u]
    merged = rep.witness.subst_generators({"w": Word(("u",))})
    expected = parse_opoly("u v [u] - v u [u]", UVW)
    _report(2, merged == expected,
            f"witness collapses to (u v - v u)[u]: got "
            f"{sorted(map(str, merged.terms))}")


# -- 3: degree-2 classification recovers the catalog ----------------------------------

def test_criterion_3_degree2_classification():
    t0 = time.monotonic()
    result = classify(build_ansatz(DIFFERENTIAL, 2))
    report = match_catalog(result, samples=20)
    elapsed = time.monotonic() - t0
    every_matched = sorted(report.component_matches) == \
        list(range(len(result.components)))
    ok = (not result.audit_failures and report.ok and every_matched
          and not report.mismatches and not report.unmatched_components
          and not report.uncovered_families and report.samples == 20
          and elapsed < 600.0)
    _report(3, ok,
            f"{len(result.components)} components all matched "
            f"({sorted(set(report.component_matches.values()))}), "
            f"0 mismatches, full family coverage, distinct points per "
            f"component {report.points_checked} of 20 samples, "
            f"{elapsed:.0f}s (limit 600s)")


# -- 4: the fourteen Rota-Baxter-type catalog families verify symbolically ------------

def test_criterion_4_rota_baxter_catalog():
    failed, inconclusive = [], []
    for fam in RBT_FAMILIES:
        ident = fam.identity()
        rep = rbt_check(ident.pattern, ident.constraints, step_cap=10000)
        if rep.inconclusive:
            inconclusive.append(fam.key)
        elif not rep.accepted:
            failed.append(fam.key)
    _report(4, not failed and not inconclusive,
            f"14 Rota-Baxter-type families accepted within 10^4 steps; "
            f"failed: {failed or 'none'}, inconclusive: "
            f"{inconclusive or 'none'}")


# -- 5: truncated basis property and direct-sum consequences --------------------------

def test_criterion_5_truncated_gsb_and_direct_sum():
    t0 = time.monotonic()
    bound = TruncationBound(3, 2, 3)
    details = []
    ok = True
    for spec in ("derivation", "weight:lam"):
        sys = GeneratorSystem(named_pattern(spec),
                              OrderConfig(bound.generator_set()))
        gsb = gsb_check_truncated(sys, bound)
        cdl = cdl_direct_sum_check(sys, bound, rng=random.Random(5))
        ok = (ok and gsb.ok and not gsb.nontrivial
              and gsb.intersections_checked == 174231
              and gsb.including_configs == 3114
              and cdl.ok and not cdl.failures
              and cdl.ideal_zeros == cdl.ideal_samples == 100
              and cdl.words_checked == 3294 and cdl.irr_size == 1464)
        details.append(f"{spec}: {gsb.intersections_checked} intersections + "
                       f"{gsb.including_configs} including configs trivial, "
                       f"{cdl.words_checked} words in span, "
                       f"{cdl.ideal_zeros}/100 ideal residues zero")
    elapsed = time.monotonic() - t0
    _report(5, ok and elapsed < 300.0,
            f"{'; '.join(details)}; {elapsed:.0f}s (limit 300s)")


# -- 6: three independent certificates agree on every pattern -------------------------

def test_criterion_6_equivalence_bundle():
    bound = TruncationBound(2, 1, 3)
    suite = [(fam.identity(), True) for fam in DT_FAMILIES]
    for text in ("y [x]", "y x", "x [y] - [x] y", "x y + [x] [y]",
                 "2*x [y] + 2*[x] y"):
        suite.append((OpIdentity(DIFFERENTIAL, parse_opoly(text, XY)), False))
    assert len(suite) >= 10
    disagreements = []
    for ident, expected in suite:
        direct = dt_check(ident.pattern, ident.constraints).accepted
        schema = RuleSchema(ident, order=OrderConfig(UVW))
        conf = local_confluence_check(schema, UVW, max_leaves=3, max_depth=1)
        confluent = not conf.nonjoinable and not conf.inconclusive
        sys = GeneratorSystem(ident, OrderConfig(bound.generator_set()))
        basis = gsb_check_truncated(sys, bound).ok
        if not direct == confluent == basis == expected:
            disagreements.append((ident.name or str(ident.pattern),
                                  direct, confluent, basis))
    _report(6, not disagreements,
            f"defect-reduction / local-confluence / composition-triviality "
            f"verdicts agree pairwise on {len(suite)} patterns "
            f"(6 accepted families, 5 engineered failures); "
            f"disagreements: {disagreements or 'none'}")


# -- 7: monomial order laws -----------------------------------------------------------

def _plain_atom(rng, names, depth_left, budget):
    if depth_left > 0 and rng.random() < 0.35:
        inner = _plain_build(rng, names, depth_left - 1, budget)
        if not inner.is_unit:
            return inner
    return rng.choice(names)


def _plain_build(rng, names, depth_left, budget):
    atoms = []
    left = budget
    for _ in range(rng.randint(1, max(1, budget))):
        if left <= 0:
            break
        a = _plain_atom(rng, names, depth_left, left)
        atoms.append(a)
        left -= 1 if isinstance(a, str) else max(1, a.leaves)
    return Word(tuple(atoms))


def plain_word(rng, gens, max_leaves, max_depth):
    """A random word other than the unit and without unit brackets, biased
    toward small words.  ``sample_word`` also draws unit brackets, and there
    the purelex dominance of [u v] fails: for u = [1], dt2's replacement
    monomial [v] [[1]] lies above [[1] v]."""
    names = tuple(gens.names)
    w = _plain_build(rng, names, max_depth, max_leaves)
    return gen_word(rng.choice(names)) if w.is_unit else w


def test_criterion_7_order_laws():
    # the graded order satisfies the full law set on random triples
    graded = OrderConfig(UVW, "deglenlex")
    laws = check_monomial_order(graded, sample_budget=10000,
                                rng=random.Random(11), max_depth=3)
    laws_ok = (laws.ok and laws.checked == 10000
               and not laws.unit_violations
               and not laws.monotonicity_violations
               and not laws.totality_failures)
    # under the rewriting order, the bracketed product [u v] dominates every
    # replacement monomial of every accepted family, for u, v without unit
    # brackets
    pure = OrderConfig(UVW, "purelex")
    rng = random.Random(23)
    patterns = [fam.identity().pattern for fam in DT_FAMILIES]
    dominated = 0
    violations = 0
    samples = 0
    while samples < 1000:
        u = plain_word(rng, UVW, 3, 2)
        v = plain_word(rng, UVW, 3, 2)
        if u.is_unit or v.is_unit:
            continue
        samples += 1
        luv = bracket(u * v)
        for pattern in patterns:
            for m in pattern.subst_generators({"x": u, "y": v}).terms:
                dominated += 1
                if compare(luv, m, pure) != GREATER:
                    violations += 1
    _report(7, laws_ok and violations == 0,
            f"10^4 random (q, u, v) triples satisfy unit minimality and "
            f"context monotonicity; [u v] dominates all {dominated} "
            f"replacement monomials over 10^3 samples "
            f"({violations} violations)")


# -- 8: constraint extraction matches brute-force verification ------------------------

def test_criterion_8_oracle_equivalence():
    ansatz = build_ansatz(DIFFERENTIAL, 1)
    names = [name for name, _ in ansatz.terms]
    system = extract_constraints(ansatz)
    mismatches = 0
    points = 0
    for k in range(0, 5):
        for support in itertools.combinations(range(len(names)), k):
            for combo in itertools.product((Fraction(1), Fraction(-1)),
                                           repeat=k):
                point = {name: Fraction(0) for name in names}
                for idx, value in zip(support, combo):
                    point[names[idx]] = value
                points += 1
                direct = dt_check(ansatz.specialize(point)).accepted
                if direct != satisfied_at(system, point):
                    mismatches += 1
    ring = PolyRing(("a", "b", "e"))
    comps = solve_components([ring.parse("a^2 - a"), ring.parse("b^2 - b"),
                              ring.parse("e*(a - b)")], ring)
    described = sorted(c.describe() for c in comps)
    expected = sorted(["b = 0, a = 0", "b - 1 = 0, a - 1 = 0",
                       "e = 0, b = 0, a - 1 = 0", "e = 0, b - 1 = 0, a = 0"])
    _report(8, mismatches == 0 and described == expected,
            f"direct check == extracted constraints on all {points} "
            f"patterns with <= 4 terms over {{0, +-1}}; "
            f"idempotent-pair system splits into exactly "
            f"{len(comps)} components")


# -- 9: commutative Groebner engine ---------------------------------------------------

def _random_poly(rng: random.Random, ring: PolyRing):
    x, y = ring.var("x"), ring.var("y")
    p = ring.zero()
    for _ in range(rng.randint(1, 4)):
        term = ring.const(Fraction(rng.randint(-3, 3)))
        for _ in range(rng.randint(0, 3)):
            term = term * rng.choice((x, y))
        p = p + term
    return p


def test_criterion_9_buchberger_correctness():
    ring = PolyRing(("x", "y"))
    x, y = ring.var("x"), ring.var("y")
    f, g = x * x - ring.const(1), x * y - ring.const(1)
    gb = buchberger([f, g], ring)
    basis_ok = set(gb) == {x - y, y * y - ring.const(1)}
    assert nf_mod_ideal(x * x, gb) == ring.const(1)
    assert nf_mod_ideal(x, gb) == y
    rng = random.Random(17)
    ideal_failures = 0
    for _ in range(1000):
        elem = _random_poly(rng, ring) * f + _random_poly(rng, ring) * g
        if not nf_mod_ideal(elem, gb).is_zero:
            ideal_failures += 1
    nonmember_failures = 0
    for _ in range(1000):
        a = Fraction(rng.randint(-5, 5))
        b = Fraction(rng.randint(-5, 5))
        if a == 0 and b == 0:
            a = Fraction(1)
        # a + b*y is already a nonzero normal form, so adding it to an ideal
        # element produces a certified non-member
        outside = _random_poly(rng, ring) * f + _random_poly(rng, ring) * g \
            + ring.const(a) + ring.const(b) * y
        if nf_mod_ideal(outside, gb).is_zero:
            nonmember_failures += 1
    _report(9, basis_ok and ideal_failures == 0 and nonmember_failures == 0,
            f"lex basis == {{x - y, y^2 - 1}}; 1000 ideal elements reduce "
            f"to zero ({ideal_failures} failures); 1000 non-members stay "
            f"nonzero ({nonmember_failures} failures)")
