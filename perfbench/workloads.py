"""The benchmark's three workloads: seeded inputs, timed operations, gates.

A workload is built from the ``opalg`` module object it is handed, so the
benchmark can import the library afresh for each set-up it times.  Each
workload yields rounds of operations; an operation is one call a user of
the library would make, and everything it returns is summarised into plain
data that the correctness gate checks after the timed phase.
"""

import itertools
import random
from fractions import Fraction

SIZES = ("full", "tiny")

# coefficients of the sparse random patterns
RANDOM_COEFFS = (Fraction(1), Fraction(-1), Fraction(2), Fraction(1, 2))
# parameter values of the catalog specializations (all nonzero)
SPEC_POOL = tuple(sorted({Fraction(n, d) for n in range(-20, 21) if n
                          for d in range(1, 6)}))


class Op:
    """One timed library call and the summary of its result.

    ``target`` names a public ``opalg`` function, looked up on every call so
    that the tracer's wrappers are seen, or is a function of this module
    taking the library module first."""

    __slots__ = ("label", "lib", "target", "args", "summarize", "info")

    def __init__(self, label, lib, target, args, summarize, info=None):
        self.label = label
        self.lib = lib
        self.target = target
        self.args = args
        self.summarize = summarize
        self.info = info

    def __call__(self):
        if isinstance(self.target, str):
            return getattr(self.lib, self.target)(*self.args)
        return self.target(self.lib, *self.args)


def derived_rng(seed: int, label: str) -> random.Random:
    """An rng fixed by the workload seed and the operation."""
    return random.Random(f"{seed}:{label}")


# -- verify ---------------------------------------------------------------------


def _type_report(report):
    return (report.accepted, report.inconclusive, report.reason)


class Verify:
    """Single-identity certification requests, the job behind
    ``opalg verify``, in a seeded order.

    Per round, with the default sizes:

    * 653 sparse random patterns (64 %) on fixed supports drawn from the
      degree-1 ansatz monomials, with seeded coefficients.  Each 1-term
      support carries all four coefficients, each 2-term support eight
      distinct coefficient draws, each 3-term support one, and every third
      4-term differential and every fourteenth 4-term Rota-Baxter support
      one.  The 4-term supports hold the heavy tail; keeping them all would
      make a round three times as long.
    * 345 seeded rational specializations (34 %), 23 of each of the 15
      parametric catalog families.
    * The 20 symbolic catalog families (2 %) with their constraint ideals.

    The total of 1018 is set by the p99 latency, which needs ten requests
    beyond it; the cheap 2-term draws and the specializations fill the count
    at about 2 ms a request.
    """

    name = "verify"
    round_s = 5.0
    # coefficient draws per support, by support size
    DRAWS = {"full": {1: 4, 2: 8, 3: 1, 4: 1}, "tiny": {1: 2, 2: 1}}
    SPECS_PER_FAMILY = {"full": 23, "tiny": 2}
    FOUR_TERM_STRIDE = {"differential": 3, "rota_baxter": 14}

    def __init__(self, lib, seed: int, size: str, expected: dict):
        self.lib = lib
        self.seed = seed
        self.draws = self.DRAWS[size]
        self.specs_per_family = self.SPECS_PER_FAMILY[size]
        self.checks = {lib.DIFFERENTIAL: "dt_check",
                       lib.ROTA_BAXTER: "rbt_check"}
        self.supports = []
        for mode in self.checks:
            words = [w for _, w in lib.build_ansatz(mode, 1).terms]
            for k in self.draws:
                subsets = list(itertools.combinations(words, k))
                if k == 4:
                    subsets = subsets[::self.FOUR_TERM_STRIDE[mode]]
                self.supports.extend((mode, s) for s in subsets)
        self.families = list(lib.FAMILIES.values())
        for fam in self.families:
            fam.identity()
        self._members = {}

    def ops(self):
        lib = self.lib
        rng = derived_rng(self.seed, "verify")
        ops = []
        for mode, support in self.supports:
            for coeffs in _distinct_coeffs(rng, len(support),
                                           self.draws[len(support)]):
                pattern = lib.OPoly(dict(zip(support, coeffs)))
                ops.append(self._request("random", mode, pattern))
        for fam in self.families:
            ident = fam.identity()
            ops.append(self._request("family", fam.mode, ident.pattern,
                                     ident.constraints, fam.key))
        for fam in self.families:
            if not fam.params:
                continue
            for point in _distinct_points(fam, rng, self.specs_per_family):
                ops.append(self._request("special", fam.mode,
                                         fam.specialize(point).pattern))
        rng.shuffle(ops)
        return ops

    def _request(self, kind, mode, pattern, constraints=(), family=None):
        return Op(kind, self.lib, self.checks[mode], (pattern, constraints),
                  _type_report, info=(mode, pattern, family))

    def oracle(self, ops) -> list:
        """Catalog membership of every request, decided by exact solving in
        ``Family.membership`` rather than by rewriting."""
        out = []
        for op in ops:
            mode, pattern, family = op.info
            if family is not None:
                out.append(True)
                continue
            key = (mode, frozenset(pattern.terms.items()))
            member = self._members.get(key)
            if member is None:
                member = any(fam.membership(pattern) is not None
                             for fam in self.lib.families(mode))
                self._members[key] = member
            out.append(member)
        return out

    def gate(self, ops, summaries, expected_members=None):
        """(failures, undecided): a verdict disagreeing with catalog
        membership fails; an inconclusive verdict on a non-member is
        undecided."""
        if expected_members is None:
            expected_members = self.oracle(ops)
        failures, undecided = [], 0
        for op, summary, member in zip(ops, summaries, expected_members):
            if summary is None:
                continue  # the operation raised; counted by the runner
            accepted, inconclusive, _ = summary
            if inconclusive and not member:
                undecided += 1
            elif accepted != member:
                failures.append(f"{op.label} request: verdict "
                                f"{'accepted' if accepted else 'rejected'}, "
                                f"catalog membership {member}")
        return failures, undecided


def _distinct_coeffs(rng, terms, count):
    """``count`` distinct coefficient vectors of length ``terms``."""
    if count >= len(RANDOM_COEFFS) ** terms:
        return list(itertools.product(RANDOM_COEFFS, repeat=terms))
    seen = []
    while len(seen) < count:
        coeffs = tuple(rng.choice(RANDOM_COEFFS) for _ in range(terms))
        if coeffs not in seen:
            seen.append(coeffs)
    return seen


def _distinct_points(fam, rng, count):
    """``count`` distinct parameter points of the family, each satisfying its
    constraint ideal (dt1's single constraint b^2 - b - c e is solved for e)."""
    points, seen = [], set()
    constraints = fam.identity().constraints
    while len(points) < count:
        point = {p: rng.choice(SPEC_POOL) for p in fam.params}
        if fam.key == "dt1":
            b, c = point["b"], point["c"]
            point["e"] = (b * b - b) / c
        key = tuple(sorted(point.items()))
        if key in seen:
            continue
        if any(g.evaluate(point) != 0 for g in constraints):
            raise ValueError(f"{fam.key}: sampled point leaves the family")
        seen.add(key)
        points.append(point)
    return points


# -- basis ----------------------------------------------------------------------


def _basis_check(lib, system, bound, gsb_rng, cdl_rng):
    return (lib.gsb_check_truncated(system, bound, rng=gsb_rng),
            lib.cdl_direct_sum_check(system, bound, rng=cdl_rng))


def _basis_report(out):
    gsb, cdl = out
    return {"gsb.ok": gsb.ok,
            "gsb.argument_words": gsb.argument_words,
            "gsb.intersections_checked": gsb.intersections_checked,
            "gsb.intersections_reduced": gsb.intersections_reduced,
            "gsb.including_configs": gsb.including_configs,
            "gsb.including_instances_certified":
                gsb.including_instances_certified,
            "gsb.trivial": gsb.trivial_count,
            "gsb.nontrivial": len(gsb.nontrivial),
            "gsb.order_violations": gsb.order_violations,
            "cdl.ok": cdl.ok,
            "cdl.words_checked": cdl.words_checked,
            "cdl.irr_size": cdl.irr_size,
            "cdl.irr_unit_surplus": cdl.irr_unit_surplus,
            "cdl.ideal_zeros": cdl.ideal_zeros,
            "cdl.ideal_samples": cdl.ideal_samples,
            "cdl.failures": len(cdl.failures)}


class Basis:
    """Truncated composition checks plus the direct-sum check (one operation
    per system and bound) for two numeric-coefficient systems and one
    symbolic-coefficient system.

    Wide-and-shallow and narrow-and-deep bounds keep a round between five
    and nine seconds on a 2-vCPU Xeon.  The seed drives the sampled triples
    of the composition check and the sampled ideal elements of the
    direct-sum check.
    """

    name = "basis"
    round_s = 7.0
    SYSTEMS = {"full": (("derivation", (3, 1, 3)),
                        ("endomorphism", (3, 1, 3)),
                        ("endomorphism", (2, 3, 3)),
                        ("weight:lam", (2, 2, 3))),
               "tiny": (("derivation", (2, 1, 3)), ("endomorphism", (2, 1, 3)),
                        ("weight:lam", (2, 1, 3)))}

    def __init__(self, lib, seed: int, size: str, expected: dict):
        self.lib = lib
        self.seed = seed
        self.expected = expected["basis"]
        self.systems = []
        for spec, dims in self.SYSTEMS[size]:
            bound = lib.TruncationBound(*dims)
            system = lib.GeneratorSystem(
                lib.named_pattern(spec), lib.OrderConfig(bound.generator_set()))
            key = f"{spec}@{','.join(map(str, dims))}"
            self.systems.append((key, system, bound))

    def ops(self):
        return [Op(key, self.lib, _basis_check,
                   (system, bound, derived_rng(self.seed, f"{key}/gsb"),
                    derived_rng(self.seed, f"{key}/cdl")),
                   _basis_report)
                for key, system, bound in self.systems]

    def gate(self, ops, summaries):
        return _frozen_gate(ops, summaries, self.expected), 0


def _frozen_gate(ops, summaries, expected):
    """Every summary field named in the expected file must match it."""
    failures = []
    for op, summary in zip(ops, summaries):
        if summary is None:
            continue
        want = expected.get(op.label)
        if want is None:
            failures.append(f"{op.label}: no expected values")
            continue
        for field, value in want.items():
            if summary.get(field) != value:
                failures.append(f"{op.label}: {field} = {summary.get(field)!r},"
                                f" expected {value!r}")
    return failures


# -- classify -------------------------------------------------------------------


def _classify_and_match(lib, mode, rng, points, attempts):
    """Classify the degree-1 ansatz, match it against the catalog, and draw
    ``points`` sample points of every component."""
    result = lib.classify(lib.build_ansatz(mode, 1))
    match = lib.match_catalog(result, samples=1, rng=rng)
    sampled = [lib.sample_points(c.basis, c.nonzero, c.ring, points, rng,
                                 max_attempts=attempts, strict=False)
               for c in result.components]
    return result, match, sampled


def _classify_report(out):
    result, match, sampled = out
    return {"equations": len(result.system.equations),
            "unresolved": len(result.system.unresolved()),
            "components": len(result.components),
            "audit_failures": len(result.audit_failures),
            "described": [c.describe() for c in result.components],
            "match_ok": match.ok,
            "matched": len(match.component_matches),
            "mismatches": len(match.mismatches),
            "uncovered": len(match.uncovered_families),
            "points": [len(p) for p in sampled],
            # checked by evaluating the component's basis, not by sampling
            "points_off_component": sum(
                not c.contains_point(p)
                for c, found in zip(result.components, sampled)
                for p in found)}


def _extract(lib, mode, degree):
    return lib.extract_constraints(lib.build_ansatz(mode, degree))


def _extract_report(system):
    return {"equations": len(system.equations),
            "unresolved": len(system.unresolved())}


class Classify:
    """The ``opalg classify`` pipeline, one operation per ansatz.

    The degree-1 differential and Rota-Baxter ansätze go through build,
    classify, catalog matching at one sample point per component, and then
    two sample points of every component at most 100 attempts each.  The
    seed drives the match and sample rng.  The degree-2 differential ansatz
    goes through constraint extraction (509 equations) only.

    The sample step keeps the ``solve.sample_points`` rejection loop in the
    round: each single-point component (two differential, five Rota-Baxter)
    spends its 100 attempts in full.  ``match_catalog`` at two samples per
    component would spend 4000 attempts on each, about 14 s for the
    differential ansatz alone, which leaves no room to repeat the round.
    """

    name = "classify"
    round_s = 5.5
    POINTS = 2
    ATTEMPTS = 100

    def __init__(self, lib, seed: int, size: str, expected: dict):
        self.lib = lib
        self.seed = seed
        self.with_degree2 = size == "full"
        self.expected = expected["classify"]
        for fam in lib.FAMILIES.values():
            fam.identity()

    def ops(self):
        lib = self.lib
        ops = [Op(f"{key}1", lib, _classify_and_match,
                  (mode, derived_rng(self.seed, f"{key}1"), self.POINTS,
                   self.ATTEMPTS), _classify_report)
               for key, mode in (("dt", lib.DIFFERENTIAL),
                                 ("rbt", lib.ROTA_BAXTER))]
        if self.with_degree2:
            ops.append(Op("dt2", lib, _extract, (lib.DIFFERENTIAL, 2),
                          _extract_report))
        return ops

    def gate(self, ops, summaries):
        return _frozen_gate(ops, summaries, self.expected), 0


CLASSES = {cls.name: cls for cls in (Verify, Basis, Classify)}
WORKLOADS = tuple(CLASSES)


def build(name: str, lib, seed: int, size: str, expected: dict):
    return CLASSES[name](lib, seed, size, expected)
