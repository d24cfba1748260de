"""Composition checks and basis certificates for operator rewriting systems.

The generator system of a differential-shape identity is the infinite rule
family phi(u, v) = [u v] - N(u, v).  This module enumerates the compositions
of its instance pairs at a finite truncation (``gsb_check_truncated``: one
record per intersection triple and per including configuration), decides
their triviality by reduction, enumerates the irreducible words, runs the
direct-sum (composition-diamond) consequences, and packages the
differential-type / Rota-Baxter-type certificates.

``is_trivial`` is the one place a composition value is audited against the
order and reduced: both composition kinds of ``gsb_check_truncated`` go
through it, and the check's ``NFCache`` sums its words' normal forms, each
the product of its atoms' or the word's own heap reduction, by the one sum
the ansatz extraction of ``classify`` reads too
(``rewrite.factored_normal_form``).  Each check is one job (see
``words.job``): its normal forms and order audits read the job's one
``RewriteMemo`` of the schema (``rewrite.job_memo``), which is dropped when
the check returns, and its irreducibility tests read each word's redex flag.
Every composition value, ideal element and associativity defect is filled
from the plans its identity compiles once (``OpIdentity.plans``).
"""

from __future__ import annotations

import random

from .coeffs import _add_scaled_into, _add_term
from .opoly import (DIFFERENTIAL, OPoly, OpIdentity, ROTA_BAXTER,
                    to_str_opoly)
from .ordering import OrderConfig, random_context
from .rewrite import (NORMAL_FORM, NotDRF, NotRBRF, NotTotallyLinear, Redex,
                      ResourceLimit, RuleSchema, Verdict, _search_verdict,
                      _span_certificate, _strategy_verdict,
                      factored_normal_form, find_redexes, in_reduced_form,
                      job_memo, normal_form)
from .words import (GeneratorSet, Word, bracket, enumerate_words, fill, job,
                    splice, to_str)

BOUND_GEN_NAMES = ("u", "v", "w", "p", "q", "r", "s", "t")


class TruncationBound:
    """Word-size budget for truncated checks: words are enumerated with at
    most ``max_breadth`` generator occurrences, nesting depth at most
    ``max_depth``, over ``max_generators`` generators."""

    __slots__ = ("max_breadth", "max_depth", "max_generators")

    def __init__(self, max_breadth: int, max_depth: int, max_generators: int = 3):
        if max_breadth < 1 or max_depth < 0 or max_generators < 1:
            raise ValueError("bound breadth and generators must be >= 1, depth >= 0")
        if max_generators > len(BOUND_GEN_NAMES):
            raise ValueError(f"at most {len(BOUND_GEN_NAMES)} generators supported")
        self.max_breadth = max_breadth
        self.max_depth = max_depth
        self.max_generators = max_generators

    def generator_set(self) -> GeneratorSet:
        return GeneratorSet(BOUND_GEN_NAMES[:self.max_generators])

    def describe(self) -> str:
        return (f"breadth <= {self.max_breadth}, depth <= {self.max_depth}, "
                f"{self.max_generators} generators")

    def __repr__(self):
        return (f"TruncationBound({self.max_breadth}, {self.max_depth}, "
                f"{self.max_generators})")


class GeneratorSystem(RuleSchema):
    """The rule family of one differential-shape identity, with its order."""

    __slots__ = ()

    def __init__(self, identity: OpIdentity, order: OrderConfig):
        if identity.kind != DIFFERENTIAL:
            raise ValueError("generator systems need a differential-shape "
                             "identity; no order is available otherwise")
        super().__init__(identity, order=order)


# -- compositions -------------------------------------------------------------------

INTERSECTION = "intersection"
INCLUDING = "including"

TRIVIAL = "trivial"
NONTRIVIAL = "nontrivial"


class CompositionRecord:
    """One composition at the ambient word ``w``.  An intersection overlaps
    two instances at w itself (mu = nu = 1); an including record places the
    inner instance in ``context`` and keeps the spectator argument
    generic."""

    __slots__ = ("kind", "w", "value", "context", "verdict", "residue")

    def __init__(self, kind, w, value, context=None):
        self.kind = kind
        self.w = w
        self.value = value
        self.context = context
        self.verdict = None
        self.residue = None

    def describe(self) -> str:
        including = self.kind == INCLUDING
        place = f"q = {to_str(self.context)}" if including else "mu = 1, nu = 1"
        out = f"{self.kind} at w = {to_str(self.w)} ({place})"
        if self.verdict:
            out += f": {self.verdict}"
            if self.verdict == NONTRIVIAL and self.residue is not None:
                out += f", residue {to_str_opoly(self.residue)}"
        if including:
            out += " [spectator argument generic]"
        return out


# -- truncated basis check ----------------------------------------------------------


class GsbReport:
    __slots__ = ("pattern", "bound", "argument_words", "certify",
                 "intersections_checked", "intersections_reduced",
                 "including_configs", "including_instances_certified",
                 "trivial_count", "nontrivial", "order_violations")

    def __init__(self, pattern: str, bound: TruncationBound, argument_words: int,
                 certify: str):
        self.pattern = pattern
        self.bound = bound
        self.argument_words = argument_words
        self.certify = certify
        self.intersections_checked = 0
        self.intersections_reduced = 0
        self.including_configs = 0
        self.including_instances_certified = 0
        self.trivial_count = 0
        self.nontrivial = []
        self.order_violations = 0

    @property
    def ok(self) -> bool:
        return not self.nontrivial and self.order_violations == 0

    def describe(self) -> str:
        verdict = ("Groebner-Shirshov at the bound" if self.ok
                   else f"{len(self.nontrivial)} nontrivial compositions")
        return (f"{self.pattern}: {verdict} ({self.bound.describe()}; "
                f"{self.argument_words} argument words, "
                f"{self.intersections_checked} intersections "
                f"({self.intersections_reduced} reduced, rest by substitution "
                f"transfer), {self.including_configs} including configurations "
                f"certifying {self.including_instances_certified} instances, "
                f"{self.order_violations} order violations)")

    def to_dict(self) -> dict:
        return {
            "pattern": self.pattern,
            "bound": {"max_breadth": self.bound.max_breadth,
                      "max_depth": self.bound.max_depth,
                      "max_generators": self.bound.max_generators},
            "argument_words": self.argument_words,
            "certify": self.certify,
            "intersections_checked": self.intersections_checked,
            "intersections_reduced": self.intersections_reduced,
            "including_configs": self.including_configs,
            "including_instances_certified": self.including_instances_certified,
            "trivial": self.trivial_count,
            "nontrivial": [c.describe() for c in self.nontrivial],
            "order_violations": self.order_violations,
            "ok": self.ok,
        }


class NFCache:
    """The basis check's reduction of composition values, and the audit of
    the words it reduces on the heap.

    ``reduce`` sums a value's normal form over its words
    (``rewrite.factored_normal_form``) and reduces the sum modulo the
    constraint ideal once.  The job's ``RewriteMemo`` of the schema
    (``job_memo``) gives each word it answers (``RewriteMemo.strategy_nf``),
    its walks over the value keeping at most ``step_cap`` atoms.  Any other
    word is reduced from itself by ``_reduced``'s own ``normal_form`` call
    through the same memo, in at most ``step_cap`` steps, which are audited
    once a word against an ordered schema's keys: no rewritten monomial may
    exceed the root word.  A word the memo answers has no such step.
    """

    __slots__ = ("schema", "step_cap", "memo", "audited", "order_violations")

    def __init__(self, schema: RuleSchema, step_cap: int):
        self.schema = schema
        self.step_cap = step_cap
        self.memo = job_memo(schema)
        self.audited = set()
        self.order_violations = 0

    def _reduced(self, w: Word) -> dict:
        """``w``'s normal form as a term dict keyed by words, by its own
        ``normal_form`` call, whose steps are audited when ``w`` is new."""
        nf, trace = normal_form(
            OPoly.from_word(w, ring=self.schema.identity.ring), self.schema,
            "lo", self.step_cap)
        if trace.status != NORMAL_FORM:
            raise ResourceLimit(f"step cap {self.step_cap} hit at {to_str(w)}")
        if w not in self.audited:
            self.audited.add(w)
            if self.schema.order is not None:
                key = self.memo.key
                root = key(w)
                self.order_violations += sum(key(m) > root
                                             for m in trace.monomials)
        return nf.terms

    def reduce(self, p: OPoly) -> OPoly:
        return self.schema.normalize(OPoly._trusted(factored_normal_form(
            p, self.memo, self.step_cap, self._reduced), p.ring))


def is_trivial(comp: CompositionRecord, cache: NFCache) -> str:
    """Audit and reduce a composition value; trivial iff it reduces to zero.

    Every monomial of the value must lie below the ambient word ``comp.w``
    by the order keys of ``cache.memo``; each one that does not adds to
    ``cache.order_violations``, next to the cache's own count of rewrite
    steps landing above their root word.  ``cache.reduce`` reduces the
    value's words from the memo's normal forms (``RewriteMemo.strategy_nf``)
    or each by its own ``normal_form`` call (see ``NFCache``); one that
    needs more than the cache's step cap raises ``ResourceLimit``, so an
    undecided composition never gets a verdict.  A nonzero residue is
    kept as a value: its terms come in the order the sum leaves them, and
    every output prints it sorted (``to_str_opoly``).
    """
    key = cache.memo.key
    ambient = key(comp.w)
    cache.order_violations += sum(not key(m) < ambient
                                  for m in comp.value.terms)
    residue = cache.reduce(comp.value)
    comp.verdict = TRIVIAL if residue.is_zero else NONTRIVIAL
    comp.residue = None if residue.is_zero else residue
    return comp.verdict


# triples reduced concretely on top of the transfer certificate
TRANSFER_SAMPLES = 200
# safety cap on the compositions one check reduces
MAX_REDUCTIONS = 2000000


@job()
def gsb_check_truncated(sys: GeneratorSystem, bound: TruncationBound,
                        step_cap: int = 100000,
                        rng: random.Random = None) -> GsbReport:
    """Check triviality of every composition of instance pairs at the bound.

    Intersection compositions are in bijection with triples (r, s, t) of
    bound words such that both split arguments stay inside the bound: the
    pair phi(r s, t), phi(r, s t) overlaps at [r s t].  With at least three
    generators (``transfer`` mode) the triple of distinct single generators
    is reduced once, when the bound holds any triple, and certifies every
    other triple, because substituting r, s, t for the generators maps each
    rewrite step of the trace to a rewrite step (or a cancellation) of the
    instance; a seeded sample of ``TRANSFER_SAMPLES`` other triples (all of
    them on a smaller bound) is reduced concretely on top of that.  With
    fewer generators there are no three independent slots, and every triple
    is reduced (``concrete`` mode).  ``report.certify`` names the mode.

    Including compositions are enumerated per structural configuration (host
    word, nested redex, side), with the host's other argument kept generic;
    the same substitution argument transfers each configuration's verdict to
    every bound word in the spectator slot.

    Both kinds are decided by ``is_trivial``.  ``order_violations`` counts
    the composition-value monomials not below their ambient word w, plus the
    rewrite steps of a per-word normal form whose rewritten monomial lies
    above that root word, each word counted once.  It is not the
    ``normal_form(monitor=True)`` count of non-descending steps (a
    replacement monomial not below the word it replaces): at (2, 1, 3)
    under ``deglenlex`` the derivation reads 948 here against 1 088
    non-descending steps, and ``y x`` reads 426 against 36, so neither audit
    stands in for the other.
    """
    rng = rng or random.Random(7)
    gens = bound.generator_set()
    B = bound.max_breadth
    words = enumerate_words(gens, B, bound.max_depth,
                            include_unit_brackets=False, include_unit=False)
    by_leaves = {}
    for w in words:
        by_leaves.setdefault(w.leaves, []).append(w)
    certify = "transfer" if bound.max_generators >= 3 else "concrete"
    report = GsbReport(sys.identity.name or "pattern", bound, len(words), certify)
    ident = sys.identity
    # one schema for both kinds: the spectator ranks last, so words without
    # it keep their order and their reductions
    spectator = Word(("zspec",))
    schema = RuleSchema(ident, order=OrderConfig(
        GeneratorSet(gens.names + ("zspec",)), sys.order.mode))
    cache = NFCache(schema, step_cap)

    def check(comp: CompositionRecord) -> bool:
        reduced = report.intersections_reduced + report.including_configs
        if reduced > MAX_REDUCTIONS:
            raise ResourceLimit(f"reduction cap {MAX_REDUCTIONS} exceeded")
        if is_trivial(comp, cache) == TRIVIAL:
            return True
        report.nontrivial.append(comp)
        return False

    def check_triple(r, s, t):
        report.intersections_reduced += 1
        value = -associativity_defect(ident, r, s, t)
        return check(CompositionRecord(INTERSECTION, bracket(r * s * t), value))

    # intersections: f = phi(r s, t), g = phi(r, s t), overlap at [r s t];
    # the bracket leading words cancel, leaving N(r, s t) - N(r s, t)
    blocks = []
    for ls in sorted(by_leaves):
        arg_max = B - ls
        sides = [w for l in sorted(by_leaves) if l <= arg_max
                 for w in by_leaves[l]]
        blocks.append((by_leaves[ls], sides))
        report.intersections_checked += len(by_leaves[ls]) * len(sides) ** 2
    n = report.intersections_checked
    if certify == "concrete":
        for j in range(n):
            if check_triple(*_triple_at(blocks, j)):
                report.trivial_count += 1
    elif n:  # a bound with no triple has nothing for the master to certify
        names = gens.names
        master = (Word((names[0],)), Word((names[1],)), Word((names[2],)))
        master_ok = check_triple(*master)
        # ``sample`` only indexes its population, so sampling the indices
        # picks the triples that sampling a list of all triples would; its
        # first picks do not depend on how many it draws, so one pick more
        # stands in for the master's, when drawn
        drawn = (_triple_at(blocks, j)
                 for j in rng.sample(range(n), min(TRANSFER_SAMPLES + 1, n)))
        picks = [t for t in drawn if t != master][:TRANSFER_SAMPLES]
        sample_ok = all([check_triple(r, s, t) for (r, s, t) in picks])
        if master_ok and sample_ok:
            report.trivial_count = report.intersections_checked

    # including: nested redexes of [host . spectator], spectator generic;
    # only hosts that hold a nested redex are walked, each redex inside
    # u1 v1 entered through the lead's bracket (the lead's top-level splits
    # are the intersection cases)
    for host in words:
        if not host.has_bracketed_product:
            continue
        for u1, v1 in ((host, spectator), (spectator, host)):
            lead = bracket(u1 * v1)
            n_lead = ident.pattern_at(u1, v1)
            for nested in find_redexes(u1 * v1, schema):
                redex = Redex((((), ()),) + nested.path, nested.a, nested.b)
                report.including_configs += 1
                report.including_instances_certified += len(words)
                # phi(u1, v1) - q|phi(a, b), whose leading words, both
                # lead, cancel
                comp = CompositionRecord(INCLUDING, lead,
                                         schema.replacement(redex) - n_lead,
                                         context=redex.context)
                if check(comp):
                    # one trivial configuration certifies every spectator word
                    report.trivial_count += len(words)
    report.order_violations = cache.order_violations
    return report


def _triple_at(blocks, j: int):
    """The ``j``-th intersection triple (r, s, t), without listing them: the
    triples run block by block, and within a block s outermost, then r,
    then t."""
    for middles, sides in blocks:
        n = len(sides)
        size = len(middles) * n * n
        if j < size:
            rest, t = divmod(j, n)
            s, r = divmod(rest, n)
            return sides[r], middles[s], sides[t]
        j -= size


# -- irreducible words and direct-sum checks ----------------------------------------


@job()
def irr_enumerate(sys: GeneratorSystem, bound: TruncationBound,
                  gens: GeneratorSet = None) -> set:
    """All bound words carrying no redex of the system's schema."""
    gens = gens or bound.generator_set()
    words = enumerate_words(gens, bound.max_breadth, bound.max_depth,
                            include_unit_brackets=True, include_unit=True)
    return {w for w in words if in_reduced_form(w, sys.kind == "sigma")}


class CdlReport:
    __slots__ = ("words_checked", "irr_size", "irr_unit_surplus", "failures",
                 "ideal_zeros", "ideal_samples", "oversize_hosts")

    def __init__(self):
        self.words_checked = 0
        self.irr_size = 0
        self.irr_unit_surplus = 0
        self.failures = []
        self.ideal_zeros = 0
        self.ideal_samples = 0
        self.oversize_hosts = 0  # ideal samples with no host inside the bound

    @property
    def ok(self) -> bool:
        return not self.failures

    def describe(self) -> str:
        state = "passes" if self.ok else f"FAILS ({len(self.failures)} failures)"
        return (f"direct-sum check {state}: {self.words_checked} words into a "
                f"{self.irr_size}-word irreducible span "
                f"({self.irr_unit_surplus} containing unit brackets), "
                f"{self.ideal_zeros}/{self.ideal_samples} ideal elements to zero")


@job()
def cdl_direct_sum_check(sys: GeneratorSystem, bound: TruncationBound,
                         rng: random.Random = None,
                         ideal_samples: int = 100) -> CdlReport:
    """Executable direct-sum consequences of the basis property.

    The reduction of every reducible bound word must terminate, and random
    elements of the rule ideal must reduce to zero; a nonzero residue is
    the one failure.  An irreducible word (by its redex flag) is counted
    into the span and not reduced: ``normal_form`` pops only flagged words,
    so it would return the word as it is, and no word of a normal form it
    returns is flagged.
    An ideal element q|[u v] - q|N(u, v) is drawn by rejection: u, v and
    then a context q, until the host q|[u v] has at most three leaves and
    one level more than the bound allows, in at most 200 tries, after which
    the last host is used as it is (``oversize_hosts``).  A pair (u, v)
    that no context can fit is rejected before its context is drawn; a
    try's draws are independent, so the accepted elements keep the law of
    drawing all three every time.
    A reduction stopped by the step cap raises ``ResourceLimit``.  The
    job's ``RewriteMemo`` of the system (``job_memo``) serves every
    reduction of the check.
    """
    rng = rng or random.Random(0)
    gens = bound.generator_set()
    report = CdlReport()
    all_words = enumerate_words(gens, bound.max_breadth, bound.max_depth,
                                include_unit_brackets=True, include_unit=True)
    report.words_checked = len(all_words)
    for w in all_words:
        if in_reduced_form(w, sys.kind == "sigma"):
            report.irr_size += 1
            report.irr_unit_surplus += w.has_unit_bracket
        elif normal_form(OPoly.from_word(w), sys)[1].status != NORMAL_FORM:
            raise ResourceLimit(f"step cap hit at {to_str(w)}")
    # ideal elements q|phi(u, v) = q|[u v] - q|N(u, v); rejection-sample the
    # assembled word so the reductions stay tractable a little past the bound
    pool = [w for w in all_words if not w.is_unit]
    max_host_leaves = bound.max_breadth + 3
    max_host_depth = bound.max_depth + 1
    for _ in range(ideal_samples):
        for attempt in range(200):
            u = rng.choice(pool)
            v = rng.choice(pool)
            # a context sets [u v] beside a leaf or inside a bracket; when
            # neither fits, no context does, and only the last try draws
            # one, for the host used as it is
            n = u.leaves + v.leaves
            d = max(u.depth(), v.depth())
            if (attempt < 199
                    and (n + 1 > max_host_leaves or d + 1 > max_host_depth)
                    and (n > max_host_leaves or d + 2 > max_host_depth)):
                continue
            q = random_context(rng, gens, bound.max_breadth, bound.max_depth)
            host = splice(q, (u * v,))
            if host.leaves <= max_host_leaves and host.depth() <= max_host_depth:
                break
        else:
            report.oversize_hosts += 1  # the last host is used as it is
        elem = (OPoly.from_word(host, ring=sys.identity.ring)
                - sys.replacement(Redex(q, u, v)))
        nf, trace = normal_form(elem, sys)
        if trace.status != NORMAL_FORM:
            raise ResourceLimit(f"step cap hit at {to_str(host)}")
        report.ideal_samples += 1
        if nf.is_zero:
            report.ideal_zeros += 1
        else:
            report.failures.append((host, "ideal element residue"))
    return report


# -- operator-identity type certificates --------------------------------------------

UVW = GeneratorSet(("u", "v", "w"))


class TypeReport:
    __slots__ = ("kind", "accepted", "reason", "witness", "verdict")

    def __init__(self, kind):
        self.kind = kind
        self.accepted = False
        self.reason = ""
        self.witness = None
        self.verdict = None

    @property
    def inconclusive(self) -> bool:
        return self.verdict is not None and self.verdict.kind == Verdict.INCONCLUSIVE

    def describe(self) -> str:
        """The one-line verdict: accepted, inconclusive or rejected."""
        label = "differential type" if self.kind == DIFFERENTIAL else "Rota-Baxter type"
        if self.accepted:
            return f"accepted: {label}"
        if self.inconclusive:
            return f"inconclusive: {self.reason}"
        return f"rejected: not {label} ({self.reason})"


def associativity_defect(identity: OpIdentity, u: Word, v: Word,
                         w: Word) -> OPoly:
    """The associativity defect of an identity at the triple (u, v, w).

    Differential shape: N(u v, w) - N(u, v w), the two rewrites of [u v w].
    Rota-Baxter shape: M(M(u, v), w) - M(u, M(v, w)), the bracket contents
    of the two rewrites of [u] [v] [w].  M is totally linear, so M(P, w) is
    the double sum of c_m c_p m[x := p, y := w] over the terms c_m m of M
    and c_p p of P, with no product to multiply out (and M(u, P) likewise).
    """
    if identity.kind == DIFFERENTIAL:
        return identity.pattern_at(u * v, w) - identity.pattern_at(u, v * w)
    return (_nest(identity, identity.pattern_at(u, v), "x", w)
            - _nest(identity, identity.pattern_at(v, w), "y", u))


def _nest(identity: OpIdentity, p: OPoly, slot: str, other: Word) -> OPoly:
    """M with ``p`` in generator slot ``slot`` and ``other`` in the other:
    each pattern term's plan filled at every term of ``p``, then scaled.  M
    is totally linear, so one plan fills distinct words, and the terms come
    in the order of a term-by-term sum."""
    out: dict = {}
    for parts, c in identity.plans:
        filled: dict = {}
        for word, cp in p.terms.items():
            values = (word, other) if slot == "x" else (other, word)
            _add_term(filled, Word(fill(parts, values)), cp)
        _add_scaled_into(out, filled, c)
    return OPoly._trusted(out, identity.ring)


def generic_defect(identity: OpIdentity) -> OPoly:
    """The associativity defect at three fresh generators u, v, w, whose
    words are built in the open job."""
    u, v, w = (Word((g,)) for g in UVW.names)
    return associativity_defect(identity, u, v, w)


# the rejection reason of each pattern shape ``RuleSchema`` refuses
_SHAPE_REASONS = {NotTotallyLinear: "not totally linear in x, y",
                  NotDRF: "contains a bracketed product",
                  NotRBRF: "contains adjacent bracket factors"}


def _certify(identity: OpIdentity, order: OrderConfig, strategy: str,
             step_cap: int) -> TypeReport:
    """Reject a pattern of the wrong shape; otherwise accept when the
    associativity defect of the identity rewrites to zero, and keep the
    verdict's detail and witness when it does not.  The decision rule of
    ``dt_check`` and ``rbt_check``: the defect, reduced modulo the
    constraint ideal, takes one strategy verdict (``_strategy_verdict``):
    a zero normal form accepts, the step cap is inconclusive, and a nonzero
    normal form rejects a differential-shape defect with no constraints,
    since normal forms are unique there (see ``dt_check``).  A Rota-Baxter
    shape or a constraint ideal goes on from a nonzero normal form: with
    rational coefficients the span certificate rejects, with that normal
    form as witness, when the defect lies outside the span of every rewrite
    step on the closure of its words (``rewrite._span_certificate``; see
    ``rbt_check``); when that is not shown, the closure passes
    ``EXPLORE_BUDGET`` words or the coefficients are symbolic, the search
    runs on from the strategy verdict (``rewrite._search_verdict``)."""
    report = TypeReport(identity.kind)
    try:
        schema = RuleSchema(identity, order=order)
    except (NotTotallyLinear, NotDRF, NotRBRF) as exc:
        report.reason = _SHAPE_REASONS[type(exc)]
        return report
    defect = schema.normalize(generic_defect(identity))
    verdict = _strategy_verdict(defect, schema, strategy, step_cap)
    if verdict.kind == Verdict.NO and (identity.kind == ROTA_BAXTER
                                       or identity.constraints):
        memo = job_memo(schema)
        span = identity.ring is None and _span_certificate(defect, memo)
        if span:
            steps, words = span
            verdict = Verdict(Verdict.NO, verdict.witness,
                              f"outside the span of {steps} rewrite steps "
                              f"on {words} words")
        else:
            verdict = _search_verdict(defect, memo, verdict)
    report.verdict = verdict
    report.accepted = verdict.is_yes
    if not report.accepted:
        report.reason = f"defect does not rewrite to zero ({verdict.detail})"
        report.witness = verdict.witness
    return report


@job()
def dt_check(pattern: OPoly, constraints=(), strategy: str = "lo",
             order_mode: str = "purelex", step_cap: int = 10000) -> TypeReport:
    """Certificate that [x y] -> pattern defines a differential-shape identity
    whose associativity defect rewrites to zero over three fresh generators.

    ``_certify`` states the decision rule.  Without constraints the
    defect's strategy normal form decides, with no search.  By the source
    paper (Guo, Sit and Zhang), when some path takes the defect of a DRF,
    totally linear pattern to zero, its rules form a Groebner-Shirshov
    basis, so their ideal holds no nonzero irreducible polynomial; the
    strategy normal form is irreducible and lies in that ideal with the
    defect, so it is zero too.  The hypotheses: the pattern is DRF and
    totally linear (``RuleSchema`` checks both); the strategy path
    terminates (the step cap checks it); and the coefficients lie in a field.
    Reduction never divides, since every rule leads with coefficient 1, so
    Q[params] reduces as its fraction field does.  The schema's order only
    picks the next redex: where u or v holds a unit bracket ``purelex`` does
    not lead every rule instance (CHANGES.md), and the argument rests on the
    paper's order there.  Modulo a constraint ideal the coefficients form
    no domain when the ideal is not prime, so a constrained pattern goes on
    to the search."""
    return _certify(OpIdentity(DIFFERENTIAL, pattern, tuple(constraints)),
                    OrderConfig(UVW, order_mode), strategy, step_cap)


@job()
def rbt_check(pattern: OPoly, constraints=(), strategy: str = "lo",
              step_cap: int = 10000) -> TypeReport:
    """Certificate that [x][y] -> [pattern] defines a Rota-Baxter-shape
    identity: the operated associativity defect M(M(u,v),w) - M(u,M(v,w))
    rewrites to zero within budget (no termination certificate exists, so
    the verdict may be inconclusive).

    ``_certify`` states the decision rule.  A nonzero strategy normal form
    alone does not reject: another path may reach zero.  With rational
    coefficients a span certificate rejects with no search.  Each step
    rewrites a word w of q at a redex r, taking q to q - c (w - repl_r(w)),
    so every reduct of the defect lies in the defect plus the span of
    w - repl_r(w) over every word w of W, the closure of the defect's words
    under every redex (the strategy's alone would miss reducts), and every
    redex r of w.  Outside that span no path reaches zero, and the
    rejection is exact.  The elimination divides, so the coefficients must
    lie in a field: a symbolic pattern goes on to the search."""
    return _certify(OpIdentity(ROTA_BAXTER, pattern, tuple(constraints)),
                    None, strategy, step_cap)
