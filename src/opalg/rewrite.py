"""Rewriting of operated polynomials by operator-identity rules.

Two rule shapes exist.  A sigma rule replaces a bracketed product at each
split of its content into nonempty a and b, ``[a b] -> N(a, b)``; a pi rule
fuses adjacent operator factors, ``[a] [b] -> [M(a, b)]``.  Reduction acts
on one monomial occurrence per step, keeps a full trace, and never assumes
global termination: strategy reduction stops at ``step_cap`` steps, each
exhaustive search at ``EXPLORE_BUDGET`` polynomials, each span certificate
at ``EXPLORE_BUDGET`` closure words and the confluence check at
``peak_cap`` peaks, and ``normal_form(monitor=True)`` records every step
that does not descend in the configured order.

A redex carries its context as a star path (see ``words``), whose hole the
matched atoms fill.  Whether a word holds a redex of either family is one of
its redex flags (see ``words``), so ``in_reduced_form`` reads it, and a
rule's replacement must carry no redex of its own family.  The walk to a
word's first redex, leftmost-outermost (``lo``) or leftmost-innermost
(``li``), is a loop that descends only into flagged atoms, and the walk
that lists every redex enters no other; neither builds a word but the
redex's arguments.  The identity compiles its pattern once
(``OpIdentity.plans``); a replacement word is a plan's ``words.fill`` at
(a, b), spliced along the path by one ``words.splice``, flat for a sigma
rule and bracketed for a pi rule, and ``Redex.context`` splices ``STAR``
there to print the context.

``normal_form`` takes each step's monomial from a max-heap of reducible
words instead of re-sorting the polynomial.  Every rewrite step, of the
strategy path and the search alike, goes through ``_rewrite_into``, which
rewrites one term dict in place and reduces only the coefficients it touched
modulo the constraint ideal.  A trace records each step's monomial, redex
and coefficient, and builds its ``TraceStep`` records, contexts included,
only when ``steps`` is read.

A span certificate (``_span_certificate``) shows, with no search, that no
reduction of a polynomial with rational coefficients reaches zero: the
polynomial lies outside the span of every rewrite step on the closure of its
words under every redex, which exact elimination decides.

``RewriteMemo`` is the one cache of word facts of a schema: each word's
order key, the replacements of all its redexes for the search and the span
certificate, which alone ask for them, and the leftmost-outermost normal
forms of a sigma schema (``RewriteMemo.strategy_nf``).  No first redex is
kept: each rewrite step walks to its own (``_first_redex``).  Normal forms
factor over atoms: a sigma redex lies inside one bracket atom, the strategy
rewrites the leftmost atom that holds one, and a step is linear, so a word's
normal form is the concatenation product of its atoms'.  The memo keeps one
normal form per reducible bracket atom, keyed by atom tuples, built
bottom-up where every step below the atom descends, one rewrite step an
atom.  ``factored_normal_form`` is their one reader: it sums a polynomial's
normal form over its words, each the memo's product or, where the memo gives
none within the step cap its walks share, the caller's reduction of the
word, for the basis checks of ``gsb`` (``NFCache``) and the ansatz defects
of ``classify``.  A job keeps one memo per schema, which ``job_memo`` hands
out to every ``normal_form``, ``reduces_to_zero`` and ``joinable`` call,
every basis check of ``gsb`` and every defect extraction of ``classify`` in
it, and which the job drops when its outermost scope closes (``words.job``).
``local_confluence_check`` keeps no peak memo: it meets each enumerated word
once.

Equal words are one object (see ``words``), so the memo's dicts, the term
dicts and the heap meet them by identity.  A step that
builds a word nested past ``coeffs.MAX_DEPTH`` raises
``ResourceLimit(TOO_NESTED)``; listing redexes takes one frame a level and
finding a first redex none, so no rewrite meets the recursion limit.
"""

from __future__ import annotations

import heapq
from collections import namedtuple
from operator import attrgetter

from .coeffs import ResourceLimit, _add_scaled_into, _add_term, reciprocal
from .groebner import buchberger, nf_mod_ideal
from .opoly import DIFFERENTIAL, OPoly, OpIdentity, to_str_opoly
from .ordering import OrderConfig, order_key
from .words import (STAR, Word, enumerate_words, fill, job, splice, to_str,
                    tokens, word_sort_key)


class NotTotallyLinear(ValueError):
    pass


class NotDRF(ValueError):
    pass


class NotRBRF(ValueError):
    pass


# -- pattern shape predicates -------------------------------------------------------

# the redex flag of the sigma (True) and pi (False) rule family: a sigma
# redex sits exactly at a bracketed product and a pi redex at two adjacent
# brackets
_HOLDS_REDEX = {True: attrgetter("has_bracketed_product"),
                False: attrgetter("has_adjacent_brackets")}


def in_reduced_form(w: Word, sigma: bool) -> bool:
    """``w`` has no redex of the sigma (``sigma``) or pi rule family: the
    reduced form a replacement of the family must have."""
    return not _HOLDS_REDEX[sigma](w)


def is_totally_linear(p: OPoly) -> bool:
    """Every monomial contains each of x and y exactly once."""
    return all(t.count("x") == 1 and t.count("y") == 1
               for t in map(tokens, p.terms))


def is_drf(p: OPoly) -> bool:
    """No monomial has a bracketed-product subterm."""
    return all(in_reduced_form(w, True) for w in p.terms)


def is_rbrf(p: OPoly) -> bool:
    """No monomial has two adjacent bracket factors."""
    return all(in_reduced_form(w, False) for w in p.terms)


# -- rule schemas -------------------------------------------------------------------


class RuleSchema:
    """A sigma or pi rule family derived from one operator identity; its
    pattern must be totally linear and in the family's reduced form.  Its
    replacements are filled from the identity's compiled pattern,
    ``OpIdentity.plans``.  Constraints whose ideal is (1) raise
    ``ValueError``: every coefficient would reduce to zero."""

    __slots__ = ("kind", "identity", "order", "constraint_gb")

    def __init__(self, identity: OpIdentity, order: OrderConfig = None):
        self.kind = "sigma" if identity.kind == DIFFERENTIAL else "pi"
        pattern = identity.pattern
        if not is_totally_linear(pattern):
            raise NotTotallyLinear("replacement pattern is not totally "
                                   f"linear: {to_str_opoly(pattern)}")
        if self.kind == "sigma" and not is_drf(pattern):
            raise NotDRF("sigma replacement is not in reduced form: "
                         f"{to_str_opoly(pattern)}")
        if self.kind == "pi" and not is_rbrf(pattern):
            raise NotRBRF("pi replacement is not in reduced form: "
                          f"{to_str_opoly(pattern)}")
        self.identity = identity
        self.order = order
        if identity.constraints:
            self.constraint_gb = buchberger(list(identity.constraints),
                                            identity.ring)
            if any(g.is_constant for g in self.constraint_gb):
                raise ValueError("inconsistent constraints: " + ", ".join(
                    map(str, identity.constraints)))
        else:
            self.constraint_gb = None

    def replacement(self, redex: Redex) -> OPoly:
        """The rule's right-hand side at ``redex``, placed in its context:
        each pattern monomial's plan, filled at (a, b), is spliced along
        the redex's path, flat for sigma and bracketed for pi.  Splicing
        into a fixed path is injective, so the terms merge exactly as those
        of ``pattern_at(a, b)`` do and keep their order."""
        values = (redex.a, redex.b)
        path = redex.path
        sigma = self.kind == "sigma"
        out: dict = {}
        for parts, c in self.identity.plans:
            atoms = fill(parts, values)
            _add_term(out, splice(path, atoms if sigma else (Word(atoms),)), c)
        return OPoly._trusted(out, self.identity.ring)

    def normalize(self, p: OPoly) -> OPoly:
        if self.constraint_gb is None or p.ring is None:
            return p
        return p.map_coeffs(lambda c: nf_mod_ideal(c, self.constraint_gb))

    def lift(self, p: OPoly) -> OPoly:
        """Match ``p`` to the pattern's coefficient ring when it has none."""
        if self.identity.ring is not None and p.ring is None:
            return p.with_ring(self.identity.ring)
        return p

    def __repr__(self):
        return f"RuleSchema({self.kind}: {self.identity!r})"


class Redex(namedtuple("Redex", ["path", "a", "b"])):
    """A match (a, b) of the schema, at the end of the star path ``path``."""

    __slots__ = ()

    @property
    def context(self) -> Word:
        """The context printed as a word, with one star where the matched
        subterm sits."""
        return splice(self.path, (STAR,))


def _redexes_into(word: Word, sigma: bool, path: tuple, out: list) -> None:
    """Append the redexes of the sigma (``sigma``) or pi rule family inside
    ``word``, which ``path`` leads to, leftmost-outermost first (a bracket's
    content splits shortest left part first), entering only the brackets
    whose redex flag is set.  A module-level recursion: a recursive closure
    would leave a reference cycle per call for the cyclic collector."""
    holds = _HOLDS_REDEX[sigma]
    atoms = word.atoms
    for i, a in enumerate(atoms):
        if not isinstance(a, Word):
            continue
        inside = path + ((atoms[:i], atoms[i + 1:]),)
        if sigma:
            content = a.atoms
            for j in range(1, len(content)):
                out.append(Redex(inside, Word(content[:j]), Word(content[j:])))
        elif i + 1 < len(atoms) and isinstance(atoms[i + 1], Word):
            out.append(Redex(path + ((atoms[:i], atoms[i + 2:]),), a,
                             atoms[i + 1]))
        if holds(a):
            _redexes_into(a, sigma, inside, out)


def find_redexes(w: Word, schema: RuleSchema) -> list:
    """All schema matches in ``w``, leftmost-outermost first."""
    out = []
    _redexes_into(w, schema.kind == "sigma", (), out)
    return out


def _first_redex(w: Word, sigma: bool, inner_first: bool):
    """The first redex of ``w`` in ``find_redexes`` order, or the
    leftmost-innermost one when ``inner_first``; ``None`` when there is
    none.  A loop down the path: at each level the first bracket that holds
    a redex or forms one is where the first redex is, and the walk descends
    into it only when it holds one, which comes first under ``li`` or when
    it forms none."""
    holds = _HOLDS_REDEX[sigma]
    path = ()
    while True:
        atoms = w.atoms
        for i, a in enumerate(atoms):
            if not isinstance(a, Word):
                continue
            deeper = holds(a)
            if not (deeper and inner_first):
                if sigma:
                    if len(a.atoms) > 1:
                        return Redex(path + ((atoms[:i], atoms[i + 1:]),),
                                     Word(a.atoms[:1]), Word(a.atoms[1:]))
                elif i + 1 < len(atoms) and isinstance(atoms[i + 1], Word):
                    return Redex(path + ((atoms[:i], atoms[i + 2:]),), a,
                                 atoms[i + 1])
            if deeper:
                path += ((atoms[:i], atoms[i + 1:]),)
                w = a
                break
        else:
            return None


# -- traces -------------------------------------------------------------------------

NORMAL_FORM = "normal_form"
STEP_CAP_EXCEEDED = "step_cap_exceeded"

TraceStep = namedtuple("TraceStep", ["monomial", "context", "a", "b", "coeff"])


class ReductionTrace:
    """The steps of one reduction.  Each step's monomial, redex and
    coefficient are recorded as it runs; ``steps`` builds the ``TraceStep``
    records from them, contexts included, each time it is read."""

    __slots__ = ("monomials", "_redexes", "_coeffs", "status",
                 "order_violations")

    def __init__(self):
        self.monomials = []
        self._redexes = []
        self._coeffs = []
        self.status = NORMAL_FORM
        self.order_violations = []

    @property
    def steps(self) -> list:
        return [TraceStep(w, r.context, r.a, r.b, c) for w, r, c
                in zip(self.monomials, self._redexes, self._coeffs)]

    def __len__(self):
        return len(self.monomials)


class RewriteMemo:
    """For one schema: the order key (``word_sort_key`` when the schema has
    no order) each word is read by; when asked, the replacements of all a
    word's redexes; and, for a sigma schema, each reducible bracket atom's
    leftmost-outermost normal form (``strategy_nf``).  They depend on
    nothing else, so one memo serves a whole job: ``job_memo`` hands it out,
    and it keeps all it built until the job's outermost scope closes.

    Sigma normal forms factor over atoms.  A sigma redex lies inside one
    bracket atom, and the strategy takes the first redex in a word's
    leftmost atom that holds one, so the step of ``p A s``, with ``p``
    irreducible, is ``p step([A]) s``.  The step is linear, so, step by
    step, a word's normal form is the concatenation product of its atoms'
    normal forms, NF(A B) = NF(A) NF(B), an irreducible atom its own.  A pi
    redex spans two adjacent brackets, so pi normal forms would factor over
    maximal runs of brackets instead; the memo builds none.

    ``nf`` maps a reducible bracket atom, keyed by the bracket's content as
    it stands in an atom tuple, to the normal form of the one-atom word
    ``[A]``, a dict from atom tuples to coefficients, or to ``None`` where a
    step below it does not descend (``_walk_atom``).  Each atom kept is one
    rewrite step the memo took, so a walk counts the atoms it keeps."""

    __slots__ = ("schema", "key", "repl", "nf", "_holds")

    def __init__(self, schema: RuleSchema):
        self.schema = schema
        self.key = (word_sort_key if schema.order is None
                    else order_key(schema.order))
        self.repl = {}
        self.nf = {}
        self._holds = _HOLDS_REDEX[schema.kind == "sigma"]

    def replacements(self, w: Word) -> list:
        """The replacements of every redex of ``w``, in ``find_redexes``
        order; callers only read them."""
        if not self._holds(w):
            return []
        out = self.repl.get(w)
        if out is None:
            out = self.repl[w] = [self.schema.replacement(r)
                                  for r in find_redexes(w, self.schema)]
        return out

    def strategy_nf(self, w: Word, cap: int):
        """``(terms, steps)``: the leftmost-outermost normal form of the word
        ``w``, a dict from atom tuples to coefficients that callers only
        read, and the number of atoms this call's walks kept for it; or
        ``None`` where the memo does not give it.

        This alone decides which words the memo answers.  A word with no
        redex is its own normal form; a pi word with one is refused, its
        redexes spanning two atoms.  A sigma word's ``terms``, under any
        constraint ideal, is the product of the entries of its reducible
        atoms, given only where each atom has one; the atoms without one
        are walked (``_walk_atom``), and the walks share ``cap`` steps, one
        an atom.  Entries are exact over the pattern's ring, and reduction
        modulo a Groebner basis is linear, so their sum is reduced once."""
        atoms = w.atoms
        if not self._holds(w):
            return {atoms: 1}, 0
        if self.schema.kind != "sigma":
            return None
        nf = self.nf
        steps = 0
        for a in atoms:
            if not _reducible_atom(a):
                continue
            entry = nf.get(a, False)
            if entry is False:
                entry, met = self._walk_atom(a, cap - steps)
                steps += met
            if entry is None:
                return None
        return self._product(atoms), steps

    def _walk_atom(self, root, cap: int):
        """``(entry, met)``: the entry of the reducible bracket atom
        ``root``, or ``None`` where none is built, and the number of atoms
        the walk stepped.  It builds the entries of ``root`` and of every
        atom below it that has none, bottom-up on an explicit stack, each
        the sum of c NF(m) over the terms c m of its step (``_product``).

        An atom gets an entry only where its step and every step below it
        descend: each replacement monomial ranks strictly below the
        one-atom word by ``key``.  Both orders compare words atom by atom
        (see ``ordering``), and a replacement monomial is never empty, so
        the step then descends in every context it is taken in, and
        ``normal_form``'s heap rewrites each word of a closure at most once.
        The walk stops at the first step that does not descend, and keeps
        ``None`` for that atom and every atom above it on the stack, whose
        closures hold the step; the atoms it finished stay kept.  It gives
        up, keeping nothing more, once it has met ``cap`` atoms."""
        nf = self.nf
        key = self.key
        replacement = self.schema.replacement
        met = 0
        stack = []  # (atom, its step's terms, their reducible atoms left)
        new = root
        while True:
            if new is not None:
                if met >= cap:
                    return None, met
                if new in nf:  # kept as not descending
                    break
                word = Word((new,))
                terms = replacement(_first_redex(word, True, False)).terms
                top = key(word)
                if not all(key(m) < top for m in terms):
                    break
                met += 1
                stack.append((new, terms, (b for m in terms for b in m.atoms
                                           if _reducible_atom(b))))
                new = None
            a, terms, rest = stack[-1]
            for b in rest:
                if nf.get(b) is None:
                    new = b
                    break
            else:
                stack.pop()
                out: dict = {}
                for m, c in terms.items():
                    _add_scaled_into(out, self._product(m.atoms), c)
                # the copy drops the slots that cancelled terms left
                entry = nf[a] = dict(out)
                if not stack:
                    return entry, met
        nf[new] = None
        for a, _, _ in stack:
            nf[a] = None
        return None, met

    def _product(self, atoms: tuple) -> dict:
        """The normal form of the word of ``atoms``, from the entries of its
        reducible atoms, which the memo holds: the product of their terms,
        with the runs of irreducible atoms between them.  A word of one
        reducible atom alone shares that atom's terms."""
        nf = self.nf
        out = None  # the product of the atoms before ``start``; None is 1
        start = 0
        for i, a in enumerate(atoms):
            if not _reducible_atom(a):
                continue
            terms = nf[a]
            if start < i:
                run = atoms[start:i]
                terms = {run + t: c for t, c in terms.items()}
            start = i + 1
            out = terms if out is None else _concat(out, terms)
        if out is None:
            return {atoms: 1}
        if start < len(atoms):
            run = atoms[start:]
            out = {t + run: c for t, c in out.items()}
        return out


def _reducible_atom(a) -> bool:
    """Does the atom ``a`` hold a sigma redex: is it a bracket around a
    product, or around a word with one inside?"""
    return type(a) is not str and (len(a.atoms) > 1 or a.has_bracketed_product)


def _concat(left: dict, right: dict) -> dict:
    """The concatenation product of two term dicts keyed by atom tuples:
    ``c d (u v)`` summed over the terms ``c u`` of ``left`` and ``d v`` of
    ``right``.  Different splits can concatenate to one tuple, so equal
    products merge; the terms come in the order of ``left``'s terms, then
    ``right``'s."""
    out: dict = {}
    for u, c in left.items():
        _add_scaled_into(out, {u + v: d for v, d in right.items()}, c)
    return out


def job_memo(schema: RuleSchema) -> RewriteMemo:
    """The open job's memo of ``schema``, built on first use (see
    ``words.job``)."""
    memo = job.memos.get(schema)
    if memo is None:
        memo = job.memos[schema] = RewriteMemo(schema)
    return memo


def factored_normal_form(p: OPoly, memo: RewriteMemo, cap: int,
                         reduce_word):
    """The leftmost-outermost normal form of ``p`` under the schema of
    ``memo``, the sum of c NF(w) over its terms c w as a dict keyed by
    words, not yet reduced modulo the constraint ideal; or ``None`` where
    a word needs ``reduce_word`` and that is ``None``.

    NF(w) is the memo's answer where it gives one
    (``RewriteMemo.strategy_nf`` decides which words it answers); the walks
    that build those products for ``p``'s words share ``cap`` steps, one an
    atom kept, so once they have spent it a word is given only where its
    atoms are all kept already.  Any other word is ``reduce_word(w)``, a
    dict keyed by words.  Rewriting acts monomial by monomial, so
    ``normal_form`` on ``p`` reaches the sum.  The sum runs on atom tuples,
    the memo's keys."""
    out: dict = {}
    left = cap
    for w, c in p.terms.items():
        try:
            got = memo.strategy_nf(w, left)
        except ResourceLimit:
            got = None  # a reduction may cancel the over-deep word unbuilt
        if got is not None:
            nf, steps = got
            left -= steps
        elif reduce_word is None:
            return None
        else:
            nf = {m.atoms: d for m, d in reduce_word(w).items()}
        _add_scaled_into(out, nf, c)
    return {Word(atoms): c for atoms, c in out.items()}


def _check_strategy(strategy: str) -> None:
    if strategy not in ("lo", "li"):
        raise ValueError(f"unknown strategy {strategy!r}")


class _Desc:
    """A heap entry ordered by descending key, so that ``heapq``'s min-heap
    pops the order-maximal word first."""

    __slots__ = ("key", "word")

    def __init__(self, key, word: Word):
        self.key = key
        self.word = word

    def __lt__(self, other: "_Desc") -> bool:
        return other.key < self.key


@job()
def normal_form(p: OPoly, schema: RuleSchema, strategy: str = "lo",
                step_cap: int = 100000, monitor: bool = False):
    """Reduce to a fixed point of the schema; returns (result, trace).

    The strategy-first redex of the order-maximal reducible monomial is
    rewritten each step.  That monomial comes from a max-heap of the
    reducible words pushed so far, keyed by the schema's order (or
    ``word_sort_key`` without one): words that left the polynomial are
    popped and dropped, and each step pushes its reducible replacement
    words.  One copy of the term dict is rewritten in place, and only the
    coefficients a step touched are reduced modulo the constraint ideal.
    ``monitor`` additionally asserts, per step, that the replaced monomial
    strictly dominates every replacement monomial when an order is
    configured; violations are recorded on the trace, never silently
    dropped.

    Order keys come from the job's memo of ``schema`` (``job_memo``).  A
    step that nests a word past ``coeffs.MAX_DEPTH`` raises
    ``ResourceLimit(TOO_NESTED)``.
    """
    _check_strategy(strategy)
    walk = (schema.kind == "sigma", strategy == "li")
    memo = job_memo(schema)
    trace = ReductionTrace()
    key = memo.key
    holds = memo._holds
    p = schema.normalize(schema.lift(p))
    terms = dict(p.terms)  # rewritten in place
    heap = [_Desc(key(w), w) for w in terms if holds(w)]
    heapq.heapify(heap)
    while True:
        while heap and heap[0].word not in terms:
            heapq.heappop(heap)
        if not heap:
            trace.status = NORMAL_FORM
            break
        if len(trace.monomials) >= step_cap:
            trace.status = STEP_CAP_EXCEEDED
            break
        top = heapq.heappop(heap)
        w = top.word
        redex = _first_redex(w, *walk)
        repl = schema.replacement(redex)
        if monitor and schema.order is not None:
            for m in repl.terms:
                if not key(m) < top.key:
                    trace.order_violations.append((w, m))
        trace.monomials.append(w)
        trace._redexes.append(redex)
        trace._coeffs.append(terms[w])
        _rewrite_into(terms, p.ring, w, repl, schema)
        for m in repl.terms:
            if m in terms and holds(m):
                heapq.heappush(heap, _Desc(key(m), m))
    return OPoly._trusted(terms, p.ring), trace


def _rewrite_into(terms: dict, ring, w: Word, repl: OPoly,
                  schema: RuleSchema) -> None:
    """Rewrite c w in ``terms`` to c repl, which lacks w, in place, with the
    term order of ``p + (repl - w) c``, on which exploration order depends.

    Only the coefficients the step touched are reduced modulo the schema's
    constraint ideal; the others already are, and reducing them again would
    give equal values in the same order."""
    if ring != repl.ring:
        raise ValueError("mixed coefficient rings")
    c = terms.pop(w)
    _add_scaled_into(terms, repl.terms, c)
    gb = schema.constraint_gb
    if gb is None or ring is None:
        return
    for m in repl.terms:
        cm = terms.get(m)
        if cm is not None:
            cm = nf_mod_ideal(cm, gb)
            if cm:
                terms[m] = cm
            else:
                del terms[m]


# -- verdicts and joinability -------------------------------------------------------


class Verdict:
    __slots__ = ("kind", "witness", "detail")

    YES = "yes"
    NO = "no"
    INCONCLUSIVE = "inconclusive"

    def __init__(self, kind: str, witness: OPoly = None, detail: str = ""):
        self.kind = kind
        self.witness = witness
        self.detail = detail

    @property
    def is_yes(self) -> bool:
        return self.kind == Verdict.YES

    def __repr__(self):
        extra = f", {self.detail}" if self.detail else ""
        return f"Verdict({self.kind}{extra})"


def _poly_key(p: OPoly):
    return frozenset(p.terms.items())


def _one_step_reducts(p: OPoly, memo: RewriteMemo):
    """Every polynomial reachable in exactly one rewrite step, any position,
    in ``find_redexes`` order; repeats are left to the caller."""
    schema = memo.schema
    for w in p.terms:
        for repl in memo.replacements(w):
            terms = dict(p.terms)
            _rewrite_into(terms, p.ring, w, repl, schema)
            yield OPoly._trusted(terms, p.ring)


def _explore(p: OPoly, memo: RewriteMemo, budget: int, stop=None):
    """Depth-first search over the distinct reducts of ``p``.

    Returns ``(visited_keys, complete, hit)``: the keys of the polynomials
    reached, whether the search ended with nothing left to expand before
    more than ``budget`` polynomials were reached, and whether a reduct
    satisfied ``stop``, which ends the search at once.
    """
    visited = {_poly_key(p)}
    frontier = [p]
    while frontier:
        if len(visited) > budget:
            return visited, False, False
        for r in _one_step_reducts(frontier.pop(), memo):
            if stop is not None and stop(r):
                return visited, False, True
            k = _poly_key(r)
            if k not in visited:
                visited.add(k)
                frontier.append(r)
    return visited, True, False


# distinct polynomials one exhaustive search may reach, and distinct words
# one span certificate may close over
EXPLORE_BUDGET = 2000


def _span_certificate(p: OPoly, memo: RewriteMemo):
    """``(R, W)`` when ``p``, with rational coefficients and no constraint
    ideal, lies outside the span of the R rewrite steps ``w - repl_r(w)``
    taken at every redex r of every word w of W, the closure of ``p``'s
    support under every redex, whatever the strategy; ``None`` when that is
    not shown, or when the closure passes ``EXPLORE_BUDGET`` words.

    A step rewrites a word w of q at a redex r, taking q to
    ``q - c (w - repl_r(w))``, so every reduct of ``p`` has its words in W
    and lies in ``p`` plus that span; outside it, no reduction reaches zero.
    The steps are eliminated in exact rationals, those of the last closure
    words first, each led by its earliest closure word, and ``p`` is
    outside the span when its remainder is nonzero."""
    index = {w: i for i, w in enumerate(p.terms)}
    words = list(p.terms)
    steps = []
    for w in words:  # grows to the closure
        for repl in memo.replacements(w):
            step = {w: 1}
            _add_scaled_into(step, repl.terms, -1)
            steps.append(step)
            for m in repl.terms:
                if m not in index:
                    index[m] = len(words)
                    words.append(m)
        if len(words) > EXPLORE_BUDGET:
            return None
    lead = index.__getitem__
    pivots = {}

    def reduce(q: dict):
        """Reduce ``q`` in place by the pivots; its leading word, or None
        when it vanishes."""
        while q:
            first = min(q, key=lead)
            pivot = pivots.get(first)
            if pivot is None:
                return first
            _add_scaled_into(q, pivot, -q[first])
        return None

    for step in reversed(steps):
        first = reduce(step)
        if first is not None:
            pivot = pivots[first] = {}
            _add_scaled_into(pivot, step, reciprocal(step[first]))
    if reduce(dict(p.terms)) is None:
        return None
    return len(steps), len(words)


def _strategy_verdict(p: OPoly, schema: RuleSchema, strategy: str,
                     step_cap: int) -> Verdict:
    """The strategy half of ``reduces_to_zero`` on ``p``, already reduced
    modulo the schema's constraint ideal if it has one: YES at a zero normal
    form, INCONCLUSIVE at the step cap, and NO otherwise, with the normal
    form as witness.  ``gsb._certify`` states where the NO is final."""
    _check_strategy(strategy)
    if p.is_zero:
        return Verdict(Verdict.YES, detail="zero in 0 steps")
    nf, trace = normal_form(p, schema, strategy, step_cap)
    if nf.is_zero:
        return Verdict(Verdict.YES, detail=f"zero after {len(trace)} steps")
    if trace.status == STEP_CAP_EXCEEDED:
        return Verdict(Verdict.INCONCLUSIVE, witness=nf,
                       detail=f"step cap {step_cap} exceeded")
    return Verdict(Verdict.NO, witness=nf,
                   detail=f"nonzero normal form after {len(trace)} steps")


@job()
def reduces_to_zero(p: OPoly, schema: RuleSchema) -> Verdict:
    """Does some reduction of ``p`` reach zero?

    The leftmost-outermost strategy verdict within 10 000 steps
    (``_strategy_verdict``), searched on from a nonzero normal form
    (``_search_verdict``); ``gsb._certify`` states the type checks' rule.
    Symbolic coefficients count as zero when they lie in the constraint
    ideal.  The job's memo (``job_memo``) serves both.
    """
    p = schema.normalize(schema.lift(p))
    return _search_verdict(p, job_memo(schema),
                           _strategy_verdict(p, schema, "lo", 10000))


def _search_verdict(p: OPoly, memo: RewriteMemo, verdict: Verdict) -> Verdict:
    """The search half of ``reduces_to_zero``, run from the strategy verdict
    ``verdict`` of ``p``: a NO is searched, any other verdict kept."""
    if verdict.kind != Verdict.NO:
        return verdict
    nf = verdict.witness
    visited, complete, hit = _explore(p, memo, EXPLORE_BUDGET,
                                      stop=lambda r: r.is_zero)
    if hit:
        return Verdict(Verdict.YES, detail="zero on an explored branch")
    if not complete:
        return Verdict(Verdict.INCONCLUSIVE, witness=nf,
                       detail=f"exploration budget {EXPLORE_BUDGET} exceeded")
    return Verdict(Verdict.NO, witness=nf,
                   detail=f"all {len(visited)} reachable polynomials nonzero")


@job()
def joinable(f: OPoly, g: OPoly, schema: RuleSchema) -> Verdict:
    """Do ``f`` and ``g`` reach a common reduct?

    Decided through their difference first (reduction of f - g to zero
    certifies joinability); otherwise the reduct sets are intersected
    within ``EXPLORE_BUDGET`` each.
    """
    f = schema.normalize(schema.lift(f))
    g = schema.normalize(schema.lift(g))
    if f == g:
        return Verdict(Verdict.YES, detail="equal in 0 steps")
    diff = reduces_to_zero(f - g, schema)
    if diff.is_yes:
        return Verdict(Verdict.YES, detail=f"difference vanishes ({diff.detail})")
    memo = job_memo(schema)
    reach_f, complete_f, _ = _explore(f, memo, EXPLORE_BUDGET)
    reach_g, complete_g, _ = _explore(g, memo, EXPLORE_BUDGET)
    if reach_f & reach_g:
        return Verdict(Verdict.YES, detail="common reduct found by search")
    if complete_f and complete_g:
        return Verdict(Verdict.NO, witness=f - g, detail="reduct sets disjoint")
    return Verdict(Verdict.INCONCLUSIVE, witness=f - g,
                   detail="exploration budget exhausted")


# -- local confluence ---------------------------------------------------------------


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
    exceed ``peak_cap``.
    """
    report = ConfluenceReport()
    report.bound_note = f"leaves <= {max_leaves}, depth <= {max_depth}"
    words = enumerate_words(gens, max_leaves, max_depth,
                            include_unit_brackets=True, include_unit=True)
    for w in words:
        report.words_checked += 1
        redexes = find_redexes(w, schema)
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
