"""Library calls free what they allocate by reference counting alone.

A recursive closure refers to itself through its cell, so every call that
defines one leaves a reference cycle, with everything the closure holds, for
the cyclic collector.  Peak memory then follows how often that collector runs
rather than the work done, and a change that allocates less elsewhere makes
it run less often.
"""

import gc
import random

import pytest

from opalg.catalog import named_pattern
from opalg.classify import build_ansatz, classify, match_catalog
from opalg.coeffs import PolyRing
from opalg.gsb import (GeneratorSystem, TruncationBound, cdl_direct_sum_check,
                       delta_view, dt_check, free_dt_operator_nf,
                       gsb_check_truncated, rbt_check)
from opalg.opoly import DIFFERENTIAL, ROTA_BAXTER, XY, OPoly, parse_opoly
from opalg.ordering import OrderConfig
from opalg.rewrite import (RuleSchema, find_redexes, in_reduced_form,
                           normal_form)
from opalg.words import GeneratorSet, enumerate_words, parse, sample_word


DERIVATION = named_pattern("derivation")
AVERAGE = named_pattern("average")
BOUND = TruncationBound(2, 1, 3)
NESTED = parse("x [y [x [y x]] [x y]] y", XY)
Z = GeneratorSet(("z",))


def _basis_check():
    system = GeneratorSystem(DERIVATION, OrderConfig(BOUND.generator_set()))
    gsb_check_truncated(system, BOUND, rng=random.Random(1))
    cdl_direct_sum_check(system, BOUND, rng=random.Random(2))


def _classify_and_match():
    for mode in (DIFFERENTIAL, ROTA_BAXTER):
        match_catalog(classify(build_ansatz(mode, 1)), samples=2,
                      rng=random.Random(3))


CALLS = {
    "basis check": _basis_check,
    "classify and match": _classify_and_match,
    "dt_check": lambda: dt_check(DERIVATION.pattern),
    "free_dt_operator_nf": lambda: free_dt_operator_nf(
        parse("z z z", Z), named_pattern("weight:2")),
    "delta_view": lambda: delta_view(parse_opoly("[[z]] z + z [z [[z]]]", Z)),
    "rbt_check": lambda: rbt_check(AVERAGE.pattern),
    "enumerate_words": lambda: enumerate_words(("x", "y"), 4, 2),
    "find_redexes": lambda: find_redexes(NESTED, RuleSchema(DERIVATION)),
    "in_reduced_form": lambda: [in_reduced_form(NESTED, sigma)
                                for sigma in (True, False)],
    "has_unit_bracket": lambda: parse("x [y [1]] [[x] y]",
                                      XY).has_unit_bracket,
    "normal_form": lambda: normal_form(OPoly.from_word(NESTED),
                                       RuleSchema(DERIVATION), "li"),
    "sample_word": lambda: [sample_word(random.Random(s), ("x", "y"), 5, 3)
                            for s in range(50)],
    "words.parse": lambda: parse("x [y [x] y] [1]", XY),
    "parse_opoly": lambda: parse_opoly(
        "x [y] - 2*[x] y + [[x y]] + ((1/2))*(x - 3/4 y)", XY),
    "PolyRing.parse": lambda: PolyRing(("a", "b", "c")).parse(
        "a^2 - (b + 3*c)*a/2 + -b"),
    "named_pattern": lambda: [named_pattern(spec)
                              for spec in ("derivation", "weight:-1/2")],
}


@pytest.mark.parametrize("name", sorted(CALLS))
def test_call_leaves_no_reference_cycle(name):
    CALLS[name]()   # first-use caches are not garbage
    gc.collect()
    gc.disable()
    try:
        CALLS[name]()
        assert gc.collect() == 0
    finally:
        gc.enable()
