"""Catalog families: construction, membership probes, named patterns."""

from fractions import Fraction

import pytest

from opalg.catalog import (DT_FAMILIES, FAMILIES, RBT_FAMILIES, UnknownPattern,
                           families, named_pattern, pattern_names)
from opalg.coeffs import PolyRing
from opalg.opoly import DIFFERENTIAL, ROTA_BAXTER, parse_opoly, to_str_opoly
from opalg.words import GeneratorSet

XY = GeneratorSet(("x", "y"))


def test_catalog_shape():
    assert len(DT_FAMILIES) == 6
    assert len(RBT_FAMILIES) == 14
    assert set(FAMILIES) == {f"dt{i}" for i in range(1, 7)} | \
        {f"rbt{i}" for i in range(1, 15)}
    assert families(DIFFERENTIAL) is DT_FAMILIES
    assert families(ROTA_BAXTER) is RBT_FAMILIES


def test_family_identities_build():
    for fam in DT_FAMILIES + RBT_FAMILIES:
        ident = fam.identity()
        assert ident.kind == fam.mode
        assert ident.pattern.terms, fam.key


def test_each_family_builds_its_ring_once():
    for fam in DT_FAMILIES + RBT_FAMILIES:
        assert fam.ring() is fam.ring()
        assert fam.ring().vars == fam.params
        # a family without parameters has numeric coefficients and no ring
        assert fam.identity().ring is (fam.ring() if fam.params else None)


def test_dt1_constraint_attached():
    fam = FAMILIES["dt1"]
    ident = fam.identity()
    assert len(ident.constraints) == 1
    assert str(ident.constraints[0]).replace(" ", "") in ("b^2-b-c*e", "-b-c*e+b^2",
                                                          "b^2-c*e-b")


def test_dt3_nine_parameters():
    fam = FAMILIES["dt3"]
    assert len(fam.params) == 9
    ident = fam.identity()
    assert len(ident.pattern.terms) == 9


def test_specialize_weight_family():
    fam = FAMILIES["dt1"]
    ident = fam.specialize({"b": 1, "c": Fraction(1, 2), "e": 0})
    got = to_str_opoly(ident.pattern)
    assert "[x] [y]" in got and "x [y]" in got


def test_specialize_rejects_constraint_violation():
    fam = FAMILIES["dt1"]
    with pytest.raises(ValueError):
        fam.specialize({"b": 2, "c": 0, "e": 0})  # b^2 - b - ce = 2 != 0


@pytest.mark.parametrize("spec, text", [
    ("derivation", "x [y] + [x] y"),
    ("endomorphism", "[x] [y]"),
    ("average", "x [y]"),
    ("inverse-average", "[x] y"),
    ("nijenhuis", "x [y] + [x] y - [x y]"),
    ("td", "x [y] + [x] y - x [1] y"),
])
def test_named_patterns_fixed(spec, text):
    ident = named_pattern(spec)
    assert ident.pattern == parse_opoly(text, XY)


def test_named_pattern_weight_numeric():
    ident = named_pattern("weight:3")
    expect = parse_opoly("x [y] + [x] y + 3*[x] [y]", XY)
    assert ident.pattern == expect
    neg = named_pattern("weight:-2")
    expect_neg = parse_opoly("x [y] + [x] y - 2*[x] [y]", XY)
    assert neg.pattern == expect_neg
    zero = named_pattern("weight:0")
    assert zero.pattern == parse_opoly("x [y] + [x] y", XY)


def test_named_pattern_weight_fraction():
    ident = named_pattern("weight:1/2")
    expect = parse_opoly("x [y] + [x] y + 1/2*[x] [y]", XY)
    assert ident.pattern == expect


def test_named_pattern_symbolic_parameter():
    ident = named_pattern("rota-baxter:lam")
    assert ident.ring is not None and "lam" in ident.ring.vars
    ring = PolyRing(("lam",))
    expect = parse_opoly("x [y] + [x] y + lam*x y", XY, ring=ring)
    assert ident.pattern == expect


def test_named_pattern_unknown():
    with pytest.raises(UnknownPattern):
        named_pattern("frobenius")
    with pytest.raises(UnknownPattern):
        named_pattern("derivation:3")  # takes no parameter


@pytest.mark.parametrize("spec", ["weight:1/0", "rota-baxter:0/0",
                                  "weight:x", "weight:1+2", "weight: lam"])
def test_named_pattern_rejects_bad_parameters(spec):
    # a zero denominator, a generator name, or a text that is neither a
    # number nor a name
    with pytest.raises(UnknownPattern):
        named_pattern(spec)


def test_named_pattern_numeric_parameter_specializes_the_symbolic_one():
    # same terms in the same order as the symbolic pattern, zeros dropped
    for name, template in (("weight", "x [y] + [x] y + {}*[x] [y]"),
                           ("rota-baxter", "x [y] + [x] y + {}*x y")):
        for value in ("3", "-2", "1/2", "-3/4", "0"):
            ident = named_pattern(f"{name}:{value}")
            expect = parse_opoly(template.format(f"({value})"), XY)
            assert list(ident.pattern.terms.items()) == \
                list(expect.terms.items())
            assert ident.ring is None and ident.name == f"{name}:{value}"


def test_pattern_names_listing():
    names = pattern_names()
    assert "derivation" in names and "rota-baxter" in names
    assert "nijenhuis" in names


# membership probes: does a concrete pattern lie in a family's solution set?

def probe(fam_key, text, ring_names=()):
    ring = PolyRing(ring_names) if ring_names else None
    pattern = parse_opoly(text, XY, ring=ring)
    return FAMILIES[fam_key].membership(pattern)


def test_derivation_member_of_dt1_and_dt4():
    point = probe("dt1", "x [y] + [x] y")
    assert point == {"b": 1, "c": 0, "e": 0}
    point4 = probe("dt4", "x [y] + [x] y")
    assert point4 == {"a": 0, "b": 0}


def test_derivation_not_member_of_dt2():
    assert probe("dt2", "x [y] + [x] y") is None


def test_endomorphism_member_of_dt1():
    assert probe("dt1", "[x] [y]") == {"b": 0, "c": 1, "e": 0}


def test_weight_half_member_of_dt1():
    point = probe("dt1", "x [y] + [x] y + 1/2*[x] [y]")
    assert point == {"b": 1, "c": Fraction(1, 2), "e": 0}


def test_perturbed_weight_not_member():
    bad = "2*x [y] + 2*[x] y + [x] [y] + x y"
    assert probe("dt1", bad) is None
    assert probe("dt3", bad) is None


def test_dt2_membership():
    text = "-x y + y x + [y] x + y [x] + [y] [x]"
    point = probe("dt2", text)
    assert point == {"e": -1, "c": 1}


def test_rbt_membership():
    assert probe("rbt6", "x [y] + [x] y + 3*x y") == {"lam": 3}
    assert probe("rbt9", "x [y] + [x] y + 3*x y") is None
    assert probe("rbt9", "x [y] + [x] y - x [1] y") == {"lam": 0}
    assert probe("rbt1", "x [y]") == {}
    assert probe("rbt3", "x [y]") is None


def test_labels_present():
    assert FAMILIES["rbt1"].label == "average"
    assert FAMILIES["rbt6"].label


# Catalog-matches the degree-1 DT and RBT classifications in a fresh
# interpreter and prints, per mode, the number of content divisions the
# solver makes while matching and the matches found.
_MEMBERSHIP_JOB = """
import json, random
import opalg.solve
from opalg.classify import build_ansatz, classify, match_catalog
from opalg.opoly import DIFFERENTIAL, ROTA_BAXTER

original = opalg.solve._divide_nonzero_content
calls = [0]

def counted(*args, **kwargs):
    calls[0] += 1
    return original(*args, **kwargs)

opalg.solve._divide_nonzero_content = counted
out = []
for mode in (DIFFERENTIAL, ROTA_BAXTER):
    result = classify(build_ansatz(mode, 1))
    calls[0] = 0
    report = match_catalog(result, samples=1, rng=random.Random(0))
    out.append([calls[0], sorted(report.component_matches.items())])
print(json.dumps(out))
"""


def test_membership_work_does_not_depend_on_hash_seed(run_job):
    # membership equations came from a set union of words, in an order
    # that follows the per-process string hash (seeds 0 and 1 differed)
    first, second = (run_job(_MEMBERSHIP_JOB, hash_seed=seed)
                     for seed in (0, 1))
    assert first == second
