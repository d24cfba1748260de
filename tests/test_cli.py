"""Command line behavior: outputs, exit codes, and determinism."""

import json

import pytest

import opalg
import opalg.cli
import opalg.coeffs
from opalg.classify import ReductionBudgetExceeded
from opalg.cli import main
from opalg.rewrite import ResourceLimit
from opalg.solve import SplitDepthExceeded


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# -- nf ------------------------------------------------------------------------------


def test_nf_derivation_bracket(capsys):
    code, out, _ = run(capsys, "nf", "[x y]", "--dt", "derivation")
    assert code == 0
    assert out.splitlines()[0] == "[x] y + x [y]"
    assert "normal_form" in out


def test_nf_already_reduced(capsys):
    code, out, _ = run(capsys, "nf", "x y", "--dt", "derivation")
    assert code == 0
    assert out.splitlines()[0] == "x y"
    assert "steps: 0" in out


def test_nf_average_pi_rule(capsys):
    code, out, _ = run(capsys, "nf", "u [v] [w]", "--rbt", "average")
    assert code == 0
    assert out.splitlines()[0] == "u [v [w]]"


def test_nf_step_cap_exit_code(capsys):
    code, out, _ = run(capsys, "nf", "[x y]", "--dt", "derivation",
                       "--step-cap", "0")
    assert code == 2
    assert "step_cap_exceeded" in out


def test_nf_parse_error(capsys):
    code, _, err = run(capsys, "nf", "[x y", "--dt", "derivation")
    assert code == 1
    assert "parse error" in err


@pytest.mark.parametrize("argv", [
    ("verify", "3/0 x [y]", "--type", "dt"),
    ("nf", "[x y]", "--dt", "weight:1/0"),
])
def test_zero_denominator_is_an_error_line(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 1 and not out
    assert len(err.splitlines()) == 1 and "zero denominator" in err


def test_nf_requires_exactly_one_identity(capsys):
    code, _, err = run(capsys, "nf", "x y")
    assert code == 1
    assert "usage error" in err
    code, _, err = run(capsys, "nf", "x y", "--dt", "derivation",
                       "--rbt", "average")
    assert code == 1


def test_nf_explicit_generators(capsys):
    code, out, _ = run(capsys, "nf", "[z z]", "--dt", "derivation",
                       "--gens", "z")
    assert code == 0
    assert out.splitlines()[0] == "[z] z + z [z]"


def test_nf_json_payload(capsys):
    code, out, _ = run(capsys, "nf", "[x y]", "--dt", "derivation",
                       "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["schema_version"] == 1
    assert payload["normal_form"] == "[x] y + x [y]"
    assert payload["status"] == "normal_form"
    assert payload["steps"] == 1


# -- verify --------------------------------------------------------------------------


def test_verify_rejects_right_multiplication(capsys):
    code, out, _ = run(capsys, "verify", "--type", "dt", "y [x]")
    assert code == 3
    lines = out.splitlines()
    assert lines[0].startswith("rejected: not differential type")
    assert "witness: w v [u] - v w [u]" in lines
    assert "witness at w = u: u v [u] - v u [u]" in lines


@pytest.mark.parametrize("kind, pattern, line", [
    ("dt", "[x y]",
     "rejected: not differential type (contains a bracketed product)"),
    ("dt", "x x [y]",
     "rejected: not differential type (not totally linear in x, y)"),
    ("rbt", "[x] [y]",
     "rejected: not Rota-Baxter type (contains adjacent bracket factors)"),
], ids=["[x y]", "x x [y]", "[x] [y]"])
def test_verify_rejects_malformed_patterns(capsys, kind, pattern, line):
    code, out, _ = run(capsys, "verify", "--type", kind, pattern)
    assert code == 3
    assert out.splitlines() == [line]


def test_verify_family_with_constraint(capsys):
    code, out, _ = run(capsys, "verify", "--type", "dt",
                       "b*(x [y] + [x] y) + c*[x] [y] + e*x y",
                       "--constraint", "b^2 - b - c*e")
    assert code == 0
    assert out.splitlines()[0] == "accepted: differential type"


def test_verify_family_without_constraint_shows_defect(capsys):
    code, out, _ = run(capsys, "verify", "--type", "dt",
                       "b*(x [y] + [x] y) + c*[x] [y] + e*x y")
    assert code == 3
    assert "b^2 - b - c*e" in out


@pytest.mark.parametrize("kind,pattern", [
    ("dt", "x [y] + [x] y + lam*[x] [y]"), ("rbt", "x [y] + lam*[x] y")])
def test_verify_refuses_inconsistent_constraints(capsys, kind, pattern):
    # their ideal is (1), which would take every coefficient to zero
    code, out, err = run(capsys, "verify", "--type", kind, pattern,
                         "--constraint", "lam - 1", "--constraint", "lam - 2")
    assert (code, out) == (1, "")
    assert err == "error: inconsistent constraints: lam - 1, lam - 2\n"


def test_verify_nijenhuis_expression(capsys):
    code, out, _ = run(capsys, "verify", "--type", "rbt",
                       "x [y] + [x] y - [x y]")
    assert code == 0
    assert out.splitlines()[0] == "accepted: Rota-Baxter type"


def test_verify_named_patterns(capsys):
    assert run(capsys, "verify", "--type", "dt", "derivation")[0] == 0
    assert run(capsys, "verify", "--type", "rbt", "td")[0] == 0
    assert run(capsys, "verify", "--type", "rbt", "rota-baxter:lam")[0] == 0


def test_verify_kind_mismatch_is_usage_error(capsys):
    code, _, err = run(capsys, "verify", "--type", "rbt", "derivation")
    assert code == 1
    assert "usage error" in err


def test_verify_inconclusive_on_tiny_step_cap(capsys):
    code, out, _ = run(capsys, "verify", "--type", "dt", "derivation",
                       "--step-cap", "1")
    assert code == 4
    assert out.splitlines()[0].startswith("inconclusive")


def test_verify_json_fields(capsys):
    code, out, _ = run(capsys, "verify", "--type", "dt", "y [x]",
                       "--format", "json")
    assert code == 3
    payload = json.loads(out)
    assert payload["accepted"] is False
    assert payload["witness"] == "w v [u] - v w [u]"
    assert payload["witness_specialized"] == "u v [u] - v u [u]"
    assert payload["inconclusive"] is False


# -- classify ------------------------------------------------------------------------


def test_classify_degree0_matches_and_exits_zero(capsys):
    code, out, _ = run(capsys, "classify", "--type", "dt", "--degree", "0",
                       "--samples", "6")
    assert code == 0
    assert "component 1: b00 = 0" in out
    assert "component 1 -> dt1" in out
    assert "clean" in out


def test_classify_json_is_deterministic(capsys):
    args = ("classify", "--type", "dt", "--degree", "0", "--samples", "4",
            "--format", "json")
    code1, out1, _ = run(capsys, *args)
    code2, out2, _ = run(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2
    payload = json.loads(out1)
    assert payload["ok"] is True
    assert payload["matches"] == {"0": "dt1"}
    assert payload["terms"] == [["a00", "x y"], ["b00", "y x"]]


@pytest.mark.parametrize("samples", ["0", "-3"])
def test_classify_sample_count_below_one_is_an_error(capsys, monkeypatch,
                                                     samples):
    def unreachable(*args, **kwargs):
        raise AssertionError("classified before the sample count was checked")

    monkeypatch.setattr(opalg.cli, "classify", unreachable)
    code, out, err = run(capsys, "classify", "--type", "dt", "--degree", "2",
                         "--samples", samples)
    assert code == 1
    assert err == f"error: samples must be at least 1, got {samples}\n"
    assert out == ""


# -- gsb and irr ---------------------------------------------------------------------


def test_gsb_derivation_small_bound(capsys):
    code, out, _ = run(capsys, "gsb", "--dt", "derivation",
                       "--bound", "2,1")
    assert code == 0
    assert "Groebner-Shirshov at the bound" in out
    assert "216 intersections" in out


def test_gsb_rejects_non_basis_pattern(capsys):
    code, out, _ = run(capsys, "gsb", "--dt", "y [x]", "--bound", "2,1")
    assert code == 3
    assert "nontrivial" in out


def test_gsb_requires_dt(capsys):
    code, _, err = run(capsys, "gsb", "--rbt", "average", "--bound", "2,1")
    assert code == 1
    assert "usage error" in err


def test_gsb_json_counts(capsys):
    code, out, _ = run(capsys, "gsb", "--dt", "derivation",
                       "--bound", "2,1", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["intersections_checked"] == 216
    assert payload["including_configs"] == 18
    assert payload["ok"] is True
    assert payload["schema_version"] == 1


def test_bad_bound_is_usage_error(capsys):
    code, _, err = run(capsys, "gsb", "--dt", "derivation", "--bound", "3")
    assert code == 1
    assert "usage error" in err


def test_irr_derivation_single_generator(capsys):
    code, out, _ = run(capsys, "irr", "--dt", "derivation",
                       "--gens", "z", "--bound", "2,2")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "31 irreducible words"
    body = [ln.strip() for ln in lines[1:]]
    assert body[0] == "1"
    assert "z" in body and "[z]" in body and "[[z]] [[z]]" in body
    assert "[z z]" not in body  # reducible: it is the rule's own redex


def test_irr_takes_no_order(capsys):
    # irreducibility does not depend on the order
    code, _, err = run(capsys, "irr", "--dt", "derivation", "--gens", "z",
                       "--bound", "2,2", "--order", "purelex")
    assert code == 1
    assert "usage error" in err


def test_irr_json_deterministic(capsys):
    args = ("irr", "--dt", "derivation", "--gens", "z", "--bound", "2,2",
            "--format", "json")
    _, out1, _ = run(capsys, *args)
    _, out2, _ = run(capsys, *args)
    assert out1 == out2
    payload = json.loads(out1)
    assert payload["count"] == 31
    assert len(payload["words"]) == 31


@pytest.mark.parametrize("argv", [
    ("nf", "[x]", "--dt", "derivation", "--step-cap", "-1"),
    ("verify", "derivation", "--type", "dt", "--step-cap", "-3"),
    ("gsb", "--dt", "derivation", "--bound", "2,1", "--step-cap", "-1"),
    ("classify", "--type", "dt", "--degree", "2", "--budget", "-5"),
], ids=["nf", "verify", "gsb", "classify"])
def test_a_negative_cap_is_a_usage_error(capsys, monkeypatch, argv):
    # whatever the subcommand, before any work; a cap of 0 keeps its meaning
    def unreachable(*args, **kwargs):
        raise AssertionError("ran before the cap was checked")

    for name in ("normal_form", "dt_check", "gsb_check_truncated",
                 "classify"):
        monkeypatch.setattr(opalg.cli, name, unreachable)
    code, out, err = run(capsys, *argv)
    assert code == 1 and out == ""
    assert err == (f"usage error: argument {argv[-2]}: must be at least 0, "
                   f"got {argv[-1]}\n")


def test_gsb_bound_of_depth_zero_is_valid_and_below_is_an_error(capsys):
    code, out, _ = run(capsys, "gsb", "--dt", "derivation", "--bound", "2,0")
    assert code == 0 and "depth <= 0" in out
    code, out, err = run(capsys, "gsb", "--dt", "derivation",
                         "--bound", "2,-1")
    assert code == 1 and out == ""
    assert err == ("error: bound breadth and generators must be >= 1, "
                   "depth >= 0\n")


# -- resource limits -----------------------------------------------------------------


@pytest.mark.parametrize("argv", [
    ("classify", "--type", "dt", "--degree", "2", "--budget", "10"),
    ("gsb", "--dt", "derivation", "--bound", "2,1", "--step-cap", "0"),
    ("nf", "[" * 600 + "x y" + "]" * 600, "--dt", "derivation"),
    ("nf", "[" * 1200 + "x y" + "]" * 1200, "--dt", "derivation"),
    ("verify", "[" * 600 + "x y" + "]" * 600, "--type", "dt"),
    ("verify", "x [y] + " + "[" * 300 + "x y" + "]" * 300, "--type", "dt"),
], ids=["classify budget", "gsb step cap", "nf nesting", "nf parse nesting",
        "verify pattern nesting", "verify term nesting"])
def test_resource_limit_exit_code(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 5 and not out
    assert len(err.splitlines()) == 1 and err.startswith("resource limit: ")


def test_irr_lists_flat_words_past_the_recursion_limit(capsys):
    code, out, _ = run(capsys, "irr", "--dt", "derivation", "--bound",
                       "1200,0")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "1201 irreducible words"
    assert [ln.strip() for ln in lines[1:4]] == ["1", "z", "z z"]
    assert lines[-1].strip() == " ".join(["z"] * 1200)


def test_irr_past_the_depth_cap_is_a_resource_limit(capsys):
    code, out, err = run(capsys, "irr", "--dt", "derivation", "--bound",
                         "1,1200")
    assert (code, out) == (5, "")
    assert err == f"resource limit: {opalg.coeffs.TOO_NESTED}\n"


def test_a_constraint_with_a_long_chain_of_minus_signs_is_read(capsys):
    # a = 0 makes the pattern the derivation's own
    pattern = "x [y] + [x] y + a [x] [y]"
    argv = ("verify", "--type", "dt", pattern, "--format", "json",
            "--constraint")
    short = run(capsys, *argv, "a")
    chained = run(capsys, *argv, "a*" + "- " * 3000 + "1")
    assert short[0] == chained[0] == 0
    short, chained = json.loads(short[1]), json.loads(chained[1])
    assert short.pop("constraints") == ["a"]
    assert chained.pop("constraints") == ["a*" + "- " * 3000 + "1"]
    assert chained == short and short["accepted"]


def test_every_limit_is_one_exception():
    assert issubclass(ReductionBudgetExceeded, ResourceLimit)
    assert issubclass(SplitDepthExceeded, ResourceLimit)
    assert opalg.coeffs.ResourceLimit is ResourceLimit is opalg.ResourceLimit
