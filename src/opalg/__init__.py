"""Symbolic rewriting for operated algebras.

Bracketed words over a free monoid, operator-identity rewriting rules of
differential and Rota-Baxter shape, truncated composition (overlap) checks,
and exact classification of admissible replacement patterns by polynomial
constraint solving.
"""

from .words import (GeneratorSet, ParseError, UNIT, Word, bracket,
                    enumerate_words, gen_word, parse, to_str, word_sort_key)
from .coeffs import MPoly, PolyRing
from .ordering import OrderConfig, compare
from .opoly import (DIFFERENTIAL, OPoly, OpIdentity, ROTA_BAXTER, parse_opoly,
                    to_str_opoly)
from .rewrite import (NotDRF, NotRBRF, NotTotallyLinear, ReductionTrace,
                      ResourceLimit, RuleSchema, Verdict, find_redexes, is_drf,
                      is_rbrf, is_totally_linear, joinable,
                      local_confluence_check, normal_form, reduces_to_zero)
from .groebner import buchberger, nf_mod_ideal
from .solve import (SolutionComponent, find_representative, sample_points,
                    solve_components)
from .catalog import (DT_FAMILIES, FAMILIES, Family, RBT_FAMILIES,
                      UnknownPattern, families, named_pattern, pattern_names)
from .gsb import (CdlReport, GeneratorSystem, GsbReport, NFCache,
                  TruncationBound, TypeReport, cdl_direct_sum_check,
                  delta_view, dt_check, free_dt_operator_nf,
                  gsb_check_truncated, irr_enumerate, rbt_check)
from .classify import (Ansatz, ClassifyResult, ConstraintSystem, MatchReport,
                       ReductionBudgetExceeded, build_ansatz, classify,
                       extract_constraints, match_catalog)

__version__ = "1.0.0"

__all__ = [
    "Ansatz", "CdlReport", "ClassifyResult", "ConstraintSystem",
    "DIFFERENTIAL", "DT_FAMILIES", "FAMILIES", "Family", "GeneratorSet",
    "GeneratorSystem", "GsbReport", "MPoly", "MatchReport", "NFCache",
    "NotDRF", "NotRBRF", "NotTotallyLinear",
    "OPoly", "OpIdentity", "OrderConfig", "ParseError", "PolyRing",
    "RBT_FAMILIES", "ROTA_BAXTER", "ReductionBudgetExceeded",
    "ReductionTrace", "ResourceLimit", "RuleSchema", "SolutionComponent",
    "TruncationBound", "TypeReport", "UNIT", "UnknownPattern", "Verdict",
    "Word", "bracket", "buchberger", "build_ansatz", "cdl_direct_sum_check",
    "classify", "compare", "delta_view", "dt_check", "enumerate_words",
    "extract_constraints", "families", "find_redexes", "find_representative",
    "free_dt_operator_nf", "gen_word", "gsb_check_truncated", "irr_enumerate",
    "is_drf", "is_rbrf", "is_totally_linear", "joinable",
    "local_confluence_check", "match_catalog", "named_pattern",
    "nf_mod_ideal", "normal_form", "parse", "parse_opoly", "pattern_names",
    "rbt_check", "reduces_to_zero", "sample_points", "solve_components",
    "to_str", "to_str_opoly", "word_sort_key",
]
