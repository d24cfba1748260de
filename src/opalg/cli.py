"""Command line interface: normal forms, type checks, classification,
truncated composition checks, and irreducible-word enumeration."""

from __future__ import annotations

import argparse
import json
import sys

from .catalog import named_pattern, pattern_names
from .classify import build_ansatz, classify, match_catalog
from .coeffs import PolyRing, ResourceLimit, Tokens
from .gsb import UVW, GeneratorSystem, TruncationBound, dt_check, \
    gsb_check_truncated, irr_enumerate, rbt_check
from .opoly import DIFFERENTIAL, OpIdentity, ROTA_BAXTER, XY, parse_opoly, \
    to_str_opoly
from .ordering import OrderConfig
from .rewrite import NORMAL_FORM, NotDRF, NotRBRF, NotTotallyLinear, \
    RuleSchema, normal_form
from .words import GeneratorSet, ParseError, Word, to_str, word_sort_key

SCHEMA_VERSION = 1

EXIT_OK = 0
EXIT_PARSE = 1
EXIT_STEP_CAP = 2
EXIT_REJECTED = 3
EXIT_INCONCLUSIVE = 4
EXIT_RESOURCE = 5

class UsageError(ValueError):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _count(text: str) -> int:
    """A step cap or budget: a whole number, 0 or more."""
    if int(text) < 0:
        raise argparse.ArgumentTypeError(f"must be at least 0, got {text}")
    return int(text)


def _identifiers(text: str):
    return sorted({tok for kind, tok, _ in Tokens(text).toks
                   if kind == "ident"})


def _resolve_identity(spec: str, kind: str, constraint_texts=()) -> OpIdentity:
    """A named pattern, or an expression over x, y with free coefficient
    parameters; ``constraint_texts`` bind the parameters."""
    if spec.partition(":")[0] in pattern_names():
        ident = named_pattern(spec)
        if ident.kind != kind:
            raise UsageError(f"pattern {spec!r} is {ident.kind}, not {kind}")
        if constraint_texts:
            raise UsageError("--constraint applies to expression patterns")
        return ident
    params = [n for n in _identifiers(spec) if n not in ("x", "y")]
    ring = PolyRing(params) if params else None
    pattern = parse_opoly(spec, XY, ring=ring)
    if constraint_texts and ring is None:
        raise UsageError("--constraint given but the pattern has no parameters")
    constraints = tuple(ring.parse(t) for t in constraint_texts) if ring else ()
    return OpIdentity(kind, pattern, constraints, name=spec)


def _identity_from_args(args) -> OpIdentity:
    dt, rbt = getattr(args, "dt", None), getattr(args, "rbt", None)
    if (dt is None) == (rbt is None):
        raise UsageError("exactly one of --dt or --rbt is required")
    if dt is not None:
        return _resolve_identity(dt, DIFFERENTIAL)
    return _resolve_identity(rbt, ROTA_BAXTER)


def _emit(args, payload: dict, text_lines) -> None:
    if args.format == "json":
        body = dict(payload)
        body["schema_version"] = SCHEMA_VERSION
        sys.stdout.write(json.dumps(body, indent=2, sort_keys=True) + "\n")
    else:
        for line in text_lines:
            sys.stdout.write(line + "\n")


# -- subcommands ---------------------------------------------------------------------


def cmd_nf(args) -> int:
    ident = _identity_from_args(args)
    names = args.gens.split(",") if args.gens else \
        [n for n in _identifiers(args.expr)]
    gset = GeneratorSet(tuple(names))
    expr = parse_opoly(args.expr, gset)
    order = OrderConfig(gset, args.order) if ident.kind == DIFFERENTIAL \
        else None
    schema = RuleSchema(ident, order=order)
    result, trace = normal_form(expr, schema, strategy=args.strategy,
                                step_cap=args.step_cap)
    rendered = to_str_opoly(result, order)
    payload = {"command": "nf", "input": args.expr,
               "normal_form": rendered, "status": trace.status,
               "steps": len(trace), "strategy": args.strategy}
    _emit(args, payload,
          [rendered, f"status: {trace.status} (steps: {len(trace)})"])
    return EXIT_OK if trace.status == NORMAL_FORM else EXIT_STEP_CAP


def _specialized_witness(witness):
    """The witness after identifying the outer generators w and u, the
    coincidence that exposes the classical counterexample form."""
    if witness is None:
        return None
    collapsed = witness.subst_generators({"w": Word(("u",))})
    if collapsed.is_zero or collapsed == witness:
        return None
    return collapsed


def cmd_verify(args) -> int:
    kind = DIFFERENTIAL if args.type == "dt" else ROTA_BAXTER
    ident = _resolve_identity(args.pattern, kind,
                              tuple(args.constraint or ()))
    if kind == DIFFERENTIAL:
        report = dt_check(ident.pattern, ident.constraints,
                          strategy=args.strategy, order_mode=args.order,
                          step_cap=args.step_cap)
    else:
        report = rbt_check(ident.pattern, ident.constraints,
                           strategy=args.strategy, step_cap=args.step_cap)
    witness = report.witness
    special = _specialized_witness(witness)
    cfg = OrderConfig(UVW, args.order)
    lines = [report.describe()]
    if witness is not None:
        lines.append(f"witness: {to_str_opoly(witness, cfg)}")
    if special is not None:
        lines.append(f"witness at w = u: {to_str_opoly(special)}")
    payload = {"command": "verify", "type": args.type,
               "pattern": args.pattern,
               "constraints": list(args.constraint or ()),
               "accepted": report.accepted,
               "reason": report.reason,
               "witness": to_str_opoly(witness, cfg) if witness is not None
               else None,
               "witness_specialized": to_str_opoly(special)
               if special is not None else None,
               "inconclusive": report.inconclusive}
    _emit(args, payload, lines)
    if report.accepted:
        return EXIT_OK
    return EXIT_INCONCLUSIVE if report.inconclusive else EXIT_REJECTED


def cmd_classify(args) -> int:
    if args.samples < 1:
        raise ValueError(f"samples must be at least 1, got {args.samples}")
    mode = DIFFERENTIAL if args.type == "dt" else ROTA_BAXTER
    ansatz = build_ansatz(mode, args.degree,
                          include_unit_terms=args.units,
                          include_reversed=args.reversed)
    result = classify(ansatz, budget=args.budget)
    report = match_catalog(result, samples=args.samples)
    unresolved = result.system.unresolved()
    lines = [ansatz.describe(),
             f"constraints: {len(result.system.equations)} "
             f"({len(unresolved)} unresolved)",
             f"components: {len(result.components)} "
             f"({len(result.audit_failures)} failed self-audit)"]
    for n, comp in enumerate(result.components):
        lines.append(f"  component {n + 1}: {comp.describe()}")
    for eq in unresolved:
        lines.append(f"  unresolved: {eq.describe()}")
    lines.append(report.describe())
    payload = {
        "command": "classify", "type": args.type, "degree": args.degree,
        "units": args.units, "reversed": args.reversed,
        "terms": [[n, to_str(w)] for n, w in ansatz.terms],
        "equations": [str(eq.poly) for eq in result.system.equations],
        "unresolved": [str(eq.poly) for eq in unresolved],
        "components": [c.describe() for c in result.components],
        "audit_failures": [c.describe() for c in result.audit_failures],
        "matches": {str(i): fam
                    for i, fam in sorted(report.component_matches.items())},
        "unmatched_components": report.unmatched_components,
        "family_coverage": dict(sorted(report.family_coverage.items())),
        "uncovered_families": report.uncovered_families,
        "mismatches": len(report.mismatches),
        "ok": report.ok,
    }
    _emit(args, payload, lines)
    return EXIT_OK if report.ok else EXIT_REJECTED


def _parse_bound(text: str, gens_count: int) -> TruncationBound:
    try:
        breadth, depth = (int(part) for part in text.split(","))
    except ValueError:
        raise UsageError(f"--bound expects BREADTH,DEPTH, got {text!r}")
    return TruncationBound(breadth, depth, max_generators=gens_count)


def cmd_gsb(args) -> int:
    ident = _identity_from_args(args)
    if ident.kind != DIFFERENTIAL:
        raise UsageError("gsb requires a differential-type identity")
    count = len(args.gens.split(",")) if args.gens else 3
    bound = _parse_bound(args.bound, count)
    system = GeneratorSystem(ident,
                             OrderConfig(bound.generator_set(), args.order))
    report = gsb_check_truncated(system, bound, step_cap=args.step_cap)
    payload = report.to_dict()
    payload["command"] = "gsb"
    _emit(args, payload, [report.describe()])
    return EXIT_OK if report.ok else EXIT_REJECTED


def cmd_irr(args) -> int:
    ident = _identity_from_args(args)
    if ident.kind != DIFFERENTIAL:
        raise UsageError("irr requires a differential-type identity")
    names = tuple(args.gens.split(",")) if args.gens else ("z",)
    bound = _parse_bound(args.bound, len(names))
    gset = GeneratorSet(names)
    # irreducibility does not depend on the order: any order will do
    system = GeneratorSystem(ident, OrderConfig(gset))
    words = sorted(irr_enumerate(system, bound, gens=names),
                   key=word_sort_key)
    rendered = [to_str(w) for w in words]
    payload = {"command": "irr", "gens": list(names),
               "bound": {"max_breadth": bound.max_breadth,
                         "max_depth": bound.max_depth},
               "count": len(rendered), "words": rendered}
    lines = [f"{len(rendered)} irreducible words"] + \
        [f"  {t}" for t in rendered]
    _emit(args, payload, lines)
    return EXIT_OK


# -- parser --------------------------------------------------------------------------


def _add_common(sub, order=True, strategy=True, step_cap=None):
    sub.add_argument("--format", choices=("text", "json"), default="text")
    if order:
        sub.add_argument("--order", choices=("purelex", "deglenlex"),
                         default="purelex")
    if strategy:
        sub.add_argument("--strategy", choices=("lo", "li"), default="lo",
                         help="lo: leftmost-outermost redex first; li: "
                              "leftmost-innermost")
    if step_cap is not None:
        sub.add_argument("--step-cap", type=_count, default=step_cap,
                         dest="step_cap",
                         help="most rewrite steps one reduction may take; a "
                              "step rewrites one redex of one monomial, or, "
                              "in a gsb check's memo, builds the normal form "
                              "of one bracket atom (default: %(default)s)")


def _add_identity_flags(sub):
    sub.add_argument("--dt", metavar="PATTERN",
                     help="differential-type identity: a name "
                          f"({', '.join(pattern_names())}) or an expression")
    sub.add_argument("--rbt", metavar="PATTERN",
                     help="Rota-Baxter-type identity: a name or an expression")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="opalg",
                     description="operated-algebra rewriting toolkit")
    subs = parser.add_subparsers(dest="subcommand", required=True)

    nf = subs.add_parser("nf", help="reduce an expression to normal form",
                         parents=())
    nf.add_argument("expr")
    _add_identity_flags(nf)
    nf.add_argument("--gens", help="comma-separated generator names "
                                   "(default: inferred from the input)")
    _add_common(nf, step_cap=100000)
    nf.set_defaults(func=cmd_nf)

    verify = subs.add_parser("verify",
                             help="check a replacement pattern for type")
    verify.add_argument("pattern")
    verify.add_argument("--type", choices=("dt", "rbt"), required=True)
    verify.add_argument("--constraint", action="append", metavar="POLY",
                        help="parameter constraint (repeatable)")
    _add_common(verify, step_cap=10000)
    verify.set_defaults(func=cmd_verify)

    cls = subs.add_parser("classify",
                          help="classify admissible patterns by ansatz")
    cls.add_argument("--type", choices=("dt", "rbt"), required=True)
    cls.add_argument("--degree", type=int, required=True)
    cls.add_argument("--units", action="store_true")
    cls.add_argument("--reversed", action=argparse.BooleanOptionalAction,
                     default=True)
    cls.add_argument("--budget", type=_count, default=4000)
    cls.add_argument("--samples", type=int, default=20)
    _add_common(cls, order=False, strategy=False)
    cls.set_defaults(func=cmd_classify)

    gsb = subs.add_parser("gsb",
                          help="truncated composition (overlap) check")
    _add_identity_flags(gsb)
    gsb.add_argument("--bound", default="3,2", metavar="BREADTH,DEPTH")
    gsb.add_argument("--gens", help="generator names; the count sets the "
                                    "argument-word alphabet size")
    _add_common(gsb, strategy=False, step_cap=100000)
    gsb.set_defaults(func=cmd_gsb)

    irr = subs.add_parser("irr", help="enumerate irreducible words")
    _add_identity_flags(irr)
    irr.add_argument("--bound", default="2,2", metavar="BREADTH,DEPTH")
    irr.add_argument("--gens", help="comma-separated generator names")
    _add_common(irr, order=False, strategy=False)
    irr.set_defaults(func=cmd_irr)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except (NotTotallyLinear, NotDRF, NotRBRF) as exc:
        print(f"pattern error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except ResourceLimit as exc:
        print(f"resource limit: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE


if __name__ == "__main__":
    sys.exit(main())
