"""Classify all admissible differential-shape replacement patterns.

Builds the generic ansatz [x y] -> sum of coefficient * monomial, extracts
the polynomial constraints forced by associativity, splits the solution set
into irreducible components, and matches each component against the catalog
of known families.

Run:  python3 demos/classification_run.py [--degree N] [--samples K]
(degree 2 reproduces the full classification and takes a few seconds)
"""

import argparse
import time

from opalg import (DIFFERENTIAL, build_ansatz, classify, match_catalog,
                   to_str)


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--degree", type=int, default=1,
                    help="maximum operator nesting in the ansatz (default 1)")
    ap.add_argument("--samples", type=int, default=12,
                    help="rational sample points per component (default 12)")
    args = ap.parse_args()

    t0 = time.time()
    ansatz = build_ansatz(DIFFERENTIAL, args.degree)
    print(f"ansatz: [x y] -> sum over {len(ansatz.terms)} monomials")
    for name, word in ansatz.terms:
        print(f"    {name} * {to_str(word)}")

    result = classify(ansatz)
    system = result.system
    print(f"\nassociativity forces {len(system.equations)} coefficient "
          f"equations; solution set splits into "
          f"{len(result.components)} components:")
    for i, comp in enumerate(result.components):
        print(f"    component {i + 1}: {comp.describe()}")
    if result.audit_failures:
        print(f"    AUDIT FAILURES: {result.audit_failures}")

    report = match_catalog(result, samples=args.samples)
    print(f"\ncatalog match ({args.samples} samples per component):")
    for i in sorted(report.component_matches):
        print(f"    component {i + 1} -> {report.component_matches[i]}")
    for key in report.uncovered_families:
        print(f"    UNCOVERED family: {key}")
    status = "clean" if report.ok else "INCOMPLETE"
    print(f"\nresult: {status} "
          f"({len(result.components)} components, "
          f"{len(report.mismatches)} mismatches, "
          f"{time.time() - t0:.1f}s)")


if __name__ == "__main__":
    main()
