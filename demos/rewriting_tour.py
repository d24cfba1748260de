"""A guided tour of bracketed words and operator-identity rewriting.

Run:  python3 demos/rewriting_tour.py
"""

from opalg import (GeneratorSet, OrderConfig, PolyRing, RuleSchema, dt_check,
                   named_pattern, normal_form, parse, parse_opoly, to_str,
                   to_str_opoly)

XY = GeneratorSet(("x", "y"))
UVW = GeneratorSet(("u", "v", "w"))


def show(label, value):
    print(f"  {label:<34} {value}")


# -- 1. bracketed words ----------------------------------------------------------

print("1. Bracketed words: generators, products, and an operator [.]")
w = parse("x [y [x]] y", XY)
show("parsed", to_str(w))
show("leaves", w.leaves)
show("depth", w.depth())
print()

# -- 2. rewriting with the derivation rule ---------------------------------------

print("2. Rewriting [a b] -> [a] b + a [b] (the derivation / Leibniz rule)")
der = named_pattern("derivation")
schema = RuleSchema(der, order=OrderConfig(XY))
for text in ("[x y]", "[x [x y]]", "[x y y]"):
    p = parse_opoly(text, XY)
    nf, trace = normal_form(p, schema)
    show(f"{text}  ->", f"{to_str_opoly(nf, OrderConfig(XY))}"
         f"   (steps: {len(trace)})")
print()

# -- 3. a weighted variant --------------------------------------------------------

print("3. The weight-lam variant adds a product correction term")
wl = named_pattern("weight:lam")
schema = RuleSchema(wl, order=OrderConfig(XY))
nf, trace = normal_form(parse_opoly("[x y]", XY), schema)
show("[x y]  ->", to_str_opoly(nf, OrderConfig(XY)))
print()

# -- 4. certifying an identity ----------------------------------------------------

print("4. A replacement pattern is admissible exactly when the")
print("   associativity defect [u v w] (two ways) rewrites to zero.")
for text in ("x [y] + [x] y", "y [x]"):
    rep = dt_check(parse_opoly(text, XY))
    verdict = "accepted" if rep.accepted else "rejected"
    show(f"[x y] -> {text}", verdict)
    if rep.witness is not None:
        show("  residual obstruction",
             to_str_opoly(rep.witness, OrderConfig(UVW)))
print()

# -- 5. symbolic coefficients -----------------------------------------------------

print("5. Coefficients may be symbolic; constraints state when the family")
print("   is admissible for every parameter value satisfying them.")
ring = PolyRing(("b", "c", "e"))
pattern = parse_opoly("b*(x [y] + [x] y) + c*[x] [y] + e*x y", XY, ring=ring)
unconstrained = dt_check(pattern)
show("no constraint", "accepted" if unconstrained.accepted else "rejected")
constrained = dt_check(pattern, (ring.parse("b^2 - b - c*e"),))
show("modulo b^2 - b - c*e", "accepted" if constrained.accepted else "rejected")
