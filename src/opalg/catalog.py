"""Built-in operator identity families and named patterns.

Six differential-shape families (parameters a, b, c, e) and fourteen
Rota-Baxter-shape families (parameters lam, d), plus the classical named
operators used on the command line.  Family membership of a concrete
replacement pattern is decided exactly: equate coefficients, add the family's
constraint ideal, and solve.
"""

from __future__ import annotations

from fractions import Fraction

from .coeffs import PolyRing, Tokens
from .opoly import DIFFERENTIAL, ROTA_BAXTER, XY, OpIdentity, OPoly, parse_opoly
from .solve import find_representative, solve_components


class Family:
    """One catalog family: a parametric pattern plus constraint ideal."""

    __slots__ = ("key", "mode", "params", "pattern_text", "constraint_texts",
                 "label", "_ring", "_identity")

    def __init__(self, key, mode, params, pattern_text, constraints=(), label=None):
        self.key = key
        self.mode = mode
        self.params = tuple(params)
        self.pattern_text = pattern_text
        self.constraint_texts = tuple(constraints)
        self.label = label
        self._ring = PolyRing(self.params)
        self._identity = None

    def ring(self) -> PolyRing:
        return self._ring

    def identity(self) -> OpIdentity:
        if self._identity is None:
            ring = self._ring if self.params else None
            pattern = parse_opoly(self.pattern_text, XY, ring=ring)
            constraints = tuple(ring.parse(t) for t in self.constraint_texts)
            self._identity = OpIdentity(self.mode, pattern, constraints,
                                        name=self.key)
        return self._identity

    def specialize(self, point: dict) -> OpIdentity:
        return self.identity().specialize(point)

    def membership(self, pattern: OPoly):
        """Parameter values realizing ``pattern`` in this family, else None.

        ``pattern`` must be numeric (rational coefficients, each an ``int``
        when integral and a ``Fraction`` otherwise) over x, y.
        """
        ident = self.identity()
        if not self.params:
            return {} if pattern == ident.pattern else None
        ring = ident.ring
        # the pattern's words the family lacks, then the family's words, each
        # in term order: a fixed equation order fixes the solver's work
        support = [w for w in pattern.terms if w not in ident.pattern.terms]
        support.extend(ident.pattern.terms)
        eqs = []
        for w in support:
            fam_c = ident.pattern.terms.get(w, ring.zero())
            val = pattern.terms.get(w, 0)
            eqs.append(fam_c - ring.const(val))
        eqs.extend(ident.constraints)
        for comp in solve_components(eqs, ring):
            rep = find_representative(comp.basis, comp.nonzero, ring)
            if rep is not None:
                return rep
        return None

    def __repr__(self):
        return f"Family({self.key}: {self.pattern_text})"


DT_FAMILIES = (
    Family("dt1", DIFFERENTIAL, ("b", "c", "e"),
           "b*x [y] + b*[x] y + c*[x] [y] + e*x y",
           constraints=("b^2 - b - c*e",)),
    Family("dt2", DIFFERENTIAL, ("c", "e"),
           "(c*e^2)*y x + e*x y + c*[y] [x] - (c*e)*y [x] - (c*e)*[y] x"),
    # the full family allows any finite support in i, j; degree-2 working bound
    Family("dt3", DIFFERENTIAL,
           tuple(f"a{i}{j}" for i in range(3) for j in range(3)),
           " + ".join(
               f"a{i}{j}*{'[1] ' * i}x y{' [1]' * j}"
               for i in range(3) for j in range(3))),
    Family("dt4", DIFFERENTIAL, ("a", "b"),
           "x [y] + [x] y + a*x [1] y + b*x y"),
    Family("dt5", DIFFERENTIAL, ("a",),
           "[x] y + a*x [1] y - a*x y [1]"),
    Family("dt6", DIFFERENTIAL, ("a",),
           "x [y] + a*x [1] y - a*[1] x y"),
)

RBT_FAMILIES = (
    Family("rbt1", ROTA_BAXTER, (), "x [y]", label="average"),
    Family("rbt2", ROTA_BAXTER, (), "[x] y", label="inverse average"),
    Family("rbt3", ROTA_BAXTER, (), "x [y] + y [x]"),
    Family("rbt4", ROTA_BAXTER, (), "[x] y + [y] x"),
    Family("rbt5", ROTA_BAXTER, (), "x [y] + [x] y - [x y]", label="Nijenhuis"),
    Family("rbt6", ROTA_BAXTER, ("lam",), "x [y] + [x] y + lam*x y",
           label="Rota-Baxter of weight lam"),
    Family("rbt7", ROTA_BAXTER, ("lam",), "x [y] - x [1] y + lam*x y"),
    Family("rbt8", ROTA_BAXTER, ("lam",), "[x] y - x [1] y + lam*x y"),
    Family("rbt9", ROTA_BAXTER, ("lam",),
           "x [y] + [x] y - x [1] y + lam*x y",
           label="generalized TD of weight lam"),
    Family("rbt10", ROTA_BAXTER, ("lam",),
           "x [y] + [x] y - x y [1] - x [1] y + lam*x y"),
    Family("rbt11", ROTA_BAXTER, ("lam",),
           "x [y] + [x] y - x [1] y - [x y] + lam*x y"),
    Family("rbt12", ROTA_BAXTER, ("lam",),
           "x [y] + [x] y - x [1] y - [1] x y + lam*x y"),
    Family("rbt13", ROTA_BAXTER, ("d", "lam"), "d*x [1] y + lam*x y",
           label="generalized endomorphism"),
    Family("rbt14", ROTA_BAXTER, ("d", "lam"), "d*y [1] x + lam*y x",
           label="generalized antimorphism"),
)

FAMILIES = {f.key: f for f in DT_FAMILIES + RBT_FAMILIES}


def families(mode: str):
    return DT_FAMILIES if mode == DIFFERENTIAL else RBT_FAMILIES


# -- named patterns -----------------------------------------------------------------

_NAMED = {
    # differential shape: [x y] = N(x, y)
    "derivation": (DIFFERENTIAL, "x [y] + [x] y"),
    "endomorphism": (DIFFERENTIAL, "[x] [y]"),
    "weight": (DIFFERENTIAL, "x [y] + [x] y + {p}*[x] [y]"),
    # Rota-Baxter shape: [x] [y] = [M(x, y)]
    "average": (ROTA_BAXTER, "x [y]"),
    "inverse-average": (ROTA_BAXTER, "[x] y"),
    "nijenhuis": (ROTA_BAXTER, "x [y] + [x] y - [x y]"),
    "rota-baxter": (ROTA_BAXTER, "x [y] + [x] y + {p}*x y"),
    "td": (ROTA_BAXTER, "x [y] + [x] y - x [1] y"),
}


class UnknownPattern(ValueError):
    pass


def named_pattern(spec: str) -> OpIdentity:
    """Resolve ``name`` or ``name:value``; the value may be a rational number
    or an identifier for a symbolic parameter."""
    name, sep, arg = spec.partition(":")
    entry = _NAMED.get(name)
    if entry is None:
        raise UnknownPattern(
            f"unknown pattern {name!r}; available: {', '.join(sorted(_NAMED))}")
    mode, text = entry
    if "{p}" not in text:
        if sep:
            raise UnknownPattern(f"pattern {name!r} takes no parameter")
        return OpIdentity(mode, parse_opoly(text, XY), name=name)
    arg = arg or "lam"
    try:
        value = Fraction(arg)
    except ZeroDivisionError:
        raise UnknownPattern(f"zero denominator in {spec!r}") from None
    except ValueError:
        value = None
    if value is None and (arg in XY or Tokens(arg).toks != [("ident", arg, 0)]):
        raise UnknownPattern(f"parameter {arg!r} of {name!r} is neither a "
                             "number nor a name other than x, y")
    param = arg if value is None else "lam"
    ident = OpIdentity(mode, parse_opoly(text.replace("{p}", param), XY,
                                         ring=PolyRing([param])), name=spec)
    return ident if value is None else ident.specialize({param: value})


def pattern_names():
    return sorted(_NAMED)
