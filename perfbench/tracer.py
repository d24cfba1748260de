"""Per-layer tracing of the opalg library, installed from outside.

Each layer is one library module.  The tracer replaces the layer's public
functions (and the public arithmetic and substitution methods of ``MPoly``
and ``OPoly``) with wrappers that count calls, record a span per call and
derive self time as span time minus the time of child spans.  A function is
patched at every ``opalg.*`` module binding of the same object, because the
modules import each other with ``from .x import y`` and patching the defining
module alone would miss calls that cross layers.
"""

import json
import sys
import time

# (metric name, defining module, attribute) of every traced module function
FUNCTIONS = (
    ("words.enumerate_words", "opalg.words", "enumerate_words"),
    ("ordering.compare", "opalg.ordering", "compare"),
    ("rewrite.normal_form", "opalg.rewrite", "normal_form"),
    ("rewrite.find_redexes", "opalg.rewrite", "find_redexes"),
    ("rewrite.reduces_to_zero", "opalg.rewrite", "reduces_to_zero"),
    ("groebner.buchberger", "opalg.groebner", "buchberger"),
    ("groebner.nf_mod_ideal", "opalg.groebner", "nf_mod_ideal"),
    ("solve.solve_components", "opalg.solve", "solve_components"),
    ("solve.find_representative", "opalg.solve", "find_representative"),
    ("solve.sample_points", "opalg.solve", "sample_points"),
    ("gsb.gsb_check_truncated", "opalg.gsb", "gsb_check_truncated"),
    ("gsb.cdl_direct_sum_check", "opalg.gsb", "cdl_direct_sum_check"),
    ("gsb.irr_enumerate", "opalg.gsb", "irr_enumerate"),
    ("gsb.dt_check", "opalg.gsb", "dt_check"),
    ("gsb.rbt_check", "opalg.gsb", "rbt_check"),
    ("classify.build_ansatz", "opalg.classify", "build_ansatz"),
    ("classify.extract_constraints", "opalg.classify", "extract_constraints"),
    ("classify.classify", "opalg.classify", "classify"),
    ("classify.match_catalog", "opalg.classify", "match_catalog"),
)

# (metric name, defining module, class, method names) of every traced method
METHODS = (
    ("coeffs.arith", "opalg.coeffs", "MPoly",
     ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
      "__truediv__", "__neg__")),
    ("coeffs.subs", "opalg.coeffs", "MPoly", ("subs",)),
    ("coeffs.evaluate", "opalg.coeffs", "MPoly", ("evaluate",)),
    ("opoly.arith", "opalg.opoly", "OPoly",
     ("__add__", "__sub__", "__neg__", "__mul__", "__rmul__", "scale")),
    ("opoly.subst_generators", "opalg.opoly", "OPoly", ("subst_generators",)),
    ("opoly.into_context", "opalg.opoly", "OPoly", ("into_context",)),
    ("catalog.membership", "opalg.catalog", "Family", ("membership",)),
)

# Exploration in ``reduces_to_zero`` expands one polynomial per call of this
# private generator; it is counted, not timed (a generator returns at once).
EXPLORE_COUNTER = ("opalg.rewrite", "_one_step_reducts")

DERIVED = ("words.enumerated", "rewrite.steps", "rewrite.explored_polys",
           "rewrite.strategy_decided_ratio", "solve.sample_points.yield",
           "gsb.intersections_reduced", "gsb.including_configs",
           "gsb.words_checked", "classify.equations", "classify.components")
DERIVED_UNITS = {"rewrite.strategy_decided_ratio": "ratio",
                 "solve.sample_points.yield": "ratio"}

# verdict details of ``reduces_to_zero`` that mean exhaustive exploration ran
_EXPLORED_DETAILS = ("exploration budget", "all ", "zero on an explored branch")

SPAN_CAP = 100_000


def layer_names():
    return [name for name, *_ in FUNCTIONS] + [name for name, *_ in METHODS]


def metric_units():
    """Every per-layer metric name the tracer reports, with its unit."""
    units = {}
    for name in layer_names():
        units[f"{name}.calls"] = "count"
        units[f"{name}.self_s"] = "s"
    for name in DERIVED:
        units[name] = DERIVED_UNITS.get(name, "count")
    return units


class Tracer:
    """Spans and counters for one traced run; ``install`` patches the
    library, ``uninstall`` restores every binding it replaced."""

    def __init__(self):
        self.names = layer_names()
        self.calls = [0] * len(self.names)
        self.self_s = [0.0] * len(self.names)
        self.counts = dict.fromkeys(DERIVED, 0)
        self.requested_points = 0
        self.returned_points = 0
        self.rtz_calls = 0
        self.rtz_strategy_decided = 0
        self.spans = []
        self.next_span = 0
        self.root_s = 0.0
        self.job = -1
        self._stack = []
        self._patched = []

    # -- installation ---------------------------------------------------------

    def install(self):
        observers = self._observers()
        for idx, (name, module, attr) in enumerate(FUNCTIONS):
            orig = getattr(sys.modules[module], attr)
            self._patch_everywhere(orig, self._timed(idx, orig,
                                                     observers.get(name)))
        base = len(FUNCTIONS)
        for offset, (name, module, cls_name, methods) in enumerate(METHODS):
            cls = getattr(sys.modules[module], cls_name)
            for meth in methods:
                orig = cls.__dict__.get(meth)
                if orig is None:
                    continue
                self._patched.append((cls, meth, orig))
                setattr(cls, meth, self._timed(base + offset, orig, None))
        module, attr = EXPLORE_COUNTER
        orig = getattr(sys.modules[module], attr)
        self._patch_everywhere(orig, self._counted(orig))

    def uninstall(self):
        for owner, attr, orig in reversed(self._patched):
            setattr(owner, attr, orig)
        self._patched.clear()

    def _patch_everywhere(self, orig, wrapper):
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "opalg" and not mod_name.startswith("opalg."):
                continue
            for attr, value in list(vars(module).items()):
                if value is orig:
                    self._patched.append((module, attr, orig))
                    setattr(module, attr, wrapper)

    # -- wrappers -------------------------------------------------------------

    def _timed(self, idx, fn, observe):
        stack = self._stack
        spans = self.spans
        calls = self.calls
        self_s = self.self_s
        clock = time.perf_counter
        tracer = self

        def wrapper(*args, **kwargs):
            sid = tracer.next_span
            tracer.next_span = sid + 1
            parent = stack[-1] if stack else None
            frame = [0.0, sid]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                dur = t1 - t0
                calls[idx] += 1
                self_s[idx] += dur - frame[0]
                if parent is None:
                    tracer.root_s += dur
                else:
                    parent[0] += dur
                if sid < SPAN_CAP:
                    spans.append((sid, -1 if parent is None else parent[1],
                                  idx, tracer.job, t0, t1))
            if observe is not None:
                observe(args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", "wrapper")
        return wrapper

    def _counted(self, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts["rewrite.explored_polys"] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def _observers(self):
        counts = self.counts

        def enumerated(args, kwargs, words):
            counts["words.enumerated"] += len(words)

        def normal_form(args, kwargs, result):
            counts["rewrite.steps"] += len(result[1])

        def reduces_to_zero(args, kwargs, verdict):
            self.rtz_calls += 1
            if not verdict.detail.startswith(_EXPLORED_DETAILS):
                self.rtz_strategy_decided += 1

        def sample_points(args, kwargs, points):
            self.requested_points += kwargs.get("count", args[3] if
                                                len(args) > 3 else 0)
            self.returned_points += len(points)

        def gsb_report(args, kwargs, report):
            counts["gsb.intersections_reduced"] += report.intersections_reduced
            counts["gsb.including_configs"] += report.including_configs

        def cdl_report(args, kwargs, report):
            counts["gsb.words_checked"] += report.words_checked

        def constraints(args, kwargs, system):
            counts["classify.equations"] += len(system.equations)

        def classified(args, kwargs, result):
            counts["classify.components"] += len(result.components)

        return {"words.enumerate_words": enumerated,
                "rewrite.normal_form": normal_form,
                "rewrite.reduces_to_zero": reduces_to_zero,
                "solve.sample_points": sample_points,
                "gsb.gsb_check_truncated": gsb_report,
                "gsb.cdl_direct_sum_check": cdl_report,
                "classify.extract_constraints": constraints,
                "classify.classify": classified}

    # -- results --------------------------------------------------------------

    def metrics(self) -> dict:
        """Per-layer values by metric name; a ratio whose base is zero (the
        layer was never called) reads 0."""
        out = {}
        for idx, name in enumerate(self.names):
            out[f"{name}.calls"] = self.calls[idx]
            out[f"{name}.self_s"] = self.self_s[idx]
        out.update(self.counts)
        out["rewrite.strategy_decided_ratio"] = (
            self.rtz_strategy_decided / self.rtz_calls if self.rtz_calls else 0.0)
        out["solve.sample_points.yield"] = (
            self.returned_points / self.requested_points
            if self.requested_points else 0.0)
        return out

    def write_spans(self, path):
        """Spans as JSON lines: a header naming the layers, then one
        ``[span, parent, layer, job, start, end]`` row per span."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            fh.write(json.dumps({"layers": self.names,
                                 "recorded": len(self.spans),
                                 "dropped": self.next_span - len(self.spans)})
                     + "\n")
            for sid, parent, idx, job, t0, t1 in self.spans:
                fh.write(f"[{sid}, {parent}, {idx}, {job}, {t0!r}, {t1!r}]\n")
