"""The benchmark's per-layer tracer patches opalg bindings by name; every name
it lists must exist, so renaming or deleting a traced function or method
fails here rather than reading 0 in a traced benchmark run (the tracer skips
a method it cannot find)."""

import os

TRACER = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir,
                      "perfbench", "tracer.py")

# traced names the library no longer defines, one reason each
ALLOWED_MISSING = {
    "opalg.opoly.OPoly.into_context":
        "deleted when contexts became star paths; the benchmark's "
        "opoly.into_context layer is to be retargeted by a benchmark change",
}

# run in a fresh interpreter: the tracer looks modules up in sys.modules, so
# each traced module must be loaded by ``import opalg`` alone
_RESOLVE_JOB = """
import importlib.util, json, sys
spec = importlib.util.spec_from_file_location("opalg_tracer", sys.argv[1])
tracer = importlib.util.module_from_spec(spec)
spec.loader.exec_module(tracer)
import opalg

def missing(module, attr):
    mod = sys.modules.get(module)
    return mod is None or not hasattr(mod, attr)

out = [f"{m}.{a}" for _, m, a in tracer.FUNCTIONS if missing(m, a)]
for _, m, c, methods in tracer.METHODS:
    if missing(m, c):
        out.append(f"{m}.{c}")
        continue
    cls = getattr(sys.modules[m], c)
    out += [f"{m}.{c}.{meth}" for meth in methods if meth not in vars(cls)]
if missing(*tracer.EXPLORE_COUNTER):
    out.append(".".join(tracer.EXPLORE_COUNTER))
print(json.dumps({"missing": out, "functions": len(tracer.FUNCTIONS),
                  "methods": len(tracer.METHODS)}))
"""


def test_traced_bindings_resolve_on_fresh_import(run_job):
    result = run_job(_RESOLVE_JOB, TRACER)
    assert result["functions"] > 0 and result["methods"] > 0
    assert sorted(result["missing"]) == sorted(ALLOWED_MISSING)
