"""Per-layer tracing from outside the package.

Module-level functions of ``netpublic`` are wrapped in place while a traced
pass runs, and restored afterwards.  Three things make this less obvious than
``setattr(module, name, wrapper)``:

* ``netpublic.best_response`` on the package is the re-exported *function*,
  which shadows the submodule of the same name, so modules are resolved with
  ``importlib.import_module``.
* ``from .x import f`` binds ``f`` in the importing module too.  Every
  ``netpublic.*`` module attribute that ``is`` the original is patched;
  otherwise calls such as ``verify_nash`` -> ``best_response`` go uncounted.
* A function a later version removes (``_attach_to_core`` is one) is
  recorded as absent and reported as zero; tracing never fails on it.

Wrappers take ``*args, **kwargs``, so they do not depend on any one signature
(the ``mode`` argument, for one, is due to go away).
"""

from __future__ import annotations

import importlib
import sys
from time import perf_counter

NON_EQUILIBRIUM = "NonEquilibrium"

# (module, function) -> per-layer stats reported for it.  "calls", "total_s"
# and "self_s" come from every wrapper; "nonconverged" counts a raised
# NonConvergenceError, "accepted" a non-None return (construct_* return None
# when their template fails), "rejected" a NonEquilibrium report.
LAYERS: dict[tuple[str, str], tuple[str, ...]] = {
    ("best_response", "best_response"): ("calls", "self_s"),
    ("best_response", "find_profitable_deviation"): ("calls", "total_s"),
    ("equilibrium", "verify_nash"): ("calls", "total_s", "rejected"),
    ("equilibrium", "_attach_to_core"): ("calls", "self_s"),
    ("equilibrium", "construct_collaborative"): ("calls", "total_s", "accepted"),
    ("equilibrium", "construct_partially_collaborative"): ("calls", "total_s", "accepted"),
    ("equilibrium", "best_response_dynamics"): ("calls", "total_s", "nonconverged"),
    ("equilibrium", "welfare_max_equilibrium"): ("calls", "total_s"),
    ("equilibrium", "construct_independent"): ("calls", "total_s"),
    ("equilibrium", "contribution_fixed_point"): ("calls", "self_s", "nonconverged"),
    ("equilibrium", "brute_force_equilibria"): ("calls", "total_s"),
    ("model", "utility"): ("calls", "self_s"),
    ("metrics", "welfare"): ("calls", "self_s"),
    ("sweep", "sweep_k"): ("total_s",),
    ("subsidy", "planner"): ("total_s", "self_s"),
    ("cli", "main"): ("self_s",),
    ("cli", "emit_report"): ("self_s",),
}

OVERHEAD_METRIC = "trace.overhead_s"


def metric_names() -> list[str]:
    """Every per-layer metric name, in report order."""
    names = [f"{mod}.{fn}.{stat}" for (mod, fn), stats in LAYERS.items() for stat in stats]
    return names + [OVERHEAD_METRIC]


def unit_of(name: str) -> str:
    return "s" if name.endswith("_s") else "count"


class _Stat:
    __slots__ = ("calls", "total_s", "self_s", "nonconverged", "accepted", "rejected")

    def __init__(self):
        self.calls = self.nonconverged = self.accepted = self.rejected = 0
        self.total_s = self.self_s = 0.0


class Tracer:
    """Wraps the traced functions while active; collects counts and times."""

    def __init__(self):
        self.stats = {key: _Stat() for key in LAYERS}
        self.absent: list[str] = []
        self._child_time: list[float] = []  # one accumulator per open call
        self._patched: list[tuple[object, str, object]] = []
        self._nonconvergence = importlib.import_module("netpublic.equilibrium").NonConvergenceError

    def _wrap(self, key, fn):
        stat = self.stats[key]
        stack = self._child_time
        nonconvergence = self._nonconvergence
        count_accepted = "accepted" in LAYERS[key]
        count_rejected = "rejected" in LAYERS[key]

        def traced(*args, **kwargs):
            stack.append(0.0)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except nonconvergence:
                stat.nonconverged += 1
                raise
            finally:
                dt = perf_counter() - t0
                children = stack.pop()
                stat.calls += 1
                stat.total_s += dt
                stat.self_s += dt - children
                if stack:
                    stack[-1] += dt
            if count_accepted and result is not None:
                stat.accepted += 1
            if count_rejected and getattr(result, "classification", None) == NON_EQUILIBRIUM:
                stat.rejected += 1
            return result

        return traced

    def __enter__(self):
        originals = {}
        for mod_name, fn_name in LAYERS:
            module = importlib.import_module(f"netpublic.{mod_name}")
            fn = getattr(module, fn_name, None)
            if fn is None:
                self.absent.append(f"{mod_name}.{fn_name}")
                continue
            originals[id(fn)] = (fn, self._wrap((mod_name, fn_name), fn))
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == "netpublic" or name.startswith("netpublic."))]
        for module in modules:
            for attr, value in list(vars(module).items()):
                hit = originals.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patched.append((module, attr, value))
                    setattr(module, attr, hit[1])
        return self

    def __exit__(self, *exc):
        for module, attr, value in reversed(self._patched):
            setattr(module, attr, value)
        self._patched.clear()
        return False

    def metrics(self, overhead_s: float) -> dict[str, float]:
        out: dict[str, float] = {}
        for (mod, fn), stats in LAYERS.items():
            stat = self.stats[(mod, fn)]
            for name in stats:
                out[f"{mod}.{fn}.{name}"] = getattr(stat, name)
        out[OVERHEAD_METRIC] = overhead_s
        return out
