"""Span tracer that wraps sfflab's public functions from outside the package.

Every target is replaced, for the length of a traced pass, in the namespace
of each ``sfflab`` module that binds it (``step_arrays`` lives in both
``sfflab.dynamics`` and ``sfflab.phases``, ``sff_numeric`` in
``sfflab.quantum``, ``sfflab.harness`` and ``sfflab``).  Each call records a
span (id, parent id, layer, key, start, end, counts, error) in memory; a
span's self time is its duration minus the time its child spans cover.
Layers are the package's modules.
"""
from __future__ import annotations

import inspect
import itertools
import sys
import time
from collections import defaultdict

import numpy as np

LAYERS = ("cli", "harness", "quantum", "dynamics", "phases", "orbits", "potts", "util")


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _rows(q) -> int:
    shape = np.shape(q)
    return int(np.prod(shape[:-1])) if len(shape) > 1 else 1


# layer -> {function name: counts(args, kwargs, result) -> dict, or None}
TARGETS = {
    "cli": {"main": None},
    "harness": {"validate_config": None, "run_experiment": None},
    "quantum": {
        "trace_powers": None,
        "build_circuit": None,
        "ensemble_members": None,
        "sff_numeric": None,
        "compare": None,
    },
    "dynamics": {
        "step_arrays": lambda a, k, r: {"elements": np.size(_arg(a, k, 0, "q"))},
        "pair_potential": lambda a, k, r: {"rows": _rows(_arg(a, k, 0, "q"))},
        "estimate_correlation": lambda a, k, r: {"samples": r.samples},
    },
    "phases": {
        "per_bond_variance_table": None,
        "variance_time_average": None,
        "variance_series": None,
        "sample_phase_distribution": None,
        "clt_diagnostics": None,
        "action_difference_identity_check":
            lambda a, k, r: {"eps_points": len(r.converged), "eps_converged": sum(r.converged)},
    },
    "orbits": {
        "enumerate_lattice": lambda a, k, r: {"points": len(r[0])},
        "subsystem_orbits": lambda a, k, r: {"points": sum(o.primitive_period for o in r)},
        "sum_rule_check": None,
        "family_iterator": None,
    },
    "potts": {"scaled_kappa": None},
    "util": {
        "window_average": None,
        "mod1": lambda a, k, r: {"elements": np.size(_arg(a, k, 0, "x"))},
        "run_tasks": None,
    },
}

# span key per call where one function serves two metrics
KEYS = {"sample_phase_distribution": lambda r: f"sample_phase_distribution_{r.mode}"}


class Tracer:
    """Records spans of the wrapped functions while installed."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[tuple] = []
        self._stack: list[int] = []
        self._ids = itertools.count()
        self._patched: list[tuple] = []

    def install(self) -> None:
        modules = [m for n, m in sys.modules.items()
                   if m is not None and (n == "sfflab" or n.startswith("sfflab."))]
        for layer, functions in TARGETS.items():
            home = sys.modules[f"sfflab.{layer}"]
            for name, counts in functions.items():
                original = getattr(home, name)
                wrapper = self._wrap(layer, name, original, counts)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, attr, wrapper)
                            self._patched.append((module, attr, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def _wrap(self, layer, name, fn, counts):
        spans, stack, ids, clock = self.spans, self._stack, self._ids, time.perf_counter
        key_of = KEYS.get(name)

        def enter():
            sid = next(ids)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            return sid, parent

        def leave(sid, parent, t0, key=name, counts=None, error=False):
            spans.append((sid, parent, layer, key, t0, clock(), counts, error))
            stack.pop()

        if inspect.isgeneratorfunction(fn):
            # one span per resume: the work of a lazy iterator happens in next()
            def generator_wrapper(*args, **kwargs):
                it = fn(*args, **kwargs)
                while True:
                    sid, parent = enter()
                    t0 = clock()
                    try:
                        item = next(it)
                    except StopIteration:
                        leave(sid, parent, t0)
                        return
                    except BaseException:
                        leave(sid, parent, t0, error=True)
                        raise
                    leave(sid, parent, t0)
                    yield item

            return generator_wrapper

        def wrapper(*args, **kwargs):
            sid, parent = enter()
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                leave(sid, parent, t0, error=True)
                raise
            leave(sid, parent, t0, key_of(result) if key_of else name,
                  counts(args, kwargs, result) if counts else None)
            return result

        return wrapper

    def summary(self) -> dict:
        """Self time, calls, counts and errors per span key and per layer."""
        covered = defaultdict(float)
        for sid, parent, _, _, t0, t1, _, _ in self.spans:
            if parent >= 0:
                covered[parent] += t1 - t0
        keys: dict = {}
        layers = {layer: {"self_s": 0.0, "calls": 0, "errors": 0} for layer in LAYERS}
        top_level_s = 0.0
        for sid, parent, layer, key, t0, t1, counts, error in self.spans:
            duration = t1 - t0
            self_s = duration - covered[sid]
            entry = keys.setdefault(f"{layer}.{key}", {"self_s": 0.0, "total_s": 0.0, "calls": 0,
                                                       "errors": 0, "durations": []})
            entry["self_s"] += self_s
            entry["total_s"] += duration
            entry["calls"] += 1
            entry["errors"] += error
            entry["durations"].append(duration)
            for name, value in (counts or {}).items():
                entry[name] = entry.get(name, 0) + value
            layers[layer]["self_s"] += self_s
            layers[layer]["calls"] += 1
            layers[layer]["errors"] += error
            if parent < 0:
                top_level_s += duration
        return {"keys": keys, "layers": layers, "top_level_s": top_level_s}

    def write_spans(self, path) -> None:
        """Write the spans as CSV, times relative to the first span start."""
        origin = min((s[4] for s in self.spans), default=0.0)
        with open(path, "w") as f:
            f.write("run_id,span_id,parent_id,layer,name,start_s,end_s,error\n")
            for sid, parent, layer, key, t0, t1, _, error in sorted(self.spans):
                f.write(f"{self.run_id},{sid},{parent},{layer},{key},"
                        f"{t0 - origin:.9f},{t1 - origin:.9f},{int(error)}\n")
