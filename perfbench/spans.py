"""In-memory span tracer installed around the nlbt stage functions.

Wrappers replace module attributes at the names the pipeline looks up at call
time (``nlbt.pipeline.solve_controllability_energy``, ``nlbt.realization.
balanced_input``, ...), so a traced run calls the same ``balance()`` and
``reduce()`` as an untraced one.  A name that no longer exists is recorded as
an absent span instead of failing the run.

Two modes share the wrappers: ``"time"`` records one span (name, start, end,
parent, operation id) per call, ``"memory"`` records each layer's peak
``tracemalloc`` allocation instead.  The memory pass runs separately so that
allocation tracing never distorts the span times.
"""

import importlib
import os
import time
import tracemalloc
import warnings

from scipy.linalg import LinAlgWarning

ROOT = "bench.op"


def _kway_name(args, kwargs):
    k = kwargs.get("k", args[1] if len(args) > 1 else 0)
    return f"energy.kway_k{int(k)}"


def _kway_count(tracer, args, kwargs, result):
    tracer.count("energy.kway_calls", 1)
    tracer.count("energy.kway_unknowns", int(result.size))


def _input_count(tracer, args, kwargs, result):
    tracer.count("realization.input_calls", 1)


def _entries(sys):
    pms = [sys.f, sys.h, *sys.g]
    return sum(W.size for pm in pms for W in pm.terms.values())


def _truncate_count(tracer, args, kwargs, result):
    tracer.count("realization.rom_entries", _entries(result.sys))
    tracer.count("realization.full_entries", _entries(args[0].sys))


def _newton_count(tracer, args, kwargs, result):
    tracer.count("newton_eval.calls", 1)


def _save_count(tracer, args, kwargs, result):
    tracer.count("serialization.bytes", os.path.getsize(args[1]))


# (module, attribute, layer, span name or a function of the call's arguments,
# counter hook run on the result)
WRAPPED = (
    ("nlbt.pipeline", "solve_controllability_energy", "energy", "energy.ctrb", None),
    ("nlbt.pipeline", "solve_observability_energy", "energy", "energy.obsv", None),
    ("nlbt.energy", "solve_kway_transposed", "energy", _kway_name, _kway_count),
    ("nlbt.pipeline", "compute_inod_transform", "inod", "inod.transform", None),
    ("nlbt.pipeline", "scaling_series_for", "scaling", "scaling.series", None),
    ("nlbt.pipeline", "assemble_scaling_coeffs", "scaling", "scaling.series", None),
    ("nlbt.pipeline", "compose_balancing", "kron", "kron.compose", None),
    ("nlbt.pipeline", "inverse_transform_coeffs", "realization", "realization.inverse", None),
    ("nlbt.realization", "balanced_drift", "realization", "realization.drift", None),
    ("nlbt.realization", "balanced_input", "realization", "realization.input", _input_count),
    ("nlbt.realization", "balanced_output", "realization", "realization.output", None),
    ("nlbt.pipeline", "build_rom", "realization", "realization.truncate", _truncate_count),
    ("nlbt.sim", "integrate", "sim", "sim.integrate", None),
    ("nlbt.newton_eval", "eval_balanced_rhs_newton", "newton_eval", "newton_eval", _newton_count),
    ("nlbt", "save_system", "serialization", "serialization.save", _save_count),
    ("nlbt", "load_system", "serialization", "serialization.load", None),
)

LAYERS = ("energy", "inod", "scaling", "kron", "realization", "sim", "newton_eval", "serialization")


class Tracer:
    """Span and counter store for one traced pass; wrappers read ``active``."""

    def __init__(self, mode="time"):
        if mode not in ("time", "memory"):
            raise ValueError(f"unknown trace mode {mode!r}")
        self.mode = mode
        self.active = False
        self.spans = []  # (id, parent, op, name, layer, start, end)
        self.counters = {}
        self.peaks = {}  # layer -> bytes
        self.absent = []
        self.ops = 0
        self._stack = []
        self._next_id = 0
        self._mem = []  # [base, running peak] per open span
        self._op = None
        self._saved = []

    # -- recording ---------------------------------------------------------

    def count(self, name, value):
        self.counters[name] = self.counters.get(name, 0) + value

    def _enter(self, name, layer):
        sid = self._next_id
        self._next_id += 1
        parent = self._stack[-1][0] if self._stack else None
        if self.mode == "memory":
            cur, peak = tracemalloc.get_traced_memory()
            if self._mem:
                self._mem[-1][1] = max(self._mem[-1][1], peak)
            tracemalloc.reset_peak()
            self._mem.append([cur, cur])
        self._stack.append((sid, parent, name, layer, time.perf_counter()))

    def _exit(self):
        end = time.perf_counter()
        sid, parent, name, layer, start = self._stack.pop()
        self.spans.append((sid, parent, self._op, name, layer, start, end))
        if self.mode == "memory":
            _, peak = tracemalloc.get_traced_memory()
            base, running = self._mem.pop()
            top = max(running, peak)
            if layer is not None:
                self.peaks[layer] = max(self.peaks.get(layer, 0), top - base)
            if self._mem:
                self._mem[-1][1] = max(self._mem[-1][1], top)
            tracemalloc.reset_peak()

    def run_op(self, op_id, fn, *args):
        """Call ``fn(*args)`` as one traced operation under the root span."""
        self._op = op_id
        self.active = True
        self._enter(ROOT, None)
        try:
            return fn(*args)
        finally:
            self._exit()
            self.active = False
            self.ops += 1

    def record_rhs(self, seconds):
        self.count("sim.rhs_evals", 1)
        self.count("sim.rhs_s", seconds)

    # -- installation ------------------------------------------------------

    def _wrap(self, fn, layer, name, hook):
        """Span around ``fn``; energy spans also count the LinAlgWarnings raised."""
        tracer = self

        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            tracer._enter(name(args, kwargs) if callable(name) else name, layer)
            try:
                if layer == "energy":
                    with warnings.catch_warnings(record=True) as caught:
                        warnings.simplefilter("always")
                        result = fn(*args, **kwargs)
                    n_warn = sum(issubclass(w.category, LinAlgWarning) for w in caught)
                    tracer.count("energy.linalg_warnings", n_warn)
                else:
                    result = fn(*args, **kwargs)
            finally:
                tracer._exit()
            if hook is not None:
                hook(tracer, args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _wrap_simulate(self, fn):
        """Swap a timing counter in for ``sys.rhs`` while ``fn`` integrates it."""
        tracer = self

        def wrapper(sys, *args, **kwargs):
            if not tracer.active:
                return fn(sys, *args, **kwargs)
            rhs = sys.rhs

            def counted(x, u):
                t0 = time.perf_counter()
                out = rhs(x, u)
                tracer.record_rhs(time.perf_counter() - t0)
                return out

            sys.rhs = counted
            try:
                return fn(sys, *args, **kwargs)
            finally:
                del sys.rhs

        wrapper.__wrapped__ = fn
        return wrapper

    def _replace(self, mod_name, attr, make_wrapper):
        mod = importlib.import_module(mod_name)
        fn = getattr(mod, attr, None)
        if fn is None:
            self.absent.append(f"{mod_name}.{attr}")
            return
        self._saved.append((mod, attr, fn))
        setattr(mod, attr, make_wrapper(fn))

    def install(self):
        """Replace every wrapped name; names that are gone go to ``absent``."""
        if self._saved:
            raise RuntimeError("tracer already installed")
        for mod_name, attr, layer, name, hook in WRAPPED:
            self._replace(mod_name, attr, lambda fn: self._wrap(fn, layer, name, hook))
        self._replace("nlbt.sim", "simulate_system", self._wrap_simulate)

    def uninstall(self):
        for mod, attr, fn in reversed(self._saved):
            setattr(mod, attr, fn)
        self._saved = []

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    # -- reduction ---------------------------------------------------------

    def self_times(self):
        """Per-span self seconds: duration minus its traced children's durations."""
        child = {}
        for sid, parent, _op, _name, _layer, start, end in self.spans:
            if parent is not None:
                child[parent] = child.get(parent, 0.0) + (end - start)
        return [
            (sid, op, name, layer, (end - start) - child.get(sid, 0.0))
            for sid, _parent, op, name, layer, start, end in self.spans
        ]

    def op_durations(self):
        return [end - start for _s, _p, _op, name, _l, start, end in self.spans if name == ROOT]

    def to_json(self):
        return {
            "mode": self.mode,
            "ops": self.ops,
            "absent": self.absent,
            "counters": self.counters,
            "peak_alloc_bytes": self.peaks,
            "spans": [
                {"id": s, "parent": p, "op": op, "name": name, "start": t0, "end": t1}
                for s, p, op, name, _layer, t0, t1 in self.spans
            ],
        }
