#!/usr/bin/env python3
"""nlbt benchmark: one workload, checked, with end-to-end or per-layer metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload dp5-rom --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with no tracing; ``--trace 1``
runs an untraced window, a traced window and a tracemalloc pass and reports
the per-layer metrics.  Every operation's outputs are checked outside the timed
region.  Human-readable lines come first; the last line of standard output is
one JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
Results, the environment and the trace are also written to ``.perfbench_out/``.
"""

import time

PROCESS_T0 = time.perf_counter()  # set-up is timed from here, before any import

import argparse
import json
import os
import pathlib
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tracemalloc
import traceback

# One BLAS thread unless the caller chose otherwise: on a small shared machine
# a multi-threaded BLAS waits on every core at each call, which makes the
# timings swing with the load of other tenants.  The report records the value.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

from spans import LAYERS, Tracer  # noqa: E402  (imports scipy: after the thread setting)

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

WORKLOAD_NAMES = ("dp5-rom", "wide-n96", "zoo-small")  # defined in workloads.py

# name -> unit; the order is the order printed
END_TO_END = {
    "setup_s": "s",
    "op_s": "s",
    "op_s_p90": "s",
    "rom_s": "s",
    "peak_rss_mb": "MiB",
    "rom_err_y1": "1",
    "rom_err_y2": "1",
    "ok_frac": "1",
}

KWAY_DEGREES = range(3, 9)
TIME_SPANS = (
    "energy.ctrb", "energy.obsv", *(f"energy.kway_k{k}" for k in KWAY_DEGREES),
    "inod.transform", "scaling.series", "kron.compose",
    "realization.inverse", "realization.drift", "realization.input",
    "realization.output", "realization.truncate", "sim.integrate", "newton_eval",
    "serialization.save", "serialization.load",
)
PER_OP_COUNTS = (
    "energy.kway_calls", "energy.kway_unknowns", "energy.linalg_warnings",
    "realization.input_calls", "sim.rhs_evals", "newton_eval.calls",
    "serialization.bytes",
)


def time_metric(span):
    """Metric name of a span's self time: ``newton_eval`` -> ``newton_eval.s``."""
    return f"{span}_s" if "." in span else f"{span}.s"


PER_LAYER = {
    **{time_metric(s): "s" for s in TIME_SPANS},
    **{c: "count" for c in PER_OP_COUNTS},
    "realization.kept_frac": "1",
    "sim.rhs_us": "us",
    **{f"{layer}.peak_alloc_mb": "MiB" for layer in LAYERS},
    "bench.cold_op_s": "s",
    "bench.op_s": "s",
    "bench.traced_op_s": "s",
    "bench.trace_overhead_frac": "1",
    "bench.unattributed_s": "s",
    "bench.accounted_frac": "1",
}

SETUP_REPEATS = 3  # this process plus fresh processes; setup_s is their median


class Measurement:
    """Operation timings and failure counts of one run."""

    def __init__(self):
        self.rom_s = []
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def record(self, wl, i, run_op):
        """Run operation ``i`` through ``run_op``, check it, return its seconds or None."""
        self.attempted += 1
        try:
            t0 = time.perf_counter()
            outcome = run_op(i)
            dt = time.perf_counter() - t0
            problems = wl.check(outcome)
        except Exception:  # an op that raises is a failed op, not a crashed run
            self.failed += 1
            self.problems.append(f"op {i}: {traceback.format_exc(limit=3)}")
            return None
        if problems:
            self.failed += 1
            self.problems.extend(f"op {i}: {p}" for p in problems)
        self.rom_s.append(outcome.rom_s)
        return dt

    def window(self, wl, first, seconds, run_op, min_ops):
        """Run operations from index ``first`` for ``seconds`` (and at least ``min_ops``)."""
        times = []
        start = time.perf_counter()
        i = first
        while time.perf_counter() - start < seconds or len(times) < min_ops:
            dt = self.record(wl, i, run_op)
            i += 1
            if dt is not None:
                times.append(dt)
            elif i - first > 4 * min_ops and not times:
                break  # every op fails: stop instead of spinning
        return i, times

    @property
    def ok_frac(self):
        return 1.0 - self.failed / self.attempted if self.attempted else 0.0


def median(values):
    return float(statistics.median(values)) if values else float("nan")


def git_commit():
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment():
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: blas.get(k) for k in ("name", "version", "openblas configuration")}
    except (TypeError, KeyError):
        blas = None
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "threads_env": {
            k: os.environ.get(k)
            for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
        },
        "cpu_count": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "git_commit": git_commit(),
    }


def setup(workload_cls, seed, workdir):
    """Build the workload and run its cold first op; returns (wl, setup_s, cold_s, m)."""
    wl = workload_cls(seed, workdir)
    m = Measurement()
    t0 = time.perf_counter()
    cold = m.record(wl, 0, wl.op)
    if cold is None:  # the op raised: count the time until it did
        cold = time.perf_counter() - t0
    return wl, (t0 - PROCESS_T0) + cold, cold, m


def fresh_setup(workload, seed):
    """Set-up seconds measured in a fresh process (cold imports and caches)."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--setup-only"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=150)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up process failed:\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def end_to_end(wl, m, setups, ops):
    """The ``--trace 0`` metrics from a finished run."""
    import numpy as np

    return {
        "setup_s": median(setups),
        "op_s": median(ops),
        "op_s_p90": float(np.percentile(ops, 90)) if ops else float("nan"),
        "rom_s": median(m.rom_s),
        # ru_maxrss is KiB on Linux; fresh set-up processes are children, not counted
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "rom_err_y1": median(wl.err_samples[0]),
        "rom_err_y2": median(wl.err_samples[1]),
        "ok_frac": m.ok_frac,
    }


def per_layer(tracer, mem_tracer, cold_s, untraced, traced):
    """The ``--trace 1`` metrics from the traced and memory passes."""
    ops = max(tracer.ops, 1)
    values = {name: 0.0 for name in PER_LAYER}
    unattributed = attributed = 0.0
    for _sid, _op, name, layer, self_s in tracer.self_times():
        if layer is None:
            unattributed += self_s
        else:
            attributed += self_s
            if name in TIME_SPANS:
                values[time_metric(name)] += self_s / ops
    c = tracer.counters
    for name in PER_OP_COUNTS:
        values[name] = c.get(name, 0) / ops
    if c.get("realization.full_entries"):
        values["realization.kept_frac"] = c["realization.rom_entries"] / c["realization.full_entries"]
    if c.get("sim.rhs_evals"):
        values["sim.rhs_us"] = 1e6 * c["sim.rhs_s"] / c["sim.rhs_evals"]
    for layer in LAYERS:
        values[f"{layer}.peak_alloc_mb"] = mem_tracer.peaks.get(layer, 0) / 2.0 ** 20
    op_untraced, op_traced = median(untraced), median(traced)
    values.update({
        "bench.cold_op_s": cold_s,
        "bench.op_s": op_untraced,
        "bench.traced_op_s": op_traced,
        "bench.trace_overhead_frac": (op_traced - op_untraced) / op_untraced,
        "bench.unattributed_s": unattributed / ops,
        "bench.accounted_frac": attributed / sum(tracer.op_durations()),
    })
    return values


def run(args):
    sys.path.insert(0, str(SRC))
    import nlbt

    if pathlib.Path(nlbt.__file__).resolve().parent != (SRC / "nlbt").resolve():
        raise RuntimeError(f"imported nlbt from {nlbt.__file__}, not from {SRC}")
    from workloads import WORKLOADS

    workload_cls = WORKLOADS[args.workload]
    workdir = OUT / f"tmp-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        wl, setup_s, cold_s, m = setup(workload_cls, args.seed, workdir)
        if args.setup_only:
            return {"setup_s": setup_s, "failed": m.failed, "problems": m.problems}, None
        m.rom_s.clear()  # the cold op belongs to set-up
        seconds = float(args.seconds)
        report = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
                  "seconds": seconds, "environment": environment()}
        if args.trace == 0:
            _, samples = m.window(wl, 1, seconds, wl.op, min_ops=3)
            # each ROM simulated after the window counts as one attempted check
            m.attempted += len(wl.sim_targets)
            sim_problems = wl.simulate_roms()
            m.failed += len(sim_problems)
            m.problems.extend(sim_problems)
            setups = [setup_s]
            for _ in range(SETUP_REPEATS - 1):
                m.attempted += 1
                try:
                    sub = fresh_setup(args.workload, args.seed)
                except (RuntimeError, subprocess.TimeoutExpired) as exc:
                    m.failed += 1
                    m.problems.append(f"fresh set-up: {exc}")
                    continue
                setups.append(sub["setup_s"])
                if sub["failed"]:
                    m.failed += 1
                    m.problems.extend(f"fresh set-up: {p}" for p in sub["problems"])
            values = end_to_end(wl, m, setups, samples)
            units = END_TO_END
            report["samples"] = {"op_s": samples, "setup_s": setups, "rom_s": m.rom_s}
        else:
            nxt, untraced = m.window(wl, 1, 0.4 * seconds, wl.op, min_ops=2)
            tracer = Tracer("time")
            with tracer:
                nxt, traced = m.window(
                    wl, nxt, 0.4 * seconds, lambda i: tracer.run_op(i, wl.op, i), min_ops=2
                )
            mem_tracer = Tracer("memory")
            tracemalloc.start()
            try:
                with mem_tracer:
                    for i in range(nxt, nxt + wl.memory_ops):
                        m.record(wl, i, lambda j: mem_tracer.run_op(j, wl.op, j))
            finally:
                tracemalloc.stop()
            values = per_layer(tracer, mem_tracer, cold_s, untraced, traced)
            units = PER_LAYER
            report["trace"] = tracer.to_json()
            report["memory"] = mem_tracer.to_json()
            report["samples"] = {"untraced_op_s": untraced, "traced_op_s": traced}
            if tracer.absent:
                print("absent spans: " + ", ".join(tracer.absent))
        report["problems"] = m.problems
        metrics = {k: {"value": float(values[k]), "unit": u} for k, u in units.items()}
        report["metrics"] = metrics
        result = {"correct": m.failed == 0, "attempted": m.attempted, "failed": m.failed,
                  "metrics": metrics}
        return result, report
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true",
                   help="build the workload, run the cold op, print set-up seconds")
    return p.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "nlbt" / "__init__.py").is_file():
        print(f"perfbench: no nlbt sources under {SRC}; run it from a checkout "
              "of the repository", file=sys.stderr)
        return 2
    result, report = run(args)
    if report is None:
        print(json.dumps(result))
        return 0
    OUT.mkdir(exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT / name).write_text(json.dumps(report, indent=1))
    env = report["environment"]
    print(f"environment: {json.dumps(env)}")
    print(f"workload {args.workload} seed {args.seed}: {result['attempted']} ops attempted, "
          f"{result['failed']} failed (failed_frac "
          f"{result['failed'] / result['attempted']:.3g})")
    for p in report["problems"][:20]:
        print(f"  problem: {p}")
    for key, n in ((k, len(v)) for k, v in report["samples"].items()):
        print(f"  samples {key}: {n}")
    for k, v in result["metrics"].items():
        print(f"  {k:32s} {v['value']:.6g} {v['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
