"""Criterion-6 pairs: the scaling-bench slopes of two source trees, side by side.

Runs ``run_bench(sizes, d_energy=3, repetitions=3, seed=0)`` for two source
trees in alternating fresh processes (the base tree first in odd pairs), each
with ``OPENBLAS_NUM_THREADS=1``.  For every run, and then as median
[quartiles] per side, it prints the log-log slope of the total and of each
stage (``loglog_slope(rows, column)``) and the total time at the first two
and the last size: t(8), t(16) and t(96) at the default sizes.

One run of the acceptance test reads the slope once, under whatever load the
machine has, and the process that runs first in a back-to-back pair tends to
read lower.  So two trees are compared over alternating pairs like these.

Run from the root of a checkout, with two trees that each hold ``src/nlbt``::

    python tests/criterion6_pairs.py BASE_TREE CHANGE_TREE --pairs 10 [--json PATH]

``--json PATH`` also writes every run's readings, each side's median and
quartiles per reading, and the environment: the Python, numpy and scipy
versions, the BLAS thread variables the runs see and the CPU count.
"""

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
from nlbt.bench import STAGES, loglog_slope  # noqa: E402

SIZES = (8, 16, 32, 64, 96)
CHILD = (
    "import json, sys\n"
    "from nlbt.bench import run_bench\n"
    "sizes = [int(v) for v in sys.argv[1].split(',')]\n"
    "print(json.dumps(run_bench(sizes, d_energy=3, repetitions=3, seed=0)))\n"
)


THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1"}  # what every run sets on top of the caller's


def run_rows(tree, sizes):
    """``run_bench`` rows from a fresh process that imports ``nlbt`` from ``tree/src``."""
    env = dict(os.environ, PYTHONPATH=str(Path(tree) / "src"), **BLAS_ENV)
    proc = subprocess.run(
        [sys.executable, "-c", CHILD, ",".join(map(str, sizes))],
        env=env, check=True, capture_output=True, text=True,
    )
    return json.loads(proc.stdout.splitlines()[-1])


def readings(rows):
    """Slope of the total and of each stage, and the total at the first two and last sizes."""
    out = {f"{column} slope": loglog_slope(rows, column) for column in ("total",) + STAGES}
    for row in (rows[0], rows[1], rows[-1]):
        out[f"t({row['n']}) s"] = row["total"]
    return out


def line(values):
    return "  ".join(f"{name} {v:.4g}" for name, v in values.items())


def compare(base, change, pairs, sizes=SIZES):
    """Readings of ``pairs`` alternating runs per tree, as ``{"base": [...], "change": [...]}``."""
    sides = {"base": [], "change": []}
    for k in range(pairs):
        order = ("base", "change") if k % 2 == 0 else ("change", "base")
        for side in order:
            values = readings(run_rows(base if side == "base" else change, sizes))
            sides[side].append(values)
            print(f"pair {k + 1} {side:>6}: {line(values)}", flush=True)
    return sides


def quartiles(runs):
    """``{name: {"median", "q1", "q3"}}`` over the runs of one side."""
    out = {}
    for name in runs[0]:
        q1, med, q3 = np.percentile([r[name] for r in runs], [25, 50, 75])
        out[name] = {"median": float(med), "q1": float(q1), "q3": float(q3)}
    return out


def summary(runs):
    """``name: median [q1, q3]`` over the runs of one side."""
    return "\n  ".join(
        f"{name} {q['median']:.4g} [{q['q1']:.4g}, {q['q3']:.4g}]"
        for name, q in quartiles(runs).items()
    )


def environment():
    """What the readings depend on besides the trees: versions, BLAS threads, CPUs."""
    import scipy

    env = dict(os.environ, **BLAS_ENV)
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "threads_env": {k: env.get(k) for k in THREAD_VARIABLES},
        "cpu_count": os.cpu_count(),
    }


def write_json(path, args, sizes, sides):
    doc = {
        "base": args.base,
        "change": args.change,
        "pairs": args.pairs,
        "sizes": sizes,
        "environment": environment(),
        "runs": sides,
        "summary": {side: quartiles(runs) for side, runs in sides.items()},
    }
    Path(path).write_text(json.dumps(doc, indent=1) + "\n")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base", help="root of the base tree (holds src/nlbt)")
    parser.add_argument("change", help="root of the changed tree (holds src/nlbt)")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--sizes", default=",".join(map(str, SIZES)))
    parser.add_argument("--json", metavar="PATH", help="also write the runs and medians here")
    args = parser.parse_args(argv)
    sizes = [int(v) for v in args.sizes.split(",")]
    sides = compare(args.base, args.change, args.pairs, sizes)
    for side, runs in sides.items():
        print(f"{side} median [quartiles] over {len(runs)} runs:\n  {summary(runs)}")
    if args.json:
        write_json(args.json, args, sizes, sides)
    return sides


if __name__ == "__main__":
    main()
