"""Wall-time scaling of the pipeline on synthetic stable systems.

Times each stage (energies, transform, balancing, realization) for a sweep of
state dimensions and reports the log-log growth rate of the total and of each
stage.  Degree-3 energies cost O(n^4) work asymptotically, but at these sizes
a fixed per-call cost dominates the small systems (n = 8 and 16 take a few
milliseconds each), so the measured total slope sits near 2.5, well below 4.

Run:  python demos/06_scaling_bench.py
"""

from nlbt.bench import STAGES, loglog_slope, run_bench


def main():
    sizes = [8, 16, 32, 64, 96]
    rows = run_bench(sizes, d_energy=3, repetitions=3, seed=0)
    print(f"{'n':>4s} {'energy':>9s} {'inod':>9s} {'balance':>9s} {'realize':>9s} {'total':>9s}")
    for r in rows:
        print(f"{r['n']:4d} {r['energy']:9.4f} {r['inod']:9.4f} "
              f"{r['balance']:9.4f} {r['realization']:9.4f} {r['total']:9.4f}")
    slopes = "  ".join(f"{s} {loglog_slope(rows, s):.2f}" for s in STAGES)
    print(f"\nlog-log slope of total time: {loglog_slope(rows):.2f}")
    print(f"per stage: {slopes}")
    print("(small-n fixed cost dominates at these sizes, so the slopes sit well "
          "below the asymptotic n^4 of degree-3 energies)")


if __name__ == "__main__":
    main()
