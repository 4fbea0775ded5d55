"""Command-line surface for the balancing pipeline.

Subcommands: ``export``, ``balance``, ``reduce``, ``simulate``, ``compare``,
``bench``.  Trajectories and the bench table are written as CSV with 17
significant digits (:func:`nlbt.sim.save_csv`).  Exit codes: 0 success, 2
hypothesis violation, 3 parse error, 4 resource refusal (a bench size whose
memory estimate is over the fixed 8 GiB budget), 5 contract violation (a
computed transform failed its residual contracts), 6 write error (an output
file could not be written).
"""

import argparse
import json
import sys as _sys

import numpy as np

from . import models
from .bench import loglog_slope, run_bench
from .errors import ContractViolation, HypothesisViolation, ResonanceError, ResourceRefusal
from .pipeline import balance
from .realization import build_rom
from .serialization import (
    FormatError,
    load_balance,
    load_rom,
    load_system,
    save_balance,
    save_rom,
    save_system,
)
from .sim import l2_error, save_csv, signal, simulate_system

EXIT_OK = 0
EXIT_HYPOTHESIS = 2
EXIT_PARSE = 3
EXIT_RESOURCE = 4
EXIT_CONTRACT = 5
EXIT_WRITE = 6


def _load_model_or_file(args):
    if args.model:
        return models.by_name(args.model)
    return load_system(args.file)


def _parse_vector(text):
    return np.array([float(v) for v in text.split(",")], dtype=float)


def _parse_signal(spec, m):
    kind, _, rest = spec.partition(":")
    params = {}
    if rest:
        for item in rest.split(","):
            key, _, val = item.partition("=")
            params[key] = float(val) if key != "seed" else int(val)
    return signal(kind, m=m, **params)


def cmd_export(args):
    sys_obj = models.by_name(args.model)
    save_system(sys_obj, args.out)
    print(f"wrote {args.out}")
    return EXIT_OK


def cmd_balance(args):
    sys_obj = _load_model_or_file(args)
    pl = balance(sys_obj, args.degree)
    save_balance(pl, args.out)
    print(
        f"balanced {args.model or args.file}: degree {pl.d_transf}, "
        f"hankel {np.array2string(pl.hankel, precision=4)}, "
        f"sigma condition {pl.sigma_condition:.3g}"
    )
    return EXIT_OK


def cmd_reduce(args):
    balancing = load_balance(args.artifact)
    d_rom = balancing.d_transf if args.rom_degree is None else args.rom_degree
    x0 = _parse_vector(args.x0) if args.x0 else None
    rom = build_rom(balancing, args.r, d_rom, x0=x0)
    save_rom(rom, args.out)
    print(f"reduced to r={rom.r}, degree {d_rom}; wrote {args.out}")
    return EXIT_OK


def _resolve_simulatable(spec):
    """``model:NAME``, ``file:PATH`` (kps), or ``rom:PATH`` -> (system, rom_or_None)."""
    kind, _, rest = spec.partition(":")
    if kind == "model":
        return models.by_name(rest), None
    if kind == "file":
        return load_system(rest), None
    if kind == "rom":
        rom = load_rom(rest)
        return rom.sys, rom
    raise FormatError(f"unknown source spec {spec!r} (use model:, file:, or rom:)")


def cmd_simulate(args):
    sys_obj, rom = _resolve_simulatable(args.source)
    u = _parse_signal(args.input, sys_obj.m)
    t_span = _parse_vector(args.tspan)
    if args.x0_full and rom is None:
        raise FormatError("--x0-full only applies to rom: sources")
    if rom is not None and args.x0_full:
        x0 = rom.initial_condition(_parse_vector(args.x0_full))
    elif args.x0:
        x0 = _parse_vector(args.x0)
    elif rom is not None:
        x0 = rom.x_r0
    else:
        x0 = np.zeros(sys_obj.n)
    traj = simulate_system(
        sys_obj, x0, u, t_span,
        rel_tol=args.rel_tol, abs_tol=args.abs_tol, n_samples=args.samples,
    )
    traj.to_csv(args.out)
    status = "diverged" if traj.diverged else "ok"
    print(f"simulated {args.source} over {args.tspan}: {status}; wrote {args.out}")
    return EXIT_OK


def cmd_compare(args):
    ref_sys, ref_rom = _resolve_simulatable(args.reference)
    u = _parse_signal(args.input, ref_sys.m)
    t_span = _parse_vector(args.tspan)
    x0_full = _parse_vector(args.x0) if args.x0 else np.zeros(ref_sys.n)
    kw = dict(rel_tol=args.rel_tol, abs_tol=args.abs_tol, n_samples=args.samples)
    ref_traj = simulate_system(ref_sys, x0_full, u, t_span, **kw)
    ref_traj.to_csv(f"{args.out_prefix}_reference.csv")
    summary = {"reference": {"source": args.reference, "diverged": ref_traj.diverged}}
    for idx, spec in enumerate(args.candidate):
        cand_sys, cand_rom = _resolve_simulatable(spec)
        x0 = cand_rom.initial_condition(x0_full) if cand_rom is not None else x0_full
        traj = simulate_system(cand_sys, x0, u, t_span, **kw)
        traj.to_csv(f"{args.out_prefix}_candidate{idx}.csv")
        entry = {"source": spec, "diverged": traj.diverged}
        if not (traj.diverged or ref_traj.diverged):
            p = min(ref_traj.y.shape[1], traj.y.shape[1])
            entry["l2_per_channel"] = [
                l2_error(ref_traj, traj, channel=c) for c in range(p)
            ]
            entry["l2_total"] = float(np.sqrt(np.sum(np.square(entry["l2_per_channel"]))))
            # root-sum-square over the sample grid (the norm commonly quoted
            # for sampled outputs; trapezoid value divided by sqrt(dt))
            entry["l2_discrete_per_channel"] = [
                float(np.sqrt(np.sum((ref_traj.y[:, c] - traj.y[:, c]) ** 2)))
                for c in range(p)
            ]
        summary[f"candidate{idx}"] = entry
    with open(f"{args.out_prefix}_errors.json", "w") as fh:
        json.dump(summary, fh, indent=1)
        fh.write("\n")
    print(json.dumps(summary, indent=1))
    return EXIT_OK


def cmd_bench(args):
    sizes = [int(v) for v in args.sizes.split(",")]
    rows = run_bench(sizes, d_energy=args.degree, repetitions=args.repetitions, seed=args.seed)
    save_csv(args.out, list(rows[0]), [list(row.values()) for row in rows])
    slope = loglog_slope(rows) if len(rows) >= 2 else float("nan")
    print(f"bench over n={sizes}: total-time log-log slope {slope:.2f}; wrote {args.out}")
    return EXIT_OK


def build_parser():
    parser = argparse.ArgumentParser(
        prog="nlbt", description="Nonlinear balanced truncation pipeline"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("export", help="write a zoo model as a kps-1 file")
    p.add_argument("--model", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_export)

    p = sub.add_parser("balance", help="compute the balancing pipeline artifact")
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--model")
    src.add_argument("--file")
    p.add_argument("--degree", type=int, required=True, help="transformation degree")
    p.add_argument("--out", default="balance.json")
    p.set_defaults(func=cmd_balance)

    p = sub.add_parser("reduce", help="truncate a balance artifact to a ROM")
    p.add_argument("--artifact", required=True)
    p.add_argument("-r", type=int, required=True)
    p.add_argument("--rom-degree", type=int, default=None)
    p.add_argument("--x0", default=None, help="full-order initial condition to reduce")
    p.add_argument("--out", default="rom.json")
    p.set_defaults(func=cmd_reduce)

    p = sub.add_parser("simulate", help="integrate a model, kps file, or ROM")
    p.add_argument("source", help="model:NAME | file:PATH | rom:PATH")
    p.add_argument("--x0", default=None)
    p.add_argument("--x0-full", default=None, help="full-order x0, reduced through the ROM map")
    p.add_argument("--input", default="zero")
    p.add_argument("--tspan", default="0,10")
    p.add_argument("--samples", type=int, default=2000)
    p.add_argument("--rel-tol", type=float, default=1e-8)
    p.add_argument("--abs-tol", type=float, default=1e-10)
    p.add_argument("--out", default="trajectory.csv")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("compare", help="simulate a reference and candidates, report L2 errors")
    p.add_argument("--reference", required=True)
    p.add_argument("--candidate", action="append", required=True)
    p.add_argument("--x0", default=None, help="full-order initial condition")
    p.add_argument("--input", default="zero")
    p.add_argument("--tspan", default="0,10")
    p.add_argument("--samples", type=int, default=2000)
    p.add_argument("--rel-tol", type=float, default=1e-8)
    p.add_argument("--abs-tol", type=float, default=1e-10)
    p.add_argument("--out-prefix", default="compare")
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("bench", help="scaling benchmark on synthetic systems")
    p.add_argument("--sizes", default="8,16,32")
    p.add_argument("--degree", type=int, default=3, help="energy-function degree")
    p.add_argument("--repetitions", type=int, default=1)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default="bench.csv")
    p.set_defaults(func=cmd_bench)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (HypothesisViolation, ResonanceError) as exc:
        print(json.dumps({"error": "hypothesis_violation", "reason": str(exc)}), file=_sys.stderr)
        return EXIT_HYPOTHESIS
    except ResourceRefusal as exc:
        print(json.dumps({"error": "resource_refusal", "reason": str(exc)}), file=_sys.stderr)
        return EXIT_RESOURCE
    except ContractViolation as exc:
        print(json.dumps({"error": "contract_violation", "reason": str(exc)}), file=_sys.stderr)
        return EXIT_CONTRACT
    except (FormatError, KeyError, ValueError) as exc:
        # str() of a KeyError is the repr of its message
        reason = exc.args[0] if isinstance(exc, KeyError) and exc.args else str(exc)
        print(json.dumps({"error": "parse_error", "reason": str(reason)}), file=_sys.stderr)
        return EXIT_PARSE
    except OSError as exc:
        # every failed read is a FormatError, so this failed a write (on a flush: no path)
        where = f" '{exc.filename}'" if exc.filename else ""
        reason = f"cannot write{where}: {exc.strerror}"
        print(json.dumps({"error": "write_error", "reason": reason}), file=_sys.stderr)
        return EXIT_WRITE


if __name__ == "__main__":
    raise SystemExit(main())
