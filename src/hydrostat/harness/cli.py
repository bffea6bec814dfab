"""Command-line interface.

    hydrostat run    --config FILE [--snapshot-out PATH]
    hydrostat sweep  --config FILE --out DIR [--plots] [--timing] [--jobs N]
    hydrostat verify --suite {oracles|invariants|bootstrap|all}
    hydrostat fit    --csv FILE --norm NAME

Exit status is 1 when a verify suite fails, and 2, after an "error: ..."
line, when an input is missing or invalid.
"""
from __future__ import annotations

import argparse
import sys

from ..errors import FormatError, HydrostatError, InsufficientData
from ..solvers import run_simulation


def _cmd_run(args) -> int:
    from .config import load_config, sim_config_from_dict
    from .snapshots import load_snapshot, save_snapshot

    cfg = sim_config_from_dict(load_config(args.config))
    rec = run_simulation(cfg)
    if rec.blowup_flag:
        print(f"blowup at t={rec.blowup_time:.6g}: {rec.blowup_reason}")
    else:
        print(
            f"completed t={rec.times[-1]:.6g}: "
            f"l2={rec.samples['l2'][-1]:.9e} h1={rec.samples['h1'][-1]:.9e}"
        )
    if args.snapshot_out:
        if rec.final_state is None:
            print("no final state to snapshot (blowup)", file=sys.stderr)
            return 1
        state = rec.final_state
        save_snapshot(state, args.snapshot_out)
        back = load_snapshot(args.snapshot_out)
        differ = [name for name, a, b in zip(("v1", "v2", "w"), state.components(),
                                             back.components())
                  if (a.parity, a.coeffs.tobytes()) != (b.parity, b.coeffs.tobytes())]
        if back.time != state.time:
            differ.append("time")
        if differ:
            raise FormatError(f"{args.snapshot_out} does not read back bit for bit "
                              f"in {', '.join(differ)}")
        print(f"snapshot written to {args.snapshot_out}")
    return 0


def _cmd_sweep(args) -> int:
    from dataclasses import replace

    from .config import load_config, sweep_config_from_dict
    from .sweep import run_sweep

    cfg = sweep_config_from_dict(load_config(args.config))
    # a flag overrides the config file only when it is given
    flags = {"jobs": args.jobs, "timing": args.timing}
    cfg = replace(cfg, out_dir=args.out,
                  **{k: v for k, v in flags.items() if v is not None})
    result = run_sweep(cfg, write_plots=args.plots)
    print(f"wrote {args.out}/results.csv ({len(result.rows)} rows)")
    for key, (slope, intercept, r2) in sorted(result.fits.items(), key=str):
        print(f"fit {key}: slope={slope:.4f} intercept={intercept:.4f} r2={r2:.5f}")
    if result.blowup_threshold != float("inf"):
        print(f"observed blowup threshold: fit abscissa >= "
              f"{result.blowup_threshold:g}")
    return 0


def _cmd_verify(args) -> int:
    from .verify import run_suite

    results = run_suite(args.suite)
    for r in results:
        print(r.line())
    failed = [r for r in results if not r.passed]
    print(f"{len(results) - len(failed)}/{len(results)} checks passed")
    return 1 if failed else 0


def _cmd_fit(args) -> int:
    from .sweep import fit_rate, parse_csv, rate_groups

    with open(args.csv, encoding="utf-8", newline="") as fh:
        rows = parse_csv(fh.read())
    groups = rate_groups(r for r in rows if r.norm_name == args.norm)
    if not groups:
        raise InsufficientData(f"no rows of norm {args.norm!r} to fit")
    for key, points in sorted(groups.items(), key=str):
        slope, intercept, r2 = fit_rate(points)
        gamma = "" if isinstance(key, str) else f"gamma={key[0]:g} "
        print(f"{gamma}slope={slope:.6f} intercept={intercept:.6f} r2={r2:.6f} "
              f"n={len(points)}")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="hydrostat",
        description="anisotropic-viscosity limit simulations and verification",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one simulation")
    p_run.add_argument("--config", required=True)
    p_run.add_argument("--snapshot-out")
    p_run.set_defaults(fn=_cmd_run)

    p_sweep = sub.add_parser("sweep", help="run a parameter sweep")
    p_sweep.add_argument("--config", required=True)
    p_sweep.add_argument("--out", required=True)
    p_sweep.add_argument("--plots", action="store_true")
    p_sweep.add_argument("--timing", action="store_true", default=None)
    p_sweep.add_argument("--jobs", type=int)
    p_sweep.set_defaults(fn=_cmd_sweep)

    p_verify = sub.add_parser("verify", help="run a verification suite")
    p_verify.add_argument(
        "--suite", required=True,
        choices=("oracles", "invariants", "bootstrap", "all"),
    )
    p_verify.set_defaults(fn=_cmd_verify)

    p_fit = sub.add_parser("fit", help="fit a rate from a sweep CSV")
    p_fit.add_argument("--csv", required=True)
    p_fit.add_argument("--norm", required=True)
    p_fit.set_defaults(fn=_cmd_fit)

    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (HydrostatError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
