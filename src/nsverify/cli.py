"""Command-line entry point.

Subcommands:

* ``run <config>``    execute one scenario file, emit CSV/JSON/summary
* ``suite <name>``    run a named acceptance group (identities, decay, ode,
                      scaling, weakform, all)
* ``profiles``        export the cutoff tables as CSV

Exit codes of ``run``, ``suite`` and ``profiles``: 0 pass, 1 check failure,
2 invalid configuration or argument, 3 resolution guard.

No flag changes a check's tolerance or the resolution guard: they are fixed.

``NSVERIFY_FFT_WORKERS`` sets the FFT thread count, a positive integer; by
default it is 1. Any other value makes ``run`` and ``suite`` exit 2.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .cutoffs import profile_csvs
from .errors import ConfigurationError, DomainError
from .harness import (
    SUITES,
    format_summary_table,
    load_scenario,
    run_scenario,
    run_suite,
)
from .spectral import fft_workers


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nsverify",
        description="pseudospectral Navier-Stokes energy-identity verifier",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="execute a scenario config file")
    run_p.add_argument("config", type=Path)
    run_p.add_argument("--seed", type=int, default=None, help="override the seed")
    run_p.add_argument("--out-dir", type=Path, default=Path("out"))

    suite_p = sub.add_parser("suite", help="run a named acceptance group")
    suite_p.add_argument("name", choices=sorted(SUITES))
    suite_p.add_argument("--out-dir", type=Path, default=Path("out"))

    prof_p = sub.add_parser("profiles", help="emit cutoff profile tables")
    prof_p.add_argument("--alpha", type=float, default=0.1)
    prof_p.add_argument("--out-dir", type=Path, default=Path("out"))
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)

    # validate what the command was given, then create the output directory,
    # all before any integration
    if args.command in ("run", "suite"):
        try:
            fft_workers()
            if args.command == "run":
                cfg = load_scenario(args.config)
                if args.seed is not None:
                    cfg.seed = args.seed
                cfg.validate()
        except (ConfigurationError, OSError) as exc:
            print(f"config error: {exc}", file=sys.stderr)
            return 2
    else:
        try:
            tables = profile_csvs(args.alpha)
        except DomainError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
    out = args.out_dir
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        print(f"error: cannot create the output directory: {exc}", file=sys.stderr)
        return 2

    if args.command == "run":
        result = run_scenario(cfg, out, scenario_name=args.config.stem)
        if result.exit_code in (2, 3):
            print(result.message, file=sys.stderr)
        else:
            print(format_summary_table(result.scenario, result.summaries), end="")
            if result.message:
                print(result.message)
        return result.exit_code

    if args.command == "suite":
        try:
            code, _ = run_suite(args.name, out_dir=out)
        except ConfigurationError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        return code

    for name, text in tables.items():
        (out / name).write_text(text)
    print(f"profile tables written to {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
