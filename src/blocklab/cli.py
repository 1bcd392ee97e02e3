"""Command-line entry point.

One subcommand per experiment kind plus `validate`.  Exit codes: 0 when
all checks pass, 2 on check violations, 3 on precondition failures.  A
check that asserted nothing (0 instances) prints as VACUOUS, not PASS; it
does not change the exit code.
"""

import argparse
import os
import sys

# OpenBLAS reads this once, when numpy loads it, which is when a run
# starts (harness.run), after this pin; `validate` loads no numpy for most
# kinds.  Every run pins one thread anyway; set here, the idle threads of
# a larger default are never started and do not spin after import.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from .harness import KINDS, load_config, run, validate  # noqa: E402
from .model import PreconditionError  # noqa: E402


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="blocklab",
        description="finite-volume spectral experiments for random block operators")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--config", required=True, help="INI config file")
        p.add_argument("--seed", type=int, default=None,
                       help="override the master seed")
        p.add_argument("--workers", type=int, default=None,
                       help="override the worker count, validated (>= 1) and "
                            "recorded; every run computes in one process")
        p.add_argument("--out", default="out", help="output directory")

    for kind in KINDS:
        add_common(sub.add_parser(kind, help=f"run the {kind} experiment"))
    v = sub.add_parser("validate", help="check a config without computing")
    v.add_argument("--config", required=True)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "validate":
            cfg = load_config(args.config)
            problems = validate(cfg)
            for p in problems:
                print(f"precondition: {p}", file=sys.stderr)
            print("config ok" if not problems else f"{len(problems)} problem(s)")
            return 3 if problems else 0
        cfg = load_config(args.config, kind=args.command, seed=args.seed,
                          workers=args.workers)
    except PreconditionError as e:
        print(f"precondition: {e}", file=sys.stderr)
        return 3
    except OSError as e:
        print(f"cannot read config: {e}", file=sys.stderr)
        return 3

    result = run(cfg, args.out)
    for p in result.diagnostics:
        print(f"precondition: {p}", file=sys.stderr)
    for rep in result.reports:
        status = ("FAIL" if not rep.passed
                  else "VACUOUS" if rep.vacuous else "PASS")
        extra = "" if rep.preconditions_failed == 0 \
            else f" (skipped {rep.preconditions_failed} ineligible)"
        print(f"[{status}] {rep.name}: {rep.instances} instances, "
              f"{rep.violations} violations{extra}")
    print(f"outputs in {args.out} (config {cfg.config_hash()[:12]})")
    return result.exit_code


if __name__ == "__main__":
    sys.exit(main())
