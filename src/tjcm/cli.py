"""Command-line interface: parameter scans, figure presets, verification.

Exit codes: 0 success, 1 usage error, 2 verification failure, 3 resource
refusal.
"""

from __future__ import annotations

import argparse
import os
import sys

from .errors import ResourceRefusalError, TjcmError, UsageError
from .params import DEFAULT_CUTOFF_EPS, ModelParams
from .scan import (
    CHANNEL_NAMES,
    DEFAULT_MAX_ORACLE_DIM,
    PRESET_NAMES,
    ScanConfig,
    run_preset,
    run_scan,
    run_verify,
    write_csv,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VERIFY_FAILED = 2
EXIT_REFUSED = 3


class _Parser(argparse.ArgumentParser):
    """argparse defaults to exit code 2 on bad flags; reserve 2 for
    verification failures and report usage problems as 1."""

    def error(self, message: str) -> None:  # noqa: D401 - argparse hook
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _add_model_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--alpha", type=float, default=5.0, help="coherent amplitude")
    p.add_argument("--g", type=float, default=1.0, help="coupling ratio atom2/atom1")
    p.add_argument("--l", type=int, default=1, help="photons per atomic flip")
    p.add_argument("--cutoff-eps", type=float, default=DEFAULT_CUTOFF_EPS,
                   help="Fock tail mass dropped by the truncation")
    p.add_argument("--tmax", type=float, default=25.0, help="scaled end time")
    p.add_argument("--steps", type=int, default=2500, help="grid points")


def build_parser() -> _Parser:
    parser = _Parser(prog="tjcm", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    scan = sub.add_parser("scan", help="evaluate channels on a time grid")
    _add_model_flags(scan)
    scan.add_argument("--channels", default="inv1,inv2,ey1,ey2",
                      help="comma-separated channel names")
    scan.add_argument("--out", default=None, help="CSV output path (default stdout)")

    preset = sub.add_parser("preset", help="run a frozen figure preset")
    preset.add_argument("name", choices=PRESET_NAMES)
    preset.add_argument("--tmax", type=float, default=None)
    preset.add_argument("--steps", type=int, default=None)
    preset.add_argument("--out", default=None, help="CSV output path (default stdout)")

    verify = sub.add_parser(
        "verify", help="cross-check the analytic pipeline against the RK4 oracle"
    )
    _add_model_flags(verify)
    verify.add_argument("--samples", type=int, default=50,
                        help="number of evenly spaced grid times to compare")
    verify.add_argument("--max-dim", type=int, default=DEFAULT_MAX_ORACLE_DIM,
                        help="refuse oracle runs above this state dimension")
    verify.add_argument("--inject-fault", action="store_true",
                        help=argparse.SUPPRESS)
    return parser


def _check_out(path: str | None) -> None:
    """Refuse an --out path that cannot be written before the run: opening
    it to append truncates no existing file, and a file it creates is
    removed again, so a run that fails leaves none behind."""
    try:
        if path is not None:
            created = not os.path.exists(path)
            open(path, "a", encoding="utf-8").close()
            if created:
                os.remove(path)
    except OSError as exc:
        raise UsageError(f"cannot write {path}: {exc.strerror}") from exc


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else EXIT_OK

    try:
        if args.command == "scan":
            channels = tuple(c.strip() for c in args.channels.split(",") if c.strip())
            cfg = ScanConfig(
                params=ModelParams(alpha=args.alpha, g=args.g, l=args.l,
                                   cutoff_eps=args.cutoff_eps),
                t_max=args.tmax, steps=args.steps, channels=channels,
            )
            _check_out(args.out)
            write_csv(run_scan(cfg), args.out or sys.stdout)
            return EXIT_OK

        if args.command == "preset":
            _check_out(args.out)
            write_csv(run_preset(args.name, t_max=args.tmax, steps=args.steps),
                      args.out or sys.stdout)
            return EXIT_OK

        if args.command == "verify":
            cfg = ScanConfig(
                params=ModelParams(alpha=args.alpha, g=args.g, l=args.l,
                                   cutoff_eps=args.cutoff_eps),
                t_max=args.tmax, steps=args.steps, channels=("inv1",),
            )
            report = run_verify(cfg, args.samples, max_oracle_dim=args.max_dim,
                                inject_fault=args.inject_fault)
            print(report.summary())
            return EXIT_OK if report.passed else EXIT_VERIFY_FAILED
    except BrokenPipeError:
        # The reader closed stdout (tjcm preset fig1 | head -1): stop
        # quietly, and point stdout at devnull so the flush at exit cannot
        # fail again.  The exit status stays 1, as for an uncaught error.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_USAGE
    except ResourceRefusalError as exc:
        print(f"tjcm: refused: {exc}", file=sys.stderr)
        return EXIT_REFUSED
    except TjcmError as exc:
        print(f"tjcm: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    return EXIT_OK


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
