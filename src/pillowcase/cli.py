"""Command-line front end.

Subcommands: sublattices, series, correlators, potential, verify.  Exit
codes: 0 on success, 1 when a verification finds a counterexample, 2 on
usage errors, 141 (the status of a process killed by SIGPIPE) when the
reader closes stdout early, as `| head` does.  Output depends on the
arguments alone: no env variable is read.

A process run (`python -m pillowcase.cli` or the `pillowcase` script) goes
through `run`: once `main` has flushed its output, it freezes the garbage
collector before exiting.  Freezing moves every object still alive into the
permanent generation, which the collections at interpreter shutdown skip;
the final flush of the std streams, atexit handlers and module teardown
still run.  That saves 7-11 ms of CPU in a job of 60-101 ms (medians of
40 paired fresh processes per job on a 2-core Xeon).  `main` itself never
touches the collector, so tests, the tracer and any in-process caller keep
a normal one.
"""

from __future__ import annotations

import argparse
import gc
import os
import sys

# `sublattices` runs `lattice`; `qseries` is imported here because
# SERIES_BUILDERS holds its functions for argparse, the tests and the tracer.
# Every other module is imported by the one subcommand that uses it, so a
# run loads only the code it runs.
from . import lattice, qseries

DEFAULT_TRUNC = 20
DEFAULT_DEGREE_CAP = 10_000

SERIES_BUILDERS = {
    "f": qseries.f_series,
    "f0": qseries.f0_series,
    "f1": qseries.f1_series,
    "f2": qseries.f2_series,
    "Dodd": qseries.divisor_series_odd,
    "Deven": qseries.divisor_series_even,
    "D4": lambda n: qseries.substitute_power(qseries.divisor_series(n), 4),
}


# verify's suites in run order: the name of the `oracle` constant that is
# the largest degree each covers, and the name of its check over d = 1..n.
# Both are looked up on `oracle` when the suite runs, so the limits live
# only there and a patched or wrapped check is the one that runs.
VERIFY_SUITES = {
    "oracle": ("SL2_EXHAUSTIVE_MAX", "orbit_agreement_check"),
    "parity": ("PARITY_EXHAUSTIVE_MAX", "image_table_check"),
    "rh": ("RH_EXHAUSTIVE_MAX", "rh_uniqueness_check"),
    "lumpsum": ("DIVISOR_SUM_MAX", "lumpsum_check"),
    "closedform": ("DIVISOR_SUM_MAX", "correlator_crosscheck"),
}


def _dump(obj) -> str:
    import json

    return json.dumps(obj, sort_keys=True)


def _print_coeffs(coeffs: list[str], fmt: str, header: str, first: int) -> None:
    # csv or pretty rows from q^first on of `qseries.to_json` strings; json is per subcommand.
    if fmt == "pretty":
        print(header)
    for deg, c in enumerate(coeffs[first:], first):
        print(f"{deg},{c}" if fmt == "csv" else f"q^{deg}: {c}")


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_sublattices(args) -> int:
    lats = lattice.enumerate_sublattices(args.degree)
    s1 = lattice.sigma1(args.degree)
    if args.format == "json":
        print(
            _dump(
                {
                    "degree": args.degree,
                    "count": len(lats),
                    "sigma1": s1,
                    "sublattices": [lat.to_json() for lat in lats],
                }
            )
        )
    else:
        sep = "," if args.format == "csv" else " "
        if args.format == "pretty":
            print("h m g d")
        for lat in lats:
            print(sep.join(str(v) for v in (lat.h, lat.m, lat.g, lat.d)))
        print(f"count={len(lats)} sigma1={s1}")
    return 0


def cmd_series(args) -> int:
    written = qseries.to_json(SERIES_BUILDERS[args.which](args.max_degree))
    if args.format == "json":
        print(_dump(written))
    else:
        header = f"{args.which}, truncated at q^{written['trunc']}"
        _print_coeffs(written["coeffs"], args.format, header, 0)
    return 0


def cmd_correlators(args) -> int:
    from . import orbi

    coeffs = qseries.to_json(orbi.correlator_series(args.insertions, args.max_degree))["coeffs"]
    labels = [int(p) for p in args.insertions]
    if args.format == "json":
        records = [
            {"insertions": labels, "degree": d, "count": int(c)}
            for d, c in enumerate(coeffs[1:], 1)
        ]
        print(_dump(records))
    else:
        _print_coeffs(coeffs, args.format, "insertions: " + ",".join(str(v) for v in labels), 1)
    return 0


def cmd_potential(args) -> int:
    from . import potential

    assembled = potential.assemble_potential(args.max_degree)
    if args.compare_st:
        reference = potential.st_reference_potential(args.max_degree)
        diffs = potential.compare_potentials(assembled, reference)
        if args.format == "json":
            print(_dump({"match": not diffs, "diffs": [_diff_json(diff) for diff in diffs]}))
        elif not diffs:
            print("MATCH")
        else:
            for diff in diffs:
                where = "log_term" if diff.monomial is None else str(diff.monomial)
                deg = "-" if diff.degree is None else f"q^{diff.degree}"
                print(f"MISMATCH {where} {deg}: {diff.lhs} != {diff.rhs}")
        return 1 if diffs else 0
    if args.format == "json":
        print(_dump(potential.potential_to_json(assembled)))
    elif args.format == "csv":
        print(f"log_term,{assembled.log_term}")
        for mono, series in assembled.terms.items():
            exps = ",".join(str(e) for e in mono.exponents)
            for deg, c in enumerate(qseries.to_json(series)["coeffs"]):
                print(f"{exps},{deg},{c}")
    else:
        print(potential.potential_pretty(assembled))
    return 0


def _diff_json(diff) -> dict:
    return {
        "monomial": None if diff.monomial is None else list(diff.monomial.exponents),
        "degree": diff.degree,
        "lhs": str(diff.lhs),
        "rhs": str(diff.rhs),
    }


def cmd_verify(args) -> int:
    from . import oracle

    suites = VERIFY_SUITES if args.suite == "all" else {args.suite: VERIFY_SUITES[args.suite]}
    records = []
    for suite, (limit, check) in suites.items():
        n = min(args.max_degree, getattr(oracle, limit))
        label = f"{suite} (d <= {n})"
        result = getattr(oracle, check)(n)
        verdict = "PASS" if result.ok else "FAIL"
        records.append(
            {
                "suite": suite,
                "label": label,
                "ok": result.ok,
                "details": result.details,
                "counterexample": result.counterexample,
            }
        )
        if args.format == "csv":
            print(f"{label},{verdict}")
        elif args.format == "pretty":
            print(f"{verdict} {label}")
            if not result.ok:
                print(_dump(result.counterexample))
    if args.format == "json":
        print(_dump(records))
    return 0 if all(record["ok"] for record in records) else 1


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """Usage errors as one `error: ...` line, exit code 2; subparsers inherit it."""

    def error(self, message):
        self.exit(2, f"error: {message}\n")


def _insertions(text: str) -> tuple:
    # argparse type of --insertions: the core's label rule decides what a corner is.
    from . import orbi

    try:
        return orbi._as_points(int(part) for part in text.split(","))
    except ValueError:
        message = f"need 4 comma-separated insertions 1..4, got {text!r}"
        raise argparse.ArgumentTypeError(message) from None


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="pillowcase",
        description="Exact sublattice counts, q-series and the potential of the pillowcase.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_command(name, run, summary, flag="--max-degree", minimum=1, required=False):
        # A subcommand with the options they all share: the degree option and the
        # bounds main() holds it to (>= minimum, <= the cap), so a typo cannot start
        # an enormous enumeration by accident, and the output format.
        p = sub.add_parser(name, help=summary)
        default = {"required": True} if required else {"default": DEFAULT_TRUNC}
        option = p.add_argument(flag, type=int, **default)
        p.add_argument("--degree-cap", type=int, default=DEFAULT_DEGREE_CAP)
        p.add_argument("--format", choices=("json", "csv", "pretty"), default="pretty")
        p.set_defaults(run=run, degree_option=option, degree_minimum=minimum)
        return p

    add_command(
        "sublattices", cmd_sublattices, "list the index-d sublattices", "--degree", required=True
    )
    p = add_command("series", cmd_series, "print one of the named q-series", minimum=0)
    p.add_argument("--which", choices=tuple(SERIES_BUILDERS), required=True)
    p = add_command("correlators", cmd_correlators, "four-point counts for one insertion tuple")
    p.add_argument("--insertions", type=_insertions, required=True, metavar="I,J,K,L")
    p = add_command("potential", cmd_potential, "assemble the potential from the counts")
    p.add_argument(
        "--compare-st",
        action="store_true",
        help="diff the assembled potential against the closed form",
    )
    p = add_command("verify", cmd_verify, "run the brute-force cross-checks")
    p.add_argument("--suite", choices=(*VERIFY_SUITES, "all"), default="all")

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        flag = args.degree_option.option_strings[0]
        degree = getattr(args, args.degree_option.dest)
        if degree < args.degree_minimum:
            parser.error(f"{flag} must be >= {args.degree_minimum}, got {degree}")
        if degree > args.degree_cap:
            parser.error(f"{flag} {degree} exceeds the cap {args.degree_cap}; raise --degree-cap")
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        code = args.run(args)
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader is gone.  Point fd 1 at devnull so the interpreter's own
        # flush at exit cannot fail again, and stop without a traceback.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 141
    return code


def run() -> None:
    """Process entry point: exit with `main`'s code, skipping the shutdown collections."""
    code = main()
    gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    run()
