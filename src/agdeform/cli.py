"""Command-line driver: runs named verification suites and emits reports.

Subcommands map onto the library modules:

  flow       flow a chart point, or run the flow identity checks
  phi        deformation-family checks (coefficients, nilpotency, invariance)
  torsion    bracket/D identities plus the sampled nonvanishing sweep
  curvature  second-derivative displays and the closed-form kappa component
  reptheory  dimension tables, rank certificates, trace embeddings
  verify     the assembled acceptance suite (--all) or a single-n quick pass

Exit codes: 0 all selected checks pass, 1 some check fails, 2 usage error
or a report that cannot be written (a closed pipe, a full disk).  With
--format json the output is a single object validating against
schemas/report.schema.json; byte-identical across runs with equal flags
(timings are only included under --timings).

`main(argv)` is the in-process API and returns the exit code.  The
`agdeform` console script and `python -m agdeform.cli` call `run()`, which
ends the process without interpreter finalisation (see its docstring).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction

from . import checks
from .curvature import kappa_closed_form
from .deform import build_q, parse_c, phi_i_matrix, phi_prime_matrix
from .exactalg import (
    PoleAtPoint,
    UsageError,
    parse_rational,
    render_rational_function,
)
from .model import Chart, ChartPoint, flow_point


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}")
    return value


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="agdeform",
        description="Exact verification of the deformed almost-Grassmannian structures",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--n", type=int, default=3, help="number of rows n")
        p.add_argument("--format", choices=("json", "text"), default="text")
        p.add_argument("--timings", action="store_true", help="include elapsedMs")

    p_flow = sub.add_parser("flow", help="apply the flow or check its identities")
    common(p_flow)
    p_flow.add_argument("--point", help="chart point, rows separated by ';'")
    p_flow.add_argument("--t", default="1", help="flow time (rational)")
    p_flow.add_argument("--s", help="optional second flow time (rational)")

    p_phi = sub.add_parser("phi", help="deformation-family checks")
    common(p_phi)
    p_phi.add_argument("--emit", choices=("latex", "none"), default="none")

    p_tor = sub.add_parser("torsion", help="torsion identities and density sweep")
    common(p_tor)
    p_tor.add_argument("--seed", type=int, default=0, help="sampling seed")
    p_tor.add_argument("--c", help="deformation parameters c_2..c_n, comma separated")
    p_tor.add_argument("--sindex", type=int, default=2, help="component index s")
    p_tor.add_argument(
        "--sample-balls", type=_positive_int, default=8, help="number of radii 2^-1..2^-k"
    )

    p_curv = sub.add_parser("curvature", help="second derivatives and kappa")
    common(p_curv)
    p_curv.add_argument("--emit", choices=("latex", "none"), default="none")
    p_curv.add_argument("--c", help="deformation parameters c_2..c_n, comma separated")
    p_curv.add_argument("--r", type=int, default=2, help="kappa component index r")

    p_rep = sub.add_parser("reptheory", help="algebraic dimension certificates")
    common(p_rep)
    p_rep.add_argument("--seed", type=int, default=0, help="sampling seed")
    p_rep.add_argument("--check", choices=("surjective",), help="single named check")

    p_verify = sub.add_parser("verify", help="run verification suites")
    common(p_verify)
    p_verify.add_argument("--seed", type=int, default=0, help="sampling seed")
    p_verify.add_argument("--all", action="store_true", help="full acceptance suite")
    p_verify.add_argument(
        "--sample-balls", type=_positive_int, default=8, help="number of radii 2^-1..2^-k"
    )

    return parser


def _emit(args, reports: list[checks.CheckReport], extras: dict, text_lines=()) -> int:
    """Write the reports in args.format and flush stdout; the exit code is
    0 iff every report passes, and 2 if the report cannot be written."""
    reports = checks.sort_reports(reports)
    if args.format == "json":
        payload = {
            "command": args.command,
            "reports": [r.as_dict(args.timings) for r in reports],
        }
        payload.update(extras)
        text = json.dumps(payload, indent=2, sort_keys=True)
    else:
        out = list(text_lines)
        for r in reports:
            line = f"{r.status.upper():4}  {r.check_id}  {r.detail}"
            if r.point is not None:
                line += f"  [point {r.point}]"
            if args.timings:
                line += f"  ({r.elapsed_ms} ms)"
            out.append(line)
        if reports:
            passed = sum(r.status == checks.PASS for r in reports)
            failed = sum(r.status == checks.FAIL for r in reports)
            out.append(f"{len(reports)} checks: {passed} pass, {failed} fail")
        text = "\n".join(out)
    try:
        sys.stdout.write(text + "\n")
        sys.stdout.flush()
    except OSError as exc:
        # The unwritten bytes stay in stdout's buffer, so every later flush
        # would raise again: point the descriptor at /dev/null to drop them.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        sys.stderr.write(f"error: cannot write the report: {exc.strerror}\n")
        return 2
    return 0 if all(r.status == checks.PASS for r in reports) else 1


#: The largest n accepted by the commands that build Phi_c symbolically
#: (phi, torsion, curvature, verify): the slowest of the four at n, after
#: `python -m compileall src`, takes at most the 5.6-7.0 s that first set
#: this bound, and at n + 1 it takes more.  The host's speed drifts by up
#: to 1.6x, so the seconds are read against runs, alternated with these,
#: of the last tree that applied the rule, whose `torsion --n 12` took
#: 4.2-4.7 s.  On a 2-vCPU VM with CPython 3.11.7 (three runs each, every
#: check passing): `torsion --n 12` takes 3.3-3.7 s (30 MiB peak RSS) and
#: `verify --n 12` 2.2-2.6 s (43 MiB); at n = 13 `verify` takes 2.9-3.4 s
#: (49 MiB) but `torsion` 4.1-5.7 s (33 MiB), not clearly within 4.2-4.7 s.
MAX_SYMBOLIC_N = 12
#: The largest n accepted by flow, by the same rule: `flow --n 740` takes
#: 6.5-6.9 s (six runs in two rounds, every check passing, 185 MiB peak
#: RSS) and `flow --n 760` 6.8-8.5 s (194 MiB); in the same rounds
#: `flow --n 480` took 2.8-3.2 s (89 MiB).
MAX_FLOW_N = 740
#: The largest n accepted by reptheory, by the same rule: `reptheory --n 26`
#: takes 5.4-6.4 s (three runs, every check passing, 89 MiB peak RSS; the
#: `--check surjective` form 0.6 s, 75 MiB) and `reptheory --n 27`
#: 6.6-8.0 s.
MAX_REPTHEORY_N = 26


def _require_n(n: int, maximum: int, minimum: int = 2) -> None:
    if n < minimum:
        raise UsageError(f"this command needs n >= {minimum}")
    if n > maximum:
        raise UsageError(f"n must be at most {maximum}")


def _cmd_flow(args) -> int:
    _require_n(args.n, MAX_FLOW_N)
    chart = Chart(args.n)
    if args.point is not None:
        point = ChartPoint.parse(chart, args.point)
        moved = flow_point(point, parse_rational(args.t))
        if args.s is not None:
            moved = flow_point(moved, parse_rational(args.s))
        flowed = moved.format()
        return _emit(args, [], {"flowed": flowed}, [flowed])
    return _emit(args, checks.flow_suite(args.n), {})


def _cmd_phi(args) -> int:
    _require_n(args.n, MAX_SYMBOLIC_N, 3)
    chart = Chart(args.n)
    reports = checks.phi_suite(args.n) + checks.eigen_suite(args.n)
    extras: dict = {}
    if args.emit == "latex":
        latex = True
        expressions = {
            "q": render_rational_function(build_q(chart), latex),
            "phiPrime": phi_prime_matrix(chart).render(latex),
        }
        for i in range(2, chart.n + 1):
            expressions[f"phi{i}"] = phi_i_matrix(chart, i).render(latex)
        extras["expressions"] = expressions
    return _emit(args, reports, extras)


def _cmd_torsion(args) -> int:
    _require_n(args.n, MAX_SYMBOLIC_N, 3)
    if args.c is None:
        c = tuple(Fraction(1) if i == 0 else Fraction(0) for i in range(args.n - 1))
    else:
        c = parse_c(args.c)
    # density_check refuses a request the sweep cannot sample before any
    # check runs, so it goes first.
    density_report, records = checks.density_check(
        args.n, c, args.sindex, args.seed, args.sample_balls
    )
    reports = [density_report] + checks.torsion_suite(args.n) + checks.torsion_zero_suite(args.n)
    extras = {"points": records}
    text_lines = [
        f"sampled {len(records)} points; "
        f"{sum(1 for rec in records if rec['lemmaVerdict'] and not rec['membershipVerdict'])}"
        " satisfy the nonvanishing criterion"
    ]
    return _emit(args, reports, extras, text_lines)


def _cmd_curvature(args) -> int:
    _require_n(args.n, MAX_SYMBOLIC_N, 3)
    chart = Chart(args.n)
    if not (2 <= args.r <= args.n):
        raise UsageError(f"r must be in 2..{args.n}")
    c_values = None if args.c is None else chart.c_substitution(parse_c(args.c))
    kappa = kappa_closed_form(chart, args.r)
    if c_values is not None:
        kappa = kappa.substitute(c_values)
    reports = checks.curvature_suite(args.n)
    kappa_info = {"r": args.r, "text": render_rational_function(kappa)}
    if args.emit == "latex":
        kappa_info["latex"] = render_rational_function(kappa, latex=True)
    text_lines = [f"kappa^111_2'1'{args.r} = {kappa_info['text']}"]
    if args.emit == "latex":
        text_lines.append(f"latex: {kappa_info['latex']}")
    return _emit(args, reports, {"kappa": kappa_info}, text_lines)


def _cmd_reptheory(args) -> int:
    _require_n(args.n, MAX_REPTHEORY_N)
    if args.check == "surjective":
        report = checks.surjective_check(args.n)
        return _emit(args, [report], {"rank": checks.rank_certificate(args.n)})
    reports = checks.reptheory_suite(args.n, args.seed)
    extras = {
        "dimensions": checks.dimension_table(args.n),
        "rank": checks.rank_certificate(args.n),
    }
    return _emit(args, reports, extras)


def _cmd_verify(args) -> int:
    _require_n(args.n, MAX_SYMBOLIC_N)
    if args.all:
        reports = checks.acceptance_suite(args.seed, args.sample_balls)
    else:
        reports = checks.quick_suite(args.n, args.seed)
    return _emit(args, reports, {})


_HANDLERS = {
    "flow": _cmd_flow,
    "phi": _cmd_phi,
    "torsion": _cmd_torsion,
    "curvature": _cmd_curvature,
    "reptheory": _cmd_reptheory,
    "verify": _cmd_verify,
}


def main(argv: list[str] | None = None) -> int:
    """Run one command and return its exit code; never ends the process
    itself, so a caller can go on after it (see `run`)."""
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return _HANDLERS[args.command](args)
    except (UsageError, PoleAtPoint) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2


def run() -> None:
    """The process entry point: run `main`, flush stdout and stderr, and end
    the process at once with main's exit code.

    `os._exit` skips interpreter finalisation, which would only free what
    the process loaded: `atexit` handlers do not run and streams other than
    stdout and stderr are not flushed, so nothing in this package may rely
    on either.  A `SystemExit` (argparse's usage errors, --help) or an
    uncaught exception leaves through the normal interpreter path.  Callers
    that go on after the command, such as tests, call `main` instead.
    """
    code = main()
    sys.stdout.flush()
    sys.stderr.flush()
    os._exit(code)


if __name__ == "__main__":
    run()
