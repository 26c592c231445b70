"""Command-line front end: ``gen``, ``solve``, and ``bench`` subcommands.

Exit codes: 0 success, 1 internal error (an exception no other code
covers, reported as ``error: internal: ...`` with where it was raised),
2 usage or validation problem, 3 size limit exceeded (brute-force
enumeration or the LP tableau), 4 LP solve failure, reported as
``error: <the check that failed>``.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
import time
import traceback
from pathlib import Path

from .bench import EXACT_SOLVERS, HEURISTICS, run_bench, run_solver, rows_to_csv
from .core import Alphabet
from .errors import CapacityError, FormatError, LpFailureError
from .instances import GeneratorConfig, generate_uniform, parse_instance, serialize_instance
from .lp import build_csp_lp, lp_lower_bound, solve_lp

# Unused here, but perfbench/spans.py wraps them in this namespace.
from .exact import branch_and_bound, brute_force_center  # noqa: F401
from .rounding import algorithm_a, algorithm_b, algorithm_c  # noqa: F401

EXIT_OK = 0
EXIT_INTERNAL = 1
EXIT_USAGE = 2
EXIT_CAPACITY = 3
EXIT_SOLVER = 4


def _int_list(text: str) -> list[int]:
    try:
        return [int(part) for part in text.split(",") if part.strip()]
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a comma-separated int list: {text!r}")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built on first use and shared after."""
    parser = argparse.ArgumentParser(
        prog="closest-string",
        description="Closest string solvers: generate, solve, benchmark.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="write a seeded random instance file")
    gen.add_argument("--m", type=int, required=True, help="number of strings")
    gen.add_argument("--n", type=int, required=True, help="string length")
    gen.add_argument("--alphabet", required=True, help="alphabet characters in order")
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--out", required=True, help="output file path")

    solve = sub.add_parser("solve", help="solve one instance file")
    solve.add_argument(
        "--alg", choices=HEURISTICS + EXACT_SOLVERS, default="c",
        help="rounding heuristic (a, b, c) or exact solver (brute, bnb)",
    )
    solve.add_argument("--theta", type=float, default=0.9)
    solve.add_argument("--retries", type=int, default=8)
    solve.add_argument("--in", dest="infile", required=True, help="instance file")
    solve.add_argument("--format", choices=("text", "json"), default="text")
    solve.add_argument(
        "--time-limit", type=float, default=60.0,
        help="seconds before bnb returns its incumbent uncertified",
    )
    solve.add_argument(
        "--node-limit", type=int, default=2_000_000,
        help="enumeration budget for brute",
    )

    bench = sub.add_parser("bench", help="run seeded benchmark batches")
    bench.add_argument("--m-list", type=_int_list, required=True)
    bench.add_argument("--n-list", type=_int_list, required=True)
    bench.add_argument("--alphabet", required=True)
    bench.add_argument("--batch", type=int, default=3)
    bench.add_argument("--seed", type=int, default=0)
    bench.add_argument(
        "--algs", default="c",
        help="comma list: one of a|b|c plus optionally brute|bnb",
    )
    bench.add_argument("--theta", type=float, default=0.9)
    bench.add_argument("--retries", type=int, default=8)
    bench.add_argument("--time-limit-per-instance", type=float, default=60.0)
    bench.add_argument("--node-limit", type=int, default=2_000_000)
    bench.add_argument("--out", default=None, help="CSV path (default: stdout)")
    return parser


def cmd_gen(args: argparse.Namespace) -> int:
    cfg = GeneratorConfig(
        m=args.m, n=args.n, alphabet=Alphabet.from_string(args.alphabet),
        seed=args.seed,
    )
    inst = generate_uniform(cfg)
    Path(args.out).write_text(serialize_instance(inst), encoding="utf-8")
    return EXIT_OK


def cmd_solve(args: argparse.Namespace) -> int:
    inst = parse_instance(Path(args.infile).read_bytes())
    t0 = time.perf_counter()
    # A heuristic's result carries its root LP. For an exact solver the root
    # is solved here for the report's lp_bound and for the dual string
    # weights bnb prunes with and derives its stop bound from. Neither exact
    # solver needs the LP: over its size limit, lp_bound is None and bnb
    # runs without weights.
    root = None
    if args.alg in EXACT_SOLVERS:
        try:
            root = solve_lp(build_csp_lp(inst))
        except CapacityError:
            pass
    res = run_solver(
        inst, args.alg, args.theta, args.retries, args.time_limit, args.node_limit,
        weights=None if root is None else root.weights,
    )
    if args.alg in HEURISTICS:
        lp_bound, certified = res.lp_bound, res.exact_certified
    else:
        lp_bound = None if root is None else lp_lower_bound(root)
        certified = res.certified
    millis = round((time.perf_counter() - t0) * 1000.0, 3)

    report = {
        "center": res.center.chars,
        "objective": res.center.objective,
        "lp_bound": lp_bound,
        "certified": certified,
        "millis": millis,
    }
    if args.format == "json":
        print(json.dumps(report))
    else:
        print(f"center {report['center']}")
        print(f"objective {report['objective']}")
        print(f"lp_bound {'none' if lp_bound is None else lp_bound}")
        print(f"certified {'true' if report['certified'] else 'false'}")
        print(f"millis {report['millis']}")
    return EXIT_OK


def _split_algs(algs: str) -> tuple[str, str | None]:
    parts = [p.strip() for p in algs.split(",") if p.strip()]
    heuristics = [p for p in parts if p in HEURISTICS]
    exacts = [p for p in parts if p in EXACT_SOLVERS]
    unknown = [p for p in parts if p not in HEURISTICS + EXACT_SOLVERS]
    if unknown:
        raise ValueError(f"unknown algorithm(s): {', '.join(unknown)}")
    if len(heuristics) != 1:
        raise ValueError("--algs needs exactly one of a, b, c")
    if len(exacts) > 1:
        raise ValueError("--algs accepts at most one of brute, bnb")
    return heuristics[0], exacts[0] if exacts else None


def cmd_bench(args: argparse.Namespace) -> int:
    alg, exact = _split_algs(args.algs)
    rows = run_bench(
        m_list=args.m_list,
        n_list=args.n_list,
        alphabet=Alphabet.from_string(args.alphabet),
        batch=args.batch,
        seed=args.seed,
        alg=alg,
        theta=args.theta,
        retries=args.retries,
        exact=exact,
        time_limit=args.time_limit_per_instance,
        node_limit=args.node_limit,
    )
    csv_text = rows_to_csv(rows)
    if args.out:
        Path(args.out).write_text(csv_text, encoding="utf-8")
    else:
        sys.stdout.write(csv_text)
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "gen":
            return cmd_gen(args)
        if args.command == "solve":
            return cmd_solve(args)
        return cmd_bench(args)
    except CapacityError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CAPACITY
    except LpFailureError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    except (FormatError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except Exception as exc:
        # A defect, not bad input: report it and where it was raised, with
        # no traceback.
        frame = traceback.extract_tb(exc.__traceback__)[-1]
        print(
            f"error: internal: {type(exc).__name__}: {exc} "
            f"(at {Path(frame.filename).name}:{frame.lineno} in {frame.name})",
            file=sys.stderr,
        )
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
