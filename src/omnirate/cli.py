"""Command-line interface.

Commands (model files per `omnirate.modelfile`; pass '-' to read stdin):

    omnirate psp MODEL [--decimal]
        Critical points, partition chain, minimum sum-rate and an optimal
        rate vector for the whole ground set.

    omnirate truncation-csv MODEL [--prefix I] [--decimal]
        CSV (alpha_lo, alpha_hi, slope, intercept, partition) with one row
        per segment of the sweep state after the first I users, on stdout.
        The rows lie on the global axis [0, H(V)] and the intercept refers
        to H(V): evaluating slope*alpha + intercept at the segment ends
        traces the piecewise-linear truncation exactly.  For I < n the
        breakpoints are the prefix's own principal-sequence breakpoints
        shifted up by H(V) - H(V_I); `omnirate.par.extract_psp` gives them
        on the prefix's own axis.

    omnirate so MODEL [--alpha-bar R] [--decimal]
        Complimentary subset selection with the local rate vector.  The
        default bound is the singleton-partition lower bound; an explicit
        --alpha-bar must not be negative (checked before solving) and must
        not exceed the minimum sum-rate (checked after solving).

    omnirate verify MODEL
        Prints each check of `omnirate.verify.verify_model` as ok or FAIL:
        the sweep against the fixed-point baseline and brute force (ground
        sets up to 8 users), also at ten seeded alphas, and the chain and
        strong-map structure; then the sweep's submodular minimizations (one
        per probe).  Exit 1 on any failed check.

Exit codes: 0 success; 1 verification mismatch or other solve-time error;
2 I/O problems; 3 parse or validation problems (including a too-large
--alpha-bar); 4 capacity limits.
"""

from __future__ import annotations

import argparse
import csv
import random
import sys
from fractions import Fraction

from .errors import (CapacityError, DomainError, ModelFormatError,
                     OmnirateError)
from .model import as_rational, partition_entropy, validate
from .modelfile import load_model
from .par import iter_parametric, run_parametric
from .so import find_complimentary, lower_bound_alpha, plan_from_state
from .verify import verify_model

EXIT_OK = 0
EXIT_MISMATCH = 1
EXIT_IO = 2
EXIT_VALIDATION = 3
EXIT_CAPACITY = 4


def _fmt(value: Fraction, decimal: bool) -> str:
    """`value` as p/q, or rounded half to even to 6 decimals (a negative value
    keeps its sign); CapacityError past Python's int-to-str digit limit."""
    try:
        if not decimal:
            return str(value)
        whole, frac = divmod(abs(round(value * 10**6)), 10**6)
        return f"{'-' if value < 0 else ''}{whole}.{frac:06d}"
    except ValueError:
        raise CapacityError("a value has more digits than Python's int-to-str "
                            f"limit of {sys.get_int_max_str_digits()}") from None


def _fmt_vector(values, decimal: bool) -> str:
    return "(" + ", ".join(_fmt(v, decimal) for v in values) + ")"


def _load_validated(path: str):
    model = load_model(path)
    violations = validate(model)
    if violations:
        for v in violations:
            print(f"validation: {v}", file=sys.stderr)
        raise DomainError(f"model fails validation with {len(violations)} violation(s)")
    return model


def cmd_psp(args) -> int:
    model = _load_validated(args.model)
    _, psp = run_parametric(model)
    d = args.decimal
    print(f"users: {model.size}")
    print(f"H(V) = {_fmt(model.total_entropy, d)}")
    print("critical points: " + ", ".join(_fmt(c, d) for c in psp.critical_points))
    print("principal sequence of partitions:")
    lower = Fraction(0)
    for k, (point, part) in enumerate(zip(psp.critical_points, psp.partitions)):
        left = "(" if k else "["
        print(f"  {left}{_fmt(lower, d)}, {_fmt(point, d)}]  {part}")
        lower = point
    print(f"R_CO = {_fmt(psp.min_sum_rate, d)}")
    print(f"finest maximizer: {psp.finest_maximizer}")
    print(f"optimal rate vector: {_fmt_vector(psp.rates, d)}")
    return EXIT_OK


def cmd_truncation_csv(args) -> int:
    model = _load_validated(args.model)
    prefix = args.prefix if args.prefix is not None else model.size
    if not 1 <= prefix <= model.size:
        raise DomainError(f"--prefix must be in 1..{model.size}, got {prefix}")
    state = None
    for state in iter_parametric(model):
        if state.carrier_size == prefix:
            break
    writer = csv.writer(sys.stdout, lineterminator="\n")
    writer.writerow(["alpha_lo", "alpha_hi", "slope", "intercept", "partition"])
    d = args.decimal
    for lower, upper, part in state.table:
        slope = Fraction(len(part))
        intercept = partition_entropy(model, part) - len(part) * model.total_entropy
        writer.writerow([
            _fmt(lower, d), _fmt(upper, d),
            _fmt(slope, d), _fmt(intercept, d), str(part),
        ])
    return EXIT_OK


def cmd_so(args) -> int:
    model = _load_validated(args.model)
    d = args.decimal
    if args.alpha_bar is None:
        print(f"alpha-bar = {_fmt(lower_bound_alpha(model), d)}")
        plan = find_complimentary(model)
    else:
        override = as_rational(args.alpha_bar)
        if override < 0:
            raise DomainError(f"alpha_bar {args.alpha_bar} outside "
                              f"[0, {_fmt(model.total_entropy, False)}]")
        state, psp = run_parametric(model)
        if override > psp.min_sum_rate:
            raise DomainError(
                f"--alpha-bar {args.alpha_bar} exceeds the minimum sum-rate "
                f"{_fmt(psp.min_sum_rate, False)}; the bound must satisfy "
                f"alpha_bar <= R_CO(V) for complimentary-subset detection"
            )
        print(f"alpha-bar = {_fmt(override, d)}")
        plan = plan_from_state(state, override)
    if plan is None:
        print("no complimentary subset")
        return EXIT_OK
    subset = "{" + ",".join(str(u) for u in plan.local_users) + "}"
    print(f"complimentary subset: {subset}")
    print(f"found at iteration: {plan.found_at_iteration}")
    print(f"alpha_C = {_fmt(plan.local_alpha, d)}")
    print(f"local rate vector: {_fmt_vector(plan.local_rates, d)}")
    print(f"R_CO({subset}) = {_fmt(plan.local_min_sum_rate, d)}")
    return EXIT_OK


def cmd_verify(args) -> int:
    model = _load_validated(args.model)
    rng = random.Random(20113)
    sample = {model.total_entropy * Fraction(rng.randrange(0, 1001), 1000) for _ in range(10)}
    result = verify_model(model, sorted(sample))
    for check in result.checks:
        at = "" if check.alpha is None else f"alpha={_fmt(check.alpha, False)}: "
        failed = check.values and not check.ok
        suffix = f"  ({' vs '.join(_fmt(v, False) for v in check.values)})" if failed else ""
        print(f"{'ok' if check.ok else 'FAIL':4s} {at}{check.label}{suffix}")
    print(f"submodular minimizations used by the sweep: {result.sweep_minimizations}")
    failures = len(result.failed)
    print(f"{failures} check(s) failed" if failures else "all checks passed")
    return EXIT_MISMATCH if failures else EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="omnirate",
        description="Exact minimum sum-rate and rate vectors for "
                    "communication for omniscience.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_psp = sub.add_parser("psp", help="principal sequence of partitions and sum-rate solution")
    p_psp.add_argument("model", help="model file path, or - for stdin")
    p_psp.add_argument("--decimal", action="store_true",
                       help="render rationals as 6-digit decimals instead of p/q")
    p_psp.set_defaults(func=cmd_psp)

    p_csv = sub.add_parser("truncation-csv", help="piecewise-linear truncation segments as CSV")
    p_csv.add_argument("model", help="model file path, or - for stdin")
    p_csv.add_argument("--prefix", type=int, default=None,
                       help="restrict to the first I users (default: all)")
    p_csv.add_argument("--decimal", action="store_true",
                       help="render rationals as 6-digit decimals instead of p/q")
    p_csv.set_defaults(func=cmd_truncation_csv)

    p_so = sub.add_parser("so", help="complimentary subset and local rate vector")
    p_so.add_argument("model", help="model file path, or - for stdin")
    p_so.add_argument("--alpha-bar", default=None,
                      help="override the sum-rate lower bound (rational, e.g. 25/4)")
    p_so.add_argument("--decimal", action="store_true",
                      help="render rationals as 6-digit decimals instead of p/q")
    p_so.set_defaults(func=cmd_so)

    p_verify = sub.add_parser("verify", help="cross-check all solvers on one model")
    p_verify.add_argument("model", help="model file path, or - for stdin")
    p_verify.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except (ModelFormatError, DomainError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except CapacityError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CAPACITY
    except OmnirateError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_MISMATCH


if __name__ == "__main__":
    sys.exit(main())
