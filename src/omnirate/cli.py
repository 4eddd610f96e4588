"""Command-line interface.

Commands (model files per `omnirate.modelfile`; pass '-' to read stdin):

    omnirate psp MODEL [--decimal]
        Critical points, partition chain, minimum sum-rate and an optimal
        rate vector for the whole ground set.

    omnirate truncation-csv MODEL [--prefix I] [--decimal]
        CSV (alpha_lo, alpha_hi, slope, intercept, partition) with one row
        per principal-sequence segment of the first I users, on stdout.
        Evaluating slope*alpha + intercept at the segment ends traces the
        piecewise-linear truncation exactly.

    omnirate so MODEL [--alpha-bar R] [--decimal]
        Complimentary subset selection with the local rate vector.  The
        default bound is the singleton-partition lower bound; an explicit
        --alpha-bar must not exceed the minimum sum-rate (checked after
        solving).

    omnirate verify MODEL
        Cross-checks the parametric sweep against the fixed-point baseline
        and brute-force enumeration (ground sets up to 8 users), plus
        structural property samples, then reports how many submodular
        minimizations the sweep used (one per probe).  Nonzero exit on any
        mismatch.

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
from .model import partition_entropy, validate
from .modelfile import load_model
from .oracle import MAX_ENUM_USERS, brute_dilworth, brute_min_sum_rate, check_achievable
from .par import (extract_psp, fusion_oracle_at, iter_parametric,
                  mda_reference, run_parametric)
from .so import find_complimentary, lower_bound_alpha

EXIT_OK = 0
EXIT_MISMATCH = 1
EXIT_IO = 2
EXIT_VALIDATION = 3
EXIT_CAPACITY = 4


def _fmt(value: Fraction, decimal: bool) -> str:
    if decimal:
        return f"{float(value):.6f}"
    return str(value)


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
    for point, part in zip(psp.critical_points, psp.partitions):
        left = "[" if lower == 0 else "("
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
    for interval, part in state.partition_view:
        slope = Fraction(len(part))
        intercept = partition_entropy(model, part) - len(part) * model.total_entropy
        writer.writerow([
            _fmt(interval.lower, d), _fmt(interval.upper, d),
            _fmt(slope, d), _fmt(intercept, d), str(part),
        ])
    return EXIT_OK


def cmd_so(args) -> int:
    model = _load_validated(args.model)
    override = None
    if args.alpha_bar is not None:
        try:
            override = Fraction(args.alpha_bar)
        except (ValueError, ZeroDivisionError):
            raise DomainError(f"--alpha-bar must be a rational, got {args.alpha_bar!r}")
        _, psp = run_parametric(model)
        if override > psp.min_sum_rate:
            raise DomainError(
                f"--alpha-bar {override} exceeds the minimum sum-rate "
                f"{psp.min_sum_rate}; the bound must satisfy "
                f"alpha_bar <= R_CO(V) for complimentary-subset detection"
            )
    d = args.decimal
    bound = override if override is not None else lower_bound_alpha(model)
    print(f"alpha-bar = {_fmt(bound, d)}")
    plan = find_complimentary(model, override)
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
    if model.size > MAX_ENUM_USERS:
        raise CapacityError(
            f"verify needs brute-force enumeration and is capped at "
            f"{MAX_ENUM_USERS} users, got {model.size}"
        )
    failures = 0

    def check(label: str, ok: bool, detail: str = ""):
        nonlocal failures
        status = "ok" if ok else "FAIL"
        suffix = f"  ({detail})" if detail and not ok else ""
        print(f"{status:4s} {label}{suffix}")
        if not ok:
            failures += 1

    states = list(iter_parametric(model))
    final = states[-1]
    psp = extract_psp(final)
    mda_rate, mda_part, mda_vector = mda_reference(model)
    brute_rate, brute_part = brute_min_sum_rate(model)

    check("sweep vs fixed-point baseline: minimum sum-rate",
          psp.min_sum_rate == mda_rate, f"{psp.min_sum_rate} vs {mda_rate}")
    check("sweep vs fixed-point baseline: finest maximizer",
          psp.finest_maximizer == mda_part)
    check("sweep vs fixed-point baseline: rate vector",
          psp.rates == mda_vector)
    check("sweep vs brute enumeration: minimum sum-rate",
          psp.min_sum_rate == brute_rate, f"{psp.min_sum_rate} vs {brute_rate}")
    check("sweep vs brute enumeration: finest maximizer",
          psp.finest_maximizer == brute_part)
    check("optimal rate vector is achievable",
          check_achievable(model, psp.rates))
    check("optimal rate vector sums to the minimum sum-rate",
          sum(psp.rates, Fraction(0)) == psp.min_sum_rate)

    rng = random.Random(20113)
    top = model.total_entropy
    sample = sorted({top * Fraction(rng.randrange(0, 1001), 1000) for _ in range(10)})
    from .dilworth import coordinate_saturation  # local import to keep CLI deps flat
    for alpha in sample:
        fixed = coordinate_saturation(model, alpha)
        b_value, b_part = brute_dilworth(model, alpha)
        swept = final.table.value_at(alpha)
        check(f"alpha={alpha}: saturation vs brute truncation value",
              fixed.value == b_value, f"{fixed.value} vs {b_value}")
        check(f"alpha={alpha}: saturation vs brute finest minimizer",
              fixed.partition == b_part)
        check(f"alpha={alpha}: sweep state matches fixed-alpha saturation",
              swept.partition == fixed.partition
              and tuple(r.at(alpha) for r in swept.rates) == fixed.rates)

    nesting_ok = True
    strong_ok = True
    for prev, state in zip(states, states[1:]):
        chain = state.last_chain
        for small, big in zip(chain.sets, chain.sets[1:]):
            nesting_ok = nesting_ok and small < big
        pairs = [(chain.alphas[0] / 2, chain.alphas[-1]),
                 (chain.alphas[0], chain.alphas[-1] / 2 + chain.alphas[0] / 2)]
        for lo, hi in pairs:
            if not lo < hi:
                continue
            o_lo = fusion_oracle_at(prev, state.carrier_size, lo)
            o_hi = fusion_oracle_at(prev, state.carrier_size, hi)
            coarse = o_hi.blocks
            x = frozenset({state.carrier_size})
            y = frozenset().union(*coarse)
            if x == y:
                continue
            gap_lo = o_lo.f_tilde(y) - o_lo.f_tilde(x)
            gap_hi = o_hi.f_tilde(y) - o_hi.f_tilde(x)
            strong_ok = strong_ok and gap_lo > gap_hi
    check("minimizer chains are strictly nested", nesting_ok)
    check("fusion gaps shrink strictly as alpha grows", strong_ok)

    sweep_calls = sum(len(state.last_probes) for state in states)
    print(f"submodular minimizations used by the sweep: {sweep_calls}")
    if failures:
        print(f"{failures} check(s) failed")
        return EXIT_MISMATCH
    print("all checks passed")
    return EXIT_OK


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
