"""Acceptance suite: one test per release criterion, all exact.

Each test prints a single ACCEPTANCE line (visible with `pytest -s`); the
test outcome itself is the pass/fail signal under plain `pytest -v`.  The
golden five-user source (ten independent bits a..j) anchors criteria 1-5;
criteria 6-7 run a 200-model seeded corpus with brute-force oracles; and
criterion 8 prints the measured solver-call report.
"""

import csv
import io
import random
import time
from fractions import Fraction

import pytest

from omnirate import (check_achievable, decompose_rates, find_complimentary,
                      lower_bound_alpha, minimize_brute, par, run_parametric)
from omnirate.cli import main
from omnirate.par import extract_psp, iter_parametric
from omnirate.partition import Partition
from omnirate.sfm import minimize_mnp
from omnirate.verify import fusion_gaps, verify_model

from conftest import corpus_models, plan_at, random_alpha
from test_par import EXPECTED_PARTITIONS, EXPECTED_RATES

F = Fraction


def report(n, text):
    print(f"ACCEPTANCE {n}: {text}")


def test_criterion_1_end_to_end_solution(five_user):
    started = time.monotonic()
    _, psp = run_parametric(five_user)
    elapsed = time.monotonic() - started
    assert psp.min_sum_rate == F(13, 2)
    assert psp.rates == (F(9, 2), F(0), F(1, 2), F(1, 2), F(1))
    assert psp.finest_maximizer == Partition([[1, 2, 5], [3], [4]])
    assert psp.critical_points == (F(4), F(6), F(13, 2), F(10))
    assert elapsed < 1.0
    report(1, f"five-user solution exact (R_CO=13/2) in {elapsed:.3f}s -- pass")


def test_criterion_2_segmented_state_goldens(five_user):
    states = {st.carrier_size: st for st in iter_parametric(five_user)}
    for i in (2, 3, 4, 5):
        assert list(states[i].rate_view) == EXPECTED_RATES[i], f"rates after user {i}"
        assert list(states[i].table) == EXPECTED_PARTITIONS[i], \
            f"partitions after user {i}"
    special = states[5].rate_view.value_at(F(27, 4))  # inside (13/2, 7]
    assert str(special[4]) == "-2a + 14"
    report(2, "segmented rate/partition tables match all four golden iterations -- pass")


def test_criterion_3_chain_search_trace(five_user):
    final = None
    for final in iter_parametric(five_user):
        pass
    chain = final.last_chain
    assert chain.sets == (frozenset({5}), frozenset({1, 2, 5}),
                          frozenset({1, 2, 3, 4, 5}))
    assert chain.alphas == (F(6), F(13, 2), F(10))
    assert final.last_probes[0].alpha == F(23, 4)
    report(3, "user-5 chain {5} < {1,2,5} < V at (6, 13/2, 10), first probe 23/4 -- pass")


def test_criterion_4_truncation_csv_turning_points(five_user_path, capsys):
    expected = {
        1: [],
        2: [(F(4), F(2))],
        3: [(F(4), F(0)), (F(8), F(8))],
        4: [(F(4), F(-2)), (F(7), F(7))],
        5: [(F(4), F(-3)), (F(6), F(5)), (F(13, 2), F(13, 2)), (F(10), F(10))],
    }
    for prefix, points in expected.items():
        code = main(["truncation-csv", five_user_path, "--prefix", str(prefix)])
        out = capsys.readouterr().out
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        for alpha, value in points:
            hit = [
                r for r in rows
                if F(r["alpha_lo"]) <= alpha <= F(r["alpha_hi"])
            ]
            assert hit, f"prefix {prefix}: no row near alpha={alpha}"
            for r in hit:
                assert F(r["slope"]) * alpha + F(r["intercept"]) == value, \
                    f"prefix {prefix} at alpha={alpha}"
    report(4, "piecewise-linear truncation reproduces all labelled turning points -- pass")


def test_criterion_5_successive_omniscience(five_user):
    assert lower_bound_alpha(five_user) == F(23, 4)
    plan = find_complimentary(five_user)
    assert plan.subset == frozenset({1, 2})
    assert plan.local_alpha == F(4)
    assert plan.local_rates == (F(2), F(0))
    assert plan.local_min_sum_rate == F(2)

    override = plan_at(five_user, F(25, 4))
    assert override.subset == frozenset({1, 2, 5})
    assert override.local_alpha == F(6)
    assert override.local_rates == (F(4), F(0), F(1))

    total = (F(9, 2), F(0), F(1, 2), F(1, 2), F(1))
    local, residual = decompose_rates(total, plan)
    assert local == (F(2), F(0), F(0), F(0), F(0))
    assert residual == (F(5, 2), F(0), F(1, 2), F(1, 2), F(1))
    assert tuple(l + r for l, r in zip(local, residual)) == total
    report(5, "plans {1,2}@4 and {1,2,5}@6 with exact local vectors and decomposition -- pass")


@pytest.fixture(scope="module")
def corpus():
    return corpus_models(count=200, seed=7151)


def test_criterion_6_oracle_equivalence(corpus):
    started = time.monotonic()
    rng = random.Random(424242)
    mismatches = 0
    for model in corpus:
        # sweep vs baseline vs brute, and saturation vs brute truncation at
        # each alpha, among the rest of `verify`'s checks
        alphas = [random_alpha(rng, model) for _ in range(10)]
        mismatches += len(verify_model(model, alphas).failed)
    elapsed = time.monotonic() - started
    assert mismatches == 0
    assert len(corpus) >= 200
    assert elapsed < 60.0
    report(6, f"{len(corpus)} models, 0 mismatches across sweep/baseline/brute in {elapsed:.1f}s -- pass")


def test_criterion_7_structural_property_suite(corpus):
    rng = random.Random(515151)
    for model in corpus:
        states = list(iter_parametric(model))
        # strict strong map on sampled pairs within each iteration
        for prev, state in zip(states, states[1:]):
            lo = random_alpha(rng, model)
            hi = random_alpha(rng, model)
            if lo == hi:
                continue
            lo, hi = min(lo, hi), max(lo, hi)
            # the new user's singleton against the unions grown block by
            # block, in the order of the partition at hi
            x = frozenset({state.carrier_size})
            grown = set(x)
            pairs = []
            for b in prev.partition_at(hi).blocks:
                grown |= b
                pairs.append((x, frozenset(grown)))
            for gap_lo, gap_hi in fusion_gaps(prev, lo, hi, pairs):
                assert gap_lo > gap_hi, "strict strong map violated"
            # nested minimizer chain
            chain = state.last_chain
            for small, big in zip(chain.sets, chain.sets[1:]):
                assert small < big, "chain not strictly nested"
            assert all(a <= b for a, b in zip(chain.alphas, chain.alphas[1:]))
        # the optimal rate vector is achievable and tight
        psp = extract_psp(states[-1])
        assert check_achievable(model, psp.rates)
        assert sum(psp.rates, F(0)) == psp.min_sum_rate
    report(7, "strong-map strictness, chain nesting and achievability hold corpus-wide -- pass")


def test_criterion_8_complexity_accounting(monkeypatch):
    """Measured solver-call growth report (no numeric pass/fail).

    The breakpoint search is a divide-and-conquer recursion issuing one
    plain submodular minimization per recorded probe (a forced probe runs
    none and records none), not a single parametric solve that shares work
    across probes, so per-user call counts grow with the number of
    breakpoints instead of staying O(1); the table below records the
    observed totals so the claim stays measured rather than asserted.
    The counts are read off the probe record; the sweep's minimize calls
    are counted alongside to confirm one call per recorded probe, and every
    call is checked against both backends.
    """
    calls = []
    real_minimize = par.minimize

    def checked(oracle):
        result = real_minimize(oracle)
        assert result == minimize_brute(oracle) == minimize_mnp(oracle)
        calls.append(oracle)
        return result

    monkeypatch.setattr(par, "minimize", checked)
    rng = random.Random(987)
    lines = ["users  models  sfm calls/run (min/mean/max)  calls per user  probes/user"]
    from conftest import random_bitpool
    for n in range(2, 7):
        totals, per_user, probes = [], [], []
        for _ in range(12):
            model = random_bitpool(rng, max_users=n, max_bits=10)
            while model.size != n:
                model = random_bitpool(rng, max_users=n, max_bits=10)
            calls.clear()
            sweep_calls = sum(len(s.last_probes) for s in iter_parametric(model))
            assert sweep_calls == len(calls)
            totals.append(sweep_calls)
            per_user.append(sweep_calls / n)
            probes.append(sweep_calls / (n - 1))
        lines.append(
            f"{n:5d}  {len(totals):6d}  "
            f"{min(totals):3d} / {sum(totals)/len(totals):5.1f} / {max(totals):3d}"
            f"          {sum(per_user)/len(per_user):5.2f}        "
            f"{sum(probes)/len(probes):5.2f}"
        )
    table = "\n".join(lines)
    print(table)
    print(
        "note: the breakpoint search substitutes divide-and-conquer plain\n"
        "minimizations (one per recorded probe; forced probes run none)\n"
        "for a shared parametric solver, so calls/user grows\n"
        "with the breakpoint count instead of staying near one\n"
        "minimization-equivalent per user; growth is reported, not asserted."
    )
    assert len(lines) == 6
    report(8, "solver-call accounting table emitted (measured, not asserted) -- pass")
