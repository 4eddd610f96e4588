"""Cross-checks of the parametric sweep against the fixed-point baseline, brute
force (so at most `MAX_ENUM_USERS` users) and fixed-alpha saturation, and of
the structure it rests on: nested minimizer chains and the strict strong map."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .dilworth import coordinate_saturation
from .errors import CapacityError
from .model import SourceModel
from .oracle import MAX_ENUM_USERS, brute_dilworth, brute_min_sum_rate, check_achievable
from .par import ParState, extract_psp, fusion_oracle_at, iter_parametric, mda_reference


@dataclass(frozen=True)
class Check:
    """One check: `values` are the two sides it compared, `alpha` the alpha it ran at."""

    label: str
    ok: bool
    values: tuple[Fraction, ...] = ()
    alpha: Fraction | None = None


@dataclass(frozen=True)
class Verification:
    """The checks in order, and the sweep's SFM calls: its recorded probes
    (forced probes issue none and show only in `last_chain`)."""

    checks: tuple[Check, ...]
    sweep_minimizations: int

    @property
    def failed(self) -> tuple[Check, ...]:
        return tuple(c for c in self.checks if not c.ok)


def fusion_gaps(state: ParState, lo, hi, pairs) -> list[tuple[Fraction, Fraction]]:
    """(gap_lo, gap_hi) per pair (X, Y) of block unions holding the next user:
    gap_a = f~(Y) - f~(X) in that user's whole-lattice fusion problem at a.
    The strict strong map: gap_lo > gap_hi whenever lo < hi and X < Y."""
    o_lo, o_hi = fusion_oracle_at(state, lo), fusion_oracle_at(state, hi)
    return [(o_lo.f_tilde(y) - o_lo.f_tilde(x), o_hi.f_tilde(y) - o_hi.f_tilde(x))
            for x, y in pairs]


def verify_model(model: SourceModel, alphas) -> Verification:
    """Every cross-check on `model`, the fixed-alpha ones at each of `alphas`."""
    if model.size > MAX_ENUM_USERS:
        raise CapacityError(f"verify needs brute-force enumeration and is capped at "
                            f"{MAX_ENUM_USERS} users, got {model.size}")
    states = list(iter_parametric(model))
    psp = extract_psp(states[-1])
    rate, finest = psp.min_sum_rate, psp.finest_maximizer
    mda_rate, mda_part, mda_vector = mda_reference(model)
    brute_rate, brute_part = brute_min_sum_rate(model)
    baseline, brute = "sweep vs fixed-point baseline", "sweep vs brute enumeration"
    checks = [
        Check(f"{baseline}: minimum sum-rate", rate == mda_rate, (rate, mda_rate)),
        Check(f"{baseline}: finest maximizer", finest == mda_part),
        Check(f"{baseline}: rate vector", psp.rates == mda_vector),
        Check(f"{brute}: minimum sum-rate", rate == brute_rate, (rate, brute_rate)),
        Check(f"{brute}: finest maximizer", finest == brute_part),
        Check("optimal rate vector is achievable", check_achievable(model, psp.rates)),
        Check("optimal rate vector sums to the minimum sum-rate",
              sum(psp.rates, Fraction(0)) == rate),
    ]
    for alpha in alphas:
        fixed = coordinate_saturation(model, alpha)
        b_value, b_part = brute_dilworth(model, alpha)
        swept = (states[-1].partition_at(alpha), states[-1].rates_at(alpha))
        checks += [
            Check("saturation vs brute truncation value", fixed.value == b_value,
                  (fixed.value, b_value), alpha),
            Check("saturation vs brute finest minimizer", fixed.partition == b_part, (), alpha),
            Check("sweep state matches fixed-alpha saturation",
                  swept == (fixed.partition, fixed.rates), (), alpha),
        ]
    nested = shrinking = True
    for prev, state in zip(states, states[1:]):
        chain = state.last_chain
        nested &= all(s < b for s, b in zip(chain.sets, chain.sets[1:]))
        # the new user's singleton against the whole carrier, at two alpha pairs
        pair = (frozenset({state.carrier_size}), frozenset(state.users))
        first, top = chain.alphas[0], chain.alphas[-1]
        for lo, hi in ((first / 2, top), (first, top / 2 + first / 2)):
            if lo < hi:
                shrinking &= all(g_lo > g_hi for g_lo, g_hi in fusion_gaps(prev, lo, hi, [pair]))
    checks += [Check("minimizer chains are strictly nested", nested),
               Check("fusion gaps shrink strictly as alpha grows", shrinking)]
    return Verification(tuple(checks), sum(len(s.last_probes) for s in states))
