"""Maximum-uncertainty weights against a bisection reference.

``ensemble._solve_exponential_weights`` finds q_n proportional to
exp(-b v_n) with sum q_n v_n = target through the dual Newton solver of
``equilibrium``, as the Gibbs state of the one-constant set diag(v).  The
reference here bisects the multiplier b on the mean map, which is strictly
decreasing in b, so it shares no code with the solver.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hs

from seaqt import ensemble as en
from seaqt import equilibrium as eq
from seaqt.errors import TargetInfeasibleError

SETTINGS = settings(max_examples=100, deadline=None, database=None, derandomize=True)
TARGET_TOL = 1e-10   # the solver's contract on the expected value
SUM_TOL = 1e-12
LOG_TOL = 1e-9       # misfit of ln q against a line in v
EDGE = 5e-10         # targets this close to an extreme value are feasible


def reference_weights(values, b):
    x = -b * (values - values.min())
    q = np.exp(x - x.max())
    return q / q.sum()


def bisect_multiplier(values, target):
    """b whose reference weights have mean ``target``, by bisection."""
    def mean(b):
        return float(reference_weights(values, b) @ values)

    lo, hi = -1.0, 1.0
    while mean(lo) < target:
        lo *= 2
    while mean(hi) > target:
        hi *= 2
    while True:
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            return mid
        if mean(mid) > target:
            lo = mid
        else:
            hi = mid


def fitted_multiplier(values, q):
    """Least-squares line ln q = a - b (v - lo) over the nonzero weights:
    returns b and the largest misfit."""
    keep = q > 0
    v = values[keep] - values.min()
    a = np.column_stack([np.ones_like(v), -v])
    coef, *_ = np.linalg.lstsq(a, np.log(q[keep]), rcond=None)
    return float(coef[1]), float(np.abs(a @ coef - np.log(q[keep])).max())


def member_values(seed, n, levels, spread, offset):
    """n values on ``levels`` distinct energies (gaps at least 1e-4 spread),
    both extremes present, the rest repeated at random."""
    rng = np.random.default_rng(seed)
    grid = np.sort(rng.choice(10001, size=levels, replace=False)).astype(float)
    grid = (grid - grid[0]) / (grid[-1] - grid[0])
    pick = rng.integers(0, levels, size=n)
    pick[:2] = [0, levels - 1]
    return offset + spread * grid[rng.permutation(pick)]


@SETTINGS
@given(seed=hs.integers(0, 2**31 - 1), n=hs.integers(2, 200),
       levels=hs.integers(2, 12), log_spread=hs.floats(-4.0, 3.0),
       offset=hs.sampled_from([0.0, -750.0, 1e3]),
       where=hs.sampled_from(["lo_edge", "hi_edge", "interior"]),
       frac=hs.floats(0.01, 0.99))
def test_weights_match_bisection_reference(seed, n, levels, log_spread, offset,
                                           where, frac):
    values = member_values(seed, n, min(levels, n), 10.0 ** log_spread, offset)
    lo, hi = values.min(), values.max()
    target = {"lo_edge": lo + EDGE, "hi_edge": hi - EDGE,
              "interior": lo + frac * (hi - lo)}[where]
    q = en._solve_exponential_weights(values, target)
    assert abs(q.sum() - 1.0) <= SUM_TOL
    assert abs(float(q @ values) - target) <= TARGET_TOL
    b, misfit = fitted_multiplier(values, q)
    assert misfit <= LOG_TOL
    # every multiplier whose reference mean is within the tolerance of the
    # target lies between these two
    b_low = bisect_multiplier(values, target + TARGET_TOL)
    b_high = bisect_multiplier(values, target - TARGET_TOL)
    slack = 1e-9 * abs(b) + 1e-12
    assert b_low - slack <= b <= b_high + slack


@pytest.mark.parametrize("target", [-1.0, 0.0, 1e-13, 1.0 - 1e-13, 1.0, 2.0])
def test_targets_outside_the_open_range_are_infeasible(target):
    with pytest.raises(TargetInfeasibleError):
        en._solve_exponential_weights(np.array([0.0, 0.25, 1.0, 1.0]), target)


def test_infeasible_target_is_named_in_the_callers_values():
    with pytest.raises(TargetInfeasibleError, match=r"target 4\.0 outside the open range \(5, 7\)"):
        en._solve_exponential_weights(np.array([5.0, 6.0, 7.0]), 4.0)


def test_equal_values_take_only_their_own_target():
    values = np.full(5, 0.3)
    assert np.array_equal(en._solve_exponential_weights(values, 0.3), np.full(5, 0.2))
    with pytest.raises(TargetInfeasibleError):
        en._solve_exponential_weights(values, 0.31)


@pytest.mark.parametrize("beta", [1e3, -1e3])
def test_log_partition_function_finite_at_large_exponents(beta):
    # exponent spectrum -beta * (-1, 0, 1): ln Z = |beta| + ln(1 + e^-|beta| + ...)
    constants = eq.constant_set([np.diag([-1.0, 0.0, 1.0])])
    log_z = eq.log_partition_function(constants, eq.MultiplierVector(beta))
    assert log_z == pytest.approx(abs(beta), rel=1e-15)
