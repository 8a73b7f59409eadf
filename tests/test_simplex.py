"""Tests for the phase-one simplex feasibility routine.

scipy's linprog serves as an independent oracle here; the package itself
never imports scipy.
"""

import numpy as np
import pytest
from scipy.optimize import linprog

from spikec.errors import DimensionError
from spikec.simplex import TOL, feasible


def scipy_feasible(A, b, lo, hi):
    res = linprog(
        np.zeros(A.shape[1]),
        A_ub=A,
        b_ub=b,
        bounds=list(zip(lo, hi)),
        method="highs",
    )
    return res.status == 0


def test_trivially_feasible_box():
    A = np.zeros((0, 2))
    assert feasible(A, np.zeros(0), [-1, -1], [1, 1])


def test_simple_halfplane():
    assert feasible([[1.0, 1.0]], [0.0], [-1, -1], [1, 1])
    assert not feasible([[1.0, 1.0]], [-5.0], [-1, -1], [1, 1])


def test_point_box():
    assert feasible([[1.0]], [0.5], [0.5], [0.5])
    assert not feasible([[1.0]], [0.4], [0.5], [0.5])


def test_empty_box_infeasible():
    assert not feasible([[1.0]], [10.0], [1.0], [0.0])


def test_agrees_with_scipy_on_random_systems():
    rng = np.random.default_rng(314)
    for _ in range(300):
        n = int(rng.integers(1, 5))
        m = int(rng.integers(1, 9))
        A = rng.uniform(-2, 2, (m, n))
        b = rng.uniform(-1.5, 1.5, m)
        lo = rng.uniform(-2, 0, n)
        hi = lo + rng.uniform(0.1, 3, n)
        assert feasible(A, b, lo, hi) == scipy_feasible(A, b, lo, hi)


def test_agrees_with_scipy_on_tight_systems():
    # Constraints that pin the solution to edges and corners of the box.
    rng = np.random.default_rng(2718)
    for _ in range(200):
        n = int(rng.integers(1, 4))
        x0 = rng.uniform(-1, 1, n)
        m = int(rng.integers(1, 6))
        A = rng.uniform(-2, 2, (m, n))
        # Half the rows are tight at x0, half are offset either way.
        slack = rng.choice([0.0, 0.2, -0.2], size=m)
        b = A @ x0 + slack
        lo, hi = -np.ones(n), np.ones(n)
        assert feasible(A, b, lo, hi) == scipy_feasible(A, b, lo, hi)


def test_agrees_with_scipy_at_region_scale():
    # Systems the size of a region's: 8-10 variables and 10-20 rows, so the
    # simplex takes many pivots.  Feasible systems have a planted witness
    # with slack at least MARGIN in every row and inside the box; infeasible
    # ones violate a positive combination of their rows by MARGIN.
    margin = 1e-3
    rng = np.random.default_rng(1618)
    truth = []
    for i in range(200):
        n = int(rng.integers(8, 11))
        m = int(rng.integers(10, 21))
        lo = rng.uniform(-4, 0, n)
        hi = lo + rng.uniform(0.5, 6, n)
        x0 = rng.uniform(lo + margin, hi - margin)
        A = rng.uniform(-2, 2, (m, n))
        b = A @ x0 + margin + rng.exponential(0.3, m) * (rng.random(m) < 0.7)
        if i % 2:
            y = rng.exponential(1.0, m - 1) * (rng.random(m - 1) < 0.5)
            y[0] += 0.5
            A[-1] = -y @ A[:-1]
            b[-1] = -y @ b[:-1] - margin
        want = not i % 2
        assert feasible(A, b, lo, hi) == want
        assert scipy_feasible(A, b, lo, hi) == want
        truth.append(want)
    assert sum(truth) == 100


# ---------------------------------------------------------------------------
# Special cases against an independent phase-one loop
# ---------------------------------------------------------------------------


def feasible_reference(A, b, lo, hi):
    """An independent phase-one loop, as feasible decides one system: full
    artificial columns, reduced costs recomputed from the basis every
    pivot."""
    A = np.atleast_2d(np.asarray(A, dtype=float))
    b = np.atleast_1d(np.asarray(b, dtype=float))
    lo = np.atleast_1d(np.asarray(lo, dtype=float))
    hi = np.atleast_1d(np.asarray(hi, dtype=float))
    m, n = A.shape
    if np.any(hi < lo):
        return False
    u = hi - lo
    rows = np.vstack([A, np.eye(n)])
    rhs = np.concatenate([b - A @ lo, u])
    mt = rows.shape[0]
    neg = rhs < 0
    rows = np.where(neg[:, None], -rows, rows)
    slack_sign = np.where(neg, -1.0, 1.0)
    rhs = np.abs(rhs)
    art_rows = np.nonzero(neg)[0]
    k = art_rows.size
    if k == 0:
        return True
    ncols = n + mt + k
    T = np.zeros((mt, ncols + 1))
    T[:, :n] = rows
    T[np.arange(mt), n + np.arange(mt)] = slack_sign
    T[art_rows, n + mt + np.arange(k)] = 1.0
    T[:, -1] = rhs
    basis = n + np.arange(mt)
    basis[art_rows] = n + mt + np.arange(k)
    cost = np.zeros(ncols)
    cost[n + mt :] = 1.0
    for _ in range(200 * (ncols + 1)):
        red = cost[basis] @ T[:, :ncols] - cost
        red[basis] = 0.0
        improving = np.flatnonzero(red > TOL)
        if improving.size == 0:
            break
        entering = improving[0]
        col = T[:, entering]
        ratios = np.where(col > TOL, T[:, -1] / np.where(col > TOL, col, 1.0), np.inf)
        if not np.any(np.isfinite(ratios)):
            break
        cands = np.nonzero(ratios <= np.min(ratios) + 1e-15)[0]
        leaving = cands[np.argmin(basis[cands])]
        f = T[:, entering].copy()
        f[leaving] = 0.0
        T[leaving] /= T[leaving, entering]
        T -= np.outer(f, T[leaving])
        basis[leaving] = entering
    obj = float(cost[basis] @ T[:, -1])
    return obj <= TOL * max(1.0, float(np.max(np.abs(rhs))))


def random_stack(rng, size, m, n):
    """size systems of one shape, each with its own box, that mix every
    special case: rows that need no artificial, zero rows with either sign
    of right-hand side, empty boxes and point boxes."""
    A = rng.uniform(-2, 2, (size, m, n))
    b = rng.uniform(-1.5, 1.5, (size, m))
    lo = rng.uniform(-2, 0, (size, n))
    hi = lo + rng.uniform(0.1, 3, (size, n))
    kind = rng.integers(0, 6, size)
    # 1: every row slack at lo, so no row needs an artificial.
    b[kind == 1] = (A @ lo[:, :, None])[kind == 1, :, 0] + 0.5
    if m:
        # 2: a zero row, with a right-hand side of either sign.
        A[kind == 2, 0] = 0.0
        b[kind == 2, 0] = rng.choice([-0.5, 0.0, 0.5], np.sum(kind == 2))
    # 3: hi < lo in one coordinate.
    hi[kind == 3, 0] = lo[kind == 3, 0] - 0.25
    # 4: a point box.
    hi[kind == 4] = lo[kind == 4]
    return A, b, lo, hi


def test_special_case_systems_match_the_reference():
    rng = np.random.default_rng(577)
    seen = np.zeros(2, dtype=int)
    for m, n in [(0, 1), (0, 3), (1, 1), (3, 2), (6, 4), (10, 10), (12, 6)]:
        A, b, lo, hi = random_stack(rng, 60, m, n)
        got = [feasible(A[i], b[i], lo[i], hi[i]) for i in range(len(A))]
        assert all(type(x) is bool for x in got)
        assert got == [feasible_reference(A[i], b[i], lo[i], hi[i]) for i in range(len(A))]
        seen += np.bincount(got, minlength=2)
    assert min(seen) > 40


def test_one_system_per_call_with_matching_shapes():
    rng = np.random.default_rng(5)
    A, b, lo, hi = random_stack(rng, 1, 5, 3)
    A, b, lo, hi = A[0], b[0], lo[0], hi[0]
    assert type(feasible(A, b, lo, hi)) is bool
    with pytest.raises(DimensionError):
        feasible(A, b[:-1], lo, hi)
    with pytest.raises(DimensionError):
        feasible(A, b, lo[:-1], hi[:-1])
    with pytest.raises(DimensionError):
        feasible(A, b, lo, hi[:-1])
    with pytest.raises(DimensionError):
        feasible(A[None], b[None], lo, hi)


def test_padded_systems_agree_with_scipy_at_region_scale():
    # The 200 systems of test_agrees_with_scipy_at_region_scale, padded to
    # 20 rows and 10 variables and decided one call each: extra rows are
    # 0 <= 0 and extra variables have zero coefficients.
    margin = 1e-3
    rng = np.random.default_rng(1618)
    m_max, n_max = 20, 10
    for i in range(200):
        n = int(rng.integers(8, 11))
        m = int(rng.integers(10, 21))
        lo_i = rng.uniform(-4, 0, n)
        hi_i = lo_i + rng.uniform(0.5, 6, n)
        x0 = rng.uniform(lo_i + margin, hi_i - margin)
        A_i = rng.uniform(-2, 2, (m, n))
        b_i = A_i @ x0 + margin + rng.exponential(0.3, m) * (rng.random(m) < 0.7)
        if i % 2:
            y = rng.exponential(1.0, m - 1) * (rng.random(m - 1) < 0.5)
            y[0] += 0.5
            A_i[-1] = -y @ A_i[:-1]
            b_i[-1] = -y @ b_i[:-1] - margin
        assert scipy_feasible(A_i, b_i, lo_i, hi_i) == (not i % 2)
        A, b = np.zeros((m_max, n_max)), np.zeros(m_max)
        lo, hi = np.zeros(n_max), np.ones(n_max)
        A[:m, :n], b[:m], lo[:n], hi[:n] = A_i, b_i, lo_i, hi_i
        assert feasible(A, b, lo, hi) == (not i % 2)
