"""Tests for the phase-one simplex feasibility routine.

scipy's linprog serves as an independent oracle here; the package itself
never imports scipy.
"""

import numpy as np
import pytest
from scipy.optimize import linprog

from spikec.simplex import feasible


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
