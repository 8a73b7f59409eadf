"""Phase-one simplex for tiny box-bounded feasibility problems.

Decides whether { x : A x <= b, lo <= x <= hi } is nonempty.  The systems
that arise here have at most a few dozen rows and twenty variables, so a
dense tableau with Bland's anti-cycling rule, each pivot one rank-1 update,
is entirely adequate and keeps the package free of solver dependencies.
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionError, InvalidParameterError

TOL = 1e-9


def feasible(A, b, lo, hi) -> bool:
    """True iff some x satisfies A x <= b and lo <= x <= hi.

    Works on the shifted variable y = x - lo with 0 <= y <= hi - lo; the
    upper bounds become ordinary rows.  Every row gets a slack; rows with a
    negative right-hand side are negated and get an artificial variable, and
    the phase-one objective (the sum of artificials) is minimized.  The
    system is feasible exactly when that minimum is (numerically) zero.
    """
    A = np.atleast_2d(np.asarray(A, dtype=float))
    b = np.atleast_1d(np.asarray(b, dtype=float))
    lo = np.atleast_1d(np.asarray(lo, dtype=float))
    hi = np.atleast_1d(np.asarray(hi, dtype=float))
    m, n = A.shape
    if b.shape != (m,) or lo.shape != (n,) or hi.shape != (n,):
        raise DimensionError("inconsistent shapes in feasibility system")
    if not (np.all(np.isfinite(lo)) and np.all(np.isfinite(hi))):
        raise InvalidParameterError("box bounds must be finite")
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

    # Tableau columns: y (n), slacks (mt), artificials (k), rhs.
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

    max_iter = 200 * (ncols + 1)
    for _ in range(max_iter):
        # Reduced costs z_j - c_j for the phase-one objective.
        cb = cost[basis]
        red = cb @ T[:, :ncols] - cost
        red[basis] = 0.0
        improving = np.flatnonzero(red > TOL)
        if improving.size == 0:
            break
        entering = improving[0]
        col = T[:, entering]
        ratios = np.where(col > TOL, T[:, -1] / np.where(col > TOL, col, 1.0), np.inf)
        if not np.any(np.isfinite(ratios)):
            break
        best = np.min(ratios)
        # Bland: among the tied minimum ratios pick the smallest basis index.
        cands = np.nonzero(ratios <= best + 1e-15)[0]
        leaving = cands[np.argmin(basis[cands])]
        f = T[:, entering].copy()
        f[leaving] = 0.0
        T[leaving] /= T[leaving, entering]
        T -= np.outer(f, T[leaving])
        basis[leaving] = entering
    obj = float(cost[basis] @ T[:, -1])
    return obj <= TOL * max(1.0, float(np.max(np.abs(rhs))) if rhs.size else 1.0)
