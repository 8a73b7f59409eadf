"""Phase-one simplex for one small box-bounded feasibility system.

Decides whether { x : A x <= b, lo <= x <= hi } is nonempty with one dense
tableau, explicit artificials and Bland's rule, free of solver dependencies.
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionError, InvalidParameterError

TOL = 1e-9


def feasible(A, b, lo, hi) -> bool:
    """Whether some x satisfies A x <= b and lo <= x <= hi, for ``A`` of
    shape (m, n), ``b`` of shape (m,) and ``lo``, ``hi`` of shape (n,).

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
    if A.ndim != 2 or b.shape != A.shape[:1] or not lo.shape == hi.shape == A.shape[1:]:
        raise DimensionError("inconsistent shapes in feasibility system")
    if not (np.all(np.isfinite(lo)) and np.all(np.isfinite(hi))):
        raise InvalidParameterError("box bounds must be finite")
    if np.any(hi < lo):
        return False
    m, n = A.shape
    rhs = np.concatenate([b - A @ lo, hi - lo])
    arts = np.flatnonzero(rhs < 0)
    if not arts.size:
        return True

    # Columns: y (n), slacks (mt), artificials (k), rhs.  Rows with a
    # negative right-hand side are negated and start with their artificial
    # in the basis, the others with their slack.
    mt, k = m + n, arts.size
    ncols = n + mt + k
    T = np.zeros((mt, ncols + 1))
    T[:, :n] = np.vstack([A, np.eye(n)])
    T[:, n : n + mt] = np.eye(mt)
    T[arts] *= -1.0
    T[arts, n + mt + np.arange(k)] = 1.0
    T[:, -1] = np.abs(rhs)
    basis = n + np.arange(mt)
    basis[arts] = n + mt + np.arange(k)
    cost = np.zeros(ncols)
    cost[n + mt :] = 1.0
    scale = TOL * max(1.0, float(np.max(T[:, -1])))

    for _ in range(200 * (ncols + 1)):
        # Bland: the first improving column enters; among the tied minimum
        # ratios the row of the smallest basis index leaves.
        red = cost[basis] @ T[:, :ncols] - cost
        red[basis] = 0.0
        improving = np.flatnonzero(red > TOL)
        if not improving.size:
            break
        entering = improving[0]
        col = T[:, entering].copy()
        pos = col > TOL
        ratios = np.where(pos, T[:, -1] / np.where(pos, col, 1.0), np.inf)
        best = np.min(ratios)
        if not np.isfinite(best):
            break
        cands = np.flatnonzero(ratios <= best + 1e-15)
        leaving = cands[np.argmin(basis[cands])]
        T[leaving] /= col[leaving]
        col[leaving] = 0.0
        T -= np.outer(col, T[leaving])
        basis[leaving] = entering
    return float(cost[basis] @ T[:, -1]) <= scale
