"""Phase-one simplex for tiny box-bounded feasibility problems, in batches.

Decides whether { x : A x <= b, lo <= x <= hi } is nonempty, for one system
or for a stack of systems of equal shape.  The systems that arise here have
at most a few dozen rows and twenty variables but come by the thousand, so
the stack is solved together: one dense tableau per system, all of them
pivoted at once with Bland's anti-cycling rule, each pivot one broadcast
rank-1 update.  A single system is a stack of one.  This keeps the package
free of solver dependencies.
"""

from __future__ import annotations

import itertools

import numpy as np

from .errors import DimensionError, InvalidParameterError

TOL = 1e-9
#: A stack is solved in chunks of systems whose tableaux hold at most this
#: many elements in all (or of one system); a scratch array of the same size
#: rides along.
CHUNK_ELEMS = 1 << 15


def feasible(A, b, lo, hi):
    """Whether some x satisfies A x <= b and lo <= x <= hi.

    For a 2-D ``A`` (m, n) returns a bool.  For a stack ``A`` of shape
    (B, m, n) with ``b`` of shape (B, m) returns a bool array of length B;
    ``lo`` and ``hi`` are then shared, shape (n,), or per system, (B, n).

    Works on the shifted variable y = x - lo with 0 <= y <= hi - lo; the
    upper bounds become ordinary rows.  Every row gets a slack; rows with a
    negative right-hand side are negated and get an artificial variable, and
    the phase-one objective (the sum of artificials) is minimized.  A system
    is feasible exactly when that minimum is (numerically) zero.
    """
    A = np.asarray(A, dtype=float)
    single = A.ndim < 3
    if single:
        A = np.atleast_2d(A)[None]
        b = np.atleast_1d(np.asarray(b, dtype=float))[None]
    else:
        b = np.asarray(b, dtype=float)
    lo = np.atleast_1d(np.asarray(lo, dtype=float))
    hi = np.atleast_1d(np.asarray(hi, dtype=float))
    B, m, n = A.shape
    box_shapes = [(n,)] if single else [(n,), (B, n)]
    if b.shape != (B, m) or lo.shape not in box_shapes or hi.shape not in box_shapes:
        raise DimensionError("inconsistent shapes in feasibility system")
    if not (np.all(np.isfinite(lo)) and np.all(np.isfinite(hi))):
        raise InvalidParameterError("box bounds must be finite")
    lo = np.broadcast_to(lo, (B, n))
    hi = np.broadcast_to(hi, (B, n))

    out = np.zeros(B, dtype=bool)
    step = chunk_size(m, n)
    for s in range(0, B, step):
        part = slice(s, s + step)
        out[part] = _phase_one(A[part], b[part], lo[part], hi[part])
    return bool(out[0]) if single else out


def chunk_size(m: int, n: int) -> int:
    """Systems of m rows and n variables solved together: as many as have
    tableaux of CHUNK_ELEMS elements in all, and at least one."""
    return max(1, CHUNK_ELEMS // ((m + n + 1) * (2 * n + m + 1)))


def _phase_one(A, b, lo, hi) -> np.ndarray:
    """Feasibility flags of a chunk of systems of equal shape."""
    B, m, n = A.shape
    mt = m + n
    rhs = np.concatenate([b - (A @ lo[:, :, None])[:, :, 0], hi - lo], axis=1)
    neg = rhs < 0
    k = neg.sum(axis=1)
    empty = np.any(hi < lo, axis=1)
    out = (k == 0) & ~empty
    ids = np.flatnonzero((k > 0) & ~empty)
    if not ids.size:
        return out
    rhs, neg, k = rhs[ids], neg[ids], k[ids]

    # Tableau columns: y (n), slacks (mt), rhs; row mt holds the reduced
    # costs z_j - c_j of the phase-one objective and, in the rhs column, the
    # objective itself, and pivots update it with the rest.  The artificial
    # of row i would be column n + mt + i.  Pivots keep it the negated slack
    # column of that row, so it is not stored: its entries are read off the
    # slack column, and its reduced cost is -(slack's) - 1.
    art = n + mt
    diag = np.arange(mt)
    T = np.zeros((ids.size, mt + 1, art + 1))
    T[:, :m, :n] = A[ids]
    T[:, m + np.arange(n), np.arange(n)] = 1.0
    T[:, diag, n + diag] = 1.0
    np.negative(T[:, :mt, :art], out=T[:, :mt, :art], where=neg[:, :, None])
    T[:, :mt, -1] = np.abs(rhs)
    T[:, mt] = np.einsum("bi,bij->bj", neg, T[:, :mt])
    basis = np.where(neg, art + diag, n + diag)
    scale = TOL * np.maximum(1.0, np.max(np.abs(rhs), axis=1, initial=0.0))
    budget = 200 * (art + k + 1)
    # Scratch of the tableau's size: the rank-1 product, and the target of
    # each compaction, after which it swaps roles with the tableau.
    spare = np.empty_like(T)

    # Every system still active has made one pivot per pass.
    for done in itertools.count():
        # Bland: the first improving column; artificials come last.
        red = T[:, mt, :art]
        improving = red > TOL
        has = np.any(improving, axis=1)
        entering = np.argmax(improving, axis=1)
        a = np.arange(ids.size)
        if np.all(has):
            col = T[a, :, entering]
        else:
            art_improving = neg & (-red[:, n:] - 1.0 > TOL)
            entering = np.where(has, entering, art + np.argmax(art_improving, axis=1))
            has |= np.any(art_improving, axis=1)
            is_art = entering >= art
            col = T[a, :, np.where(is_art, entering - mt, entering)]
            col[is_art] *= -1.0
            col[is_art, mt] -= 1.0
        pos = col[:, :mt] > TOL
        ratios = np.where(pos, T[:, :mt, -1] / np.where(pos, col[:, :mt], 1.0), np.inf)
        best = np.min(ratios, axis=1)
        go = has & np.isfinite(best) & (budget > done)
        if not np.all(go):
            stop = ~go
            # Phase-one objective: the artificials still in the basis.
            obj = np.sum(np.where(basis[stop] >= art, T[stop, :mt, -1], 0.0), axis=1)
            out[ids[stop]] = obj <= scale[stop]
            if not np.any(go):
                return out
            T, spare = np.compress(go, T, axis=0, out=spare[: np.count_nonzero(go)]), T
            basis, ids, neg, scale, budget, entering, col, ratios, best = (
                x[go] for x in (basis, ids, neg, scale, budget, entering, col, ratios, best)
            )
            a = np.arange(ids.size)
        # Bland: among the tied minimum ratios pick the smallest basis index.
        cands = ratios <= (best + 1e-15)[:, None]
        leaving = np.argmin(np.where(cands, basis, 2 * art), axis=1)
        pivot = T[a, leaving] / col[a, leaving][:, None]
        col[a, leaving] = 0.0
        T -= np.multiply(col[:, :, None], pivot[:, None, :], out=spare[: ids.size])
        T[a, leaving] = pivot
        basis[a, leaving] = entering
