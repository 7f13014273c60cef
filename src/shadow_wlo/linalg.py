"""Small linear algebra in pure Python.

The selfcheck needs three kernels: the determinant of a sparse matrix of
order at most 28 by Gaussian elimination with partial pivoting, a linear
solve by the same elimination, and the eigendecomposition of a symmetric
matrix of order at most 4 by the cyclic Jacobi method (Golub-Van Loan,
Matrix Computations, sections 3.4 and 8.5).  det takes sparse
{column: value} rows, solve and eigh dense rows; inputs are copied, never
modified.
"""

from __future__ import annotations

import math

__all__ = ["det", "solve", "eigh"]

_MAX_SWEEPS = 50  # cyclic Jacobi needs a handful for d <= 4


def _eliminate(rows, n):
    """Forward Gaussian elimination with partial pivoting, in place.

    rows are sparse {column: value} mappings; columns 0..n-1 are pivoted
    on and any later column (a right-hand side) is carried along.  Column
    k pivots on the remaining row of largest |entry| there, swapped into
    position k, and is eliminated from the rows below that have an entry
    in it; rows without one are left alone, so a sparse matrix pays for
    its fill-in, not for its order.  Returns the number of row swaps, or
    None when a column has no nonzero pivot candidate (singular).
    """
    swaps = 0
    for k in range(n):
        best, p = 0.0, k
        for i in range(k, n):
            x = abs(rows[i].get(k, 0.0))
            if x > best:
                best, p = x, i
        if best == 0.0:
            return None
        if p != k:
            rows[k], rows[p] = rows[p], rows[k]
            swaps += 1
        prow = rows[k]
        piv = prow[k]
        for row in rows[k + 1:]:
            f = row.pop(k, 0.0)
            if f:
                f /= piv
                for j, y in prow.items():
                    if j != k:
                        row[j] = row.get(j, 0.0) - f * y
    return swaps


def det(rows):
    """Determinant by Gaussian elimination with partial pivoting.

    rows holds the matrix sparse, one {column: value} mapping per row, so
    the order is len(rows) and an absent column is an exact zero.  A
    singular matrix, one with a column without a nonzero pivot candidate,
    gives 0.0.
    """
    a = [{j: float(x) for j, x in row.items() if x} for row in rows]
    swaps = _eliminate(a, len(a))
    if swaps is None:
        return 0.0
    out = -1.0 if swaps % 2 else 1.0
    for k, row in enumerate(a):
        out *= row[k]
    return out


def solve(rows, rhs):
    """x with A x = rhs, by Gaussian elimination with partial pivoting.

    rows is a dense square matrix.  Raises ValueError when a column has
    no nonzero pivot candidate.
    """
    n = len(rows)
    if len(rhs) != n or any(len(row) != n for row in rows):
        raise ValueError("need a square matrix and a matching vector")
    a = [{j: float(x) for j, x in enumerate(row) if x} for row in rows]
    for row, c in zip(a, rhs):
        if c:
            row[n] = float(c)
    if _eliminate(a, n) is None:
        raise ValueError("singular matrix")
    x = [0.0] * n
    for k in range(n - 1, -1, -1):
        row = a[k]
        known = sum(v * x[j] for j, v in row.items() if k < j < n)
        x[k] = (row.get(n, 0.0) - known) / row[k]
    return x


def eigh(rows):
    """Eigenvalues and eigenvectors of a symmetric matrix, cyclic Jacobi.

    Returns (lam, Q): lam ascending, Q a list of rows whose columns are the
    matching orthonormal eigenvectors, so that S = Q diag(lam) Q^T.  Each
    sweep visits every off-diagonal pair (p, q) in row order and zeroes it
    by the symmetric Schur rotation; pairs below 1e-18 of the Frobenius
    norm count as zero, and the sweeps stop once every pair does (cyclic
    Jacobi converges quadratically, so a few sweeps suffice for d <= 4).
    Only the upper triangle is read.
    """
    d = len(rows)
    a = [[float(rows[min(i, j)][max(i, j)]) for j in range(d)]
         for i in range(d)]
    v = [[1.0 if i == j else 0.0 for j in range(d)] for i in range(d)]
    small = 1e-18 * math.sqrt(sum(x * x for row in a for x in row))
    pairs = [(p, q) for p in range(d) for q in range(p + 1, d)]
    for _ in range(_MAX_SWEEPS):
        if all(abs(a[p][q]) <= small for p, q in pairs):
            break
        for p, q in pairs:
            apq = a[p][q]
            if abs(apq) <= small:
                continue
            tau = (a[q][q] - a[p][p]) / (2.0 * apq)
            t = math.copysign(1.0, tau) / (abs(tau) + math.hypot(1.0, tau))
            c = 1.0 / math.sqrt(1.0 + t * t)
            s = t * c
            for m in (a, v):
                for row in m:
                    xp, xq = row[p], row[q]
                    row[p] = c * xp - s * xq
                    row[q] = s * xp + c * xq
            ap, aq = a[p], a[q]
            a[p] = [c * x - s * y for x, y in zip(ap, aq)]
            a[q] = [s * x + c * y for x, y in zip(ap, aq)]
            a[p][q] = a[q][p] = 0.0
    else:
        raise RuntimeError("Jacobi sweeps did not converge")
    order = sorted(range(d), key=lambda i: a[i][i])
    return ([a[i][i] for i in order],
            [[row[i] for i in order] for row in v])
