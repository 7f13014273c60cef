"""Discrete field-theory operators on time-extended surface decompositions.

Fields live on maps from the cyclic time group Z_n into a compact Lie
algebra.  This module builds the three time-twisted difference operators
(forward, backward and their mean), their determinants off the kernel, and
the closed-form determinant of the block operator that couples the primal
and dual edge spaces of a quad-subdivided surface.  Everything here is a
pure function of its arguments and runs on the standard library: the
operators are assembled as sparse rows ({column: value}) and their
determinants taken by linalg.det.

Conventions shared with the rest of the package: Cartan elements are
tuples in fundamental-weight coordinates, ad(b) rotates each positive-root
plane by 2*pi*<alpha, b>, and exp(b) acts on a weight alpha as
exp(2*pi*i*<alpha, b>).

Because b is Cartan-valued (torus gauge), the step exponential
exp(ad(b)/n) of the twisted operators has a closed form: the identity on
the Cartan coordinates and, in each positive-root plane, the rotation
[[cos phi, -sin phi], [sin phi, cos phi]] with phi = 2*pi*<alpha, b>/n.
The backward step exp(-ad(b)/n) is its transpose, so the mean variant's
identity bar = (hat + check)/2 holds exactly at matrix level.
"""

from __future__ import annotations

import math
from functools import lru_cache

from .lie import _off_walls, ad_det_k, is_regular, root_pairings
from .linalg import det

__all__ = [
    "algebra_dim",
    "det_twisted_restricted",
    "det_block",
]

_VARIANTS = ("hat", "check", "bar")


def algebra_dim(lie):
    """Real dimension of the algebra: rank plus a plane per positive root."""
    return lie.rank + 2 * len(lie.positive_roots)


def _twisted_rows(lie, variant, n, ts):
    """The twisted operator's rows, sparse: rows[i] maps column -> value.

    hat is n*(shift exp(ad(b)/n) - 1), check is n*(1 - backshift
    exp(-ad(b)/n)) and bar is their mean, which needs even n; the maps
    Z_n -> algebra are laid out time-major.  ts are b's root pairings,
    root_pairings(lie, b).
    """
    if variant not in _VARIANTS:
        raise ValueError(f"unknown variant {variant!r}")
    if n < 2:
        raise ValueError("need at least two time steps")
    if variant == "bar" and n % 2 != 0:
        raise ValueError("bar variant needs an even number of time steps")
    dim = algebra_dim(lie)
    # the step exponential and its transpose, sparse: fwd[i] maps j -> value
    eye = [{i: 1.0} for i in range(dim)]
    fwd = [{i: 1.0} for i in range(dim)]
    for p, t in enumerate(ts):
        phi = 2.0 * math.pi * float(t) / n
        c, s = math.cos(phi), math.sin(phi)
        i = lie.rank + 2 * p
        fwd[i] = {i: c, i + 1: -s}
        fwd[i + 1] = {i: s, i + 1: c}
    bwd = [{} for _ in range(dim)]
    for i, brow in enumerate(fwd):
        for j, x in brow.items():
            bwd[j][i] = x
    # each block row t holds these (time offset, scale, block) terms
    if variant == "hat":
        terms = ((1, n, fwd), (0, -n, eye))
    elif variant == "check":
        terms = ((0, n, eye), (-1, -n, bwd))
    else:
        terms = ((1, n / 2.0, fwd), (-1, -(n / 2.0), bwd))
    rows = [{} for _ in range(n * dim)]
    for t in range(n):
        for shift, scale, block in terms:
            base = ((t + shift) % n) * dim
            for i, brow in enumerate(block):
                row = rows[t * dim + i]
                for j, x in brow.items():
                    if x:
                        row[base + j] = row.get(base + j, 0.0) + scale * x
    return rows


def _fourier_basis(n):
    """Orthonormal real Fourier basis of R^n, as a list of n-vectors.

    The constant mode comes first; for even n the alternating mode is
    second.  These leading vectors are exactly the kernel time profiles of
    the twisted operators, so callers drop them by count.
    """
    vecs = [[1.0 / math.sqrt(n)] * n]
    if n % 2 == 0:
        vecs.append([(-1.0) ** t / math.sqrt(n) for t in range(n)])
    for k in range(1, (n - 1) // 2 + 1):
        ang = 2.0 * math.pi * k / n
        vecs.append([math.cos(ang * t) * math.sqrt(2.0 / n)
                     for t in range(n)])
        vecs.append([math.sin(ang * t) * math.sqrt(2.0 / n)
                     for t in range(n)])
    return vecs


@lru_cache(maxsize=None)
def _restricted_basis(lie, variant, n):
    """Orthonormal basis of the orthogonal complement of the kernel.

    For regular b the kernel of hat and check is the time-constant Cartan
    sector; bar adds the alternating Cartan modes.  All non-Cartan
    directions and all remaining Fourier modes stay.  Each basis vector of
    R^(n*dim) is returned sparse, as its (index, value) pairs with a
    nonzero value, in the order (Fourier mode, algebra direction).
    """
    dim = algebra_dim(lie)
    drop = 2 if variant == "bar" else 1
    return tuple(tuple((t * dim + a, x) for t, x in enumerate(mode) if x)
                 for j, mode in enumerate(_fourier_basis(n))
                 for a in range(dim) if not (a < lie.rank and j < drop))


def det_twisted_restricted(lie, variant, n, b):
    """Determinant of the twisted operator off its kernel.

    Computed on an explicit orthonormal complement basis U built from the
    kernel description, so there is no pseudo-determinant ambiguity: the
    compression U^T M U is assembled from the sparse vectors of U and rows
    of M (each U vector has at most n nonzeros, each M row at most three)
    and its determinant taken by pivoted elimination, not factored by
    Fourier mode.  For the forward variant the value is
    sgn * n^(n*dim) * det(1 - exp(ad b)) on the root planes,
    where sgn is -1 exactly when the rank and n-1 are both odd; the
    backward variant always carries the + sign (the cyclic shift
    determinant cancels the sign of the eigenvalue census) and the mean
    variant gives the square (n/2)^(n*dim) * det(...)^2.  b must be
    regular, otherwise the kernel jumps.
    """
    ts = root_pairings(lie, b)
    if not _off_walls(ts):
        raise ValueError("b pairs integrally with a root: kernel is larger "
                         "than the Cartan sector")
    mrows = _twisted_rows(lie, variant, n, ts)
    basis = _restricted_basis(lie, variant, n)
    # urows[c] lists (k, U[c][k]) for the basis vectors k touching index c
    urows = [[] for _ in mrows]
    for k, vec in enumerate(basis):
        for c, u in vec:
            urows[c].append((k, u))
    comp = []
    for vec in basis:
        left = {}  # the row vec^T M
        for r, u in vec:
            for c, x in mrows[r].items():
                left[c] = left.get(c, 0.0) + u * x
        row = {}
        for c, y in left.items():
            for k, u in urows[c]:
                row[k] = row.get(k, 0.0) + y * u
        comp.append(row)
    return det(comp)


def det_block(lie, B, n):
    """Closed-form determinant of the constrained block operator.

    The value factorizes over the dual edge pairs: each pair contributes
    one forward and one backward restricted determinant at its midpoint
    twist, so the power of n is the full coordinate dimension
    2 * pairs * n * dim, the root-plane determinants enter squared, and
    the overall sign is the forward-block sign once per pair, i.e. -1 to
    the power rank*(n-1)*pairs.  Every vertex value must be regular; the
    first singular one is reported.  The magnitude grows like n to the
    coordinate dimension, so very large decompositions can exceed the
    float range; the state sum itself only ever consumes quotients of
    these values.
    """
    for x in sorted(B):
        if not is_regular(lie, B[x]):
            raise ValueError(f"B is not regular at vertex {x}")
    mids = [x for x in sorted(B) if x[0] == "m"]
    dim = algebra_dim(lie)
    d = 2 * len(mids) * n * dim
    sign = -1.0 if (lie.rank * (n - 1) * len(mids)) % 2 else 1.0
    out = sign * float(n) ** d
    for x in mids:
        out *= ad_det_k(lie, B[x]) ** 2
    return out
