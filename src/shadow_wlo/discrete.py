"""Discrete field-theory operators on time-extended surface decompositions.

Fields live on maps from the cyclic time group Z_n into a compact Lie
algebra.  This module builds the three time-twisted difference operators
(forward, backward and their mean), the block operator that couples the
primal and dual edge spaces of a quad-subdivided surface through the
duality rotation, the discrete ribbon holonomy for Cartan-valued fields,
the gauge-fixing determinant, and the closed-form determinant identities
the state sum relies on.  Everything here is a pure function of its
arguments.

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
from dataclasses import dataclass

import numpy as np

from .complex import RibbonStep, hodge_star_signs
from .lie import ad_det_k, inner, is_regular

__all__ = [
    "TwistedOperator",
    "BlockAction",
    "RibbonStep",
    "RibbonHolonomyInput",
    "CovarianceReport",
    "algebra_dim",
    "ad_matrix",
    "build_twisted",
    "det_twisted_restricted",
    "block_action",
    "det_block",
    "hol_disc",
    "det_fp_disc",
    "covariance_vanishing_check",
]

_VARIANTS = ("hat", "check", "bar")


def algebra_dim(lie):
    """Real dimension of the algebra: rank plus a plane per positive root."""
    return lie.rank + 2 * len(lie.positive_roots)


def ad_matrix(lie, b):
    """ad(b) for Cartan b, in the root-plane real basis.

    The first rank coordinates span the Cartan subalgebra and are
    annihilated; each positive root alpha contributes an (x, y) plane on
    which ad(b) is a rotation generator with angle 2*pi*<alpha, b>.  The
    matrix is antisymmetric, so its exponential is orthogonal.
    """
    r = lie.rank
    dim = algebra_dim(lie)
    out = np.zeros((dim, dim))
    for p, alpha in enumerate(lie.positive_roots):
        th = 2.0 * math.pi * float(inner(lie, alpha, b))
        i = r + 2 * p
        out[i, i + 1] = -th
        out[i + 1, i] = th
    return out


@dataclass(frozen=True, eq=False)
class TwistedOperator:
    """One time-twisted difference operator realized as a dense matrix.

    The matrix acts on maps Z_n -> algebra laid out time-major, one algebra
    block per time step.
    """

    variant: str
    n: int
    b: tuple
    matrix: np.ndarray


def build_twisted(lie, variant, n, b):
    """Dense time-twisted difference operator on maps Z_n -> algebra.

    hat is n*(shift exp(ad(b)/n) - 1), check is n*(1 - backshift
    exp(-ad(b)/n)), bar is their mean and needs even n.  The forward
    exponential is built in closed form: the identity on the Cartan
    coordinates and, at rows r+2p and r+2p+1 for the p-th positive root
    alpha, the rotation [[cos phi, -sin phi], [sin phi, cos phi]] with
    phi = 2*pi*<alpha, b>/n, the exponential of ad_matrix(lie, b)/n.  The
    backward exponential is its transpose (ad(b) is antisymmetric), which
    keeps the mean identity exact at matrix level.  Applied to samples of
    a smooth field, each variant reproduces the continuum operator
    d/dt + ad(b) to first order in 1/n.
    """
    if variant not in _VARIANTS:
        raise ValueError(f"unknown variant {variant!r}")
    if n < 2:
        raise ValueError("need at least two time steps")
    if variant == "bar" and n % 2 != 0:
        raise ValueError("bar variant needs an even number of time steps")
    dim = algebra_dim(lie)
    eye = np.eye(dim)
    fwd = eye.copy()
    for p, alpha in enumerate(lie.positive_roots):
        phi = 2.0 * math.pi * float(inner(lie, alpha, b)) / n
        c, s = math.cos(phi), math.sin(phi)
        i = lie.rank + 2 * p
        fwd[i:i + 2, i:i + 2] = ((c, -s), (s, c))
    mat = np.zeros((n * dim, n * dim))
    for t in range(n):
        rows = slice(t * dim, (t + 1) * dim)
        nxt = slice(((t + 1) % n) * dim, ((t + 1) % n + 1) * dim)
        prv = slice(((t - 1) % n) * dim, ((t - 1) % n + 1) * dim)
        if variant == "hat":
            mat[rows, nxt] += n * fwd
            mat[rows, rows] += -n * eye
        elif variant == "check":
            mat[rows, rows] += n * eye
            mat[rows, prv] += -n * fwd.T
        else:
            mat[rows, nxt] += (n / 2.0) * fwd
            mat[rows, prv] += -(n / 2.0) * fwd.T
    return TwistedOperator(variant, n, tuple(b), mat)


def _fourier_basis(n):
    """Orthonormal real Fourier basis of R^n as columns.

    The constant mode comes first; for even n the alternating mode is
    second.  These leading columns are exactly the kernel time profiles of
    the twisted operators, so callers drop them by count.
    """
    cols = [np.full(n, 1.0 / math.sqrt(n))]
    if n % 2 == 0:
        cols.append(np.array([(-1.0) ** t for t in range(n)]) / math.sqrt(n))
    for k in range(1, (n - 1) // 2 + 1):
        ang = 2.0 * math.pi * k / n
        c = np.array([math.cos(ang * t) for t in range(n)])
        s = np.array([math.sin(ang * t) for t in range(n)])
        cols.append(c * math.sqrt(2.0 / n))
        cols.append(s * math.sqrt(2.0 / n))
    return np.column_stack(cols)


def _restricted_basis(lie, variant, n):
    """Orthonormal basis of the orthogonal complement of the kernel.

    For regular b the kernel of hat and check is the time-constant Cartan
    sector; bar adds the alternating Cartan modes.  All non-Cartan
    directions and all remaining Fourier modes stay.
    """
    dim = algebra_dim(lie)
    r = lie.rank
    fb = _fourier_basis(n)
    drop = 2 if variant == "bar" else 1
    cols = []
    for j in range(n):
        for a in range(dim):
            if a < r and j < drop:
                continue
            v = np.zeros(n * dim)
            v[a::dim] = fb[:, j]
            cols.append(v)
    return np.column_stack(cols)


def det_twisted_restricted(lie, variant, n, b):
    """Determinant of the twisted operator off its kernel.

    Computed on an explicit orthonormal complement basis built from the
    kernel description, so there is no pseudo-determinant ambiguity.  For
    the forward variant the value is sgn * n^(n*dim) * det(1 - exp(ad b))
    on the root planes, where sgn is -1 exactly when the rank and n-1 are
    both odd; the backward variant always carries the + sign (the cyclic
    shift determinant cancels the sign of the eigenvalue census) and the
    mean variant gives the square (n/2)^(n*dim) * det(...)^2.  b must be
    regular, otherwise the kernel jumps.
    """
    if not is_regular(lie, b):
        raise ValueError("b pairs integrally with a root: kernel is larger "
                         "than the Cartan sector")
    op = build_twisted(lie, variant, n, b)
    u = _restricted_basis(lie, variant, n)
    return float(np.linalg.det(u.T @ op.matrix @ u))


# ---------------------------------------------------------------------------
# assembled block operator on a quad-subdivided surface


@dataclass(frozen=True, eq=False)
class BlockAction:
    """Assembled duality-coupled block operator and its constrained space.

    Coordinates are (edge pair, side, time, algebra) with side 0 the primal
    edge and side 1 its dual partner; matrix is the full assembly, basis an
    orthonormal basis of the subspace whose time sum has no Cartan
    component, and restricted the compression of matrix to that subspace
    (where it is invertible for regular twist fields).
    """

    n: int
    edges: tuple
    matrix: np.ndarray
    basis: np.ndarray
    restricted: np.ndarray
    algebra_dim: int
    rank: int

    def coordinate(self, edge_pos, side, t, a):
        """Flat index of one (pair, side, time, algebra) coordinate."""
        block = (2 * edge_pos + side) * self.n * self.algebra_dim
        return block + t * self.algebra_dim + a

    def project(self, vec):
        """Remove the time-constant Cartan component of every edge side.

        This is the orthogonal projection onto the constrained subspace
        (the time factorizes from the algebra factor, so the projection is
        a per-coordinate mean subtraction regardless of the Cartan metric).
        """
        out = np.array(vec, dtype=float)
        side = self.n * self.algebra_dim
        for base in range(0, out.size, side):
            for a in range(self.rank):
                sl = slice(base + a, base + side, self.algebra_dim)
                out[sl] -= out[sl].mean()
        return out


def block_action(lie, cx, B, n):
    """Assemble the duality rotation composed with the per-pair twists.

    Every primal edge of the decomposition crosses exactly one dual edge;
    the pair shares the midpoint twist value B[("m", e)].  The primal side
    carries the forward difference operator, the dual side the backward
    one, and the duality rotation couples the two sides with the package's
    fixed orientation signs, making the assembled matrix symmetric.  Only
    midpoint values of B are read.
    """
    dim = algebra_dim(lie)
    r = lie.rank
    edges = tuple(sorted(cx.edges))
    side = n * dim
    total = 2 * len(edges) * side
    mat = np.zeros((total, total))
    s1 = hodge_star_signs["K1"]
    s2 = hodge_star_signs["K2"]
    for p, e in enumerate(edges):
        bmid = B[("m", e)]
        hat = build_twisted(lie, "hat", n, bmid).matrix
        chk = build_twisted(lie, "check", n, bmid).matrix
        r1 = 2 * p * side
        r2 = r1 + side
        # the primal output slot takes the rotated dual-side image and
        # vice versa; symmetry then rests on hat^T = -check
        mat[r1:r2, r2:r2 + side] = s2 * chk
        mat[r2:r2 + side, r1:r2] = s1 * hat
    basis = np.kron(np.eye(2 * len(edges)), _restricted_basis(lie, "hat", n))
    restricted = basis.T @ mat @ basis
    return BlockAction(n, edges, mat, basis, restricted, dim, r)


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


def det_fp_disc(lie, B):
    """Gauge-fixing determinant of a twist field.

    The product over every subdivision vertex of the square root of the
    root-plane determinant; the half power is essential for the state-sum
    factorization over face regions.  Zero values are allowed (singular
    fields are suppressed, not rejected, at this stage).
    """
    out = 1.0
    for x in sorted(B):
        out *= math.sqrt(ad_det_k(lie, B[x]))
    return out


# ---------------------------------------------------------------------------
# discrete ribbon holonomy


@dataclass(frozen=True)
class RibbonHolonomyInput:
    """A ribbon together with the fields it is evaluated against.

    a_field maps each time slice to a 1-cochain on the subdivision
    (a mapping from subdivision edges to Cartan vectors); b_field maps
    subdivision vertices to Cartan vectors; steps is the ordered tuple of
    RibbonStep records and n the number of time slices.
    """

    n: int
    steps: tuple
    a_field: object
    b_field: object


def hol_disc(lie, inp, rho):
    """Holonomy matrix of a paired-boundary ribbon in a weight representation.

    Each step contributes half of each boundary loop's field pairing: the
    surface parts pair with the connection at the step's time slice, and
    time steps pick up half the twist value at each loop's current vertex,
    weighted dt/n.  All fields take Cartan values, so the ordered product
    of step exponentials collapses to one exponential of the accumulated
    Cartan element; rho is a weight table (mapping or iterable of
    (weight, multiplicity)) and the result is the diagonal matrix with
    entries exp(2*pi*i*<weight, accumulated>), highest weight first.
    """
    r = lie.rank
    acc = [0.0] * r
    for st in inp.steps:
        if not 0 <= st.t < inp.n:
            raise ValueError(f"step time {st.t} outside Z_{inp.n}: "
                             "field and ribbon disagree on the time group")
        for chain in (st.l_sigma, st.lp_sigma):
            if not chain:
                continue
            try:
                coch = inp.a_field[st.t]
            except KeyError:
                raise ValueError(f"connection field has no time slice "
                                 f"{st.t} out of {inp.n}") from None
            for qe, sgn in chain:
                val = coch[qe]
                for a in range(r):
                    acc[a] += 0.5 * sgn * float(val[a])
        if st.dt:
            w = st.dt / inp.n
            for vert in (st.l_vertex, st.lp_vertex):
                val = inp.b_field[vert]
                for a in range(r):
                    acc[a] += 0.5 * w * float(val[a])
    table = rho.items() if hasattr(rho, "items") else rho
    entries = []
    for weight, mult in sorted(table, reverse=True):
        ang = 2.0 * math.pi * float(inner(lie, weight, acc))
        entries.extend([complex(math.cos(ang), math.sin(ang))] * int(mult))
    return np.diag(entries)


# ---------------------------------------------------------------------------
# covariance vanishing certificate


@dataclass(frozen=True)
class CovarianceReport:
    """Outcome of the pairing check; truthy exactly when all pairs vanish."""

    ok: bool
    max_abs: float
    checked: int
    first_failure: tuple | None = None

    def __bool__(self):
        return self.ok


def _step_sources(act, link, rank):
    """Projected source vectors, one per (ribbon, surface step, Cartan dir).

    A step chain entry is a single subdivision half-edge; pushing it to the
    edge-pair coordinates contributes a quarter of its sign (half from the
    source normalization, half from averaging the two halves of the edge),
    placed at the step's time slice.
    """
    edge_pos = {e: p for p, e in enumerate(act.edges)}
    dim = act.algebra_dim
    labels = []
    vecs = []
    for i, ribbon in enumerate(link.ribbons):
        for k, st in enumerate(ribbon.steps):
            if not (st.l_sigma or st.lp_sigma):
                continue
            for a in range(rank):
                vec = np.zeros(act.matrix.shape[0])
                for qe, sgn in tuple(st.l_sigma) + tuple(st.lp_sigma):
                    tag, e = qe
                    side = 0 if tag[0] == "h" else 1
                    vec[act.coordinate(edge_pos[e], side, st.t, a)] += \
                        0.25 * sgn
                labels.append((i, k, a))
                vecs.append(act.project(vec))
    return labels, vecs


def covariance_vanishing_check(lie, cx, link, B, pairs=None, tol=1e-10):
    """Certify that all source pairings through the inverse block vanish.

    Every boundary-loop step with a surface part induces one source per
    Cartan direction; the check solves the assembled constrained system
    for each source and pairs the solutions against every source (the
    diagonal included, since the support argument covers it too).  For a
    valid embedding the primal loop of any ribbon and the dual loop of any
    ribbon never touch partner edges, so each solved field stays disjoint
    from every source and all pairings vanish identically; a value above
    tol therefore diagnoses an invalid embedding, reported through the
    first failing pair.  pairs may restrict the checked combinations to an
    iterable of ((ribbon, step, direction), (ribbon, step, direction)).
    """
    act = block_action(lie, cx, B, link.n)
    for e in act.edges:
        if not is_regular(lie, B[("m", e)]):
            raise ValueError(f"B is not regular at vertex {('m', e)}")
    labels, vecs = _step_sources(act, link, lie.rank)
    if not vecs:
        return CovarianceReport(True, 0.0, 0)
    src = np.column_stack(vecs)
    sol = act.basis @ np.linalg.solve(act.restricted, act.basis.T @ src)
    # contract the algebra index with the Cartan Gram matrix on the solved
    # side; sources have exact zeros outside their own Cartan direction
    gram = np.array([[float(x) for x in row] for row in lie.gram])
    resh = sol.T.reshape(len(labels), -1, act.algebra_dim).copy()
    resh[:, :, :act.rank] = resh[:, :, :act.rank] @ gram.T
    weighted = resh.reshape(len(labels), -1).T
    vals = (src.T @ weighted) / link.n
    index = {lab: pos for pos, lab in enumerate(labels)}
    if pairs is None:
        wanted = ((l1, l2) for l1 in labels for l2 in labels)
    else:
        wanted = pairs
    max_abs = 0.0
    checked = 0
    first = None
    for l1, l2 in wanted:
        if l1 not in index or l2 not in index:
            raise ValueError(f"no source for pair ({l1}, {l2})")
        v = float(vals[index[l1], index[l2]])
        checked += 1
        if abs(v) > max_abs:
            max_abs = abs(v)
        if first is None and abs(v) > tol:
            first = (l1, l2, v)
    return CovarianceReport(first is None, max_abs, checked, first)
