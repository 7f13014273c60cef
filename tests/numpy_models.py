"""Numpy models of the field theory that no certificate or selfcheck uses.

These functions were part of shadow_wlo.discrete and shadow_wlo.oscillatory
until the package dropped numpy; the tests still pin the paper identities
they carry, so they live here, next to the tests that call them:

- the root-plane generator ad(b) (ad_matrix), which the closed-form step
  exponential of the twisted operators is checked against;
- the assembled duality-coupled block operator (block_action), whose
  restricted determinant checks discrete.det_block;
- the gauge-fixing determinant det_fp_disc and the discrete ribbon
  holonomy hol_disc;
- the covariance vanishing certificate for embedded links;
- the Gaussian covariance, factorized expectation, Wick moments and the
  delta-type concentration limit of oscillatory measures;
- grid_oracle, the regularized quadrature of a callable integrand on a
  dense grid; it shares the truncation, budget refusal and extrapolation
  of oscillatory.epsilon_oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import permutations, product

import numpy as np

import oracles
from oracles import build_twisted, inner
from shadow_wlo.complex import hodge_star_signs
from shadow_wlo.discrete import _restricted_basis, algebra_dim
from shadow_wlo.lie import ad_det_k, is_regular
from shadow_wlo.oscillatory import _regularized_limit

_BLOCK = 1 << 16  # quadrature points per slab


def restricted_basis(lie, variant, n):
    """discrete._restricted_basis as a dense matrix, one column per vector."""
    vecs = _restricted_basis(lie, variant, n)
    out = np.zeros((n * algebra_dim(lie), len(vecs)))
    for k, vec in enumerate(vecs):
        for r, u in vec:
            out[r, k] = u
    return out


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
        hat = np.array(build_twisted(lie, "hat", n, bmid).matrix)
        chk = np.array(build_twisted(lie, "check", n, bmid).matrix)
        r1 = 2 * p * side
        r2 = r1 + side
        # the primal output slot takes the rotated dual-side image and
        # vice versa; symmetry then rests on hat^T = -check
        mat[r1:r2, r2:r2 + side] = s2 * chk
        mat[r2:r2 + side, r1:r2] = s1 * hat
    basis = np.kron(np.eye(2 * len(edges)), restricted_basis(lie, "hat", n))
    restricted = basis.T @ mat @ basis
    return BlockAction(n, edges, mat, basis, restricted, dim, r)


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
    gram = np.array([[float(x) for x in row] for row in oracles.gram(lie)])
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


# ---------------------------------------------------------------------------
# oscillatory measures: covariances, Wick moments, delta limit


def covariance(mu, a, b):
    """Covariance (1/i) <a, S^(-1) b> of the linear parts of two affine maps."""
    if mu.degenerate:
        raise ValueError("S must be invertible")
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    return (-1j) * float(a @ np.linalg.solve(np.array(mu.S), b))


def factorized_expectation(mu, Ys, Phi, tol=1e-10):
    """Expectation of Phi((Y_k)_k) when all pairwise covariances vanish.

    Ys is a list of affine maps (a, c) ~ x -> <a,x> + c.  The shortcut
    Phi(first moments) is only valid under the vanishing-covariance
    precondition, which is checked for every pair including the diagonal;
    a violating pair is reported and the shortcut refused.
    """
    if not mu.normalized:
        raise ValueError("factorization requires a normalized measure")
    for i, (a, _) in enumerate(Ys):
        for j, (b, _) in enumerate(Ys[i:], start=i):
            c = covariance(mu, a, b)
            if abs(c) > tol:
                raise ValueError(
                    f"covariance of maps {i} and {j} is {c}, not zero; "
                    "factorization does not apply")
    firsts = [float(np.asarray(a) @ np.array(mu.m)) + c for a, c in Ys]
    return Phi(*firsts)


def wick_moment(mu, vectors):
    """Moment of a product of centered linear maps via pairings.

    vectors are the gradients of the linear maps; odd counts give zero and
    even counts the symmetrized sum over pairings of pairwise covariances.
    """
    n = len(vectors)
    if n % 2 == 1:
        return 0.0 + 0.0j
    if n == 0:
        return 1.0 + 0.0j
    half = n // 2
    total = 0.0 + 0.0j
    for sigma in permutations(range(n)):
        term = 1.0 + 0.0j
        for i in range(half):
            term *= covariance(mu, vectors[sigma[2 * i]],
                               vectors[sigma[2 * i + 1]])
        total += term
    return total / (math.factorial(half) * 2 ** half)


# ---------------------------------------------------------------------------
# delta-type concentration


def delta_limit(dims, M, F, v, lattice=None, grid=64, check_points=5,
                rng_seed=7):
    """Concentration of the measure (1/Z) exp(i<x_2, M x_1>) dx.

    dims = (d0, d1, d2) are the dimensions of the orthogonal pieces
    V_0 + V_1 + V_2; M is an invertible d2 x d1 matrix; F(x0, x1) must be
    bounded and uniformly continuous, and for d0 > 0 periodic w.r.t. the
    declared lattice (columns of the basis matrix) so that the remaining
    improper integral is a lattice-cell average.  Returns

        (1/vol Q) Int_Q F(x0 - M^(-1) v) dx0,

    which for d0 = 0 is the single value F(-M^(-1) v).  The cell average
    uses an equispaced grid, exact for trigonometric polynomials of
    frequency below the grid order.
    """
    d0, d1, d2 = dims
    M = np.asarray(M, dtype=float)
    if M.shape != (d2, d1) or d1 != d2:
        raise ValueError("M must be a square isomorphism V1 -> V2")
    v = np.asarray(v, dtype=float)
    shift = -np.linalg.solve(M, v)
    if d0 == 0:
        return complex(F(np.zeros(0), shift))
    if lattice is None:
        raise ValueError("periodic lattice required when V0 is nontrivial")
    T = np.asarray(lattice, dtype=float)
    if T.shape != (d0, d0) or abs(np.linalg.det(T)) < 1e-12:
        raise ValueError("lattice basis must be invertible")
    rng = np.random.default_rng(rng_seed)
    for _ in range(check_points):
        t = rng.random(d0)
        x0 = T @ t
        base = F(x0, shift)
        for k in range(d0):
            moved = F(x0 + T[:, k], shift)
            if abs(moved - base) > 1e-8 * (1.0 + abs(base)):
                raise ValueError(
                    "F is not periodic w.r.t. the declared lattice")
    ticks = (np.arange(grid) + 0.5) / grid
    total = 0.0 + 0.0j
    for t in product(ticks, repeat=d0):
        total += F(T @ np.asarray(t), shift)
    return total / grid ** d0


# ---------------------------------------------------------------------------
# regularized quadrature of a callable integrand on a grid


def _axis_points(radius, count):
    step = 2.0 * radius / count
    return -radius + (np.arange(count) + 0.5) * step, step


def _grid_quadrature(func, dim, radius, count):
    """Midpoint-rule integral of func over [-radius, radius]^dim.

    func takes an (M, dim) array of points and returns (M,) complex values.
    Points are evaluated in slabs of whole rows along the first axis, at
    most _BLOCK points per slab unless a single row is larger.
    """
    axis, step = _axis_points(radius, count)
    rows = max(1, _BLOCK // count ** (dim - 1))
    total = 0.0 + 0.0j
    for start in range(0, count, rows):
        grid = np.meshgrid(axis[start:start + rows], *[axis] * (dim - 1),
                           indexing="ij", copy=False)
        # a named slab is freed after the next is allocated; passed inline,
        # dimension 3 took about 40% more page faults
        pts = np.stack(grid, axis=-1).reshape(-1, dim)
        total += np.sum(func(pts))
    return total * step ** dim


def grid_oracle(mu, f, schedule=(0.1, 0.05, 0.025, 0.0125), tol=None,
                radius_pad=0.0, oversample=1.0):
    """oscillatory.epsilon_oracle for a callable integrand f.

    f maps an (M, dim) array of points to M values; the damped integrand
    f(x) exp(-(i/2) <x-m, S(x-m)> - eps |x|^2) is summed on the dense
    midpoint grid of each eps, in the coordinates x, and the values are
    scaled and extrapolated exactly as epsilon_oracle does.
    """
    S = np.array(mu.S)
    shift = np.array(mu.m)

    def quadrature(eps, radius, count):
        def integrand(pts):
            y = pts - shift
            phase = -0.5j * np.einsum("ij,jk,ik->i", y, S, y)
            damp = -eps * np.einsum("ij,ij->i", pts, pts)
            return np.asarray(f(pts), dtype=complex) * np.exp(phase + damp)
        return _grid_quadrature(integrand, mu.dim, radius, count)

    m_norm = float(np.max(np.abs(shift), initial=0.0))
    return _regularized_limit(mu, quadrature, m_norm, schedule, tol,
                              radius_pad, oversample)
