"""Oscillatory Gauss-type measures: exact formulas and a numeric oracle.

A measure here is d mu(x) = (1/Z) exp(-(i/2) <x-m, S(x-m)>) dx on R^d with
S symmetric.  Improper integrals are defined by the epsilon-regularization
lim (eps/pi)^(n/2) Int f(x) e^(-eps |x|^2) dmu(x) with n = dim ker S; the
closed forms below are certified against a direct quadrature of that limit
(epsilon_oracle), which shares no code with them.  The damping e^(-eps|x|^2)
is rotation invariant, so for the constant and for products of linear
forms prod_j <v_j, x> the regularized integral factors in the eigenbasis
of S into 1-D midpoint sums; any other integrand is summed on a grid.

The phase determinant uses det^(1/2)(iS) = prod_k sqrt(i lambda_k) with
the principal square root, i.e. e^((pi i/4) sum sgn(lambda_k)) times
prod |lambda_k|^(1/2).  For degenerate S all formulas restrict S to the
orthogonal complement of its kernel; the normalization constant then
carries (2 pi)^(rank/2), which is what makes the constant integral 1.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from itertools import permutations, product

import numpy as np

__all__ = [
    "OscGaussMeasure",
    "PhaseDet",
    "phase_det",
    "epsilon_oracle",
    "integrate_constant",
    "first_second_moments",
    "covariance",
    "factorized_expectation",
    "wick_moment",
    "delta_limit",
]

_KERNEL_TOL = 1e-10
_BLOCK = 1 << 16  # quadrature points per slab


@dataclass(frozen=True, eq=False)
class OscGaussMeasure:
    S: np.ndarray
    m: np.ndarray
    Z: complex
    eigenvalues: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        S = np.asarray(self.S, dtype=float)
        m = np.asarray(self.m, dtype=float)
        if S.ndim != 2 or S.shape[0] != S.shape[1] or m.shape != (S.shape[0],):
            raise ValueError("S must be square and m a matching vector")
        if not np.allclose(S, S.T, atol=1e-12):
            raise ValueError("S must be symmetric")
        if self.Z == 0:
            raise ValueError("Z must be nonzero")
        object.__setattr__(self, "S", S)
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "eigenvalues", np.linalg.eigvalsh(S))

    @property
    def dim(self):
        return self.S.shape[0]

    @property
    def centered(self):
        return bool(np.all(self.m == 0))

    def _kernel_mask(self):
        scale = max(1.0, float(np.max(np.abs(self.eigenvalues), initial=0.0)))
        return np.abs(self.eigenvalues) <= _KERNEL_TOL * scale

    @property
    def kernel_dim(self):
        return int(np.sum(self._kernel_mask()))

    @property
    def rank(self):
        return self.dim - self.kernel_dim

    @property
    def degenerate(self):
        return self.kernel_dim > 0

    @property
    def normalized(self):
        want = (2 * math.pi) ** (self.rank / 2) / phase_det(self.S).value
        return abs(self.Z - want) <= 1e-9 * abs(want)

    @classmethod
    def make_normalized(cls, S, m=None):
        S = np.asarray(S, dtype=float)
        if m is None:
            m = np.zeros(S.shape[0])
        d = cls(S, np.asarray(m, dtype=float), 1.0)
        Z = (2 * math.pi) ** (d.rank / 2) / phase_det(S).value
        return cls(S, d.m, Z)


@dataclass(frozen=True)
class PhaseDet:
    value: complex
    eigenvalues: tuple
    signs: tuple


def phase_det(S):
    """det^(1/2)(iS) over the nonzero eigenvalues of symmetric S."""
    lam = np.linalg.eigvalsh(np.asarray(S, dtype=float))
    scale = max(1.0, float(np.max(np.abs(lam), initial=0.0)))
    nonzero = lam[np.abs(lam) > _KERNEL_TOL * scale]
    signs = tuple(int(np.sign(v)) for v in nonzero)
    mod = float(np.prod(np.sqrt(np.abs(nonzero)))) if len(nonzero) else 1.0
    value = mod * cmath.exp(0.25j * math.pi * sum(signs))
    return PhaseDet(value, tuple(float(v) for v in nonzero), signs)


# ---------------------------------------------------------------------------
# regularized quadrature oracle


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


def _eigen_quadrature(lam, shift, forms, eps, radius, count):
    """Midpoint-rule integral of prod_j <a_j, y> times a separable weight.

    The weight is exp(-(i/2) sum_i lam_i (y_i - shift_i)^2 - eps |y|^2)
    over [-radius, radius]^d, where forms holds the a_j.  Per axis i and
    power p <= len(forms) the 1-D midpoint sums of y^p times the axis
    weight are taken once; the product of the forms is expanded over the
    assignments of forms to axes, d^len(forms) products of those sums.
    """
    y, step = _axis_points(radius, count)
    weight = np.exp(-0.5j * lam[:, None] * (y - shift[:, None]) ** 2
                    - eps * y ** 2)
    powers = y ** np.arange(len(forms) + 1)[:, None]
    moments = (weight @ powers.T) * step
    dim = len(lam)
    total = 0.0 + 0.0j
    for axes in product(range(dim), repeat=len(forms)):
        term = complex(math.prod(a[i] for a, i in zip(forms, axes)))
        for i in range(dim):
            term *= moments[i, axes.count(i)]
        total += term
    return total


def _oracle_points(eps, lam_max, m_norm, dim, pad, oversample):
    # truncation where the eps-damping reaches ~1e-9: an error of ~1e-9 for
    # a bounded integrand, ~radius^k * 1e-9 for a product of k linear
    # forms; sampling fine enough that the aliasing error of the midpoint
    # rule stays below ~1e-10
    radius = math.sqrt(math.log(1e9) / eps) + m_norm + pad
    omega = math.sqrt(25.0 * (4.0 * eps ** 2 + lam_max ** 2) / eps)
    step = 2.0 * math.pi / (1.3 * omega * oversample)
    count = int(math.ceil(2.0 * radius / step))
    caps = {1: 200000, 2: 2400, 3: 420, 4: 120}
    if count > caps[dim]:
        raise ValueError(
            f"oracle budget exceeded: need {count} points per axis in "
            f"dimension {dim} (eps={eps}, max |eigenvalue|={lam_max})")
    return radius, count


def _neville_to_zero(eps, values):
    """Polynomial extrapolation of (eps_i, v_i) to eps = 0.

    Returns the diagonal of the Neville tableau; the last entry is the
    extrapolated value and the difference of the last two estimates the
    remaining error.
    """
    n = len(values)
    T = [list(values)]
    for j in range(1, n):
        prev = T[-1]
        row = []
        for i in range(n - j):
            e_lo, e_hi = eps[i], eps[i + j]
            row.append((e_lo * prev[i + 1] - e_hi * prev[i])
                       / (e_lo - e_hi))
        T.append(row)
    return [T[j][0] for j in range(n)]


def epsilon_oracle(mu, f, schedule=(0.1, 0.05, 0.025, 0.0125), tol=None,
                   radius_pad=0.0, oversample=1.0):
    """Regularized numeric evaluation of the improper integral of f.

    Evaluates (eps/pi)^(n/2) Int f e^(-eps|x|^2) dmu for each eps in the
    schedule by midpoint quadrature and extrapolates the schedule
    polynomially to eps = 0.  f is either a callable on (M, dim) point
    arrays, integrated on a dense grid, or a sequence of gradient vectors
    v_j standing for prod_j <v_j, x> (() is the constant 1, the convention
    of wick_moment).  The damping is rotation invariant, so a product of
    linear forms is integrated in the eigenbasis of S, x = Q y, where the
    weight factors into 1-D midpoint sums over the same radius and step;
    that path calls eigh and nothing of phase_det, solve or the closed
    forms.  Both kinds share the truncation, the budget refusal (with the
    mean measured in the coordinates integrated) and the extrapolation.

    The regularized value is analytic in eps with convergence radius about
    half the smallest nonzero |eigenvalue|, so the extrapolation error
    scales like prod(eps_i / radius); schedules need not reach tiny eps,
    which keeps the grids bounded.  Returns the extrapolated value; if tol
    is given and the extrapolants have not settled to within tol, raises
    with the residual sequence.  radius_pad widens the truncation box for
    integrands that grow: a product of k linear forms lifts the truncated
    tail by about radius^k, and exp(c x) shifts the damped mass by
    c/(2 eps); the same factor shifts the spectrum by an imaginary
    frequency, eroding the aliasing margin, so such integrands should also
    raise oversample.  Test oracle only: the grid's cost grows quickly
    with dim.
    """
    if mu.dim > 4:
        raise ValueError("oracle supports dimension <= 4")
    n = mu.kernel_dim
    lam_max = float(np.max(np.abs(mu.eigenvalues), initial=0.0))
    if callable(f):
        S = mu.S
        shift = mu.m

        def quadrature(eps, radius, count):
            def integrand(pts):
                y = pts - shift
                phase = -0.5j * np.einsum("ij,jk,ik->i", y, S, y)
                damp = -eps * np.einsum("ij,ij->i", pts, pts)
                return np.asarray(f(pts), dtype=complex) * np.exp(phase + damp)
            return _grid_quadrature(integrand, mu.dim, radius, count)
    else:
        vectors = [np.asarray(v, dtype=float) for v in f]
        if any(v.shape != (mu.dim,) for v in vectors):
            raise ValueError("gradient vectors must have the measure's "
                             "dimension")
        lam, Q = np.linalg.eigh(mu.S)
        shift = Q.T @ mu.m
        forms = [Q.T @ v for v in vectors]

        def quadrature(eps, radius, count):
            return _eigen_quadrature(lam, shift, forms, eps, radius, count)
    m_norm = float(np.max(np.abs(shift), initial=0.0))
    values = []
    for eps in schedule:
        radius, count = _oracle_points(eps, lam_max, m_norm, mu.dim,
                                       radius_pad, oversample)
        raw = quadrature(eps, radius, count)
        values.append((eps / math.pi) ** (n / 2) * raw / mu.Z)
    if len(values) < 2:
        return values[0]
    diagonal = _neville_to_zero(list(schedule), values)
    residuals = [abs(b - a) for a, b in zip(diagonal, diagonal[1:])]
    if tol is not None and residuals and residuals[-1] > tol:
        raise RuntimeError(
            f"oracle did not settle: residuals {residuals}")
    return diagonal[-1]


# ---------------------------------------------------------------------------
# closed forms


def integrate_constant(mu):
    """(1/Z) (2 pi)^(rank/2) / det^(1/2)(iS'); equals 1 iff normalized."""
    return (2 * math.pi) ** (mu.rank / 2) / (mu.Z * phase_det(mu.S).value)


def first_second_moments(mu, v, w):
    """First moment of <v,x> and second moment of <v,x><w,x>.

    The second moment is (1/i) <v, S^(-1) w> + <v,m><w,m>; the first term
    is the covariance of the two linear maps under the inverted quadratic
    form, the second is the product of the means.
    """
    if not mu.normalized:
        raise ValueError("moment formulas require a normalized measure")
    if mu.degenerate:
        raise ValueError("S must be invertible")
    v = np.asarray(v, dtype=float)
    w = np.asarray(w, dtype=float)
    first = float(v @ mu.m)
    second = (-1j) * float(v @ np.linalg.solve(mu.S, w)) \
        + first * float(w @ mu.m)
    return complex(first), complex(second)


def covariance(mu, a, b):
    """Covariance (1/i) <a, S^(-1) b> of the linear parts of two affine maps."""
    if mu.degenerate:
        raise ValueError("S must be invertible")
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    return (-1j) * float(a @ np.linalg.solve(mu.S, b))


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
    firsts = [float(np.asarray(a) @ mu.m) + c for a, c in Ys]
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
