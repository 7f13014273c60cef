"""Oscillatory Gauss-type measures: exact formulas and a numeric oracle.

A measure here is d mu(x) = (1/Z) exp(-(i/2) <x-m, S(x-m)>) dx on R^d with
S symmetric.  Improper integrals are defined by the epsilon-regularization
lim (eps/pi)^(n/2) Int f(x) e^(-eps |x|^2) dmu(x) with n = dim ker S; the
closed forms below are certified against a direct quadrature of that limit
(epsilon_oracle), which shares no code with them.  The damping e^(-eps|x|^2)
is rotation invariant, so for the constant and for products of linear
forms prod_j <v_j, x> the regularized integral factors in the eigenbasis
of S into 1-D midpoint sums.

The phase determinant uses det^(1/2)(iS) = prod_k sqrt(i lambda_k) with
the principal square root, i.e. e^((pi i/4) sum sgn(lambda_k)) times
prod |lambda_k|^(1/2).  For degenerate S all formulas restrict S to the
orthogonal complement of its kernel; the normalization constant then
carries (2 pi)^(rank/2), which is what makes the constant integral 1.

Everything runs in plain Python on d <= 4: matrices are tuples of rows,
eigenvalues come from linalg.eigh (cyclic Jacobi) and the moments' solve
from linalg.solve.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import accumulate, chain, islice, product, repeat
from operator import add, mul

from .linalg import eigh, solve

__all__ = [
    "OscGaussMeasure",
    "PhaseDet",
    "phase_det",
    "epsilon_oracle",
    "integrate_constant",
    "first_second_moments",
]

_KERNEL_TOL = 1e-10
_RESTART = 256  # axis points between exact weight evaluations


def _dot(x, y):
    return sum(a * b for a, b in zip(x, y))


def _rows(S):
    return tuple(tuple(float(x) for x in row) for row in S)


@lru_cache(maxsize=64)
def _spectrum(S):
    """linalg.eigh of a matrix given as a tuple of rows, as tuples.

    A measure's eigenvalues, phase_det and epsilon_oracle all read the
    eigendecomposition of the same S, several times per closed form, so
    it is computed once per S.
    """
    lam, Q = eigh(S)
    return tuple(lam), tuple(map(tuple, Q))


def _nonzero_cut(lam):
    """|eigenvalue| at or below which an eigenvalue counts as zero."""
    return _KERNEL_TOL * max(1.0, max((abs(v) for v in lam), default=0.0))


@dataclass(frozen=True, eq=False)
class OscGaussMeasure:
    """The measure (1/Z) exp(-(i/2) <x-m, S(x-m)>) dx on R^d.

    S and m are stored as tuples of floats, the eigenvalues of S ascending.
    """

    S: tuple
    m: tuple
    Z: complex
    eigenvalues: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        S = _rows(self.S)
        m = tuple(float(x) for x in self.m)
        if any(len(row) != len(S) for row in S) or len(m) != len(S):
            raise ValueError("S must be square and m a matching vector")
        # symmetric to 1e-12 absolute plus 1e-5 relative
        if any(abs(x - S[j][i]) > 1e-12 + 1e-5 * abs(S[j][i])
               for i, row in enumerate(S) for j, x in enumerate(row)):
            raise ValueError("S must be symmetric")
        if self.Z == 0:
            raise ValueError("Z must be nonzero")
        object.__setattr__(self, "S", S)
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "eigenvalues", _spectrum(S)[0])

    @property
    def dim(self):
        return len(self.S)

    @property
    def kernel_dim(self):
        cut = _nonzero_cut(self.eigenvalues)
        return sum(1 for v in self.eigenvalues if abs(v) <= cut)

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
        d = cls(S, [0.0] * len(S) if m is None else m, 1.0)
        Z = (2 * math.pi) ** (d.rank / 2) / phase_det(d.S).value
        return cls(d.S, d.m, Z)


@dataclass(frozen=True)
class PhaseDet:
    value: complex
    eigenvalues: tuple
    signs: tuple


def phase_det(S):
    """det^(1/2)(iS) over the nonzero eigenvalues of symmetric S."""
    lam = _spectrum(_rows(S))[0]
    cut = _nonzero_cut(lam)
    nonzero = tuple(v for v in lam if abs(v) > cut)
    signs = tuple(1 if v > 0 else -1 for v in nonzero)
    mod = math.prod((math.sqrt(abs(v)) for v in nonzero), start=1.0)
    value = mod * cmath.exp(0.25j * math.pi * sum(signs))
    return PhaseDet(value, nonzero, signs)


# ---------------------------------------------------------------------------
# regularized quadrature oracle


def _axis_weights(lam, shift, eps, radius, count):
    """exp(-(i/2) lam (y - shift)^2 - eps y^2) at the axis midpoints.

    The midpoints are y_j = -radius + (j + 1/2) step with step =
    2 radius/count, and the weights come as an iterator.  The exponent is
    quadratic in j, so consecutive weights differ by a ratio r_j with
    r_(j+1) = r_j q, q = exp(2 a step^2), a = -(i/2) lam - eps: two complex
    products per point instead of an exp.  Weight and ratio are evaluated
    exactly every _RESTART points, which keeps the recurrence's rounding
    drift near 1e-13 relative.
    """
    step = 2.0 * radius / count
    a = -0.5j * lam - eps
    lin = 1j * lam * shift
    q = cmath.exp(2.0 * a * step * step)

    def block(j0):
        y0 = -radius + (j0 + 0.5) * step
        first = cmath.exp(-0.5j * lam * (y0 - shift) ** 2 - eps * y0 * y0)
        ratio = cmath.exp(a * (2.0 * y0 + step) * step + lin * step)
        size = min(_RESTART, count - j0)
        ratios = accumulate(repeat(q, size - 2), mul, initial=ratio)
        return islice(accumulate(ratios, mul, initial=first), size)

    return chain.from_iterable(map(block, range(0, count, _RESTART)))


def _eigen_quadrature(lam, shift, forms, eps, radius, counts):
    """Midpoint-rule integral of prod_j <a_j, y> times a separable weight.

    The weight is exp(-(i/2) sum_i lam_i (y_i - shift_i)^2 - eps |y|^2)
    over [-radius, radius]^d, where forms holds the a_j; axis i takes
    counts[i] midpoints.  Per axis i and power p <= len(forms) the 1-D
    midpoint sums of y^p times the axis weight are taken once; the product
    of the forms is expanded over the assignments of forms to axes,
    d^len(forms) products of those sums.
    """
    moments = []
    for li, si, count in zip(lam, shift, counts):
        step = 2.0 * radius / count
        # the midpoints by repeated addition: about 1e-13 off the exact
        # grid at the largest counts, far below the quadrature's accuracy
        y = list(accumulate(repeat(step, count - 1), add,
                            initial=-radius + 0.5 * step)) if forms else ()
        terms = _axis_weights(li, si, eps, radius, count)
        if forms:
            terms = list(terms)
        sums = [sum(terms)]
        for _ in forms:
            terms = list(map(mul, terms, y))
            sums.append(sum(terms))
        moments.append([x * step for x in sums])
    dim = len(lam)
    total = 0.0 + 0.0j
    for axes in product(range(dim), repeat=len(forms)):
        term = complex(math.prod(a[i] for a, i in zip(forms, axes)))
        for i in range(dim):
            term *= moments[i][axes.count(i)]
        total += term
    return total


def _oracle_points(eps, lam, m_norm, pad, oversample):
    """The truncation radius and the point count of each eigen-axis.

    The box is truncated where the eps-damping reaches ~1e-9: an error of
    ~1e-9 for a bounded integrand, ~radius^k * 1e-9 for a product of k
    linear forms.  Axis i is sampled fine enough for its own eigenvalue
    lam[i] that the aliasing error of the midpoint rule stays below
    ~1e-10.  The largest count is capped by dimension.
    """
    radius = math.sqrt(math.log(1e9) / eps) + m_norm + pad
    counts = []
    for li in lam:
        omega = math.sqrt(25.0 * (4.0 * eps ** 2 + li ** 2) / eps)
        step = 2.0 * math.pi / (1.3 * omega * oversample)
        counts.append(int(math.ceil(2.0 * radius / step)))
    caps = {1: 200000, 2: 2400, 3: 420, 4: 120}
    if max(counts) > caps[len(lam)]:
        raise ValueError(
            f"oracle budget exceeded: need {max(counts)} points per axis "
            f"in dimension {len(lam)} (eps={eps}, max |eigenvalue|="
            f"{max(map(abs, lam))})")
    return radius, counts


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


def _regularized_limit(mu, quadrature, m_norm, schedule, tol, radius_pad,
                       oversample):
    """Evaluate quadrature on each eps of the schedule and extrapolate.

    quadrature(eps, radius, counts) is the raw midpoint integral of the
    damped integrand over [-radius, radius]^d with counts[i] points on the
    eigen-axis of mu.eigenvalues[i]; m_norm is the largest |mean
    coordinate| in the coordinates it integrates.  Each value is scaled by
    (eps/pi)^(n/2)/Z and the schedule extrapolated to eps = 0 (see
    epsilon_oracle).
    """
    if mu.dim > 4:
        raise ValueError("oracle supports dimension <= 4")
    n = mu.kernel_dim
    values = []
    for eps in schedule:
        radius, counts = _oracle_points(eps, mu.eigenvalues, m_norm,
                                        radius_pad, oversample)
        raw = quadrature(eps, radius, counts)
        values.append((eps / math.pi) ** (n / 2) * raw / mu.Z)
    if len(values) < 2:
        return values[0]
    diagonal = _neville_to_zero(list(schedule), values)
    residuals = [abs(b - a) for a, b in zip(diagonal, diagonal[1:])]
    if tol is not None and residuals and residuals[-1] > tol:
        raise RuntimeError(
            f"oracle did not settle: residuals {residuals}")
    return diagonal[-1]


def epsilon_oracle(mu, vectors, schedule=(0.1, 0.05, 0.025, 0.0125),
                   tol=None, radius_pad=0.0, oversample=1.0):
    """Regularized numeric integral of prod_j <v_j, x> under mu.

    vectors holds the gradients v_j (() is the constant 1, the convention
    of a Wick moment).  Evaluates (eps/pi)^(n/2) Int prod_j <v_j, x>
    e^(-eps|x|^2) dmu for each eps in the schedule by midpoint quadrature
    and extrapolates the schedule polynomially to eps = 0.  The damping is
    rotation invariant, so the product is integrated in the eigenbasis of
    S, x = Q y, where the weight factors into 1-D midpoint sums; this
    reads the eigendecomposition of S (linalg.eigh) and nothing of
    phase_det, solve or the closed forms.

    The regularized value is analytic in eps with convergence radius about
    half the smallest nonzero |eigenvalue|, so the extrapolation error
    scales like prod(eps_i / radius); schedules need not reach tiny eps,
    which keeps the point counts bounded.  Returns the extrapolated value;
    if tol is given and the extrapolants have not settled to within tol,
    raises with the residual sequence.  radius_pad widens the truncation
    box: a product of k linear forms lifts the truncated tail by about
    radius^k.  oversample refines the step.  Each eigen-axis is sampled at
    the step its own |eigenvalue| needs.  Test oracle only: the budget
    caps the points per axis by dimension.
    """
    vectors = [tuple(float(x) for x in v) for v in vectors]
    if any(len(v) != mu.dim for v in vectors):
        raise ValueError("gradient vectors must have the measure's "
                         "dimension")
    lam, Q = _spectrum(mu.S)
    columns = list(zip(*Q))
    shift = [_dot(q, mu.m) for q in columns]
    forms = [[_dot(q, v) for q in columns] for v in vectors]

    def quadrature(eps, radius, counts):
        return _eigen_quadrature(lam, shift, forms, eps, radius, counts)

    m_norm = max((abs(x) for x in shift), default=0.0)
    return _regularized_limit(mu, quadrature, m_norm, schedule, tol,
                              radius_pad, oversample)


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
    v = [float(x) for x in v]
    w = [float(x) for x in w]
    first = _dot(v, mu.m)
    second = (-1j) * _dot(v, solve(mu.S, w)) + first * _dot(w, mu.m)
    return complex(first), complex(second)
