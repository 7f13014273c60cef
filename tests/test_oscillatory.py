"""Oscillatory measure tests: frozen values, oracle cross-checks."""

import cmath
import math

import numpy as np
import pytest

from numpy_models import (
    _BLOCK,
    _grid_quadrature,
    covariance,
    delta_limit,
    factorized_expectation,
    grid_oracle,
    wick_moment,
)
from shadow_wlo.oscillatory import (
    OscGaussMeasure,
    epsilon_oracle,
    first_second_moments,
    integrate_constant,
    phase_det,
)

SQRT_I_PI = cmath.sqrt(1j * math.pi)


def fresnel_measure():
    # d mu = exp(i x^2) dx, so S = -2, Z = 1
    return OscGaussMeasure(np.array([[-2.0]]), np.zeros(1), 1.0)


def pairing_measure():
    # d mu = (1/2 pi) exp(i x1 x2) dx
    S = -np.array([[0.0, 1.0], [1.0, 0.0]])
    return OscGaussMeasure(S, np.zeros(2), 2 * math.pi)


def test_oracle_fresnel_constant():
    got = grid_oracle(fresnel_measure(), lambda p: np.ones(len(p)),
                      tol=1e-3)
    assert abs(got - SQRT_I_PI) < 1e-3


def test_oracle_fresnel_exponential():
    # exp(x) exp(-eps x^2) carries mass out to 1/(2 eps) + O(1/sqrt(eps)),
    # so pad the box and keep eps large enough that the pad covers it
    got = grid_oracle(fresnel_measure(),
                      lambda p: np.exp(p[:, 0]),
                      schedule=(0.1, 0.05, 0.025, 0.0167),
                      radius_pad=45.0, oversample=1.6, tol=1e-3)
    want = cmath.exp(0.25j) * SQRT_I_PI
    assert abs(got - want) < 1e-3


def test_oracle_pairing_cosine():
    got = grid_oracle(pairing_measure(), lambda p: np.cos(p[:, 0]),
                      tol=1e-3)
    assert abs(got - 1.0) < 1e-3


def test_oracle_budget_guard():
    mu = OscGaussMeasure(-2.0 * np.eye(3), np.zeros(3), 1.0)
    with pytest.raises(ValueError, match="oracle budget exceeded"):
        grid_oracle(mu, lambda p: np.ones(len(p)), schedule=(0.001,))
    # the eigenbasis path refuses what the grid path refuses
    with pytest.raises(ValueError, match="oracle budget exceeded"):
        epsilon_oracle(mu, (), schedule=(0.001,))


def test_phase_det_squares_to_determinant():
    rng = np.random.default_rng(11)
    for _ in range(20):
        d = int(rng.integers(1, 5))
        A = rng.normal(size=(d, d))
        S = (A + A.T) / 2 + 0.3 * np.eye(d)
        value = phase_det(S).value
        assert abs(value ** 2 - np.linalg.det(1j * S)) < 1e-9 * max(
            1.0, abs(value) ** 2)


def test_integrate_constant_fresnel():
    assert abs(integrate_constant(fresnel_measure()) - SQRT_I_PI) < 1e-12


def test_integrate_constant_normalized_is_one():
    rng = np.random.default_rng(5)
    for _ in range(10):
        d = int(rng.integers(1, 4))
        A = rng.normal(size=(d, d))
        S = (A + A.T) / 2 + 1.2 * np.eye(d)
        mu = OscGaussMeasure.make_normalized(S, m=rng.normal(size=d))
        assert abs(integrate_constant(mu) - 1.0) < 1e-12
        assert mu.normalized


def test_integrate_constant_antidiagonal_pair():
    # eigenvalues +1 and -1: the quarter-turn phases cancel exactly
    assert abs(integrate_constant(pairing_measure()) - 1.0) < 1e-12


def _random_measure(rng, d, lam_range=(1.0, 2.0)):
    # |eigenvalues| bounded away from zero: the regularized integral is
    # analytic in eps with radius ~ lam_min/2, which the schedules rely on
    lam = rng.uniform(*lam_range, size=d) * rng.choice([-1.0, 1.0], size=d)
    Q, _ = np.linalg.qr(rng.normal(size=(d, d)))
    S = Q @ np.diag(lam) @ Q.T
    m = rng.uniform(-0.5, 0.5, size=d)
    return OscGaussMeasure.make_normalized((S + S.T) / 2, m=m)


@pytest.mark.parametrize("d,count,lam_range,schedule", [
    (1, 30, (1.0, 2.0), (0.1, 0.05, 0.025, 0.0125)),
    (2, 15, (1.0, 2.0), (0.1, 0.05, 0.033, 0.025)),
    (3, 4, (1.0, 1.4), (0.15, 0.12, 0.1, 0.075, 0.05)),
])
def test_constant_integral_matches_oracle(d, count, lam_range, schedule):
    rng = np.random.default_rng(100 + d)
    for _ in range(count):
        mu = _random_measure(rng, d, lam_range)
        got = epsilon_oracle(mu, (), schedule=schedule)
        assert abs(got - integrate_constant(mu)) < 1e-3


def _linear_product(vectors):
    """The callable form of prod_j <v_j, x>, for the grid path."""
    def f(p):
        out = np.ones(len(p), dtype=complex)
        for v in vectors:
            out *= p @ v
        return out
    return f


@pytest.mark.parametrize("d,count", [(1, 3), (2, 3), (3, 1)])
def test_vector_integrand_matches_grid_at_fixed_eps(d, count):
    # At one eps both paths approximate the same regularized integral by
    # midpoint sums of the same step, the grid over a box in x and the
    # eigenbasis path over a box in y = Q^T x.  The boxes truncate where
    # the damping is about 1e-9, which a degree-4 product lifts to about
    # 1e-6 relative; the pad moves both edges out so that only the sums
    # are compared.
    rng = np.random.default_rng(300 + d)
    for _ in range(count):
        mu = _random_measure(rng, d)
        assert any(x != 0 for x in mu.m)
        for k in (0, 1, 2, 4):
            vectors = [rng.uniform(-1, 1, size=d) for _ in range(k)]
            got = epsilon_oracle(mu, vectors, schedule=(0.3,),
                                 radius_pad=3.0)
            want = grid_oracle(mu, _linear_product(vectors),
                               schedule=(0.3,), radius_pad=3.0)
            assert abs(got - want) <= 1e-6 * abs(want)


def test_vector_integrand_rejects_mismatched_dimension():
    with pytest.raises(ValueError, match="dimension"):
        epsilon_oracle(pairing_measure(), ([1.0, 0.0, 0.0],))


@pytest.mark.parametrize("dim,count", [(1, 150000), (2, 300), (3, 70),
                                       (3, 260)])
def test_grid_quadrature_bounds_each_evaluation(dim, count):
    sizes = []

    def func(pts):
        sizes.append(len(pts))
        return np.ones(len(pts), dtype=complex)

    total = _grid_quadrature(func, dim, 1.0, count)
    assert max(sizes) <= max(_BLOCK, count ** (dim - 1))
    assert sum(sizes) == count ** dim
    assert abs(total - 2.0 ** dim) < 1e-9


def test_grid_quadrature_slabs_sum_to_one_dense_block():
    def func(pts):
        return np.exp(1j * pts[:, 0] * pts[:, 1] - 0.1 * (pts ** 2).sum(1))

    count, radius = 300, 3.0
    step = 2 * radius / count
    axis = -radius + (np.arange(count) + 0.5) * step
    xs, ys = np.meshgrid(axis, axis, indexing="ij")
    dense = np.sum(func(np.column_stack([xs.ravel(), ys.ravel()]))) * step ** 2
    assert count ** 2 > _BLOCK
    got = _grid_quadrature(func, 2, radius, count)
    assert abs(got - dense) <= 1e-12 * abs(dense)


def test_moments_fresnel_normalized():
    mu = OscGaussMeasure.make_normalized(np.array([[-2.0]]))
    first, second = first_second_moments(mu, [1.0], [1.0])
    assert abs(first) < 1e-14
    assert abs(second - 0.5j) < 1e-14


def test_moments_pairing_vanish():
    first, second = first_second_moments(pairing_measure(), [1, 0], [1, 0])
    assert first == 0 and abs(second) < 1e-14


def test_moments_with_mean_match_oracle():
    # pins the <v,m><w,m> term in the second moment
    mu = OscGaussMeasure.make_normalized(np.array([[-2.0]]), m=[0.7])
    first, second = first_second_moments(mu, [1.0], [1.0])
    assert abs(first - 0.7) < 1e-14
    assert abs(second - (0.5j + 0.49)) < 1e-14
    got = epsilon_oracle(mu, ([1.0], [1.0]))
    assert abs(got - second) < 1e-3
    got1 = epsilon_oracle(mu, ([1.0],))
    assert abs(got1 - first) < 1e-3


def test_moments_reject_degenerate():
    mu = OscGaussMeasure(np.zeros((1, 1)), np.zeros(1), 1.0)
    with pytest.raises(ValueError):
        first_second_moments(mu, [1.0], [1.0])


def test_wick_fourth_moment_fresnel():
    mu = OscGaussMeasure.make_normalized(np.array([[-2.0]]))
    # E[x^4] = 3 cov^2 = 3 (i/2)^2 = -3/4
    got = wick_moment(mu, [np.array([1.0])] * 4)
    assert abs(got - (-0.75)) < 1e-14
    num = epsilon_oracle(mu, [np.array([1.0])] * 4)
    assert abs(num - got) < 1e-3


def test_wick_moments_match_oracle_coupled():
    A = np.array([[-2.0, 0.5], [0.5, -1.0]])
    mu = OscGaussMeasure.make_normalized(A)
    rng = np.random.default_rng(3)
    vs = [rng.uniform(-1, 1, size=2) for _ in range(4)]
    want = wick_moment(mu, vs)
    assert abs(epsilon_oracle(mu, vs) - want) < 1e-3
    # odd products vanish
    assert wick_moment(mu, vs[:3]) == 0
    assert abs(epsilon_oracle(mu, vs[:3])) < 1e-3


def test_factorized_expectation_pairing():
    mu = pairing_measure()
    got = factorized_expectation(mu, [(np.array([1.0, 0.0]), 0.0)],
                                 lambda z: cmath.cos(z))
    assert got == cmath.cos(0)
    num = grid_oracle(mu, lambda p: np.cos(p[:, 0]))
    assert abs(num - got) < 1e-3


def test_factorized_expectation_exponential_and_powers():
    mu = pairing_measure()
    Y = (np.array([1.0, 0.0]), 0.4)
    got = factorized_expectation(mu, [Y], lambda z: cmath.exp(z))
    assert abs(got - cmath.exp(0.4)) < 1e-14
    got = factorized_expectation(mu, [Y] * 3,
                                 lambda a, b, c: a * b * c)
    assert abs(got - 0.4 ** 3) < 1e-14


def test_factorized_expectation_refuses_nonzero_covariance():
    mu = OscGaussMeasure.make_normalized(np.array([[-2.0]]))
    with pytest.raises(ValueError, match="covariance"):
        factorized_expectation(mu, [(np.array([1.0]), 0.0)], lambda z: z)


def test_covariance_of_pairing_directions():
    mu = pairing_measure()
    e1 = np.array([1.0, 0.0])
    e2 = np.array([0.0, 1.0])
    assert abs(covariance(mu, e1, e1)) < 1e-14
    assert abs(covariance(mu, e2, e2)) < 1e-14
    assert abs(covariance(mu, e1, e2) - (-1j) * (-1.0)) < 1e-14


def test_delta_limit_point_case_matches_inverse():
    rng = np.random.default_rng(17)
    for d1 in (1, 2):
        M = rng.normal(size=(d1, d1)) + 2 * np.eye(d1)
        v = rng.normal(size=d1)
        shift = -np.linalg.solve(M, v)

        def F(x0, x1):
            return cmath.exp(1j * float(np.sum(x1)))

        got = delta_limit((0, d1, d1), M, F, v)
        assert abs(got - cmath.exp(1j * float(np.sum(shift)))) < 1e-12


def test_delta_limit_trivial():
    got = delta_limit((0, 1, 1), [[1.0]],
                      lambda x0, x1: 1.0, [0.0])
    assert got == 1.0


def test_delta_limit_pairing_against_oracle():
    # Int~ f(x1) e^{i x2 v} dmu = f(-v) for the exp(i x1 x2) measure
    v = 0.8

    def f(t):
        return math.cos(t) + 0.3

    got = delta_limit((0, 1, 1), [[1.0]],
                      lambda x0, x1: f(float(x1[0])), [v])
    assert abs(got - f(-v)) < 1e-12
    mu = pairing_measure()
    num = grid_oracle(
        mu, lambda p: (np.cos(p[:, 0]) + 0.3) * np.exp(1j * p[:, 1] * v))
    assert abs(num - got) < 1e-3


def test_delta_limit_periodic_sector_coupled():
    # coupled periodic factor: cell average kills the mean-zero part
    v = 0.6

    def F(x0, x1):
        return math.cos(float(x0[0])) * math.cos(float(x1[0])) + 2.0

    got = delta_limit((1, 1, 1), [[1.0]], F, [v],
                      lattice=[[2 * math.pi]])
    assert abs(got - 2.0) < 1e-12


def test_delta_limit_degenerate_against_oracle():
    # degenerate measure on R^3: V0 = span e1, coupling x2 x3.  The
    # integrand is constant along V0 so the damped kernel direction
    # integrates to exactly 1 and the oracle sees only the coupled sector.
    S = np.zeros((3, 3))
    S[1, 2] = S[2, 1] = -1.0
    mu = OscGaussMeasure(S, np.zeros(3), 2 * math.pi)
    assert mu.degenerate and mu.kernel_dim == 1
    v = 0.6

    got = delta_limit((1, 1, 1), [[1.0]],
                      lambda x0, x1: math.cos(float(x1[0])) + 2.0, [v],
                      lattice=[[2 * math.pi]])
    assert abs(got - (math.cos(-v) + 2.0)) < 1e-12
    num = grid_oracle(
        mu,
        lambda p: (np.cos(p[:, 1]) + 2.0) * np.exp(1j * p[:, 2] * v),
        schedule=(0.15, 0.1, 0.075, 0.05))
    assert abs(num - got) < 1e-3


def test_kernel_sector_mean_zero_decay():
    # a mean-zero periodic function along ker S contributes
    # exp(-1/(4 eps)) at regularization eps: nonzero at any fixed eps,
    # gone in the limit.  Pin the decay law itself.
    mu = OscGaussMeasure(np.zeros((1, 1)), np.zeros(1), 1.0)
    for eps in (0.1, 0.05):
        raw = grid_oracle(mu, lambda p: np.cos(p[:, 0]),
                          schedule=(eps,))
        assert abs(raw - math.exp(-1.0 / (4 * eps))) < 1e-6


def test_delta_limit_cell_average_shift_invariance():
    def F(x0, x1):
        return cmath.exp(1j * float(x0[0])) + 1.5

    got = delta_limit((1, 1, 1), [[2.0]], F, [1.0],
                      lattice=[[2 * math.pi]])
    assert abs(got - 1.5) < 1e-12


def test_delta_limit_rejects_nonperiodic():
    with pytest.raises(ValueError, match="periodic"):
        delta_limit((1, 1, 1), [[1.0]],
                    lambda x0, x1: float(x0[0]), [0.0],
                    lattice=[[1.0]])


def test_delta_limit_requires_lattice():
    with pytest.raises(ValueError, match="lattice"):
        delta_limit((1, 1, 1), [[1.0]], lambda x0, x1: 1.0, [0.0])
