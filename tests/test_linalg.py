"""The pure-Python kernels against numpy as the oracle.

linalg.det, linalg.solve and linalg.eigh carry the selfcheck's restricted
determinants, Gauss moments and eigenbasis quadrature; numpy's LAPACK
routines are the reference here.  oscillatory._eigen_quadrature is checked
against its former numpy evaluation, frozen in tests/oracles.py.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import oracles
from shadow_wlo import cli, oscillatory
from shadow_wlo.linalg import det, eigh, solve


def _sparse(m):
    return [{j: x for j, x in enumerate(row) if x} for row in m]


def _hadamard(m):
    """Product of the row norms: a bound on |det| and its natural scale."""
    return math.prod(max(1.0, math.hypot(*row)) for row in m)


small_ints = st.integers(-3, 3).map(float)
floats = st.floats(-10.0, 10.0, allow_nan=False, allow_infinity=False)


def square(elements, max_size=7):
    return st.integers(1, max_size).flatmap(
        lambda n: st.lists(st.lists(elements, min_size=n, max_size=n),
                           min_size=n, max_size=n))


# ---------------------------------------------------------------------------
# determinant


@settings(max_examples=300, deadline=None)
@given(square(small_ints) | square(floats))
def test_det_matches_numpy(m):
    # small integer entries give many zero leading entries (pivoting) and
    # many exactly singular matrices
    want = float(np.linalg.det(np.array(m)))
    assert abs(det(_sparse(m)) - want) <= 1e-9 * _hadamard(m)


@settings(max_examples=100, deadline=None)
@given(square(floats, max_size=6), st.data())
def test_det_of_singular_matrices_vanishes(m, data):
    # a repeated row, or a row that is a multiple of another
    n = len(m)
    i = data.draw(st.integers(0, n - 1))
    j = data.draw(st.integers(0, n - 1))
    if i != j:
        c = data.draw(small_ints)
        m[j] = [c * x for x in m[i]]
    else:
        m[j] = [0.0] * n
    assert abs(det(_sparse(m))) <= 1e-9 * _hadamard(m)
    assert abs(float(np.linalg.det(np.array(m)))) <= 1e-9 * _hadamard(m)


@pytest.mark.parametrize("perm", [(1, 0), (1, 2, 0), (2, 0, 1), (1, 0, 3, 2),
                                  (3, 2, 1, 0), (0, 2, 1, 3, 4)])
def test_det_pivots_permutations_exactly(perm):
    n = len(perm)
    m = [[2.0 if perm[i] == j else 0.0 for j in range(n)] for i in range(n)]
    want = float(np.linalg.det(np.array(m)))
    assert det(_sparse(m)) == round(want)


def test_det_prefers_the_largest_pivot():
    # without row exchanges the 1e-20 pivot destroys the result
    m = [[1e-20, 1.0], [1.0, 1.0]]
    assert det(_sparse(m)) == pytest.approx(float(np.linalg.det(np.array(m))),
                                            rel=1e-15)


def test_det_reads_absent_columns_as_zeros():
    assert det([{1: 2.0}, {0: 3.0}]) == -6.0
    assert det([{0: 1.0}, {}]) == 0.0
    assert det([]) == 1.0


# ---------------------------------------------------------------------------
# solve


@settings(max_examples=200, deadline=None)
@given(square(floats, max_size=5), st.data())
def test_solve_matches_numpy(m, data):
    a = np.array(m)
    # keep the system well conditioned, so both solutions are accurate
    a += np.diag(np.sign(np.diag(a)) + (np.diag(a) == 0)) * (
        np.abs(a).sum(axis=1) + 1.0)
    rhs = data.draw(st.lists(floats, min_size=len(m), max_size=len(m)))
    want = np.linalg.solve(a, np.array(rhs))
    got = solve(a.tolist(), rhs)
    scale = max(1.0, float(np.max(np.abs(want))))
    assert np.max(np.abs(np.array(got) - want)) <= 1e-12 * scale


def test_solve_pivots_and_refuses_singular_systems():
    assert solve([[0.0, 2.0], [3.0, 0.0]], [4.0, 9.0]) == [3.0, 2.0]
    with pytest.raises(ValueError, match="singular"):
        solve([[1.0, 2.0], [2.0, 4.0]], [1.0, 1.0])
    with pytest.raises(ValueError):
        solve([[1.0, 2.0]], [1.0])


# ---------------------------------------------------------------------------
# Jacobi eigendecomposition


def _check_eigh(S):
    S = np.array(S)
    lam, Q = eigh(S.tolist())
    Q = np.array(Q)
    norm = max(1.0, float(np.max(np.abs(S))))
    assert lam == sorted(lam)
    assert np.max(np.abs(np.array(lam) - np.linalg.eigvalsh(S))) \
        <= 1e-12 * norm
    assert np.max(np.abs(Q @ np.diag(lam) @ Q.T - S)) <= 1e-12 * norm
    assert np.max(np.abs(Q.T @ Q - np.eye(len(S)))) <= 1e-13
    # eigenvectors of well separated eigenvalues agree up to sign
    want_lam, want_Q = np.linalg.eigh(S)
    for i in range(len(S)):
        gap = min((abs(want_lam[i] - x) for k, x in enumerate(want_lam)
                   if k != i), default=norm)
        if gap > 1e-3 * norm:
            overlap = abs(float(Q[:, i] @ want_Q[:, i]))
            assert abs(overlap - 1.0) <= 1e-9 * norm / gap
    return lam, Q


@settings(max_examples=300, deadline=None)
@given(square(floats, max_size=4))
def test_eigh_matches_numpy(m):
    a = np.array(m)
    _check_eigh((a + a.T) / 2)


@settings(max_examples=100, deadline=None)
@given(st.integers(2, 4).flatmap(
    lambda d: st.lists(st.lists(floats, min_size=d, max_size=d),
                       min_size=d - 1, max_size=d - 1)))
def test_eigh_finds_the_kernel_direction(rows):
    # S = A^T A from d-1 rows has a kernel; Jacobi must resolve it
    a = np.array(rows)
    S = a.T @ a
    lam, Q = _check_eigh(S)
    norm = max(1.0, float(np.max(np.abs(S))))
    assert abs(lam[0]) <= 1e-12 * norm
    assert np.max(np.abs(S @ Q[:, 0])) <= 1e-12 * norm


def test_eigh_on_the_selfcheck_measures():
    for S in ([[1.0]], [[2.0, 1.0], [1.0, 2.0]],
              [[0.2, 1.0, 0.3], [1.0, -0.4, 0.5], [0.3, 0.5, -1.1]],
              [[0.0, 0.0, 0.0], [0.0, 0.0, -1.0], [0.0, -1.0, 0.0]],
              -2.0 * np.eye(4)):
        _check_eigh(S)


# ---------------------------------------------------------------------------
# eigenbasis quadrature


def _close(got, want):
    return abs(got - want) <= 1e-9 * abs(want)


def test_eigen_quadrature_matches_numpy_on_the_selfcheck_calls(monkeypatch):
    calls = []
    quadrature = oscillatory._eigen_quadrature

    def spy(*args):
        calls.append(args)
        return quadrature(*args)

    monkeypatch.setattr(oscillatory, "_eigen_quadrature", spy)
    assert cli._suite_oscillatory()[0]
    # 4 + 5 + 4 schedule points of the three regularized integrals
    assert len(calls) == 13
    for args in calls:
        assert _close(quadrature(*args), oracles.eigen_quadrature_numpy(*args))


@pytest.mark.parametrize("lam,shift,forms", [
    ((1.3,), (0.4,), ()),
    ((1.3,), (0.4,), ((1.0,), (1.0,))),
    ((-0.7,), (-2.5,), ((1.0,),)),
])
def test_eigen_quadrature_matches_numpy_near_the_point_cap(lam, shift, forms):
    # the truncation radius of eps = 0.002, sampled just below the cap of
    # 200,000 points per axis in dimension 1
    eps = 0.002
    radius = math.sqrt(math.log(1e9) / eps) + abs(shift[0])
    count = 199999
    got = oscillatory._eigen_quadrature(lam, shift, forms, eps, radius, count)
    want = oracles.eigen_quadrature_numpy(lam, shift, forms, eps, radius,
                                          count)
    assert _close(got, want)
