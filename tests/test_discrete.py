import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
import pytest
import scipy.linalg

import oracles
from numpy_models import (RibbonHolonomyInput, ad_matrix, block_action,
                          covariance_vanishing_check, det_fp_disc, hol_disc)
from oracles import build_twisted, inner
from shadow_wlo import discrete
from shadow_wlo.complex import RibbonStep, SurfaceComplex, \
    build_standard_surface
from shadow_wlo.lie import ad_det_k, is_regular, lie_data, \
    weight_multiplicities


A1 = lie_data("A1")
A2 = lie_data("A2")

B_HALF = (Fraction(1, 2),)       # <alpha, b> = 1/2, regular, ad det 4


def dihedron():
    """Two-vertex sphere decomposition with three parallel edges."""
    edges = {
        ("a",): (("n",), ("s",)),
        ("b",): (("n",), ("s",)),
        ("c",): (("n",), ("s",)),
    }
    faces = [
        (("f1",), [(("a",), 1), (("b",), -1)]),
        (("f2",), [(("b",), 1), (("c",), -1)]),
        (("f3",), [(("c",), 1), (("a",), -1)]),
    ]
    return SurfaceComplex(0, edges, faces)


def constant_field(cx, b):
    return {x: b for x in cx.qk_vertices}


# ---------------------------------------------------------------------------
# twisted operators


def test_hat_zero_twist_is_circulant_difference():
    n = 5
    op = build_twisted(A1, "hat", n, (0,))
    dim = discrete.algebra_dim(A1)
    shift = np.zeros((n, n))
    for t in range(n):
        shift[t, (t + 1) % n] = 1.0
    expected = n * (np.kron(shift, np.eye(dim)) - np.eye(n * dim))
    np.testing.assert_array_equal(op.matrix, expected)


def test_bar_is_mean_of_hat_and_check():
    b = (Fraction(1, 3), Fraction(1, 5))
    hat = np.array(build_twisted(A2, "hat", 4, b).matrix)
    chk = np.array(build_twisted(A2, "check", 4, b).matrix)
    bar = np.array(build_twisted(A2, "bar", 4, b).matrix)
    # identical exponentials on both sides make the identity exact
    np.testing.assert_array_equal(bar, (hat + chk) / 2.0)


@pytest.mark.parametrize("n", [2, 3, 4, 7])
@pytest.mark.parametrize("lie, b", [
    (A1, (Fraction(2, 7),)),
    (A1, (Fraction(-5, 2),)),                   # large pairing
    (A1, (Fraction(1),)),                       # singular: integer pairing
    (A2, (Fraction(2, 7), Fraction(1, 3))),
    (A2, (Fraction(7, 3), Fraction(-5, 2))),    # large pairings
    (A2, (Fraction(1), Fraction(0))),           # singular: integer pairings
], ids=["A1", "A1-large", "A1-singular", "A2", "A2-large", "A2-singular"])
def test_step_exponential_is_orthogonal(lie, b, n):
    # the hat operator's block at rows t = 0, columns t = 1 is n exp(ad(b)/n);
    # the closed-form rotation blocks must match the matrix exponential
    dim = discrete.algebra_dim(lie)
    mat = np.array(build_twisted(lie, "hat", n, b).matrix)
    fwd = mat[:dim, dim:2 * dim] / n
    assert np.max(np.abs(fwd.T @ fwd - np.eye(dim))) < 1e-13
    want = scipy.linalg.expm(ad_matrix(lie, b) / n)
    assert np.max(np.abs(fwd - want)) < 1e-13


def test_build_twisted_rejects_bad_input():
    with pytest.raises(ValueError):
        build_twisted(A1, "tilde", 3, (0,))
    with pytest.raises(ValueError):
        build_twisted(A1, "hat", 1, (0,))
    with pytest.raises(ValueError):
        build_twisted(A1, "bar", 3, (0,))


@pytest.mark.parametrize("variant", ["hat", "check", "bar"])
def test_twisted_consistent_with_continuum_operator(variant):
    # applied to samples of a smooth loop, the error against d/dt + ad(b)
    # halves when the step count doubles
    b = (0.3,)
    theta = 2.0 * math.pi * float(inner(A1, A1.positive_roots[0], b))

    def err(n):
        op = build_twisted(A1, variant, n, b)
        ts = np.arange(n) / n
        f1 = np.cos(2 * math.pi * ts)
        f2 = np.sin(2 * math.pi * ts)
        vec = np.zeros(3 * n)
        vec[1::3] = f1
        vec[2::3] = f2
        target = np.zeros(3 * n)
        # derivative plus the root-plane rotation by theta
        target[1::3] = -2 * math.pi * f2 - theta * f2
        target[2::3] = 2 * math.pi * f1 + theta * f1
        return np.max(np.abs(np.array(op.matrix) @ vec - target))

    ratio = err(200) / err(400)
    # the one-sided variants converge at first order; the mean variant is
    # centrally differenced and gains an extra order
    if variant == "bar":
        assert 3.2 < ratio < 4.8
    else:
        assert 1.6 < ratio < 2.5


def test_restricted_det_closed_forms_rank_one():
    # n^(n dim g) times the root-plane determinant 4 sin^2(pi/2) = 4;
    # the forward variant flips sign exactly when n-1 is odd
    val3 = discrete.det_twisted_restricted(A1, "hat", 3, B_HALF)
    assert abs(val3 - 4.0 * 3.0 ** 9) < 1e-8 * abs(val3)
    val4 = discrete.det_twisted_restricted(A1, "hat", 4, B_HALF)
    assert abs(val4 - (-4.0 * 4.0 ** 12)) < 1e-8 * abs(val4)
    chk4 = discrete.det_twisted_restricted(A1, "check", 4, B_HALF)
    assert abs(chk4 - 4.0 * 4.0 ** 12) < 1e-8 * abs(chk4)
    bar4 = discrete.det_twisted_restricted(A1, "bar", 4, B_HALF)
    assert abs(bar4 - 16.0 * 2.0 ** 12) < 1e-8 * abs(bar4)


def test_restricted_det_step_count_scaling():
    # det / n^(n dim g) is independent of n for the backward variant
    d4 = discrete.det_twisted_restricted(A1, "check", 4, B_HALF)
    d5 = discrete.det_twisted_restricted(A1, "check", 5, B_HALF)
    r4 = d4 / 4.0 ** 12
    r5 = d5 / 5.0 ** 15
    assert abs(r4 - r5) < 1e-8 * abs(r4)
    assert abs(r4 - 4.0) < 1e-8


@pytest.mark.parametrize("series", ["A1", "A2"])
def test_restricted_det_sign_table(series):
    lie = lie_data(series)
    b = tuple(Fraction(1, 3 + 2 * i) for i in range(lie.rank))
    assert is_regular(lie, b)
    for n in range(2, 6):
        hat = discrete.det_twisted_restricted(lie, "hat", n, b)
        chk = discrete.det_twisted_restricted(lie, "check", n, b)
        expect = -1.0 if (lie.rank % 2 and (n - 1) % 2) else 1.0
        assert math.copysign(1.0, hat) == expect
        # the backward shift determinant cancels the census sign
        assert chk > 0
        if n % 2 == 0:
            assert discrete.det_twisted_restricted(lie, "bar", n, b) > 0


def _random_regular(lie, rng):
    while True:
        b = tuple(rng.uniform(0.03, 0.97) for _ in range(lie.rank))
        margins = [abs(float(inner(lie, al, b)) - round(float(inner(lie, al, b))))
                   for al in lie.positive_roots]
        if min(margins) > 0.04:
            return b


@pytest.mark.parametrize("series,variant,n", [
    (s, v, n)
    for s in ("A1", "A2")
    for v in ("hat", "check", "bar")
    for n in range(2, 6)
    if not (v == "bar" and n % 2)
])
def test_restricted_det_matches_dense_kernel_free_route(series, variant, n):
    # independent route: commutator-built ad on su(r+1), numerically found
    # kernel, determinant on its orthogonal complement
    lie = lie_data(series)
    rng = np.random.default_rng(hash((series, variant, n)) % 2 ** 32)
    for _ in range(20):
        b = _random_regular(lie, rng)
        mine = discrete.det_twisted_restricted(lie, variant, n, b)
        dense = oracles.dense_restricted_det(
            oracles.dense_twisted_matrix(
                variant, n, oracles.dense_su_ad_full(lie.rank, b)))
        assert abs(mine - dense) < 1e-8 * max(abs(mine), abs(dense))


@pytest.mark.parametrize("n", [2, 3, 4])
def test_hat_eigenvalue_census_rank_one(n):
    # spectrum of hat/n: one circle of shifts against each root phase and
    # one against 1 for the Cartan direction
    b = (0.37,)
    theta = 2.0 * math.pi * float(inner(A1, A1.positive_roots[0], b))
    op = build_twisted(A1, "hat", n, b)
    got = sorted(np.linalg.eigvals(np.array(op.matrix) / n),
                 key=lambda z: (round(z.real, 7), round(z.imag, 7)))
    want = []
    for k in range(n):
        om = complex(math.cos(2 * math.pi * k / n), math.sin(2 * math.pi * k / n))
        for phase in (theta / n, -theta / n, 0.0):
            want.append(om * complex(math.cos(phase), math.sin(phase)) - 1.0)
    want.sort(key=lambda z: (round(z.real, 7), round(z.imag, 7)))
    used = [False] * len(got)
    for w in want:
        best = min((i for i in range(len(got)) if not used[i]),
                   key=lambda i: abs(got[i] - w))
        assert abs(got[best] - w) < 1e-8
        used[best] = True


def test_det_twisted_restricted_rejects_singular_twist():
    with pytest.raises(ValueError):
        discrete.det_twisted_restricted(A1, "hat", 3, (1,))


# ---------------------------------------------------------------------------
# assembled block operator


def test_block_action_is_symmetric():
    cube = build_standard_surface(0, 1)
    act = block_action(A1, cube, constant_field(cube, (Fraction(1, 3),)), 3)
    assert np.max(np.abs(act.matrix - act.matrix.T)) < 1e-12
    act2 = block_action(
        A2, dihedron(),
        constant_field(dihedron(), (Fraction(1, 5), Fraction(1, 7))), 2)
    assert np.max(np.abs(act2.matrix - act2.matrix.T)) < 1e-12


@pytest.mark.parametrize("series,n", [("A1", 2), ("A1", 3), ("A2", 2)])
def test_det_block_matches_restricted_assembly_dihedron(series, n):
    lie = lie_data(series)
    cx = dihedron()
    b = tuple(Fraction(1, 3 + 2 * i) for i in range(lie.rank))
    B = constant_field(cx, b)
    act = block_action(lie, cx, B, n)
    dense = float(np.linalg.det(act.restricted))
    closed = discrete.det_block(lie, B, n)
    assert abs(dense - closed) < 1e-7 * abs(closed)


def test_det_block_matches_restricted_assembly_cube():
    cube = build_standard_surface(0, 1)
    B = constant_field(cube, (Fraction(2, 5),))
    act = block_action(A1, cube, B, 2)
    dense = float(np.linalg.det(act.restricted))
    closed = discrete.det_block(A1, B, 2)
    assert abs(dense - closed) < 1e-7 * abs(closed)


@pytest.mark.parametrize("series,n", [("A1", 2), ("A1", 3), ("A2", 2)])
def test_det_block_matches_independent_dense_route(series, n):
    # full rebuild from commutator ad matrices, constraint rows and an SVD
    # complement, nothing shared with the module
    lie = lie_data(series)
    cx = dihedron()
    rng = np.random.default_rng(hash((series, n, "block")) % 2 ** 32)
    B = {x: _random_regular(lie, rng) for x in cx.qk_vertices}
    blocks = [oracles.dense_su_ad_full(lie.rank, B[("m", e)])
              for e in sorted(cx.edges)]
    dense = oracles.dense_block_restricted_det(n, blocks, lie.rank)
    closed = discrete.det_block(lie, B, n)
    assert abs(dense - closed) < 1e-7 * abs(closed)


def test_det_block_matches_independent_dense_route_cube():
    cube = build_standard_surface(0, 1)
    rng = np.random.default_rng(7)
    B = {x: _random_regular(A1, rng) for x in cube.qk_vertices}
    blocks = [oracles.dense_su_ad_full(1, B[("m", e)])
              for e in sorted(cube.edges)]
    dense = oracles.dense_block_restricted_det(2, blocks, 1)
    closed = discrete.det_block(A1, B, 2)
    assert abs(dense - closed) < 1e-7 * abs(closed)


def test_det_block_sign_odd_pair_count():
    # three dual pairs, rank 1, even n: the per-pair sign survives
    cx = dihedron()
    B = constant_field(cx, (Fraction(1, 3),))
    val = discrete.det_block(A1, B, 2)
    assert val < 0
    act = block_action(A1, cx, B, 2)
    assert float(np.linalg.det(act.restricted)) < 0


def test_det_block_constant_field_collapse():
    cx = dihedron()
    b = (Fraction(1, 3),)
    val = discrete.det_block(A1, constant_field(cx, b), 2)
    pairs = len(cx.edges)
    d = 2 * pairs * 2 * discrete.algebra_dim(A1)
    assert val == pytest.approx(-(2.0 ** d) * ad_det_k(A1, b) ** (2 * pairs))


def test_det_block_dependence_on_twist_channels_through_root_planes():
    # ratio of two assembled determinants equals the ratio of the squared
    # root-plane factors; this is what makes the partition function a
    # power of the same local quantity
    cx = dihedron()
    b1, b2 = (Fraction(1, 3),), (Fraction(2, 5),)
    act1 = block_action(A1, cx, constant_field(cx, b1), 2)
    act2 = block_action(A1, cx, constant_field(cx, b2), 2)
    got = float(np.linalg.det(act1.restricted)) / float(np.linalg.det(act2.restricted))
    want = (ad_det_k(A1, b1) / ad_det_k(A1, b2)) ** (2 * len(cx.edges))
    assert abs(got - want) < 1e-9 * abs(want)


def test_det_block_reports_singular_vertex():
    cx = dihedron()
    B = constant_field(cx, (Fraction(1, 3),))
    B[("m", ("b",))] = (1,)
    with pytest.raises(ValueError) as exc:
        discrete.det_block(A1, B, 2)
    assert "('m', ('b',))" in str(exc.value)


def test_det_fp_zero_and_constant():
    cube = build_standard_surface(0, 1)
    assert det_fp_disc(A1, constant_field(cube, (0,))) == 0.0
    b = (Fraction(1, 3),)
    val = det_fp_disc(A1, constant_field(cube, b))
    # 8 + 12 + 6 subdivision vertices, half power each
    assert val == pytest.approx(ad_det_k(A1, b) ** 13)


def test_det_fp_against_block_quotient():
    # det_fp / sqrt|det_block| only keeps the half powers of the corner and
    # center vertices net of the midpoints; check via a two-field ratio
    cube = build_standard_surface(0, 1)
    b1, b2 = (Fraction(1, 3),), (Fraction(2, 5),)

    def q(b):
        B = constant_field(cube, b)
        return det_fp_disc(A1, B) / math.sqrt(
            abs(discrete.det_block(A1, B, 2)))

    nv, ne, nf = 8, 12, 6
    want = (ad_det_k(A1, b1) / ad_det_k(A1, b2)) ** ((nv + nf - ne) / 2)
    assert abs(q(b1) / q(b2) - want) < 1e-10 * abs(want)


# ---------------------------------------------------------------------------
# ribbon holonomy


def _time_steps(n, winding, vert=("n",)):
    steps = []
    total = n * abs(winding)
    sgn = 1 if winding >= 0 else -1
    for k in range(total):
        steps.append(RibbonStep(
            t=(k * sgn) % n, l_vertex=("v", vert), lp_vertex=("c", vert),
            dt=sgn))
    return tuple(steps)


def test_hol_disc_identity_for_zero_fields():
    steps = (RibbonStep(t=0, l_sigma=((("h1", ("a",)), 1),),
                                 lp_sigma=((("d1", ("a",)), 1),)),
             ) + _time_steps(2, 1)
    inp = RibbonHolonomyInput(
        2, steps,
        {0: {("h1", ("a",)): (0,), ("d1", ("a",)): (0,)}, 1: {}},
        {("v", ("n",)): (0,), ("c", ("n",)): (0,)})
    rho = weight_multiplicities(A1, (2,))
    np.testing.assert_allclose(hol_disc(A1, inp, rho), np.eye(3),
                               atol=1e-14)


def test_hol_disc_constant_twist_winding():
    # winding 2 around the time circle against constant b: the result is
    # the representation of exp(2b), checked against an ordered product of
    # explicitly exponentiated step matrices
    n, lam, h = 2, 3, 0.3
    inp = RibbonHolonomyInput(
        n, _time_steps(n, 2), {}, {("v", ("n",)): (h,), ("c", ("n",)): (h,)})
    got = hol_disc(A1, inp, weight_multiplicities(A1, (lam,)))
    step = oracles.su2_rep_matrix(lam, h / n)
    product = np.eye(lam + 1, dtype=complex)
    for _ in range(2 * n):
        product = product @ step
    np.testing.assert_allclose(got, product, atol=1e-12)
    np.testing.assert_allclose(got, oracles.su2_rep_matrix(lam, 2 * h),
                               atol=1e-12)


def test_hol_disc_trace_is_weight_sum():
    n, lam, h = 3, 4, 0.21
    inp = RibbonHolonomyInput(
        n, _time_steps(n, -1), {}, {("v", ("n",)): (h,), ("c", ("n",)): (h,)})
    got = np.trace(hol_disc(A1, inp, weight_multiplicities(A1, (lam,))))
    want = sum(m * complex(math.cos(2 * math.pi * inner(A1, w, (-h,))),
                           math.sin(2 * math.pi * inner(A1, w, (-h,))))
               for w, m in weight_multiplicities(A1, (lam,)).items())
    assert abs(got - want) < 1e-12


def test_hol_disc_single_surface_step():
    steps = (RibbonStep(t=0, l_sigma=((("h1", ("a",)), 1),)),)
    inp = RibbonHolonomyInput(
        2, steps, {0: {("h1", ("a",)): (0.6,)}}, {})
    got = hol_disc(A1, inp, weight_multiplicities(A1, (1,)))
    # half of 0.6 paired with the weights +-1 under <1, h> = h/2
    want = np.diag([np.exp(0.3j * math.pi), np.exp(-0.3j * math.pi)])
    np.testing.assert_allclose(got, want, atol=1e-14)


def test_hol_disc_concatenation_and_cyclic_relabeling():
    n, lam = 2, 2
    b = {("v", ("n",)): (0.4,), ("c", ("n",)): (0.4,)}
    s1 = _time_steps(n, 1)
    s2 = _time_steps(n, 2)
    rho = weight_multiplicities(A1, (lam,))
    h1 = hol_disc(A1, RibbonHolonomyInput(n, s1, {}, b), rho)
    h2 = hol_disc(A1, RibbonHolonomyInput(n, s2, {}, b), rho)
    both = hol_disc(
        A1, RibbonHolonomyInput(n, s1 + s2, {}, b), rho)
    np.testing.assert_allclose(both, h1 @ h2, atol=1e-13)
    rolled = s2[1:] + s2[:1]
    np.testing.assert_allclose(
        hol_disc(A1, RibbonHolonomyInput(n, rolled, {}, b),
                          rho),
        h2, atol=1e-13)


def test_hol_disc_accepts_weight_table_pairs():
    n = 2
    b = {("v", ("n",)): (0.4,), ("c", ("n",)): (0.4,)}
    inp = RibbonHolonomyInput(n, _time_steps(n, 1), {}, b)
    as_dict = hol_disc(A1, inp, weight_multiplicities(A1, (2,)))
    as_pairs = hol_disc(
        A1, inp, list(weight_multiplicities(A1, (2,)).items()))
    np.testing.assert_array_equal(as_dict, as_pairs)


def test_hol_disc_rejects_out_of_range_time():
    steps = (RibbonStep(t=3, l_vertex=("v", ("n",)),
                                 lp_vertex=("c", ("n",)), dt=1),)
    inp = RibbonHolonomyInput(2, steps, {}, {("v", ("n",)): (0,),
                                                      ("c", ("n",)): (0,)})
    with pytest.raises(ValueError):
        hol_disc(A1, inp, {(0,): 1})


# ---------------------------------------------------------------------------
# covariance vanishing


@dataclass(frozen=True)
class _Ribbon:
    steps: tuple


@dataclass(frozen=True)
class _Link:
    n: int
    ribbons: tuple


def _ring_ribbon(tag, ring, n, winding=1, violate=False):
    """Paired boundary loops around one carved ring.

    The primal loop runs along the ring sides, the dual loop crosses the
    corner diagonals one ring further in; with violate the dual loop is
    moved onto the duals of ring 1's sides, which breaks the rule that the
    loops never touch the same primal/dual edge pair.
    """
    steps = []
    for i in range(4):
        e = ("rs", tag, ring, i)
        f = ("diag", tag, ring, (i + 1) % 4)
        if violate:
            v = ("rs", tag, 1, i)
            first = ((("d1", v), 1),)
            second = ((("d2", v), 1),)
        else:
            first = ((("d1", f), 1),)
            second = ((("d2", f), 1),)
        steps.append(RibbonStep(t=0, l_sigma=((("h1", e), 1),),
                                         lp_sigma=first))
        steps.append(RibbonStep(t=0, l_sigma=((("h2", e), 1),),
                                         lp_sigma=second))
    steps.extend(_time_steps(n, winding))
    return _Ribbon(tuple(steps))


def _carved_cube():
    return build_standard_surface(0, 1, sites=(2,))


def test_covariance_vanishes_single_ribbon():
    cx = _carved_cube()
    B = constant_field(cx, (Fraction(1, 3),))
    link = _Link(2, (_ring_ribbon(0, 1, 2),))
    rep = covariance_vanishing_check(A1, cx, link, B)
    assert rep
    assert rep.ok
    assert rep.max_abs < 1e-12
    assert rep.checked == 8 * 8
    assert rep.first_failure is None


def test_covariance_vanishes_nested_pair():
    cx = _carved_cube()
    B = constant_field(cx, (Fraction(1, 3),))
    link = _Link(2, (_ring_ribbon(0, 1, 2), _ring_ribbon(0, 2, 2, winding=-2)))
    rep = covariance_vanishing_check(A1, cx, link, B)
    assert rep.ok
    assert rep.max_abs < 1e-12
    assert rep.checked == 16 * 16


def test_covariance_detects_shared_pair():
    cx = _carved_cube()
    B = constant_field(cx, (Fraction(1, 3),))
    link = _Link(2, (_ring_ribbon(0, 1, 2),
                     _ring_ribbon(0, 2, 2, violate=True)))
    rep = covariance_vanishing_check(A1, cx, link, B)
    assert not rep
    assert rep.first_failure is not None
    l1, l2, val = rep.first_failure
    assert abs(val) > 1e-6
    assert {l1[0], l2[0]} == {0, 1}
    assert rep.max_abs > 1e-6


def test_covariance_pair_selection():
    cx = _carved_cube()
    B = constant_field(cx, (Fraction(1, 3),))
    link = _Link(2, (_ring_ribbon(0, 1, 2),))
    lab = (0, 0, 0)
    rep = covariance_vanishing_check(A1, cx, link, B,
                                              pairs=[(lab, lab)])
    assert rep.ok and rep.checked == 1
    with pytest.raises(ValueError):
        covariance_vanishing_check(A1, cx, link, B,
                                            pairs=[((0, 99, 0), lab)])


def test_covariance_empty_link():
    cx = _carved_cube()
    B = constant_field(cx, (Fraction(1, 3),))
    rep = covariance_vanishing_check(A1, cx, _Link(2, ()), B)
    assert rep.ok and rep.checked == 0 and rep.max_abs == 0.0
