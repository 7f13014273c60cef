"""Acceptance gate: one test per primary criterion, at stated tolerances.

Each test prints a single summary line on success, so a verbose run shows
exactly one pass/fail line per criterion.
"""

import cmath
import math
import time
from fractions import Fraction

import numpy as np
import pytest

import oracles
from numpy_models import covariance_vanishing_check, delta_limit, grid_oracle
from oracles import inner
from shadow_wlo import statesum as ss
from shadow_wlo.complex import build_standard_surface, kernel_check_B0
from shadow_wlo.discrete import det_block, det_twisted_restricted
from shadow_wlo.lie import (fusion_coefficient, is_regular, level_labels,
                            lie_data, quantum_dim)
from shadow_wlo.oscillatory import (OscGaussMeasure, epsilon_oracle,
                                    first_second_moments, integrate_constant)
from shadow_wlo.statesum import RibbonLink

A1 = lie_data("A1")
A2 = lie_data("A2")
SQRT_I_PI = cmath.sqrt(1j * math.pi)


@pytest.fixture(scope="module")
def corpus():
    return ss.corpus_links()


def _random_regular(lie, rng):
    while True:
        b = tuple(rng.uniform(0.03, 0.97) for _ in range(lie.rank))
        margins = [abs(float(inner(lie, al, b))
                       - round(float(inner(lie, al, b))))
                   for al in lie.positive_roots]
        if min(margins) > 0.04:
            return b


def test_criterion_1_theorem_equality_on_corpus(corpus):
    start = time.perf_counter()
    worst = 0.0
    coverage = {"m": set(), "winding": set(), "genus": set(), "series": set(),
                "offset": set()}
    for ent in corpus:
        lie = lie_data(ent.series)
        rep = ss.compare_theorem(lie, ent.level, ent.link)
        assert rep.rel_difference < 1e-9, ent.name
        worst = max(worst, rep.rel_difference)
        coverage["m"].add(len(ent.link.ribbons))
        coverage["genus"].add(ent.link.genus)
        coverage["series"].add(ent.series)
        coverage["offset"].add(ent.level - lie.dual_coxeter)
        for rib in ent.link.ribbons:
            coverage["winding"].add(rib.winding)
            assert float(inner(lie, rib.color, lie.theta)) <= 3
    elapsed = time.perf_counter() - start
    # the corpus must span the claimed envelope
    assert coverage["m"] == {0, 1, 2, 3}
    assert coverage["winding"] == {-2, -1, 0, 1, 2}
    assert coverage["genus"] == {0, 1}
    assert coverage["series"] == {"A1", "A2"}
    assert coverage["offset"] == {0, 1, 2, 3, 4}
    assert elapsed < 60.0
    print(f"PASS criterion 1: normalized state sums agree on all "
          f"{len(corpus)} corpus links, worst relative difference "
          f"{worst:.2e}, {elapsed:.1f}s")


def test_criterion_2_determinant_identities():
    start = time.perf_counter()
    worst = 0.0
    for lie in (A1, A2):
        rng = np.random.default_rng(20240 + lie.rank)
        bs = [_random_regular(lie, rng) for _ in range(20)]
        for b in bs:
            ad_b = oracles.dense_su_ad_full(lie.rank, b)
            for variant in ("hat", "check", "bar"):
                for n in (2, 3, 4, 5):
                    if variant == "bar" and n % 2:
                        continue
                    mine = det_twisted_restricted(lie, variant, n, b)
                    dense = oracles.dense_restricted_det(
                        oracles.dense_twisted_matrix(variant, n, ad_b))
                    rel = abs(mine - dense) / max(abs(mine), abs(dense))
                    assert rel < 1e-8, (lie.rank, variant, n, b)
                    worst = max(worst, rel)
    cube = build_standard_surface(0, 1)
    assert len(cube.edges) == 12
    for lie, n in ((A1, 2), (A1, 3), (A2, 2)):
        rng = np.random.default_rng(77 + 10 * lie.rank + n)
        B = {x: _random_regular(lie, rng) for x in cube.qk_vertices}
        blocks = [oracles.dense_su_ad_full(lie.rank, B[("m", e)])
                  for e in sorted(cube.edges)]
        dense = oracles.dense_block_restricted_det(n, blocks, lie.rank)
        closed = det_block(lie, B, n)
        rel = abs(dense - closed) / abs(closed)
        assert rel < 1e-7, (lie.rank, n)
        worst = max(worst, rel)
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    print(f"PASS criterion 2: restricted and block determinants match "
          f"dense SVD routes, worst relative difference {worst:.2e}, "
          f"{elapsed:.1f}s")


def test_criterion_3_oscillatory_closed_forms():
    start = time.perf_counter()
    fresnel = OscGaussMeasure(np.array([[-2.0]]), np.zeros(1), 1.0)
    # the three reference integrals of the one dimensional phase: constant,
    # square, and a linear exponential
    got = epsilon_oracle(fresnel, ())
    assert abs(got - SQRT_I_PI) < 1e-3
    got = epsilon_oracle(fresnel, ([1.0], [1.0]))
    assert abs(got - 0.5j * SQRT_I_PI) < 1e-3
    got = grid_oracle(fresnel, lambda p: np.exp(p[:, 0]),
                      schedule=(0.1, 0.05, 0.025, 0.0167),
                      radius_pad=45.0, oversample=1.6)
    assert abs(got - cmath.exp(0.25j) * SQRT_I_PI) < 1e-3
    # normalization and moment formulas against the oracle, dimensions 1-3
    rng = np.random.default_rng(5)
    for d, schedule in ((1, (0.1, 0.05, 0.025, 0.0125)),
                        (2, (0.1, 0.05, 0.033, 0.025)),
                        (3, (0.15, 0.12, 0.1, 0.075, 0.05))):
        lam = rng.uniform(1.0, 1.6, size=d) * rng.choice([-1.0, 1.0], size=d)
        Q = np.linalg.qr(rng.normal(size=(d, d)))[0]
        S = Q @ np.diag(lam) @ Q.T
        mu = OscGaussMeasure.make_normalized((S + S.T) / 2)
        got = epsilon_oracle(mu, (), schedule=schedule)
        assert abs(got - integrate_constant(mu)) < 1e-3
    mu = OscGaussMeasure.make_normalized(np.array([[-2.0]]), m=[0.7])
    first, second = first_second_moments(mu, [1.0], [1.0])
    assert abs(epsilon_oracle(mu, ([1.0],)) - first) < 1e-3
    assert abs(epsilon_oracle(mu, ([1.0], [1.0])) - second) < 1e-3
    # the degenerate pairing evaluates the partner factor at 0 and at the
    # negated solved point
    pairing = OscGaussMeasure(-np.array([[0.0, 1.0], [1.0, 0.0]]),
                              np.zeros(2), 2 * math.pi)

    def f(t):
        return math.cos(t) + 0.3

    for v in (0.0, 0.8):
        got = delta_limit((0, 1, 1), [[1.0]],
                          lambda x0, x1: f(float(x1[0])), [v])
        assert abs(got - f(-v)) < 1e-12
        num = grid_oracle(
            pairing,
            lambda p: (np.cos(p[:, 0]) + 0.3) * np.exp(1j * p[:, 1] * v))
        assert abs(num - got) < 1e-3
    rng2 = np.random.default_rng(17)
    for d1 in (1, 2):
        M = rng2.normal(size=(d1, d1)) + 2 * np.eye(d1)
        v = rng2.normal(size=d1)
        shift = -np.linalg.solve(M, v)
        got = delta_limit((0, d1, d1), M,
                          lambda x0, x1: cmath.exp(1j * float(np.sum(x1))),
                          v)
        assert abs(got - cmath.exp(1j * float(np.sum(shift)))) < 1e-12
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    print(f"PASS criterion 3: oscillatory closed forms reproduced by the "
          f"regularized oracle to 1e-3, {elapsed:.1f}s")


def test_criterion_4_shadow_baselines():
    assert abs(ss.shadow_invariant(A1, 3, RibbonLink(0)).value - 2) <= 1e-12
    assert abs(ss.shadow_invariant(A1, 4, RibbonLink(0)).value - 4) <= 1e-12
    for k in range(2, 9):
        want = sum(quantum_dim(A1, k, lam) ** 2
                   for lam in level_labels(A1, k))
        assert abs(ss.shadow_invariant(A1, k, RibbonLink(0)).value
                   - want) <= 1e-12
        assert abs(ss.shadow_invariant(A1, k, RibbonLink(1)).value
                   - (k - 1)) <= 1e-12
    print("PASS criterion 4: empty-link shadow values hit their exact "
          "baselines on the sphere and the torus")


def test_criterion_5_structural_suites(corpus):
    # projected-coboundary kernels on every generated complex
    complexes = {id(ent.embedded.complex): ent.embedded.complex
                 for ent in corpus}
    for g, refinement, sites in ((0, 1, ()), (0, 2, ()), (1, 2, ()),
                                 (0, 1, (2,)), (1, 2, (3,))):
        cx = build_standard_surface(g, refinement, sites)
        complexes[id(cx)] = cx
    for cx in complexes.values():
        assert kernel_check_B0(cx)

    # embedding battery and covariance vanishing on every corpus link
    worst_cov = 0.0
    for ent in corpus:
        ss.validate_link(ent.embedded)
        assert sum(ss.face_chi(ent.link)) == 2 - 2 * ent.link.genus
        if not ent.embedded.ribbons:
            continue
        lie = lie_data(ent.series)
        b = (Fraction(1, 3),) if lie.rank == 1 else (Fraction(1, 3),
                                                     Fraction(1, 7))
        assert is_regular(lie, b)
        B = {("m", e): b for e in ent.embedded.complex.edges}
        report = covariance_vanishing_check(lie, ent.embedded.complex,
                                            ent.embedded, B)
        assert report.ok, ent.name
        assert report.max_abs < 1e-10, ent.name
        worst_cov = max(worst_cov, report.max_abs)

    # Step 6's determinant and phase identities, once per coset and, on
    # the frozen per-term transform, once per term
    worst_res = 0.0
    for name in ("a1_g0_one_k4", "a1_g0_three_k6", "a2_g0_one_k4",
                 "a1_g1_two_k5", "a2_g1_one_k5"):
        ent = next(e for e in corpus if e.name == name)
        lie = lie_data(ent.series)
        worst, _ = ss.step6_identities(lie, ent.level, ent.link)
        assert worst <= 1e-10
        terms = oracles.wlo_terms_keyed(lie, ent.level, ent.link,
                                        ss._forest(ent.link))[3]
        for term in terms:
            st = oracles.step6_transform(lie, ent.level, ent.link, term)
            assert st.det_residual <= worst
        worst_res = max(worst_res, worst)

    # fusion tables against the truncated composition series oracle
    for k in range(1, 9):
        labels = level_labels(A1, k) if k >= 2 else []
        for a in labels:
            for b in labels:
                for c in labels:
                    assert fusion_coefficient(A1, k, a, b, c) == \
                        oracles.su2_truncated_cg(k, a[0], b[0], c[0])
    print(f"PASS criterion 5: kernel checks, embedding battery, "
          f"covariance bound {worst_cov:.1e}, transform determinant "
          f"residual bound {worst_res:.1e} with exact phases, fusion tables "
          f"exact")


def test_criterion_6_mode_agreement(corpus):
    """Each embedding realizes exactly the forest both state sums read.

    The sums see a link only through its ribbons' color, winding,
    orientation and parent, so equal forests give equal terms.  The cells
    must also reproduce the face Euler characteristics and the
    orientations of the abstract link; validation checks each ribbon's
    loops against its two adjacent faces.
    """
    for ent in corpus:
        abstract = [(r.color, r.winding, r.orientation, r.parent)
                    for r in ent.link.ribbons]
        embedded = [(r.color, r.winding, r.orientation, r.parent)
                    for r in ent.embedded.ribbons]
        assert embedded == abstract, ent.name
        faces = ss._EmbeddedFaces(ent.embedded)
        assert tuple(faces.chi) == ss.face_chi(ent.link), ent.name
        assert list(faces.jumps) == \
            [r.orientation for r in ent.link.ribbons], ent.name
    print(f"PASS criterion 6: embedded ribbons, face Euler characteristics"
          f" and orientations equal the abstract forest on all"
          f" {len(corpus)} corpus links")
