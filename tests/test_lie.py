import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import oracles
from oracles import inner
from shadow_wlo import lie, statesum
from shadow_wlo.statesum import _rho_sine_constant


A1 = lie.lie_data("A1")
A2 = lie.lie_data("A2")
A3 = lie.lie_data("A3")
A4 = lie.lie_data("A4")


def test_root_data_normalization():
    # every root of the A series has squared length 2
    for data in (A1, A2, A3):
        for alpha in data.positive_roots:
            assert inner(data, alpha, alpha) == 2
    assert A1.dual_coxeter == 2
    assert A2.dual_coxeter == 3


exact_coords = st.one_of(
    st.integers(-9, 9),
    st.fractions(min_value=-5, max_value=5, max_denominator=12))


@settings(max_examples=200, deadline=None)
@given(st.sampled_from([A1, A2, A3, A4]), st.data())
def test_inner_exact_pairing_equals_the_gram_sum(data, draw):
    # ints and Fractions pair through scaled_gram with one division; the
    # result must be the very Fraction the entrywise gram sum gives
    r = data.rank
    x = tuple(draw.draw(exact_coords) for _ in range(r))
    y = tuple(draw.draw(exact_coords) for _ in range(r))
    want = sum(oracles.gram(data)[i][j] * x[i] * y[j]
               for i in range(r) for j in range(r))
    got = inner(data, x, y)
    assert got == want and type(got) is Fraction


def test_inner_float_coordinates_keep_the_gram_sum():
    b = (0.3, Fraction(1, 7))
    alpha = A2.positive_roots[2]
    want = sum(oracles.gram(A2)[i][j] * alpha[i] * b[j]
               for i in range(2) for j in range(2))
    assert inner(A2, alpha, b) == want
    assert isinstance(inner(A2, alpha, b), float)


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 6), st.data())
def test_root_pairings_equal_the_gram_pairing(rank, draw):
    # the span sums are the very rationals inner gives, in positive_roots
    # order, and all-int input keeps every pairing an int
    data = lie.lie_data(f"A{rank}")
    x = tuple(draw.draw(exact_coords) for _ in range(rank))
    got = lie.root_pairings(data, x)
    assert got == [inner(data, alpha, x) for alpha in data.positive_roots]
    if all(type(c) is int for c in x):
        assert all(type(t) is int for t in got)


def test_root_pairings_need_rank_coordinates():
    with pytest.raises(ValueError, match="needs 2 coordinates"):
        lie.root_pairings(A2, (1,))
    with pytest.raises(ValueError, match="needs 1 coordinates"):
        lie.root_pairings(A1, (1, 0))


def test_root_pairing_floats_are_bit_equal_to_the_gram_formulas():
    # quantum_dim, sine_product, ad_det_k, is_regular and the Step 6
    # constant against their former lie.inner formulas, compared with ==
    for data, top in ((A1, 30), (A2, 20), (A3, 10)):
        for k in range(data.dual_coxeter, top + 1):
            assert _rho_sine_constant(data, k) == \
                oracles.rho_sine_constant_inner(data, k)
            for lam in lie.level_labels(data, k):
                assert lie.quantum_dim(data, k, lam) == \
                    oracles.quantum_dim_inner(data, k, lam), (k, lam)
    rng = random.Random(17)
    walls = 0
    for data in (A1, A2, A3, A4):
        for _ in range(300):
            # small denominators, so that integer pairings (walls) occur too
            b = tuple(Fraction(rng.randint(-24, 24), rng.randint(1, 12))
                      for _ in range(data.rank))
            regular = lie.is_regular(data, b)
            assert regular == oracles.is_regular_inner(data, b), b
            walls += not regular
            assert lie.sine_product(data, b) == \
                oracles.sine_product_inner(data, b), b
            assert lie.ad_det_k(data, b) == oracles.ad_det_k_inner(data, b), b
    assert walls > 0


@pytest.mark.parametrize("rank", range(1, 5))
def test_weyl_group_oracle(rank):
    data = lie.lie_data(f"A{rank}")
    group = oracles.weyl_group(data)
    assert len(group) == math.factorial(rank + 1)
    ident = tuple(tuple(int(i == j) for j in range(rank))
                  for i in range(rank))
    assert (ident, 1) in group
    assert sum(sign for _, sign in group) == 0


def test_level_labels_a1_k4():
    labels = lie.level_labels(A1, 4)
    # alpha = 2*omega, so the documented set {0, alpha/2, alpha} is n = 0, 1, 2
    assert labels == [(0,), (1,), (2,)]


def test_level_labels_empty_below_dual_coxeter():
    assert lie.level_labels(A1, 1) == []
    assert lie.level_labels(A2, 2) == []
    assert lie.level_labels(A2, 3) == [(0, 0)]


def test_level_labels_a2_count():
    # constraint n1 + n2 <= k - 3
    assert len(lie.level_labels(A2, 5)) == 6
    assert len(lie.level_labels(A2, 7)) == 15


def test_quantum_dim_frozen_value():
    assert lie.quantum_dim(A1, 4, (1,)) == pytest.approx(math.sqrt(2), abs=1e-12)


def test_quantum_dim_positive_on_labels():
    for data, k in ((A1, 4), (A1, 7), (A2, 5), (A2, 7)):
        for lam in lie.level_labels(data, k):
            assert lie.quantum_dim(data, k, lam) > 0


def test_quantum_dim_matches_character_ratio():
    for data, k in ((A1, 5), (A2, 6), (A2, 7)):
        b = tuple(Fraction(c, k) for c in data.rho)
        for lam in lie.level_labels(data, k):
            shifted = tuple(a + p for a, p in zip(lam, data.rho))
            ref = oracles.character_ratio(oracles.weyl_group(data),
                                          oracles.gram(data), shifted,
                                          data.rho, b)
            assert abs(ref.imag) < 1e-9
            assert lie.quantum_dim(data, k, lam) == pytest.approx(
                ref.real, abs=1e-9)


def test_weight_table_matches_character_sum():
    cases = [(A1, (3,)), (A2, (1, 1)), (A2, (2, 1)), (A2, (3, 0)),
             (A3, (1, 0, 1)), (A3, (0, 1, 0)), (A3, (2, 1, 0))]
    points = {1: [(Fraction(1, 7),), (Fraction(2, 9),)],
              2: [(Fraction(1, 7), Fraction(3, 11)),
                  (Fraction(2, 9), Fraction(1, 5))],
              3: [(Fraction(1, 7), Fraction(3, 11), Fraction(2, 13)),
                  (Fraction(2, 9), Fraction(1, 5), Fraction(4, 17))]}
    for data, gamma in cases:
        table = lie.weight_multiplicities(data, gamma)
        for b in points[data.rank]:
            direct = sum(
                m * complex(math.cos(2 * math.pi * float(inner(data, beta, b))),
                            math.sin(2 * math.pi * float(inner(data, beta, b))))
                for beta, m in table.items())
            shifted = tuple(a + p for a, p in zip(gamma, data.rho))
            ref = oracles.character_ratio(oracles.weyl_group(data),
                                          oracles.gram(data), shifted,
                                          data.rho, b)
            assert direct == pytest.approx(ref, abs=1e-8)


def test_weight_table_total_dimension():
    for data, gamma in [(A1, (4,)), (A2, (1, 1)), (A2, (2, 2)), (A2, (3, 1)),
                        (A3, (1, 0, 1)), (A3, (0, 1, 0)), (A3, (2, 1, 0)),
                        (A3, (1, 2, 1))]:
        table = lie.weight_multiplicities(data, gamma)
        want = oracles.weyl_dimension(data.positive_roots,
                                      oracles.gram(data), gamma, data.rho)
        assert sum(table.values()) == want


@pytest.mark.parametrize("gamma", [(1,), (1, 0, 5), ()])
def test_weight_table_rejects_the_wrong_number_of_coordinates(gamma):
    with pytest.raises(ValueError, match="needs 2 coordinates"):
        lie.weight_multiplicities(A2, gamma)


@pytest.mark.parametrize("call", [
    lambda: lie.level_labels(A1, 4.9),
    lambda: lie.level_labels(A1, 4.0),
    lambda: lie.level_labels(A1, Fraction(4)),
    lambda: lie.weight_multiplicities(A1, (1.7,)),
    lambda: lie.weight_multiplicities(A2, (1.0, 0)),
    lambda: lie.fusion_coefficient(A1, 4.5, (1,), (1,), (0,)),
    lambda: lie.fusion_coefficient(A1, 4, (1.7,), (1,), (0,)),
    lambda: lie.fusion_coefficient(A1, 4, (1,), (1.2,), (0,)),
    lambda: lie.fusion_coefficient(A1, 4, (1,), (1,), (0.5,)),
    lambda: lie.lattice_points_in_scaled_box(A1, 2.5),
    lambda: lie.quantum_dim(A1, 4.9, (1,)),
    lambda: lie.quantum_dim(A1, 4, (1.5,)),
    lambda: lie.quantum_dim(A2, 7, (Fraction(1), 0)),
], ids=["level", "integral-float-level", "fraction-level", "color",
        "integral-float-color", "fusion-level", "fusion-color",
        "fusion-nu", "fusion-lam", "lattice-level", "quantum-dim-level",
        "quantum-dim-label", "quantum-dim-fraction-label"])
def test_non_integer_levels_and_weights_are_refused(call):
    with pytest.raises(ValueError, match="must be an integer"):
        call()


@pytest.mark.parametrize("k", [0, -3])
@pytest.mark.parametrize("call", [
    lambda k: lie.level_labels(A1, k),
    lambda k: lie.quantum_dim(A1, k, (0,)),
    lambda k: lie.lattice_points_in_scaled_box(A1, k),
    lambda k: statesum.wlo_unnormalized(A1, k, statesum.RibbonLink(0)),
    lambda k: statesum.shadow_invariant(A1, k, statesum.RibbonLink(0)),
    lambda k: statesum.compare_theorem(A1, k, statesum.RibbonLink(0)),
    lambda k: statesum.step6_identities(A1, k, statesum.RibbonLink(0)),
], ids=["labels", "quantum-dim", "lattice", "wlo", "shadow", "compare",
        "step6"])
def test_levels_below_one_are_refused(call, k):
    # no level-k table exists, so an empty or finite answer would be wrong;
    # every entry point reads k through lie._level, with one message
    with pytest.raises(ValueError, match="level must be a positive integer"):
        call(k)


def test_weight_table_rejects_non_dominant_highest_weight():
    for data, gamma in ((A1, (-1,)), (A2, (1, -1)), (A3, (0, -2, 1))):
        with pytest.raises(ValueError, match="dominant"):
            lie.weight_multiplicities(data, gamma)


def test_adjoint_multiplicities_a2():
    table = lie.weight_multiplicities(A2, (1, 1))
    assert table[(0, 0)] == 2
    for alpha in A2.positive_roots:
        assert table[alpha] == 1
        assert table[tuple(-c for c in alpha)] == 1
    assert sum(table.values()) == 8


def test_fusion_frozen_values():
    assert lie.fusion_coefficient(A1, 4, (1,), (1,), (0,)) == 1
    assert lie.fusion_coefficient(A1, 4, (1,), (1,), (1,)) == 0


def test_fusion_matches_truncated_cg():
    for k in range(3, 7):
        labels = lie.level_labels(A1, k)
        for mu in labels:
            for nu in labels:
                for lam in labels:
                    want = oracles.su2_truncated_cg(k, mu[0], nu[0], lam[0])
                    got = lie.fusion_coefficient(A1, k, mu, nu, lam)
                    assert got == want, (k, mu, nu, lam)


def test_fusion_unit_rows():
    labels = lie.level_labels(A2, 5)
    unit = (0, 0)
    for nu in labels:
        for lam in labels:
            assert lie.fusion_coefficient(A2, 5, unit, nu, lam) == \
                (1 if nu == lam else 0)
            assert lie.fusion_coefficient(A2, 5, nu, lam, unit) == \
                (1 if lam == nu else 0)


def test_fusion_a2_conjugation_convention():
    # the first slot enters through its weight system, so it is the
    # conjugate of the corresponding classical tensor factor:
    # N_{mu,nu}^lam counts lam in the classical product conj(mu) x nu
    # (k = 6 is high enough that the level truncation is inactive here)
    k = 6
    # conj((0,1)) x (1,0) = (1,0) x (1,0) = (2,0) + (0,1)
    assert lie.fusion_coefficient(A2, k, (0, 1), (1, 0), (2, 0)) == 1
    assert lie.fusion_coefficient(A2, k, (0, 1), (1, 0), (0, 1)) == 1
    assert lie.fusion_coefficient(A2, k, (0, 1), (1, 0), (1, 1)) == 0
    # conj((1,0)) x (1,0) = (0,1) x (1,0) = (0,0) + (1,1)
    assert lie.fusion_coefficient(A2, k, (1, 0), (1, 0), (0, 0)) == 1
    assert lie.fusion_coefficient(A2, k, (1, 0), (1, 0), (1, 1)) == 1
    assert lie.fusion_coefficient(A2, k, (1, 0), (1, 0), (2, 0)) == 0


def test_fusion_verlinde_dimension_rule():
    # quantum dimensions form a character of the fusion ring
    k = 5
    labels = lie.level_labels(A2, k)
    for mu in labels[:4]:
        for nu in labels:
            lhs = lie.quantum_dim(A2, k, mu) * lie.quantum_dim(A2, k, nu)
            rhs = sum(lie.fusion_coefficient(A2, k, mu, nu, lam)
                      * lie.quantum_dim(A2, k, lam) for lam in labels)
            assert lhs == pytest.approx(rhs, abs=1e-8)


def test_fusion_verlinde_dimension_rule_full_a2_k9_table():
    k = 9
    labels = lie.level_labels(A2, k)
    dims = {lam: lie.quantum_dim(A2, k, lam) for lam in labels}
    for mu in labels:
        for nu in labels:
            rhs = sum(lie.fusion_coefficient(A2, k, mu, nu, lam) * dims[lam]
                      for lam in labels)
            assert dims[mu] * dims[nu] == pytest.approx(rhs, abs=1e-8)


def _kac_walton(data, k, mu, nu, lam):
    return oracles.kac_walton_fusion(
        oracles.weyl_group(data), oracles.gram(data), data.simple_roots,
        data.rho,
        lie.weight_multiplicities(data, mu), k, nu, lam)


def test_fusion_table_matches_kac_walton_oracle():
    # every label triple of A1 k <= 8 and A2 k <= 5, colors beyond the
    # alcove too (signed or zero there: A2 k = 3 color (1,1) is minus the
    # identity), and the A2 k = 7 triples of the fundamental colors
    cases = [(A1, k, [(c,) for c in range(k + 1)]) for k in range(2, 9)]
    cases += [(A2, k, [(a, b) for a in range(k) for b in range(k - a)])
              for k in range(3, 6)]
    cases.append((A2, 7, [(1, 0), (0, 1)]))
    for data, k, colors in cases:
        labels = lie.level_labels(data, k)
        for mu in colors:
            for nu in labels:
                for lam in labels:
                    assert lie.fusion_coefficient(data, k, mu, nu, lam) == \
                        _kac_walton(data, k, mu, nu, lam), (k, mu, nu, lam)


def test_fusion_rows_cover_labels_and_hold_no_zeros():
    # one row per label, nonzero entries only, in label order; a color
    # outside the alcove has rows too, possibly empty
    for data, k, colors in ((A1, 4, [(1,), (2,), (5,)]),
                            (A2, 7, [(1, 0), (1, 1), (0, 3), (5, 0)]),
                            (A2, 20, [(1, 0), (2, 1)]),
                            (A3, 6, [(1, 0, 0), (0, 1, 0)])):
        labels = lie.level_labels(data, k)
        for mu in colors:
            rows = lie._fusion_table(data, k, mu)
            assert list(rows) == labels
            for nu, row in rows.items():
                assert all(n != 0 for n in row.values())
                assert list(row) == [lam for lam in labels if lam in row]
                for lam in labels:
                    assert lie.fusion_coefficient(data, k, mu, nu, lam) == \
                        row.get(lam, 0)


def test_fusion_coefficient_rejects_non_labels():
    assert lie.fusion_coefficient(A1, 4, (1,), (2,), (1,)) == 1
    with pytest.raises(ValueError, match="level-4 labels"):
        lie.fusion_coefficient(A1, 4, (1,), (3,), (2,))
    with pytest.raises(ValueError, match="level-4 labels"):
        lie.fusion_coefficient(A1, 4, (1,), (2,), (-1,))
    with pytest.raises(ValueError, match="level-5 labels"):
        lie.fusion_coefficient(A2, 5, (1, 0), (1, 0), (2, 1))
    with pytest.raises(ValueError, match="level-2 labels"):
        lie.fusion_coefficient(A2, 2, (0, 0), (0, 0), (0, 0))


def test_fusion_table_refuses_negative_multiplicities(monkeypatch):
    reduce = lie._alcove_reduce

    def flipped(data, k, v):
        v, sign = reduce(data, k, v)
        return v, -sign

    monkeypatch.setattr(lie, "_alcove_reduce", flipped)
    lie._fusion_table.cache_clear()
    try:
        with pytest.raises(ArithmeticError, match="negative"):
            lie.fusion_coefficient(A2, 4, (1, 0), (0, 0), (0, 1))
    finally:
        lie._fusion_table.cache_clear()


def test_ad_det_frozen_value():
    # b = alpha/4 pairs to 1/2 with the positive root
    assert lie.ad_det_k(A1, (Fraction(1, 2),)) == pytest.approx(4.0, abs=1e-12)


def test_ad_det_matches_dense_model():
    cases = [
        (A1, (Fraction(1, 3),)),
        (A1, (Fraction(2, 7),)),
        (A2, (Fraction(1, 5), Fraction(2, 7))),
        (A2, (Fraction(3, 8), Fraction(1, 9))),
    ]
    for data, b in cases:
        dense = oracles.dense_ad_det(data.rank, b)
        assert lie.ad_det_k(data, b) == pytest.approx(dense, rel=1e-8)


def test_sine_product_is_signed_square_root():
    for data, b in [(A1, (Fraction(1, 3),)),
                    (A2, (Fraction(1, 5), Fraction(2, 7)))]:
        s = lie.sine_product(data, b)
        assert s * s == pytest.approx(lie.ad_det_k(data, b), rel=1e-12)
    # odd under a simple reflection
    b = (Fraction(1, 5), Fraction(2, 7))
    refl = tuple(bc - b[0] * ac for bc, ac in zip(b, A2.simple_roots[0]))
    assert lie.sine_product(A2, refl) == pytest.approx(
        -lie.sine_product(A2, b), rel=1e-12)


def test_is_regular_exact_and_float():
    assert lie.is_regular(A1, (Fraction(1, 3),))
    assert lie.is_regular(A1, (Fraction(1, 2),))       # this is alpha/4
    assert not lie.is_regular(A1, (Fraction(1),))      # pairs to 1 with alpha
    # (1/2, 1/2) pairs to 1 with the highest root
    assert not lie.is_regular(A2, (Fraction(1, 2), Fraction(1, 2)))
    assert lie.is_regular(A2, (Fraction(1, 5), Fraction(1, 7)))
    assert not lie.is_regular(A1, (1.0 + 1e-12,))
    assert lie.is_regular(A1, (1.0 + 1e-6,))


def _assert_alcove_reduction(data, k, beta):
    """Check _alcove_reduce(beta) from first principles; returns (lam, sign).

    The reduced v lies in the closed level-k alcove, beta = w(v) + k*x for
    some (w, det) in the Weyl group and x with integer coroot coordinates,
    and det is the reported sign unless v is on a wall.
    """
    v, sign = lie._alcove_reduce(data, k, list(beta))
    assert all(c >= 0 for c in v)
    assert inner(data, v, data.theta) <= k
    dets = set()
    for w, det in oracles.weyl_group(data):
        wv = tuple(sum(w[i][j] * v[j] for j in range(data.rank))
                   for i in range(data.rank))
        x = oracles.coroot_coordinates(
            data, tuple(Fraction(b - c, k) for b, c in zip(beta, wv)))
        if all(c.denominator == 1 for c in x):
            dets.add(det)
    assert dets
    if sign != 0:
        assert dets == {sign}
    return tuple(c - p for c, p in zip(v, data.rho)), sign


def test_alcove_decompose_identity_region():
    # beta already in the open alcove reduces trivially
    k = 5
    lam = (1, 1)
    beta = tuple(a + p for a, p in zip(lam, A2.rho))
    assert lie._alcove_reduce(A2, k, list(beta)) == (list(beta), 1)
    assert _assert_alcove_reduction(A2, k, beta) == (lam, 1)


def test_alcove_decompose_roundtrip_and_parity():
    k = 6
    count = 0
    for beta in [(a, b) for a in range(-7, 8, 3) for b in range(-7, 8, 2)]:
        lam, sign = _assert_alcove_reduction(A2, k, beta)
        if sign == 0:
            continue
        count += 1
        # a regular lattice point reduces to an admissible label
        assert lam in lie.level_labels(A2, k)
    assert count > 10


def test_alcove_decompose_wall_detection():
    k = 4
    # on the theta wall: <beta, theta> = k
    assert _assert_alcove_reduction(A2, k, (2, 2))[1] == 0
    assert _assert_alcove_reduction(A1, 5, (0,))[1] == 0


@settings(max_examples=60, deadline=None)
@given(st.integers(-40, 40), st.integers(-40, 40),
       st.integers(1, 9), st.integers(1, 9))
def test_alcove_roundtrip_property(p1, p2, q1, q2):
    # the reduction must hold for arbitrary rational points, lattice or not
    k = 5
    beta = (Fraction(p1, q1), Fraction(p2, q2))
    lam, sign = _assert_alcove_reduction(A2, k, beta)
    if sign != 0:
        # the reduced point lies in the open fundamental alcove
        shifted = tuple(a + p for a, p in zip(lam, A2.rho))
        assert all(c > 0 for c in shifted)
        assert 0 < inner(A2, shifted, A2.theta) < k


@pytest.mark.parametrize("rank", range(1, 7))
def test_scaled_gram_is_the_integer_inverse_cartan(rank):
    # the integer pairing rests on two A_r facts: gram inverts the Cartan
    # matrix, so scaled_gram.x is (r+1) times the coroot coordinates, and
    # (r+1) * gram is an integer matrix
    data = lie.lie_data(f"A{rank}")
    gram = oracles.gram(data)
    for i in range(rank):
        for m in range(rank):
            # the Cartan entry (i, j) is coordinate i of alpha_j
            assert sum(data.simple_roots[j][i] * gram[j][m]
                       for j in range(rank)) == (i == m)
    assert data.scaled_gram == tuple(tuple((rank + 1) * g for g in row)
                                     for row in gram)
    assert all(type(c) is int for row in data.scaled_gram for c in row)


def test_integer_lattice_box_matches_fraction_filter():
    # one representative per coset of P/kQ, and |P/kQ| = (r+1) k^r
    cases = [(data, k) for data, top in ((A1, 6), (A2, 6), (A3, 4), (A4, 2))
             for k in range(1, top + 1)]
    cases += [(A1, 25), (A1, 40), (A2, 12), (A2, 20)]
    for data, k in cases:
        pts = lie.lattice_points_in_scaled_box(data, k)
        assert pts == oracles.lattice_box_fraction(data.simple_roots, k)
        assert len(pts) == (data.rank + 1) * k ** data.rank


def test_lattice_points_a1_k4():
    # coroot coordinate of the weight (j,) is j/2, so [0, 4) keeps j = 0..7
    pts = lie.lattice_points_in_scaled_box(A1, 4)
    assert pts == [(j,) for j in range(0, 8)]


def test_lattice_point_count_matches_orbit_count():
    # one representative per translation coset: the regular ones come in
    # Weyl-orbit families, one family per admissible label
    for data, k in ((A1, 4), (A1, 6), (A2, 5), (A2, 6)):
        pts = lie.lattice_points_in_scaled_box(data, k)
        regular = [p for p in pts
                   if lie.is_regular(data, tuple(Fraction(c, k) for c in p))]
        want = len(lie.level_labels(data, k)) * len(oracles.weyl_group(data))
        assert len(regular) == want
