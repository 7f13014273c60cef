"""Independent reference computations used by the test suite.

Everything here is deliberately written against first principles (explicit
matrix models, truncated Clebsch-Gordan rules, brute-force quadrature,
dense linear algebra) rather than against the package's own algorithms.
These implementations are frozen: tests compare package output to them,
never the other way around.
"""

from __future__ import annotations

import cmath
import itertools
import math
from fractions import Fraction

import numpy as np
import scipy.linalg


# ---------------------------------------------------------------------------
# rank-1 fusion via the truncated Clebsch-Gordan rule


def su2_truncated_cg(k, n1, n2, n3):
    """Fusion multiplicity for rank-1 labels n*omega at level k.

    n counts half-spins doubled: label n corresponds to spin n/2, and the
    truncation keeps n <= k - 2.  Classical Clebsch-Gordan gives the range
    |n1-n2| .. n1+n2 in steps of 2; the level cuts it at 2(k-2) - n1 - n2.
    """
    top = min(n1 + n2, 2 * (k - 2) - n1 - n2)
    if n3 < abs(n1 - n2) or n3 > top:
        return 0
    if (n1 + n2 - n3) % 2 != 0:
        return 0
    return 1


# ---------------------------------------------------------------------------
# fusion by the windowed Kac-Walton sum, one coefficient at a time


def kac_walton_fusion(weyl, gram, simple_coroots, rho, weights, k, nu, lam):
    """N_{mu,nu}^lam as an alternating sum over Weyl group x translations.

    weights is the weight multiplicity dict of the color mu.  The sum runs
    over w in the finite Weyl group and k-scaled coroot translations kx
    with ||kx|| <= ||mu|| + ||nu|| + ||lam|| + 2||rho||, and adds
    sign(w) * mult_mu(nu + rho - w(lam + rho) - kx): the first slot enters
    through its weight system, so it is conjugated.
    """
    r = len(rho)
    g = np.array([[float(c) for c in row] for row in gram])

    def norm(x):
        x = np.array(x, dtype=float)
        return math.sqrt(float(x @ g @ x))

    mu_norm = max(norm(w) for w in weights)
    bound = mu_norm + norm(nu) + norm(lam) + 2 * norm(rho)
    cr = np.array(simple_coroots, dtype=float)
    lam_min = float(np.linalg.eigvalsh(cr @ g @ cr.T)[0])
    cmax = int(math.ceil(bound / (k * math.sqrt(lam_min)))) + 1
    lam_s = [a + b for a, b in zip(lam, rho)]
    nu_s = [a + b for a, b in zip(nu, rho)]
    shifts = []
    for coords in itertools.product(range(-cmax, cmax + 1), repeat=r):
        kx = [k * sum(c * cr_j[a] for c, cr_j in zip(coords, simple_coroots))
              for a in range(r)]
        if norm(kx) ** 2 <= bound * bound + 1e-9:
            shifts.append(kx)
    total = 0
    for w, sign in weyl:
        wls = [sum(w[i][j] * lam_s[j] for j in range(r)) for i in range(r)]
        for kx in shifts:
            target = tuple(nu_s[a] - wls[a] - kx[a] for a in range(r))
            total += sign * weights.get(target, 0)
    return total


# ---------------------------------------------------------------------------
# Weyl character quotient, evaluated numerically


def character_ratio(weyl, gram, top_shifted, rho, b):
    """chi_top(b) via the quotient of alternating exponential sums.

    weyl: iterable of (matrix, sign) integer tuples acting on weight coords.
    gram: Gram matrix of the weight basis (Fractions).
    top_shifted: highest weight plus rho, integer coords.
    b: evaluation point, rational coords.  Returns a complex number.
    """

    def pair(x, y):
        return float(sum(gram[i][j] * x[i] * y[j]
                         for i in range(len(x)) for j in range(len(y))))

    def alt_sum(mu):
        acc = 0j
        for w, sign in weyl:
            wm = tuple(sum(w[i][j] * mu[j] for j in range(len(mu)))
                       for i in range(len(mu)))
            acc += sign * cmath.exp(2j * math.pi * pair(wm, b))
        return acc

    num = alt_sum(top_shifted)
    den = alt_sum(rho)
    return num / den


# ---------------------------------------------------------------------------
# classical Weyl dimension, exact


def weyl_dimension(positive_roots, gram, lam, rho):
    """Product formula dimension of the irrep with highest weight lam."""
    dim = Fraction(1)
    shift = tuple(Fraction(a + b) for a, b in zip(lam, rho))
    rho_f = tuple(Fraction(c) for c in rho)
    for alpha in positive_roots:
        num = sum(gram[i][j] * shift[i] * alpha[j]
                  for i in range(len(lam)) for j in range(len(lam)))
        den = sum(gram[i][j] * rho_f[i] * alpha[j]
                  for i in range(len(lam)) for j in range(len(lam)))
        dim *= Fraction(num, den)
    assert dim.denominator == 1
    return int(dim)


# ---------------------------------------------------------------------------
# dense adjoint-determinant oracle in the traceless anti-Hermitian model


def model_diagonal(rank, weight_coords):
    """Hyperplane-model diagonal entries of a Cartan element.

    weight_coords are coordinates in the fundamental weight basis; the j-th
    fundamental weight is e_1 + ... + e_j - (j/(r+1)) * (1, ..., 1).
    """
    n = rank + 1
    d = [Fraction(0)] * n
    for j, c in enumerate(weight_coords, start=1):
        cf = Fraction(c)
        for a in range(n):
            d[a] += cf * (Fraction(1 if a < j else 0) - Fraction(j, n))
    return d


def _su_offdiag_basis(n):
    out = []
    for a in range(n):
        for b in range(a + 1, n):
            s = np.zeros((n, n), dtype=complex)
            s[a, b] = 1.0
            s[b, a] = -1.0
            out.append(s)
            t = np.zeros((n, n), dtype=complex)
            t[a, b] = 1j
            t[b, a] = 1j
            out.append(t)
    return out


def dense_ad_det(rank, weight_coords):
    """det(1 - exp(ad b)) on the off-diagonal part of su(rank+1).

    Built from actual matrix commutators and a dense matrix exponential, so
    it shares no code path with the root-product formula it checks.
    """
    n = rank + 1
    d = [float(x) for x in model_diagonal(rank, weight_coords)]
    h = np.diag([2j * math.pi * x for x in d])
    basis = _su_offdiag_basis(n)
    dim = len(basis)
    flat = np.array([m.reshape(-1) for m in basis]).T  # columns are basis
    flat_ri = np.vstack([flat.real, flat.imag])
    ad = np.zeros((dim, dim))
    for j, x in enumerate(basis):
        comm = h @ x - x @ h
        rhs = np.concatenate([comm.reshape(-1).real, comm.reshape(-1).imag])
        coef, *_ = np.linalg.lstsq(flat_ri, rhs, rcond=None)
        ad[:, j] = coef
    m = np.eye(dim) - scipy.linalg.expm(ad)
    return float(np.linalg.det(m))


# ---------------------------------------------------------------------------
# dense models of the time-twisted difference operators


def _su_basis_full(n):
    """Off-diagonal generators of su(n) followed by the n-1 diagonal ones."""
    out = _su_offdiag_basis(n)
    for a in range(n - 1):
        d = np.zeros((n, n), dtype=complex)
        d[a, a] = 1j
        d[a + 1, a + 1] = -1j
        out.append(d)
    return out


def dense_su_ad_full(rank, weight_coords):
    """Full ad(b) matrix on su(rank+1) from explicit commutators.

    Same construction as dense_ad_det but on the whole algebra; the Cartan
    columns come out zero because the model diagonal commutes with itself.
    Basis order puts the rank diagonal directions last, which callers rely
    on to locate the Cartan block.
    """
    n = rank + 1
    d = [float(x) for x in model_diagonal(rank, weight_coords)]
    h = np.diag([2j * math.pi * x for x in d])
    basis = _su_basis_full(n)
    dim = len(basis)
    flat = np.array([m.reshape(-1) for m in basis]).T
    flat_ri = np.vstack([flat.real, flat.imag])
    ad = np.zeros((dim, dim))
    for j, x in enumerate(basis):
        comm = h @ x - x @ h
        rhs = np.concatenate([comm.reshape(-1).real, comm.reshape(-1).imag])
        coef, *_ = np.linalg.lstsq(flat_ri, rhs, rcond=None)
        ad[:, j] = coef
    return ad


def dense_twisted_matrix(variant, n_time, ad_b):
    """Time-twisted difference operator as a dense square matrix.

    ad_b may come from any faithful matrix model of the Lie algebra.  The
    layout is time-major with one algebra block per step; blocks accumulate
    so that n_time = 2 (where forward and backward neighbours coincide)
    comes out right.
    """
    dim = ad_b.shape[0]
    fwd = scipy.linalg.expm(ad_b / n_time)
    bwd = scipy.linalg.expm(-ad_b / n_time)
    eye = np.eye(dim)
    out = np.zeros((n_time * dim, n_time * dim))

    def add(tr, tc, block):
        tc %= n_time
        out[tr * dim:(tr + 1) * dim, tc * dim:(tc + 1) * dim] += block

    for t in range(n_time):
        if variant == "hat":
            add(t, t + 1, n_time * fwd)
            add(t, t, -n_time * eye)
        elif variant == "check":
            add(t, t, n_time * eye)
            add(t, t - 1, -n_time * bwd)
        elif variant == "bar":
            add(t, t + 1, 0.5 * n_time * fwd)
            add(t, t - 1, -0.5 * n_time * bwd)
        else:
            raise ValueError(f"unknown variant {variant!r}")
    return out


def dense_restricted_det(m, rcond=None):
    """Determinant on the orthogonal complement of the kernel, via SVD.

    The kernel is found numerically, so this is independent of any analytic
    description of it.
    """
    kern = scipy.linalg.null_space(m, rcond=rcond)
    if kern.shape[1] == 0:
        return float(np.linalg.det(m))
    keep = scipy.linalg.null_space(kern.T)
    return float(np.linalg.det(keep.T @ m @ keep))


def dense_block_restricted_det(n_time, ad_blocks, cartan_dim):
    """Assembled dual-pair block operator determinant on the constrained space.

    ad_blocks holds one ad matrix per crossing pair of primal/dual edges.
    Coordinates are (pair, side, time, algebra); side 0 carries the forward
    twisted block, side 1 the backward one, and the duality rotation couples
    the sides with signs -1 (dual into primal) and +1 (primal into dual).
    The constrained subspace removes the time-constant Cartan direction of
    every side, built here from an explicit constraint matrix and an SVD
    null space; the Cartan directions are the last cartan_dim coordinates of
    each algebra block.
    """
    pairs = len(ad_blocks)
    dim = ad_blocks[0].shape[0]
    side = n_time * dim
    total = 2 * pairs * side
    m = np.zeros((total, total))
    for p, ad_b in enumerate(ad_blocks):
        hat = dense_twisted_matrix("hat", n_time, ad_b)
        chk = dense_twisted_matrix("check", n_time, ad_b)
        r1 = 2 * p * side
        r2 = r1 + side
        m[r1:r2, r2:r2 + side] = -chk
        m[r2:r2 + side, r1:r2] = hat
    rows = []
    for blk in range(2 * pairs):
        base = blk * side
        for a in range(dim - cartan_dim, dim):
            row = np.zeros(total)
            row[base + a:base + side:dim] = 1.0
            rows.append(row)
    keep = scipy.linalg.null_space(np.array(rows))
    return float(np.linalg.det(keep.T @ m @ keep))


def su2_rep_matrix(n_label, h_coord):
    """rho(exp(b)) for the rank-1 label n at b = h_coord * omega.

    Built by exponentiating the explicit weight-space generator, for use in
    ordered matrix products that cross-check abelian holonomy bookkeeping.
    """
    weights = [n_label - 2 * j for j in range(n_label + 1)]
    gen = np.diag([1j * math.pi * w for w in weights])
    return scipy.linalg.expm(float(h_coord) * gen)


def traced_gleams(cx, ribbons):
    """Region gleams of an embedded loop system by left-face tracing.

    ribbons is a sequence of (winding, l_chain, lp_chain) with each chain a
    list of (qk_edge_id, sign) darts walking one boundary loop of a ribbon
    strip.  The strip and region structure is rebuilt from scratch: a strip
    cell is any quarter with one side on each loop of the same ribbon,
    regions are the glued components of the remaining quarters.  Every loop
    has regions on only one of its sides (the other side is the strip), so
    each ribbon is traced through both loops: the quarter holding a
    traversed dart in its boundary cycle sits on the loop's positive side,
    and the two loops must see their regions on opposite sides.  The region
    on the positive side of the l-loop receives +winding, the region beyond
    the companion loop receives -winding.  Returns a sorted list of
    (frozenset_of_quarters, gleam) pairs.
    """
    arc_l = [frozenset(qe for qe, _ in chain) for _, chain, _ in ribbons]
    arc_lp = [frozenset(qe for qe, _ in chain) for _, _, chain in ribbons]
    sides = {qid: frozenset(qe for qe, _ in darts)
             for qid, darts in cx.quarters.items()}
    strip = set()
    for i in range(len(ribbons)):
        for qid, ss in sides.items():
            if ss & arc_l[i] and ss & arc_lp[i]:
                strip.add(qid)

    parent = {qid: qid for qid in cx.quarters if qid not in strip}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    by_edge = {}
    for qid in parent:
        for qe in sides[qid]:
            by_edge.setdefault(qe, []).append(qid)
    for group in by_edge.values():
        for other in group[1:]:
            ra, rb = find(group[0]), find(other)
            if ra != rb:
                parent[ra] = rb

    def side_region(chain):
        pos_votes, neg_votes = set(), set()
        for qe, sgn in chain:
            for qid, darts in cx.quarters.items():
                if qid in strip:
                    continue
                if (qe, sgn) in darts:
                    pos_votes.add(find(qid))
                if (qe, -sgn) in darts:
                    neg_votes.add(find(qid))
        if pos_votes and neg_votes:
            raise ValueError("loop has regions on both sides of its strip")
        votes, orient = (pos_votes, 1) if pos_votes else (neg_votes, -1)
        if len(votes) != 1:
            raise ValueError("loop does not bound a single region")
        (region,) = votes
        return region, orient

    gleams = {find(qid): 0 for qid in parent}
    for winding, l_chain, lp_chain in ribbons:
        r_l, s_l = side_region(l_chain)
        r_lp, s_lp = side_region(lp_chain)
        if r_l == r_lp or s_lp != -s_l:
            raise ValueError("ribbon loops are not parallel with regions"
                             " on opposite sides")
        gleams[r_l] += winding * s_l
        gleams[r_lp] -= winding * s_l

    members = {}
    for qid in parent:
        members.setdefault(find(qid), []).append(qid)
    return sorted((frozenset(qs), gleams[root])
                  for root, qs in members.items())


# ---------------------------------------------------------------------------
# the scaled coroot box by rational inversion of the Cartan matrix


def lattice_box_fraction(cartan, k):
    """Weight-lattice points whose coroot coordinates lie in [0, k).

    The package's former box filter, frozen: it inverts the Cartan matrix
    by Gauss-Jordan elimination over the rationals and keeps, in
    lexicographic order, the points x with |x_i| <= k sum_j |cartan[i][j]|
    whose coordinates cartan^-1 x all lie in [0, k).
    """
    n = len(cartan)
    aug = [[Fraction(c) for c in row] + [Fraction(int(i == j))
                                         for j in range(n)]
           for i, row in enumerate(cartan)]
    for col in range(n):
        piv = next(r for r in range(col, n) if aug[r][col] != 0)
        aug[col], aug[piv] = aug[piv], aug[col]
        aug[col] = [c / aug[col][col] for c in aug[col]]
        for r in range(n):
            if r != col and aug[r][col] != 0:
                f = aug[r][col]
                aug[r] = [a - f * b for a, b in zip(aug[r], aug[col])]
    inv = [row[n:] for row in aug]
    bounds = [k * sum(abs(c) for c in row) for row in cartan]
    return [x for x in itertools.product(*[range(-b, b + 1) for b in bounds])
            if all(0 <= sum(m * c for m, c in zip(row, x)) < k
                   for row in inv)]


# ---------------------------------------------------------------------------
# the holonomy sum by explicit Fraction enumeration


def wlo_terms_fraction(lie, k, link, bases=None):
    """Every holonomy term of a link, enumerated in rational arithmetic.

    The package's former record_terms enumerator, frozen: per support
    choice it precomputes the face shifts sum_i u_i(Y_j) alpha_i and the
    phase parts as Fractions through the pairing, then visits every base
    point (by default one representative per coset of P/kQ) and tests
    each face holonomy for regularity.  Returns (value, terms_total,
    terms_skipped_singular, terms), with the terms as WloTerm entries in
    base-point, then support-choice order.

    Unlike the rest of this module it runs on the package's own pairing,
    regularity test and sine product (test_lie checks those against the
    dense models above); what it keeps independent is the rational
    bookkeeping that the production walk replaces by coset indices.
    """
    from shadow_wlo.lie import (inner, is_regular,
                                lattice_points_in_scaled_box, sine_product,
                                weight_multiplicities)
    from shadow_wlo.statesum import (WloTerm, _Accumulator, _phase,
                                     face_chi, face_weights, fusion_faces)

    k = int(k)
    chi = face_chi(link)
    m = len(link.ribbons)
    r = lie.rank
    table = face_weights(link)
    face_vecs = tuple(tuple(table[i][j] for i in range(m))
                      for j in range(m + 1))
    supports = []
    for rib in link.ribbons:
        supports.append(sorted(weight_multiplicities(lie, rib.color).items()))
    marked = [fusion_faces(link, i) for i in range(m)]
    combos = []
    for choice in itertools.product(*supports):
        alphas = tuple(w for w, _ in choice)
        mult = 1
        for _, cnt in choice:
            mult *= cnt
        shifts = []
        for vec in face_vecs:
            shifts.append(tuple(
                sum(vec[i] * alphas[i][a] for i in range(m))
                for a in range(r)))
        wsum = tuple(
            sum(link.ribbons[i].winding * alphas[i][a] for i in range(m))
            for a in range(r))
        q0 = Fraction(0)
        for i in range(m):
            jp, jz = marked[i]
            both = tuple(shifts[jp][a] + shifts[jz][a] for a in range(r))
            q0 += link.ribbons[i].winding * Fraction(inner(lie, alphas[i],
                                                           both))
        combos.append((alphas, mult, tuple(shifts), wsum, q0))

    reps = lattice_points_in_scaled_box(lie, k) if bases is None else bases
    acc = _Accumulator()
    skipped = 0
    terms = []
    for alpha0 in reps:
        for alphas, mult, shifts, wsum, q0 in combos:
            faces = []
            regular = True
            for shift in shifts:
                b = tuple(Fraction(alpha0[a] + shift[a], k) for a in range(r))
                if not is_regular(lie, b):
                    regular = False
                    break
                faces.append(b)
            if not regular:
                skipped += 1
                continue
            det = 1.0
            for b, x in zip(faces, chi):
                det *= sine_product(lie, b) ** x
            q = (2 * Fraction(inner(lie, wsum, alpha0)) + q0) / k
            acc.add(mult * det * _phase(q))
            terms.append(WloTerm(tuple(alpha0), alphas, mult, tuple(faces),
                                 q % 2))
    return acc.value(), len(reps) * len(combos), skipped, tuple(terms)


# ---------------------------------------------------------------------------
# the shadow sum by explicit enumeration


def shadow_terms(lie, k, link):
    """Every face coloring's shadow summand, as a dict in coloring order.

    The summand is 0j where the fusion product vanishes.

    The package's former explicit shadow enumeration, moved here verbatim
    when the contraction became the only production path.  Like
    wlo_terms_fraction it runs on the package's label table and fusion
    coefficients; what it keeps independent is the visit of every coloring.
    """
    from itertools import product

    from shadow_wlo.lie import fusion_coefficient
    from shadow_wlo.statesum import _forest, _label_table, _phase_table

    k = int(k)
    m = len(link.ribbons)
    forest = _forest(link)
    table = _label_table(lie, k)
    phases = _phase_table((lie.rank + 1) * k)
    out = {}
    for phi in product(table.labels, repeat=m + 1):
        nfac = 1
        for i in range(m):
            jp, jn = forest.marked[i]
            nfac *= fusion_coefficient(lie, k, link.ribbons[i].color,
                                       phi[jp], phi[jn])
            if nfac == 0:
                break
        if nfac == 0:
            out[phi] = 0j
            continue
        val = float(nfac)
        e = 0
        for j in range(m + 1):
            val *= table.dims[phi[j]] ** forest.chi[j]
            e += forest.gleam[j] * table.exps[phi[j]]
        out[phi] = val * phases[e % len(phases)]
    return out


# ---------------------------------------------------------------------------
# dense Gauss-Jordan elimination over the rationals


def rational_rref_dense(rows, ncols, rhs=None):
    """Exact row reduction of a sparse rational system.

    rows: list of {col: Fraction}.  rhs: optional list of Fractions.
    Returns (rank, pivots, solution, nullspace) where solution is one
    solution of rows*x = rhs (None if inconsistent or rhs omitted) and
    nullspace is a list of basis vectors (dense tuples) of the kernel.
    """
    dense = []
    for i, row in enumerate(rows):
        vec = [Fraction(0)] * ncols
        for c, val in row.items():
            vec[c] = Fraction(val)
        vec.append(Fraction(rhs[i]) if rhs is not None else Fraction(0))
        dense.append(vec)
    rank = 0
    pivots = []
    for col in range(ncols):
        piv = None
        for r in range(rank, len(dense)):
            if dense[r][col] != 0:
                piv = r
                break
        if piv is None:
            continue
        dense[rank], dense[piv] = dense[piv], dense[rank]
        pv = dense[rank][col]
        dense[rank] = [x / pv for x in dense[rank]]
        for r in range(len(dense)):
            if r != rank and dense[r][col] != 0:
                f = dense[r][col]
                dense[r] = [a - f * b for a, b in zip(dense[r], dense[rank])]
        pivots.append(col)
        rank += 1
        if rank == len(dense):
            break
    consistent = all(
        row[ncols] == 0 for row in dense[rank:]) if rhs is not None else None
    solution = None
    if rhs is not None and consistent:
        solution = [Fraction(0)] * ncols
        for r, col in enumerate(pivots):
            solution[col] = dense[r][ncols]
    free = [c for c in range(ncols) if c not in set(pivots)]
    nullspace = []
    for fc in free:
        vec = [Fraction(0)] * ncols
        vec[fc] = Fraction(1)
        for r, col in enumerate(pivots):
            vec[col] = -dense[r][fc]
        nullspace.append(tuple(vec))
    return rank, pivots, solution, nullspace
