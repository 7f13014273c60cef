"""Independent reference computations used by the test suite.

Everything here is deliberately written against first principles (explicit
matrix models, truncated Clebsch-Gordan rules, brute-force quadrature,
dense linear algebra) rather than against the package's own algorithms.
These implementations are frozen: tests compare package output to them,
never the other way around.
"""

from __future__ import annotations

import cmath
import dataclasses
import functools
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
# the finite Weyl group and coroot coordinates, read only by tests


@functools.lru_cache(maxsize=None)
def weyl_group(lie):
    """Every element of the Weyl group of lie, as sorted (matrix, sign) pairs.

    The matrices act on weight coordinates, w(x)_i = sum_j w[i][j] x_j, and
    sign is the determinant.  Breadth-first closure from the identity under
    the simple reflections s_i(x) = x - x_i alpha_i, each step flipping the
    sign: (r+1)! matrices for A_r.
    """
    r = lie.rank
    gens = []
    for i in range(r):
        rows = [[int(a == b) for b in range(r)] for a in range(r)]
        for a in range(r):
            rows[a][i] -= lie.simple_roots[i][a]
        gens.append(tuple(tuple(row) for row in rows))
    ident = tuple(tuple(int(a == b) for b in range(r)) for a in range(r))
    seen = {ident: 1}
    frontier = [ident]
    while frontier:
        nxt = []
        for m in frontier:
            for g in gens:
                gm = tuple(tuple(sum(g[i][c] * m[c][j] for c in range(r))
                                 for j in range(r)) for i in range(r))
                if gm not in seen:
                    seen[gm] = -seen[m]
                    nxt.append(gm)
        frontier = nxt
    return tuple(sorted(seen.items()))


def coroot_coordinates(lie, x):
    """Coordinates of x in the simple-coroot basis of the coroot lattice.

    The inverse Cartan matrix of A_r is gram, so these are the Fractions
    scaled_gram.x / (r+1).
    """
    n = lie.rank + 1
    return tuple(Fraction(sum(s * c for s, c in zip(row, x)), n)
                 for row in lie.scaled_gram)


# ---------------------------------------------------------------------------
# the Gram pairing, which the package replaced by root_pairings


@functools.lru_cache(maxsize=None)
def gram(lie):
    """Gram matrix of the fundamental weights: scaled_gram/(r+1), Fractions."""
    return tuple(tuple(Fraction(c, lie.rank + 1) for c in row)
                 for row in lie.scaled_gram)


def inner(lie, x, y):
    """Normalized invariant pairing of two weight-basis coordinate vectors.

    Exact coordinates (ints and Fractions) pair through the integer
    scaled_gram with one division, (x.scaled_gram.y)/(r+1), the same
    Fraction as the entrywise sum over gram; any float coordinate takes
    that entrywise sum.
    """
    if all(isinstance(c, (int, Fraction)) for c in (*x, *y)):
        u = [sum(a * s for a, s in zip(x, col))
             for col in zip(*lie.scaled_gram)]
        return Fraction(sum(a * c for a, c in zip(u, y)), lie.rank + 1)
    g = gram(lie)
    r = lie.rank
    return sum(g[i][j] * x[i] * y[j] for i in range(r) for j in range(r))


# ---------------------------------------------------------------------------
# the package's former root-pairing formulas, through the Gram pairing


def quantum_dim_inner(lie, k, lam):
    """quantum_dim as it was: one Fraction pairing per root and label."""
    shifted = tuple(l + p for l, p in zip(lam, lie.rho))
    num = 1.0
    den = 1.0
    for alpha in lie.positive_roots:
        a = float(inner(lie, alpha, shifted)) / k
        b = float(inner(lie, alpha, lie.rho)) / k
        num *= math.sin(math.pi * a)
        den *= math.sin(math.pi * b)
    return num / den


def sine_product_inner(lie, b):
    """sine_product as it was: prod 2 sin(pi <alpha, b>) by inner."""
    out = 1.0
    for alpha in lie.positive_roots:
        out *= 2.0 * math.sin(math.pi * float(inner(lie, alpha, b)))
    return out


def ad_det_k_inner(lie, b):
    """ad_det_k as it was: prod 4 sin^2(pi <alpha, b>) by inner."""
    out = 1.0
    for alpha in lie.positive_roots:
        out *= 4.0 * math.sin(math.pi * float(inner(lie, alpha, b))) ** 2
    return out


def is_regular_inner(lie, b):
    """is_regular as it was: exact for rational b, else within 1e-9."""
    exact = all(isinstance(c, (int, Fraction)) for c in b)
    for alpha in lie.positive_roots:
        a = inner(lie, alpha, b)
        if exact:
            if Fraction(a).denominator == 1:
                return False
        else:
            if abs(a - round(a)) <= 1e-9:
                return False
    return True


def rho_sine_constant_inner(lie, k):
    """statesum._rho_sine_constant as it was, by inner."""
    const = 1.0
    for alpha in lie.positive_roots:
        const *= 4.0 * math.sin(math.pi * float(inner(lie, lie.rho,
                                                      alpha)) / k) ** 2
    return const


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
    named = named_subdivision(cx)
    sides = {qid: frozenset(qe for qe, _ in darts)
             for qid, darts in named.quarters.items()}
    strip = set()
    for i in range(len(ribbons)):
        for qid, ss in sides.items():
            if ss & arc_l[i] and ss & arc_lp[i]:
                strip.add(qid)

    parent = {qid: qid for qid in named.quarters if qid not in strip}

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
            for qid, darts in named.quarters.items():
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


def fusion_faces(link):
    """Each ribbon's adjacent faces (Y+, Y-), read off its orientation.

    Y+ is the side on which the ribbon's face potential jumps up: the
    inner face i+1 of ribbon i at orientation +1, its parent face at -1.
    The holonomy phase pairs each ribbon's support weight with both faces,
    and the shadow fusion coefficient N_{color, phi(Y+)}^{phi(Y-)} reads
    them in this order.
    """
    return tuple((i + 1, r.parent) if r.orientation == 1 else
                 (r.parent, i + 1) for i, r in enumerate(link.ribbons))


@dataclasses.dataclass(frozen=True, order=True)
class WloTerm:
    """One surviving holonomy-side term, in exact rational form.

    holonomies lists the face values of B as coordinate tuples, in face
    order; phase is the total winding phase exponent as a multiple of pi,
    reduced mod 2.  Terms compare exactly, not approximately.

    The package's former record_terms entry, moved here with the per-term
    enumeration.
    """

    alpha0: tuple
    alphas: tuple
    multiplicity: int
    holonomies: tuple
    phase: Fraction


def coset_key(lie, modulus, x):
    """(r+1) times the coroot coordinates of x, reduced mod (r+1)k."""
    return tuple(sum(a * b for a, b in zip(row, x)) % modulus
                 for row in lie.scaled_gram)


def wlo_terms_fraction(lie, k, link, bases=None):
    """Every holonomy term of a link, enumerated in rational arithmetic.

    The package's former record_terms enumerator, frozen: per support
    choice it precomputes the face shifts sum_i u_i(Y_j) alpha_i and the
    phase parts as Fractions through the pairing, then visits every base
    point (by default one representative per coset of P/kQ) and tests
    each face holonomy for regularity.  Returns (value, terms_total,
    terms_skipped_singular, terms), with the terms as WloTerm entries in
    base-point, then support-choice order.

    Unlike the rest of this module it runs on the package's own
    regularity test and sine product (test_lie checks those against the
    dense models above); what it keeps independent is the rational
    bookkeeping, paired by inner, that the production walk replaces by
    coset indices.
    """
    from shadow_wlo.lie import (is_regular, lattice_points_in_scaled_box,
                                sine_product, weight_multiplicities)
    from shadow_wlo.statesum import _forest, _fsum, _phase

    k = int(k)
    forest = _forest(link)
    chi = forest.chi
    m = len(link.ribbons)
    r = lie.rank
    table = face_weights(link)
    face_vecs = tuple(tuple(table[i][j] for i in range(m))
                      for j in range(m + 1))
    supports = []
    for rib in link.ribbons:
        supports.append(sorted(weight_multiplicities(lie, rib.color).items()))
    marked = fusion_faces(link)
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
    summands = []
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
            summands.append(mult * det * _phase(q))
            terms.append(WloTerm(tuple(alpha0), alphas, mult, tuple(faces),
                                 q % 2))
    return (_fsum(summands), len(reps) * len(combos), skipped,
            tuple(terms))


def wlo_contract_keyed(lie, k, link, forest):
    """The holonomy contraction on coset keys, one dict lookup per term.

    The package's former _wlo_contract, moved here verbatim when the
    contraction began to read cached shift tables: for every (alpha,
    coset) pair it builds the shifted coset key, looks it up in the coset
    index and pairs alpha with the key.  The production contraction must
    equal it bit for bit, census included.
    """
    from shadow_wlo.lie import weight_multiplicities
    from shadow_wlo.statesum import (StateSumResult, _coset_table, _dot,
                                     _fsum, _phase_table)

    table = _coset_table(lie, k)
    par = forest.parent
    size = total = len(table.reps)
    modulus = (lie.rank + 1) * k
    phases = _phase_table(modulus)
    vals = []
    counts = []
    for x in forest.chi:
        vals.append([s ** x if ok else 0.0
                     for s, ok in zip(table.sines, table.regular)])
        counts.append([int(ok) for ok in table.regular])
    for c in forest.order:
        rib = link.ribbons[c - 1]
        o, w = rib.orientation, int(rib.winding)
        child, child_count = vals[c], counts[c]
        kern = [0j] * size
        kern_count = [0] * size
        support = sorted(weight_multiplicities(lie, rib.color).items())
        total *= len(support)
        for alpha, mult in support:
            g_alpha = tuple(_dot(row, alpha) for row in lie.scaled_gram)
            self_pair = o * _dot(g_alpha, alpha)
            # key(x + o alpha) = key(x) + o g_alpha, and 2(r+1)<alpha, x>
            # = 2 alpha.key(x) mod 2(r+1)k
            for pos, key in enumerate(table.index):
                if not table.regular[pos]:
                    continue
                y = table.index[tuple((a + o * g) % modulus
                                      for a, g in zip(key, g_alpha))]
                e = w * (2 * _dot(alpha, key) + self_pair) % (2 * modulus)
                kern[pos] += mult * phases[e] * child[y]
                kern_count[pos] += child_count[y]
        vals[par[c]] = [v * q for v, q in zip(vals[par[c]], kern)]
        counts[par[c]] = [v * q for v, q in zip(counts[par[c]], kern_count)]
    return StateSumResult(_fsum(vals[0]), total,
                          total - sum(counts[0]))


def wlo_terms_keyed(lie, k, link, forest):
    """Every holonomy term on coset keys, one dict lookup per face.

    The package's former record_terms walk on coset keys, frozen: per
    support choice it splits each face's coset key and the phase exponent
    into a part fixed by the choice and a part linear in the base
    representative, and looks every face up by its key.  Returns (value,
    terms_total, terms_skipped_singular, terms) like wlo_terms_fraction,
    with the terms in base-point, then support-choice order.  The package
    no longer enumerates terms; its contraction must reproduce the value
    and census, and step6_transform reads the terms.
    """
    from itertools import product

    from shadow_wlo.lie import weight_multiplicities
    from shadow_wlo.statesum import _coset_table, _dot, _fsum, _phase_table

    table = _coset_table(lie, k)
    par = forest.parent
    r = lie.rank
    modulus = (r + 1) * k
    phases = _phase_table(modulus)
    top_down = forest.order[::-1]
    supports = [sorted(weight_multiplicities(lie, rib.color).items())
                for rib in link.ribbons]
    choices = []
    for choice in product(*supports):
        alphas = tuple(alpha for alpha, _ in choice)
        shifts = [(0,) * r] * len(par)
        pull = [0] * r
        e0 = 0
        for c in top_down:
            rib = link.ribbons[c - 1]
            o, w, alpha = rib.orientation, int(rib.winding), alphas[c - 1]
            g_alpha = tuple(_dot(row, alpha) for row in lie.scaled_gram)
            up = shifts[par[c]]
            shifts[c] = tuple(s + o * a for s, a in zip(up, alpha))
            e0 += w * (2 * _dot(g_alpha, up) + o * _dot(g_alpha, alpha))
            pull = [p + 2 * w * g for p, g in zip(pull, g_alpha)]
        keys = [coset_key(lie, modulus, shift) for shift in shifts]
        choices.append((alphas, math.prod(n for _, n in choice), shifts,
                        keys, pull, e0))
    summands = []
    skipped = 0
    terms = []
    for alpha0 in table.reps:
        # keys are linear mod (r+1)k: key(alpha0 + s) = key(alpha0) + key(s)
        base = coset_key(lie, modulus, alpha0)
        for alphas, mult, shifts, keys, pull, e0 in choices:
            pos = [table.index[tuple((a + b) % modulus
                                     for a, b in zip(base, key))]
                   for key in keys]
            if not all(table.regular[p] for p in pos):
                skipped += 1
                continue
            det = 1.0
            for p, x in zip(pos, forest.chi):
                det *= table.sines[p] ** x
            e = (_dot(pull, alpha0) + e0) % (2 * modulus)
            summands.append(mult * det * phases[e])
            faces = tuple(tuple(Fraction(a + s, k)
                                for a, s in zip(alpha0, shift))
                          for shift in shifts)
            terms.append(WloTerm(alpha0, alphas, mult, faces,
                                 Fraction(e, modulus)))
    return (_fsum(summands), len(table.reps) * len(choices),
            skipped, tuple(terms))


@dataclasses.dataclass(frozen=True)
class Step6Term:
    """Alcove reduction of one holonomy term to shadow data.

    labels are the level-k face colors, which are also the coloring the
    term aggregates into, signs the Weyl determinants of the reducing maps,
    and det_residual the largest relative defect of the determinant
    identity checked during the transform.
    """

    labels: tuple
    signs: tuple
    value: complex
    det_residual: float


def step6_transform(lie, k, link, term):
    """Alcove reduction of one surviving holonomy term.

    The package's former per-term Step 6 check, frozen when the package
    began to check Step 6 once per coset (statesum.step6_identities).
    Reflects k times each face holonomy, an integer weight, into the
    level-k alcove, reads off the label and the sign of the reducing
    element, and verifies the two identities that drive the passage to the
    shadow sum: the sine determinant of each face equals the squared
    quantum dimension of its label times a face-independent constant (to
    the relative tolerance _STEP6_TOL), and the total winding phase
    equals the gleam phase of the labels exactly, as rationals mod 2.
    Each face's sine is read from the coset table, the factor the
    holonomy sum multiplies, and its label's quantum dimension from one
    table per level.  Any violation raises with the offending term in the
    message.
    """
    from shadow_wlo.lie import _alcove_reduce, _index
    from shadow_wlo.statesum import (_STEP6_TOL, _coset_table, _forest,
                                     _label_table, _phase,
                                     _rho_sine_constant)

    k = _index(k, "level")
    forest = _forest(link)
    table = _coset_table(lie, k)
    modulus = (lie.rank + 1) * k
    const = _rho_sine_constant(lie, k)
    label_table = _label_table(lie, k)
    labels = []
    signs = []
    sines = []
    det_residual = 0.0
    for j, b in enumerate(term.holonomies):
        x = tuple(int(c * k) for c in b)
        if x != tuple(c * k for c in b):
            raise ValueError(f"term {term.alpha0}: face {j} holonomy is not"
                             f" in P/{k}")
        v, sign = _alcove_reduce(lie, k, list(x))
        lam = tuple(c - p for c, p in zip(v, lie.rho))
        if sign == 0:
            raise ValueError(f"term {term.alpha0}: face {j} holonomy lies"
                             " on an affine wall")
        labels.append(lam)
        signs.append(sign)
        sines.append(table.sines[table.index[coset_key(lie, modulus, x)]])
        det = sines[-1] ** 2
        dimsq = label_table.dims[lam] ** 2 * const
        res = abs(det / dimsq - 1.0)
        det_residual = max(det_residual, res)
        if res > _STEP6_TOL:
            raise ValueError(f"term {term.alpha0}: face {j} determinant"
                             f" misses the squared dimension by {res:.3e}")
    q = Fraction(sum(g * label_table.exps[lam]
                     for g, lam in zip(forest.gleam, labels)), modulus)
    if (q - term.phase) % 2:
        raise ValueError(f"term {term.alpha0}: winding phase {term.phase}"
                         f" is not the gleam phase {q % 2} mod 2")
    det = 1.0
    for sine, x in zip(sines, forest.chi):
        det *= sine ** x
    value = term.multiplicity * det * _phase(term.phase)
    return Step6Term(tuple(labels), tuple(signs), value, det_residual)


def step6_aggregate(lie, k, link):
    """Holonomy terms grouped by their reduced face coloring.

    Runs step6_transform over every surviving term of wlo_terms_keyed and
    sums the term values per coloring class.  Together with the per-class
    shadow summands this exhibits the state sum identity class by class.
    """
    from shadow_wlo.statesum import _forest, _fsum

    out = {}
    for term in wlo_terms_keyed(lie, k, link, _forest(link))[3]:
        st = step6_transform(lie, k, link, term)
        out.setdefault(st.labels, []).append(st.value)
    return {key: _fsum(values)
            for key, values in sorted(out.items())}


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
    marked = fusion_faces(link)
    out = {}
    for phi in product(table.labels, repeat=m + 1):
        nfac = 1
        for i in range(m):
            jp, jn = marked[i]
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


def shadow_contract_gather(lie, k, link, forest, table):
    """The shadow contraction with a gather loop for orientation -1.

    The package's former _shadow_contract, frozen: a -1 ribbon gathers,
    for each kernel label, the row of its own color, instead of reading
    the rows of the dual color.  The tests hold the production
    contraction to it bit for bit.
    """
    from shadow_wlo.lie import _fusion_table, _weight
    from shadow_wlo.statesum import _fsum, _phase_table

    labels = table.labels
    pos = {lam: i for i, lam in enumerate(labels)}
    phases = _phase_table((lie.rank + 1) * k)
    vals = []
    for x, g in zip(forest.chi, forest.gleam):
        vec = [table.dims[lam] ** x for lam in labels]
        if g:
            vec = [v * phases[g * table.exps[lam] % len(phases)]
                   for v, lam in zip(vec, labels)]
        vals.append(vec)
    for c in forest.order:
        rib = link.ribbons[c - 1]
        child = vals[c]
        rows = _fusion_table(lie, k, _weight(rib.color, "color"))
        kern = [0j] * len(labels)
        if rib.orientation == 1:
            for mu, v in zip(labels, child):
                for lam, n in rows[mu].items():
                    kern[pos[lam]] += n * v
        else:
            for i, lam in enumerate(labels):
                for mu, n in rows[lam].items():
                    kern[i] += n * child[pos[mu]]
        par = forest.parent[c]
        vals[par] = [v * q for v, q in zip(vals[par], kern)]
    return _fsum(vals[0])


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


# ---------------------------------------------------------------------------
# the B0 kernel check on the full row system


def _b0_rows(cx, sigma0, index):
    """Tetragon affinity rows plus constancy on the closed star of sigma0."""
    rows = affine_constraint_rows(cx, index)
    patch = set()
    corners = named_subdivision(cx).quarter_corners
    for qid in quarters_at(cx, sigma0):
        patch.update(corners[qid])
    patch.discard(sigma0)
    for qv in sorted(patch):
        rows.append({index[qv]: 1, index[sigma0]: -1})
    return rows


def kernel_check_B0_rows(cx, sigma0=None):
    """kernel_check_B0 with one column per qK vertex and one row per condition.

    The B0 rows are joined by the kernel rows of the projected coboundary:
    equality along each primal edge (loop edges impose nothing) and across
    each dual edge.  The kernel is the constants iff its dimension is 1.
    """
    from shadow_wlo.complex import rational_rref

    if sigma0 is None:
        sigma0 = cx.qk_vertices[0]
    index = {qv: i for i, qv in enumerate(cx.qk_vertices)}
    rows = _b0_rows(cx, sigma0, index)
    for e, (t, h) in sorted(cx.edges.items()):
        if t != h:
            rows.append({index[("v", t)]: 1, index[("v", h)]: -1})
        left, right = cx.edge_left[e], cx.edge_right[e]
        rows.append({index[("c", left)]: 1, index[("c", right)]: -1})
    return len(cx.qk_vertices) - rational_rref(rows) == 1


# ---------------------------------------------------------------------------
# eigenbasis quadrature of the regularized Gauss integrals, in numpy


def eigen_quadrature_numpy(lam, shift, forms, eps, radius, count):
    """Midpoint-rule integral of prod_j <a_j, y> times a separable weight.

    The numpy evaluation that oscillatory._eigen_quadrature replaced, kept
    as its oracle: the weight exp(-(i/2) sum_i lam_i (y_i - shift_i)^2 -
    eps |y|^2) is evaluated with one exp per axis point, the 1-D moments
    of y^p for p <= len(forms) are taken by a matrix product, and the
    product of the forms is expanded over the assignments of forms to
    axes.
    """
    lam = np.asarray(lam, dtype=float)
    shift = np.asarray(shift, dtype=float)
    step = 2.0 * radius / count
    y = -radius + (np.arange(count) + 0.5) * step
    weight = np.exp(-0.5j * lam[:, None] * (y - shift[:, None]) ** 2
                    - eps * y ** 2)
    powers = y ** np.arange(len(forms) + 1)[:, None]
    moments = (weight @ powers.T) * step
    dim = len(lam)
    total = 0.0 + 0.0j
    for axes in itertools.product(range(dim), repeat=len(forms)):
        term = complex(math.prod(a[i] for a, i in zip(forms, axes)))
        for i in range(dim):
            term *= moments[i, axes.count(i)]
        total += term
    return total


# ---------------------------------------------------------------------------
# surface, operator and face-table helpers that only tests read


@dataclasses.dataclass(frozen=True)
class NamedSubdivision:
    """The quad subdivision of a complex by name, as named_subdivision
    derives it.

    qk_edges maps each half-edge to its (tail, head) qK vertex names, edge
    by edge in the order of cx.edges and h1, h2, d1, d2 within an edge.
    quarters maps the quarter (f, i) at corner i of face f to its boundary
    cycle of four (half-edge, sign) darts, and quarter_corners to its
    corners (v, m_in, m_out, c); both list the quarters face by face.
    """

    qk_edges: dict
    quarters: dict
    quarter_corners: dict


def named_subdivision(cx):
    """The named qK tables of cx, derived from its cells alone.

    ("h1", e) runs from the tail of e to its midpoint and ("h2", e) on to
    its head; ("d1", e) runs from the center of the face left of e to the
    midpoint and ("d2", e) on to the center of the right face.  The
    quarter at the head v of the i-th dart of a face cycle has the
    boundary cycle m_in -> v -> m_out -> c: the primal halves into and out
    of v along the face cycle, then the dual halves through the face
    center c.  The complex's integer tables are compared against these,
    never built from them.
    """
    qk_edges = {}
    for e, (t, h) in cx.edges.items():
        left, right = ("c", cx.edge_left[e]), ("c", cx.edge_right[e])
        qk_edges[("h1", e)] = (("v", t), ("m", e))
        qk_edges[("h2", e)] = (("m", e), ("v", h))
        qk_edges[("d1", e)] = (left, ("m", e))
        qk_edges[("d2", e)] = (("m", e), right)
    quarters = {}
    corners = {}
    for fid, cycle in cx.faces.items():
        for i, (e_in, s_in) in enumerate(cycle):
            e_out, s_out = cycle[(i + 1) % len(cycle)]
            quarters[(fid, i)] = (
                (("h2", e_in), 1) if s_in == 1 else (("h1", e_in), -1),
                (("h1", e_out), 1) if s_out == 1 else (("h2", e_out), -1),
                (("d1", e_out), -1) if s_out == 1 else (("d2", e_out), 1),
                (("d1", e_in), 1) if s_in == 1 else (("d2", e_in), -1),
            )
            corners[(fid, i)] = (("v", cx.dart_head(cycle[i])),
                                 ("m", e_in), ("m", e_out), ("c", fid))
    return NamedSubdivision(qk_edges, quarters, corners)


def coboundary(cx, c):
    """Coboundary of a 0-cochain on qK: (dc)(e) = c(head) - c(tail)."""
    out = {}
    for qeid, (t, h) in named_subdivision(cx).qk_edges.items():
        out[qeid] = c[h] - c[t]
    return out


def project_to_K(cx, x):
    """Orthogonal projection of a qK 1-cochain onto the two K-edge spaces.

    Returns (primal, dual): the value on a K1 edge is the mean of its two
    halves, the value on the dual edge likewise; both are indexed by the
    primal edge id (the dual edge of e shares its id).
    """
    half = Fraction(1, 2)
    primal = {}
    dual = {}
    for e in cx.edges:
        primal[e] = (x.get(("h1", e), 0) + x.get(("h2", e), 0)) * half
        dual[e] = (x.get(("d1", e), 0) + x.get(("d2", e), 0)) * half
    return primal, dual


def psi_embed(cx, primal, dual=None):
    """Half-edge embedding: each K-edge value is copied to both halves."""
    out = {}
    for e, val in primal.items():
        out[("h1", e)] = val
        out[("h2", e)] = val
    if dual is not None:
        for e, val in dual.items():
            out[("d1", e)] = val
            out[("d2", e)] = val
    return out


def affine_constraint_rows(cx, index):
    """Tetragon affinity rows B(v) + B(c) - B(m_in) - B(m_out) = 0."""
    rows = []
    corners = named_subdivision(cx).quarter_corners
    for qid in sorted(corners):
        v, m_in, m_out, c = corners[qid]
        row = {index[v]: 1, index[c]: 1}
        for mvert in (m_in, m_out):
            row[index[mvert]] = row.get(index[mvert], 0) - 1
        rows.append(row)
    return rows


def quarters_at(cx, qk_vertex):
    """All quarters of cx whose closure contains the given qK vertex."""
    return tuple(qid for qid, cs in
                 named_subdivision(cx).quarter_corners.items()
                 if qk_vertex in cs)


@dataclasses.dataclass(frozen=True, eq=False)
class TwistedOperator:
    """One time-twisted difference operator realized as a dense matrix.

    The matrix is a list of rows acting on maps Z_n -> algebra laid out
    time-major, one algebra block per time step.
    """

    variant: str
    n: int
    b: tuple
    matrix: list


def build_twisted(lie, variant, n, b):
    """Dense time-twisted difference operator on maps Z_n -> algebra.

    hat is n*(shift exp(ad(b)/n) - 1), check is n*(1 - backshift
    exp(-ad(b)/n)), bar is their mean and needs even n.  The forward
    exponential is built in closed form: the identity on the Cartan
    coordinates and, at rows r+2p and r+2p+1 for the p-th positive root
    alpha, the rotation [[cos phi, -sin phi], [sin phi, cos phi]] with
    phi = 2*pi*<alpha, b>/n, the exponential of ad(b)/n.  The backward
    exponential is its transpose (ad(b) is antisymmetric), which keeps the
    mean identity exact at matrix level.  Applied to samples of a smooth
    field, each variant reproduces the continuum operator d/dt + ad(b) to
    first order in 1/n.  The rows are discrete._twisted_rows, densified.
    """
    from shadow_wlo.discrete import _twisted_rows
    from shadow_wlo.lie import root_pairings

    rows = _twisted_rows(lie, variant, n, root_pairings(lie, b))
    mat = [[0.0] * len(rows) for _ in rows]
    for dense, row in zip(mat, rows):
        for j, x in row.items():
            dense[j] = x
    return TwistedOperator(variant, n, tuple(b), mat)


def face_weights(link):
    """Face potential table u_i(Y_j): rows are ribbons, columns faces.

    The i-th potential takes the ribbon's orientation value on every face
    enclosed by ribbon i and vanishes outside, which normalizes it to zero
    on the base face.
    """
    from shadow_wlo.statesum import _face_weights, _forest

    return _face_weights(link, _forest(link).parent)
