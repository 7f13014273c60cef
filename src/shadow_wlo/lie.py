"""Root-system data and level-k combinatorics for the A_r series.

All pairing computations use the normalization in which short coroots have
squared length 2.  For A_r every root is short, the coroot lattice equals the
root lattice, and the Gram matrix of the fundamental weights is
G_ij = min(i,j) - i*j/(r+1), obtained from the hyperplane model of A_r in
R^(r+1) and already correctly scaled.  G is also the inverse Cartan matrix,
and the integer matrix (r+1)G (scaled_gram) carries every exact pairing:
(r+1)<x, y> = x.scaled_gram.y, and scaled_gram.x is (r+1) times the
coroot coordinates of x.

Weights are integer coordinate tuples in the fundamental weight basis.
General Cartan-subalgebra elements are tuples of Fractions (or floats on
explicitly approximate paths) in the same basis.  The tables that feed the
state sums (the cosets P/kQ, weight systems, fusion rows) are built in
integer arithmetic; transcendental evaluations (sines, phases) happen once
per cached argument at the outermost layer.

The weight system of an irrep is counted from the contents of its
semistandard tableaux with entries 0..r, one integer table per
(lie, highest weight).

Level-k fusion coefficients come from one integer table per (lie, k, color),
built by the Kac-Walton formula: |labels| * |weights of the color| integer
alcove reductions (about 0.3 ms for a fundamental color of A2 at k = 7 on
a 2-core Xeon).  The table keeps one row per label with its nonzero
entries only, and a coefficient is one dict lookup after that.  A slot
that is not a level-k label raises ValueError.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from itertools import combinations_with_replacement, product

__all__ = [
    "LieData",
    "lie_data",
    "inner",
    "level_labels",
    "quantum_dim",
    "weight_multiplicities",
    "fusion_coefficient",
    "is_regular",
    "ad_det_k",
    "sine_product",
    "lattice_points_in_scaled_box",
]

Vec = tuple
Mat = tuple


def _mat_mul(a, b):
    n = len(a)
    return tuple(
        tuple(sum(a[i][k] * b[k][j] for k in range(n)) for j in range(n))
        for i in range(n)
    )


@dataclass(frozen=True, eq=False)
class LieData:
    """Immutable root data of A_r in the short-coroot normalization.

    Compared and hashed by identity: lie_data keeps one instance per rank,
    and the lru caches keyed on it would otherwise hash every field, the
    Weyl group included, on each lookup.
    """

    series: str
    rank: int
    gram: Mat                  # Gram matrix of fundamental weights, Fractions
    scaled_gram: Mat           # (r+1) * gram, integers
    cartan: Mat                # cartan[i][j] = coordinate i of simple root alpha_j
    simple_roots: tuple        # weight-basis coordinates, also the coroots
    positive_roots: tuple
    rho: Vec
    theta: Vec                 # highest root
    dual_coxeter: int
    weyl: tuple = field(repr=False)          # tuples (matrix, sign)

    def coroot_coordinates(self, x):
        """Coordinates of x in the simple-coroot basis of the coroot lattice.

        The inverse Cartan matrix of A_r is gram, so these are the
        Fractions scaled_gram.x / (r+1).
        """
        n = self.rank + 1
        return tuple(Fraction(sum(s * c for s, c in zip(row, x)), n)
                     for row in self.scaled_gram)


@lru_cache(maxsize=None)
def _build_a_series(rank):
    r = rank
    scaled_gram = tuple(
        tuple((r + 1) * min(i, j) - i * j for j in range(1, r + 1))
        for i in range(1, r + 1)
    )
    gram = tuple(tuple(Fraction(c, r + 1) for c in row) for row in scaled_gram)
    cartan = tuple(
        tuple(2 if i == j else (-1 if abs(i - j) == 1 else 0) for j in range(r))
        for i in range(r)
    )
    simple = tuple(tuple(cartan[i][j] for i in range(r)) for j in range(r))
    positive = []
    for i in range(r):
        for j in range(i, r):
            root = [0] * r
            for a in range(i, j + 1):
                for c in range(r):
                    root[c] += simple[a][c]
            positive.append(tuple(root))
    rho = tuple(1 for _ in range(r))
    # Highest root of A_r is the sum of all simple roots.
    theta = tuple(sum(simple[a][c] for a in range(r)) for c in range(r))

    gens = []
    for i in range(r):
        rows = []
        for a in range(r):
            row = [0] * r
            row[a] = 1
            rows.append(row)
        for a in range(r):
            rows[a][i] -= simple[i][a]
        gens.append(tuple(tuple(row) for row in rows))

    ident = tuple(tuple(1 if a == b else 0 for b in range(r)) for a in range(r))
    seen = {ident: 1}
    frontier = [ident]
    while frontier:
        nxt = []
        for m in frontier:
            for g in gens:
                prod_m = _mat_mul(g, m)
                if prod_m not in seen:
                    seen[prod_m] = -seen[m]
                    nxt.append(prod_m)
        frontier = nxt
    weyl = tuple(sorted(seen.items()))

    theta_pair = sum(theta[i] * rho[j] * scaled_gram[i][j]
                     for i in range(r) for j in range(r))
    return LieData(
        series=f"A{r}",
        rank=r,
        gram=gram,
        scaled_gram=scaled_gram,
        cartan=cartan,
        simple_roots=simple,
        positive_roots=tuple(positive),
        rho=rho,
        theta=theta,
        dual_coxeter=1 + theta_pair // (r + 1),
        weyl=weyl,
    )


def lie_data(series):
    """Parse a series name like "A1" or "A2" into LieData.

    Every spelling of one series ("A2", "a2", " A2 ") gives the same
    instance.
    """
    s = str(series).strip().upper()
    if not s.startswith("A") or not s[1:].isdigit():
        raise ValueError(f"unsupported series {series!r}, expected A<rank>")
    r = int(s[1:])
    if r < 1:
        raise ValueError("rank must be >= 1")
    return _build_a_series(r)


def inner(lie, x, y):
    """Normalized invariant pairing of two weight-basis coordinate vectors."""
    g = lie.gram
    r = lie.rank
    return sum(g[i][j] * x[i] * y[j] for i in range(r) for j in range(r))


def level_labels(lie, k):
    """Dominant weights admissible at level k, lexicographically ordered.

    The set is empty below the dual Coxeter number; at k equal to it only the
    zero label survives.
    """
    k = int(k)
    if k < 1:
        raise ValueError("level must be a positive integer")
    budget = k - lie.dual_coxeter
    if budget < 0:
        return []
    theta_w = _theta_coeffs(lie)
    return [lam for lam in product(range(budget + 1), repeat=lie.rank)
            if sum(l * t for l, t in zip(lam, theta_w)) <= budget]


def quantum_dim(lie, k, lam):
    """sin-product dimension of a level-k label."""
    num = 1.0
    den = 1.0
    for alpha in lie.positive_roots:
        a = float(inner(lie, alpha, tuple(l + p for l, p in zip(lam, lie.rho)))) / k
        b = float(inner(lie, alpha, lie.rho)) / k
        num *= math.sin(math.pi * a)
        den *= math.sin(math.pi * b)
    return num / den


def sine_product(lie, b):
    """Signed product of 2*sin(pi*<alpha, b>) over positive roots.

    This is the square-root branch used for the half-power of the adjoint
    determinant: it is odd under alcove-wall reflections, which is what makes
    alternating Weyl signs come out of the face determinant factors.
    """
    out = 1.0
    for alpha in lie.positive_roots:
        out *= 2.0 * math.sin(math.pi * float(inner(lie, alpha, b)))
    return out


def ad_det_k(lie, b):
    """det(1 - exp(ad b)) on the complement of the Cartan subalgebra."""
    out = 1.0
    for alpha in lie.positive_roots:
        out *= 4.0 * math.sin(math.pi * float(inner(lie, alpha, b))) ** 2
    return out


def is_regular(lie, b, tol=1e-9):
    """True when no root pairing with b is an integer.

    Rational input is decided exactly; float input uses the tolerance.
    """
    exact = all(isinstance(c, (int, Fraction)) for c in b)
    for alpha in lie.positive_roots:
        a = inner(lie, alpha, b)
        if exact:
            if Fraction(a).denominator == 1:
                return False
        else:
            if abs(a - round(a)) <= tol:
                return False
    return True


@lru_cache(maxsize=None)
def _full_weight_table(lie, gamma):
    """{weight: multiplicity} of the irrep gamma, from semistandard tableaux.

    Row i of the shape has sum(gamma[i:]) boxes, filled from 0..r weakly
    increasing along rows and strictly increasing down columns; a filling
    with content c adds 1 at the weight (c_0 - c_1, ..., c_{r-1} - c_r)
    (Fulton-Harris, Representation Theory, 15.3).
    """
    r = lie.rank
    if any(c < 0 for c in gamma):
        raise ValueError("highest weight must be dominant")
    shape = [sum(gamma[i:]) for i in range(r)]

    @lru_cache(maxsize=None)
    def below(i, above):
        # {weight: count} of the fillings of rows i.. under the row above
        if i == r:
            return {(0,) * r: 1}
        out = {}
        for row in combinations_with_replacement(range(i, r + 1), shape[i]):
            if all(a < b for a, b in zip(above, row)):
                step = [row.count(j) - row.count(j + 1) for j in range(r)]
                for w, m in below(i + 1, row).items():
                    key = tuple(a + b for a, b in zip(w, step))
                    out[key] = out.get(key, 0) + m
        return out

    return below(0, ())


def weight_multiplicities(lie, gamma):
    """Full weight system of the irrep with highest weight gamma, as a dict.

    The multiplicity of a weight is the number of semistandard tableaux of
    shape gamma whose content gives that weight (see _full_weight_table).
    """
    return dict(_full_weight_table(lie, tuple(int(c) for c in gamma)))


def fusion_coefficient(lie, k, mu, nu, lam):
    """Level-k fusion coefficient N_{mu,nu}^lam, an exact integer.

    A lookup into the fusion rows of the color mu (see _fusion_table),
    built once per (lie, k, mu) from |labels|*|weights of mu| alcove
    reductions.  nu and lam must be level-k labels; anything else raises
    ValueError.  mu may be any dominant weight.
    """
    rows = _fusion_table(lie, int(k), tuple(int(c) for c in mu))
    nu = tuple(int(c) for c in nu)
    lam = tuple(int(c) for c in lam)
    if nu not in rows or lam not in rows:
        raise ValueError(f"{nu} and {lam} are not both level-{k} "
                         f"labels of {lie.series}")
    return rows[nu].get(lam, 0)


@lru_cache(maxsize=None)
def _fusion_table(lie, k, mu):
    """{nu: {lam: N_{mu,nu}^lam}}: one row per level-k label nu.

    Rows hold the nonzero entries only, lam in level_labels order.
    Kac-Walton: each weight mu' of mu, with multiplicity m, moves
    nu + rho - mu' into the fundamental alcove by the affine Weyl group
    and adds sign*m at the label it lands on, or nothing on a wall.  The
    first slot thus enters through its weight system, i.e. conjugated.
    For a label mu the entries are multiplicities and a negative one
    raises ArithmeticError; a color outside the alcove gives +-1 times
    the table of its alcove image, or zero on a wall.
    """
    labels = level_labels(lie, k)
    weights = _full_weight_table(lie, mu)
    rows = {}
    for nu in labels:
        row = {}
        for w, m in weights.items():
            v, sign = _alcove_reduce(
                lie, k, [n + p - c for n, p, c in zip(nu, lie.rho, w)])
            if sign:
                lam = tuple(c - p for c, p in zip(v, lie.rho))
                row[lam] = row.get(lam, 0) + sign * m
        # labels are in lexicographic order, so sorting the tuples keeps it
        rows[nu] = {lam: n for lam, n in sorted(row.items()) if n}
    if mu in rows and any(n < 0 for row in rows.values()
                          for n in row.values()):
        raise ArithmeticError(f"negative level-{k} fusion multiplicity "
                              f"for {lie.series} color {mu}")
    return rows


def _alcove_reduce(lie, k, v):
    """Reflect v (a list, changed in place) into the closed level-k alcove.

    Returns (v, sign): sign is the determinant of the affine Weyl element
    applied, (-1) to the number of reflections, or 0 when v ends on a
    wall.  v then equals w(beta) + k*x for the input beta, some w in the
    finite Weyl group and x in the coroot lattice.  Integer input stays
    integer.
    """
    r = lie.rank
    theta_w = _theta_coeffs(lie)
    steps = 0
    while True:
        if steps > 100000:
            raise RuntimeError("alcove reduction did not terminate")
        i = next((i for i in range(r) if v[i] < 0), None)
        if i is not None:
            coef = v[i]
            for a in range(r):
                v[a] -= coef * lie.simple_roots[i][a]
            steps += 1
            continue
        h = sum(c * t for c, t in zip(v, theta_w))
        if h > k:
            for a in range(r):
                v[a] -= (h - k) * lie.theta[a]
            steps += 1
            continue
        on_wall = any(c == 0 for c in v) or h == k
        return v, (0 if on_wall else (-1) ** steps)


@lru_cache(maxsize=None)
def _theta_coeffs(lie):
    # <x, theta> is linear in the weight coordinates of x with coefficients
    # <omega_b, theta>, integers since theta is a coroot
    return tuple(sum(s * t for s, t in zip(row, lie.theta)) // (lie.rank + 1)
                 for row in lie.scaled_gram)


def lattice_points_in_scaled_box(lie, k):
    """One weight-lattice representative of every coset of P/kQ.

    The representatives are the x whose coordinates in the simple-coroot
    basis lie in [0, k), i.e. key = scaled_gram.x in [0, (r+1)k)^r.  An
    integer vector is such a key exactly when it is congruent mod r+1 to
    j times scaled_gram's first column (which generates P/Q) for some j,
    so the points are enumerated directly: key = b_j + (r+1)q, with b_j
    that multiple reduced mod r+1, for j in 0..r and q in [0, k)^r, and
    x = cartan.key/(r+1).  Returns the (r+1)k^r integer weight-coordinate
    tuples, sorted.
    """
    k = int(k)
    n = lie.rank + 1
    col = [row[0] for row in lie.scaled_gram]
    out = []
    for j in range(n):
        base = [j * c % n for c in col]
        for q in product(range(k), repeat=lie.rank):
            key = [b + n * a for b, a in zip(base, q)]
            out.append(tuple(sum(c * v for c, v in zip(row, key)) // n
                             for row in lie.cartan))
    out.sort()
    return out
