"""Root-system data and level-k combinatorics for the A_r series.

All pairing computations use the normalization in which short coroots have
squared length 2.  For A_r every root is short, the coroot lattice equals the
root lattice, and the Gram matrix of the fundamental weights is
G_ij = min(i,j) - i*j/(r+1), obtained from the hyperplane model of A_r in
R^(r+1) and already correctly scaled.  G is also the inverse Cartan matrix,
and the integer matrix (r+1)G (scaled_gram) carries the exact pairing of
two weights: (r+1)<x, y> = x.scaled_gram.y, and scaled_gram.x is (r+1)
times the coroot coordinates of x.

Root pairings need no Gram matrix.  In the fundamental weight basis the
simple coroot alpha_i pairs with x as x_i, so the positive root
alpha_i + ... + alpha_j pairs with x as the span sum x_i + ... + x_j
(root_pairings), exact for ints and Fractions; <x, theta> is sum(x).  Every
root pairing of the package (sine products, regularity, det(1 - exp ad b),
quantum dimensions, the coset table) goes through root_pairings.

Weights are integer coordinate tuples in the fundamental weight basis.
General Cartan-subalgebra elements are tuples of Fractions (or floats on
explicitly approximate paths) in the same basis.  Levels and weights are
taken by operator.index: a float or Fraction level or coordinate raises
ValueError instead of being truncated.  The tables that feed the state
sums (the cosets P/kQ, weight systems, fusion rows) are built in integer
arithmetic; transcendental evaluations (sines, phases) happen once per
cached argument at the outermost layer.

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
import operator
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import combinations_with_replacement, product

__all__ = [
    "LieData",
    "lie_data",
    "root_pairings",
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

# a float root pairing this close to an integer lies on an affine wall
_WALL_TOL = 1e-9


@dataclass(frozen=True, eq=False)
class LieData:
    """Immutable root data of A_r in the short-coroot normalization.

    Compared and hashed by identity: lie_data keeps one instance per rank,
    and the lru caches keyed on it would otherwise hash every field on
    each lookup.
    """

    series: str
    rank: int
    scaled_gram: Mat           # (r+1) * Gram matrix of fundamental weights
    simple_roots: Mat          # weight-basis coordinates, also the coroots;
                               # the Cartan matrix, symmetric for A_r
    positive_roots: tuple      # alpha_i + ... + alpha_j, (i, j) in lex order
    rho: Vec
    theta: Vec                 # highest root
    dual_coxeter: int


@lru_cache(maxsize=None)
def _build_a_series(rank):
    r = rank
    scaled_gram = tuple(
        tuple((r + 1) * min(i, j) - i * j for j in range(1, r + 1))
        for i in range(1, r + 1)
    )
    simple = tuple(
        tuple(2 if i == j else (-1 if abs(i - j) == 1 else 0) for j in range(r))
        for i in range(r)
    )
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
    return LieData(
        series=f"A{r}",
        rank=r,
        scaled_gram=scaled_gram,
        simple_roots=simple,
        positive_roots=tuple(positive),
        rho=rho,
        theta=theta,
        dual_coxeter=1 + sum(rho),
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


def root_pairings(lie, x):
    """<alpha, x> for each alpha in positive_roots, in that order.

    x is in the fundamental weight basis, where the simple coroot alpha_i
    pairs with x as x_i; the root alpha_i + ... + alpha_j therefore pairs
    as the span sum x_i + ... + x_j, accumulated left to right.  Exact
    (ints stay ints) for int and Fraction coordinates.
    """
    if len(x) != lie.rank:
        raise ValueError(f"{tuple(x)} needs {lie.rank} coordinates for "
                         f"{lie.series}")
    out = []
    for i in range(lie.rank):
        t = 0
        for c in x[i:]:
            t += c
            out.append(t)
    return out


def _index(value, what):
    """value as an int by operator.index; any other type raises ValueError.

    A float or Fraction is refused even when integral, never truncated.
    """
    try:
        return operator.index(value)
    except TypeError:
        raise ValueError(f"{what} must be an integer, not {value!r}") \
            from None


def _level(k):
    """A level as an int (see _index); a level below 1 raises ValueError."""
    k = _index(k, "level")
    if k < 1:
        raise ValueError("level must be a positive integer")
    return k


def _weight(values, what):
    """A weight's coordinates as a tuple of ints (see _index)."""
    return tuple(_index(c, what) for c in values)


def _dual(weight):
    """The dual weight -w0(weight): for A_r, the coordinates reversed."""
    return tuple(reversed(weight))


def level_labels(lie, k):
    """Dominant weights admissible at level k, lexicographically ordered.

    The set is empty below the dual Coxeter number; at k equal to it only the
    zero label survives.
    """
    k = _level(k)
    budget = k - lie.dual_coxeter
    if budget < 0:
        return []
    # <lam, theta> = sum(lam)
    return [lam for lam in product(range(budget + 1), repeat=lie.rank)
            if sum(lam) <= budget]


def quantum_dim(lie, k, lam):
    """sin-product dimension of a level-k label.

    The product over positive roots of sin(pi <alpha, lam + rho>/k) over
    sin(pi <alpha, rho>/k).  k and lam are taken by operator.index (see
    _index); a level below 1 raises ValueError.
    """
    k = _level(k)
    shifted = tuple(l + p for l, p in zip(_weight(lam, "label"), lie.rho))
    num = 1.0
    den = 1.0
    for t, h in zip(root_pairings(lie, shifted), root_pairings(lie, lie.rho)):
        num *= math.sin(math.pi * (t / k))
        den *= math.sin(math.pi * (h / k))
    return num / den


def sine_product(lie, b):
    """Signed product of 2*sin(pi*<alpha, b>) over positive roots.

    This is the square-root branch used for the half-power of the adjoint
    determinant: it is odd under alcove-wall reflections, which is what makes
    alternating Weyl signs come out of the face determinant factors.
    """
    out = 1.0
    for t in root_pairings(lie, b):
        out *= 2.0 * math.sin(math.pi * float(t))
    return out


def ad_det_k(lie, b):
    """det(1 - exp(ad b)) on the complement of the Cartan subalgebra."""
    out = 1.0
    for t in root_pairings(lie, b):
        out *= 4.0 * math.sin(math.pi * float(t)) ** 2
    return out


def is_regular(lie, b):
    """True when no root pairing with b is an integer.

    Rational input is decided exactly; float input within _WALL_TOL.
    """
    return _off_walls(root_pairings(lie, b))


def _off_walls(ts):
    """True when none of the root pairings ts is an integer (see is_regular).

    The pairings are all exact exactly when b's coordinates are, since
    each coordinate is the pairing with its simple root.
    """
    if all(isinstance(t, (int, Fraction)) for t in ts):
        return all(t.denominator != 1 for t in ts)
    return all(abs(t - round(t)) > _WALL_TOL for t in ts)


@lru_cache(maxsize=None)
def _full_weight_table(lie, gamma):
    """{weight: multiplicity} of the irrep gamma, from semistandard tableaux.

    Row i of the shape has sum(gamma[i:]) boxes, filled from 0..r weakly
    increasing along rows and strictly increasing down columns; a filling
    with content c adds 1 at the weight (c_0 - c_1, ..., c_{r-1} - c_r)
    (Fulton-Harris, Representation Theory, 15.3).
    """
    r = lie.rank
    if len(gamma) != r:
        raise ValueError(f"highest weight {gamma} needs {r} coordinates for "
                         f"{lie.series}")
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
    return dict(_full_weight_table(lie, _weight(gamma, "highest weight")))


def fusion_coefficient(lie, k, mu, nu, lam):
    """Level-k fusion coefficient N_{mu,nu}^lam, an exact integer.

    The first slot is conjugated: N_{mu,nu}^lam is the multiplicity of lam
    in the level-k product conj(mu) x nu, so (A2, 5, (1,0), (0,0), (1,0))
    gives 0 and (A2, 5, (0,1), (0,0), (1,0)) gives 1.
    A lookup into the fusion rows of the color mu (see _fusion_table),
    built once per (lie, k, mu) from |labels|*|weights of mu| alcove
    reductions.  nu and lam must be level-k labels; anything else raises
    ValueError.  mu may be any dominant weight.
    """
    rows = _fusion_table(lie, _index(k, "level"), _weight(mu, "color"))
    nu = _weight(nu, "label")
    lam = _weight(lam, "label")
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
        h = sum(v)  # <v, theta>
        if h > k:
            for a in range(r):
                v[a] -= (h - k) * lie.theta[a]
            steps += 1
            continue
        on_wall = any(c == 0 for c in v) or h == k
        return v, (0 if on_wall else (-1) ** steps)


def lattice_points_in_scaled_box(lie, k):
    """One weight-lattice representative of every coset of P/kQ.

    The representatives are the x whose coordinates in the simple-coroot
    basis lie in [0, k), i.e. key = scaled_gram.x in [0, (r+1)k)^r.  An
    integer vector is such a key exactly when it is congruent mod r+1 to
    j times scaled_gram's first column (which generates P/Q) for some j,
    so the points are enumerated directly: key = b_j + (r+1)q, with b_j
    that multiple reduced mod r+1, for j in 0..r and q in [0, k)^r, and
    x = cartan.key/(r+1) = cartan.b_j/(r+1) + cartan.q, the Cartan matrix
    being simple_roots; both terms are integer vectors, and cartan.q is
    computed once, one coordinate column at a time.  Returns the
    (r+1)k^r integer weight-coordinate tuples, sorted.  A level below 1
    raises ValueError.
    """
    k = _level(k)
    n = lie.rank + 1
    col = [row[0] for row in lie.scaled_gram]
    qcols = list(zip(*product(range(k), repeat=lie.rank)))
    box = []
    for row in lie.simple_roots:
        x = [0] * len(qcols[0])
        for c, qcol in zip(row, qcols):
            if c:
                x = [a + c * q for a, q in zip(x, qcol)]
        box.append(x)
    out = []
    for j in range(n):
        base = [j * c % n for c in col]
        shift = [sum(c * b for c, b in zip(row, base)) // n
                 for row in lie.simple_roots]
        out += zip(*[[a + s for a in x] for x, s in zip(box, shift)])
    out.sort()
    return out
