"""Ribbon link state sums: the holonomy side and the shadow side.

Two independent evaluations of the same observable for colored simplicial
ribbon links on a closed oriented surface times a time circle.  The
holonomy side sums an integer weight vector per link complement face,
weighted by sine determinant factors, regularity indicators and winding
phases.  The shadow side colors the faces with level-k labels and
multiplies fusion coefficients, quantum dimensions and gleam phases.
Neither side is normalized; the certified statement is the equality of
their ratios against the empty link.

Links come in two presentations.  The abstract one records only the
nesting forest of the ribbons with a color, a winding number and an
orientation sign per ribbon.  The embedded one realizes every ribbon as a
closed strip of tetragons in the doubled complex, and every derived
quantity (face potentials, region structure, Euler characteristics,
adjacency) is recomputed from the cells and checked against the abstract
data; any disagreement is a structural error, never a warning.  That check
runs once, when the link is made (embed_link) or handed in (validate_link);
both state sums then read the nesting forest only.

What the sums read of a link is one forest record (_forest), validated
once per evaluation; what they read of a level is one cached table per
(group, level): the coset table, and the labels with their quantum
dimensions and phase exponents (_label_table).  The holonomy sum also
reads one cached shift table per (group, level, step) (_shift_table).
These tables, and the nonzero fusion rows of each color
(lie._fusion_table), are built directly in integer arithmetic.
"""

import math
import operator
from array import array
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import product
from types import MappingProxyType
from typing import NamedTuple

from .complex import (RibbonStep, _find, build_standard_surface, coboundary,
                      default_sigma0, face_euler_characteristics,
                      hodge_star_signs)
# fusion_coefficient, is_regular and sine_product are not called here; they
# stay bound because the benchmark's tracer wraps them at this module
from .lie import (_alcove_reduce, _fusion_table, _index, _weight,
                  fusion_coefficient, is_regular, lattice_points_in_scaled_box,
                  level_labels, quantum_dim, root_pairings, sine_product,
                  weight_multiplicities)


@dataclass(frozen=True)
class ColoredRibbon:
    """One ribbon: a color, a time winding and an orientation sign.

    orientation is the jump of the ribbon's face potential on the enclosed
    side: +1 when the potential steps up going inward, -1 when it steps
    down.  parent is the index of the enclosing face (0 is the base face,
    j >= 1 the inner face of ribbon j).  Embedded ribbons additionally
    carry their boundary walk as RibbonStep entries and the quarter cells
    covered by the strip.
    """

    color: tuple
    winding: int
    orientation: int = 1
    parent: int = 0
    steps: tuple = ()
    strip_quarters: tuple = ()


@dataclass(frozen=True)
class RibbonLink:
    """A colored link of non-crossing ribbons on a genus-g surface.

    Face j for j >= 1 is the face directly inside ribbon j; face 0 is the
    face of the basepoint.  Embedded links carry the surface complex and
    the time resolution n; abstract links leave both at their defaults.
    """

    genus: int
    ribbons: tuple = ()
    complex: object = None
    n: int = 1


@dataclass(frozen=True)
class StateSumResult:
    """Value and term census of one state sum evaluation."""

    value: complex
    terms_total: int
    terms_skipped_singular: int
    flag: str = None
    terms: tuple = None


@dataclass(frozen=True, order=True)
class WloTerm:
    """One surviving holonomy-side term, in exact rational form.

    holonomies lists the face values of B as coordinate tuples, in face
    order; phase is the total winding phase exponent as a multiple of pi,
    reduced mod 2.  Terms compare exactly, not approximately.
    """

    alpha0: tuple
    alphas: tuple
    multiplicity: int
    holonomies: tuple
    phase: Fraction


@dataclass(frozen=True)
class TheoremReport:
    """Both normalized ratios and their difference."""

    wlo_link: complex
    wlo_empty: complex
    shadow_link: complex
    shadow_empty: complex
    wlo_ratio: complex
    shadow_ratio: complex
    abs_difference: float
    rel_difference: float


@dataclass(frozen=True)
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


class _Forest(NamedTuple):
    """The nesting forest of a link, with everything the sums read of it.

    parent[j] is the face enclosing face j (-1 for the base face 0), order
    lists the ribbon faces deepest first (a stable sort, so every face
    precedes its parent), chi and gleam hold each face's Euler
    characteristic and gleam, and marked each ribbon's (Y+, Y-) faces.
    """

    parent: tuple
    order: tuple
    chi: tuple
    gleam: tuple
    marked: tuple


def _integer(value):
    """value as an int if it is an integer type (operator.index), else None."""
    try:
        return operator.index(value)
    except TypeError:
        return None


def _forest(link):
    """The validated nesting forest of a link.

    Windings and orientations must be integers, not merely integral: the
    sums use them as exponents into integer phase tables.
    """
    m = len(link.ribbons)
    par = [-1] * (m + 1)
    chi = [2 - 2 * link.genus] + [1] * m
    gl = [0] * (m + 1)
    marked = []
    for pos, rib in enumerate(link.ribbons, start=1):
        p = rib.parent
        if not isinstance(p, int) or not 0 <= p <= m:
            raise ValueError(f"ribbon {pos - 1}: invalid parent face {p!r}")
        if _integer(rib.orientation) not in (1, -1):
            raise ValueError(f"ribbon {pos - 1}: orientation must be +-1")
        if _integer(rib.winding) is None:
            raise ValueError(f"ribbon {pos - 1}: winding must be an integer")
        par[pos] = p
        # the ribbon cuts a disk out of its parent face, and its gleam
        # share enters its inner face and leaves the parent face
        chi[p] -= 1
        gl[pos] += rib.winding * rib.orientation
        gl[p] -= rib.winding * rib.orientation
        # Y+ is the side on which the face potential jumps up
        marked.append((pos, p) if rib.orientation == 1 else (p, pos))
    depth = [0] * (m + 1)
    for start in range(1, m + 1):
        seen = set()
        j = start
        while j != 0:
            if j in seen:
                raise ValueError(f"ribbon {j - 1}: parent {par[j]} closes a"
                                 " cycle in the nesting relation")
            seen.add(j)
            j = par[j]
        depth[start] = len(seen)
    order = sorted(range(1, m + 1), key=depth.__getitem__, reverse=True)
    return _Forest(tuple(par), tuple(order), tuple(chi), tuple(gl),
                   tuple(marked))


def face_chi(link):
    """Euler characteristic of each closed link complement face.

    The base face is the genus-g surface minus one disk per child; every
    other face is a disk minus one disk per child.
    """
    return _forest(link).chi


def _face_weights(link, par):
    """Face potentials u_i(Y_j) (rows ribbons, columns faces) over par.

    u_i is ribbon i's orientation on every face it encloses and 0 outside.
    """
    table = [[0] * len(par) for _ in link.ribbons]
    for j in range(1, len(par)):
        x = j
        while x != 0:
            table[x - 1][j] = link.ribbons[x - 1].orientation
            x = par[x]
    return tuple(tuple(row) for row in table)


def gleam(link, face):
    """Winding-weighted boundary orientation count of one face.

    Each ribbon adds winding*orientation to its inner face and subtracts
    the same from its parent face, so the gleams of any link sum to zero.
    """
    gl = _forest(link).gleam
    if not 0 <= face < len(gl):
        raise ValueError(f"no face {face} in a link with {len(gl) - 1}"
                         " ribbons")
    return gl[face]


def fusion_faces(link, i):
    """(Y+, Y-) face indices of ribbon i.

    Y+ is the adjacent face whose induced boundary orientation agrees with
    the ribbon's first loop; with the orientation convention used here that
    is the side on which the face potential jumps up.
    """
    return _forest(link).marked[i]


# ---------------------------------------------------------------------------
# embedded links: arcs, strips, potentials, regions


def _chain_vertices(cx, chain):
    """Ordered vertices visited by a dart chain, with closure validation."""
    if not chain:
        raise ValueError("empty boundary chain")
    verts = []
    for qe, sgn in chain:
        if qe not in cx.qk_edges:
            raise ValueError(f"chain uses unknown edge {qe!r}")
        if sgn not in (1, -1):
            raise ValueError(f"chain sign must be +-1, got {sgn!r}")
        t, h = cx.qk_edges[qe]
        if sgn == -1:
            t, h = h, t
        if verts and verts[-1] != t:
            raise ValueError(f"chain breaks at {qe!r}")
        if not verts:
            verts.append(t)
        verts.append(h)
    if verts[0] != verts[-1]:
        raise ValueError("boundary chain does not close")
    return verts[:-1]


def _ribbon_chains(rib):
    """The two boundary dart chains and the time profile of a ribbon."""
    l_chain = []
    lp_chain = []
    dts = []
    for st in rib.steps:
        if st.dt:
            if st.l_sigma or st.lp_sigma:
                raise ValueError("a step may move in time or in the surface,"
                                 " not both")
            if st.dt not in (1, -1):
                raise ValueError("time steps move one slice at a time")
            if st.l_vertex is None or st.lp_vertex is None:
                raise ValueError("time steps need both loop positions")
            dts.append(st.dt)
        else:
            l_chain.extend(st.l_sigma)
            lp_chain.extend(st.lp_sigma)
    return l_chain, lp_chain, dts


def _arc_data(cx, rib):
    """Vertex and edge sets of both arcs of one embedded ribbon."""
    l_chain, lp_chain, dts = _ribbon_chains(rib)
    lv = _chain_vertices(cx, l_chain)
    lpv = _chain_vertices(cx, lp_chain)
    kinds_l = {qe[0] for qe, _ in l_chain}
    kinds_lp = {qe[0] for qe, _ in lp_chain}
    # the two loops live on opposite halves of the doubled complex
    if not (kinds_l <= {"h1", "h2"} and kinds_lp <= {"d1", "d2"}) and \
       not (kinds_l <= {"d1", "d2"} and kinds_lp <= {"h1", "h2"}):
        raise ValueError("ribbon loops must project to opposite halves of"
                         " the edge double")
    return {
        "l_chain": tuple(l_chain),
        "lp_chain": tuple(lp_chain),
        "l_vertices": frozenset(lv),
        "lp_vertices": frozenset(lpv),
        "l_edges": frozenset(qe for qe, _ in l_chain),
        "lp_edges": frozenset(qe for qe, _ in lp_chain),
        "sigma": lv[0],
        "sigma_prime": lpv[0],
        "dts": tuple(dts),
    }


def _quarter_sides(cx):
    """The set of qK edges bounding each quarter, by quarter id."""
    return {qid: frozenset(qe for qe, _ in darts)
            for qid, darts in cx.quarters.items()}


def _strip_quarters(sides, arcs, declared=None):
    """Quarters with one side on each arc; checked against the declaration."""
    found = frozenset(qid for qid, ss in sides.items()
                      if ss & arcs["l_edges"] and ss & arcs["lp_edges"])
    if declared:
        if frozenset(declared) != found:
            raise ValueError("declared strip quarters disagree with the"
                             " quarters spanned by the ribbon arcs")
    return found


def _components(sides, quarters):
    """Connected components of a quarter set, glued along shared edges."""
    parent = {qid: qid for qid in quarters}
    by_edge = {}
    for qid in quarters:
        for qe in sides[qid]:
            by_edge.setdefault(qe, []).append(qid)
    for group in by_edge.values():
        for other in group[1:]:
            ra, rb = _find(parent, group[0]), _find(parent, other)
            if ra != rb:
                parent[ra] = rb
    comps = {}
    for qid in quarters:
        comps.setdefault(_find(parent, qid), set()).add(qid)
    return [frozenset(c) for c in comps.values()]


def _star_projected_differential(cx, f):
    """Apply the marked-complex star to the projected coboundary of f.

    Returns (primal, dual) coefficient dicts over the base edges, in
    quarter units: 4 times star(project_to_K(coboundary(f))), where
    project_to_K is the test oracle in tests/oracles.py.  The projection
    of an edge is the mean of its two halves x_a, x_b, so the value is
    2*s*(x_a + x_b), with s the star's sign; the halves telescope to the
    difference of f at the edge's ends.  This is the holonomy-side
    momentum map whose value on a valid ribbon potential is the half-sum
    chain of the two boundary loops; an integer f gives integers.
    """
    s1 = hodge_star_signs["K1"]
    s2 = hodge_star_signs["K2"]
    primal = {}
    dual = {}
    for e, (t, h) in cx.edges.items():
        primal[e] = 2 * s2 * (f[("c", cx.edge_right[e])]
                              - f[("c", cx.edge_left[e])])
        dual[e] = 2 * s1 * (f[("v", h)] - f[("v", t)])
    return primal, dual


def _half_sum_chain(cx, arcs):
    """Projected half-sum of the two boundary loops, by base edge and side.

    In quarter units, like _star_projected_differential: each chain dart
    adds its sign to the side of its base edge.
    """
    primal = dict.fromkeys(cx.edges, 0)
    dual = dict.fromkeys(cx.edges, 0)
    for chain in (arcs["l_chain"], arcs["lp_chain"]):
        for (kind, e), sgn in chain:
            if kind in ("h1", "h2"):
                primal[e] += sgn
            else:
                dual[e] += sgn
    return primal, dual


def _ribbon_potential(cx, sides, arcs, strip):
    """Unit-jump potential of one ribbon, with its derived jump sign.

    The potential is constant on each side of the strip, affine across it,
    and solves the defining equation: star of the projected differential
    equals the half-sum boundary chain.  The equation is linear, so the
    potential of jump +1 is built once, with values 0 and 1, and its image
    compared with plus and minus the chain; the sign that matches is the
    ribbon orientation the embedding realizes.  Both sides of the equation
    are multiples of 1/4, so they are compared exactly as integers in
    quarter units.  sides is _quarter_sides(cx).
    """
    rest = [qid for qid in cx.quarters if qid not in strip]
    comps = _components(sides, rest)
    if len(comps) != 2:
        raise ValueError(f"ribbon strip complement has {len(comps)}"
                         " components, expected 2: the ribbon is not an"
                         " embedded annulus with two sides")

    def closure_vertices(comp):
        out = set()
        for qid in comp:
            out.update(cx.quarter_corners[qid])
        return out

    side_l = side_lp = None
    for comp in comps:
        edges = set()
        for qid in comp:
            edges |= sides[qid]
        if edges & arcs["l_edges"]:
            side_l = comp
        if edges & arcs["lp_edges"]:
            side_lp = comp
    if side_l is None or side_lp is None or side_l is side_lp:
        raise ValueError("ribbon arcs do not separate the two strip sides")

    f = {}
    for v in closure_vertices(side_lp):
        f[v] = 0
    for v in closure_vertices(side_l):
        f[v] = 1
    if set(f) != set(cx.qk_vertices):
        raise ValueError("strip interior contains vertices off the"
                         " ribbon arcs")
    image = _star_projected_differential(cx, f)
    target = _half_sum_chain(cx, arcs)
    if image == target:
        jump = 1
    elif image == tuple({e: -c for e, c in side.items()} for side in target):
        jump = -1
        f = {v: -val for v, val in f.items()}
    else:
        raise ValueError("no unit-jump potential satisfies the defining"
                         " equation for this ribbon")
    df = coboundary(cx, f)
    transverse = set()
    for qid in strip:
        for qe in sides[qid]:
            if qe not in arcs["l_edges"] and qe not in arcs["lp_edges"]:
                transverse.add(qe)
    support = {qe for qe, val in df.items() if val}
    # unit jumps exactly on the strip crossing edges
    if support != transverse:
        raise ValueError("potential differential is not supported on the"
                         " strip crossing edges")
    if any(abs(df[qe]) != 1 for qe in support):
        raise ValueError("potential jump is not a unit on some strip"
                         " crossing edge")
    for qid, corners in sorted(cx.quarter_corners.items()):
        v, m_in, m_out, c = corners
        if f[v] + f[c] != f[m_in] + f[m_out]:
            raise ValueError(f"potential is not affine on quarter {qid!r}")
    return f, jump


class _EmbeddedFaces:
    """Derived face structure of an embedded link.

    Carries the per-ribbon potentials, the strip complement regions
    matched one-to-one against the abstract faces, the census Euler
    characteristics, and the two marked faces (Y+, Y-) of every ribbon,
    ordered like fusion_faces: the side where the ribbon's own potential is
    higher comes first.  All checks that compare the derived data with the
    abstract link data raise on the first disagreement.
    """

    def __init__(self, link):
        forest = _forest(link)
        cx = link.complex
        if cx is None:
            raise ValueError("link carries no surface complex")
        if link.n < 2:
            raise ValueError("embedded links need at least two time slices")
        if cx.genus != link.genus:
            raise ValueError(f"link genus {link.genus} disagrees with the"
                             f" complex genus {cx.genus}")
        m = len(link.ribbons)
        self.cx = cx
        self.sides = sides = _quarter_sides(cx)
        self.arcs = []
        self.strips = []
        for pos, rib in enumerate(link.ribbons):
            if not rib.steps:
                raise ValueError(f"ribbon {pos} has no embedding steps")
            arcs = _arc_data(cx, rib)
            if sum(arcs["dts"]) != rib.winding * link.n:
                raise ValueError(f"ribbon {pos}: time profile winds"
                                 f" {sum(arcs['dts'])}/{link.n}, declared"
                                 f" winding is {rib.winding}")
            self.arcs.append(arcs)
            self.strips.append(_strip_quarters(sides, arcs,
                                               rib.strip_quarters))

        self._check_disjointness()
        self._check_strip_tetragons()

        occupied = set()
        for arcs in self.arcs:
            occupied |= arcs["l_vertices"] | arcs["lp_vertices"]
        self.sigma0 = default_sigma0(cx, excluded=occupied)

        self.potentials = []
        self.jumps = []
        for pos, rib in enumerate(link.ribbons):
            f, jump = _ribbon_potential(cx, sides, self.arcs[pos],
                                        self.strips[pos])
            shift = f[self.sigma0]
            if shift not in (0, jump):
                raise ValueError(f"ribbon {pos}: basepoint value {shift}"
                                 " is off both strip sides")
            self.potentials.append({v: val - shift for v, val in f.items()})
            # after normalizing at the basepoint the nonzero side is the
            # enclosed one, whichever loop the embedding put there
            inside = jump if shift == 0 else -jump
            self.jumps.append(inside)
            if inside != rib.orientation:
                raise ValueError(f"ribbon {pos}: embedded jump sign"
                                 f" {inside} disagrees with declared"
                                 f" orientation {rib.orientation}")

        all_strips = set()
        for strip in self.strips:
            all_strips |= strip
        regions = _components(sides, [qid for qid in cx.quarters
                                      if qid not in all_strips])
        if len(regions) != m + 1:
            raise ValueError(f"strip complement has {len(regions)} regions"
                             f" for {m} ribbons, expected {m + 1}")

        table = _face_weights(link, forest.parent)
        want = {}
        for j in range(m + 1):
            vec = tuple(table[i][j] for i in range(m))
            if vec in want:
                raise ValueError("abstract face weight vectors are not"
                                 " distinct")
            want[vec] = j

        ordered = [None] * (m + 1)
        for comp in regions:
            rep = min(v for qid in comp for v in cx.quarter_corners[qid])
            vec = tuple(f[rep] for f in self.potentials)
            j = want.get(vec)
            if j is None or ordered[j] is not None:
                raise ValueError(f"region weight vector {vec} does not"
                                 " match the abstract nesting forest")
            ordered[j] = comp
        self.regions = tuple(ordered)

        census = face_euler_characteristics(
            cx, {j: set(comp) for j, comp in enumerate(self.regions)})
        self.chi = tuple(census[j] for j in range(m + 1))
        if self.chi != forest.chi:
            raise ValueError(f"face Euler characteristics {self.chi}"
                             f" disagree with the abstract values"
                             f" {forest.chi}")

        par = forest.parent
        self.marked = []
        for pos in range(m):
            sig = self.arcs[pos]["sigma"]
            sigp = self.arcs[pos]["sigma_prime"]
            vec_l = tuple(f[sig] for f in self.potentials)
            vec_lp = tuple(f[sigp] for f in self.potentials)
            l_face = want.get(vec_l)
            lp_face = want.get(vec_lp)
            if l_face is None or lp_face is None:
                raise ValueError(f"ribbon {pos}: loop basepoints do not"
                                 " evaluate to face potential vectors")
            if {l_face, lp_face} != {pos + 1, par[pos + 1]}:
                raise ValueError(f"ribbon {pos}: adjacent faces"
                                 f" {{{l_face}, {lp_face}}} disagree with"
                                 " the nesting forest")
            own = self.potentials[pos]
            if own[sig] < own[sigp]:
                l_face, lp_face = lp_face, l_face
            self.marked.append((l_face, lp_face))

    def _check_disjointness(self):
        closures = []
        for arcs in self.arcs:
            closures.append(("l", arcs["l_vertices"], arcs["l_edges"]))
            closures.append(("lp", arcs["lp_vertices"], arcs["lp_edges"]))
        for a in range(len(closures)):
            for b in range(a + 1, len(closures)):
                _, va, ea = closures[a]
                _, vb, eb = closures[b]
                if va & vb or ea & eb:
                    raise ValueError("ribbon boundary arcs intersect: the"
                                     " link is not non-crossing")
        for a in range(len(self.strips)):
            for b in range(a + 1, len(self.strips)):
                if self.strips[a] & self.strips[b]:
                    raise ValueError("ribbon strips overlap")

    def _check_strip_tetragons(self):
        sides = self.sides
        for pos, strip in enumerate(self.strips):
            arcs = self.arcs[pos]
            arc_verts = arcs["l_vertices"] | arcs["lp_vertices"]
            for qid in strip:
                on_l = len(sides[qid] & arcs["l_edges"])
                on_lp = len(sides[qid] & arcs["lp_edges"])
                if on_l != 1 or on_lp != 1:
                    raise ValueError(
                        f"strip quarter {qid!r} of ribbon {pos} has"
                        f" {on_l} sides on the first loop and {on_lp} on"
                        " the second, expected exactly one each")
                for v in self.cx.quarter_corners[qid]:
                    if v not in arc_verts:
                        raise ValueError(
                            f"strip of ribbon {pos} contains the interior"
                            f" vertex {v!r}")


def validate_link(link):
    """Structural validation of a link presentation.

    Abstract links get their nesting forest checked; embedded links
    additionally get the full battery: loop closure in space and time,
    sidedness of the two loops, arc and strip disjointness, strip tetragon
    counts, absence of interior strip vertices, separation by each strip,
    winding consistency, and exact agreement of the derived potentials,
    regions, Euler characteristics and marked faces with the abstract
    data.
    """
    if link.complex is None:
        _forest(link)
    else:
        _EmbeddedFaces(link)


# ---------------------------------------------------------------------------
# the holonomy side


def _compensated_sum(values):
    """Sum complex (or real) values in order, Neumaier-compensated.

    The real and the imaginary parts each carry a running sum and a
    compensation; every step adds x to the sum s and the rounding error of
    s + x, taken from the larger of |s| and |x|, to the compensation.
    """
    re = im = cre = cim = 0.0
    for z in values:
        x = z.real
        t = re + x
        if abs(re) >= abs(x):
            cre += (re - t) + x
        else:
            cre += (x - t) + re
        re = t
        x = z.imag
        t = im + x
        if abs(im) >= abs(x):
            cim += (im - t) + x
        else:
            cim += (x - t) + im
        im = t
    return complex(re + cre, im + cim)


def _phase(q):
    """exp(i pi q) for rational q, evaluated at the reduced argument."""
    q = q % 2
    return complex(math.cos(math.pi * float(q)), math.sin(math.pi * float(q)))


def _dot(u, v):
    return sum(a * b for a, b in zip(u, v))


@lru_cache(maxsize=None)
def _phase_table(modulus):
    """exp(i pi e / modulus) for 0 <= e < 2 modulus, shared by both sums."""
    return tuple(_phase(Fraction(e, modulus)) for e in range(2 * modulus))


class _CosetTable(NamedTuple):
    """Face data on one representative per coset of P/kQ, at one level.

    reps are the representatives of lattice_points_in_scaled_box in its
    order.  A weight x has coroot coordinates scaled_gram.x / (r+1); its
    coset key is scaled_gram.x reduced mod (r+1)k, and index maps keys to
    positions in reps, in that order.  regular and sines hold the
    regularity of rep/k and sine_product(rep/k) (0.0 where singular), live
    the positions of the regular representatives in increasing order, and
    phases is the phase table of modulus (r+1)k.
    """

    reps: tuple
    index: MappingProxyType
    regular: tuple
    live: tuple
    sines: tuple
    phases: tuple


def _coset_key(lie, modulus, x):
    """(r+1) times the coroot coordinates of x, reduced mod (r+1)k."""
    return tuple(_dot(row, x) % modulus for row in lie.scaled_gram)


@lru_cache(maxsize=None)
def _coset_table(lie, k):
    """The coset table of (lie, k), shared by every holonomy sum at k.

    A representative's key already lies in [0, (r+1)k), and each root
    pairing t = <alpha, x> (root_pairings) is an integer: x/k is regular
    iff no t is divisible by k, and its sine is the product of
    2 sin(pi t/k) in positive_roots order, the floats of sine_product(x/k).
    """
    reps = tuple(lattice_points_in_scaled_box(lie, k))
    index = {}
    regular = []
    sines = []
    sine = {}
    for pos, x in enumerate(reps):
        key = tuple(_dot(row, x) for row in lie.scaled_gram)
        index[key] = pos
        ts = root_pairings(lie, x)
        ok = all(t % k for t in ts)
        regular.append(ok)
        s = 0.0
        if ok:
            s = 1.0
            for t in ts:
                if t not in sine:
                    sine[t] = 2.0 * math.sin(math.pi * (t / k))
                s *= sine[t]
        sines.append(s)
    live = tuple(pos for pos, ok in enumerate(regular) if ok)
    return _CosetTable(reps, MappingProxyType(index), tuple(regular), live,
                       tuple(sines), _phase_table((lie.rank + 1) * k))


@lru_cache(maxsize=None)
def _shift_table(lie, k, step):
    """Where a face moves by step, over the live cosets of (lie, k).

    step = o alpha is the weight by which a ribbon of orientation o moves
    the face below it, for alpha in the ribbon's color support.  Returns
    two integer arrays aligned with the coset table's live positions: the
    position of the coset of rep + step, and the exponent
    2 step.key + step.(scaled_gram.step) reduced mod 2(r+1)k, which is
    (r+1)(2<step, rep> + <step, step>).  A ribbon of winding w gives the
    summand at rep the phase index o w times that exponent, because
    o^2 = 1.  The tables hold no scalars; dual colors met with opposite
    orientations share them.
    """
    table = _coset_table(lie, k)
    modulus = (lie.rank + 1) * k
    g_step = tuple(_dot(row, step) for row in lie.scaled_gram)
    keys = tuple(table.index)
    # one list per key coordinate, over the live cosets
    cols = list(zip(*[keys[pos] for pos in table.live]))
    # key(x + step) = key(x) + scaled_gram.step, coordinatewise
    moved = [[(a + g) % modulus for a in col] for col, g in zip(cols, g_step)]
    # 4 bytes an entry: positions lie below |P/kQ|, exponents below 2(r+1)k
    shifted = array("i", map(table.index.__getitem__, zip(*moved)))
    expo = [_dot(g_step, step)] * len(table.live)
    for col, s in zip(cols, step):
        expo = [e + 2 * s * a for e, a in zip(expo, col)]
    return shifted, array("i", [e % (2 * modulus) for e in expo])


def _wlo_contract(lie, k, link, forest):
    """Holonomy sum and its term census by contraction over the forest.

    The k-scaled holonomy of face c = i+1 is beta_c = beta_parent +
    o_i alpha_i, and every factor is periodic under kQ, so face c carries
    a vector over the cosets: [regular] sine^chi_c times the kernels of
    its child ribbons.  The kernel of ribbon i at parent coset x sums, over
    its color support, mult(alpha) exp(i pi w_i <alpha, 2x + o_i alpha>/k)
    times the child vector at x + o_i alpha, reading the shift table of
    step o_i alpha.  The integer vectors count regular paths the same way,
    weight one per support choice.
    """
    table = _coset_table(lie, k)
    par = forest.parent
    live = table.live
    phases = table.phases
    m2 = len(phases)
    size = total = len(table.reps)
    vals = []
    counts = []
    for x in forest.chi:
        vals.append([s ** x if ok else 0.0
                     for s, ok in zip(table.sines, table.regular)])
        counts.append([int(ok) for ok in table.regular])
    for c in forest.order:
        rib = link.ribbons[c - 1]
        o, ow = rib.orientation, rib.orientation * int(rib.winding)
        child, child_count = vals[c], counts[c]
        kern = [0j] * size
        kern_count = [0] * size
        support = sorted(weight_multiplicities(lie, rib.color).items())
        total *= len(support)
        for alpha, mult in support:
            shifted, expo = _shift_table(lie, k,
                                         tuple(o * a for a in alpha))
            for pos, y, e in zip(live, shifted, expo):
                kern[pos] += mult * phases[ow * e % m2] * child[y]
                kern_count[pos] += child_count[y]
        vals[par[c]] = [v * q for v, q in zip(vals[par[c]], kern)]
        counts[par[c]] = [v * q for v, q in zip(counts[par[c]], kern_count)]
    return StateSumResult(_compensated_sum(vals[0]), total,
                          total - sum(counts[0]))


def _wlo_terms(lie, k, link, forest):
    """Every holonomy term explicitly, walking the shift tables.

    Per support choice, face c = i+1 sits at the coset of beta_c =
    beta_parent + o_i alpha_i above the base representative alpha0 =
    beta_0.  The shift table of step o_i alpha_i, read at the parent's
    live position, gives the child's position and the exponent that
    o_i w_i times adds to the phase index, as in the contraction; a term
    stops at its first singular face.  The recorded holonomies are the
    unreduced lifts beta_c/k.  Terms come in the order of the
    representatives, then of the choices.
    """
    table = _coset_table(lie, k)
    par = forest.parent
    modulus = (lie.rank + 1) * k
    slot = {pos: i for i, pos in enumerate(table.live)}
    supports = [sorted(weight_multiplicities(lie, rib.color).items())
                for rib in link.ribbons]
    choices = []
    for choice in product(*supports):
        alphas = tuple(alpha for alpha, _ in choice)
        shifts = [(0,) * lie.rank] * len(par)
        walk = []
        for c in forest.order[::-1]:
            rib = link.ribbons[c - 1]
            step = tuple(rib.orientation * a for a in alphas[c - 1])
            shifts[c] = tuple(s + t for s, t in zip(shifts[par[c]], step))
            walk.append((c, par[c], rib.orientation * int(rib.winding))
                        + _shift_table(lie, k, step))
        choices.append((alphas, math.prod(n for _, n in choice), shifts,
                        walk))
    summands = []
    skipped = 0
    terms = []
    for base, alpha0 in enumerate(table.reps):
        if not table.regular[base]:
            skipped += len(choices)
            continue
        for alphas, mult, shifts, walk in choices:
            pos = [base] * len(par)
            e = 0
            for c, p, ow, shifted, expo in walk:
                i = slot[pos[p]]
                pos[c] = shifted[i]
                e += ow * expo[i]
                if not table.regular[pos[c]]:
                    skipped += 1
                    break
            else:
                det = 1.0
                for p, x in zip(pos, forest.chi):
                    det *= table.sines[p] ** x
                e %= 2 * modulus
                summands.append(mult * det * table.phases[e])
                faces = tuple(tuple(Fraction(a + s, k)
                                    for a, s in zip(alpha0, shift))
                              for shift in shifts)
                terms.append(WloTerm(alpha0, alphas, mult, faces,
                                     Fraction(e, modulus)))
    return StateSumResult(_compensated_sum(summands),
                          len(table.reps) * len(choices),
                          skipped, terms=tuple(terms))


def wlo_unnormalized(lie, k, link, record_terms=False):
    """Unnormalized holonomy-side state sum of a colored ribbon link.

    Sums over one representative per coset of the k-scaled coroot lattice
    for the base face and over the full color weight support of every
    ribbon, with sine determinant factors per face and winding phases per
    ribbon; summands whose face holonomy meets an affine wall contribute
    zero and are counted separately.  The sum is contracted over the
    nesting forest from the leaves up, at a cost linear in the number of
    ribbons; terms_total still counts |P/kQ| times the product of the
    support sizes, and terms_skipped_singular the singular ones among
    them.  record_terms=True enumerates every term explicitly instead,
    walking the same integer shift tables, and returns the surviving ones
    as WloTerm entries.  The sum reads only the nesting forest: a link
    carrying a complex must come from embed_link or have passed
    validate_link, which check that the cells realize that forest.  Only
    ratios of values returned by this function are meaningful.
    """
    k = _index(k, "level")
    if k < 1:
        raise ValueError("level must be a positive integer")
    forest = _forest(link)
    if k < lie.dual_coxeter:
        return StateSumResult(0j, 0, 0, flag="empty label set")

    if record_terms:
        return _wlo_terms(lie, k, link, forest)
    return _wlo_contract(lie, k, link, forest)


# ---------------------------------------------------------------------------
# the shadow side


class _LabelTable(NamedTuple):
    """The level-k labels in level_labels order, with their face data.

    dims maps a label to its quantum dimension and exps to the integer
    (r+1)<lam, lam + 2 rho>: a face of gleam g colored lam carries phase
    index g * exps[lam] in the phase table of modulus (r+1)k.
    """

    labels: tuple
    dims: MappingProxyType
    exps: MappingProxyType


@lru_cache(maxsize=None)
def _label_table(lie, k):
    """The label table of (lie, k), shared by the shadow sums and Step 6."""
    labels = tuple(level_labels(lie, k))
    dims = {lam: quantum_dim(lie, k, lam) for lam in labels}
    exps = {}
    for lam in labels:
        shifted = tuple(l + 2 * p for l, p in zip(lam, lie.rho))
        exps[lam] = _dot(lam, [_dot(row, shifted) for row in lie.scaled_gram])
    return _LabelTable(labels, MappingProxyType(dims), MappingProxyType(exps))


def _shadow_contract(lie, k, link, forest, table):
    """Shadow sum by contraction over the nesting forest.

    Face c carries a vector over the labels, dim^chi_c times the gleam
    phase, times the kernels of its child ribbons; the kernel of ribbon i
    applies the fusion matrix of its color to the child vector, reading
    only the nonzero entries of its rows.  As in fusion_faces, the first
    label slot is the face the potential jumps up to: orientation +1
    scatters each child label's row into the kernel, -1 gathers each
    kernel label's row.  Either way every kernel entry adds its terms in
    label order.
    """
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
    return _compensated_sum(vals[0])


def shadow_invariant(lie, k, link):
    """Shadow state sum of a colored ribbon link at level k.

    Sums over all level-k colorings of the link complement faces the
    product of one fusion coefficient per ribbon, quantum dimensions to
    the face Euler characteristics, and gleam phases.  The sum is
    contracted over the nesting forest, one fusion matrix per ribbon;
    terms_total still counts every coloring.  The empty label set below
    the dual Coxeter number gives an empty sum, flagged as such.
    """
    k = _index(k, "level")
    if k < 1:
        raise ValueError("level must be a positive integer")
    forest = _forest(link)
    table = _label_table(lie, k)
    if not table.labels:
        return StateSumResult(0j, 0, 0, flag="empty label set")
    total = len(table.labels) ** (len(link.ribbons) + 1)
    return StateSumResult(_shadow_contract(lie, k, link, forest, table),
                          total, 0)


def compare_theorem(lie, k, link):
    """Both normalized ratios of a link against the empty link.

    Evaluates the holonomy sum and the shadow sum for the link and for the
    empty link of the same genus, and reports the two ratios with their
    absolute and relative difference.  Below the dual Coxeter number both
    sides have an empty label set and no ratio exists; the empty-link
    normalization vanishing at an admissible level is likewise an error.
    As in wlo_unnormalized, a link carrying a complex must come from
    embed_link or have passed validate_link.
    """
    k = _index(k, "level")
    if k < lie.dual_coxeter:
        raise ValueError(f"level {k} is below the dual Coxeter number"
                         f" {lie.dual_coxeter}: the label set is empty and"
                         " the normalized observable is undefined")
    empty = RibbonLink(genus=link.genus)
    wlo_link = wlo_unnormalized(lie, k, link)
    wlo_empty = wlo_unnormalized(lie, k, empty)
    shadow_link = shadow_invariant(lie, k, link)
    shadow_empty = shadow_invariant(lie, k, empty)
    if wlo_empty.value == 0:
        raise ValueError("empty-link holonomy normalization vanishes at an"
                         " admissible level")
    if shadow_empty.value == 0:
        raise ValueError("empty-link shadow normalization vanishes at an"
                         " admissible level")
    wr = wlo_link.value / wlo_empty.value
    sr = shadow_link.value / shadow_empty.value
    diff = abs(wr - sr)
    rel = diff / abs(sr) if abs(sr) > 1e-12 else diff
    return TheoremReport(wlo_link.value, wlo_empty.value, shadow_link.value,
                         shadow_empty.value, wr, sr, diff, rel)


# ---------------------------------------------------------------------------
# the transform from holonomy terms to shadow data


@lru_cache(maxsize=None)
def _rho_sine_constant(lie, k):
    """The face-independent Step 6 constant: prod 4 sin^2(pi <rho, alpha>/k)."""
    const = 1.0
    for h in root_pairings(lie, lie.rho):
        const *= 4.0 * math.sin(math.pi * h / k) ** 2
    return const


# relative tolerance of Step 6's determinant identity
_STEP6_TOL = 1e-10


def step6_transform(lie, k, link, term):
    """Alcove reduction of one surviving holonomy term.

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
        sines.append(table.sines[table.index[_coset_key(lie, modulus, x)]])
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


# ---------------------------------------------------------------------------
# standard embeddings and the shipped corpus


def _ring_step(tag, ring, reverse):
    """The space step of the standard ring ribbon: both boundary loops.

    The first loop walks the ring sides on the vertex half of the doubled
    complex, the second walks the adjacent trapezoid centers on the face
    half, both in the rotation direction fixed by reverse.
    """
    l_chain = []
    lp_chain = []
    for i in range(4):
        l_chain.append((("h1", ("rs", tag, ring, i)), 1))
        l_chain.append((("h2", ("rs", tag, ring, i)), 1))
        e = ("diag", tag, ring, (i + 1) % 4)
        lp_chain.append((("d1", e), 1))
        lp_chain.append((("d2", e), 1))
    if reverse:
        l_chain = [(qe, -s) for qe, s in reversed(l_chain)]
        lp_chain = [(qe, -s) for qe, s in reversed(lp_chain)]
    return RibbonStep(t=0, l_sigma=tuple(l_chain), lp_sigma=tuple(lp_chain))


def embed_link(link, refinement=None, n=2):
    """Standard embedding of an abstract chain-nested link.

    Realizes ribbon i as the i-th concentric ring of a carved site on the
    standard genus-g surface, with the two boundary loops on opposite
    halves of the edge double and the declared winding walked one time
    slice at a time.  Only a single chain of nested ribbons is supported;
    the loop rotation direction per ribbon is chosen so that the realized
    jump sign equals the declared orientation.  The returned link has
    passed validate_link.
    """
    if link.genus not in (0, 1):
        raise ValueError("standard embeddings cover genus 0 and 1 only")
    m = len(link.ribbons)
    for pos, rib in enumerate(link.ribbons, start=1):
        if rib.parent != pos - 1:
            raise ValueError("standard embeddings support a single chain"
                             " of nested ribbons")
    if refinement is None:
        refinement = 1 if link.genus == 0 else 2
    cx = build_standard_surface(link.genus, refinement,
                                sites=(m,) if m else ())
    ribbons = []
    for pos, rib in enumerate(link.ribbons, start=1):
        strip = tuple(sorted(
            (("trap", 0, pos, i), p) for i in range(4) for p in (1, 2)))
        # the forward ring realizes jump +1 and the reversed one, which
        # keeps both loops' start vertices, jump -1; the validation of the
        # finished link below confirms every jump
        ring = _ring_step(0, pos, reverse=rib.orientation == -1)
        sigma = _chain_vertices(cx, ring.l_sigma)[0]
        sigma_prime = _chain_vertices(cx, ring.lp_sigma)[0]
        steps = [ring]
        direction = 1 if rib.winding >= 0 else -1
        for j in range(n * abs(rib.winding)):
            steps.append(RibbonStep(t=(j * direction) % n, dt=direction,
                                    l_vertex=sigma, lp_vertex=sigma_prime))
        ribbons.append(ColoredRibbon(rib.color, rib.winding,
                                     rib.orientation, rib.parent,
                                     tuple(steps), strip))
    out = RibbonLink(link.genus, tuple(ribbons), complex=cx, n=n)
    validate_link(out)
    return out


@dataclass(frozen=True)
class CorpusEntry:
    """One shipped test link: name, algebra series, level, both forms."""

    name: str
    series: str
    level: int
    link: RibbonLink
    embedded: RibbonLink


def _chain(genus, specs):
    ribbons = tuple(
        ColoredRibbon(tuple(color), winding, orientation, parent)
        for parent, (color, winding, orientation)
        in enumerate(specs))
    return RibbonLink(genus, ribbons)


_CORPUS_SPECS = (
    ("a1_g0_empty_k2", "A1", 2, 0, ()),
    ("a1_g0_empty_k4", "A1", 4, 0, ()),
    ("a1_g0_empty_k6", "A1", 6, 0, ()),
    ("a1_g0_one_k4", "A1", 4, 0, (((1,), 1, 1),)),
    ("a1_g0_one_heavy_k3", "A1", 3, 0, (((2,), -2, -1),)),
    ("a1_g0_one_top_k6", "A1", 6, 0, (((3,), 2, 1),)),
    ("a1_g0_one_flat_k4", "A1", 4, 0, (((2,), 0, 1),)),
    ("a1_g0_two_k5", "A1", 5, 0, (((1,), 1, 1), ((2,), -1, -1))),
    ("a1_g0_three_k4", "A1", 4, 0,
     (((1,), 2, 1), ((1,), -2, -1), ((2,), 1, 1))),
    ("a1_g0_three_k6", "A1", 6, 0,
     (((2,), 1, -1), ((1,), 1, 1), ((3,), -1, 1))),
    ("a2_g0_one_k4", "A2", 4, 0, (((1, 0), 1, 1),)),
    ("a2_g0_one_low_k3", "A2", 3, 0, (((0, 1), 1, 1),)),
    ("a2_g0_one_adj_k5", "A2", 5, 0, (((1, 1), -2, -1),)),
    ("a2_g0_two_k6", "A2", 6, 0, (((1, 0), 2, 1), ((0, 2), 1, -1))),
    ("a2_g0_three_k7", "A2", 7, 0,
     (((1, 0), 1, 1), ((0, 1), -1, -1), ((2, 1), 2, 1))),
    ("a1_g1_empty_k3", "A1", 3, 1, ()),
    ("a1_g1_one_k4", "A1", 4, 1, (((1,), 1, 1),)),
    ("a1_g1_one_k5", "A1", 5, 1, (((2,), 1, 1),)),
    ("a1_g1_two_k5", "A1", 5, 1, (((2,), 1, 1), ((2,), -2, -1))),
    ("a2_g1_empty_k4", "A2", 4, 1, ()),
    ("a2_g1_one_k5", "A2", 5, 1, (((0, 1), -1, -1),)),
    ("a2_g1_two_k6", "A2", 6, 1, (((1, 0), 2, 1), ((1, 0), -2, 1))),
)


def corpus_links():
    """The shipped link corpus, each entry in abstract and embedded form.

    Covers zero to three nested ribbons, windings from -2 to 2, colors up
    to three levels, both algebra series, genus zero and one, and levels
    from the dual Coxeter number to four above it.
    """
    out = []
    for name, series, level, genus, specs in _CORPUS_SPECS:
        link = _chain(genus, specs)
        out.append(CorpusEntry(name, series, level, link, embed_link(link)))
    return tuple(out)
