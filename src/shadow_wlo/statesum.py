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
Step 6 is checked on these tables, once per coset (step6_identities).
These tables, and the nonzero fusion rows of each color
(lie._fusion_table), are built directly in integer arithmetic.  Each sum
ends in one correctly rounded addition of the base face's entries, per
real and imaginary part (_fsum); a face factor or a sum that leaves the
float range raises ValueError instead of returning inf or nan.

A ribbon (color, w, -1) sums like (dual color, -w, +1): the holonomy sum
steps by the dual color's weights, the shadow sum reads its fusion rows.
"""

import math
import operator
from array import array
from dataclasses import dataclass
from functools import lru_cache
from types import MappingProxyType
from typing import NamedTuple

from .complex import (RibbonStep, _find, _name_id, build_standard_surface,
                      face_euler_characteristics, hodge_star_signs)
# fusion_coefficient, is_regular and sine_product are not called here; they
# stay bound because the benchmark's tracer wraps them at this module
from .lie import (_alcove_reduce, _dual, _fusion_table, _level, _weight,
                  fusion_coefficient, is_regular,
                  lattice_points_in_scaled_box, level_labels, quantum_dim,
                  root_pairings, sine_product, weight_multiplicities)


@dataclass(frozen=True)
class ColoredRibbon:
    """One ribbon: a color, a time winding and an orientation sign.

    orientation is the jump of the ribbon's face potential on the enclosed
    side: +1 when the potential steps up going inward, -1 when it steps
    down.  parent is the index of the enclosing face (0 is the base face,
    j >= 1 the inner face of ribbon j).  Embedded ribbons additionally
    carry their boundary walk as RibbonStep entries, which name the qK
    edges and vertices they pass; the quarters the strip covers are
    derived from the walk.
    """

    color: tuple
    winding: int
    orientation: int = 1
    parent: int = 0
    steps: tuple = ()


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


@dataclass(frozen=True)
class TheoremReport:
    """Both normalized ratios and their difference."""

    wlo_ratio: complex
    shadow_ratio: complex
    abs_difference: float
    rel_difference: float


class _Forest(NamedTuple):
    """The nesting forest of a link, with everything the sums read of it.

    parent[j] is the face enclosing face j (-1 for the base face 0), order
    lists the ribbon faces deepest first (a stable sort, so every face
    precedes its parent), and chi and gleam hold each face's Euler
    characteristic and gleam.
    """

    parent: tuple
    order: tuple
    chi: tuple
    gleam: tuple


def _integer(value):
    """value as an int if it is an integer type (operator.index), else None."""
    try:
        return operator.index(value)
    except TypeError:
        return None


def _genus(link):
    """The link's genus as an int; a non-integer or negative one raises."""
    g = _integer(link.genus)
    if g is None or g < 0:
        raise ValueError(f"genus must be a non-negative integer, not"
                         f" {link.genus!r}")
    return g


def _forest(link):
    """The validated nesting forest of a link.

    The genus, parents, windings and orientations must be integers, not
    merely integral: the sums take the genus into Euler characteristics,
    index faces by the parents and use the others as exponents into
    integer phase tables.
    """
    m = len(link.ribbons)
    par = [-1] * (m + 1)
    chi = [2 - 2 * _genus(link)] + [1] * m
    gl = [0] * (m + 1)
    for pos, rib in enumerate(link.ribbons, start=1):
        p = _integer(rib.parent)
        if p is None or not 0 <= p <= m:
            raise ValueError(f"ribbon {pos - 1}: invalid parent face"
                             f" {rib.parent!r}")
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
    return _Forest(tuple(par), tuple(order), tuple(chi), tuple(gl))


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


# ---------------------------------------------------------------------------
# embedded links: arcs, strips, potentials, regions


def _chain_ids(cx, chain):
    """Vertex ids visited by a dart chain and its darts as (qK edge id,
    sign), with closure validation."""
    if not chain:
        raise ValueError("empty boundary chain")
    ends = cx.qk_edge_ends
    verts = []
    darts = []
    for qe, sgn in chain:
        e = _name_id(cx.qk_edge_ids, qe)
        if e is None:
            raise ValueError(f"chain uses unknown edge {qe!r}")
        if sgn not in (1, -1):
            raise ValueError(f"chain sign must be +-1, got {sgn!r}")
        t, h = ends[e]
        if sgn == -1:
            t, h = h, t
        if verts and verts[-1] != t:
            raise ValueError(f"chain breaks at {qe!r}")
        if not verts:
            verts.append(t)
        verts.append(h)
        darts.append((e, sgn))
    if verts[0] != verts[-1]:
        raise ValueError("boundary chain does not close")
    return verts[:-1], darts


class _Arcs(NamedTuple):
    """The two boundary loops of one embedded ribbon, by id.

    l_darts and lp_darts are the darts (qK edge id, sign) of each loop in
    walk order, l_edges, lp_edges, l_vertices and lp_vertices the qK
    edges and vertices each loop passes, and start the two vertices where
    the walks start.
    """

    l_darts: tuple
    lp_darts: tuple
    l_edges: frozenset
    lp_edges: frozenset
    l_vertices: frozenset
    lp_vertices: frozenset
    start: tuple


def _arc_data(cx, rib):
    """Both arcs of one embedded ribbon, read from the named darts of its
    steps."""
    lv, l_darts = _chain_ids(cx, [d for st in rib.steps for d in st.l_sigma])
    lpv, lp_darts = _chain_ids(cx, [d for st in rib.steps
                                    for d in st.lp_sigma])
    # the two loops live on opposite halves of the doubled complex; qK
    # edge 4i + k is a primal half for k = 0, 1
    halves = ({e % 4 < 2 for e, _ in l_darts},
              {e % 4 < 2 for e, _ in lp_darts})
    if halves not in (({True}, {False}), ({False}, {True})):
        raise ValueError("ribbon loops must project to opposite halves of"
                         " the edge double")
    return _Arcs(tuple(l_darts), tuple(lp_darts),
                 frozenset(e for e, _ in l_darts),
                 frozenset(e for e, _ in lp_darts),
                 frozenset(lv), frozenset(lpv), (lv[0], lpv[0]))


def _check_time_steps(link, pos, arcs):
    """Walk the steps of ribbon pos in order, checking when and where each is.

    A step moves one slice in time or moves in the surface, not both.  Its
    t is the running slice in [0, n): the first step sets it, and each
    time step moves it by dt mod n.  A loop starts at the tail of its
    first dart, and a space step moves it to the head of its last dart; a
    time step's l_vertex and lp_vertex must be where the two loops sit,
    and a space step's, when given, where its chunks start.  The time
    steps together wind winding * n slices.
    """
    rib = link.ribbons[pos]
    cx = link.complex
    darts = (arcs.l_darts, arcs.lp_darts)
    at = list(arcs.start)
    walked = [0, 0]
    now = rib.steps[0].t
    total = 0
    for i, st in enumerate(rib.steps):
        where = f"ribbon {pos}, step {i}"
        dt = _integer(st.dt)
        if dt not in (0, 1, -1) or dt and (st.l_sigma or st.lp_sigma):
            raise ValueError(f"{where}: a step moves one slice in time or"
                             " moves in the surface, not both")
        if _integer(st.t) is None or not 0 <= st.t < link.n:
            raise ValueError(f"{where}: time slice {st.t!r} is not in"
                             f" Z_{link.n}")
        if st.t != now:
            raise ValueError(f"{where}: starts at slice {st.t}, but the"
                             f" ribbon is at slice {now}")
        for side, vert, chunk in ((0, st.l_vertex, st.l_sigma),
                                  (1, st.lp_vertex, st.lp_sigma)):
            if (dt or vert is not None) and \
                    _name_id(cx.qk_vertex_ids, vert) != at[side]:
                raise ValueError(f"{where}: loop position {vert!r}, but the"
                                 f" loop is at {cx.qk_vertices[at[side]]!r}")
            if chunk:
                walked[side] += len(chunk)
                e, sgn = darts[side][walked[side] - 1]
                tail, head = cx.qk_edge_ends[e]
                at[side] = head if sgn == 1 else tail
        now = (now + dt) % link.n
        total += dt
    if total != rib.winding * link.n:
        raise ValueError(f"ribbon {pos}: time profile winds {total}/{link.n},"
                         f" declared winding is {rib.winding}")


def _strip_ids(cx, arcs):
    """Ids of the quarters with one side on each arc."""
    return frozenset(q for q, ss in enumerate(cx.quarter_side_ids)
                     if not arcs.l_edges.isdisjoint(ss)
                     and not arcs.lp_edges.isdisjoint(ss))


def _components(cx, cells):
    """Connected components of a list of quarter ids, glued along shared
    qK edges, as lists of ids in order of first appearance."""
    sides = cx.quarter_side_ids
    parent = list(range(len(sides)))
    first = {}
    for q in cells:
        for e in sides[q]:
            other = first.setdefault(e, q)
            if other != q:
                ra, rb = _find(parent, other), _find(parent, q)
                if ra != rb:
                    parent[ra] = rb
    comps = {}
    for q in cells:
        comps.setdefault(_find(parent, q), []).append(q)
    return list(comps.values())


def _star_projected_differential(cx, f):
    """Apply the marked-complex star to the projected coboundary of f.

    f is a list of values by qK vertex id.  Returns (primal, dual)
    coefficient lists by edge position in cx.edges, in quarter units: 4
    times star(project_to_K(coboundary(f))), where project_to_K is the
    test oracle in tests/oracles.py.  The projection of an edge is the
    mean of its two halves x_a, x_b, so the value is 2*s*(x_a + x_b), with
    s the star's sign; the halves telescope to the difference of f at the
    edge's ends.  This is the holonomy-side momentum map whose value on a
    valid ribbon potential is the half-sum chain of the two boundary
    loops; an integer f gives integers.
    """
    s1 = hodge_star_signs["K1"]
    s2 = hodge_star_signs["K2"]
    primal = []
    dual = []
    for t, h, left, right in cx.edge_end_ids:
        primal.append(2 * s2 * (f[right] - f[left]))
        dual.append(2 * s1 * (f[h] - f[t]))
    return primal, dual


def _half_sum_chain(cx, arcs):
    """Projected half-sum of the two boundary loops, by edge and side.

    In quarter units and edge positions, like _star_projected_differential:
    each chain dart adds its sign to the side of its edge (qK edge 4i + k
    is a primal half for k = 0, 1 and a dual half for k = 2, 3).
    """
    primal = [0] * len(cx.edges)
    dual = [0] * len(cx.edges)
    for darts in (arcs.l_darts, arcs.lp_darts):
        for e, sgn in darts:
            i, k = divmod(e, 4)
            if k < 2:
                primal[i] += sgn
            else:
                dual[i] += sgn
    return primal, dual


def _ribbon_potential(cx, arcs, strip):
    """Unit-jump potential of one ribbon, with its derived jump sign.

    The potential is constant on each side of the strip, affine across it,
    and solves the defining equation: star of the projected differential
    equals the half-sum boundary chain.  The equation is linear, so the
    potential of jump +1 is built once, with values 0 and 1, and its image
    compared with plus and minus the chain; the sign that matches is the
    ribbon orientation the embedding realizes.  Both sides of the equation
    are multiples of 1/4, so they are compared exactly as integers in
    quarter units.  strip holds quarter ids; the potential is a list of
    values by qK vertex id.
    """
    sides, corners = cx.quarter_side_ids, cx.quarter_corner_ids
    comps = _components(cx, [q for q in cx.quarters_by_face
                             if q not in strip])
    if len(comps) != 2:
        raise ValueError(f"ribbon strip complement has {len(comps)}"
                         " components, expected 2: the ribbon is not an"
                         " embedded annulus with two sides")

    side_l = side_lp = None
    for comp in comps:
        edges = {e for q in comp for e in sides[q]}
        if not arcs.l_edges.isdisjoint(edges):
            side_l = comp
        if not arcs.lp_edges.isdisjoint(edges):
            side_lp = comp
    if side_l is None or side_lp is None or side_l is side_lp:
        raise ValueError("ribbon arcs do not separate the two strip sides")

    f = [None] * len(cx.qk_vertices)
    for value, comp in ((0, side_lp), (1, side_l)):
        for q in comp:
            for w in corners[q]:
                f[w] = value
    if None in f:
        raise ValueError("strip interior contains vertices off the"
                         " ribbon arcs")
    image = _star_projected_differential(cx, f)
    target = _half_sum_chain(cx, arcs)
    if image == target:
        jump = 1
    elif image == tuple([-c for c in side] for side in target):
        jump = -1
        f = [-val for val in f]
    else:
        raise ValueError("no unit-jump potential satisfies the defining"
                         " equation for this ribbon")
    arc_edges = arcs.l_edges | arcs.lp_edges
    transverse = {e for q in strip for e in sides[q] if e not in arc_edges}
    # f takes only the values 0 and jump, so its jumps are units; they
    # must sit exactly on the strip crossing edges
    if {e for e, (t, h) in enumerate(cx.qk_edge_ends)
            if f[t] != f[h]} != transverse:
        raise ValueError("potential differential is not supported on the"
                         " strip crossing edges")
    for q, (v, m_in, m_out, c) in enumerate(corners):
        if f[v] + f[c] != f[m_in] + f[m_out]:
            raise ValueError("potential is not affine on quarter"
                             f" {cx.quarter_names[q]!r}")
    return f, jump


class _EmbeddedFaces:
    """Derived face structure of an embedded link.

    Carries each ribbon's arcs (_Arcs), strip (a set of quarter ids),
    potential (a list of values by qK vertex id, zero at the basepoint
    sigma0, the least qK vertex id on no loop) and jump sign, the strip
    complement regions (sets of quarter ids) matched one-to-one against
    the abstract faces, and the census Euler characteristics; each
    ribbon's two loops must sit on its inner and its parent face.  All
    checks that compare the derived data with the abstract link data raise
    on the first disagreement.  The derivation runs over the complex's
    integer ids; names are read only from the RibbonSteps, and appear only
    in error messages.
    """

    def __init__(self, link):
        forest = _forest(link)
        cx = link.complex
        if cx is None:
            raise ValueError("link carries no surface complex")
        if _integer(link.n) is None:
            raise ValueError(f"time slice count n must be an integer, not"
                             f" {link.n!r}")
        if link.n < 2:
            raise ValueError("embedded links need at least two time slices")
        if cx.genus != link.genus:
            raise ValueError(f"link genus {link.genus} disagrees with the"
                             f" complex genus {cx.genus}")
        m = len(link.ribbons)
        self.cx = cx
        self.arcs = []
        self.strips = []
        for pos, rib in enumerate(link.ribbons):
            if not rib.steps:
                raise ValueError(f"ribbon {pos} has no embedding steps")
            arcs = _arc_data(cx, rib)
            _check_time_steps(link, pos, arcs)
            self.arcs.append(arcs)
            self.strips.append(_strip_ids(cx, arcs))

        self._check_disjointness()
        self._check_strip_tetragons()

        occupied = set()
        for arcs in self.arcs:
            occupied |= arcs.l_vertices | arcs.lp_vertices
        base = next((w for w in range(len(cx.qk_vertices))
                     if w not in occupied), None)
        if base is None:
            raise ValueError("no admissible base vertex")
        self.sigma0 = base

        self.potentials = potentials = []
        self.jumps = []
        for pos, rib in enumerate(link.ribbons):
            f, jump = _ribbon_potential(cx, self.arcs[pos], self.strips[pos])
            # f is 0 on one strip side and jump on the other
            shift = f[base]
            potentials.append([val - shift for val in f])
            # after normalizing at the basepoint the nonzero side is the
            # enclosed one, whichever loop the embedding put there
            inside = jump if shift == 0 else -jump
            self.jumps.append(inside)
            if inside != rib.orientation:
                raise ValueError(f"ribbon {pos}: embedded jump sign"
                                 f" {inside} disagrees with declared"
                                 f" orientation {rib.orientation}")

        all_strips = set().union(*self.strips)
        regions = _components(cx, [q for q in cx.quarters_by_face
                                   if q not in all_strips])
        if len(regions) != m + 1:
            raise ValueError(f"strip complement has {len(regions)} regions"
                             f" for {m} ribbons, expected {m + 1}")

        # on a valid forest the face vectors are distinct: entry j-1 is
        # nonzero exactly on the faces inside ribbon j, and of two faces
        # at least one is not inside the other's ribbon
        table = _face_weights(link, forest.parent)
        want = {tuple(row[j] for row in table): j for j in range(m + 1)}

        corners = cx.quarter_corner_ids
        ordered = [None] * (m + 1)
        for comp in regions:
            rep = min(w for q in comp for w in corners[q])
            vec = tuple(f[rep] for f in potentials)
            j = want.get(vec)
            if j is None or ordered[j] is not None:
                raise ValueError(f"region weight vector {vec} does not"
                                 " match the abstract nesting forest")
            ordered[j] = comp
        self.regions = tuple(frozenset(comp) for comp in ordered)

        census = face_euler_characteristics(cx, dict(enumerate(self.regions)))
        self.chi = tuple(census[j] for j in range(m + 1))
        if self.chi != forest.chi:
            raise ValueError(f"face Euler characteristics {self.chi}"
                             f" disagree with the abstract values"
                             f" {forest.chi}")

        par = forest.parent
        for pos, arcs in enumerate(self.arcs):
            l_face, lp_face = (want.get(tuple(f[w] for f in potentials))
                               for w in arcs.start)
            if l_face is None or lp_face is None:
                raise ValueError(f"ribbon {pos}: loop basepoints do not"
                                 " evaluate to face potential vectors")
            if {l_face, lp_face} != {pos + 1, par[pos + 1]}:
                raise ValueError(f"ribbon {pos}: adjacent faces"
                                 f" {{{l_face}, {lp_face}}} disagree with"
                                 " the nesting forest")

    def _check_disjointness(self):
        # loops sharing an edge share its ends, so vertices decide
        seen = set()
        for arcs in self.arcs:
            for verts in (arcs.l_vertices, arcs.lp_vertices):
                if seen & verts:
                    raise ValueError("ribbon boundary arcs intersect: the"
                                     " link is not non-crossing")
                seen |= verts

    def _check_strip_tetragons(self):
        cx = self.cx
        sides, corners = cx.quarter_side_ids, cx.quarter_corner_ids
        for pos, strip in enumerate(self.strips):
            arcs = self.arcs[pos]
            arc_verts = arcs.l_vertices | arcs.lp_vertices
            for q in strip:
                on_l = len(arcs.l_edges.intersection(sides[q]))
                on_lp = len(arcs.lp_edges.intersection(sides[q]))
                if on_l != 1 or on_lp != 1:
                    raise ValueError(
                        f"strip quarter {cx.quarter_names[q]!r} of ribbon"
                        f" {pos} has {on_l} sides on the first loop and"
                        f" {on_lp} on the second, expected exactly one each")
                for w in corners[q]:
                    if w not in arc_verts:
                        raise ValueError(
                            f"strip of ribbon {pos} contains the interior"
                            f" vertex {cx.qk_vertices[w]!r}")


def validate_link(link):
    """Structural validation of a link presentation.

    Abstract links get their nesting forest checked; embedded links
    additionally get the full battery: loop closure in space, the slice
    and loop position of every time step, sidedness of the two loops, arc
    disjointness, strip tetragon counts, absence of interior strip
    vertices, separation by each strip, winding consistency, and exact
    agreement of the derived potentials, regions, Euler characteristics
    and adjacent faces with the abstract data.
    """
    if link.complex is None:
        _forest(link)
    else:
        _EmbeddedFaces(link)


# ---------------------------------------------------------------------------
# the holonomy side


def _fsum(values):
    """The correctly rounded sum of complex (or real) values, per part.

    math.fsum rounds the exact sum of each part once (Shewchuk's
    algorithm), so the result does not depend on the order of the values;
    adding 0.0 makes an all-zero part +0.0.  A part that is not finite
    raises ValueError.
    """
    values = tuple(values)
    try:
        re = math.fsum(z.real for z in values)
        im = math.fsum(z.imag for z in values)
    except (OverflowError, ValueError):
        # fsum's intermediate overflow, and inf - inf
        re = im = math.inf
    if not (math.isfinite(re) and math.isfinite(im)):
        raise ValueError("the state sum overflows a float")
    return complex(re + 0.0, im + 0.0)


def _phase(q):
    """exp(i pi q) for rational or float q, at the reduced argument q mod 2."""
    q = q % 2
    return complex(math.cos(math.pi * float(q)), math.sin(math.pi * float(q)))


def _dot(u, v):
    return sum(a * b for a, b in zip(u, v))


@lru_cache(maxsize=None)
def _phase_table(modulus):
    """exp(i pi e / modulus) for 0 <= e < 2 modulus, shared by both sums."""
    return tuple(_phase(e / modulus) for e in range(2 * modulus))


class _CosetTable(NamedTuple):
    """Face data on one representative per coset of P/kQ, at one level.

    reps are the representatives of lattice_points_in_scaled_box in its
    order.  A weight x has coroot coordinates scaled_gram.x / (r+1); its
    coset key is scaled_gram.x reduced mod (r+1)k, and index maps keys to
    positions in reps, in that order.  regular and sines hold the
    regularity of rep/k and sine_product(rep/k) (0.0 where singular), and
    live the positions of the regular representatives in increasing order.
    """

    reps: tuple
    index: MappingProxyType
    regular: tuple
    live: tuple
    sines: tuple


@lru_cache(maxsize=None)
def _coset_table(lie, k):
    """The coset table of (lie, k), shared by every holonomy sum at k.

    A representative's key already lies in [0, (r+1)k), and each root
    pairing t = <alpha, x> (root_pairings) is an integer: x/k is regular
    iff no t is divisible by k, and its sine is the product of
    2 sin(pi t/k) in positive_roots order, the floats of sine_product(x/k).
    Keys and pairings are computed column by column over all
    representatives: key coordinate i is row i of scaled_gram against the
    coordinate columns, and the pairing of alpha_i + ... + alpha_j is the
    running sum of columns i..j.
    """
    reps = tuple(lattice_points_in_scaled_box(lie, k))
    cols = list(zip(*reps))
    keys = []
    for row in lie.scaled_gram:
        key = [0] * len(reps)
        for g, col in zip(row, cols):
            key = [a + g * c for a, c in zip(key, col)]
        keys.append(key)
    pairings = []
    for i in range(lie.rank):
        t = cols[i]
        pairings.append(t)
        for col in cols[i + 1:]:
            t = [a + c for a, c in zip(t, col)]
            pairings.append(t)
    sine = {t: 2.0 * math.sin(math.pi * (t / k))
            for t in set().union(*pairings) if t % k}
    regular = []
    sines = []
    for ts in zip(*pairings):
        s = 1.0
        for t in ts:
            if t not in sine:
                regular.append(False)
                sines.append(0.0)
                break
            s *= sine[t]
        else:
            regular.append(True)
            sines.append(s)
    index = dict(zip(zip(*keys), range(len(reps))))
    live = tuple(pos for pos, ok in enumerate(regular) if ok)
    return _CosetTable(reps, MappingProxyType(index), tuple(regular), live,
                       tuple(sines))


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
    phases = _phase_table((lie.rank + 1) * k)
    m2 = len(phases)
    size = total = len(table.reps)
    vals = []
    counts = []
    for c, x in enumerate(forest.chi):
        try:
            vals.append([s ** x if ok else 0.0
                         for s, ok in zip(table.sines, table.regular)])
        except OverflowError:
            raise ValueError(f"face {c}: a sine factor to the power chi ="
                             f" {x} overflows a float") from None
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
    return StateSumResult(_fsum(vals[0]), total,
                          total - sum(counts[0]))


def wlo_unnormalized(lie, k, link):
    """Unnormalized holonomy-side state sum of a colored ribbon link.

    Sums over one representative per coset of the k-scaled coroot lattice
    for the base face and over the full color weight support of every
    ribbon, with sine determinant factors per face and winding phases per
    ribbon; summands whose face holonomy meets an affine wall contribute
    zero and are counted separately.  The sum is contracted over the
    nesting forest from the leaves up, at a cost linear in the number of
    ribbons; terms_total still counts |P/kQ| times the product of the
    support sizes, and terms_skipped_singular the singular ones among
    them.  The sum reads only the nesting forest: a link
    carrying a complex must come from embed_link or have passed
    validate_link, which check that the cells realize that forest.  Only
    ratios of values returned by this function are meaningful.
    """
    k = _level(k)
    forest = _forest(link)
    if k < lie.dual_coxeter:
        return StateSumResult(0j, 0, 0, flag="empty label set")
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
    applies the fusion matrix of its color to the child vector: each child
    label's row, nonzero entries only, is scattered into the kernel, so
    every kernel entry adds its terms in label order.  The first label
    slot is the face the ribbon's potential jumps up to, the inner face at
    orientation +1 and the parent face at -1.  The fusion matrix of the
    dual color is the transpose, so a -1 ribbon reads the rows of its
    dual color.
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
        color = _weight(rib.color, "color")
        rows = _fusion_table(lie, k, color if rib.orientation == 1
                             else _dual(color))
        kern = [0j] * len(labels)
        for mu, v in zip(labels, vals[c]):
            for lam, n in rows[mu].items():
                kern[pos[lam]] += n * v
        par = forest.parent[c]
        vals[par] = [v * q for v, q in zip(vals[par], kern)]
    return _fsum(vals[0])


def shadow_invariant(lie, k, link):
    """Shadow state sum of a colored ribbon link at level k.

    Sums over all level-k colorings of the link complement faces the
    product of one fusion coefficient per ribbon, quantum dimensions to
    the face Euler characteristics, and gleam phases.  The sum is
    contracted over the nesting forest, one fusion matrix per ribbon;
    terms_total still counts every coloring.  The empty label set below
    the dual Coxeter number gives an empty sum, flagged as such.
    """
    k = _level(k)
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
    k = _level(k)
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
    return TheoremReport(wr, sr, diff, rel)


# ---------------------------------------------------------------------------
# Step 6: from holonomy data to shadow data


@lru_cache(maxsize=None)
def _rho_sine_constant(lie, k):
    """The face-independent Step 6 constant: prod 4 sin^2(pi <rho, alpha>/k)."""
    const = 1.0
    for h in root_pairings(lie, lie.rho):
        const *= 4.0 * math.sin(math.pi * h / k) ** 2
    return const


# relative tolerance of Step 6's determinant identity
_STEP6_TOL = 1e-10


@lru_cache(maxsize=None)
def _reduction_table(lie, k):
    """(label, sign) of each coset in the coset table's order, by reducing
    its representative into the alcove (_alcove_reduce lands on label +
    rho); a wall gives (None, 0).  kQ translations have sign +1."""
    out = []
    for x in _coset_table(lie, k).reps:
        v, sign = _alcove_reduce(lie, k, list(x))
        out.append((tuple(c - p for c, p in zip(v, lie.rho)) if sign
                    else None, sign))
    return tuple(out)


def step6_identities(lie, k, link):
    """Step 6 of the evaluation, checked once per coset of P/kQ.

    Raises ValueError naming the first coset x where a check fails:
    - regularity: x is regular iff its reduction sign is nonzero;
    - sines: a regular x has sine^2 = dim(label)^2 _rho_sine_constant,
      to the relative tolerance _STEP6_TOL;
    - phases: for each step o alpha of the link's color supports, the
      shift-table exponent from a regular x to a regular x + o alpha is
      E(x + o alpha) - E(x) mod 2(r+1)k, with E the label exponents.
    That covers every holonomy term: its faces are regular cosets, and
    ribbon i adds o_i w_i times the entry from its parent face to its
    inner face to the phase index e.  _forest gives the inner face gleam
    +o_i w_i and the parent face -o_i w_i, so the entries telescope to
    sum_c gleam_c E(x_c) = e mod 2(r+1)k, the gleam phase of the labels.
    Returns (the largest sine residual, the phase entries checked).
    """
    k = _level(k)
    _forest(link)
    table = _coset_table(lie, k)
    reduction = _reduction_table(lie, k)
    labels = _label_table(lie, k)
    const = _rho_sine_constant(lie, k)
    worst = 0.0
    for pos, (lam, sign) in enumerate(reduction):
        if table.regular[pos] != (sign != 0):
            raise ValueError(f"coset {table.reps[pos]}: regularity disagrees"
                             f" with the reduction sign {sign}")
        if sign:
            res = abs(table.sines[pos] ** 2 / (labels.dims[lam] ** 2 * const)
                      - 1.0)
            worst = max(worst, res)
            if res > _STEP6_TOL:
                raise ValueError(f"coset {table.reps[pos]}: sine misses"
                                 f" the squared dimension by {res:.3e}")
    exps = [labels.exps[lam] if sign else 0 for lam, sign in reduction]
    m2 = 2 * (lie.rank + 1) * k
    checked = 0
    for step in sorted({tuple(rib.orientation * a for a in alpha)
                        for rib in link.ribbons
                        for alpha in weight_multiplicities(lie, rib.color)}):
        shifted, expo = _shift_table(lie, k, step)
        for pos, y, e in zip(table.live, shifted, expo):
            if table.regular[y]:
                checked += 1
                if (e - exps[y] + exps[pos]) % m2:
                    raise ValueError(f"coset {table.reps[pos]}: step {step}"
                                     f" exponent {e} is not the label"
                                     f" exponent difference mod {m2}")
    return worst, checked


# ---------------------------------------------------------------------------
# standard embeddings


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
    slice at a time.  build_standard_surface refuses a genus other than 0
    and 1.  Only a single chain of nested ribbons is supported;
    the loop rotation direction per ribbon is chosen so that the realized
    jump sign equals the declared orientation.  The returned link has
    passed validate_link.
    """
    genus = _genus(link)
    m = len(link.ribbons)
    for pos, rib in enumerate(link.ribbons, start=1):
        if rib.parent != pos - 1:
            raise ValueError("standard embeddings support a single chain"
                             " of nested ribbons")
    if refinement is None:
        refinement = 1 if genus == 0 else 2
    cx = build_standard_surface(genus, refinement,
                                sites=(m,) if m else ())
    ribbons = []
    for pos, rib in enumerate(link.ribbons, start=1):
        # the forward ring realizes jump +1 and the reversed one, which
        # keeps both loops' start vertices, jump -1; the validation of the
        # finished link below confirms every jump
        ring = _ring_step(0, pos, reverse=rib.orientation == -1)
        sigma = cx.qk_vertices[_chain_ids(cx, ring.l_sigma)[0][0]]
        sigma_prime = cx.qk_vertices[_chain_ids(cx, ring.lp_sigma)[0][0]]
        steps = [ring]
        direction = 1 if rib.winding >= 0 else -1
        for j in range(n * abs(rib.winding)):
            steps.append(RibbonStep(t=(j * direction) % n, dt=direction,
                                    l_vertex=sigma, lp_vertex=sigma_prime))
        ribbons.append(ColoredRibbon(rib.color, rib.winding,
                                     rib.orientation, rib.parent,
                                     tuple(steps)))
    out = RibbonLink(genus, tuple(ribbons), complex=cx, n=n)
    validate_link(out)
    return out

