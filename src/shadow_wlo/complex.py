"""Oriented polyhedral surface decompositions and their joint subdivisions.

A decomposition is encoded as an oriented combinatorial map: faces are
counterclockwise cycles of directed edges, and every edge is traversed once
in each direction over all face cycles.  Vertex rotations, the dual
decomposition and the quad subdivision (one tetragon per vertex-face
incidence) are derived from that data.

The quad subdivision qK has three vertex classes: primal vertices, edge
midpoints and face centers.  Every qK edge joins a midpoint to a primal
vertex or a center, giving the half-edge structure the downstream operators
rely on.  RibbonStep, one step of a ribbon's boundary walk over qK edges,
is defined here beside the subdivision it indexes.

A SurfaceComplex numbers its qK vertices, qK edges and quarters once, at
construction, and keeps the subdivision only as integer corner, side and
edge-end tables over those ids; the kernel check, the region census and
the embedded validation in statesum run over them.  Names appear only
where a link names cells: a RibbonStep names its qK edges and vertices,
and an error message names the cell it refuses.  build_standard_surface
builds each standard surface once per process.

The B0 kernel check first merges the vertices its equality conditions
tie together (the star of the base vertex, the ends of each primal and
dual edge) into classes, then takes the rank of the tetragon affinity on
the class values with rational_rref: forward fraction-free elimination
in integers, which returns the rank alone.

Orientation conventions, fixed once here and asserted by tests:
  - face cycles are counterclockwise w.r.t. the surface orientation;
  - the dual edge e' of e runs from the left face of e to the right face,
    where the left face is the one whose cycle contains e with sign +1;
  - the Hodge pair is (star_K1 x)(e') = +x(e), (star_K2 y)(e) = -y(e'),
    so in the canonical edge indexing the blocks are +1 and -1.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from functools import lru_cache
from itertools import product
from math import gcd

__all__ = [
    "SurfaceComplex",
    "build_standard_surface",
    "RibbonStep",
    "kernel_check_B0",
    "face_euler_characteristics",
    "hodge_star",
    "hodge_star_signs",
    "rational_rref",
]

# sign convention of the Hodge pair in the canonical dual-edge indexing
hodge_star_signs = {"K1": 1, "K2": -1}


def _find(parent, x):
    """Root of x in a union-find forest (parent[x] is x's parent, in a list
    or a dict), halving its path."""
    while parent[x] != x:
        parent[x] = parent[parent[x]]
        x = parent[x]
    return x


def _name_id(ids, name):
    """ids[name], or None when name names no cell (unhashable included)."""
    try:
        return ids.get(name)
    except TypeError:
        return None


def _dart_tail(edges, dart):
    """Start vertex of a dart (edge id, +-1) over an {edge: (tail, head)} map."""
    eid, sign = dart
    t, h = edges[eid]
    return t if sign == 1 else h


class SurfaceComplex:
    """Immutable oriented cell decomposition with its quad subdivision.

    Construct through build_standard_surface, or directly from an
    {edge: (tail, head)} map, a list of (face id, dart cycle) pairs and,
    for a carved surface, its ring-site records.  The cell data are
      - genus, edges, faces ({face: dart cycle}) and ring_sites;
      - edge_left, edge_right: the face on each side of an edge;
      - rotations: the counterclockwise dart orbit at each vertex;
      - vertices: the vertices, sorted.
    The quad subdivision qK has one vertex per vertex ("v", v), edge
    midpoint ("m", e) and face center ("c", f), four half-edges per edge,
    ("h1", e) from its tail to its midpoint, ("h2", e) on to its head,
    ("d1", e) from its left center to its midpoint and ("d2", e) on to its
    right center, and one quarter (f, i) at corner i of each face f.  It
    is kept by integer ids:
      - qk_vertices, quarter_names: the vertex and quarter names, sorted,
        in id order;
      - qk_vertex_ids, qk_edge_ids: name -> id, for the names a link
        gives; qK edge 4i + k is half k of the i-th edge of edges, in the
        order h1, h2, d1, d2;
      - qk_edge_ends: (tail, head) per qK edge;
      - edge_end_ids: (tail, head, left center, right center) per edge;
      - quarter_corner_ids: (v, m_in, m_out, c) per quarter: its primal
        vertex, the midpoints of the edges into and out of it along the
        face cycle, and the face center;
      - quarter_side_ids: the four qK edges bounding each quarter, the
        primal halves at v into and out of it, then the dual halves from
        c out of and into it;
      - quarters_by_face: the quarter ids face by face, in the order of
        faces, which fixes the order in which regions are found.
    Nothing is written after construction, so build_standard_surface
    hands one instance to every caller.
    """

    def __init__(self, genus, edges, faces, ring_sites=()):
        self.genus = genus
        self.edges = dict(edges)
        self.faces = {}
        for fid, cycle in faces:
            if fid in self.faces:
                raise ValueError(f"duplicate face id {fid}")
            self.faces[fid] = tuple(cycle)
        self.ring_sites = tuple(ring_sites)
        self._validate_and_derive()
        self._build_quad_subdivision()

    # -- construction ------------------------------------------------------

    def _validate_and_derive(self):
        seen = {}
        for fid, cycle in self.faces.items():
            if not cycle:
                raise ValueError(f"face {fid} has empty boundary")
            for eid, sign in cycle:
                if eid not in self.edges:
                    raise ValueError(f"face {fid} uses unknown edge {eid}")
                if (eid, sign) in seen:
                    raise ValueError(f"dart {(eid, sign)} used twice")
                seen[(eid, sign)] = fid
        for eid in self.edges:
            for sign in (1, -1):
                if (eid, sign) not in seen:
                    raise ValueError(f"edge {eid} missing direction {sign}")
        self.edge_left = {eid: seen[(eid, 1)] for eid in self.edges}
        self.edge_right = {eid: seen[(eid, -1)] for eid in self.edges}
        for eid in self.edges:
            if self.edge_left[eid] == self.edge_right[eid]:
                raise ValueError(
                    f"edge {eid} has the same face on both sides; "
                    "refinement too small for a well-defined dual")

        tail, head = self.dart_tail, self.dart_head
        nxt = {}
        for fid, cycle in self.faces.items():
            for i, dart in enumerate(cycle):
                succ = cycle[(i + 1) % len(cycle)]
                if head(dart) != tail(succ):
                    raise ValueError(f"face {fid} cycle breaks at {dart}")
                nxt[dart] = succ
        prv = {d2: d1 for d1, d2 in nxt.items()}

        # vertex rotations: sigma = twin o phi^(-1) walks counterclockwise
        def sigma(dart):
            eid, sign = prv[dart]
            return (eid, -sign)

        # each orbit starts at its smallest dart, in increasing order
        rotations = {}
        visited = set()
        for start in sorted(nxt):
            if start in visited:
                continue
            orbit = [start]
            cur = sigma(start)
            while cur != start:
                orbit.append(cur)
                cur = sigma(cur)
            v = tail(start)
            for d in orbit:
                if tail(d) != v:
                    raise ValueError("rotation orbit mixes vertices; "
                                     "not a closed oriented surface")
                visited.add(d)
            if v in rotations:
                raise ValueError(f"vertex {v} is a non-manifold pinch point")
            rotations[v] = tuple(orbit)
        self.rotations = rotations
        self.vertices = tuple(sorted(rotations))
        chi = len(self.vertices) - len(self.edges) + len(self.faces)
        if chi != 2 - 2 * self.genus:
            raise ValueError(f"Euler characteristic {chi} does not match "
                             f"genus {self.genus}")

    def _build_quad_subdivision(self):
        qv = []
        for v in self.vertices:
            qv.append(("v", v))
        for e in self.edges:
            qv.append(("m", e))
        for f in self.faces:
            qv.append(("c", f))
        self.qk_vertices = tuple(sorted(qv))
        vid = {w: i for i, w in enumerate(self.qk_vertices)}
        self.qk_vertex_ids = vid

        # qK edge 4i + k is half k of the i-th edge: h1, h2, then d1, d2
        eid = {}
        ends = []
        edge_ends = []
        for i, (e, (t, h)) in enumerate(self.edges.items()):
            for k, kind in enumerate(("h1", "h2", "d1", "d2")):
                eid[(kind, e)] = 4 * i + k
            v_t, v_h, m = vid[("v", t)], vid[("v", h)], vid[("m", e)]
            left = vid[("c", self.edge_left[e])]
            right = vid[("c", self.edge_right[e])]
            ends += [(v_t, m), (m, v_h), (left, m), (m, right)]
            edge_ends.append((v_t, v_h, left, right))
        self.qk_edge_ids = eid
        self.qk_edge_ends = tuple(ends)
        self.edge_end_ids = tuple(edge_ends)

        # the quarter at corner i of a face sits between the dart into its
        # primal vertex and the dart out of it; its sides are the primal
        # halves at that vertex and the dual halves from the face center
        found = []
        for fid, cycle in self.faces.items():
            c = vid[("c", fid)]
            for i, (e_in, s_in) in enumerate(cycle):
                e_out, s_out = cycle[(i + 1) % len(cycle)]
                a, b = eid[("h1", e_in)], eid[("h1", e_out)]
                v = vid[("v", self.dart_head(cycle[i]))]
                found.append((
                    (fid, i),
                    (v, vid[("m", e_in)], vid[("m", e_out)], c),
                    (a + 1 if s_in == 1 else a, b if s_out == 1 else b + 1,
                     b + 2 if s_out == 1 else b + 3,
                     a + 2 if s_in == 1 else a + 3)))
        order = sorted(range(len(found)), key=lambda j: found[j][0])
        self.quarter_names = tuple(found[j][0] for j in order)
        self.quarter_corner_ids = tuple(found[j][1] for j in order)
        self.quarter_side_ids = tuple(found[j][2] for j in order)
        by_face = [0] * len(found)
        for q, j in enumerate(order):
            by_face[j] = q
        self.quarters_by_face = tuple(by_face)

    # -- helpers -----------------------------------------------------------

    def dart_tail(self, dart):
        return _dart_tail(self.edges, dart)

    def dart_head(self, dart):
        eid, sign = dart
        t, h = self.edges[eid]
        return h if sign == 1 else t


# ---------------------------------------------------------------------------
# generators


def _grid_torus_cells(n):
    edges = {}
    for i, j in product(range(n), repeat=2):
        edges[("E", i, j)] = (("g", i, j), ("g", (i + 1) % n, j))
        edges[("N", i, j)] = (("g", i, j), ("g", i, (j + 1) % n))
    faces = []
    for i, j in product(range(n), repeat=2):
        faces.append((("gf", i, j), [
            (("E", i, j), 1),
            (("N", (i + 1) % n, j), 1),
            (("E", i, (j + 1) % n), -1),
            (("N", i, j), -1),
        ]))
    return edges, faces


_CUBE_FRAMES = [
    # (anchor point, direction u, direction v), with u x v pointing outward
    ((0, 0, 0), (0, 0, 1), (0, 1, 0)),     # x = 0
    ((1, 0, 0), (0, 1, 0), (0, 0, 1)),     # x = r
    ((0, 0, 0), (1, 0, 0), (0, 0, 1)),     # y = 0
    ((0, 1, 0), (0, 0, 1), (1, 0, 0)),     # y = r
    ((0, 0, 0), (0, 1, 0), (1, 0, 0)),     # z = 0
    ((0, 0, 1), (1, 0, 0), (0, 1, 0)),     # z = r
]


def _cube_sphere_cells(r):
    def pt(anchor, u, v, a, b):
        return tuple(anchor[c] * r + u[c] * a + v[c] * b for c in range(3))

    edges = {}
    faces = []

    def edge_of(p, q):
        key = ("ce",) + min(p, q) + max(p, q)
        if key not in edges:
            edges[key] = (("g",) + min(p, q), ("g",) + max(p, q))
        sign = 1 if (("g",) + p) == edges[key][0] else -1
        return key, sign

    for fidx, (anchor, u, v) in enumerate(_CUBE_FRAMES):
        for a, b in product(range(r), repeat=2):
            ring = [pt(anchor, u, v, a, b), pt(anchor, u, v, a + 1, b),
                    pt(anchor, u, v, a + 1, b + 1), pt(anchor, u, v, a, b + 1)]
            cycle = []
            for i in range(4):
                key, sign = edge_of(ring[i], ring[(i + 1) % 4])
                cycle.append((key, sign))
            faces.append((("cf", fidx, a, b), cycle))
    return edges, faces


def _polygon_fan_cells(g, r):
    # 4g-gon with side word prod_i a_i b_i a_i^(-1) b_i^(-1), each side cut
    # into r segments, coned from an interior apex.  All polygon corners glue
    # to the single vertex ("w",).
    sides = 4 * g

    def partner(s):
        base, off = divmod(s, 4)
        return 4 * base + {0: 2, 1: 3, 2: 0, 3: 1}[off]

    def canonical(s):
        return s % 4 in (0, 1)

    def bvertex(s, t):
        # boundary point at parameter t in 0..r on side s, glued label
        if t == 0:
            return ("w",)
        if t == r:
            return ("w",)
        if canonical(s):
            return ("bp", s, t)
        return ("bp", partner(s), r - t)

    edges = {}
    for s in range(sides):
        if canonical(s):
            for t in range(r):
                edges[("side", s, t)] = (bvertex(s, t), bvertex(s, t + 1))
        for t in range(r):
            edges[("spoke", s, t)] = (("apex",), bvertex(s, t))

    def side_dart(s, t):
        if canonical(s):
            return ("side", s, t), 1
        return ("side", partner(s), r - t - 1), -1

    def spoke(s, t):
        # spoke to boundary parameter t of side s; t = r is the next corner
        if t == r:
            s2 = (s + 1) % sides
            return ("spoke", s2, 0)
        return ("spoke", s, t)

    faces = []
    for s in range(sides):
        for t in range(r):
            faces.append((("tri", s, t), [
                (spoke(s, t), 1),
                side_dart(s, t),
                (spoke(s, t + 1), -1),
            ]))
    return edges, faces


def _carve_ring_patch(edges, faces, cell_id, depth, tag):
    """Replace one quadrilateral cell by nested concentric square rings.

    The carved cell's boundary becomes the outermost ring; depth rings of
    four trapezoids each are added, with corner diagonals joining ring j-1
    to ring j, and a single innermost square cell.  Returns the new cell
    lists (the input lists are not modified).
    """
    faces = list(faces)
    cell = None
    for idx, (fid, cycle) in enumerate(faces):
        if fid == cell_id:
            cell = (idx, cycle)
            break
    if cell is None:
        raise ValueError(f"no cell {cell_id} to carve")
    idx, cycle = cell
    if len(cycle) != 4:
        raise ValueError("ring patch needs a quadrilateral cell")
    edges = dict(edges)
    del faces[idx]
    outer_corners = [_dart_tail(edges, d) for d in cycle]

    def ring_corner(j, i):
        if j == 0:
            return outer_corners[i]
        return ("rc", tag, j, i)

    for j in range(1, depth + 1):
        for i in range(4):
            edges[("diag", tag, j, i)] = (ring_corner(j - 1, i),
                                          ring_corner(j, i))
            edges[("rs", tag, j, i)] = (ring_corner(j, i),
                                        ring_corner(j, (i + 1) % 4))

    def ring_side_dart(j, i):
        if j == 0:
            return cycle[i]
        return (("rs", tag, j, i), 1)

    for j in range(1, depth + 1):
        for i in range(4):
            faces.append((("trap", tag, j, i), [
                ring_side_dart(j - 1, i),
                (("diag", tag, j, (i + 1) % 4), 1),
                (("rs", tag, j, i), -1),
                (("diag", tag, j, i), -1),
            ]))
    faces.append((("inner", tag), [(("rs", tag, depth, i), 1)
                                   for i in range(4)]))
    info = {"tag": tag, "depth": depth, "base_cell": cell_id,
            "outer_cycle": tuple(cycle)}
    return edges, faces, info


def _select_site_cells(edges, faces, n):
    """Greedy choice of n quadrilateral cells with pairwise disjoint corners.

    Disjoint corner sets keep the carved loop systems of different sites
    from ever sharing a vertex, so their ribbon strips cannot meet.
    """
    chosen = []
    used = set()
    for fid, cycle in sorted(faces):
        if len(chosen) == n:
            break
        if len(cycle) != 4:
            continue
        corners = {_dart_tail(edges, d) for d in cycle}
        if corners & used:
            continue
        chosen.append(fid)
        used |= corners
    if len(chosen) < n:
        raise ValueError("not enough disjoint base cells for the "
                         "requested ring sites; increase the refinement")
    return chosen


def build_standard_surface(g, refinement, sites=()):
    """Standard decomposition of the closed oriented genus-g surface.

    g=0 is a cube with each face split into refinement^2 cells; g=1 is the
    refinement x refinement torus grid; g >= 2 is the coned 4g-gon with
    sides cut into refinement segments (a triangle fan, abstract use only).
    sites is a sequence of ring-patch depths; site p gets depth sites[p]
    carved into a deterministic base cell, providing nested loop sites for
    ribbon embeddings.  g, refinement and the depths must be integers.

    Each surface is built once per process and shared: calls with the
    same g, refinement and depths, however passed, return one instance.
    """
    sites = tuple(operator.index(depth) for depth in sites)
    return _standard_surface(operator.index(g), operator.index(refinement),
                             sites)


@lru_cache(maxsize=None)
def _standard_surface(g, refinement, sites):
    if g < 0 or refinement < 1:
        raise ValueError("need g >= 0 and refinement >= 1")
    if g == 0:
        edges, faces = _cube_sphere_cells(refinement)
    elif g == 1:
        if refinement < 2:
            raise ValueError("refinement too small: torus faces would be "
                             "self-adjacent")
        edges, faces = _grid_torus_cells(refinement)
    else:
        edges, faces = _polygon_fan_cells(g, refinement)
    site_info = []
    if sites:
        if g > 1:
            raise ValueError("ring sites are only generated for genus 0 "
                             "and 1")
        cells = _select_site_cells(edges, faces, len(sites))
        for p, depth in enumerate(sites):
            if depth < 1:
                raise ValueError("ring depth must be >= 1")
            edges, faces, info = _carve_ring_patch(edges, faces, cells[p],
                                                   depth, p)
            site_info.append(info)
    return SurfaceComplex(g, edges, faces, site_info)


# ---------------------------------------------------------------------------
# cochain operations


@dataclass(frozen=True)
class RibbonStep:
    """One step of a paired-boundary ribbon.

    t is the time slice at the start of the step.  l_sigma and lp_sigma
    are the surface parts of the two boundary loops, as tuples of
    (subdivision edge, sign); they are empty for a pure time step.
    l_vertex and lp_vertex are the subdivision vertices where the two
    surface parts start (for time steps: where the loops currently sit),
    which is where the twist field is sampled.  dt is the signed time
    displacement in units of 1/n; both loops share it, since validated
    ribbons have identical time projections.
    """

    t: int
    l_sigma: tuple = ()
    lp_sigma: tuple = ()
    l_vertex: tuple | None = None
    lp_vertex: tuple | None = None
    dt: int = 0


def hodge_star(x, y):
    """The Hodge pair on (x, y) in C1(K1) + C1(K2): (star_K2 y, star_K1 x).

    In the canonical indexing (the dual edge of e carries the id of e) both
    blocks are scalar, star_K1 = +1 and star_K2 = -1, so the map is
    (x, y) -> (-y, x) and applying it twice gives -identity.
    """
    s1, s2 = hodge_star_signs["K1"], hodge_star_signs["K2"]
    return {e: s2 * v for e, v in y.items()}, {e: s1 * v for e, v in x.items()}


def rational_rref(rows):
    """Rank of a sparse integer system, by fraction-free elimination.

    rows: list of {col: int}.  Forward elimination: each row pivots on its
    first nonzero column and is eliminated only from the rows after it,
    as other = pv*other - f*row, which is then divided by the gcd of its
    entries.  The rows that keep a pivot are independent, so their count
    is the rank.  The name is that of the former full reduction, kept
    because the benchmark's tracer wraps complex.rational_rref.
    """
    work = [{c: v for c, v in row.items() if v} for row in rows]
    rank = 0
    for i, vec in enumerate(work):
        if not vec:
            continue
        rank += 1
        col = min(vec)
        pv = vec[col]
        for j in range(i + 1, len(work)):
            other = work[j]
            f = other.get(col)
            if f is None:
                continue
            new = {c: pv * v for c, v in other.items()}
            for c, v in vec.items():
                if x := new.get(c, 0) - f * v:
                    new[c] = x
                else:
                    del new[c]
            g = gcd(*new.values())
            work[j] = {c: v // g for c, v in new.items()} if g > 1 else new
    return rank


def kernel_check_B0(cx, sigma0=None):
    """True iff ker of (project o coboundary) on B0(qK) is the constants.

    B0(qK) imposes the tetragon affinity on every quarter and constancy on
    the closed star of sigma0.  The projected coboundary vanishes exactly
    when the two primal values along each non-loop edge agree and the two
    center values across each dual edge agree.  Apart from the affinity,
    every condition is an equality x_a = x_b; merged by union-find over
    the qK vertex ids into classes, the equalities parametrize their
    solution space by one value per class.  Summing each affinity row's
    coefficients per class gives the restriction of the affinity to that
    space, so the kernel has dimension #classes - rank of the quotient
    rows, found by exact elimination.  sigma0 names a qK vertex; the
    default is the first in qk_vertices, id 0.
    """
    base = 0 if sigma0 is None else _name_id(cx.qk_vertex_ids, sigma0)
    if base is None:
        raise ValueError(f"base vertex {sigma0!r} is not a qK vertex")
    parent = list(range(len(cx.qk_vertices)))

    def union(a, b):
        parent[_find(parent, a)] = _find(parent, b)

    for corners in cx.quarter_corner_ids:
        if base in corners:
            for w in corners:
                union(w, base)
    for t, h, left, right in cx.edge_end_ids:
        # loop edges impose nothing
        if t != h:
            union(t, h)
        union(left, right)
    # the class of sigma0 meets almost every row; as the last column it is
    # pivoted on last, which keeps the elimination sparse
    roots = [_find(parent, w) for w in range(len(parent))]
    star = roots[base]
    cls = {}
    for root in roots:
        if root != star:
            cls.setdefault(root, len(cls))
    cls[star] = len(cls)
    col = [cls[root] for root in roots]
    rows = []
    for v, m_in, m_out, c in cx.quarter_corner_ids:
        row = {}
        for w, coef in ((v, 1), (c, 1), (m_in, -1), (m_out, -1)):
            row[col[w]] = row.get(col[w], 0) + coef
        if any(row.values()):
            rows.append(row)
    return len(cls) - rational_rref(rows) == 1


def face_euler_characteristics(cx, regions):
    """Euler characteristic of each closed face region by vertex census.

    regions maps a face label to the set of quarter ids forming the
    region.  Counts primal vertices minus midpoints plus centers in the
    closure, and cross-checks against the cellwise chi of the closed
    subcomplex; disagreement signals an invalid region structure.  A
    quarter's corner ids are (primal vertex, midpoint, midpoint, center),
    so each corner's class is its position.
    """
    corner_ids, side_ids = cx.quarter_corner_ids, cx.quarter_side_ids
    out = {}
    for label, quarter_set in regions.items():
        primal, mid, center, qedges = set(), set(), set(), set()
        for q in quarter_set:
            v, m_in, m_out, c = corner_ids[q]
            primal.add(v)
            mid.add(m_in)
            mid.add(m_out)
            center.add(c)
            qedges.update(side_ids[q])
        census = len(primal) - len(mid) + len(center)
        cellwise = (len(primal) + len(mid) + len(center) - len(qedges)
                    + len(quarter_set))
        if census != cellwise:
            raise ValueError(
                f"region {label}: vertex census {census} disagrees with "
                f"cellwise characteristic {cellwise}")
        out[label] = census
    return out
