"""Surface decomposition, quad subdivision and projection tests."""

import re
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings, strategies as st

import oracles
from corpus import corpus_links
from oracles import (affine_constraint_rows, coboundary, named_subdivision,
                     polygon_fan_cells, project_to_K, psi_embed)
from shadow_wlo import complex as complex_module
from shadow_wlo import statesum
from shadow_wlo.complex import (
    SurfaceComplex,
    build_standard_surface,
    face_euler_characteristics,
    hodge_star,
    hodge_star_signs,
    kernel_check_B0,
    rational_rref,
)


def euler(cx):
    return len(cx.vertices) - len(cx.edges) + len(cx.faces)


def surface(g, r, sites=()):
    """The standard surface of genus 0 or 1, or for g >= 2, which
    build_standard_surface refuses, the oracles' triangle fan."""
    if g < 2:
        return build_standard_surface(g, r, sites)
    assert not sites
    return SurfaceComplex(g, *polygon_fan_cells(g, r))


def test_sphere_refinement_one_has_euler_two():
    cx = build_standard_surface(0, 1)
    assert euler(cx) == 2
    assert (len(cx.vertices), len(cx.edges), len(cx.faces)) == (8, 12, 6)


def test_torus_refinement_two_has_euler_zero():
    cx = build_standard_surface(1, 2)
    assert euler(cx) == 0


def test_quad_vertex_census_matches_cell_counts():
    cx = build_standard_surface(0, 2)
    assert len(cx.qk_vertices) == (len(cx.vertices) + len(cx.edges)
                                   + len(cx.faces))


def test_standard_surfaces_are_built_once_per_argument_set():
    cx = build_standard_surface(0, 1, (2,))
    assert build_standard_surface(0, 1, [2]) is cx
    assert build_standard_surface(g=0, refinement=1, sites=(2,)) is cx
    assert build_standard_surface(0, 1, sites=iter([2])) is cx
    assert build_standard_surface(1, 2) is build_standard_surface(1, 2, ())
    assert build_standard_surface(0, 1) is not cx


@pytest.mark.parametrize("args", [(1.0, 2), (1, 2.0), (0, 1, (2.0,))])
def test_standard_surface_arguments_must_be_integers(args):
    with pytest.raises(TypeError):
        build_standard_surface(*args)


def test_torus_refinement_one_rejected():
    with pytest.raises(ValueError):
        build_standard_surface(1, 1)


@pytest.mark.parametrize("g", [-1, 2, 3])
def test_standard_surfaces_stop_at_genus_one(g):
    with pytest.raises(ValueError, match="^standard surfaces cover genus 0 "
                                         "and 1 only$"):
        build_standard_surface(g, 1)


@pytest.mark.parametrize("g,r", [(0, 1), (0, 2), (1, 2), (1, 3),
                                 (2, 1), (2, 2), (3, 1)])
def test_generators_produce_valid_maps(g, r):
    cx = surface(g, r)
    assert euler(cx) == 2 - 2 * g
    # every quarter is a tetragon and every qK edge borders two quarters
    assert all(len(sides) == 4 for sides in cx.quarter_side_ids)
    borders = Counter(e for sides in cx.quarter_side_ids for e in sides)
    assert sorted(borders) == list(range(len(cx.qk_edge_ends)))
    assert set(borders.values()) == {2}
    # rotation orbits exhaust the darts; each starts at its smallest dart,
    # and they are listed in increasing order of that dart
    n_darts = sum(len(rot) for rot in cx.rotations.values())
    assert n_darts == 2 * len(cx.edges)
    starts = [rot[0] for rot in cx.rotations.values()]
    assert starts == sorted(starts)
    assert all(rot[0] == min(rot) for rot in cx.rotations.values())
    # total face degree counts each edge twice
    assert sum(len(c) for c in cx.faces.values()) == 2 * len(cx.edges)


@pytest.mark.parametrize("g,r", [(0, 1), (1, 2), (2, 1)])
def test_quad_subdivision_is_itself_a_valid_map(g, r):
    cx = surface(g, r)
    named = named_subdivision(cx)
    faces = [(qid, list(b)) for qid, b in named.quarters.items()]
    qcx = SurfaceComplex(g, named.qk_edges, faces)
    assert euler(qcx) == 2 - 2 * g


def test_projection_inverts_half_edge_embedding():
    cx = build_standard_surface(1, 3)
    primal = {e: Fraction(i, 7) for i, e in enumerate(sorted(cx.edges))}
    dual = {e: Fraction(3 * i + 1, 5) for i, e in enumerate(sorted(cx.edges))}
    p2, d2 = project_to_K(cx, psi_embed(cx, primal, dual))
    assert p2 == primal
    assert d2 == dual


def test_projection_of_single_half_edge_is_half():
    cx = build_standard_surface(0, 1)
    e0 = sorted(cx.edges)[0]
    primal, dual = project_to_K(cx, {("h1", e0): 1})
    assert primal[e0] == Fraction(1, 2)
    assert all(v == 0 for e, v in primal.items() if e != e0)
    assert all(v == 0 for v in dual.values())


def test_coboundary_of_constant_vanishes():
    cx = build_standard_surface(1, 2)
    c = {qv: Fraction(5, 3) for qv in cx.qk_vertices}
    assert all(v == 0 for v in coboundary(cx, c).values())


def test_coboundary_of_vertex_indicator():
    cx = build_standard_surface(0, 1)
    v0 = cx.vertices[0]
    c = {qv: 0 for qv in cx.qk_vertices}
    c[("v", v0)] = 1
    dc = coboundary(cx, c)
    hit = {qe: val for qe, val in dc.items() if val != 0}
    # exactly the half-edges at v0, with sign -1 leaving and +1 entering
    assert len(hit) == len(cx.rotations[v0])
    for qe, val in hit.items():
        tail, head = named_subdivision(cx).qk_edges[qe]
        assert val == (1 if head == ("v", v0) else -1)


def test_hodge_pair_squares_to_minus_identity():
    cx = build_standard_surface(1, 2)
    x = {e: Fraction(i - 3) for i, e in enumerate(sorted(cx.edges))}
    y = {e: Fraction(2 * i + 1) for i, e in enumerate(sorted(cx.edges))}
    x1, y1 = hodge_star(x, y)
    assert x1 == {e: -v for e, v in y.items()}
    assert y1 == x
    x2, y2 = hodge_star(x1, y1)
    assert x2 == {e: -v for e, v in x.items()}
    assert y2 == {e: -v for e, v in y.items()}
    assert hodge_star_signs == {"K1": 1, "K2": -1}


@pytest.mark.parametrize("g,r", [(0, 1), (0, 2), (1, 2), (1, 3), (2, 1)])
def test_kernel_of_projected_coboundary_is_constants(g, r):
    assert kernel_check_B0(surface(g, r))


def test_kernel_check_refuses_a_base_vertex_off_the_subdivision():
    cx = build_standard_surface(0, 1)
    with pytest.raises(ValueError,
                       match=r"^base vertex \('v', 'nope'\) is not a qK"):
        kernel_check_B0(cx, ("v", "nope"))
    # a primal vertex's bare name is not its qK vertex either
    with pytest.raises(ValueError, match="is not a qK vertex"):
        kernel_check_B0(cx, cx.vertices[0])


def test_kernel_check_refuses_an_unhashable_base_vertex():
    # a list names no qK vertex; the lookup refuses it like any other name
    cx = build_standard_surface(0, 1)
    with pytest.raises(ValueError,
                       match=r"^base vertex \['v', 1\] is not a qK vertex$"):
        kernel_check_B0(cx, ["v", 1])


def _bigon_pillow(tag):
    """Sphere of two bigon faces glued along two edges from a to b."""
    a, b = (tag, "a"), (tag, "b")
    e1, e2 = (tag, "e", 1), (tag, "e", 2)
    edges = {e1: (a, b), e2: (a, b)}
    faces = [((tag, "P"), [(e1, 1), (e2, -1)]),
             ((tag, "Q"), [(e2, 1), (e1, -1)])]
    return edges, faces


def test_kernel_check_on_two_faces_sharing_two_edges():
    # bigon pillow sphere: the affinity constraints alone already force the
    # two primal values to agree, so the kernel criterion still holds
    cx = SurfaceComplex(0, *_bigon_pillow("x"))
    for sigma0 in cx.qk_vertices:
        assert kernel_check_B0(cx, sigma0) is True
        assert oracles.kernel_check_B0_rows(cx, sigma0) is True


def test_kernel_check_fails_on_two_disjoint_spheres():
    # chi = 4 is "genus -1": each component carries its own constants, so
    # the kernel is two-dimensional and the criterion must fail
    edges, faces = _bigon_pillow("x")
    edges2, faces2 = _bigon_pillow("y")
    cx = SurfaceComplex(-1, {**edges, **edges2}, faces + faces2)
    for sigma0 in cx.qk_vertices:
        assert kernel_check_B0(cx, sigma0) is False
        assert oracles.kernel_check_B0_rows(cx, sigma0) is False


# (genus, refinement, ring sites): the standard surfaces, where genus 1
# needs refinement >= 2, and the oracles' genus-2 triangle fans, which
# carry no ring sites; the fan at refinement 1 has loop edges
_KERNEL_SURFACES = (
    [(0, r, s) for r in (1, 2, 3, 4) for s in ((), (2,))]
    + [(1, r, s) for r in (2, 3, 4) for s in ((), (1,))]
    + [(2, r, ()) for r in (1, 2, 3, 4)])


@pytest.mark.parametrize("g,r,sites", _KERNEL_SURFACES)
def test_kernel_check_matches_full_row_oracle(g, r, sites):
    """The equality-class quotient gives the full row system's verdict.

    Every base vertex is tried on surfaces of at most 60 qK vertices; on
    larger ones six evenly spaced base vertices, which cover centers,
    midpoints and primal vertices, bound the oracle's cost.
    """
    cx = surface(g, r, sites)
    # every side of the fan at r = 1 is a loop edge at its one corner
    assert any(t == h for t, h in cx.edges.values()) is ((g, r) == (2, 1))
    qvs = cx.qk_vertices
    if len(qvs) > 60:
        qvs = qvs[::-(-len(qvs) // 6)]
    assert {qv[0] for qv in qvs} == {"c", "m", "v"}
    for sigma0 in qvs:
        assert oracles.kernel_check_B0_rows(cx, sigma0) is True
        assert kernel_check_B0(cx, sigma0) is True


@st.composite
def _standard_surfaces(draw):
    """A small standard surface of genus 0 or 1 with up to two ring
    sites."""
    g = draw(st.sampled_from((0, 1)))
    refinement = draw(st.integers(2, 3) if g else st.just(1))
    sites = tuple(draw(st.lists(st.integers(1, 2), max_size=2)))
    try:
        return build_standard_surface(g, refinement, sites)
    except ValueError as exc:
        assume("not enough disjoint base cells" not in str(exc))
        raise


@settings(max_examples=20, deadline=None)
@given(_standard_surfaces())
@example(surface(2, 1))
@example(surface(2, 2))
def test_integer_tables_name_the_subdivision(cx):
    """Every integer table agrees with the named subdivision the oracle
    derives from the cells, and the kernel check on them agrees with the
    full row oracle at every base vertex."""
    named = named_subdivision(cx)
    qv_names, qe_names = cx.qk_vertices, list(named.qk_edges)
    assert list(qv_names) == sorted(
        [("v", v) for v in cx.vertices] + [("m", e) for e in cx.edges]
        + [("c", f) for f in cx.faces])
    assert cx.qk_vertex_ids == {w: i for i, w in enumerate(qv_names)}
    assert cx.qk_edge_ids == {e: i for i, e in enumerate(qe_names)}
    assert list(cx.quarter_names) == sorted(named.quarters)
    assert [cx.quarter_names[q] for q in cx.quarters_by_face] == \
        list(named.quarters)
    for q, qid in enumerate(cx.quarter_names):
        assert tuple(qv_names[w] for w in cx.quarter_corner_ids[q]) == \
            named.quarter_corners[qid]
        assert tuple(qe_names[e] for e in cx.quarter_side_ids[q]) == \
            tuple(qe for qe, _ in named.quarters[qid])
    assert len(cx.qk_edge_ends) == len(qe_names)
    for e, name in enumerate(qe_names):
        t, h = cx.qk_edge_ends[e]
        assert (qv_names[t], qv_names[h]) == named.qk_edges[name]
    for i, (e, (t, h)) in enumerate(cx.edges.items()):
        assert qe_names[4 * i:4 * i + 4] == [(k, e) for k in
                                             ("h1", "h2", "d1", "d2")]
        assert tuple(qv_names[w] for w in cx.edge_end_ids[i]) == (
            ("v", t), ("v", h), ("c", cx.edge_left[e]),
            ("c", cx.edge_right[e]))
    for sigma0 in qv_names:
        assert kernel_check_B0(cx, sigma0) is \
            oracles.kernel_check_B0_rows(cx, sigma0)


# the attributes the SurfaceComplex docstring lists: the cell data and the
# integer tables of the quad subdivision
_SURFACE_ATTRIBUTES = {
    "genus", "edges", "faces", "ring_sites", "edge_left", "edge_right",
    "rotations", "vertices", "qk_vertices", "quarter_names",
    "qk_vertex_ids", "qk_edge_ids", "qk_edge_ends", "edge_end_ids",
    "quarter_corner_ids", "quarter_side_ids", "quarters_by_face"}


@pytest.mark.parametrize("g,r,sites", [(0, 1, ()), (1, 2, (1,)),
                                       (2, 1, ())])
def test_surface_holds_only_the_documented_tables(g, r, sites):
    """A second representation of a table would be a new attribute."""
    cx = surface(g, r, sites)
    assert len(_SURFACE_ATTRIBUTES) == 17
    assert set(vars(cx)) == _SURFACE_ATTRIBUTES
    for name in _SURFACE_ATTRIBUTES:
        assert re.search(rf"\b{name}\b", SurfaceComplex.__doc__), name


def test_affinity_rows_annihilate_constants():
    cx = build_standard_surface(1, 2)
    index = {qv: i for i, qv in enumerate(cx.qk_vertices)}
    rows = affine_constraint_rows(cx, index)
    assert len(rows) == sum(len(c) for c in cx.faces.values())
    ones = [Fraction(1)] * len(cx.qk_vertices)
    for row in rows:
        assert sum(v * ones[c] for c, v in row.items()) == 0


def test_empty_link_region_census():
    for g, r in [(0, 1), (1, 2), (2, 1)]:
        cx = surface(g, r)
        everything = set(range(len(cx.quarter_names)))
        chi = face_euler_characteristics(cx, {"Y0": everything})
        assert chi == {"Y0": 2 - 2 * g}


def test_region_census_disagreement_raises():
    cx = build_standard_surface(0, 1)
    # a single quarter is a disk cellwise but its vertex census gives 0
    with pytest.raises(ValueError):
        face_euler_characteristics(cx, {"Y": {0}})


def test_ring_site_carving_keeps_surface_valid():
    cx = build_standard_surface(0, 3, sites=(2,))
    assert euler(cx) == 2
    assert len(cx.ring_sites) == 1
    info = cx.ring_sites[0]
    assert info["depth"] == 2
    assert ("inner", 0) in cx.faces
    assert all(len(sides) == 4 for sides in cx.quarter_side_ids)
    assert kernel_check_B0(cx)


def test_two_ring_sites_on_torus_are_disjoint():
    cx = build_standard_surface(1, 4, sites=(1, 1))
    assert euler(cx) == 0
    cells = [info["base_cell"] for info in cx.ring_sites]

    def corners(fid_cycle):
        return {cx.dart_tail(d) for d in fid_cycle}

    outer = [corners(info["outer_cycle"]) for info in cx.ring_sites]
    assert not (outer[0] & outer[1])
    assert cells[0] != cells[1]


def test_too_many_ring_sites_rejected():
    with pytest.raises(ValueError):
        build_standard_surface(1, 2, sites=(1, 1))


def test_sigma0_deterministic_order_and_exclusions():
    """The embedded basepoint is the least qK vertex id on no loop, with
    the loops' vertices read from the named darts of the ribbon steps."""
    for ent in corpus_links():
        cx = ent.embedded.complex
        qk_edges = named_subdivision(cx).qk_edges
        on_loops = {cx.qk_vertex_ids[w]
                    for rib in ent.embedded.ribbons for st in rib.steps
                    for qe, _ in st.l_sigma + st.lp_sigma
                    for w in qk_edges[qe]}
        free = [w for w in range(len(cx.qk_vertices)) if w not in on_loops]
        assert statesum._EmbeddedFaces(ent.embedded).sigma0 == free[0]
        # the empty link's basepoint is the one the kernel check defaults to
        if not ent.embedded.ribbons:
            assert free[0] == 0


DIGON_EDGES = {("e1",): (("a",), ("b",)), ("e2",): (("a",), ("b",))}


def test_digon_sphere_from_cells():
    faces = [(("P",), [(("e1",), 1), (("e2",), -1)]),
             (("Q",), [(("e2",), 1), (("e1",), -1)])]
    cx = SurfaceComplex(0, DIGON_EDGES, faces)
    assert euler(cx) == 2
    assert cx.vertices == (("a",), ("b",))
    assert len(cx.qk_vertices) == 2 + 2 + 2


def test_cells_reject_an_unpaired_edge():
    # e1 never traversed backwards: not an oriented closed surface
    p = (("P",), [(("e1",), 1), (("e2",), -1)])
    q = (("Q",), [(("e1",), 1), (("e2",), -1)])
    with pytest.raises(ValueError, match="used twice"):
        SurfaceComplex(0, DIGON_EDGES, [p, q])
    with pytest.raises(ValueError, match="edge .* missing direction -1"):
        SurfaceComplex(0, DIGON_EDGES, [p])


@st.composite
def _sparse_systems(draw):
    nrows = draw(st.integers(0, 10))
    ncols = draw(st.integers(1, 8))
    rows = [draw(st.dictionaries(st.integers(0, ncols - 1),
                                 st.integers(-12, 12)))
            for _ in range(nrows)]
    return rows, ncols


@settings(max_examples=300, deadline=None)
@given(_sparse_systems())
@example(([], 3))
# zero rows, given empty or with explicit zero entries
@example(([{}, {0: 0, 2: 0}, {1: 4}], 3))
@example(([{0: 2, 1: -3}, {0: 2, 1: -3}, {1: 1}], 2))
# row 0 fills column 3 into row 1, which then cancels row 2; the second
# system's eliminated row is divided by its gcd 10
@example(([{0: 1, 3: 2}, {0: 3, 1: 1}, {1: 1, 3: -6}], 4))
@example(([{0: 2, 1: 4}, {0: 3, 1: 1}, {1: 5, 2: 1}], 3))
def test_sparse_rref_matches_dense_oracle(system):
    rows, ncols = system
    assert rational_rref(rows) == oracles.rational_rref_dense(rows, ncols)[0]


@pytest.mark.parametrize("g,r,sites", [(0, 1, ()), (1, 2, ()), (1, 3, ()),
                                       (0, 1, (2,))])
def test_sparse_rref_matches_dense_oracle_on_kernel_rows(
        monkeypatch, g, r, sites):
    systems = []

    def spy(rows):
        systems.append(rows)
        return rational_rref(rows)

    monkeypatch.setattr(complex_module, "rational_rref", spy)
    cx = build_standard_surface(g, r, sites)
    assert oracles.kernel_check_B0_rows(cx)
    [rows] = systems
    assert rational_rref(rows) == \
        oracles.rational_rref_dense(rows, len(cx.qk_vertices))[0]
