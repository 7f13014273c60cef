"""Surface decomposition, quad subdivision and projection tests."""

from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

import oracles
from oracles import affine_constraint_rows, project_to_K, psi_embed
from shadow_wlo import complex as complex_module
from shadow_wlo.complex import (
    SurfaceComplex,
    build_standard_surface,
    coboundary,
    default_sigma0,
    face_euler_characteristics,
    hodge_star,
    hodge_star_signs,
    kernel_check_B0,
    rational_rref,
)


def euler(cx):
    return len(cx.vertices) - len(cx.edges) + len(cx.faces)


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


def test_torus_refinement_one_rejected():
    with pytest.raises(ValueError):
        build_standard_surface(1, 1)


@pytest.mark.parametrize("g,r", [(0, 1), (0, 2), (1, 2), (1, 3),
                                 (2, 1), (2, 2), (3, 1)])
def test_generators_produce_valid_maps(g, r):
    cx = build_standard_surface(g, r)
    assert euler(cx) == 2 - 2 * g
    # every quarter is a tetragon and every qK edge borders two quarters
    for boundary in cx.quarters.values():
        assert len(boundary) == 4
    # rotation orbits exhaust the darts
    n_darts = sum(len(rot) for rot in cx.rotations.values())
    assert n_darts == 2 * len(cx.edges)
    # total face degree counts each edge twice
    assert sum(len(c) for c in cx.faces.values()) == 2 * len(cx.edges)


@pytest.mark.parametrize("g,r", [(0, 1), (1, 2), (2, 1)])
def test_quad_subdivision_is_itself_a_valid_map(g, r):
    cx = build_standard_surface(g, r)
    faces = [(qid, list(b)) for qid, b in cx.quarters.items()]
    qcx = SurfaceComplex(g, cx.qk_edges, faces)
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
        tail, head = cx.qk_edges[qe]
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
    assert kernel_check_B0(build_standard_surface(g, r))


def test_kernel_check_refuses_a_base_vertex_off_the_subdivision():
    cx = build_standard_surface(0, 1)
    with pytest.raises(ValueError,
                       match=r"^base vertex \('v', 'nope'\) is not a qK"):
        kernel_check_B0(cx, ("v", "nope"))
    # a primal vertex's bare name is not its qK vertex either
    with pytest.raises(ValueError, match="is not a qK vertex"):
        kernel_check_B0(cx, cx.vertices[0])


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


# (genus, refinement, ring sites); genus 1 needs refinement >= 2 and ring
# sites are generated for genus 0 and 1 only
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
    cx = build_standard_surface(g, r, sites)
    qvs = cx.qk_vertices
    if len(qvs) > 60:
        qvs = qvs[::-(-len(qvs) // 6)]
    assert {qv[0] for qv in qvs} == {"c", "m", "v"}
    for sigma0 in qvs:
        assert oracles.kernel_check_B0_rows(cx, sigma0) is True
        assert kernel_check_B0(cx, sigma0) is True


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
        cx = build_standard_surface(g, r)
        chi = face_euler_characteristics(cx, {"Y0": set(cx.quarters)})
        assert chi == {"Y0": 2 - 2 * g}


def test_region_census_disagreement_raises():
    cx = build_standard_surface(0, 1)
    qid = sorted(cx.quarters)[0]
    # a single quarter is a disk cellwise but its vertex census gives 0
    with pytest.raises(ValueError):
        face_euler_characteristics(cx, {"Y": {qid}})


def test_ring_site_carving_keeps_surface_valid():
    cx = build_standard_surface(0, 3, sites=(2,))
    assert euler(cx) == 2
    assert len(cx.ring_sites) == 1
    info = cx.ring_sites[0]
    assert info["depth"] == 2
    assert ("inner", 0) in cx.faces
    assert all(len(b) == 4 for b in cx.quarters.values())
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
    cx = build_standard_surface(0, 1)
    first = default_sigma0(cx)
    assert first == cx.qk_vertices[0]
    second = default_sigma0(cx, excluded=[first])
    assert second == cx.qk_vertices[1]


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
