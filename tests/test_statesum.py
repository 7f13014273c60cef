"""Tests for the ribbon link state sums and their embedded realizations."""

import copy
import importlib.util
import json
import math
import random
import re
from dataclasses import replace
from fractions import Fraction
from functools import lru_cache
from itertools import product
from pathlib import Path
from types import MappingProxyType

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import oracles
from corpus import chain, corpus_links
from numpy_models import covariance_vanishing_check
from oracles import (coboundary, face_weights, polygon_fan_cells,
                     project_to_K)
from shadow_wlo import cli
from shadow_wlo import complex as complex_module
from shadow_wlo import statesum as ss
from shadow_wlo.complex import (RibbonStep, SurfaceComplex,
                                build_standard_surface, hodge_star_signs,
                                kernel_check_B0)
from shadow_wlo.lie import (_dual, is_regular, lattice_points_in_scaled_box,
                            level_labels, lie_data, quantum_dim,
                            sine_product, weight_multiplicities)

A1 = lie_data("A1")
A2 = lie_data("A2")

ROOT = Path(__file__).resolve().parent.parent
CONFIGS = ROOT / "configs"


@pytest.fixture(scope="module")
def corpus():
    return corpus_links()


def _by_name(corpus, name):
    return next(e for e in corpus if e.name == name)


def _lie(entry):
    return lie_data(entry.series)


# ---------------------------------------------------------------------------
# nesting forest structure


def test_face_chi_chain():
    link = chain(0, (((1,), 1, 1), ((1,), 1, 1), ((1,), 1, 1)))
    assert ss.face_chi(link) == (1, 0, 0, 1)


def test_face_chi_two_children():
    ribbons = (ss.ColoredRibbon((1,), 1, 1, 0), ss.ColoredRibbon((1,), 1, 1, 0))
    link = ss.RibbonLink(0, ribbons)
    assert ss.face_chi(link) == (0, 1, 1)


def test_face_chi_torus_base():
    link = chain(1, (((1,), 1, 1),))
    assert ss.face_chi(link) == (-1, 1)


def test_face_chi_sums_to_surface_characteristic(corpus):
    for ent in corpus:
        assert sum(ss.face_chi(ent.link)) == 2 - 2 * ent.link.genus


def test_parent_cycle_rejected():
    ribbons = (ss.ColoredRibbon((1,), 1, 1, 2), ss.ColoredRibbon((1,), 1, 1, 1))
    with pytest.raises(ValueError, match="ribbon 0: parent 2 closes a cycle"):
        ss.face_chi(ss.RibbonLink(0, ribbons))
    with pytest.raises(ValueError, match="ribbon 0: parent 1 closes a cycle"):
        ss.face_chi(ss.RibbonLink(0, ribbons[1:]))


def test_bad_parent_rejected():
    with pytest.raises(ValueError, match="parent"):
        ss.face_chi(ss.RibbonLink(0, (ss.ColoredRibbon((1,), 1, 1, 5),)))


def test_bad_orientation_rejected():
    with pytest.raises(ValueError, match="orientation"):
        ss.face_chi(ss.RibbonLink(0, (ss.ColoredRibbon((1,), 1, 2, 0),)))


def test_face_weights_nested_support():
    """The potential of a nested ribbon is supported strictly inside it."""
    link = chain(0, (((1,), 1, 1), ((1,), 1, -1), ((1,), 1, 1)))
    table = face_weights(link)
    assert table[0] == (0, 1, 1, 1)
    assert table[1] == (0, 0, -1, -1)
    assert table[2] == (0, 0, 0, 1)


def test_face_weight_vectors_distinct(corpus):
    for ent in corpus:
        m = len(ent.link.ribbons)
        table = face_weights(ent.link)
        vecs = {tuple(table[i][j] for i in range(m)) for j in range(m + 1)}
        assert len(vecs) == m + 1


# ---------------------------------------------------------------------------
# gleams


def test_gleam_empty_link_is_zero():
    assert ss._forest(ss.RibbonLink(0)).gleam == (0,)
    assert ss._forest(ss.RibbonLink(1)).gleam == (0,)


def test_gleam_single_ribbon_sphere():
    link = chain(0, (((1,), 1, 1),))
    assert ss._forest(link).gleam == (-1, 1)


def test_gleam_flips_with_orientation_and_winding():
    link = chain(0, (((1,), -2, -1),))
    assert ss._forest(link).gleam == (-2, 2)


def test_gleam_two_nested_middle_face():
    # the annulus face sees ribbon 1 from inside and ribbon 2 from outside
    for s1 in (1, -1):
        for s2 in (1, -1):
            link = chain(0, (((1,), 1, s1), ((1,), 1, s2)))
            assert ss._forest(link).gleam[1] == s1 - s2
    link = chain(0, (((1,), 1, 1), ((1,), 1, 1)))
    assert ss._forest(link).gleam[2] == 1


def test_gleams_sum_to_zero(corpus):
    for ent in corpus:
        assert sum(ss._forest(ent.link).gleam) == 0


def test_gleam_matches_tracing_oracle(corpus):
    """Left-face tracing on the embedded complex reproduces every gleam."""
    for ent in corpus:
        emb = ent.embedded
        if not emb.ribbons:
            continue
        faces = ss._EmbeddedFaces(emb)
        loops = [(rib.winding,
                  [d for st in rib.steps for d in st.l_sigma],
                  [d for st in rib.steps for d in st.lp_sigma])
                 for rib in emb.ribbons]
        oracle = dict(oracles.traced_gleams(emb.complex, loops))
        gleam = ss._forest(emb).gleam
        names = emb.complex.quarter_names
        for j, comp in enumerate(faces.regions):
            assert oracle[frozenset(names[q] for q in comp)] == gleam[j], \
                (ent.name, j)


@st.composite
def _random_nesting(draw):
    """A random forest of up to 6 ribbons, faces relabelled at random."""
    m = draw(st.integers(0, 6))
    label = [0] + draw(st.permutations(range(1, m + 1)))
    ribbons = [None] * m
    for face in range(1, m + 1):
        ribbons[label[face] - 1] = ss.ColoredRibbon(
            (1,), draw(st.integers(-3, 3)), draw(st.sampled_from((1, -1))),
            label[draw(st.integers(0, face - 1))])
    return ss.RibbonLink(draw(st.integers(0, 2)), tuple(ribbons))


@settings(max_examples=60, deadline=None)
@given(_random_nesting())
def test_forest_record_matches_per_face_recomputation(link):
    forest = ss._forest(link)
    ribbons = link.ribbons
    m = len(ribbons)
    assert forest.parent == (-1,) + tuple(r.parent for r in ribbons)
    assert sorted(forest.order) == list(range(1, m + 1))
    where = {c: n for n, c in enumerate(forest.order)}
    for c in forest.order:
        if forest.parent[c]:
            assert where[c] < where[forest.parent[c]]
    for j in range(m + 1):
        kids = sum(1 for r in ribbons if r.parent == j)
        assert forest.chi[j] == (2 - 2 * link.genus if j == 0 else 1) - kids
        assert forest.gleam[j] == sum(
            r.winding * r.orientation * ((i + 1 == j) - (r.parent == j))
            for i, r in enumerate(ribbons))
    assert ss.face_chi(link) == forest.chi


@pytest.mark.parametrize("ribbons, message", [
    (((1, 1, 5),), "ribbon 0: invalid parent face 5"),
    (((1, 1, 0), (1, 1, -1)), "ribbon 1: invalid parent face -1"),
    (((1, 2, 0),), "ribbon 0: orientation must be +-1"),
    (((1.5, 1, 0),), "ribbon 0: winding must be an integer"),
    (((1, 1, 2), (1, 1, 1)),
     "ribbon 0: parent 2 closes a cycle in the nesting relation"),
    (((1, 1, 0), (1, 1, 2)),
     "ribbon 1: parent 2 closes a cycle in the nesting relation"),
    # integral floats are refused too: the sums index phase tables by them
    (((1.0, 1, 0),), "ribbon 0: winding must be an integer"),
    (((1, 1.0, 0),), "ribbon 0: orientation must be +-1"),
    (((1, -1.0, 0),), "ribbon 0: orientation must be +-1"),
    # parents follow the same rule, and True reads as the integer 1
    (((1, 1, 1.0),), "ribbon 0: invalid parent face 1.0"),
    (((1, 1, True),),
     "ribbon 0: parent 1 closes a cycle in the nesting relation"),
])
def test_forest_errors(ribbons, message):
    link = ss.RibbonLink(0, tuple(ss.ColoredRibbon((1,), w, o, p)
                                  for w, o, p in ribbons))
    for derive in (ss._forest, ss.face_chi, face_weights,
                   ss.validate_link):
        with pytest.raises(ValueError, match="^" + re.escape(message) + "$"):
            derive(link)


@pytest.mark.parametrize("genus", [0.5, 1.0, -1])
def test_forest_refuses_a_non_integer_or_negative_genus(genus):
    # 0.5 gave chi = 1.0 and a false mismatch, -1 a base-face chi of 4
    link = ss.RibbonLink(genus, (ss.ColoredRibbon((1,), 1),))
    message = f"genus must be a non-negative integer, not {genus!r}"
    for derive in (ss._forest, ss.face_chi, face_weights, ss.validate_link,
                   ss.embed_link,
                   lambda lk: ss.compare_theorem(A1, 4, lk)):
        with pytest.raises(ValueError, match="^" + re.escape(message) + "$"):
            derive(link)


def test_forest_reads_integer_parents():
    # an integer type that is not int names a face like the int it equals
    ribbons = (ss.ColoredRibbon((1,), 1, 1, np.int64(0)),
               ss.ColoredRibbon((1,), np.int64(2), 1, np.int64(1)))
    forest = ss._forest(ss.RibbonLink(0, ribbons))
    assert forest.parent == (-1, 0, 1)
    assert {type(p) for p in forest.parent} == {int}
    assert forest == ss._forest(chain(0, (((1,), 1, 1), ((1,), 2, 1))))


# ---------------------------------------------------------------------------
# embedded potentials


def test_disk_ribbon_potential_inner_one(corpus):
    """A single embedded ribbon has potential 1 inside, 0 outside."""
    emb = _by_name(corpus, "a1_g0_one_k4").embedded
    cx = emb.complex
    faces = ss._EmbeddedFaces(emb)
    f = faces.potentials[0]
    assert f[faces.sigma0] == 0
    assert set(f) == {0, 1}
    assert f[cx.qk_vertex_ids[("c", ("inner", 0))]] == 1
    base = next(fid for fid in sorted(cx.faces)
                if fid[0] not in ("inner", "trap"))
    assert f[cx.qk_vertex_ids[("c", base)]] == 0


def test_downward_ribbon_potential(corpus):
    emb = _by_name(corpus, "a1_g0_one_heavy_k3").embedded
    faces = ss._EmbeddedFaces(emb)
    f = faces.potentials[0]
    assert f[faces.sigma0] == 0
    assert set(f) == {0, -1}
    assert f[emb.complex.qk_vertex_ids[("c", ("inner", 0))]] == -1


def test_nested_potential_supported_innermost(corpus):
    emb = _by_name(corpus, "a1_g0_three_k4").embedded
    faces = ss._EmbeddedFaces(emb)
    table = face_weights(emb)
    for i in range(3):
        for j, comp in enumerate(faces.regions):
            rep = min(w for q in comp
                      for w in emb.complex.quarter_corner_ids[q])
            assert faces.potentials[i][rep] == table[i][j]


def test_potential_unique_up_to_constant(corpus):
    """The defining linear system pins the potential modulo constants.

    Solving star(projected differential) = half-sum chain together with
    tetragon affinity by exact elimination gives a one parameter family,
    and the constructed potential is the member vanishing at the basepoint.
    """
    emb = _by_name(corpus, "a1_g0_one_k4").embedded
    cx = emb.complex
    faces = ss._EmbeddedFaces(emb)
    index = {qv: i for i, qv in enumerate(cx.qk_vertices)}
    nedges = len(cx.edges)
    # both sides in quarter units: four times the defining system, one
    # row per edge position and side
    rows = [dict() for _ in range(2 * nedges)]
    for col in index.values():
        ind = [int(w == col) for w in range(len(cx.qk_vertices))]
        primal, dual = ss._star_projected_differential(cx, ind)
        for i in range(nedges):
            if primal[i]:
                rows[i][col] = primal[i]
            if dual[i]:
                rows[nedges + i][col] = dual[i]
    target_primal, target_dual = ss._half_sum_chain(cx, faces.arcs[0])
    rhs = target_primal + target_dual
    # membership in B0: tetragon affinity and constancy on the closed star
    # of the basepoint
    b0 = oracles._b0_rows(cx, cx.qk_vertices[faces.sigma0], index)
    rows += b0
    rhs += [Fraction(0)] * len(b0)
    _, _, sol, null = oracles.rational_rref_dense(rows, len(cx.qk_vertices),
                                                  rhs)
    assert sol is not None
    assert len(null) == 1
    assert len(set(null[0])) == 1
    f = faces.potentials[0]
    assert len({val - x for val, x in zip(f, sol)}) == 1


def test_antiparallel_loops_rejected(corpus):
    """Reversing one boundary loop breaks the defining equation."""
    emb = _by_name(corpus, "a1_g0_one_k4").embedded
    rib = emb.ribbons[0]
    sigma = [st for st in rib.steps if not st.dt][0]
    flipped = tuple((qe, -s) for qe, s in reversed(sigma.lp_sigma))
    steps = (RibbonStep(t=0, l_sigma=sigma.l_sigma, lp_sigma=flipped),) + \
        tuple(st for st in rib.steps if st.dt)
    bad = ss.ColoredRibbon(rib.color, rib.winding, rib.orientation,
                           rib.parent, steps)
    with pytest.raises(ValueError, match="no unit-jump potential"):
        ss.validate_link(replace(emb, ribbons=(bad,)))


@pytest.mark.parametrize("g,r,sites", [(0, 1, (2,)), (1, 3, ()),
                                       (2, 2, ())])
def test_integer_image_is_four_times_projected_image(g, r, sites):
    """The quarter-unit image is 4 star(project_to_K(coboundary f))."""
    # build_standard_surface stops at genus 1; genus 2 is the oracles' fan
    cx = (build_standard_surface(g, r, sites) if g < 2
          else SurfaceComplex(g, *polygon_fan_cells(g, r)))
    rng = random.Random(f"{g}-{r}-{sites}")
    s1, s2 = hodge_star_signs["K1"], hodge_star_signs["K2"]
    for _ in range(20):
        f = {qv: rng.randint(-9, 9) for qv in cx.qk_vertices}
        x, y = project_to_K(cx, coboundary(cx, f))
        primal, dual = ss._star_projected_differential(
            cx, [f[qv] for qv in cx.qk_vertices])
        assert primal == [4 * s2 * y[e] for e in cx.edges]
        assert dual == [4 * s1 * x[e] for e in cx.edges]
        assert {type(v) for v in (*primal, *dual)} == {int}


def test_flipped_target_dart_rejected(monkeypatch):
    """One dart of the target with its sign flipped has no potential."""
    half_sum = ss._half_sum_chain

    def flipped(cx, arcs):
        primal, dual = half_sum(cx, arcs)
        e, sgn = arcs.l_darts[0]
        i, k = divmod(e, 4)
        side = primal if k < 2 else dual
        side[i] -= 2 * sgn
        return primal, dual

    monkeypatch.setattr(ss, "_half_sum_chain", flipped)
    link = chain(0, (((1,), 1, 1),))
    with pytest.raises(ValueError, match="no unit-jump potential"):
        ss.embed_link(link)


def test_validation_builds_no_fraction(corpus, monkeypatch):
    """The embedded validation runs in integers, potential check included."""
    def refuse(*args):
        raise AssertionError("Fraction built during validation")

    # neither statesum nor complex binds Fraction; refusing its
    # construction also catches one built through any other module
    assert not hasattr(ss, "Fraction")
    assert not hasattr(complex_module, "Fraction")
    monkeypatch.setattr(Fraction, "__new__", refuse)
    for ent in corpus:
        ss.validate_link(ent.embedded)


def test_validation_builds_quarter_sides_once(corpus, monkeypatch):
    # strips, strip complements, potentials and regions share one table:
    # the quarter_side_ids the surface builds at construction
    emb = _by_name(corpus, "a1_g0_three_k4").embedded
    sides = emb.complex.quarter_side_ids
    built = []

    class Counted(complex_module.SurfaceComplex):
        def __init__(self, genus, *args):
            built.append(genus)
            super().__init__(genus, *args)

    monkeypatch.setattr(complex_module, "SurfaceComplex", Counted)
    monkeypatch.setattr(complex_module, "_standard_surface", lru_cache(
        maxsize=None)(complex_module._standard_surface.__wrapped__))
    ss.validate_link(emb)
    assert built == []
    assert emb.complex.quarter_side_ids is sides


# ---------------------------------------------------------------------------
# embedded validation


def test_corpus_embeddings_validate(corpus):
    for ent in corpus:
        ss.validate_link(ent.embedded)


@pytest.mark.parametrize("n", [2.5, Fraction(5, 2), 2.0])
def test_non_integer_time_slice_count_refused(corpus, n):
    # a winding-0 ribbon has no time steps, so no other check reads n
    emb = _by_name(corpus, "a1_g0_one_flat_k4").embedded
    message = f"time slice count n must be an integer, not {n!r}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        ss.validate_link(replace(emb, n=n))


def test_shared_surfaces_are_never_written(corpus):
    """No table of a cached surface changes while every consumer runs."""
    surfaces = {id(ent.embedded.complex): ent.embedded.complex
                for ent in corpus}
    for args in ((1, 3, ()), (0, 1, (2,)), (1, 4, ()), (0, 1, ()),
                 (1, 2, (1,))):
        cx = build_standard_surface(*args)
        surfaces[id(cx)] = cx
    before = {key: copy.deepcopy(vars(cx)) for key, cx in surfaces.items()}
    for ent in corpus:
        ss.validate_link(ent.embedded)
        assert ss.embed_link(ent.link).complex is ent.embedded.complex
    for cx in surfaces.values():
        assert kernel_check_B0(cx)
        assert kernel_check_B0(cx, cx.qk_vertices[-1])
        coboundary(cx, {qv: i for i, qv in enumerate(cx.qk_vertices)})
    assert all(row["pass"] for row in cli.selfcheck().values())
    for key, cx in surfaces.items():
        assert copy.deepcopy(vars(cx)) == before[key]


def test_kernel_check_on_corpus_complexes(corpus):
    seen = set()
    for ent in corpus:
        key = (ent.link.genus, len(ent.link.ribbons))
        if key in seen:
            continue
        seen.add(key)
        assert kernel_check_B0(ent.embedded.complex)


def test_orientation_disagreement_detected(corpus):
    emb = _by_name(corpus, "a1_g0_one_k4").embedded
    rib = emb.ribbons[0]
    flipped = ss.ColoredRibbon(rib.color, rib.winding, -rib.orientation,
                               rib.parent, rib.steps)
    bad = ss.RibbonLink(emb.genus, (flipped,), complex=emb.complex, n=emb.n)
    with pytest.raises(ValueError, match="disagrees with declared"):
        ss.validate_link(bad)


def test_winding_disagreement_detected(corpus):
    emb = _by_name(corpus, "a1_g0_one_k4").embedded
    rib = emb.ribbons[0]
    bad_rib = ss.ColoredRibbon(rib.color, rib.winding + 1, rib.orientation,
                               rib.parent, rib.steps)
    bad = ss.RibbonLink(emb.genus, (bad_rib,), complex=emb.complex, n=emb.n)
    with pytest.raises(ValueError, match="winding"):
        ss.validate_link(bad)


def test_crossing_ribbons_detected(corpus):
    # two ribbons on the same ring share every arc vertex
    emb = _by_name(corpus, "a1_g0_one_k4").embedded
    rib = emb.ribbons[0]
    twin = ss.ColoredRibbon(rib.color, rib.winding, rib.orientation, 1,
                            rib.steps)
    bad = ss.RibbonLink(emb.genus, (rib, twin), complex=emb.complex, n=emb.n)
    with pytest.raises(ValueError, match="non-crossing|intersect"):
        ss.validate_link(bad)


def test_broken_chain_detected(corpus):
    emb = _by_name(corpus, "a1_g0_one_k4").embedded
    rib = emb.ribbons[0]
    sigma = [st for st in rib.steps if not st.dt][0]
    steps = (RibbonStep(t=0, l_sigma=sigma.l_sigma[:-1],
                        lp_sigma=sigma.lp_sigma),) + \
        tuple(st for st in rib.steps if st.dt)
    bad_rib = ss.ColoredRibbon(rib.color, rib.winding, rib.orientation,
                               rib.parent, steps)
    bad = ss.RibbonLink(emb.genus, (bad_rib,), complex=emb.complex, n=emb.n)
    with pytest.raises(ValueError, match="close|breaks"):
        ss.validate_link(bad)


def test_genus_mismatch_detected(corpus):
    emb = _by_name(corpus, "a1_g0_one_k4").embedded
    bad = ss.RibbonLink(1, emb.ribbons, complex=emb.complex, n=emb.n)
    with pytest.raises(ValueError, match="genus"):
        ss.validate_link(bad)


def test_single_time_slice_rejected(corpus):
    emb = _by_name(corpus, "a1_g0_empty_k4").embedded
    bad = ss.RibbonLink(0, (), complex=emb.complex, n=1)
    with pytest.raises(ValueError, match="time slices"):
        ss.validate_link(bad)


def test_forest_disagreement_detected(corpus):
    """Declaring nested ribbons as siblings contradicts the regions."""
    emb = _by_name(corpus, "a1_g1_two_k5").embedded
    r1, r2 = emb.ribbons
    sib = ss.ColoredRibbon(r2.color, r2.winding, r2.orientation, 0,
                           r2.steps)
    bad = ss.RibbonLink(emb.genus, (r1, sib), complex=emb.complex, n=emb.n)
    with pytest.raises(ValueError, match="nesting forest"):
        ss.validate_link(bad)


def _with_steps(emb, steps):
    """emb with its one ribbon's steps replaced."""
    rib = emb.ribbons[0]
    return replace(emb, ribbons=(replace(rib, steps=tuple(steps)),))


def test_time_steps_off_the_time_circle_detected(corpus):
    # time steps at slice 7 of Z_2 at a vertex the loops never reach
    emb = _by_name(corpus, "a1_g0_one_k4").embedded
    steps = [replace(st, t=7, l_vertex=("v", "nowhere"),
                     lp_vertex=("v", "nowhere")) if st.dt else st
             for st in emb.ribbons[0].steps]
    with pytest.raises(ValueError, match=r"ribbon 0, step 1: time slice 7"
                                         r" is not in Z_2"):
        ss.validate_link(_with_steps(emb, steps))


def test_integral_float_time_step_refused(corpus):
    # dt is read like t: 1.0 is not the integer time step 1
    emb = _by_name(corpus, "a1_g0_one_k4").embedded
    steps = [replace(st, dt=1.0) if st.dt == 1 else st
             for st in emb.ribbons[0].steps]
    assert any(isinstance(st.dt, float) for st in steps)
    with pytest.raises(ValueError, match="^ribbon 0, step 1: a step moves"
                                         " one slice in time"):
        ss.validate_link(_with_steps(emb, steps))


def test_time_steps_out_of_order_detected(corpus):
    # the ring sits at slice 0 and the two time steps at slices 1, 0
    emb = _by_name(corpus, "a1_g0_one_k4").embedded
    ring, up, up2 = emb.ribbons[0].steps
    steps = [ring, replace(up, t=1), replace(up2, t=0)]
    with pytest.raises(ValueError, match="ribbon 0, step 1: starts at slice"
                                         " 1, but the ribbon is at slice 0"):
        ss.validate_link(_with_steps(emb, steps))


@pytest.mark.parametrize("field", ["l_vertex", "lp_vertex"])
def test_time_step_away_from_its_loop_detected(corpus, field):
    emb = _by_name(corpus, "a1_g0_one_k4").embedded
    ring, up, up2 = emb.ribbons[0].steps
    other = next(v for v in emb.complex.qk_vertices
                 if v not in (up.l_vertex, up.lp_vertex))
    steps = [ring, up, replace(up2, **{field: other})]
    with pytest.raises(ValueError, match="ribbon 0, step 2: loop position"):
        ss.validate_link(_with_steps(emb, steps))
    # a space step's positions, when given, are where its chunks start
    steps = [replace(ring, **{field: other}), up, up2]
    with pytest.raises(ValueError, match="ribbon 0, step 0: loop position"):
        ss.validate_link(_with_steps(emb, steps))
    steps = [replace(ring, l_vertex=up.l_vertex, lp_vertex=up.lp_vertex),
             up, up2]
    ss.validate_link(_with_steps(emb, steps))


@pytest.mark.parametrize("field", ["l_vertex", "lp_vertex"])
def test_unhashable_loop_position_refused(corpus, field):
    # a list names no qK vertex: the id lookup reports the position like
    # any other wrong one
    emb = _by_name(corpus, "a1_g0_one_k4").embedded
    ring, up, up2 = emb.ribbons[0].steps
    where = getattr(up2, field)
    steps = [ring, up, replace(up2, **{field: list(where)})]
    message = (f"ribbon 0, step 2: loop position {list(where)!r}, but the"
               f" loop is at {where!r}")
    with pytest.raises(ValueError, match="^" + re.escape(message) + "$"):
        ss.validate_link(_with_steps(emb, steps))


def test_unhashable_chain_edge_refused(corpus):
    emb = _by_name(corpus, "a1_g0_one_k4").embedded
    ring, up, up2 = emb.ribbons[0].steps
    (qe, sgn), *rest = ring.l_sigma
    steps = [replace(ring, l_sigma=((list(qe), sgn), *rest)), up, up2]
    message = f"chain uses unknown edge {list(qe)!r}"
    with pytest.raises(ValueError, match="^" + re.escape(message) + "$"):
        ss.validate_link(_with_steps(emb, steps))


def test_time_steps_of_standard_embeddings_validate():
    """embed_link's time steps sit where its loops are, at every slice."""
    for genus in (0, 1):
        for winding in range(-3, 4):
            for n in range(2, 6):
                link = chain(genus, (((1,), winding, 1),
                                     ((2,), -winding, -1)))
                # embed_link validates the link it returns
                emb = ss.embed_link(link, n=n)
                assert [sum(1 for st in rib.steps if st.dt)
                        for rib in emb.ribbons] == [abs(winding) * n] * 2


def test_embedded_chi_census_matches_forest(corpus):
    for ent in corpus:
        if not ent.embedded.ribbons:
            continue
        faces = ss._EmbeddedFaces(ent.embedded)
        assert faces.chi == ss.face_chi(ent.link)


def test_embed_rejects_non_chain():
    ribbons = (ss.ColoredRibbon((1,), 1, 1, 0), ss.ColoredRibbon((1,), 1, 1, 0))
    with pytest.raises(ValueError, match="chain"):
        ss.embed_link(ss.RibbonLink(0, ribbons))


def test_embed_rejects_high_genus():
    with pytest.raises(ValueError, match="genus"):
        ss.embed_link(ss.RibbonLink(2))


@pytest.mark.parametrize("genus", [0, 1])
def test_embedded_chains_realize_every_sign_pattern(genus):
    """The ring direction alone fixes each embedded ribbon's jump."""
    for depth in range(1, 5):
        for signs in product((1, -1), repeat=depth):
            link = chain(genus, tuple(
                ((1,), (1, -1, 2, 0)[i], s) for i, s in enumerate(signs)))
            # embed_link validates the link it returns
            emb = ss.embed_link(link)
            assert tuple(ss._EmbeddedFaces(emb).jumps) == signs


# ---------------------------------------------------------------------------
# holonomy side


def test_wlo_empty_sphere_matches_direct_sum():
    # base points run over integral weights modulo k times the coroot
    # lattice, two weight classes per coroot class, and both classes give
    # the same squared sine sum
    for k in (2, 3, 4, 5, 6):
        want = 2 * sum((2 * math.sin(math.pi * n / k)) ** 2
                       for n in range(1, k))
        got = ss.wlo_unnormalized(A1, k, ss.RibbonLink(0))
        assert got.value.imag == pytest.approx(0, abs=1e-12)
        assert got.value.real == pytest.approx(want, rel=1e-12)


def test_wlo_empty_torus_counts_regular_points():
    for k in (2, 3, 5, 8):
        got = ss.wlo_unnormalized(A1, k, ss.RibbonLink(1))
        assert got.value == pytest.approx(2 * (k - 1), abs=1e-12)
        assert got.terms_total == 2 * k
        assert got.terms_skipped_singular == 2


def test_coset_table_matches_fraction_regularity_and_sines():
    """The integer coset table equals the rational tests of rep/k exactly.

    Regularity and every sine bit agree with is_regular and sine_product
    on rep/k, and index maps each representative's coset key to its
    position.
    """
    for rank, levels in ((1, range(1, 9)), (2, (*range(1, 7), 12)),
                         (3, range(1, 4)), (4, range(1, 3))):
        lie = lie_data(f"A{rank}")
        for k in levels:
            table = ss._coset_table(lie, k)
            assert table.reps == tuple(lattice_points_in_scaled_box(lie, k))
            modulus = (rank + 1) * k
            assert list(table.index) == [oracles.coset_key(lie, modulus, x)
                                         for x in table.reps]
            assert list(table.index.values()) == list(range(len(table.reps)))
            for x, ok, sine in zip(table.reps, table.regular, table.sines):
                b = tuple(Fraction(c, k) for c in x)
                assert ok == is_regular(lie, b)
                want = sine_product(lie, b) if ok else 0.0
                assert sine.hex() == want.hex()


def _shipped_moduli():
    """(r+1)k of every config in configs/ and every benchmark certificate."""
    spec = importlib.util.spec_from_file_location(
        "bench_workloads", ROOT / "bench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    levels = [(item.group, item.level)
              for items in workloads.WORKLOADS.values() for item in items
              if isinstance(item, workloads.Cert)]
    for path in CONFIGS.glob("*.json"):
        cfg = json.loads(path.read_text())
        levels.append((cfg["group"], cfg["level"]))
    return {(lie_data(cli._GROUPS[group.lower()]).rank + 1) * k
            for group, k in levels}


def test_phase_table_matches_fraction_phases_bit_for_bit():
    """Each entry equals _phase at the exact Fraction e/m, to the last bit.

    e/m is a correctly rounded float division, the same rounding as the
    Fraction's float(), and e/m < 2 needs no reduction.
    """
    moduli = _shipped_moduli()
    assert moduli
    for m in sorted(moduli | set(range(1, 61))):
        table = ss._phase_table(m)
        assert len(table) == 2 * m
        for e, z in enumerate(table):
            want = ss._phase(Fraction(e, m))
            assert (z.real.hex(), z.imag.hex()) == \
                (want.real.hex(), want.imag.hex())


def test_wlo_below_coxeter_flagged():
    res = ss.wlo_unnormalized(A2, 2, ss.RibbonLink(0))
    assert res.value == 0
    assert res.flag == "empty label set"
    assert ss.wlo_unnormalized(A1, 1, ss.RibbonLink(0)).flag == \
        "empty label set"


def test_wlo_term_census(corpus):
    ent = _by_name(corpus, "a1_g0_two_k5")
    res = ss.wlo_unnormalized(A1, 5, ent.link)
    _, total, skipped, terms = oracles.wlo_terms_keyed(
        A1, 5, ent.link, ss._forest(ent.link))
    assert (res.terms_total, res.terms_skipped_singular) == (total, skipped)
    assert len(terms) == res.terms_total - res.terms_skipped_singular
    supports = 1
    for rib in ent.link.ribbons:
        supports *= len(weight_multiplicities(A1, rib.color))
    assert res.terms_total == \
        len(lattice_points_in_scaled_box(A1, 5)) * supports
    for term in terms:
        assert 0 <= term.phase < 2
        for b in term.holonomies:
            assert is_regular(A1, b)


def test_wlo_terms_periodic_under_scaled_coroot_shift(corpus):
    """Shifting the base point by k times a coroot fixes every term value."""
    ent = _by_name(corpus, "a2_g0_one_k4")
    lie = _lie(ent)
    k = ent.level
    seen_nonzero = False
    for base in lattice_points_in_scaled_box(lie, k):
        shifted = tuple(b + k * c
                        for b, c in zip(base, lie.simple_roots[0]))
        val_a, _, skip_a, _ = oracles.wlo_terms_fraction(lie, k, ent.link,
                                                         [base])
        val_b, _, skip_b, _ = oracles.wlo_terms_fraction(lie, k, ent.link,
                                                         [shifted])
        assert skip_a == skip_b
        assert val_a == pytest.approx(val_b, abs=1e-12)
        seen_nonzero = seen_nonzero or abs(val_a) > 1e-6
    assert seen_nonzero


def _branching_forest():
    # siblings under the base face (ribbons 0, 3) and under face 1
    # (ribbons 1, 2), the shape of the forest benchmark's A2 link
    ribbons = tuple(ss.ColoredRibbon(color, winding, sign, parent)
                    for color, winding, sign, parent in (
                        ((1, 0), 1, 1, 0), ((0, 1), -2, -1, 1),
                        ((1, 0), 2, 1, 1), ((0, 1), 0, -1, 0)))
    return ss.RibbonLink(0, ribbons)


def test_recorded_terms_match_fraction_oracle(corpus):
    """The coset-key walk reproduces the frozen Fraction enumerator.

    Same terms in the same order; the contraction has the same census,
    and its value agrees to 1e-10.
    """
    cases = [(_lie(ent), ent.level, ent.link) for ent in corpus]
    cases.append((A2, 5, _branching_forest()))
    for lie, k, link in cases:
        got = ss.wlo_unnormalized(lie, k, link)
        value, total, skipped, terms = oracles.wlo_terms_fraction(lie, k,
                                                                  link)
        assert oracles.wlo_terms_keyed(lie, k, link, ss._forest(link))[3] \
            == terms
        assert got.terms_total == total
        assert got.terms_skipped_singular == skipped
        assert abs(got.value - value) <= 1e-10 * max(1.0, abs(value))


# ---------------------------------------------------------------------------
# shadow side


def test_shadow_empty_sphere_baselines():
    assert abs(ss.shadow_invariant(A1, 3, ss.RibbonLink(0)).value - 2) \
        <= 1e-12
    assert abs(ss.shadow_invariant(A1, 4, ss.RibbonLink(0)).value - 4) \
        <= 1e-12
    # and in general the sum of squared quantum dimensions
    for k in (5, 6, 7):
        want = sum(quantum_dim(A1, k, lam) ** 2 for lam in level_labels(A1, k))
        got = ss.shadow_invariant(A1, k, ss.RibbonLink(0)).value
        assert abs(got - want) <= 1e-12


def test_shadow_empty_torus_counts_labels():
    for k in range(2, 9):
        got = ss.shadow_invariant(A1, k, ss.RibbonLink(1)).value
        assert abs(got - (k - 1)) <= 1e-12


def test_shadow_empty_positive(corpus):
    # the empty-link normalization is a positive real at admissible levels
    for series, lie in (("A1", A1), ("A2", A2)):
        for genus in (0, 1):
            for k in range(lie.dual_coxeter, lie.dual_coxeter + 5):
                val = ss.shadow_invariant(lie, k, ss.RibbonLink(genus)).value
                assert abs(val.imag) <= 1e-12
                assert val.real > 0


def test_shadow_below_coxeter_flagged():
    res = ss.shadow_invariant(A2, 2, ss.RibbonLink(0))
    assert res.value == 0
    assert res.flag == "empty label set"


def test_shadow_term_count(corpus):
    ent = _by_name(corpus, "a1_g0_two_k5")
    res = ss.shadow_invariant(A1, 5, ent.link)
    assert res.terms_total == len(level_labels(A1, 5)) ** 3


def test_level_labels_enumerate_bounded_dominant_weights():
    """Admissible labels: dominant weights of level at most k - cg."""
    for k in range(2, 9):
        want = {(a,) for a in range(k - 1)}
        assert set(level_labels(A1, k)) == want
    for k in range(3, 10):
        want = {(a, b) for a in range(k - 2) for b in range(k - 2)
                if a + b <= k - 3}
        assert set(level_labels(A2, k)) == want


def test_color_weight_supports_lie_in_the_root_lattice_shift(corpus):
    # every weight of a color differs from the color by a root lattice
    # element, so the support stays in one coset
    for ent in corpus:
        lie = _lie(ent)
        for rib in ent.link.ribbons:
            for beta in weight_multiplicities(lie, rib.color):
                diff = tuple(b - c for b, c in zip(beta, rib.color))
                coords = oracles.coroot_coordinates(lie, diff)
                assert all(c.denominator == 1 for c in coords)


# ---------------------------------------------------------------------------
# forest contraction against explicit enumeration


def _assert_same_sum(contracted, explicit):
    assert contracted.terms_total == explicit.terms_total
    assert contracted.terms_skipped_singular == \
        explicit.terms_skipped_singular
    assert abs(contracted.value - explicit.value) <= \
        1e-10 * max(1.0, abs(explicit.value))


def _assert_contraction_matches(lie, k, link, embedded=None):
    """Both contracted sums against their explicit enumerations.

    The oracles wlo_terms_keyed and shadow_terms enumerate every
    holonomy term and every face coloring; the plain calls contract over
    the forest.
    """
    explicit = ss.StateSumResult(
        *oracles.wlo_terms_keyed(lie, k, link, ss._forest(link))[:3])
    _assert_same_sum(ss.wlo_unnormalized(lie, k, link), explicit)
    if embedded is not None:
        ss.validate_link(embedded)
        _assert_same_sum(ss.wlo_unnormalized(lie, k, embedded), explicit)
    colorings = oracles.shadow_terms(lie, k, link)
    _assert_same_sum(ss.shadow_invariant(lie, k, link),
                     ss.StateSumResult(
                         ss._fsum(colorings.values()),
                         len(colorings), 0))


def test_contraction_equals_explicit_enumeration_on_corpus(corpus):
    for ent in corpus:
        _assert_contraction_matches(_lie(ent), ent.level, ent.link,
                                    ent.embedded)


def _support_size(lie, color):
    return len(weight_multiplicities(lie, color))


@st.composite
def _forests(draw):
    """A random nesting forest whose explicit sums stay small.

    Ribbon faces are drawn as a tree in which every face hangs below an
    earlier one, so siblings under the base face and under inner faces
    both occur, and then relabelled by a random permutation so that
    parents may carry larger indices than their children.
    """
    lie = draw(st.sampled_from((A1, A2)))
    k = draw(st.integers(lie.dual_coxeter, 6 if lie.rank == 1 else 5))
    genus = draw(st.integers(0, 1))
    m = draw(st.integers(1, 4))
    colors = ([(0,), (1,), (2,), (3,)] if lie.rank == 1 else
              [(0, 0), (1, 0), (0, 1), (1, 1), (2, 0)])
    # bound the explicit holonomy enumeration to a few thousand terms
    budget = 4000 // len(lattice_points_in_scaled_box(lie, k))
    label = [0] + draw(st.permutations(range(1, m + 1)))
    ribbons = [None] * m
    for face in range(1, m + 1):
        color = draw(st.sampled_from(
            [c for c in colors if _support_size(lie, c) <= budget]))
        budget //= _support_size(lie, color)
        parent = draw(st.integers(0, face - 1))
        ribbons[label[face] - 1] = ss.ColoredRibbon(
            color, draw(st.integers(-2, 2)), draw(st.sampled_from((1, -1))),
            label[parent])
    return lie, k, ss.RibbonLink(genus, tuple(ribbons))


@settings(max_examples=25, deadline=None)
@given(_forests())
def test_contraction_equals_explicit_enumeration_on_random_forests(case):
    lie, k, link = case
    _assert_contraction_matches(lie, k, link)


def test_contraction_on_a_branching_forest():
    link = _branching_forest()
    assert ss.face_chi(link) == (0, -1, 1, 1, 1)
    _assert_contraction_matches(A2, 5, link)


# ---------------------------------------------------------------------------
# the contraction on shift tables against the keyed contraction


def _assert_keyed_contraction_equal(lie, k, link):
    """The shift-table contraction equals its keyed oracle bit for bit,
    value and census."""
    forest = ss._forest(link)
    got = ss._wlo_contract(lie, k, link, forest)
    want = oracles.wlo_contract_keyed(lie, k, link, forest)
    assert got.value == want.value
    assert got.terms_total == want.terms_total
    assert got.terms_skipped_singular == want.terms_skipped_singular


def test_shift_table_contraction_equals_keyed_on_corpus(corpus):
    for ent in corpus:
        _assert_keyed_contraction_equal(_lie(ent), ent.level, ent.link)


def test_shift_table_contraction_equals_keyed_on_benchmark_shapes():
    # the forest benchmark's A2 k=5 branching forest and A1 k=10 chain, and
    # the fusion benchmark's A2 k=7 genus-1 chain, over windings and signs
    _assert_keyed_contraction_equal(A2, 5, _branching_forest())
    for (w1, s1), (w2, s2) in product(product((-2, 1), (1, -1)), repeat=2):
        _assert_keyed_contraction_equal(A1, 10, chain(0, (
            ((1,), w1, s1), ((2,), w2, s2), ((1,), w2, s1), ((2,), w1, s2))))
        _assert_keyed_contraction_equal(A2, 7, chain(1, (
            ((1, 0), w1, s1), ((0, 1), w2, s2))))


@st.composite
def _keyed_links(draw):
    """A1 or A2 at k 2..8, genus 0..2, up to three nested ribbons."""
    lie = draw(st.sampled_from((A1, A2)))
    k = draw(st.integers(2, 8))
    colors = ([(0,), (1,), (2,), (3,)] if lie.rank == 1 else
              [(0, 0), (1, 0), (0, 1), (1, 1), (2, 0), (0, 2)])
    m = draw(st.integers(0, 3))
    label = [0] + draw(st.permutations(range(1, m + 1)))
    ribbons = [None] * m
    for face in range(1, m + 1):
        ribbons[label[face] - 1] = ss.ColoredRibbon(
            draw(st.sampled_from(colors)), draw(st.integers(-3, 3)),
            draw(st.sampled_from((1, -1))),
            label[draw(st.integers(0, face - 1))])
    return lie, k, ss.RibbonLink(draw(st.integers(0, 2)), tuple(ribbons))


@settings(max_examples=60, deadline=None)
@given(_keyed_links())
def test_shift_table_contraction_equals_keyed_on_random_links(case):
    _assert_keyed_contraction_equal(*case)


def test_shift_tables_are_exact():
    """Each shift table entry against the coset key and the Gram pairing.

    For every live representative x and every step +-alpha, alpha in the
    support of a color of level at most 2: the shifted position is the
    index of x + step's coset key, and the exponent is congruent to
    (r+1)(2<step, x> + <step, step>) mod 2(r+1)k.
    """
    for lie, colors in ((A1, [(0,), (1,), (2,)]),
                        (A2, [(0, 0), (1, 0), (0, 1), (2, 0), (1, 1),
                              (0, 2)])):
        steps = {tuple(o * a for a in alpha)
                 for color in colors
                 for alpha in weight_multiplicities(lie, color)
                 for o in (1, -1)}
        n = lie.rank + 1
        for k in range(1, 7):
            table = ss._coset_table(lie, k)
            modulus = n * k
            for step in sorted(steps):
                shifted, expo = ss._shift_table(lie, k, step)
                assert len(shifted) == len(expo) == len(table.live)
                for pos, y, e in zip(table.live, shifted, expo):
                    x = table.reps[pos]
                    moved = tuple(a + b for a, b in zip(x, step))
                    assert y == table.index[oracles.coset_key(lie, modulus,
                                                              moved)]
                    want = n * (2 * oracles.inner(lie, step, x)
                                + oracles.inner(lie, step, step))
                    assert 0 <= e < 2 * modulus
                    assert (Fraction(e) - want) % (2 * modulus) == 0


def test_shift_tables_shared_by_dual_steps_and_cached():
    # (1,0) at o=+1 steps by its weights; (0,1) at o=-1 by the negatives
    # of its own, the same three weights
    link = chain(0, (((1, 0), 1, 1), ((0, 1), 2, -1)))
    ss._shift_table.cache_clear()
    ss.wlo_unnormalized(A2, 5, link)
    info = ss._shift_table.cache_info()
    assert (info.misses, info.currsize) == (3, 3)
    ss.wlo_unnormalized(A2, 5, link)
    assert ss._shift_table.cache_info().misses == 3


# ---------------------------------------------------------------------------
# the shadow contraction: orientation -1 reads the dual color


def _dual_twin(link):
    """link with each -1 ribbon replaced by (dual color, -w, +1)."""
    return replace(link, ribbons=tuple(
        r if r.orientation == 1 else
        replace(r, color=tuple(reversed(r.color)), winding=-r.winding,
                orientation=1)
        for r in link.ribbons))


def _assert_shadow_equals_gather(lie, k, link):
    """The contraction equals the frozen gather-loop contraction in repr."""
    forest = ss._forest(link)
    table = ss._label_table(lie, k)
    got = ss._shadow_contract(lie, k, link, forest, table)
    want = oracles.shadow_contract_gather(lie, k, link, forest, table)
    assert repr(got) == repr(want)


def test_shadow_contraction_equals_gather_on_corpus(corpus):
    for ent in corpus:
        _assert_shadow_equals_gather(_lie(ent), ent.level, ent.link)


def test_shadow_contraction_equals_gather_on_benchmark_shapes():
    # the forest benchmark's A2 k=5 branching forest and A1 k=10 chain, and
    # the fusion benchmark's A2 k=7 genus-1 chain: every sign pattern, and
    # every winding of -2..2 on every ribbon
    windings = (-2, -1, 0, 1, 2)
    branching = _branching_forest()
    for shift in range(5):
        w = windings[shift:] + windings[:shift]
        for signs in product((1, -1), repeat=4):
            _assert_shadow_equals_gather(A2, 5, replace(
                branching, ribbons=tuple(
                    replace(r, winding=w[i], orientation=signs[i])
                    for i, r in enumerate(branching.ribbons))))
            _assert_shadow_equals_gather(A1, 10, chain(0, tuple(
                (color, w[i], signs[i])
                for i, color in enumerate(((1,), (2,), (1,), (2,))))))
    for (w1, s1), (w2, s2) in product(product(windings, (1, -1)), repeat=2):
        _assert_shadow_equals_gather(A2, 7, chain(1, (
            ((1, 0), w1, s1), ((0, 1), w2, s2))))


@st.composite
def _shadow_links(draw):
    """A1 or A2 at k 2..8, genus 0..2, up to four ribbons in a random
    forest, with colors up to two levels outside the alcove."""
    lie = draw(st.sampled_from((A1, A2)))
    k = draw(st.integers(2, 8))
    top = max(k - lie.dual_coxeter, 0) + 2
    colors = [c for c in product(range(top + 1), repeat=lie.rank)
              if sum(c) <= top]
    m = draw(st.integers(0, 4))
    label = [0] + draw(st.permutations(range(1, m + 1)))
    ribbons = [None] * m
    for face in range(1, m + 1):
        ribbons[label[face] - 1] = ss.ColoredRibbon(
            draw(st.sampled_from(colors)), draw(st.integers(-3, 3)),
            draw(st.sampled_from((1, -1))),
            label[draw(st.integers(0, face - 1))])
    return lie, k, ss.RibbonLink(draw(st.integers(0, 2)), tuple(ribbons))


@settings(max_examples=80, deadline=None)
@given(_shadow_links())
def test_shadow_contraction_equals_gather_on_random_links(case):
    _assert_shadow_equals_gather(*case)


@settings(max_examples=60, deadline=None)
@given(_shadow_links())
def test_orientation_is_a_dual_color(case):
    """A -1 ribbon sums like its dual-colored twin (-w, +1): the shadow
    sum in repr, the holonomy sum in its census and to 1e-9 relative."""
    lie, k, link = case
    twin = _dual_twin(link)
    assert repr(ss.shadow_invariant(lie, k, link)) == \
        repr(ss.shadow_invariant(lie, k, twin))
    got = ss.wlo_unnormalized(lie, k, link)
    want = ss.wlo_unnormalized(lie, k, twin)
    assert (got.terms_total, got.terms_skipped_singular, got.flag) == \
        (want.terms_total, want.terms_skipped_singular, want.flag)
    assert abs(got.value - want.value) <= 1e-9 * max(1.0, abs(want.value))


def test_fusion_table_of_the_dual_color_is_the_transpose():
    """N_{mu,nu}^lam = N_{mu*,lam}^nu, on the labels and one level beyond."""
    for lie in (A1, A2, lie_data("A3")):
        for k in range(lie.dual_coxeter, 9):
            budget = k - lie.dual_coxeter
            labels = level_labels(lie, k)
            for mu in product(range(budget + 2), repeat=lie.rank):
                if sum(mu) > budget + 1:
                    continue
                rows = ss._fusion_table(lie, k, mu)
                dual = ss._fusion_table(lie, k, _dual(mu))
                for nu in labels:
                    for lam in labels:
                        assert rows[nu].get(lam, 0) == \
                            dual[lam].get(nu, 0), (lie.series, k, mu, nu,
                                                   lam)


# ---------------------------------------------------------------------------
# correctly rounded summation


_parts = st.one_of(
    st.sampled_from((0.0, -0.0)),
    st.builds(lambda mant, exp, sign: sign * mant * 10.0 ** exp,
              st.floats(1.0, 9.99), st.integers(-300, 299),
              st.sampled_from((1.0, -1.0))))


@st.composite
def _summands(draw):
    """Complex and real values from 1e-300 to 1e300 and signed zeros,
    sometimes each met by its negation so that the exact sum is zero."""
    values = draw(st.lists(st.one_of(_parts, st.builds(complex, _parts,
                                                       _parts)),
                           max_size=12))
    if draw(st.booleans()):
        values = draw(st.permutations(values + [-v for v in values]))
    return values


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_fsum_is_correctly_rounded(data):
    # each part is the float nearest the exact rational sum of the parts,
    # so the bits cannot depend on the order of the values
    values = data.draw(_summands())
    got = ss._fsum(values)
    for part in ("real", "imag"):
        exact = sum((Fraction(getattr(v, part)) for v in values), Fraction(0))
        assert repr(getattr(got, part)) == repr(float(exact))
    shuffled = data.draw(st.permutations(values))
    assert repr(ss._fsum(shuffled)) == repr(got)


def test_compensated_sum_cancels_exactly():
    # each part adds +0.0, so zeros of either sign give +0
    assert repr(ss._fsum([-0.0, complex(-0.0, -0.0)])) == "0j"
    assert ss._fsum([1e300, 1.0, -1e300]) == 1.0
    assert ss._fsum([1e-300j, 1e300j, -1e300j]) == 1e-300j


@pytest.mark.parametrize("values", [
    [1e308, 1e308],
    [math.inf, -math.inf],
    [1.0, complex(0.0, math.inf)],
])
def test_fsum_refuses_a_sum_past_the_float_range(values):
    # fsum raises OverflowError, ValueError or returns inf for these; each
    # becomes the refusal the command line reports with exit code 2
    with pytest.raises(ValueError, match="^the state sum overflows a float$"):
        ss._fsum(values)


def test_certificate_beyond_explicit_enumeration():
    """A 12-ribbon chain that no enumeration could evaluate.

    10,628,820 holonomy terms and 9^13 colorings: the comparison finishes
    only if both sums are contracted.  The census is checked against
    closed formulas.  At A1 level k the cosets are the weights x mod 2k and
    x/k is singular iff k divides x; color (2) steps by -2, 0 or 2, so odd
    base weights never meet a wall, and an even base weight 2y walks on
    y mod k with lazy unit steps that must avoid 0 and k/2.
    """
    k, m = 10, 12
    link = chain(0, tuple(((2,), (-1) ** i * (i % 3), (-1) ** (i + 1))
                              for i in range(m)))
    rep = ss.compare_theorem(A1, k, link)
    assert rep.rel_difference < 1e-9
    assert abs(rep.shadow_ratio) > 1.0

    wlo = ss.wlo_unnormalized(A1, k, link)
    assert wlo.terms_total == 2 * k * 3 ** m == 10_628_820
    # lazy walks of m steps on each of the two arcs 1..k/2-1, k/2+1..k-1
    arc = k // 2 - 1
    walks = [1] * arc
    for _ in range(m):
        walks = [sum(walks[j] for j in (i - 1, i, i + 1) if 0 <= j < arc)
                 for i in range(arc)]
    regular = k * 3 ** m + 2 * sum(walks)
    assert wlo.terms_skipped_singular == wlo.terms_total - regular \
        == 4_528_738
    assert ss.shadow_invariant(A1, k, link).terms_total == \
        len(level_labels(A1, k)) ** (m + 1)


def test_certificate_a2_level_9_genus_1_chain():
    """An A2 k=9 genus-1 two-ribbon chain, cold in a fraction of a second.

    With one windowed Kac-Walton sum per coefficient, the cold shadow sum
    of a link of this size took 14.8 s; now each ribbon color costs one
    fusion table.  The ratio (0.375+1.083i) is far from zero, so matching
    values are certified, not rounding noise.
    """
    link = chain(1, (((1, 0), 1, 1), ((0, 1), 1, 1)))
    rep = ss.compare_theorem(A2, 9, link)
    assert rep.rel_difference < 1e-9
    assert abs(rep.shadow_ratio) > 1.0


def test_certificate_a2_level_40_genus_1_chain():
    """The same chain at A2 k=40: 4,800 cosets and 741 labels, cold.

    Filtering a box for the cosets and looking up all 741^2 fusion pairs
    per ribbon took about 7 s; the direct coset enumeration and the
    nonzero fusion rows take well under a second.  The ratio is far from
    zero, so matching values are certified, not rounding noise.
    """
    link = chain(1, (((1, 0), 1, 1), ((0, 1), 1, 1)))
    rep = ss.compare_theorem(A2, 40, link)
    assert rep.rel_difference < 1e-9
    assert rep.shadow_ratio == pytest.approx(2.6449351215785 + 0.8381363072115j,
                                             abs=1e-9)


# ---------------------------------------------------------------------------
# the normalized comparison


def test_theorem_on_representative_links(corpus):
    for name in ("a1_g0_two_k5", "a1_g0_three_k6", "a2_g0_two_k6",
                 "a1_g1_one_k5", "a2_g1_two_k6"):
        ent = _by_name(corpus, name)
        rep = ss.compare_theorem(_lie(ent), ent.level, ent.link)
        assert rep.rel_difference < 1e-9, name


def test_theorem_in_embedded_mode(corpus):
    for name in ("a1_g0_one_k4", "a2_g1_one_k5"):
        ent = _by_name(corpus, name)
        ss.validate_link(ent.embedded)
        rep = ss.compare_theorem(_lie(ent), ent.level, ent.embedded)
        assert rep.rel_difference < 1e-9, name


def test_theorem_below_coxeter_rejected():
    with pytest.raises(ValueError, match="dual Coxeter"):
        ss.compare_theorem(A2, 2, ss.RibbonLink(0))


def test_non_integer_level_and_color_are_refused():
    link = chain(0, [((1,), 1, 1)])
    bad_color = chain(0, [((1.7,), 1, 1)])
    for evaluate in (ss.wlo_unnormalized, ss.shadow_invariant,
                     ss.compare_theorem):
        with pytest.raises(ValueError, match="level must be an integer"):
            evaluate(A1, 4.9, link)
        with pytest.raises(ValueError, match="must be an integer, not 1.7"):
            evaluate(A1, 4, bad_color)
    with pytest.raises(ValueError, match="level must be an integer"):
        ss.step6_identities(A1, 4.0, link)


def test_color_of_the_wrong_length_is_refused():
    link = chain(0, [((1, 0, 5), 1, 1)])
    for evaluate in (ss.wlo_unnormalized, ss.shadow_invariant):
        with pytest.raises(ValueError, match="needs 2 coordinates"):
            evaluate(A2, 5, link)


# ---------------------------------------------------------------------------
# Step 6: the table check, and the per-term transform oracle


def _keyed_terms(lie, k, link):
    return oracles.wlo_terms_keyed(lie, k, link, ss._forest(link))[3]


def test_step6_table_check_agrees_with_per_term_oracle(corpus):
    """The per-coset check passes wherever the per-term transform does.

    Every face of a surviving term is a live coset, so no term's
    determinant residual exceeds the table check's worst one.
    """
    cases = [(_lie(ent), ent.level, ent.link) for ent in corpus]
    cases.append((A2, 5, _branching_forest()))
    for lie, k, link in cases:
        worst, _ = ss.step6_identities(lie, k, link)
        assert worst <= ss._STEP6_TOL
        per_term = [oracles.step6_transform(lie, k, link, term).det_residual
                    for term in _keyed_terms(lie, k, link)]
        assert max(per_term, default=0.0) <= worst


def test_step6_identities_at_a_large_level():
    # 144,666 surviving holonomy terms, too many for the per-term transform
    # in a unit test
    link = chain(1, (((4, 4), 1, 1), ((1, 0), -2, -1)))
    worst, checked = ss.step6_identities(A2, 20, link)
    assert worst <= ss._STEP6_TOL
    assert checked > 0


def test_reduction_table_labels_every_regular_coset():
    for lie, k in ((A1, 6), (A2, 5)):
        table = ss._coset_table(lie, k)
        labels = set(level_labels(lie, k))
        reduction = ss._reduction_table(lie, k)
        assert len(reduction) == len(table.reps)
        for ok, (lam, sign) in zip(table.regular, reduction):
            assert (lam in labels and sign in (1, -1)) if ok else \
                (lam, sign) == (None, 0)


_SELFCHECK_LINK = ss.RibbonLink(0, (ss.ColoredRibbon((2,), 1, 1),))


def _off_label_exponent(orig):
    def table(lie, k):
        t = orig(lie, k)
        if not t.labels:
            return t
        exps = dict(t.exps)
        exps[t.labels[0]] += 1
        return t._replace(exps=MappingProxyType(exps))
    return table


def _off_shift_exponent(orig):
    def shift(lie, k, step):
        shifted, expo = orig(lie, k, step)
        regular = ss._coset_table(lie, k).regular
        expo = list(expo)
        expo[next(i for i, y in enumerate(shifted) if regular[y])] += 1
        return shifted, expo
    return shift


def _zeroed_reduction_sign(orig):
    def reduction(lie, k):
        out = list(orig(lie, k))
        pos = ss._coset_table(lie, k).live[0]
        out[pos] = (out[pos][0], 0)
        return tuple(out)
    return reduction


@pytest.mark.parametrize("name, corrupt", [
    ("_label_table", _off_label_exponent),
    ("_rho_sine_constant", lambda orig: lambda lie, k: 1.01 * orig(lie, k)),
    ("_shift_table", _off_shift_exponent),
    ("_reduction_table", _zeroed_reduction_sign)])
def test_step6_identities_catch_a_corrupted_table(monkeypatch, name,
                                                  corrupt):
    ss.step6_identities(A1, 4, _SELFCHECK_LINK)
    monkeypatch.setattr(ss, name, corrupt(getattr(ss, name)))
    with pytest.raises(ValueError, match=r"^coset \("):
        ss.step6_identities(A1, 4, _SELFCHECK_LINK)


def test_selfcheck_reports_a_corrupted_label_exponent(monkeypatch):
    monkeypatch.setattr(ss, "_label_table",
                        _off_label_exponent(ss._label_table))
    row = cli.selfcheck()["step6_identities"]
    assert row["pass"] is False
    assert row["detail"].startswith("raised ValueError: coset (")


def test_step6_identities_on_all_terms(corpus):
    for name in ("a1_g0_one_top_k6", "a2_g0_one_k4"):
        ent = _by_name(corpus, name)
        lie = _lie(ent)
        labels = set(level_labels(lie, ent.level))
        for term in _keyed_terms(lie, ent.level, ent.link):
            st = oracles.step6_transform(lie, ent.level, ent.link, term)
            assert st.det_residual <= 1e-10
            assert set(st.labels) <= labels
            assert all(s in (1, -1) for s in st.signs)


def test_step6_aggregation_reproduces_shadow_terms(corpus):
    """Grouping holonomy terms by coloring matches the shadow summands.

    The grouped sums add up to the enumerated holonomy sum and equal one
    global constant times the shadow summand of the same coloring,
    including the vanishing ones.
    """
    for name in ("a1_g0_one_top_k6", "a1_g1_two_k5"):
        ent = _by_name(corpus, name)
        lie = _lie(ent)
        agg = oracles.step6_aggregate(lie, ent.level, ent.link)
        total = oracles.wlo_terms_keyed(lie, ent.level, ent.link,
                                        ss._forest(ent.link))[0]
        assert abs(sum(agg.values()) - total) <= 1e-12 * max(1.0, abs(total))
        sterms = oracles.shadow_terms(lie, ent.level, ent.link)
        ratios = []
        for phi, sval in sorted(sterms.items()):
            wval = agg.get(phi, 0j)
            if abs(sval) > 1e-12:
                ratios.append(wval / sval)
            else:
                assert abs(wval) <= 1e-9
        assert ratios
        for r in ratios[1:]:
            assert abs(r - ratios[0]) <= 1e-10 * max(1.0, abs(ratios[0]))


def test_step6_phase_compared_exactly(corpus):
    """The winding phase must equal the gleam phase mod 2, not nearly.

    Adding 2 keeps a term; an offset of 1e-12, invisible to a float
    comparison at the transform's tolerance, is refused.
    """
    ent = _by_name(corpus, "a1_g1_two_k5")
    lie = _lie(ent)
    term = next(t for t in _keyed_terms(lie, ent.level, ent.link) if t.phase)
    oracles.step6_transform(lie, ent.level, ent.link,
                            replace(term, phase=term.phase + 2))
    with pytest.raises(ValueError, match="gleam phase"):
        oracles.step6_transform(lie, ent.level, ent.link,
                                replace(term, phase=term.phase
                                        + Fraction(1, 10 ** 12)))


def test_step6_wall_term_rejected():
    term = oracles.WloTerm((0,), (), 1, ((Fraction(0),),), Fraction(0))
    with pytest.raises(ValueError, match="wall"):
        oracles.step6_transform(A1, 4, ss.RibbonLink(0), term)


def test_step6_holonomy_off_the_lattice_rejected():
    # k times a face holonomy must be an integer weight
    term = oracles.WloTerm((0,), (), 1, ((Fraction(1, 8),),), Fraction(0))
    with pytest.raises(ValueError, match="not in P/4"):
        oracles.step6_transform(A1, 4, ss.RibbonLink(0), term)


# ---------------------------------------------------------------------------
# field covariance on embedded links


def test_covariance_vanishes_on_embedded_links(corpus):
    """Mixed second moments of the two loop families cancel exactly."""
    picks = ("a1_g0_one_k4", "a1_g0_three_k4", "a2_g1_one_k5")
    for name in picks:
        ent = _by_name(corpus, name)
        lie = _lie(ent)
        emb = ent.embedded
        b = (Fraction(1, 3),) if lie.rank == 1 else \
            (Fraction(1, 3), Fraction(1, 7))
        assert is_regular(lie, b)
        B = {("m", e): b for e in emb.complex.edges}
        report = covariance_vanishing_check(lie, emb.complex, emb, B)
        assert report.ok
        assert report.max_abs < 1e-10
