from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from gptdisc import (
    InvalidInputError,
    PolyhedralCone,
    UnsupportedSizeError,
    cone_ge,
    cones_equal,
    dual_cone,
    member_of,
    polygon_model,
)
import gptdisc.cone as cone_module
from gptdisc.lp import feasibility_gap
from gptdisc.polygon import no_measurement_ensemble

from conftest import (
    boxworld_model,
    cross_polytope_model,
    hypercube_model,
    random_polytope_model,
    same_generator_set,
)


def orthant(d=3):
    return PolyhedralCone(d, np.eye(d))


def test_membership_inside_orthant():
    assert member_of(orthant(), np.array([1.0, 2.0, 0.0]))


def test_membership_rejects_small_negative_component():
    assert not member_of(orthant(), np.array([1.0, -1e-3, 0.0]), tol=1e-9)


def test_membership_square_state_cone_contains_mixture():
    model = polygon_model(4)
    assert member_of(model.state_cone, np.array([0.0, 0.0, 1.0]))


def test_membership_dimension_mismatch():
    with pytest.raises(InvalidInputError):
        member_of(orthant(3), np.array([1.0, 2.0]))


def test_generators_deduplicated_up_to_positive_scale():
    cone = PolyhedralCone(2, [[1.0, 0.0], [2.0, 0.0], [0.0, 1.0], [0.0, 0.0]])
    assert cone.n_generators == 2


def _dedupe_reference(rays: np.ndarray) -> np.ndarray:
    """Loop form of the deduplication: keep a nonzero ray unless an earlier kept ray is parallel."""
    kept, units = [], []
    for ray in rays:
        norm = float(np.linalg.norm(ray))
        if norm > 1e-12 and not any(float(ray / norm @ u) >= 1.0 - 1e-12 for u in units):
            kept.append(ray)
            units.append(ray / norm)
    return np.array(kept).reshape(len(kept), rays.shape[1])


@pytest.mark.parametrize("seed", range(10))
def test_generator_deduplication_matches_loop_reference(seed):
    rng = np.random.default_rng(seed)
    rays = rng.normal(size=(12, 4))
    rays = np.vstack([rays, rays[:6] * rng.uniform(0.1, 10.0, size=(6, 1)), np.zeros((2, 4)), -rays[:3]])
    rays = rays[rng.permutation(len(rays))]
    assert np.array_equal(PolyhedralCone(4, rays).generators, _dedupe_reference(rays))


def test_orthant_self_dual():
    dual = dual_cone(orthant())
    assert same_generator_set(dual, orthant(), 1e-9)


def test_square_effect_cone_dualizes_to_state_cone():
    model = polygon_model(4)
    dual = dual_cone(model.effect_cone)
    assert same_generator_set(dual, model.state_cone, 1e-9)
    assert cones_equal(dual, model.state_cone, 1e-9)


def test_triangle_state_cone_dualizes_to_effect_directions():
    model = polygon_model(3)
    dual = dual_cone(model.state_cone)
    # Effects are the states scaled by 1/3, so the dual rays align with them.
    assert same_generator_set(dual, model.effect_cone, 1e-9)


def test_dual_cone_work_cap(monkeypatch):
    # The cap bounds the work of a dual, not the ambient dimension.
    assert same_generator_set(dual_cone(PolyhedralCone(9, np.eye(9))), PolyhedralCone(9, np.eye(9)))
    monkeypatch.setattr("gptdisc.cone.MAX_DUAL_ENTRIES", 10)
    effects = cross_polytope_model(6).effect_cone
    with pytest.raises(UnsupportedSizeError, match=r"dual cone product has \d+ entries, over MAX_DUAL_ENTRIES = 10"):
        dual_cone(effects)
    with pytest.raises(UnsupportedSizeError):
        member_of(effects, np.eye(7)[-1])


def test_dual_of_full_space_is_origin():
    full = PolyhedralCone(3, np.vstack([np.eye(3), -np.eye(3)]))
    dual = dual_cone(full)
    assert dual.n_generators == 0
    assert member_of(dual, np.zeros(3))
    assert not member_of(dual, np.array([1e-6, 0.0, 0.0]))


def test_order_relation_reflexive():
    model = polygon_model(4)
    v = np.array([0.3, -0.2, 0.9])
    assert cone_ge(v, v, model.effect_cone)
    # The empty cone induces no constraint, so any v dominates any w.
    assert cone_ge(-v, v, PolyhedralCone(3, []))


def test_order_relation_square_axis_operator():
    model = polygon_model(4)
    k = np.array([0.0, 0.0, 0.5])
    w0_quarter = model.state_gens[0] / 4.0
    assert cone_ge(k, w0_quarter, model.effect_cone)


def test_order_relation_fails_below_mixture_threshold():
    # At p = 1/4 the scaled mixture does not dominate the first vertex:
    # the aligned effect pairs to (3p-1)/4 = -1/16 < 0.
    ensemble = no_measurement_ensemble(0.25)
    model = ensemble.model
    v = 0.25 * ensemble.states[4]
    w = ensemble.priors[0] * ensemble.states[0]
    value = float(model.effect_gens[0] @ (v - w))
    assert_allclose(value, -1.0 / 16.0, atol=1e-12)
    assert not cone_ge(v, w, model.effect_cone)


def test_dual_of_rank_deficient_cone_contains_a_line():
    # cone(e1, e1 + e2) spans a plane; its dual is {y1 >= 0, y1 + y2 >= 0} + lin(e3).
    dual = dual_cone(PolyhedralCone(3, [[1.0, 0.0, 0.0], [1.0, 1.0, 0.0]]))
    expected = PolyhedralCone(3, [[1.0, -1.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [0.0, 0.0, -1.0]])
    assert same_generator_set(dual, expected, 1e-12)


def test_dual_of_cone_with_a_line_is_rank_deficient():
    # cone(e1, -e1, e2 + e3, e3) is a wedge around the e1 line; its dual is cone(e2, e3 - e2) in y1 = 0.
    cone = PolyhedralCone(3, [[1.0, 0.0, 0.0], [-1.0, 0.0, 0.0], [0.0, 1.0, 1.0], [0.0, 0.0, 1.0]])
    expected = PolyhedralCone(3, [[0.0, 1.0, 0.0], [0.0, -1.0, 1.0]])
    assert same_generator_set(dual_cone(cone), expected, 1e-12)


def _facet_normals(generators: np.ndarray) -> PolyhedralCone:
    """Extreme rays of the dual of a pointed full-dimensional cone, by brute force.

    Every (d-1)-subset of generators of full rank spans a hyperplane; its
    normal, with either sign, is a facet normal when no generator lies
    strictly on its negative side.
    """
    d = generators.shape[1]
    normals = []
    for subset in combinations(range(generators.shape[0]), d - 1):
        rows = generators[list(subset)]
        if np.linalg.matrix_rank(rows) < d - 1:
            continue
        normal = np.linalg.svd(rows)[2][-1]
        normals.extend(n for n in (normal, -normal) if np.all(generators @ n >= -1e-9))
    return PolyhedralCone(d, np.array(normals))


@pytest.mark.parametrize("seed", range(60))
def test_dual_matches_facet_enumeration_of_random_5d_cones(seed):
    generators = np.random.default_rng(seed).normal(size=(10, 5))
    generators[:, -1] = np.abs(generators[:, -1]) + 0.5
    cone = PolyhedralCone(5, generators)
    assert same_generator_set(dual_cone(cone), _facet_normals(generators), 1e-7)


def test_dual_cone_solves_no_lp(monkeypatch):
    model = polygon_model(24)

    def forbidden(*args, **kwargs):
        raise AssertionError("dual_cone called the LP solver")

    monkeypatch.setattr("gptdisc.lp.solve_lp", forbidden)
    assert same_generator_set(dual_cone(model.state_cone), model.effect_cone, 1e-9)


def _rank_deficient_or_line_cone(seed: int) -> PolyhedralCone:
    """A seeded cone in dim 5 or 6 that is not full-dimensional, contains a line, or both."""
    rng = np.random.default_rng(seed)
    d, k = 5 + seed % 2, 6 + seed % 5
    if seed % 3 == 0:
        basis = rng.normal(size=(d - 1, d))
        return PolyhedralCone(d, rng.normal(size=(k, d - 1)) @ basis)
    if seed % 3 == 1:
        generators = rng.normal(size=(k, d))
    else:
        basis = rng.normal(size=(d - 2, d))
        generators = rng.normal(size=(k, d - 2)) @ basis
    return PolyhedralCone(d, np.vstack([generators, -generators[0]]))


@pytest.mark.parametrize("seed", range(150))
def test_involution_of_rank_deficient_and_line_cones(seed):
    cone = _rank_deficient_or_line_cone(seed)
    assert cones_equal(dual_cone(dual_cone(cone)), cone, 1e-7)


@pytest.mark.parametrize("seed", range(24))
def test_membership_matches_lp_reference(seed):
    rng = np.random.default_rng(seed)
    d = 3 + seed % 4
    generators = rng.normal(size=(d + 2 + seed % 5, d))
    generators[:, -1] = np.abs(generators[:, -1]) + 0.5
    cone = PolyhedralCone(d, generators)
    k = cone.n_generators
    sparse = rng.random((20, k)) * (rng.random((20, k)) < 2.0 / k)
    points = np.vstack([rng.normal(size=(40, d)), rng.random((20, k)) @ cone.generators, sparse @ cone.generators])
    compared = 0
    for v in points:
        gap = feasibility_gap(cone.generators.T, v, tol=1e-9)
        if 1e-12 < gap < 1e-6:
            continue  # too close to the boundary for two tolerance conventions to agree
        assert member_of(cone, v) == (gap <= 1e-9), (v, gap)
        compared += 1
    assert compared >= 70


@pytest.mark.parametrize("order", range(3, 33))
def test_involution_polygon_cones(order):
    model = polygon_model(order)
    for cone in (model.state_cone, model.effect_cone):
        twice = dual_cone(dual_cone(cone))
        assert same_generator_set(twice, cone, 1e-9)


def test_generators_are_members():
    model = polygon_model(5)
    for g in model.state_cone.generators:
        assert member_of(model.state_cone, g)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.lists(st.floats(0.0, 5.0), min_size=4, max_size=4))
def test_random_nonnegative_combinations_are_members(coeffs):
    model = polygon_model(4)
    v = np.asarray(coeffs) @ model.state_cone.generators
    assert member_of(model.state_cone, v, tol=1e-7)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.lists(st.floats(-2.0, 2.0), min_size=3, max_size=3))
def test_dual_membership_matches_order_relation(coords):
    # v in dual(C) iff v >= 0 in the order induced by C.
    model = polygon_model(4)
    cone = model.state_cone
    v = np.asarray(coords)
    direct = cone_ge(v, np.zeros(3), cone, tol=1e-9)
    via_dual = member_of(dual_cone(cone), v, tol=1e-7)
    if direct != via_dual:
        # Disagreement is only allowed within the tolerance band of the boundary.
        assert float(np.min(cone.generators @ v)) == pytest.approx(0.0, abs=1e-6)


def _extreme_generators(cone: PolyhedralCone) -> PolyhedralCone:
    """The generators that are not in the cone of the others, decided by the LP reference."""
    gens = cone.generators
    extreme = [feasibility_gap(np.delete(gens, i, axis=0).T, g, tol=1e-9) > 1e-9 for i, g in enumerate(gens)]
    return PolyhedralCone(cone.dim, gens[extreme])


def _assert_exact_dual(cone: PolyhedralCone, extreme: PolyhedralCone, tol: float = 1e-9) -> None:
    """Each output ray is unit, feasible and tight on generators of rank d - 1; the involution recovers ``extreme``."""
    dual = dual_cone(cone)
    units = cone.generators / np.linalg.norm(cone.generators, axis=1, keepdims=True)
    products = units @ dual.generators.T
    assert_allclose(np.linalg.norm(dual.generators, axis=1), 1.0, atol=1e-12)
    assert products.min() >= -tol
    for column in products.T:
        assert np.linalg.matrix_rank(units[np.abs(column) <= tol]) == cone.dim - 1
    assert same_generator_set(dual_cone(dual), extreme, 1e-9)


@pytest.mark.parametrize("order", range(3, 65))
def test_dual_of_shuffled_polygon_is_exact(order):
    states = polygon_model(order).state_cone
    _assert_exact_dual(PolyhedralCone(3, np.random.default_rng(order).permutation(states.generators)), states)


@pytest.mark.parametrize("order", range(3, 25))
def test_dual_of_polygon_with_edge_midpoints_and_centroid_is_exact(order):
    # A midpoint cut after both ends of its edge removes no ray; the edge's facet ray is marked tight on it.
    vertices = polygon_model(order).state_gens
    midpoints = (vertices + np.roll(vertices, -1, axis=0)) / 2.0
    gens = np.vstack([vertices, midpoints, [0.0, 0.0, 1.0]])
    _assert_exact_dual(PolyhedralCone(3, np.random.default_rng(order).permutation(gens)), PolyhedralCone(3, vertices))


@pytest.mark.parametrize("family", [hypercube_model, cross_polytope_model])
@pytest.mark.parametrize("n", range(2, 8))
def test_dual_of_cube_and_cross_polytope_cones_is_exact(family, n):
    model = family(n)
    for cone in (model.state_cone, model.effect_cone):
        _assert_exact_dual(cone, cone)


def test_dual_of_boxworld_state_cone_is_exact():
    cone = boxworld_model().state_cone
    _assert_exact_dual(cone, cone)


@pytest.mark.parametrize("seed", range(20))
def test_dual_of_random_polytope_state_cone_is_exact(seed):
    d = 3 + seed % 4
    cone = random_polytope_model(np.random.default_rng(seed), d, d + 2 + seed % 7).state_cone
    _assert_exact_dual(cone, _extreme_generators(cone))


def test_cut_that_removes_no_ray_still_marks_its_tight_rays(monkeypatch):
    # Generator 5 is the midpoint of generators 0 and 1, so its cut removes no ray.  The rays tight on it
    # keep it as a shared cut, and the last cut's candidate pairs (at least d - 2 = 3 shared cuts) count it.
    gens = np.array([
        [0.0, 0.0, -1.0, 0.0, 1.0], [0.0, -1.0, 0.0, 0.0, 1.0], [0.0, 0.0, 0.5, -0.5, 1.0],
        [0.5, 0.0, 0.0, -0.5, 1.0], [-0.5, 0.0, 0.5, 0.0, 1.0], [0.0, -0.5, -0.5, 0.0, 1.0],
        [0.0, 0.5, 0.5, 0.0, 1.0], [-0.5, 0.0, -0.5, 0.0, 1.0],
    ])
    units = gens / np.linalg.norm(gens, axis=1, keepdims=True)
    rays = dual_cone(PolyhedralCone(5, gens[:-1])).generators  # the rays the last cut meets
    products = rays @ units[-1]
    tight = (np.abs(rays @ units[:-1].T) <= 1e-10).astype(int)
    plus, minus = tight[products > 1e-10], tight[products < -1e-10]
    candidates = int((plus @ minus.T >= 3).sum())
    unmarked = int((np.delete(plus, 5, axis=1) @ np.delete(minus, 5, axis=1).T >= 3).sum())
    assert unmarked < candidates
    counts = []
    monkeypatch.setattr(cone_module, "_check_entries", counts.append)
    dual_cone(PolyhedralCone(5, gens))
    assert counts[-1] == candidates * len(rays)
