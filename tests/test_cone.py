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
    cones_equal,
    dual_cone,
    member_of,
    polygon_model,
)
import gptdisc.cone as cone_module
from gptdisc.cone import unit_rows
from gptdisc.lp import feasibility_gap
from gptdisc.polygon import no_measurement_ensemble

from conftest import (
    boxworld_model,
    cone_ge,
    cross_polytope_model,
    effect_cone,
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
    assert member_of(model.state_cone, [0, 0, 1]) is True  # integers are read as floats; one bool comes back


def test_membership_dimension_mismatch():
    with pytest.raises(InvalidInputError):
        member_of(orthant(3), np.array([1.0, 2.0]))


@pytest.mark.parametrize(
    "bad",
    [[np.nan, 0.0, 1.0], [np.inf, 0.0, 1.0], [True, False, True], ["a", "b", "c"], [0.0, 1.0]],
    ids=["nan", "inf", "bool", "str", "short"],
)
def test_membership_and_order_reject_malformed_vectors(bad):
    square = polygon_model(4).state_cone
    with pytest.raises(InvalidInputError):
        member_of(square, bad)
    with pytest.raises(InvalidInputError):
        cone_ge(bad, [0.0, 0.0, 1.0], square)
    with pytest.raises(InvalidInputError):
        cone_ge([0.0, 0.0, 1.0], bad, square)


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


@pytest.mark.parametrize("layout", [np.ascontiguousarray, np.asfortranarray])
def test_units_are_the_kept_generators_over_their_norms(layout):
    rng = np.random.default_rng(3)
    rays = rng.normal(size=(30, 9))
    rays = np.vstack([rays, 4.0 * rays[:5], np.zeros((2, 9))])
    cone = PolyhedralCone(9, layout(rays))
    gens = cone.generators
    assert cone.n_generators == 30 and cone.lineality is None
    assert np.array_equal(cone.units, gens / np.sqrt(np.add.reduce(gens * gens, axis=1, keepdims=True)))
    assert not cone.units.flags.writeable


def test_orthant_self_dual():
    dual = dual_cone(orthant())
    assert same_generator_set(dual, orthant(), 1e-9)


def test_square_effect_cone_dualizes_to_state_cone():
    model = polygon_model(4)
    dual = dual_cone(effect_cone(model))
    assert same_generator_set(dual, model.state_cone, 1e-9)
    assert cones_equal(dual, model.state_cone, 1e-9)


def test_triangle_state_cone_dualizes_to_effect_directions():
    model = polygon_model(3)
    dual = dual_cone(model.state_cone)
    # Effects are the states scaled by 1/3, so the dual rays align with them.
    assert same_generator_set(dual, effect_cone(model), 1e-9)


def test_dual_cone_work_cap(monkeypatch):
    # The cap bounds the work of a dual, not the ambient dimension.
    assert same_generator_set(dual_cone(PolyhedralCone(9, np.eye(9))), PolyhedralCone(9, np.eye(9)))
    monkeypatch.setattr("gptdisc.cone.MAX_DUAL_ENTRIES", 10)
    effects = effect_cone(cross_polytope_model(6))
    with pytest.raises(UnsupportedSizeError, match=r"dual cone product has \d+ entries, over MAX_DUAL_ENTRIES = 10"):
        dual_cone(effects)
    with pytest.raises(UnsupportedSizeError):
        member_of(effects, np.eye(7)[-1])


def test_dual_cone_work_cap_names_the_cut(monkeypatch):
    # The first three cuts of a polygon turn lines into rays.  The fourth vertex sees one edge of the
    # first triangle, so its cut is the first to form a product: 2 plus rays times 1 minus ray.
    monkeypatch.setattr("gptdisc.cone.MAX_DUAL_ENTRIES", 1)
    with pytest.raises(UnsupportedSizeError, match=r"^dual cone product has 2 entries, over MAX_DUAL_ENTRIES = 1 at cut 4 of 5$"):
        dual_cone(polygon_model(5).state_cone)


def test_dual_of_full_space_is_origin():
    full = PolyhedralCone(3, np.vstack([np.eye(3), -np.eye(3)]))
    dual = dual_cone(full)
    assert dual.n_generators == 0
    assert member_of(dual, np.zeros(3))
    assert not member_of(dual, np.array([1e-6, 0.0, 0.0]))


def test_order_relation_reflexive():
    model = polygon_model(4)
    v = np.array([0.3, -0.2, 0.9])
    assert cone_ge(v, v, effect_cone(model)) is True
    # The empty cone induces no constraint, so any v dominates any w.
    assert cone_ge(-v, v, PolyhedralCone(3, []))


def test_order_relation_square_axis_operator():
    model = polygon_model(4)
    k = np.array([0.0, 0.0, 0.5])
    w0_quarter = model.state_gens[0] / 4.0
    assert cone_ge(k, w0_quarter, effect_cone(model))


def test_order_relation_fails_below_mixture_threshold():
    # At p = 1/4 the scaled mixture does not dominate the first vertex:
    # the aligned effect pairs to (3p-1)/4 = -1/16 < 0.
    ensemble = no_measurement_ensemble(0.25)
    model = ensemble.model
    v = 0.25 * ensemble.states[4]
    w = ensemble.priors[0] * ensemble.states[0]
    value = float(model.effect_gens[0] @ (v - w))
    assert_allclose(value, -1.0 / 16.0, atol=1e-12)
    assert not cone_ge(v, w, effect_cone(model))


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
    assert same_generator_set(dual_cone(model.state_cone), effect_cone(model), 1e-9)


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


def test_rank_from_the_dual_lines_matches_the_svd_rank():
    # The cones of the involution test above, and their duals: rank d - 2 spans, lines, both and neither.
    deficits = set()
    for seed in range(150):
        cone = _rank_deficient_or_line_cone(seed)
        for c in (cone, cone.dual):
            assert c.rank == c.dim - dual_cone(c).lineality == np.linalg.matrix_rank(c.generators), seed
            deficits.add(c.dim - c.rank)
    assert deficits == set(range(7))


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
    for cone in (model.state_cone, effect_cone(model)):
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


def _assert_constructor_would_keep(dual: PolyhedralCone) -> None:
    """``dual_cone`` skips the constructor's checks: its rays must already be finite, unit, read-only and distinct."""
    rays = dual.generators
    assert np.isfinite(rays).all() and not rays.flags.writeable
    lines = rays[len(rays) - 2 * dual.lineality :]  # each line l as l, -l, after the rays
    assert dual.units is rays and np.array_equal(lines[: dual.lineality], -lines[dual.lineality :])
    assert_allclose(np.linalg.norm(rays, axis=1), 1.0, atol=1e-12)
    assert not np.triu(rays @ rays.T > 1.0 - 1e-9, k=1).any()  # no two rays parallel
    assert np.array_equal(PolyhedralCone(dual.dim, rays).generators, rays)


def _assert_exact_dual(cone: PolyhedralCone, extreme: PolyhedralCone, tol: float = 1e-9) -> None:
    """Each output ray is unit, feasible and tight on generators of rank d - 1; the involution recovers ``extreme``."""
    dual = dual_cone(cone)
    units = cone.generators / np.linalg.norm(cone.generators, axis=1, keepdims=True)
    products = units @ dual.generators.T
    _assert_constructor_would_keep(dual)
    assert products.min() >= -tol
    for column in products.T:
        assert np.linalg.matrix_rank(units[np.abs(column) <= tol]) == cone.dim - 1
    twice = dual_cone(dual)
    _assert_constructor_would_keep(twice)
    assert same_generator_set(twice, extreme, 1e-9)


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
    for cone in (model.state_cone, effect_cone(model)):
        _assert_exact_dual(cone, cone)


def test_dual_of_boxworld_state_cone_is_exact():
    cone = boxworld_model().state_cone
    _assert_exact_dual(cone, cone)


@pytest.mark.parametrize("seed", range(20))
def test_dual_of_random_polytope_state_cone_is_exact(seed):
    d = 3 + seed % 4
    cone = random_polytope_model(np.random.default_rng(seed), d, d + 2 + seed % 7).state_cone
    _assert_exact_dual(cone, _extreme_generators(cone))


def _certificate(states, effects) -> np.ndarray | None:
    states, effects = np.asarray(states, dtype=float), np.asarray(effects, dtype=float)
    return cone_module.certified_facets(PolyhedralCone(states.shape[1], states), unit_rows(effects)[1])


def _certified_models(family):
    if family == "polygon":
        yield from (polygon_model(order) for order in [*range(3, 65), 128, 256])
    elif family == "polytope":  # the 300 polytope seeds of test_discrimination.py, and three larger ones
        yield from (random_polytope_model(np.random.default_rng(s), 3 + s % 4, 5 + s % 4 + s % 7) for s in range(300))
        yield from (random_polytope_model(np.random.default_rng(1), d, k) for d, k in ((6, 20), (7, 21), (8, 20)))
    else:
        yield from (cross_polytope_model(n) for n in range(2, 8))


@pytest.mark.parametrize("family", ["polygon", "polytope", "cross-polytope"])
def test_certified_facets_are_the_dual_cone_facets(family):
    for model in _certified_models(family):
        certified = model.state_cone.dual  # set by the certificate, so no double description ran
        computed = dual_cone(PolyhedralCone(model.dim, model.state_gens))
        assert certified.lineality == computed.lineality == 0
        _assert_constructor_would_keep(certified)
        assert same_generator_set(certified, computed, 1e-9)


def test_certificate_refuses_cubes_and_boxworld():
    # No facet of an n-cube (n >= 3) or of boxworld is simplicial, so no effect generator is a candidate.
    for model in [*(hypercube_model(n) for n in range(3, 8)), boxworld_model()]:
        assert _certificate(model.state_gens, model.effect_gens) is None
        assert "dual" not in vars(model.state_cone)


def test_certificate_refuses_a_rank_deficient_pair():
    # Both effects are tight on both states, which are independent with either: the tight sets repeat.
    states = [[1.0, 0.0, 1.0], [-1.0, 0.0, 1.0]]
    assert _certificate(states, [[0.0, 1.0, 0.0], [0.0, -1.0, 0.0]]) is None
    assert _certificate(states, [[0.0, 1.0, 0.0], [0.0, -1.0, 0.0], [0.0, 1.0, 0.0], [1.0, 0.0, 1.0]]) is None


@pytest.mark.parametrize("scale", [1.0, 0.5])
def test_certificate_refuses_parallel_or_duplicated_effect_generators(scale):
    # In d = 2 each ridge is empty, so only distinct tight sets tell the orthant's two facets from one repeated.
    assert _certificate(np.eye(2), [[1.0, 0.0], [scale, 0.0]]) is None
    assert _certificate(np.eye(2), [[1.0, 0.0], [0.0, scale]]).shape == (2, 2)
    for order in (4, 5, 9):
        effects = polygon_model(order).effect_gens
        assert _certificate(polygon_model(order).state_gens, np.vstack([effects, scale * effects[1]])) is None


@pytest.mark.parametrize("order", range(3, 25))
def test_certificate_refuses_an_edge_midpoint_state(order):
    model = polygon_model(order)
    midpoint = (model.state_gens[0] + model.state_gens[1]) / 2.0
    assert _certificate(np.vstack([model.state_gens, midpoint]), model.effect_gens) is None


@pytest.mark.parametrize("order", range(4, 62))
def test_certificate_refuses_every_other_effect(order):
    model = polygon_model(order)
    assert _certificate(model.state_gens, model.effect_gens[::2]) is None


@pytest.mark.parametrize("n", range(3, 7))
def test_certificate_refuses_a_cross_polytope_missing_one_facet(n):
    # 2^n - 1 candidates of n ridges each: an odd ridge count for odd n, an unpaired ridge for every n.
    model = cross_polytope_model(n)
    assert _certificate(model.state_gens, model.effect_gens[1:]) is None


def test_certificate_refuses_a_candidate_negative_on_a_state():
    # Facets v2v3 and v3v0 of the square, and the diagonal v0v2 facing v3, pair every ridge of the triangle v0v2v3.
    states = polygon_model(4).state_gens
    effects = polygon_model(4).effect_gens
    facets = effects[np.abs(states[1] @ effects.T) > 1e-9]  # the two facets away from v1
    diagonal = np.cross(states[0], states[2])
    diagonal *= np.sign(diagonal @ states[3])  # negative on v1
    assert len(facets) == 2 and diagonal @ states[1] < 0.0
    assert _certificate(states[[0, 2, 3]], np.vstack([facets, diagonal])).shape == (3, 3)
    assert _certificate(states, np.vstack([facets, diagonal])) is None


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
    monkeypatch.setattr(cone_module, "_check_entries", lambda count, *where: counts.append(count))
    dual_cone(PolyhedralCone(5, gens))
    assert counts[-1] == candidates * len(rays)


def test_check_entries_counts_match_the_recorded_sequence(monkeypatch):
    # The first three were recorded from the double description that grew its arrays by concatenation,
    # the polygon cones from the in-place buffers that followed it.  Any rewrite of a cut must run the
    # same cuts with the same adjacency test, so every product has the same size.
    expected = {
        "cube6": [
            2, 6, 2, 5, 3, 15, 3, 0, 2, 7, 3, 14, 3, 0, 4, 28, 4, 0, 4, 9, 4, 0, 2, 9, 3, 18, 3, 10, 4, 36, 4, 11,
            4, 20, 4, 0, 5, 45, 5, 52, 5, 48, 5, 0, 5, 55, 5, 0, 5, 11, 5, 0, 2, 11, 3, 22, 3, 12, 4, 33, 4, 26,
            4, 24, 4, 0, 5, 55, 5, 42, 5, 39, 5, 0, 5, 36, 5, 0, 5, 12, 5, 0, 6, 66, 6, 80, 6, 75, 6, 0, 6, 70,
            6, 15, 6, 14, 6, 0, 6, 78, 6, 30, 6, 28, 6, 0, 6, 26, 6, 0, 6, 13, 6, 0,
        ],
        "cross6": [2, 14, 4, 32, 8, 88, 16, 288, 32, 1056],
        "boxworld": [2, 6, 2, 14, 2, 22, 8, 96, 18, 252, 18, 210, 32, 384, 15, 0, 14, 0, 13, 0, 12, 0, 11, 0, 10, 0, 9, 0, 8, 0],
        # The benchmark's d = 3 traffic: each polygon cut removes one ray and adds two.
        "polygon13": [2, 6, 3, 8, 4, 10, 5, 12, 6, 14, 7, 16, 8, 18, 9, 20, 10, 22, 11, 24],
        "polygon24": [
            2, 6, 3, 8, 4, 10, 5, 12, 6, 14, 7, 16, 8, 18, 9, 20, 10, 22, 11, 24, 12, 26, 13, 28, 14, 30,
            15, 32, 16, 34, 17, 36, 18, 38, 19, 40, 20, 42, 21, 44, 22, 46,
        ],
        # The centroid cuts nothing, the constructor drops the repeated and the rescaled vertex, and the
        # far points remove more rays than they add, so rows from the end fill the holes.
        "polygon_cuts": [2, 6, 3, 8, 4, 10, 5, 12, 6, 14, 7, 16, 8, 18, 9, 20, 10, 22, 35, 24, 20, 18, 8, 12],
    }
    cones = {
        "cube6": hypercube_model(6).state_cone,
        "cross6": cross_polytope_model(6).state_cone,
        "boxworld": boxworld_model().state_cone,
        "polygon13": polygon_model(13).state_cone,
        "polygon24": polygon_model(24).state_cone,
        "polygon_cuts": PolyhedralCone(3, _polygon_cuts()),
    }
    counts = []
    monkeypatch.setattr(cone_module, "_check_entries", lambda count, *where: counts.append(count))
    for name, cone in cones.items():
        counts.clear()
        dual_cone(cone)
        assert counts == expected[name], name


@pytest.mark.parametrize("n", [6, 7])
def test_ray_buffers_grow_past_the_cut_count(n):
    # 2n cuts and 2^n facets: the buffers start with one row per cut, so they double at least twice.
    cone = cross_polytope_model(n).state_cone
    dual = dual_cone(cone)
    assert dual.n_generators == 2**n > 4 * cone.n_generators
    assert same_generator_set(dual, _facet_normals(cone.generators), 1e-9)


def _prefix_steps(gens: np.ndarray) -> list[tuple[int, int]]:
    """Check ``dual_cone`` against facet enumeration on every full-rank prefix of ``gens``.

    Returns the number of reference rays each later cut removes and adds.
    """
    d = gens.shape[1]
    steps, before = [], None
    for j in range(len(gens)):
        if np.linalg.matrix_rank(gens[: j + 1]) < d:
            continue
        reference = _facet_normals(gens[: j + 1])
        assert same_generator_set(dual_cone(PolyhedralCone(d, gens[: j + 1])), reference, 1e-7), j
        if before is not None:
            removed = int((before.generators @ gens[j] < -1e-9).sum())
            steps.append((removed, reference.n_generators - before.n_generators + removed))
        before = reference
    return steps


def _polygon_cuts() -> np.ndarray:
    """A 12-gon's vertices in a scattered order, its centroid, a repeated and a rescaled vertex, then three far points."""
    t = 2.0 * np.pi * np.arange(12) / 12.0
    ring = np.column_stack([np.cos(t), np.sin(t), np.ones(12)])
    far = np.column_stack([3.0 * np.cos(t[[1, 6, 9]] + 0.1), 3.0 * np.sin(t[[1, 6, 9]] + 0.1), np.ones(3)])
    return np.vstack([ring[[0, 4, 8, 2, 5, 9, 11]], [[0.0, 0.0, 1.0]], ring[[1, 7, 4]], 2.5 * ring[[5]], ring[[3, 6, 10]], far])


def _simplex_cuts(seed: int) -> np.ndarray:
    """Ten Gaussian points of the plane x_5 = 1 with duplicated and rescaled copies, then three far points."""
    rng = np.random.default_rng(seed)
    points = np.hstack([rng.normal(size=(10, 4)), np.ones((10, 1))])
    far = np.hstack([8.0 * rng.normal(size=(3, 4)), np.ones((3, 1))])
    return np.vstack([points[:7], 3.0 * points[[2]], points[7:], points[[0]], far])


def test_every_prefix_dual_matches_facet_enumeration():
    # Cuts that remove more rays than they add leave holes that rows from the end fill; cuts that
    # remove none only write their column; repeated and parallel generators are deduplicated first.
    steps = [step for cuts in [_polygon_cuts(), *map(_simplex_cuts, range(4))] for step in _prefix_steps(cuts)]
    assert any(removed > added for removed, added in steps)
    assert any(removed == 0 for removed, added in steps)
    assert any(0 < removed < added for removed, added in steps)


@pytest.mark.parametrize("seed", range(24))
def test_dual_of_rank_deficient_and_line_cones_decides_lp_membership(seed):
    # The dual's rays and its lines l, -l accept exactly the points the LP reference finds in the cone.
    cone = _rank_deficient_or_line_cone(seed)
    dual = dual_cone(cone)
    _assert_constructor_would_keep(dual)
    assert (cone.generators @ dual.generators.T).min(initial=0.0) >= -1e-9
    rng = np.random.default_rng(1000 + seed)
    in_cone = rng.random((20, cone.n_generators)) @ cone.generators
    in_span = (rng.random((20, cone.n_generators)) - 0.3) @ cone.generators  # some weights negative
    points = np.vstack([rng.normal(size=(20, cone.dim)), in_cone, in_span])
    compared = 0
    for v in points:
        gap = feasibility_gap(cone.generators.T, v, tol=1e-9)
        if 1e-12 < gap < 1e-6:
            continue  # too close to the boundary for two tolerance conventions to agree
        assert member_of(cone, v) == (gap <= 1e-9), (v, gap)
        compared += 1
    assert compared >= 45
