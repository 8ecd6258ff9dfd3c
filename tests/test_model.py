import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from gptdisc import (
    Ensemble,
    GptModel,
    InvalidInputError,
    LpSolution,
    OracleResult,
    PolyhedralCone,
    congruence_check,
    cones_equal,
    demo_n4,
    member_of,
    polygon_model,
    ratio_r,
    solve_discrimination,
    symmetric_axis_k,
    validate_ensemble,
    validate_model,
    verify_kkt,
)
from gptdisc.cone import inside
from gptdisc.errors import finite_array
from gptdisc.lp import LpProblem
from gptdisc.model import check_tol
from gptdisc.polygon import no_measurement_ensemble, uniform_vertex_ensemble

from conftest import (
    boxworld_model,
    counted_dual_cones,
    cross_polytope_model,
    effect_cone,
    evaluate,
    hypercube_model,
    random_polygon_ensemble,
    random_polytope_model,
)

SQRT2 = np.sqrt(2.0)


def test_evaluate_unit_effect_normalization():
    assert_allclose(evaluate([0.0, 0.0, 1.0], [SQRT2, 0.0, 1.0]), 1.0)


def test_evaluate_triangle_aligned_effect_is_one():
    model = polygon_model(3)
    assert_allclose(evaluate(model.effect_gens[0], model.state_gens[0]), 1.0, atol=1e-12)


def test_evaluate_square_opposite_vertex_is_zero():
    model = polygon_model(4)
    assert_allclose(evaluate(model.effect_gens[0], model.state_gens[2]), 0.0, atol=1e-12)


def test_evaluate_dimension_mismatch():
    with pytest.raises(InvalidInputError):
        evaluate([1.0, 0.0], [1.0, 0.0, 0.0])


@settings(max_examples=50, deadline=None, derandomize=True)
@given(
    st.lists(st.floats(-3, 3), min_size=3, max_size=3),
    st.lists(st.floats(-3, 3), min_size=3, max_size=3),
    st.floats(-2, 2),
    st.floats(-2, 2),
)
def test_evaluate_bilinear(e1, e2, a, b):
    w = np.array([0.7, -0.1, 1.0])
    e1, e2 = np.asarray(e1), np.asarray(e2)
    combined = evaluate(a * e1 + b * e2, w)
    assert combined == pytest.approx(a * evaluate(e1, w) + b * evaluate(e2, w), abs=1e-9)


@pytest.mark.parametrize("order", range(3, 33))
def test_polygon_models_validate_with_unrestricted_effects(order):
    report = validate_model(polygon_model(order))
    assert report.valid
    assert report.unrestricted_effects is True


def test_generator_pairings_within_unit_interval():
    for order in range(3, 9):
        model = polygon_model(order)
        table = model.state_gens @ model.effect_gens.T
        assert table.min() >= -1e-9
        assert table.max() <= 1.0 + 1e-9


def test_rescaled_state_generator_reported():
    model = polygon_model(3)
    bad_states = model.state_gens.copy()
    bad_states[0] = 2.0 * bad_states[0]
    bad = GptModel(dim=3, state_gens=bad_states, effect_gens=model.effect_gens, unit_effect=model.unit_effect)
    report = validate_model(bad)
    assert not report.valid
    assert any("u[w]=1 violated" in issue and "residual 1" in issue for issue in report.issues)


def test_restricted_effect_cone_flagged_as_warning_not_error():
    model = polygon_model(4)
    restricted = GptModel(
        dim=3,
        state_gens=model.state_gens,
        effect_gens=np.array([[0.0, 0.0, 1.0]]),
        unit_effect=model.unit_effect,
    )
    report = validate_model(restricted)
    assert report.valid
    assert report.unrestricted_effects is False


def test_uniform_square_ensemble_valid():
    assert validate_ensemble(uniform_vertex_ensemble(4)).valid


def test_prior_sum_violation_message():
    model = polygon_model(4)
    ensemble = Ensemble(model=model, states=model.state_gens[:2], priors=np.array([0.5, 0.6]))
    report = validate_ensemble(ensemble)
    assert not report.valid
    assert any("priors sum 1.1" in issue for issue in report.issues)


@pytest.mark.parametrize("tol", [float("nan"), 0.0, -1e-9, 2e-3], ids=["nan", "zero", "negative", "above-max"])
@pytest.mark.parametrize(
    "validate", [lambda ensemble, tol: validate_model(ensemble.model, tol), validate_ensemble], ids=["model", "ensemble"]
)
def test_validation_rejects_tolerance_outside_range(validate, tol):
    # With tol = nan every comparison is False: the square's vertices read "outside the state cone"
    # and priors summing to 2 went unreported.
    model = polygon_model(4)
    ensemble = Ensemble(model=model, states=model.state_gens, priors=np.array([2.0, 0.0, 0.0, 0.0]))
    with pytest.raises(InvalidInputError, match="tol must lie in"):
        validate(ensemble, tol)


def test_mixture_state_inside_square_is_valid():
    report = validate_ensemble(no_measurement_ensemble(0.5))
    assert report.valid


def test_state_outside_cone_reported():
    model = polygon_model(4)
    outside = np.array([[2.0 * model.state_gens[0][0], 0.0, 1.0]])
    ensemble = Ensemble(model=model, states=outside, priors=np.array([1.0]))
    report = validate_ensemble(ensemble)
    assert any("outside the state cone" in issue for issue in report.issues)


def test_every_negative_prior_is_reported_in_order():
    model = polygon_model(4)
    ensemble = Ensemble(model=model, states=model.state_gens[:3], priors=np.array([-0.25, 1.5, -0.25]))
    assert validate_ensemble(ensemble).issues == ["prior 0 negative (-0.25)", "prior 2 negative (-0.25)"]


def test_state_faults_are_reported_per_state_in_order():
    model = polygon_model(4)
    r = model.state_gens[0][0]
    # State 1 is unnormalized and outside, state 2 only outside, state 3 only unnormalized.
    states = np.array([model.state_gens[1], [3.0 * r, 0.0, 2.0], [2.0 * r, 0.0, 1.0], [0.0, 0.0, 2.0]])
    ensemble = Ensemble(model=model, states=states, priors=np.full(4, 0.25))
    assert validate_ensemble(ensemble).issues == [
        "state 1 is not normalized (u[w] residual 1)",
        "state 1 is outside the state cone",
        "state 2 is outside the state cone",
        "state 3 is not normalized (u[w] residual 1)",
    ]


def test_effect_generator_faults_are_reported_per_generator_in_order():
    model = polygon_model(4)
    effects = model.effect_gens.copy()
    effects[1] = [1.0, 0.0, 0.2]  # negative on state 2, above 1 on state 0
    effects[3] = [0.0, -0.2, 0.1]  # negative on state 1 only
    broken = GptModel(dim=3, state_gens=model.state_gens, effect_gens=effects, unit_effect=model.unit_effect)
    assert validate_model(broken).issues == [
        "effect generator 1 negative on state generator 2, value -0.989207",
        "effect generator 1 exceeds 1 on state generator 0, value 1.38921",
        "effect generator 3 negative on state generator 1, value -0.137841",
    ]


def test_zero_priors_allowed():
    model = polygon_model(4)
    ensemble = Ensemble(
        model=model,
        states=model.state_gens,
        priors=np.array([0.0, 0.0, 0.5, 0.5]),
    )
    assert validate_ensemble(ensemble).valid


def test_measurement_effects_sum_to_unit_on_states():
    model = polygon_model(4)
    coefficients = np.eye(4) / 2.0
    for w in model.state_gens:
        total = sum(evaluate(e, w) for e in coefficients @ model.effect_gens)
        assert total == pytest.approx(1.0, abs=4e-9)


def test_immutability_of_model_arrays():
    model = polygon_model(3)
    with pytest.raises(ValueError):
        model.state_gens[0, 0] = 99.0


def _equal_valued_pairs():
    """Two instances with equal values of every dataclass whose fields hold arrays."""
    ensemble = uniform_vertex_ensemble(4)
    solutions = [solve_discrimination(ensemble) for _ in range(2)]
    yield [PolyhedralCone(3, np.eye(3)) for _ in range(2)]
    yield [dataclasses.replace(polygon_model(4)) for _ in range(2)]  # polygon_model(4) is one shared object
    yield [uniform_vertex_ensemble(4) for _ in range(2)]
    yield solutions
    yield [verify_kkt(ensemble, solutions[0]) for _ in range(2)]
    yield [LpProblem([1.0, 2.0], [[1.0, 1.0]], [1.0]) for _ in range(2)]
    yield [LpSolution("optimal", x=np.array([1.0, 0.0]), objective=1.0, y=np.array([1.0])) for _ in range(2)]
    yield [OracleResult(p_guess=0.5, k=np.array([0.0, 0.0, 0.5]), vertices_examined=1) for _ in range(2)]
    yield [demo_n4() for _ in range(2)]


@pytest.mark.parametrize("pair", list(_equal_valued_pairs()), ids=lambda pair: type(pair[0]).__name__)
def test_array_dataclasses_compare_and_hash_by_identity(pair):
    # Field-wise equality would compare arrays inside a tuple, which raises ValueError.
    a, b = pair
    assert a == a and a != b and not a == b
    assert len({a, b, a}) == 2


@pytest.mark.parametrize(
    "build",
    [
        pytest.param(lambda: LpProblem([1.0, 2.0], [[1.0, 1.0], [1.0]], [1.0, 1.0]), id="LpProblem"),
        pytest.param(
            lambda: GptModel(dim=2, state_gens=[[0.0, 1.0], [1.0]], effect_gens=[[0.0, 1.0]], unit_effect=[0.0, 1.0]),
            id="GptModel",
        ),
        pytest.param(
            lambda: Ensemble(model=polygon_model(3), states=[[0.0, 0.0, 1.0], [0.0, 1.0]], priors=[0.5, 0.5]),
            id="Ensemble",
        ),
        pytest.param(
            lambda: dataclasses.replace(solve_discrimination(uniform_vertex_ensemble(4)), coefficients=[[0.0, 1.0], [1.0]]),
            id="DiscriminationSolution",
        ),
        pytest.param(lambda: PolyhedralCone(3, [[1.0, 2.0, 3.0], [1.0]]), id="PolyhedralCone"),
    ],
)
def test_ragged_input_is_invalid_input(build):
    with pytest.raises(InvalidInputError):
        build()


@pytest.mark.parametrize("dim", [3.0, "3", None, True, 0, -1], ids=repr)
@pytest.mark.parametrize(
    "build",
    [
        pytest.param(lambda dim: GptModel(dim, np.eye(3), np.eye(3), np.ones(3)), id="GptModel"),
        pytest.param(lambda dim: PolyhedralCone(dim, np.eye(3)), id="PolyhedralCone"),
    ],
)
def test_dim_is_an_integer_of_at_least_one(build, dim):
    assert type(build(np.int64(3)).dim) is int
    with pytest.raises(InvalidInputError, match="dim"):
        build(dim)


def test_finite_array_returns_checked_read_only_copy():
    source = np.ones((2, 3))
    arr = finite_array(source, "rows", (None, 3))
    source[0, 0] = 5.0
    assert arr[0, 0] == 1.0 and not arr.flags.writeable
    assert finite_array(1, "weight", ()) == 1.0
    malformed = [
        ([1.0, np.inf], (2,)),
        ([1.0, np.nan], (None,)),
        ([1.0, None], (2,)),
        ([1.0, 2.0], (3,)),
        ([1.0], ()),
        ("one", ()),
        ("0.5", ()),
        (True, ()),
        ({"r": 1.0}, ()),
    ]
    for value, shape in malformed:
        with pytest.raises(InvalidInputError):
            finite_array(value, "value", shape)


@pytest.mark.parametrize(
    "value, shape",
    [
        ([True, 0.5], (2,)),
        ([0.5, np.True_], (2,)),
        ([[0.0, 1.0, 0.0], [True, 0.0, 1.0]], (2, 3)),
        ((0.5, True), (None,)),
        ([np.array([True, False]), [0.5, 1.0]], (2, 2)),
    ],
    ids=["first", "numpy-bool", "row", "tuple", "bool-array-row"],
)
def test_finite_array_rejects_a_boolean_among_numbers(value, shape):
    # numpy reads [True, 0.5] as float64 [1.0, 0.5]; only an all-boolean value has dtype bool.
    with pytest.raises(InvalidInputError, match="value is not an array of numbers"):
        finite_array(value, "value", shape)


def test_finite_array_judges_an_ndarray_by_its_dtype():
    assert finite_array(np.array([1, 0]), "value", (2,)).tolist() == [1.0, 0.0]
    with pytest.raises(InvalidInputError, match="dtype bool"):
        finite_array(np.array([True, False]), "value", (2,))


def test_nonfinite_coordinates_rejected():
    with pytest.raises(InvalidInputError):
        GptModel(
            dim=2,
            state_gens=np.array([[np.nan, 1.0]]),
            effect_gens=np.array([[1.0, 0.0]]),
            unit_effect=np.array([0.0, 1.0]),
        )


def test_validate_model_solves_no_lp_and_one_dual(monkeypatch):
    import gptdisc.lp as lp

    def forbidden(*args, **kwargs):
        raise AssertionError("model validation called the LP solver")

    monkeypatch.setattr(lp, "solve_lp", forbidden)
    calls = counted_dual_cones(monkeypatch)
    for order in range(3, 33):
        calls.clear()
        assert validate_model(polygon_model(order)).valid
        # The effect generators certify the state facets, so nothing is dualized.
        assert calls == []
    for n in range(3, 6):
        calls.clear()
        assert validate_model(hypercube_model(n)).valid
        # The cube's facets are not simplicial: only its state cone is dualized.
        assert calls == [2**n]


def _reference_models():
    for order in range(3, 33):
        yield polygon_model(order)
    for n in range(2, 8):
        yield hypercube_model(n)
        yield cross_polytope_model(n)


def test_validation_never_computes_effect_facets(monkeypatch):
    import gptdisc.model

    calls = []
    real_feasibility_gap = gptdisc.model.feasibility_gap

    def counting_feasibility_gap(*args, **kwargs):
        calls.append(args[1])
        return real_feasibility_gap(*args, **kwargs)

    monkeypatch.setattr(gptdisc.model, "feasibility_gap", counting_feasibility_gap)
    for order in range(4, 33):
        full = polygon_model(order)
        halved = dataclasses.replace(full, effect_gens=full.effect_gens[::2])
        # Restricted: the first unmatched facet fails its LP, which ends the decision; then one LP for u.
        for model, lps in ((full, 0), (halved, 2)):
            calls.clear()
            report = validate_model(model)
            assert report.issues == [] and report.unrestricted_effects is (lps == 0)
            assert len(calls) == lps
    assert not hasattr(GptModel, "effect_cone")


def test_validated_effect_membership_agrees_with_a_fresh_cone():
    rng = np.random.default_rng(0)
    tol = 1e-9
    models = list(_reference_models())
    for seed in range(20):  # the parameters of the 300 polytope seeds of test_discrimination.py
        d = 3 + seed % 4
        models.append(random_polytope_model(np.random.default_rng(seed), d, d + 2 + seed % 7))
    pushed_out = 0
    for model in models:
        assert validate_model(model, tol).unrestricted_effects is True
        fresh = PolyhedralCone(model.dim, model.effect_gens)
        gens = fresh.generators / np.linalg.norm(fresh.generators, axis=1, keepdims=True)
        points = [gens, rng.random((20, len(gens))) @ gens]
        for f in fresh.facets:  # the centre of each facet's tight generators, pushed 10 tol outward
            centre = gens[np.abs(gens @ f) <= 1e-9].mean(axis=0)
            points.append((centre / np.linalg.norm(centre) - 10.0 * tol * f)[None, :])
        # Unrestricted effects are the dual of the state cone, so the unit states are their facets.
        read_off_states = inside(model.state_cone.units, np.vstack(points), tol)
        assert read_off_states.tolist() == [member_of(fresh, v, tol) for v in np.vstack(points)]
        pushed_out += sum(not member_of(fresh, p[0], tol) for p in points[2:])
    assert pushed_out == sum(len(PolyhedralCone(m.dim, m.effect_gens).facets) for m in models)


def _padded_square(effect_gens):
    """The square's states padded with zeros into the dimension of ``effect_gens``."""
    dim = effect_gens.shape[1]
    square = polygon_model(4)
    return GptModel(
        dim=dim,
        state_gens=np.hstack([square.state_gens, np.zeros((4, dim - 3))]),
        effect_gens=effect_gens,
        unit_effect=np.eye(dim)[2],
    )


RESTRICTED = (
    "effect cone differs from the full dual of the state cone (restricted effects); "
    "the solver uses the supplied cone as given"
)
U_OUTSIDE = "unit effect is not in the cone of the effect generators"
RANK_0 = "state cone is not full-dimensional (rank 0 < 3)"
RANK_3 = "state cone is not full-dimensional (rank 3 < 4)"
SQUARE = polygon_model(4)
SQUARE_EFFECTS_D4 = np.hstack([SQUARE.effect_gens, np.zeros((4, 1))])
EMPTY = np.zeros((0, 3))
PLANE = np.array([[0.0, 0.0, 0.0, 1.0, 0.0], [0.0, 0.0, 0.0, 0.0, 1.0], [0.0, 0.0, 0.0, -1.0, -1.0]])


REPORT_CASES = [
    pytest.param(
        GptModel(dim=3, state_gens=SQUARE.state_gens, effect_gens=EMPTY, unit_effect=SQUARE.unit_effect),
        [U_OUTSIDE], [RESTRICTED], False, id="no-effects",
    ),
    pytest.param(
        GptModel(dim=3, state_gens=EMPTY, effect_gens=SQUARE.effect_gens, unit_effect=SQUARE.unit_effect),
        [], [RANK_0, RESTRICTED], False, id="no-states",
    ),
    pytest.param(
        GptModel(dim=3, state_gens=EMPTY, effect_gens=np.vstack([np.eye(3), -np.eye(3)]), unit_effect=SQUARE.unit_effect),
        [], [RANK_0], True, id="no-states-all-effects",
    ),
    pytest.param(
        GptModel(dim=3, state_gens=EMPTY, effect_gens=EMPTY, unit_effect=SQUARE.unit_effect),
        [U_OUTSIDE], [RANK_0, RESTRICTED], False, id="both-empty",
    ),
    pytest.param(
        _padded_square(np.vstack([SQUARE_EFFECTS_D4, np.eye(4)[3], -np.eye(4)[3]])),
        [], [RANK_3], True, id="rank-deficient-with-line",
    ),
    pytest.param(_padded_square(SQUARE_EFFECTS_D4), [], [RANK_3, RESTRICTED], False, id="rank-deficient"),
    pytest.param(
        # -e_4 and -e_5, two of the state facets, match no effect generator and are decided by membership.
        _padded_square(np.vstack([np.hstack([SQUARE.effect_gens, np.zeros((4, 2))]), PLANE])),
        [], ["state cone is not full-dimensional (rank 3 < 5)"], True, id="rank-deficient-with-plane",
    ),
]


@pytest.mark.parametrize("model, issues, warnings, unrestricted", REPORT_CASES)
def test_empty_and_rank_deficient_models_keep_their_reports(model, issues, warnings, unrestricted):
    report = validate_model(model)
    assert (report.issues, report.warnings, report.unrestricted_effects) == (issues, warnings, unrestricted)


def test_certified_pipeline_runs_no_svd_and_builds_no_effect_cone(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("the pipeline ran an SVD")

    ensembles = [uniform_vertex_ensemble(order) for order in range(3, 25)]
    ensembles.append(random_polygon_ensemble(np.random.default_rng(7)))
    n_certified = len(ensembles)  # the polygons' state facets are certified; the models below fail the certificate
    models = [hypercube_model(3), boxworld_model()] + [dataclasses.replace(case.values[0]) for case in REPORT_CASES]
    for model in models:  # built first: boxworld_model itself runs an SVD
        k = len(model.state_gens)
        ensembles.append(Ensemble(model=model, states=model.state_gens, priors=np.full(k, 1.0 / max(k, 1))))
    monkeypatch.setattr(np.linalg, "matrix_rank", forbidden)
    monkeypatch.setattr(np.linalg, "svd", forbidden)
    calls = counted_dual_cones(monkeypatch)
    certified = 0
    for i, ensemble in enumerate(ensembles):
        calls.clear()
        model = ensemble.model
        if validate_model(model).valid and ensemble.n_states:
            assert validate_ensemble(ensemble).valid
            assert verify_kkt(ensemble, solve_discrimination(ensemble)).passes()
            certified += 1
        assert calls == ([] if i < n_certified else [model.state_cone.n_generators])
    assert certified == len(ensembles) - 4  # "no-effects" is invalid, and three models have no states
    assert not hasattr(GptModel, "effect_cone")


def _unrestricted_check_models():
    for order in range(3, 33):
        model = polygon_model(order)
        yield model
        yield GptModel(
            dim=3,
            state_gens=model.state_gens,
            effect_gens=np.vstack([model.effect_gens[1:], model.unit_effect]),
            unit_effect=model.unit_effect,
        )
        scaled_effects = model.effect_gens.copy()
        scaled_effects[0] *= 3.0
        yield GptModel(dim=3, state_gens=model.state_gens, effect_gens=scaled_effects, unit_effect=model.unit_effect)
        scaled_states = model.state_gens.copy()
        scaled_states[0] *= 2.0
        yield GptModel(dim=3, state_gens=scaled_states, effect_gens=model.effect_gens, unit_effect=model.unit_effect)


def test_unrestricted_effects_matches_cone_equality_with_full_dual():
    restricted = 0
    for model in _unrestricted_check_models():
        full_dual = PolyhedralCone(model.dim, model.state_cone.facets)
        expected = cones_equal(effect_cone(model), full_dual)
        assert validate_model(model).unrestricted_effects is expected
        restricted += not expected
    assert restricted == 30


def test_state_cone_containing_a_line_is_invalid_through_normalization():
    model = polygon_model(4)
    w = model.state_gens[0]
    lined = GptModel(
        dim=3,
        state_gens=np.vstack([model.state_gens, -w]),
        effect_gens=model.effect_gens,
        unit_effect=model.unit_effect,
    )
    report = validate_model(lined)
    assert not report.valid
    assert any(issue.startswith("u[w]=1 violated for state generator 4, residual 2") for issue in report.issues)


def _counted(monkeypatch, name: str) -> list:
    """Patch ``gptdisc.model.<name>`` to record each call."""
    import gptdisc.model

    calls = []
    real = getattr(gptdisc.model, name)

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(gptdisc.model, name, counting)
    return calls


def _halved(order: int) -> GptModel:
    """The order-``order`` polygon with every other effect generator: restricted effects."""
    full = polygon_model(order)
    return dataclasses.replace(full, effect_gens=full.effect_gens[::2])


def test_a_repeat_model_validation_solves_no_lp(monkeypatch):
    model = _halved(8)
    calls = _counted(monkeypatch, "feasibility_gap")
    first = validate_model(model)
    assert len(calls) == 2  # the first unmatched facet, then u
    second = validate_model(model)
    assert len(calls) == 2 and second is not first
    assert (second.issues, second.warnings, second.unrestricted_effects) == ([], [RESTRICTED], False)


def test_a_returned_report_is_the_callers_own():
    model = _halved(6)
    report = validate_model(model)
    report.issues.append("edited")
    report.warnings.clear()
    report.unrestricted_effects = True
    again = validate_model(model)
    assert (again.issues, again.warnings, again.unrestricted_effects) == ([], [RESTRICTED], False)


def test_each_tol_has_its_own_verdict(monkeypatch):
    model = _halved(8)
    calls = _counted(monkeypatch, "feasibility_gap")
    for _ in range(2):
        assert validate_model(model, 1e-9).unrestricted_effects is False
        assert validate_model(model, 1e-3).unrestricted_effects is False
    assert len(calls) == 4  # two per tol, each on its first call


@pytest.mark.parametrize("tol", [np.array(1e-9), np.float64(1e-9)], ids=["0-d array", "float64"])
def test_a_numpy_scalar_tol_keys_the_verdict(monkeypatch, tol):
    model = _halved(8)
    calls = _counted(monkeypatch, "feasibility_gap")
    assert validate_model(model, tol).warnings == [RESTRICTED]
    assert validate_model(model, 1e-9).warnings == [RESTRICTED]
    assert len(calls) == 2


@pytest.mark.parametrize("tol", [float("nan"), 0.0, 1e-2])
def test_a_remembered_verdict_still_rejects_a_bad_tol(tol):
    model = polygon_model(5)
    assert validate_model(model).valid
    with pytest.raises(InvalidInputError, match="tol must lie in"):
        validate_model(model, tol)


def test_a_replaced_object_gets_its_own_verdict():
    full = polygon_model(10)
    assert validate_model(full).unrestricted_effects is True
    halved = dataclasses.replace(full, effect_gens=full.effect_gens[::2])
    assert validate_model(halved).unrestricted_effects is False
    assert validate_model(full).unrestricted_effects is True


def test_an_ensemble_is_validated_once_per_tol(monkeypatch):
    # The caller's validation, the solve's own and both certificate checks share one verdict per tol.
    calls = _counted(monkeypatch, "_validate_ensemble")
    ensemble = random_polygon_ensemble(np.random.default_rng(4))
    for _ in range(2):
        assert validate_ensemble(ensemble).valid
        solution = solve_discrimination(ensemble)
        assert verify_kkt(ensemble, solution).passes()
        assert congruence_check(solution).max_residual <= 1e-9
        assert validate_ensemble(ensemble, 1e-6).valid
    assert [tol for _, tol in calls] == [1e-9, 1e-6]
    replaced = dataclasses.replace(ensemble)
    assert set(vars(replaced)) == {"model", "states", "priors"}  # a replaced ensemble keeps nothing
    assert validate_ensemble(replaced).valid
    assert len(calls) == 3


def test_an_ensemble_report_is_the_callers_own():
    model = polygon_model(4)
    ensemble = Ensemble(model=model, states=model.state_gens[:3], priors=np.array([-0.25, 1.5, -0.25]))
    issues = ["prior 0 negative (-0.25)", "prior 2 negative (-0.25)"]
    report = validate_ensemble(ensemble)
    assert report.issues == issues
    report.issues.append("edited")
    report.warnings.append("edited")
    again = validate_ensemble(ensemble)
    assert (again.issues, again.warnings, again.unrestricted_effects) == (issues, [], None)
    for _ in range(2):  # the first solve and a repeat both refuse the ensemble
        with pytest.raises(InvalidInputError, match="prior 0 negative"):
            solve_discrimination(ensemble)


def test_weighted_states_are_one_read_only_array():
    ensemble = random_polygon_ensemble(np.random.default_rng(2))
    weighted = ensemble.weighted_states
    assert vars(ensemble)["weighted_states"] is weighted
    assert ensemble.weighted_states is weighted
    assert not weighted.flags.writeable
    with pytest.raises(ValueError):
        weighted[0, 0] = 1.0
    assert weighted.tobytes() == (ensemble.priors[:, None] * ensemble.states).tobytes()
    fresh = dataclasses.replace(ensemble)
    assert "weighted_states" not in vars(fresh)
    assert fresh.weighted_states is not weighted


#: Every public entry point that takes a tol, called on the uniform square, its solution and a tol.
TOL_ENTRY_POINTS = {
    "validate_model": lambda ensemble, solution, tol: validate_model(ensemble.model, tol),
    "validate_ensemble": lambda ensemble, solution, tol: validate_ensemble(ensemble, tol),
    "solve_discrimination": lambda ensemble, solution, tol: solve_discrimination(ensemble, tol).p_guess,
    "passes": lambda ensemble, solution, tol: verify_kkt(ensemble, solution).passes(tol),
    "congruence_check": lambda ensemble, solution, tol: congruence_check(solution, tol),
    "ratio_r": lambda ensemble, solution, tol: ratio_r(solution, tol),
    "symmetric_axis_k": lambda ensemble, solution, tol: symmetric_axis_k(ensemble, [0.0, 0.0, 1.0], tol).tolist(),
}


@pytest.mark.parametrize(
    "tol",
    [np.array([1e-9]), np.array([[1e-9]]), "1e-9", None, True, [[1e-9], []]],
    ids=["one-element", "one-by-one", "string", "none", "boolean", "ragged"],
)
@pytest.mark.parametrize("entry", TOL_ENTRY_POINTS)
def test_a_tol_that_is_not_a_real_scalar_is_rejected(entry, tol):
    # A one-element array passed the range test: validate_model then raised a bare TypeError on numpy 2
    # (an array cannot key a dict), solve_discrimination an IndexError, and passes() answered.
    ensemble = uniform_vertex_ensemble(4)
    solution = solve_discrimination(ensemble)
    with pytest.raises(InvalidInputError, match="tol must be a real scalar"):
        TOL_ENTRY_POINTS[entry](ensemble, solution, tol)


@pytest.mark.parametrize("tol", [np.array(1e-9), np.float64(1e-9)], ids=["0-d array", "float64"])
@pytest.mark.parametrize("entry", TOL_ENTRY_POINTS)
def test_a_numpy_scalar_tol_acts_as_its_float(entry, tol):
    ensemble = uniform_vertex_ensemble(4)
    solution = solve_discrimination(ensemble)
    expected = TOL_ENTRY_POINTS[entry](ensemble, solution, 1e-9)
    assert TOL_ENTRY_POINTS[entry](ensemble, solution, tol) == expected


@pytest.mark.parametrize(
    "tol", [1e-9, np.float64(1e-9), np.array(1e-9), np.float32(1e-4)], ids=["float", "float64", "0-d array", "float32"]
)
def test_check_tol_returns_a_plain_float(tol):
    checked = check_tol(tol)
    assert type(checked) is float and checked == float(tol)
