import itertools

import numpy as np
import pytest

import gptdisc.cone as cone
from gptdisc import Ensemble, GptModel, LpProblem, PolyhedralCone, dual_cone, polygon_model
from gptdisc.discrimination import _build_primal, _reward_matrix
from gptdisc.errors import finite_array
from gptdisc.lp import INFEASIBLE, OPTIMAL, UNBOUNDED, LpSolution, certificate_residual
from gptdisc.oracle import ORACLE_FEASIBILITY_TOL, OracleResult, _nonsingular
from gptdisc.polygon import _polygon_model


def random_polygon_ensemble(rng: np.random.Generator) -> Ensemble:
    """Random mixed states on a random polygon model with random priors."""
    order = int(rng.integers(3, 9))
    model = polygon_model(order)
    n_states = int(rng.integers(2, 7))
    weights = rng.random((n_states, order))
    weights /= weights.sum(axis=1, keepdims=True)
    priors = rng.random(n_states)
    priors /= priors.sum()
    return Ensemble(model=model, states=weights @ model.state_gens, priors=priors)


def random_polytope_model(rng: np.random.Generator, d: int, k: int) -> GptModel:
    """Model whose states are k Gaussian points of the plane u = e_d and whose effects span the full dual."""
    states = np.hstack([rng.normal(size=(k, d - 1)), np.ones((k, 1))])
    effects = dual_cone(PolyhedralCone(d, states)).generators
    effects = effects / (states @ effects.T).max(axis=0)[:, None]
    return GptModel(dim=d, state_gens=states, effect_gens=effects, unit_effect=np.eye(d)[-1])


def _signs(n: int) -> np.ndarray:
    """All 2^n sign vectors in {-1, 1}^n as rows."""
    return np.array(list(itertools.product([-1.0, 1.0], repeat=n)))


def hypercube_model(n: int) -> GptModel:
    """The n-cube ("squit"; n = 2 is the gbit) in d = n + 1: 2^n states (s, 1), 2n effects (1 +- x_i)/2, u = e_d."""
    states = np.hstack([_signs(n), np.ones((2**n, 1))])
    effects = np.hstack([np.vstack([np.eye(n), -np.eye(n)]), np.ones((2 * n, 1))]) / 2.0
    return GptModel(dim=n + 1, state_gens=states, effect_gens=effects, unit_effect=np.eye(n + 1)[-1])


def cross_polytope_model(n: int) -> GptModel:
    """The n-cross-polytope in d = n + 1: 2n states (+-e_i, 1), 2^n effects (1 + s.x)/2, u = e_d."""
    states = np.hstack([np.vstack([np.eye(n), -np.eye(n)]), np.ones((2 * n, 1))])
    effects = np.hstack([_signs(n), np.ones((2**n, 1))]) / 2.0
    return GptModel(dim=n + 1, state_gens=states, effect_gens=effects, unit_effect=np.eye(n + 1)[-1])


def boxworld_model() -> GptModel:
    """Two gbits under no-signaling ("boxworld"; Barrett, PRA 75, 032304, 2007) in d = 9.

    The 16 coordinates ``p(ab|xy)`` (index 8x + 4y + 2a + b) are projected
    onto the 9-d span of the 24 vertices: first the 16 local deterministic
    boxes ``[a = f(x)][b = g(y)]``, then the 8 PR boxes ``[a + b = xy + sx + ty + c (mod 2)] / 2``.
    The effects are the 16 coordinates and ``u = sum_ab p(ab|00)``.
    """
    x, y, a, b = np.array(list(itertools.product([0, 1], repeat=4))).T
    functions = np.array(list(itertools.product([0, 1], repeat=2)))  # f as the table (f(0), f(1))
    local = [(a == f[x]) & (b == g[y]) for f in functions for g in functions]
    pr = [((a + b) % 2 == (x * y + s * x + t * y + c) % 2) / 2.0 for s, t, c in itertools.product([0, 1], repeat=3)]
    boxes = np.array(local + pr, dtype=float)
    basis = np.linalg.svd(boxes)[2][:9]  # orthonormal rows spanning the boxes, which have rank 9
    return GptModel(dim=9, state_gens=boxes @ basis.T, effect_gens=basis.T, unit_effect=basis[:, :4].sum(axis=1))


def slack_form(c, a_ub, b_ub) -> LpProblem:
    """Standard form of ``min c.x s.t. a_ub x <= b_ub, x >= 0``: one zero-cost slack per row."""
    a_ub = np.asarray(a_ub, dtype=float)
    m = a_ub.shape[0]
    return LpProblem(np.concatenate([c, np.zeros(m)]), np.hstack([a_ub, np.eye(m)]), b_ub)


def measurement_lp(ensemble: Ensemble) -> LpProblem:
    """The measurement LP that ``solve_discrimination`` solves: one column per effect generator."""
    return _build_primal(ensemble.model, _reward_matrix(ensemble))


def full_measurement_lp(ensemble: Ensemble) -> LpProblem:
    """Measurement LP over every coefficient ``c[x, j]``: column ``x * g + j`` carries ``g_j`` with reward ``q_x g_j[w_x]``."""
    gens = ensemble.model.effect_gens
    n, g = ensemble.n_states, gens.shape[0]
    objective = -(ensemble.priors[:, None] * (ensemble.states @ gens.T)).reshape(n * g)
    return LpProblem(objective, np.tile(gens.T, n), ensemble.model.unit_effect)


def check_certificate(problem: LpProblem, solution: LpSolution, tol: float = 1e-9) -> bool:
    """True iff ``solution`` is optimal and its :func:`certificate_residual` is at most ``tol``."""
    if solution.status != OPTIMAL or solution.x is None or solution.y is None:
        return False
    return certificate_residual(problem, solution) <= tol


def brute_force_lp(problem: LpProblem, tol: float = 1e-9) -> tuple[str, float | None]:
    """Solve a small standard-form LP by enumerating all basic solutions.

    Returns ``(status, objective)`` where the objective is None unless
    optimal.  Unboundedness is detected by scanning improving extreme
    rays at every feasible basis, so the result is complete for pointed
    standard-form feasible regions.
    """
    a = problem.eq_matrix
    b = problem.eq_rhs
    c = problem.objective
    m, n = a.shape
    if m == 0:
        return (OPTIMAL, 0.0) if np.all(c >= -tol) else (UNBOUNDED, None)
    if m > n:
        reduced_rows = _independent_rows(a, b)
        if reduced_rows is None:
            return (INFEASIBLE, None)
        a, b = reduced_rows
        m = a.shape[0]

    best: float | None = None
    unbounded = False
    idx = np.array(list(itertools.combinations(range(n), m)))
    mats = a.T[idx].transpose(0, 2, 1)  # (subsets, m, m); columns follow the basis
    for basis, mat, ok in zip(idx, mats, _nonsingular(mats)):
        if not ok:
            continue
        x_basis = np.linalg.solve(mat, b)
        if x_basis.min(initial=0.0) < -tol:
            continue
        value = float(c[basis] @ x_basis)
        best = value if best is None else min(best, value)
        nonbasic = np.setdiff1d(np.arange(n), basis)
        if nonbasic.size:
            directions = np.linalg.solve(mat, a[:, nonbasic])  # B^{-1} A_j per column
            ray_feasible = np.all(directions <= tol, axis=0)
            reduced = c[nonbasic] - c[basis] @ directions
            if np.any(ray_feasible & (reduced < -tol)):
                unbounded = True
    if unbounded:
        return (UNBOUNDED, None)
    if best is None:
        return (INFEASIBLE, None)
    return (OPTIMAL, best)


def _independent_rows(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray] | None:
    """Greedy maximal independent row subset of ``A x = b``; None if the system is inconsistent."""
    kept: list[int] = []
    for i in range(a.shape[0]):
        if np.linalg.matrix_rank(a[kept + [i]]) > len(kept):
            kept.append(i)
        elif np.linalg.matrix_rank(np.hstack([a, b[:, None]])[kept + [i]]) > len(kept):
            return None  # row is dependent in A but not in [A|b]
    return a[kept], b[kept]


def all_subsets_vertex_enumeration(ensemble: Ensemble) -> OracleResult:
    """The dual ``min u[K] s.t. K >= q_x w_x`` by solving every dim-subset of the N*g constraints on its own.

    The constraints ``g_j[K] >= g_j[q_x w_x]`` are tiled x-major, and each
    of the C(N*g, dim) subsets, including those that repeat a generator, is
    filtered and solved as its own system: the reference for
    ``dual_vertex_enumeration``, which factors each generator subset once.
    """
    model, dim = ensemble.model, ensemble.model.dim
    normals = np.tile(model.effect_gens, (ensemble.n_states, 1))  # (n*g, dim), x-major
    rhs = (ensemble.weighted_states @ model.effect_gens.T).reshape(-1)
    subsets = np.array(list(itertools.combinations(range(normals.shape[0]), dim)))
    mats = normals[subsets]
    solvable = _nonsingular(mats)
    candidates = np.linalg.solve(mats[solvable], rhs[subsets][solvable][..., None])[..., 0]
    vertices = candidates[np.all(candidates @ normals.T >= rhs - ORACLE_FEASIBILITY_TOL, axis=1)]
    objectives = vertices @ model.unit_effect
    best = float(objectives.min())
    k = min(map(tuple, vertices[objectives <= best + 1e-12]))
    return OracleResult(p_guess=best, k=np.array(k), vertices_examined=int(vertices.shape[0]))


def effects_of(solution) -> np.ndarray:
    """The effects ``e_x = sum_j C[x, j] g_j`` of a solution's measurement, as rows."""
    return solution.coefficients @ solution.ensemble.model.effect_gens


def evaluate(effect, state) -> float:
    """Probability pairing of an effect and a state (Euclidean inner product)."""
    e = finite_array(effect, "effect", (None,))
    return float(e @ finite_array(state, "state", e.shape))


def effect_cone(model: GptModel) -> PolyhedralCone:
    """The cone of a model's supplied effect generators."""
    return PolyhedralCone(model.dim, model.effect_gens)


def cone_ge(v, w, test_cone: PolyhedralCone, tol: float = 1e-9) -> bool:
    """Order relation induced by ``test_cone``: ``v >= w`` iff ``g.(v-w) >= -tol`` for every generator ``g``."""
    a = finite_array(v, "v", (test_cone.dim,))
    b = finite_array(w, "w", (test_cone.dim,))
    return bool(cone.inside(test_cone.generators, (a - b)[None], tol)[0])


def same_generator_set(a: PolyhedralCone, b: PolyhedralCone, tol: float = 1e-9) -> bool:
    """True iff the generator sets coincide up to positive scaling and order."""
    if a.dim != b.dim or a.n_generators != b.n_generators:
        return False
    if a.n_generators == 0:
        return True
    ua = a.generators / np.linalg.norm(a.generators, axis=1, keepdims=True)
    ub = b.generators / np.linalg.norm(b.generators, axis=1, keepdims=True)
    unmatched = list(range(ub.shape[0]))
    for ga in ua:
        hit = next((k for k in unmatched if np.linalg.norm(ga - ub[k]) <= tol), None)
        if hit is None:
            return False
        unmatched.remove(hit)
    return True


def counted_dual_cones(monkeypatch) -> list[int]:
    """Patch ``dual_cone`` to record the generator count of every cone it dualizes."""
    calls = []
    real_dual_cone = cone.dual_cone

    def counting_dual_cone(c):
        calls.append(c.n_generators)
        return real_dual_cone(c)

    monkeypatch.setattr(cone, "dual_cone", counting_dual_cone)
    return calls


@pytest.fixture(autouse=True)
def _unshared_polygon_models():
    """Start each test with no shared polygon model, so no earlier test has done the work that a test counts."""
    _polygon_model.cache_clear()


@pytest.fixture
def triangle_model():
    return polygon_model(3)


@pytest.fixture
def square_model():
    return polygon_model(4)
