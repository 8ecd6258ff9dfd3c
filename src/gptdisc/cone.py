"""Polyhedral cone utilities: membership and dual cones.

Cones are kept in generator (V-) representation.  Dual cones come from
exact double description, one cut per generator: each cut writes its
tight column and adjacent ray combinations in place, into buffers that
double when full, and adjacency is decided from those tight sets by set
arithmetic alone, so no LP is solved.  The facets of a cone are the
generators of its dual, computed at most once per cone object, and the
dual's lines give the rank of the generators; one matrix product against
the facets decides membership of every row of a point matrix.
:func:`certified_facets` reads the facets off given candidate normals
instead, when their tight sets prove that they are all the facets; only a
cone that fails that certificate needs the double description, whose work
is bounded by ``MAX_DUAL_ENTRIES``, not by the dimension.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import InvalidInputError, UnsupportedSizeError, check_dim, finite_array, owned

#: Largest 0/1 product (entries) one double-description step may form; 2**24 float32 entries are 64 MiB.
MAX_DUAL_ENTRIES = 2**24

_ZERO_NORM = 1e-12
#: Products of a unit ray or line with a unit cut normal this small count as zero.
_TIGHT = 1e-10
_PARALLEL_COS = 1.0 - 1e-12


def unit_rows(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The mask of rows whose norm passes ``1e-12`` and those rows scaled to unit length."""
    rows = np.ascontiguousarray(rows)  # in C order a row's norm sums alike in any subset of the rows
    norms = _norms(rows)
    nonzero = norms[:, 0] > _ZERO_NORM
    return nonzero, rows[nonzero] / norms[nonzero]


def _dedupe_rays(rays: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Drop zero rays and rays parallel to an earlier nonzero ray (equal up to positive scale); also the kept units."""
    nonzero, units = unit_rows(rays)
    order = np.arange(len(units))
    parallel = (units @ units.T >= _PARALLEL_COS) & (order[:, None] < order)  # parallel[i, j]: i < j and j repeats i
    kept = ~parallel.any(axis=0)
    return rays[nonzero][kept], units[kept]


@dataclass(frozen=True, eq=False)
class PolyhedralCone:
    """Convex cone generated by nonnegative combinations of ``generators``.

    The constructor drops zero and repeated rays and keeps the remaining
    generators scaled to unit length as ``units``.  ``lineality`` is the
    dimension of the cone's lineality space when :func:`dual_cone` built
    the cone (its last ``2 * lineality`` generators are the lines ``l, -l``),
    0 for certified facets, else None.
    """

    dim: int
    generators: np.ndarray
    units: np.ndarray = field(init=False, repr=False)
    lineality: int | None = field(default=None, init=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "dim", check_dim(self.dim))
        gens = self.generators
        if isinstance(gens, (list, tuple)) and not gens:  # an empty list has no second axis
            gens = np.zeros((0, self.dim))
        gens, units = _dedupe_rays(finite_array(gens, "generators", (None, self.dim)))
        gens.setflags(write=False)
        units.setflags(write=False)
        object.__setattr__(self, "generators", gens)
        object.__setattr__(self, "units", units)

    @property
    def n_generators(self) -> int:
        return self.generators.shape[0]

    @cached_property
    def dual(self) -> PolyhedralCone:
        """The dual cone, computed at most once per cone object; a model's state cone may come with it set."""
        return dual_cone(self)

    @property
    def facets(self) -> np.ndarray:
        """Unit inner normals of the cone: the generators of its dual, each line as ``l, -l``."""
        return self.dual.generators

    @property
    def rank(self) -> int:
        """Dimension of the span of the generators: ``dim`` less the dual's lines, which span its complement."""
        return self.dim - self.dual.lineality


def member_of(cone: PolyhedralCone, v, tol: float = 1e-9) -> bool:
    """True iff ``v`` is a nonnegative combination of the cone generators within ``tol``.

    That is ``f . v >= -tol`` for every unit facet normal ``f`` (see :func:`inside`), so no LP
    is solved.  Raises :class:`InvalidInputError` unless ``v`` is a finite vector of length ``dim``,
    and :class:`UnsupportedSizeError` when uncached facets would pass ``MAX_DUAL_ENTRIES``.
    """
    vec = finite_array(v, "vector", (cone.dim,))
    return bool(inside(cone.facets, vec[None], tol)[0])


def inside(normals: np.ndarray, points: np.ndarray, tol: float) -> np.ndarray:
    """One bool per row ``v`` of ``points``: ``f . v >= -tol`` for every row ``f`` of ``normals`` (facets or generators)."""
    return np.minimum.reduce(points @ normals.T, axis=1, initial=0.0) >= -tol


def dual_cone(cone: PolyhedralCone) -> PolyhedralCone:
    """Generators of ``{y : y . g >= 0 for every generator g}`` via double description.

    Starts from all of R^d (a basis of lines, no rays) and intersects one
    halfspace per generator, in generator order, with the cone's unit
    ``units`` as the cut normals.  A cut that meets the lineality space
    turns its best line into a ray and projects the other lines and rays
    onto the cut's hyperplane.  Any other cut keeps the rays on its
    nonnegative side and adds the unit combination of each adjacent (+, -)
    pair: no third ray is tight on every cut tight at both (Fukuda &
    Prodon 1996).  Each cut writes its column, 1 on the rays tight on it or
    removed by it, into a float32 0/1 matrix of full width, whose products
    over earlier columns count shared cuts exactly below 2**24 cuts.  Rays
    and tight sets grow in place: new rays, tight on the cut, reuse removed
    rays' rows, rows from the end fill the remaining holes, and buffers
    double when full, so the output order is not guaranteed.  Raises
    :class:`UnsupportedSizeError`, naming the cut, before a product passes
    ``MAX_DUAL_ENTRIES`` entries.  Output rays are unit and pairwise
    non-parallel, so they skip the constructor's checks and serve as their
    own ``units``.  Each remaining line ``l`` comes as ``l, -l``, and the
    output's ``lineality`` counts them: they span the orthogonal complement
    of the input's generators, so ``dim - lineality`` is their rank.
    """
    d = cone.dim
    cuts = cone.units
    lines = np.eye(d)
    # Rows :count are the live rays; tight[i, j] = 1: ray i is tight on cut j, for the cuts made so far.
    rays = np.empty((max(len(cuts), d), d))
    tight = np.empty((len(rays), len(cuts)), dtype=np.float32)
    count = 0
    for j, cut in enumerate(cuts):
        if len(lines):
            line_products = lines @ cut
            pivot = int(np.abs(line_products).argmax())
            if abs(line_products[pivot]) > _TIGHT:
                line = lines[pivot] / line_products[pivot]  # line . cut = 1
                others = np.arange(len(lines)) != pivot  # the other lines, projected onto the cut's hyperplane
                lines = lines[others] - line_products[others, None] * line
                lines /= _norms(lines)
                rays, tight = _room(rays, count, count + 1), _room(tight, count, count + 1)
                rays[:count] -= (rays[:count] @ cut)[:, None] * line
                rays[count] = line
                rays[: count + 1] /= _norms(rays[: count + 1])
                # Lines are tight on every earlier cut; projected rays are now tight on this one.
                tight[count, :j], tight[:count, j], tight[count, j] = 1, 1, 0
                count += 1
                continue
        products = rays[:count] @ cut
        tight[:count, j] = products <= _TIGHT  # the tight rays, and the minus rays whose rows go or take new rays
        minus = (products < -_TIGHT).nonzero()[0]
        if not len(minus):
            continue
        plus = (products > _TIGHT).nonzero()[0]
        # An adjacent pair spans a 2-face, so at least d - lines - 2 cuts are tight at both.
        _check_entries(len(plus) * len(minus), j, len(cuts))
        live = tight[:count, :j]
        plus_tight, minus_tight = live[plus], live[minus]
        shared = plus_tight @ minus_tight.T
        pi, mi = (shared >= d - len(lines) - 2).nonzero()
        common = plus_tight[pi] * minus_tight[mi]
        # The pair is adjacent when no third ray is tight on every cut in ``common``.
        _check_entries(len(pi) * count, j, len(cuts))
        adjacent = ((common @ live.T) == shared[pi, mi, None]).sum(axis=1) == 2
        p, m = plus[pi[adjacent]], minus[mi[adjacent]]
        combos = products[p][:, None] * rays[m] - products[m][:, None] * rays[p]
        end = count + len(p) - len(minus)
        if end > count:  # the removed rays' rows, then rows at the end
            rays, tight = _room(rays, count, end), _room(tight, count, end)
            rows = np.concatenate([minus, np.arange(count, end)])
            tight[count:end, j] = 1
        else:
            rows = minus[: len(p)]
        rays[rows] = combos / _norms(combos)
        tight[rows, :j] = common[adjacent]
        if end < count:  # live rows past ``end`` fill the holes below it
            holes = minus[len(p) :]
            kept = np.ones(count, dtype=bool)
            kept[holes] = False
            tail = end + kept[end:].nonzero()[0]
            rays[holes[: len(tail)]] = rays[tail]
            tight[holes[: len(tail)], : j + 1] = tight[tail, : j + 1]
        count = end
    rays = np.concatenate([rays[:count], lines, -lines])
    return owned(PolyhedralCone, dim=d, generators=rays, units=rays, lineality=len(lines))


def certified_facets(cone: PolyhedralCone, normals: np.ndarray) -> np.ndarray | None:
    """The unit facet normals of ``cone`` among the unit rows of ``normals``, or None when that is not certain.

    A candidate is a row that is nonnegative on every unit generator of the
    cone and tight on exactly ``d - 1`` of them, which are independent (a
    nonzero determinant with the row): it is a simplicial facet.  When at
    least ``d`` candidates have pairwise distinct tight sets and every ridge,
    a tight set less one generator, lies in exactly two of them, the
    candidates are closed under adjacency in the facet-ridge graph.  That
    graph is connected (Balinski 1961), so they are all the facets and the
    cone is pointed with rank ``d``.  Anything else returns None, for
    :func:`dual_cone` to decide: non-simplicial facets, missing, repeated or
    parallel facet normals, non-extreme generators and rank-deficient cones.
    """
    d, gens = cone.dim, cone.units
    products = normals @ gens.T
    tight = np.abs(products) <= _TIGHT
    candidate = (products >= -_TIGHT).all(axis=1) & (tight.sum(axis=1) == d - 1)
    facets, tight = normals[candidate], tight[candidate]
    if d < 2 or len(facets) < d:
        return None
    sets = tight.nonzero()[1].reshape(len(facets), d - 1)  # each candidate's tight generators, ascending
    if not (np.abs(np.linalg.det(np.concatenate([gens[sets], facets[:, None]], axis=1))) > _TIGHT).all():
        return None
    others = (~np.eye(d - 1, dtype=bool)).nonzero()[1].reshape(d - 1, d - 2)  # row k: the positions but k
    ridges = _sorted_rows(sets[:, others].reshape(len(sets) * (d - 1), d - 2))
    sets = _sorted_rows(sets)
    if (sets[1:] == sets[:-1]).all(axis=1).any() or len(ridges) % 2:
        return None
    # Sorted, each ridge lies in exactly two facets when rows 2i and 2i + 1 are equal and 2i + 1 and 2i + 2 are not.
    paired = (ridges[::2] == ridges[1::2]).all() and (ridges[1:-1:2] != ridges[2::2]).any(axis=1).all()
    return facets if paired else None


def _sorted_rows(rows: np.ndarray) -> np.ndarray:
    """The rows of an integer matrix in lexicographic order."""
    return rows[np.lexsort(rows.T[::-1])] if rows.shape[1] else rows


def _norms(rows: np.ndarray) -> np.ndarray:
    """Euclidean norm of each row as a column, summed as ``np.linalg.norm(rows, axis=1)`` sums it."""
    return np.sqrt(np.add.reduce(rows * rows, axis=1, keepdims=True))


def _room(buffer: np.ndarray, count: int, rows: int) -> np.ndarray:
    """``buffer`` if it has ``rows`` rows, else its first ``count`` rows in a buffer at least twice as long."""
    if rows <= len(buffer):
        return buffer
    grown = np.empty((max(rows, 2 * len(buffer)), buffer.shape[1]), dtype=buffer.dtype)
    grown[:count] = buffer[:count]
    return grown


def _check_entries(count: int, cut: int, n_cuts: int) -> None:
    if count > MAX_DUAL_ENTRIES:
        limit = f"MAX_DUAL_ENTRIES = {MAX_DUAL_ENTRIES}"
        raise UnsupportedSizeError(f"dual cone product has {count} entries, over {limit} at cut {cut + 1} of {n_cuts}")


def cones_equal(a: PolyhedralCone, b: PolyhedralCone, tol: float = 1e-9) -> bool:
    """Set equality of two cones, decided by mutual generator membership."""
    if a.dim != b.dim:
        raise InvalidInputError("cones live in different dimensions")
    return bool(inside(b.facets, a.generators, tol).all() and inside(a.facets, b.generators, tol).all())
