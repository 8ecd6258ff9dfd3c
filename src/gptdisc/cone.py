"""Polyhedral cone utilities: membership, dual cones, and the effect order.

Cones are kept in generator (V-) representation.  Dual cones come from
exact double description, one cut per generator: each cut appends its
adjacent ray combinations and one column of tight rays, and adjacency is
decided from those tight sets by set arithmetic alone, so no LP is
solved.  The facets of a cone are the generators of its dual, computed
at most once per cone object (an unrestricted effect cone takes the unit
state generators); one matrix product against them decides membership
of every row of a point matrix.  The work of a dual is bounded by
``MAX_DUAL_ENTRIES``, not by the ambient dimension.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import InvalidInputError, UnsupportedSizeError, finite_array

#: Largest 0/1 product (entries) one double-description step may form; 2**24 float32 entries are 64 MiB.
MAX_DUAL_ENTRIES = 2**24

_ZERO_NORM = 1e-12
#: Products of a unit ray or line with a unit cut normal this small count as zero.
_TIGHT = 1e-10
_PARALLEL_COS = 1.0 - 1e-12


def _dedupe_rays(rays: np.ndarray) -> np.ndarray:
    """Drop zero rays and rays parallel to an earlier nonzero ray (equal up to positive scale)."""
    norms = np.linalg.norm(rays, axis=1)
    nonzero = norms > _ZERO_NORM
    units = rays[nonzero] / norms[nonzero, None]
    parallel = np.triu(units @ units.T >= _PARALLEL_COS, k=1)  # parallel[i, j]: i < j and j repeats i
    return rays[nonzero][~parallel.any(axis=0)]


@dataclass(frozen=True)
class PolyhedralCone:
    """Convex cone generated by nonnegative combinations of ``generators``."""

    dim: int
    generators: np.ndarray

    def __post_init__(self):
        if self.dim <= 0:
            raise InvalidInputError("cone dimension must be positive")
        gens = self.generators
        if isinstance(gens, (list, tuple)) and not gens:  # an empty list has no second axis
            gens = np.zeros((0, self.dim))
        gens = _dedupe_rays(finite_array(gens, "generators", (None, self.dim)))
        gens.setflags(write=False)
        object.__setattr__(self, "generators", gens)

    @property
    def n_generators(self) -> int:
        return self.generators.shape[0]

    @cached_property
    def facets(self) -> np.ndarray:
        """Unit inner normals of the cone: the generators of its dual, each line as ``l, -l``."""
        return dual_cone(self).generators


def member_of(cone: PolyhedralCone, v, tol: float = 1e-9) -> bool:
    """True iff ``v`` is a nonnegative combination of the cone generators within ``tol``.

    That is ``f . v >= -tol`` for every unit facet normal ``f`` (see
    :func:`inside`), so no LP is solved.  Raises :class:`UnsupportedSizeError`
    when the facets are not cached yet and computing them passes ``MAX_DUAL_ENTRIES``.
    """
    vec = np.asarray(v, dtype=float)
    if vec.shape != (cone.dim,):
        raise InvalidInputError(f"vector has shape {vec.shape}, expected ({cone.dim},)")
    return bool(inside(cone.facets, vec[None], tol)[0])


def cone_ge(v, w, test_cone: PolyhedralCone, tol: float = 1e-9) -> bool:
    """Order relation induced by ``test_cone``: ``v >= w`` iff ``g.(v-w) >= -tol`` for every generator ``g``."""
    a = np.asarray(v, dtype=float)
    b = np.asarray(w, dtype=float)
    if a.shape != (test_cone.dim,) or b.shape != (test_cone.dim,):
        raise InvalidInputError("dimension mismatch in cone_ge")
    return bool(inside(test_cone.generators, (a - b)[None], tol)[0])


def inside(normals: np.ndarray, points: np.ndarray, tol: float) -> np.ndarray:
    """One bool per row ``v`` of ``points``: ``f . v >= -tol`` for every row ``f`` of ``normals`` (facets or generators)."""
    return (points @ normals.T).min(axis=1, initial=0.0) >= -tol


def dual_cone(cone: PolyhedralCone) -> PolyhedralCone:
    """Generators of ``{y : y . g >= 0 for every generator g}`` via double description.

    Starts from all of R^d (a basis of lines, no rays) and intersects one
    halfspace per unit generator, in generator order.  A cut that meets
    the lineality space turns its best line into a ray and projects the
    other lines and rays onto the cut's hyperplane.  Any other cut keeps
    the rays on its nonnegative side and appends the unit combination of
    each adjacent (+, -) pair: no third ray is tight on every cut tight at
    both (Fukuda & Prodon 1996).  Every cut, one that removes no ray too,
    appends its column of tight rays to a float32 0/1 matrix, whose
    products count shared cuts exactly below 2**24 cuts; no LP is solved.
    Raises :class:`UnsupportedSizeError` before a product passes
    ``MAX_DUAL_ENTRIES`` entries.  Output rays are unit length, and each
    remaining line ``l`` is returned as the pair ``l, -l``.  For pointed
    full-dimensional cones, applying this twice recovers the original
    generator set up to positive scaling and ordering.
    """
    d = cone.dim
    lines = np.eye(d)
    rays = np.zeros((0, d))
    tight = np.zeros((0, 0), dtype=np.float32)  # tight[i, j] = 1: ray i is tight on cut j
    for cut in cone.generators / np.linalg.norm(cone.generators, axis=1, keepdims=True):
        if len(lines) and np.abs(line_products := lines @ cut).max() > _TIGHT:
            pivot = int(np.argmax(np.abs(line_products)))
            line = lines[pivot] / line_products[pivot]  # line . cut = 1
            lines = np.delete(lines - np.outer(line_products, line), pivot, axis=0)
            lines /= np.linalg.norm(lines, axis=1, keepdims=True)
            rays = np.concatenate([rays - np.outer(rays @ cut, line), line[None]])
            rays /= np.linalg.norm(rays, axis=1, keepdims=True)
            # Lines are tight on every earlier cut; projected rays are now tight on this one.
            tight = np.concatenate([tight, np.ones((1, tight.shape[1]), dtype=np.float32)])
            column = np.arange(len(rays)) < len(rays) - 1
        else:
            products = rays @ cut
            sign = (products > _TIGHT).view(np.int8) - (products < -_TIGHT).view(np.int8)
            column = sign == 0
            minus = np.flatnonzero(sign < 0)
            if len(minus):
                plus = np.flatnonzero(sign > 0)
                # An adjacent pair spans a 2-face, so at least d - lines - 2 cuts are tight at both.
                _check_entries(len(plus) * len(minus))
                shared = tight[plus] @ tight[minus].T
                pi, mi = np.nonzero(shared >= d - len(lines) - 2)
                common = tight[plus[pi]] * tight[minus[mi]]
                # The pair is adjacent when no third ray is tight on every cut in ``common``.
                _check_entries(len(pi) * len(rays))
                adjacent = ((common @ tight.T) == shared[pi, mi, None]).sum(axis=1) == 2
                p, m = plus[pi[adjacent]], minus[mi[adjacent]]
                combos = products[p, None] * rays[m] - products[m, None] * rays[p]
                keep = sign >= 0
                rays = np.concatenate([rays[keep], combos / np.linalg.norm(combos, axis=1, keepdims=True)])
                tight = np.concatenate([tight[keep], common[adjacent]])
                column = np.concatenate([column[keep], np.ones(len(p), dtype=bool)])
        tight = np.concatenate([tight, column[:, None]], axis=1)
    return PolyhedralCone(d, np.concatenate([rays, lines, -lines]))


def _check_entries(count: int) -> None:
    if count > MAX_DUAL_ENTRIES:
        raise UnsupportedSizeError(f"dual cone product has {count} entries, over MAX_DUAL_ENTRIES = {MAX_DUAL_ENTRIES}")


def cones_equal(a: PolyhedralCone, b: PolyhedralCone, tol: float = 1e-9) -> bool:
    """Set equality of two cones, decided by mutual generator membership."""
    if a.dim != b.dim:
        raise InvalidInputError("cones live in different dimensions")
    return bool(inside(b.facets, a.generators, tol).all() and inside(a.facets, b.generators, tol).all())
