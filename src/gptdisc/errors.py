"""Exception hierarchy shared across the package, and the two ways a record takes its arrays.

Every value that enters the package (model and ensemble coordinates, measurements, LP data,
cone generators, the numbers of a solution file) passes through :func:`finite_array`, a
dimension through :func:`check_dim` and a tolerance through :func:`check_tol`, so a malformed
value raises :class:`InvalidInputError` wherever it arrives.  Arrays the package formed itself
from checked values go into their records through :func:`owned`, unchecked.
"""

import numpy as np

#: Largest tolerance the solver, the LP engine, the validators and the ``--tol`` option accept.
MAX_TOL = 1e-3


class GptDiscError(Exception):
    """Base class for all errors raised by this package."""


class InvalidInputError(GptDiscError, ValueError):
    """Malformed or inconsistent input (dimension mismatch, bad file, ...)."""


class PreconditionError(GptDiscError, ValueError):
    """A documented precondition of an operation does not hold."""


class UnsupportedSizeError(GptDiscError, ValueError):
    """Problem size exceeds the work bound of the brute-force oracle or of ``dual_cone`` (so of any uncertified facet read)."""


class UndefinedRatioError(GptDiscError, ValueError):
    """The polytope ratio is undefined (all complementary pairs degenerate)."""


class NumericalFailureError(GptDiscError, RuntimeError):
    """A numerical routine failed to converge (e.g. simplex cycling guard)."""


class InternalInconsistencyError(GptDiscError, RuntimeError):
    """An internal cross-check failed; indicates a solver bug, not bad input."""


def finite_array(value, name: str, shape: tuple) -> np.ndarray:
    """Read-only float copy of ``value`` with the given ``shape`` and finite entries.

    ``shape`` has one entry per axis: an int fixes that axis's length,
    None admits any length, and ``()`` asks for a scalar.  Raises
    :class:`InvalidInputError` when ``value`` is not an array of integers
    or floats (a ragged list, a string, a boolean, None), when the shape
    differs, or when an entry is NaN or infinite.  A boolean among numbers
    is found by a scan of the nested lists, which an ndarray skips.
    """
    try:
        arr = np.array(value)
    except (TypeError, ValueError) as exc:
        raise InvalidInputError(f"{name} is not an array of numbers: {exc}") from exc
    if arr.dtype.kind not in "iuf":  # numpy would read "0.5" and true as numbers
        raise InvalidInputError(f"{name} is not an array of numbers (dtype {arr.dtype})")
    if not isinstance(value, np.ndarray) and _has_bool(value):  # [True, 0.5] reads as float64
        raise InvalidInputError(f"{name} is not an array of numbers (it contains a boolean)")
    arr = arr.astype(float, copy=False)
    if arr.ndim != len(shape) or any(n is not None and n != got for n, got in zip(shape, arr.shape)):
        expected = ", ".join("k" if n is None else str(n) for n in shape)
        raise InvalidInputError(f"{name} has shape {arr.shape}, expected ({expected})")
    if not np.isfinite(arr).all():
        raise InvalidInputError(f"{name} contains non-finite entries")
    arr.setflags(write=False)
    return arr


def check_tol(tol) -> float:
    """``tol`` as a float; :class:`InvalidInputError` unless it is a real scalar with ``0 < tol <= MAX_TOL``.

    A Python or numpy integer or float, or a 0-d array of one, is a real scalar; a one-element array,
    a string, a boolean or None is not.  NaN and infinities miss the range.
    """
    if type(tol) is not float:  # a plain float, the usual tol, needs no conversion
        try:
            arr = np.asarray(tol)
        except (TypeError, ValueError):  # a ragged list
            arr = np.asarray(None)
        if arr.shape != () or arr.dtype.kind not in "iuf":
            raise InvalidInputError(f"tol must be a real scalar, got {tol!r}")
        tol = float(arr)
    if not 0.0 < tol <= MAX_TOL:
        raise InvalidInputError(f"tol must lie in (0, {MAX_TOL:g}], got {tol!r}")
    return tol


def check_dim(dim) -> int:
    """``dim`` as an ``int``: a Python or numpy integer (not a bool) of at least 1, or :class:`InvalidInputError`."""
    if isinstance(dim, bool) or not isinstance(dim, (int, np.integer)) or dim < 1:
        raise InvalidInputError(f"dim must be an integer of at least 1, got {dim!r}")
    return int(dim)


def owned(cls, **values):
    """A ``cls`` record of ``values`` as given, each ndarray made read-only in place; ``__post_init__`` does not run."""
    record = object.__new__(cls)
    for array in [value for value in values.values() if isinstance(value, np.ndarray)]:
        array.setflags(write=False)
    vars(record).update(values)
    return record


def _has_bool(value) -> bool:
    """True iff ``value``, a scalar or nested lists and tuples of them, holds a boolean or a boolean array."""
    if isinstance(value, np.ndarray):
        return value.dtype.kind == "b"
    if isinstance(value, (list, tuple)):  # a list of plain ints and floats needs no item-by-item look
        return not set(map(type, value)) <= {int, float} and any(map(_has_bool, value))
    return isinstance(value, (bool, np.bool_))
