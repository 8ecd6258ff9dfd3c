"""File schemas, deterministic JSON output and the file loaders.

:func:`dumps` writes one line through the standard library's ``json``
encoder: keys keep their insertion order, and each real is Python's
shortest text that reads back as the same double (an integral real
keeps its ``.0``, and ``-0.0`` its sign).  A NaN or infinite real has no
JSON form and raises instead of being written.  Model files carry the cone
generators and unit effect; ensemble files reference a model inline or
by path (resolved relative to the ensemble file).  The loaders read
standard input when the source is ``-``.  Reports are dataclasses and
render as objects keyed by their field names; models, oracle results and
solutions have their own file keys, and no weight ``r_x`` is written.
"""

from __future__ import annotations

import dataclasses
import json
import sys
from pathlib import Path

import numpy as np

from .discrimination import DiscriminationSolution, KktReport
from .errors import InvalidInputError
from .geometry import CongruenceReport
from .model import Ensemble, GptModel
from .oracle import OracleResult


def dumps(obj) -> str:
    """One line of JSON for nested dict/list/scalar data, arrays and report dataclasses.

    Raises :class:`InvalidInputError` on a value with no JSON form: a NaN
    or infinite real, or an object of a type the encoder does not know.
    """
    try:
        return json.dumps(obj, default=_plain, allow_nan=False) + "\n"
    except (TypeError, ValueError) as exc:
        raise InvalidInputError(f"cannot serialize: {exc}") from exc


def _plain(obj):
    """The ``json`` encoder's hook: numpy arrays and scalars as Python data, dataclasses as dicts."""
    if isinstance(obj, (np.ndarray, np.generic)):
        return obj.tolist()
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return dataclasses.asdict(obj)
    raise TypeError(f"object of type {type(obj).__name__} has no JSON form")


def _require(mapping, key: str, context: str):
    if not isinstance(mapping, dict) or key not in mapping:
        raise InvalidInputError(f"{context} is missing required field '{key}'")
    return mapping[key]


def model_to_dict(model: GptModel) -> dict:
    return {
        "dim": model.dim,
        "unit_effect": model.unit_effect,
        "state_generators": model.state_gens,
        "effect_generators": model.effect_gens,
    }


def model_from_dict(data) -> GptModel:
    if not isinstance(data, dict):
        raise InvalidInputError("model must be a JSON object")
    return GptModel(
        dim=_require(data, "dim", "model"),
        state_gens=_require(data, "state_generators", "model"),
        effect_gens=_require(data, "effect_generators", "model"),
        unit_effect=_require(data, "unit_effect", "model"),
    )


def ensemble_to_dict(ensemble: Ensemble) -> dict:
    return {
        "model": model_to_dict(ensemble.model),
        "states": ensemble.states,
        "priors": ensemble.priors,
    }


def ensemble_from_dict(data, base_dir: Path | None = None) -> Ensemble:
    if not isinstance(data, dict):
        raise InvalidInputError("ensemble must be a JSON object")
    model_field = _require(data, "model", "ensemble")
    if isinstance(model_field, str):
        path = Path(model_field)
        if base_dir is not None and not path.is_absolute():
            path = base_dir / path
        model = load_model(path)
    else:
        model = model_from_dict(model_field)
    return Ensemble(
        model=model,
        states=_require(data, "states", "ensemble"),
        priors=_require(data, "priors", "ensemble"),
    )


def load_json(source):
    """Parsed JSON of the file ``source``, or of standard input when ``source`` is ``-``."""
    if str(source) == "-":
        text, name = sys.stdin.read(), "standard input"
    else:
        name = Path(source)
        try:
            text = name.read_text()
        except (OSError, UnicodeDecodeError) as exc:
            raise InvalidInputError(f"cannot read {name}: {exc}") from exc
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise InvalidInputError(f"{name} is not valid JSON: {exc}") from exc


def load_model(source) -> GptModel:
    return model_from_dict(load_json(source))


def load_ensemble(source) -> Ensemble:
    base_dir = None if str(source) == "-" else Path(source).parent
    return ensemble_from_dict(load_json(source), base_dir=base_dir)


def oracle_to_dict(result: OracleResult) -> dict:
    return {
        "p_guess": result.p_guess,
        "K": result.k,
        "vertices_examined": result.vertices_examined,
    }


def solution_to_dict(
    solution: DiscriminationSolution,
    kkt: KktReport,
    congruence: CongruenceReport,
    oracle: OracleResult | None = None,
) -> dict:
    d = iter(solution.stated_d.tolist())
    payload = {
        "p_guess": solution.p_guess,
        "coefficients": solution.coefficients,
        "K": solution.symmetry_operator,
        "complementary_states": [next(d) if stated else None for stated in solution.stated.tolist()],
        "kkt": kkt,
        "geometry": congruence,
    }
    if oracle is not None:
        payload["oracle"] = oracle_to_dict(oracle)
    return payload


def solution_from_dict(data, ensemble: Ensemble) -> DiscriminationSolution:
    """Rebuild an (untrusted) solution certificate for re-verification.

    The :class:`DiscriminationSolution` constructor checks every number;
    :func:`verify_kkt` checks ``p_guess`` and each ``d`` against ``K`` and
    recomputes the duality gap, so a tampered certificate cannot vouch for
    itself.  ``complementary_states`` holds one ``d`` per state, ``null``
    where the pair is degenerate; other keys, such as the reports, are ignored.
    """
    if not isinstance(data, dict):
        raise InvalidInputError("solution must be a JSON object")
    coefficients = _require(data, "coefficients", "solution")
    k = _require(data, "K", "solution")
    d = _require(data, "complementary_states", "solution")
    if not isinstance(d, list):
        raise InvalidInputError("solution field 'complementary_states' must be a list")
    stated_d = [row for row in d if row is not None]
    return DiscriminationSolution(
        ensemble=ensemble,
        p_guess=_require(data, "p_guess", "solution"),
        coefficients=coefficients,
        symmetry_operator=k,
        stated=np.array([row is not None for row in d], dtype=bool),
        stated_d=stated_d if stated_d else np.zeros((0, ensemble.model.dim)),
    )
