"""Problem files: JSON description of players, grid, and default weights.

Schema (see docs/problem-format.md):

    {
      "players": [{"name": "...", "density": {"kind": ..., ...}}, ...],
      "grid_cells": 4096,
      "weights": [1.0, ...] | "card" | "pre"      # optional
    }
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass

from .measures import DEFAULT_GRID_CELLS, DensitySpec

#: the finest grid a problem file (or ``--grid``) may ask for; one 5-player
#: measure table at this size already takes some 250 MB
MAX_GRID_CELLS = 2 ** 20


class ProblemFormatError(ValueError):
    """Problem file does not parse or violates the schema."""


@dataclass(frozen=True)
class PlayerSpec:
    name: str
    density: DensitySpec


@dataclass(frozen=True)
class Problem:
    players: tuple[PlayerSpec, ...]
    grid_cells: int = DEFAULT_GRID_CELLS
    weights: tuple[float, ...] | str | None = None

    @property
    def densities(self) -> list[DensitySpec]:
        return [p.density for p in self.players]

    @property
    def n(self) -> int:
        return len(self.players)


def _require_numbers(obj: dict, fields: tuple[str, ...]) -> None:
    """Numeric fields hold JSON numbers only: a quoted string is not a
    number, and ``true``/``false`` load as Python bools, which are the ints
    1 and 0."""
    for name in fields:
        value = obj[name]
        if any(isinstance(v, bool) or not isinstance(v, (int, float))
               for v in (value if isinstance(value, list) else [value])):
            raise ProblemFormatError(
                f"'{name}' must hold numbers, not strings or true/false")


def _density_from_json(obj, where: str) -> DensitySpec:
    if not isinstance(obj, dict) or "kind" not in obj:
        raise ProblemFormatError(f"{where}: density needs a 'kind' field")
    kind = obj["kind"]
    try:
        if kind == "uniform":
            return DensitySpec.uniform()
        if kind == "beta":
            _require_numbers(obj, ("a", "b"))
            return DensitySpec.beta(obj["a"], obj["b"])
        if kind == "piecewise":
            _require_numbers(obj, ("breakpoints", "values"))
            return DensitySpec.piecewise(obj["breakpoints"], obj["values"])
    except KeyError as e:
        raise ProblemFormatError(f"{where}: missing density field {e}") from None
    except (TypeError, ValueError, OverflowError) as e:
        raise ProblemFormatError(f"{where}: {e}") from None
    raise ProblemFormatError(f"{where}: unknown density kind {kind!r}")


def _density_to_json(spec: DensitySpec) -> dict:
    if spec.kind == "uniform":
        return {"kind": "uniform"}
    if spec.kind == "beta":
        return {"kind": "beta", "a": spec.a, "b": spec.b}
    return {"kind": "piecewise",
            "breakpoints": list(spec.breakpoints),
            "values": list(spec.values)}


def problem_from_json(doc) -> Problem:
    if not isinstance(doc, dict):
        raise ProblemFormatError("top level must be an object")
    raw_players = doc.get("players")
    if not isinstance(raw_players, list) or not raw_players:
        raise ProblemFormatError("'players' must be a nonempty list")
    players = []
    for i, entry in enumerate(raw_players):
        where = f"players[{i}]"
        if not isinstance(entry, dict) or "density" not in entry:
            raise ProblemFormatError(f"{where}: needs a 'density' field")
        name = entry.get("name", f"player{i + 1}")
        players.append(PlayerSpec(name=str(name),
                                  density=_density_from_json(entry["density"],
                                                             where)))
    grid_cells = doc.get("grid_cells", DEFAULT_GRID_CELLS)
    if (isinstance(grid_cells, bool) or not isinstance(grid_cells, int)
            or grid_cells < 1):
        raise ProblemFormatError("'grid_cells' must be a positive integer")
    if grid_cells > MAX_GRID_CELLS:
        raise ProblemFormatError(
            f"'grid_cells' must be at most {MAX_GRID_CELLS}")
    weights = doc.get("weights")
    if weights is not None:
        if isinstance(weights, str):
            if weights not in ("card", "pre"):
                raise ProblemFormatError("'weights' string must be 'card' or 'pre'")
        elif isinstance(weights, list):
            _require_numbers(doc, ("weights",))
            if any(not 0 < w <= sys.float_info.max for w in weights):
                raise ProblemFormatError(
                    "'weights' entries must be finite positive numbers")
            weights = tuple(float(w) for w in weights)
        else:
            raise ProblemFormatError("'weights' must be a list or 'card'/'pre'")
    return Problem(players=tuple(players), grid_cells=grid_cells,
                   weights=weights)


def problem_to_json(problem: Problem) -> dict:
    doc = {
        "players": [{"name": p.name, "density": _density_to_json(p.density)}
                    for p in problem.players],
        "grid_cells": problem.grid_cells,
    }
    if problem.weights is not None:
        w = problem.weights
        doc["weights"] = w if isinstance(w, str) else list(w)
    return doc


def load_problem(path) -> Problem:
    try:
        with open(path, encoding="utf-8") as f:
            text = f.read()
    except UnicodeDecodeError as e:
        raise ProblemFormatError(
            f"not UTF-8 text (byte {e.start}: {e.reason})") from None
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        raise ProblemFormatError(
            f"line {e.lineno}, column {e.colno}: {e.msg}") from None
    return problem_from_json(doc)


def save_problem(problem: Problem, path) -> None:
    with open(path, "w", encoding="utf-8") as f:
        json.dump(problem_to_json(problem), f, indent=2, sort_keys=True)
        f.write("\n")
