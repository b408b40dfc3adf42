import json

import pytest

from fairdiv import (DensitySpec, PlayerSpec, Problem, ProblemFormatError,
                     load_problem, save_problem)
from fairdiv.problemfile import MAX_GRID_CELLS
from conftest import BUNDLED_PROBLEM


def test_bundled_problem_loads():
    problem = load_problem(BUNDLED_PROBLEM)
    assert problem.n == 5
    assert problem.grid_cells == 4096
    kinds = [p.density.kind for p in problem.players]
    assert kinds == ["beta", "beta", "beta", "beta", "uniform"]
    assert problem.players[0].density.a == 2
    assert problem.players[3].density.b == 10


def test_round_trip(tmp_path):
    problem = Problem(
        players=(
            PlayerSpec("alice", DensitySpec.beta(2.5, 7.25)),
            PlayerSpec("bob", DensitySpec.uniform()),
            PlayerSpec("carol", DensitySpec.piecewise([0, 0.3, 1],
                                                      [2.0, 1.0])),
        ),
        grid_cells=512,
        weights=(1.0, 2.0, 0.75),
    )
    path = tmp_path / "problem.json"
    save_problem(problem, path)
    assert load_problem(path) == problem


def test_bundled_problem_saves_uniform_as_its_kind(tmp_path):
    # the uniform density stores its one piece, but the file keeps the kind
    problem = load_problem(BUNDLED_PROBLEM)
    path = tmp_path / "saved.json"
    save_problem(problem, path)
    doc = json.loads(path.read_text())
    assert doc["players"][4]["density"] == {"kind": "uniform"}
    assert load_problem(path) == problem


def test_round_trip_weights_string(tmp_path):
    problem = Problem(players=(PlayerSpec("p", DensitySpec.uniform()),),
                      weights="card")
    path = tmp_path / "p.json"
    save_problem(problem, path)
    assert load_problem(path) == problem


def test_malformed_json_reports_line(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{\n  "players": [\n')
    with pytest.raises(ProblemFormatError, match="line 3"):
        load_problem(path)


@pytest.mark.parametrize("doc,message", [
    ('{"players": []}', "players"),
    ('{"players": [{"density": {"kind": "beta", "a": 2}}]}', "missing"),
    ('{"players": [{"density": {"kind": "zeta"}}]}', "kind"),
    ('{"players": [{"name": "x"}]}', "density"),
    ('{"players": [{"density": {"kind": "uniform"}}], "grid_cells": 0}',
     "grid_cells"),
    ('{"players": [{"density": {"kind": "uniform"}}], "grid_cells": %d}'
     % (MAX_GRID_CELLS + 1), "at most"),
    ('{"players": [{"density": {"kind": "uniform"}}],'
     ' "grid_cells": 100000000000000}', "at most"),
    ('{"players": [{"density": {"kind": "uniform"}}], "weights": "fancy"}',
     "weights"),
    ('{"players": [{"density": {"kind": "uniform"}}], "weights": [0]}',
     "weights"),
    ('[1, 2]', "object"),
    # Python's json reads NaN and Infinity; the schema rejects them
    ('{"players": [{"density": {"kind": "beta", "a": NaN, "b": 2}}]}',
     "finite"),
    ('{"players": [{"density": {"kind": "beta", "a": Infinity, "b": 2}}]}',
     "finite"),
    ('{"players": [{"density": {"kind": "beta", "a": 2, "b": -Infinity}}]}',
     "finite"),
    ('{"players": [{"density": {"kind": "piecewise", "breakpoints": [0, 0.5, 1],'
     ' "values": [NaN, 1]}}]}', "finite"),
    ('{"players": [{"density": {"kind": "piecewise", "breakpoints": [0, 0.5, 1],'
     ' "values": [Infinity, 1]}}]}', "finite"),
    ('{"players": [{"density": {"kind": "piecewise", "breakpoints": [0, NaN, 1],'
     ' "values": [1, 1]}}]}', "finite"),
    ('{"players": [{"density": {"kind": "uniform"}},'
     ' {"density": {"kind": "uniform"}}], "weights": [NaN, 1]}', "finite"),
    ('{"players": [{"density": {"kind": "uniform"}}], "weights": [Infinity]}',
     "finite"),
    # an integer literal beyond the float range is as good as infinite
    ('{"players": [{"density": {"kind": "beta", "a": 1%s, "b": 2}}]}'
     % ("0" * 400), "too large"),
    ('{"players": [{"density": {"kind": "uniform"}}], "weights": [1%s]}'
     % ("0" * 400), "finite"),
    # JSON true/false load as the ints 1/0; no numeric field takes them
    ('{"players": [{"density": {"kind": "uniform"}}], "grid_cells": true}',
     "grid_cells"),
    ('{"players": [{"density": {"kind": "beta", "a": true, "b": 2}}]}',
     "'a' must hold numbers"),
    ('{"players": [{"density": {"kind": "beta", "a": 2, "b": false}}]}',
     "'b' must hold numbers"),
    ('{"players": [{"density": {"kind": "piecewise", "breakpoints": [0, true],'
     ' "values": [1]}}]}', "'breakpoints' must hold numbers"),
    ('{"players": [{"density": {"kind": "piecewise", "breakpoints": [0, 1],'
     ' "values": [true]}}]}', "'values' must hold numbers"),
    ('{"players": [{"density": {"kind": "uniform"}}], "weights": [true]}',
     "weights"),
    # a quoted number is a JSON string, not a number
    ('{"players": [{"density": {"kind": "beta", "a": "2", "b": 5}}]}',
     "'a' must hold numbers"),
    ('{"players": [{"density": {"kind": "beta", "a": 2, "b": "5"}}]}',
     "'b' must hold numbers"),
    ('{"players": [{"density": {"kind": "piecewise",'
     ' "breakpoints": ["0", "0.5", "1"], "values": [2, 0]}}]}',
     "'breakpoints' must hold numbers"),
    ('{"players": [{"density": {"kind": "piecewise",'
     ' "breakpoints": [0, 0.5, 1], "values": ["2", "0"]}}]}',
     "'values' must hold numbers"),
])
def test_schema_violations(tmp_path, doc, message):
    path = tmp_path / "bad.json"
    path.write_text(doc)
    with pytest.raises(ProblemFormatError, match=message):
        load_problem(path)


def test_default_player_names(tmp_path):
    path = tmp_path / "anon.json"
    path.write_text('{"players": [{"density": {"kind": "uniform"}}]}')
    problem = load_problem(path)
    assert problem.players[0].name == "player1"
    assert problem.grid_cells == 4096
