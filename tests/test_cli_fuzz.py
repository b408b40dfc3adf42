"""Random problem files through the command line.

Every file either solves or exits with a documented code, never with a
traceback or an internal error; a file with NaN, Infinity or a number beyond
the float range in it, or with more grid cells than the cap, is a parse
error.  A printed ``solve`` bracket contains the solver's bracket.
"""

import contextlib
import io
import json
import math
import sys
from unittest import mock

from hypothesis import given, settings, strategies as st

import fairdiv
from fairdiv.cli import COMMANDS, EXIT_PARSE, main
from fairdiv.problemfile import MAX_GRID_CELLS

NON_FINITE = st.sampled_from([math.nan, math.inf, -math.inf, 10 ** 400])


def numbers(lo, hi):
    """Mostly floats in [lo, hi]; a non-finite number one time in twenty,
    so that a file of six players is still often free of them (the
    simplest draw, k = 0, is a float)."""
    return st.integers(0, 19).flatmap(
        lambda k: NON_FINITE if k == 19 else st.floats(lo, hi))


@st.composite
def densities(draw):
    kind = draw(st.sampled_from(["uniform", "beta", "piecewise", "spike"]))
    if kind == "uniform":
        return {"kind": "uniform"}
    if kind == "beta":
        return {"kind": "beta", "a": draw(numbers(1e-2, 1e2)),
                "b": draw(numbers(1e-2, 1e2))}
    if kind == "spike":
        # all mass on a piece far narrower than one cell of the 64-cell grid
        left = draw(st.floats(0.0, 0.999))
        width = draw(st.sampled_from([1e-7, 1e-5, 1e-3]))
        height = draw(numbers(1e-3, 1e3))
        if left == 0.0:
            return {"kind": "piecewise", "breakpoints": [0.0, width, 1.0],
                    "values": [height, 0.0]}
        return {"kind": "piecewise",
                "breakpoints": [0.0, left, left + width, 1.0],
                "values": [0.0, height, 0.0]}
    inner = draw(st.lists(st.floats(1e-6, 1.0 - 1e-6), max_size=4,
                          unique=True))
    breakpoints = [0.0] + sorted(inner) + [1.0]
    values = draw(st.lists(numbers(0.0, 10.0), min_size=len(breakpoints) - 1,
                           max_size=len(breakpoints) - 1))
    return {"kind": "piecewise", "breakpoints": breakpoints, "values": values}


@st.composite
def problem_docs(draw):
    players = draw(st.lists(densities(), min_size=1, max_size=6))
    doc = {"players": [{"density": d} for d in players],
           # more grid cells than the cap one time in four
           "grid_cells": draw(st.integers(0, 3).flatmap(
               lambda k: st.integers(MAX_GRID_CELLS + 1, 10 ** 15) if k == 3
               else st.integers(1, 8192)))}
    weights = draw(st.one_of(
        st.none(), st.sampled_from(["card", "pre"]),
        st.lists(numbers(1e-2, 1e2), min_size=1, max_size=6)))
    if weights is not None:
        doc["weights"] = weights
    return doc


@st.composite
def structures(draw, n):
    """'1,2|3'-style coalition structure over some or all of the n players,
    or None for singletons."""
    if not draw(st.booleans()):
        return None
    # owner -1 leaves the player out of every coalition
    owners = draw(st.lists(st.integers(-1, n - 1), min_size=n, max_size=n))
    groups = {}
    for player, owner in enumerate(owners):
        if owner >= 0:
            groups.setdefault(owner, []).append(str(player + 1))
    return "|".join(",".join(g) for g in groups.values())


@st.composite
def subsets(draw, n):
    """'3,1'-style coalition for ``game --subset``, or None for the full
    game."""
    if not draw(st.booleans()):
        return None
    players = draw(st.lists(st.integers(1, n), min_size=1, max_size=n,
                            unique=True))
    return ",".join(map(str, players))


def _non_finite(obj) -> bool:
    if isinstance(obj, (int, float)):
        return not abs(obj) <= sys.float_info.max
    if isinstance(obj, dict):
        return any(_non_finite(v) for v in obj.values())
    if isinstance(obj, list):
        return any(_non_finite(v) for v in obj)
    return False


@settings(max_examples=40, deadline=None)
@given(doc=problem_docs(), command=st.sampled_from(COMMANDS), data=st.data())
def test_problem_files_exit_with_documented_codes(tmp_path_factory, doc,
                                                  command, data):
    path = tmp_path_factory.mktemp("fuzz") / "problem.json"
    path.write_text(json.dumps(doc))  # writes NaN and Infinity as such
    argv = ["--problem", str(path), "--command", command,
            "--grid", "64", "--max-iter", "50"]
    n = len(doc["players"])
    if command in ("solve", "partition", "trace"):
        coalitions = data.draw(structures(n))
        if coalitions is not None:
            argv += ["--coalitions", coalitions]
    if command == "game":
        subset = data.draw(subsets(n))
        if subset is not None:
            argv += ["--subset", subset]
    out, err = io.StringIO(), io.StringIO()
    solves = []

    def recording(*args, **kwargs):
        solves.append(fairdiv.cutting_plane_value(*args, **kwargs))
        return solves[-1]

    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
            mock.patch("fairdiv.cli.cutting_plane_value", recording):
        rc = main(argv)
    assert rc in (0, 2, 3, 4), err.getvalue()
    assert "Traceback" not in err.getvalue()
    if _non_finite(doc) or doc["grid_cells"] > MAX_GRID_CELLS:
        assert rc == EXIT_PARSE, err.getvalue()
    if command == "solve" and rc in (0, 3):
        lo, hi = (float(tok) for tok in
                  out.getvalue().strip().strip("[]").split(","))
        res = solves[-1]
        assert lo <= res.lower <= res.upper <= hi
