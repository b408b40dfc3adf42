"""The three workloads: seeded inputs, one operation each, and output checks.

Each workload is a closed loop with one client.  `op(i)` is the timed call;
`check(i, result)` runs outside the timed region and returns one of
`OK`, `UNCONVERGED` (the CLI's documented exit 3: output written and
flagged, bracket not certified to epsilon) or a failure reason.

Library functions are looked up as `fairdiv.<name>` at call time, so the
bindings a traced run installs are the ones called.  Import this module only
after `fairdiv` is importable from the checkout's `src/`.
"""

from __future__ import annotations

import bisect
import contextlib
import csv
import io
import itertools
import json
import math
import os
import traceback
import warnings

import numpy as np

import fairdiv
import fairdiv.coalitions

OK = "ok"
UNCONVERGED = "unconverged"


class Tally:
    """Outcomes of the operations a run attempted.  `failed` counts every
    outcome but OK and UNCONVERGED."""

    def __init__(self):
        self.outcomes: list[str] = []

    def add(self, outcome: str) -> None:
        self.outcomes.append(outcome)

    @property
    def attempted(self) -> int:
        return len(self.outcomes)

    @property
    def unconverged(self) -> int:
        return self.outcomes.count(UNCONVERGED)

    def reasons(self) -> dict[str, int]:
        out: dict[str, int] = {}
        for o in self.outcomes:
            if o not in (OK, UNCONVERGED):
                out[o] = out.get(o, 0) + 1
        return out

    @property
    def failed(self) -> int:
        return sum(self.reasons().values())


BUNDLED = os.path.join("src", "fairdiv", "data", "five_players.json")

# Reference values for the bundled instance, copied from
# tests/test_acceptance.py (GAME_TABLE_ROWS, SHAPLEY_CARD, SHAPLEY_PRE,
# SHAPLEY_RANKING); 0-based players, (card, pre) per coalition.
GAME_TABLE_ROWS = {
    (0,): (0.404, 0.404), (1,): (0.404, 0.404), (2,): (0.404, 0.404),
    (3,): (0.404, 0.404), (4,): (0.404, 0.404),
    (0, 1): (0.822, 0.842), (0, 2): (0.835, 0.836), (0, 3): (0.844, 0.861),
    (0, 4): (0.819, 0.827), (1, 2): (0.820, 0.820), (1, 3): (0.826, 0.826),
    (1, 4): (0.828, 0.833), (2, 3): (0.808, 0.808), (2, 4): (0.926, 1.040),
    (3, 4): (0.886, 1.004),
    (0, 1, 2): (1.262, 1.280), (0, 1, 3): (1.273, 1.302),
    (0, 1, 4): (1.256, 1.265), (0, 2, 3): (1.275, 1.289),
    (0, 2, 4): (1.392, 1.465), (0, 3, 4): (1.366, 1.427),
    (1, 2, 3): (1.242, 1.241), (1, 2, 4): (1.389, 1.474),
    (1, 3, 4): (1.349, 1.414), (2, 3, 4): (1.403, 1.625),
    (0, 1, 2, 3): (1.706, 1.727), (0, 1, 2, 4): (1.877, 1.903),
    (0, 1, 3, 4): (1.841, 1.862), (0, 2, 3, 4): (1.968, 2.044),
    (1, 2, 3, 4): (1.940, 2.032),
    (0, 1, 2, 3, 4): (2.477, 2.477),
}
SHAPLEY_CARD = (0.465, 0.451, 0.507, 0.491, 0.563)
SHAPLEY_PRE = (0.436, 0.425, 0.519, 0.502, 0.594)
SHAPLEY_RANKING = (4, 2, 3, 0, 1)  # players 5 > 3 > 4 > 1 > 2
GAME_TOL = 5e-3
SHAPLEY_TOL = 1e-2


class PaperGame:
    """The paper's headline computation on the bundled five-player game.

    One operation: pre-division weights, `full_game` under cardinality and
    under pre-division weights (default game config, one job), and Shapley
    values of both tables.  The input is the bundled file whatever the seed.
    """

    name = "paper-game"
    trace_ops = 1

    def __init__(self, seed: int, work_dir: str):
        self.players = fairdiv.load_problem(BUNDLED).densities

    def warm(self):
        wp = fairdiv.weighted_problem(self.players, [(i,) for i in range(5)],
                                      [1.0] * 5, fairdiv.Grid(256))
        fairdiv.solve_value(wp, fairdiv.SolverConfig(epsilon=1e-2))

    def op(self, i: int):
        pre = fairdiv.pre_division_weights(self.players)
        card = self.full_game(fairdiv.cardinality_weights(), jobs=1)
        pre_table = self.full_game(pre, jobs=1)
        sv = {"card": fairdiv.shapley(card), "pre": fairdiv.shapley(pre_table)}
        return {"card": card, "pre": pre_table}, sv

    def full_game(self, system, jobs: int):
        return fairdiv.full_game(
            self.players, system,
            config=fairdiv.coalitions.default_game_config(), jobs=jobs)

    def check(self, i: int, result) -> str:
        tables, sv = result
        for k, name in enumerate(("card", "pre")):
            problem = _check_game_table(tables[name], k)
            if problem:
                return f"{name}: {problem}"
        for name, want in (("card", SHAPLEY_CARD), ("pre", SHAPLEY_PRE)):
            if np.max(np.abs(sv[name].values - np.asarray(want))) > SHAPLEY_TOL:
                return f"shapley {name} off reference"
            if tuple(sv[name].ranking) != SHAPLEY_RANKING:
                return f"shapley {name} ranking"
        return OK

    def check_card_table(self, table) -> str:
        """Check a lone cardinality table, such as the `jobs=2` one."""
        return _check_game_table(table, 0) or OK


def _check_game_table(table, column: int) -> str | None:
    if not table.all_converged:
        return "unconverged game entry"
    for s, want in GAME_TABLE_ROWS.items():
        if abs(table.value(s) - want[column]) > GAME_TOL:
            return f"game row {s} off reference"
    return None


# --- wide-table -------------------------------------------------------------

WIDE_PLAYERS = 8
WIDE_CELLS = 32768
WIDE_INSTANCES = 64
#: beta shapes the four beta players are drawn around (each parameter is
#: scaled by a seeded factor in [0.85, 1.15])
BETA_DESIGN = ((2.0, 8.0), (8.0, 2.0), (5.0, 5.0), (3.0, 4.0))
PIECE_COUNTS = (2, 5, 8)
QUAD_ROWS = 4  # rows per table checked against an independent quadrature
#: the table splits a cell at most once, at the crossing of the members
#: dominating at its two edges, so a second change of dominance inside one
#: 1/32768 cell is not resolved; on these instances row totals sit within
#: 1e-7 of the quadrature
QUAD_TOL = 1e-6
MASS_TOL = 1e-12


def wide_instance(rng):
    """Eight players around a fixed design, so every table has about the same
    work: three piecewise densities (2, 5 and 8 pieces, alternating high and
    low levels), four betas and one uniform, in seeded order."""
    DensitySpec = fairdiv.DensitySpec
    specs = []
    for k in PIECE_COUNTS:
        inner = (np.arange(1, k) + rng.uniform(-0.3, 0.3, size=k - 1)) / k
        levels = np.where(np.arange(k) % 2 == 0, 2.0, 0.5)
        specs.append(DensitySpec.piecewise(
            np.concatenate([[0.0], inner, [1.0]]),
            levels * rng.uniform(0.8, 1.2, size=k)))
    for a, b in BETA_DESIGN:
        specs.append(DensitySpec.beta(a * rng.uniform(0.85, 1.15),
                                      b * rng.uniform(0.85, 1.15)))
    specs.append(DensitySpec.uniform())
    return [specs[j] for j in rng.permutation(WIDE_PLAYERS)]


def _ref_cdf(spec, x):
    """CDF without the library: regularized incomplete beta, or the
    piecewise-linear cumulative mass."""
    if spec.kind == "uniform":
        return np.asarray(x, dtype=float)
    if spec.kind == "beta":
        from scipy import special
        return special.betainc(spec.a, spec.b, x)
    bp = np.asarray(spec.breakpoints)
    cum = np.concatenate([[0.0], np.cumsum(np.asarray(spec.values)
                                           * np.diff(bp))])
    return np.interp(x, bp, cum)


def _ref_pdf(spec):
    if spec.kind == "uniform":
        return lambda x: 1.0
    if spec.kind == "beta":
        from scipy import special
        a, b = spec.a, spec.b
        log_norm = special.betaln(a, b)
        return lambda x: math.exp((a - 1) * math.log(x)
                                  + (b - 1) * math.log1p(-x) - log_norm)
    bp, vals = list(spec.breakpoints), list(spec.values)
    last = len(vals) - 1
    return lambda x: vals[min(bisect.bisect_right(bp, x) - 1, last)]


class WideTable:
    """Measure tables for all 255 coalitions of seeded 8-player instances at
    32768 cells, as `full_game` builds them before it solves.  One operation
    is one `coalition_table` call on the next instance."""

    name = "wide-table"
    trace_ops = 2

    def __init__(self, seed: int, work_dir: str):
        rng = np.random.default_rng(seed)
        self.instances = [wide_instance(rng) for _ in range(WIDE_INSTANCES)]
        self.subsets = [s for r in range(1, WIDE_PLAYERS + 1)
                        for s in itertools.combinations(range(WIDE_PLAYERS), r)]
        self.grid = fairdiv.Grid(WIDE_CELLS)
        self.check_rng = np.random.default_rng(seed + 1)

    def warm(self):
        fairdiv.coalition_table(self.instances[-1],
                                self.subsets[:WIDE_PLAYERS + 8],
                                fairdiv.Grid(1024))

    def op(self, i: int):
        return fairdiv.coalition_table(self.instances[i % WIDE_INSTANCES],
                                       self.subsets, self.grid)

    def check(self, i: int, table) -> str:
        from scipy import integrate
        players = self.instances[i % WIDE_INSTANCES]
        edges = np.linspace(0.0, 1.0, WIDE_CELLS + 1)
        member = np.vstack([np.diff(_ref_cdf(p, edges)) for p in players])
        if table.masses.shape != (len(self.subsets), WIDE_CELLS):
            return "table shape"
        for r, s in enumerate(self.subsets):
            if np.any(table.masses[r] < member[list(s)].max(axis=0) - MASS_TOL):
                return f"row {s} below a member's cell mass"
        pdfs = [_ref_pdf(p) for p in players]
        points = sorted({b for p in players if p.kind == "piecewise"
                         for b in p.breakpoints[1:-1]})
        for r in self.check_rng.choice(len(self.subsets), QUAD_ROWS,
                                       replace=False):
            s = self.subsets[r]
            f = [pdfs[j] for j in s]
            with warnings.catch_warnings():  # kinks cost quad digits only
                warnings.simplefilter("ignore", integrate.IntegrationWarning)
                ref, _ = integrate.quad(lambda x: max(g(x) for g in f),
                                        0.0, 1.0, points=points, limit=500,
                                        epsabs=1e-10, epsrel=1e-10)
            if abs(float(table.masses[r].sum()) - ref) > QUAD_TOL:
                return f"row {s} total off quadrature"
        return OK


# --- cli-stream -------------------------------------------------------------

CLI_COMMANDS = ("solve", "partition", "trace", "game")
CLI_GRIDS = (1024, 2048, 4096, 8192)
CLI_PLAYERS = (2, 3, 4, 5, 6)
#: slot i runs command i % 4 with CLI_PLAYERS[i % 5] players on grid
#: CLI_GRIDS[(i + i // 20) % 4]: every combination once per 80 requests, and
#: every 4 consecutive requests cover all commands and all grids, so a run
#: that stops mid-period keeps the same mix
CLI_PERIOD = len(CLI_COMMANDS) * len(CLI_PLAYERS) * len(CLI_GRIDS)
CLI_FILES = 5 * CLI_PERIOD
#: player j of every file is drawn around CLI_DESIGN[j]: a beta shape, or a
#: piecewise density with that many pieces at alternating high and low
#: levels, or the uniform density; the seed moves each parameter by up to
#: 10%, so a slot's work and outcome stay about the same from seed to seed
CLI_DESIGN = (("beta", (2.0, 6.0)), ("piecewise", 3), ("beta", (6.0, 2.0)),
              ("uniform", None), ("beta", (4.0, 4.0)), ("piecewise", 5))
CLI_MAX_ITER = 400
CLI_EPSILON = 1e-3  # the CLI default, which the requests do not override
#: solve and game values are printed to 6 significant digits
PRINT_SLACK = 1e-5


def cli_slot(i: int) -> tuple[str, int, int]:
    return (CLI_COMMANDS[i % 4], CLI_PLAYERS[i % 5],
            CLI_GRIDS[(i + i // 20) % 4])


def _cli_density(rng, j: int) -> dict:
    kind, design = CLI_DESIGN[j]
    if kind == "uniform":
        return {"kind": "uniform"}
    if kind == "beta":
        a, b = design
        return {"kind": "beta", "a": a * float(rng.uniform(0.9, 1.1)),
                "b": b * float(rng.uniform(0.9, 1.1))}
    k = design
    inner = (np.arange(1, k) + rng.uniform(-0.2, 0.2, size=k - 1)) / k
    levels = np.where(np.arange(k) % 2 == 0, 2.0, 0.5)
    return {"kind": "piecewise",
            "breakpoints": [0.0] + [float(x) for x in inner] + [1.0],
            "values": [float(v) for v in levels
                       * rng.uniform(0.9, 1.1, size=k)]}


def _label(players) -> str:
    return ",".join(str(j + 1) for j in sorted(players))


def cli_requests(seed: int, work_dir: str) -> list[dict]:
    """Write the seeded problem files and return one request per file.

    `solve` pairs players 1 and 2 against the rest alone (1 against 2 when
    n = 2), with cardinality weights; `game` values the first half of the
    players against the others alone."""
    rng = np.random.default_rng(seed)
    requests = []
    for i in range(CLI_FILES):
        command, n, cells = cli_slot(i)
        doc = {"players": [{"name": f"p{j + 1}",
                            "density": _cli_density(rng, j)}
                           for j in range(n)],
               "grid_cells": cells}
        path = os.path.join(work_dir, f"problem{i:03d}.json")
        with open(path, "w", encoding="utf-8") as f:
            json.dump(doc, f)
        argv = ["--problem", path, "--command", command,
                "--max-iter", str(CLI_MAX_ITER)]
        req = {"command": command, "n": n, "argv": argv}
        if command == "solve":
            structure = [(0,), (1,)] if n == 2 else [(0, 1)]
            structure += [(j,) for j in range(2, n)]
            argv += ["--coalitions", "|".join(_label(s) for s in structure),
                     "--weights", "card"]
        elif command == "partition":
            argv += ["--format", "json"]
        elif command == "game":
            req["subset"] = _label(range(n // 2))
            argv += ["--subset", req["subset"], "--weights", "card"]
        requests.append(req)
    return requests


def _check_solve(out: str, code: int, req) -> str | None:
    lo, hi = (float(t) for t in out.strip().strip("[]").split(","))
    if not lo <= hi:
        return "solve bracket lower > upper"
    if code == 0 and hi - lo >= CLI_EPSILON + PRINT_SLACK:
        return "solve bracket wider than epsilon"
    return None


def _check_partition(out: str, code: int, req) -> str | None:
    doc = json.loads(out)
    labels = {str(j + 1) for j in range(req["n"])}
    if not set(doc) <= labels:
        return "partition labels"
    spans = sorted((a, b) for v in doc.values() for a, b in v)
    if not spans or spans[0][0] != 0.0 or spans[-1][1] != 1.0:
        return "partition does not cover [0,1]"
    for (a0, b0), (a1, b1) in zip(spans, spans[1:]):
        if b0 != a1 or not a1 < b1:
            return "partition intervals do not tile [0,1]"
    return None


def _check_trace(out: str, code: int, req) -> str | None:
    rows = list(csv.DictReader(io.StringIO(out)))
    if not rows or len(rows) > CLI_MAX_ITER + 1:
        return "trace row count"
    ub = [float(r["ub"]) for r in rows]
    lb = [float(r["lb"]) for r in rows]
    if any(b > a for a, b in zip(ub, ub[1:])):
        return "trace ub increased"
    if any(b < a for a, b in zip(lb, lb[1:])):
        return "trace lb decreased"
    return None


def _check_game(out: str, code: int, req) -> str | None:
    rows = list(csv.DictReader(io.StringIO(out)))
    if len(rows) != 1 or rows[0]["coalition"] != req["subset"]:
        return "game row"
    if not float(rows[0]["eta_card"]) > 0.0:
        return "game value not positive"
    if rows[0]["converged"] != ("true" if code == 0 else "false"):
        return "game converged flag disagrees with exit code"
    return None


_CHECKS = {"solve": _check_solve, "partition": _check_partition,
           "trace": _check_trace, "game": _check_game}


class CliStream:
    """A seeded stream of generated problem files through
    `fairdiv.cli.main(argv)` in-process, every request capped at
    `--max-iter 400`.  One operation is one request."""

    name = "cli-stream"
    trace_ops = CLI_PERIOD

    def __init__(self, seed: int, work_dir: str):
        import fairdiv.cli  # part of set-up, like the file writes
        self.requests = cli_requests(seed, work_dir)

    def warm(self):
        self.op(0)

    def op(self, i: int):
        argv = self.requests[i % CLI_FILES]["argv"]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = fairdiv.cli.main(list(argv))
            except SystemExit as e:
                code = e.code if isinstance(e.code, int) else 2
            except Exception:  # a traceback is a failed request, kept apart
                code = "traceback"
                err.write(traceback.format_exc())
        return code, out.getvalue(), err.getvalue()

    def check(self, i: int, result) -> str:
        code, out, err = result
        req = self.requests[i % CLI_FILES]
        if code not in (0, 3):
            return f"exit {code}"
        try:
            problem = _CHECKS[req["command"]](out, code, req)
        except (ValueError, KeyError, TypeError) as e:
            problem = f"{req['command']} output does not parse ({e})"
        if problem:
            return problem
        return OK if code == 0 else UNCONVERGED


WORKLOADS = {w.name: w for w in (PaperGame, WideTable, CliStream)}
