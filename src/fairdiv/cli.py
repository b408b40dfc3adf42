"""Command-line front end: problem ingestion, solves, table and trace output.

Exit codes: 0 success, 2 problem-file parse error, unreadable problem path
or command-line usage error, 3 solver or pre-division weights did not
converge (partial outputs are still written, flagged), 4 invalid
configuration, an unwritable ``--out``, a run over the work budget or a
problem the library rejects, 5 internal error (a library ``RuntimeError``:
a bug, not a property of the problem).  Every error is one line on stderr,
except a usage error (an unknown flag, a value of the wrong type, a
``--command`` or ``--weights`` not among its choices): argparse prints the
usage block, then one error line, and exits 2.

A run is one pass through ``run``.  It checks the flags each command
reads, ``--out`` and the solver settings (``--epsilon``, ``--max-iter``),
in that order.  It then resolves each input once: the grid, the weight
systems the run computes and the coalitions it values (the
``--coalitions`` structure, the ``--subset`` coalition or the full game).
The work budget is arithmetic on those: it bounds the largest measure
table the run builds, ``MAX_TABLE_ROWS`` coalitions and ``MAX_TABLE_BYTES``
(1 GiB) of rows x grid cells x 8 bytes.  Only then are the weight systems
built, the pre-division pre-solve among them, and then the structure's
table or the game tables.  ``solve``, ``partition`` and ``trace`` measure
each list of coalitions once: the pre-solve's n singletons are also the
table of the default structure.  ``game`` and ``shapley`` do not: each
``full_game`` call measures its own table, so the full game under both
weight systems measures the n singletons and then every coalition twice.  A
command only solves and formats: it returns its text and whether it
converged; ``run`` alone writes the text, to ``--out`` or stdout, combines
that with the weights' convergence and picks exit 0 or 3.

The ``solve`` bracket, game values (``game``, ``shapley``) and pre-division
weights (``--weights pre``) come from the cutting-plane solver; the paper's
projected subgradient method, with its fixed step rule, runs ``partition``
and ``trace``.  ``--subset`` (one coalition against the other players
alone) applies to ``game`` only and ``--coalitions`` to ``solve``,
``partition`` and ``trace`` only; every other command rejects them, as
``FLAG_COMMANDS`` lists.  ``--max-iter`` caps every solve of a run, the
Kelley iterations of the pre-division pre-solve included.  The pre-solve
measures only the singletons, on the run's grid, and each pre-division
weight is read off the table its solve or game uses.  ``--weights``, else
the file's ``"card"`` or ``"pre"``, picks the weight system; ``game`` and
``shapley`` compute both when neither names one.

``solve`` prints one bracket line, ``[lb, ub]``, and rejects ``--format
json``.  Every table (``partition`` cells, ``game``, ``shapley`` and the
per-iterate ``trace``) goes through one record writer: CSV headed by the
record keys, strings quoted and numbers in ``fmt_num``, or a JSON list of
the same records.  Each CSV column's format is chosen once, from the
type of its first field.  ``partition --format json`` instead maps each coalition
to its merged intervals.  Certified bounds (the ``solve`` bracket and the
``lb``/``ub`` columns of the ``trace`` CSV) are rounded outward by
``fmt_bound``, so a printed bracket always contains its value.
"""

from __future__ import annotations

import argparse
import errno
import json
import os
import sys
from argparse import Namespace
from dataclasses import replace
from decimal import ROUND_CEILING, ROUND_FLOOR, Decimal
from functools import cache, partial

from .coalitions import (PRE_SOLVE_CONFIG, GameTable, WeightSystem,
                         cardinality_weights, full_game,
                         pre_division_from_table, shapley, weight_of)
from .cutting import cutting_plane_value
from .measures import Grid, coalition_table
from .partition import WeightedProblem
from .problemfile import (MAX_GRID_CELLS, Problem, ProblemFormatError,
                          load_problem)
from .subgradient import SolverConfig, solve_partition, solve_value

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_UNCONVERGED = 3
EXIT_CONFIG = 4
EXIT_INTERNAL = 5

COMMANDS = ("solve", "partition", "game", "shapley", "trace")
GAME_COMMANDS = ("game", "shapley")
#: flags that only some commands read, and those commands; every other
#: command rejects them
FLAG_COMMANDS = {
    "--subset": ("game",),
    "--coalitions": ("solve", "partition", "trace"),
}


#: work budget: the largest measure table a run may build, in bytes (rows x
#: grid cells x 8), and in rows, each row being one coalition to value
MAX_TABLE_BYTES = 2 ** 30
MAX_TABLE_ROWS = 2 ** 20


class ConfigError(ValueError):
    pass


@cache
def _parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: parsing leaves it
    unchanged, and each parse returns a new namespace."""
    p = argparse.ArgumentParser(
        prog="fairdiv",
        description="Maxmin fair division of [0,1] with coalition games.")
    p.add_argument("--problem", required=True, dest="problem_path",
                   metavar="PROBLEM", help="problem file (JSON)")
    p.add_argument("--command", required=True, choices=COMMANDS)
    p.add_argument("--coalitions",
                   help="coalition structure for solve, partition and "
                        "trace, e.g. '1,2|3|4,5' (1-based)")
    p.add_argument("--subset", help="single coalition for 'game', e.g. '3,5'")
    p.add_argument("--weights", choices=["card", "pre"],
                   help="weight system (default: problem file, else all ones)")
    p.add_argument("--epsilon", type=float, help="stop tolerance")
    p.add_argument("--grid", type=int, dest="grid_cells", metavar="GRID",
                   help="grid cells override")
    p.add_argument("--max-iter", type=int, help="iteration cap")
    p.add_argument("--out", help="output path (default: stdout)")
    p.add_argument("--format", choices=["csv", "json"], default="csv",
                   dest="out_format")
    return p


def _parse_players(text: str, n: int) -> tuple[int, ...]:
    try:
        ids = tuple(int(tok) for tok in text.split(","))
    except ValueError:
        raise ConfigError(f"cannot parse player list {text!r}") from None
    for i in ids:
        if i < 1 or i > n:
            raise ConfigError(f"player {i} out of range 1..{n}")
    if len(set(ids)) != len(ids):
        raise ConfigError(f"repeated player in {text!r}")
    return tuple(sorted(i - 1 for i in ids))


def _parse_structure(text: str | None, n: int) -> tuple[tuple[int, ...], ...]:
    if text is None:
        return tuple((i,) for i in range(n))
    groups = text.split("|")
    if not any(g.strip() for g in groups):
        raise ConfigError("empty coalition structure")
    if not all(g.strip() for g in groups):
        raise ConfigError(f"empty coalition in {text!r}")
    structure = tuple(_parse_players(g, n) for g in groups)
    seen: set[int] = set()
    for s in structure:
        if seen & set(s):
            raise ConfigError("coalitions must be pairwise disjoint")
        seen |= set(s)
    return structure


def _given(**fields) -> dict:
    """The fields the command line set; the rest keep their defaults."""
    return {k: v for k, v in fields.items() if v is not None}


def _check_flags(spec: Namespace) -> None:
    """Reject a flag that the command would ignore, and ``--format json``
    for ``solve``, which prints one bracket line and no table."""
    for flag, commands in FLAG_COMMANDS.items():
        given = getattr(spec, flag[2:]) is not None
        if given and spec.command not in commands:
            names = ", ".join(commands[:-1])
            names = f"{names} and {commands[-1]}" if names else commands[-1]
            raise ConfigError(f"{flag} applies only to {names}")
    if spec.command == "solve" and spec.out_format == "json":
        raise ConfigError("--format json applies only to partition, game, "
                          "shapley and trace")


def _solver_config(spec: Namespace) -> SolverConfig:
    try:
        return SolverConfig(**_given(epsilon=spec.epsilon,
                                     max_iterations=spec.max_iter))
    except ValueError as e:
        raise ConfigError(str(e)) from None


def _grid(spec: Namespace, problem: Problem) -> Grid:
    cells = spec.grid_cells if spec.grid_cells is not None else problem.grid_cells
    if not 1 <= cells <= MAX_GRID_CELLS:
        raise ConfigError(f"grid cells must be in 1..{MAX_GRID_CELLS}")
    return Grid(cells)


def _coalitions(spec: Namespace, n: int) -> tuple[tuple | None, int]:
    """The coalitions the run values, and the rows of the table they need.
    For solve, partition and trace: the ``--coalitions`` structure (default:
    every player alone), one row per coalition.  For a game: the
    ``--subset`` coalition S, played against the other players alone, so S
    and n - |S| singletons; else every coalition (None), 2^n - 1 rows."""
    if spec.command not in GAME_COMMANDS:
        structure = _parse_structure(spec.coalitions, n)
        return structure, len(structure)
    if spec.subset is None:
        return None, 2 ** n - 1
    s = _parse_players(spec.subset, n)
    return (s,), n - len(s) + 1


def _check_work_budget(rows: int, grid: Grid) -> None:
    """Reject a run whose largest measure table, of ``rows`` coalitions on
    ``grid``, is over the work budget, before any table is built."""
    cells = grid.cell_count
    if rows > MAX_TABLE_ROWS:
        raise ConfigError(f"a measure table of {rows} coalitions is over the "
                          f"work budget of {MAX_TABLE_ROWS} rows")
    if rows * cells * 8 > MAX_TABLE_BYTES:
        raise ConfigError(f"a measure table of {rows} coalitions x {cells} "
                          f"cells x 8 bytes is over the work budget of "
                          f"{MAX_TABLE_BYTES} bytes (1 GiB)")


def _weight_names(spec: Namespace, problem: Problem) -> tuple[str, ...]:
    """The weight systems the run computes: ``--weights``, else the file's
    ``"card"``/``"pre"``; with neither, ``game`` and ``shapley`` compute
    both and every other command none.  A list of weights in the file is
    per structure and so names none."""
    if spec.weights or isinstance(problem.weights, str):
        return (spec.weights or problem.weights,)
    return ("card", "pre") if spec.command in GAME_COMMANDS else ()


def _tables(problem: Problem, grid: Grid):
    """The run's measure tables, by tuple of coalitions: each is measured
    once on ``grid``, so the n singletons of the pre-division pre-solve are
    also the default structure's table."""
    return cache(partial(coalition_table, problem.densities, grid=grid))


def _weight_system(spec: Namespace, tables, n: int,
                   name: str) -> WeightSystem:
    """The ``card`` or ``pre`` weight system.  The competitive pre-solve
    behind pre-division weights measures the singletons on the run's grid,
    and ``--max-iter``, already checked by ``_solver_config``, caps its
    Kelley iterations too."""
    if name == "card":
        return cardinality_weights()
    config = replace(PRE_SOLVE_CONFIG, **_given(max_iterations=spec.max_iter))
    return pre_division_from_table(tables(tuple((i,) for i in range(n))),
                                   config)


def _structure_problem(problem: Problem, structure, tables,
                       system: WeightSystem | None) -> WeightedProblem:
    """The weighted problem behind solve, partition and trace: a computed
    weight system beats the file's list, default all ones.  Pre-division
    weights are read off the structure's own table, so the run measures
    the structure once."""
    weights = problem.weights or (1.0,) * len(structure)
    if system is None and len(weights) != len(structure):
        raise ConfigError("problem-file weights do not match the structure")
    table = tables(structure)
    if system is not None:
        weights = tuple(weight_of(system, s, table) for s in structure)
    return WeightedProblem(table, weights)


def fmt_num(x: float) -> str:
    """6 significant digits, always with a decimal point or exponent."""
    s = f"{x:.6g}"
    if "." not in s and "e" not in s and "inf" not in s and "nan" not in s:
        s += ".0"
    return s


def fmt_bound(x: float, rounding: str) -> str:
    """``fmt_num`` of x rounded to 6 significant digits toward -inf
    (``ROUND_FLOOR``, for a lower bound) or +inf (``ROUND_CEILING``, for an
    upper bound).  Rounding the shortest repr of x, which reads back as x,
    keeps x itself where it has at most 6 digits; the printed bound read
    back as a float is then never on the wrong side of x."""
    s = fmt_num(x)
    # rounding to nearest is the directed rounding wherever it lands on x or
    # on the bound's side of it, and it is much cheaper than the decimal path
    if float(s) == x or (float(s) < x) == (rounding == ROUND_FLOOR):
        return s
    d = Decimal(repr(x))
    if d.is_finite() and d:
        d = d.quantize(Decimal(1).scaleb(d.adjusted() - 5), rounding=rounding)
    return fmt_num(float(d))


def _coalition_label(s) -> str:
    return ",".join(str(i + 1) for i in sorted(s))


def _unwritable(path: str, reason) -> ConfigError:
    return ConfigError(f"cannot write {path}: {reason}")


def _check_out(spec: Namespace) -> None:
    """Reject an ``--out`` that is a directory or whose parent is not an
    existing directory, before anything is solved.  The file is not opened
    here, so a run that fails later leaves it untouched."""
    if not spec.out:
        return
    if os.path.isdir(spec.out):
        raise _unwritable(spec.out, os.strerror(errno.EISDIR))
    try:
        # a trailing separator makes stat fail unless the parent is a directory
        os.stat(os.path.join(os.path.dirname(spec.out) or os.curdir, ""))
    except OSError as e:
        raise _unwritable(spec.out, e.strerror or e) from None


def _emit(spec: Namespace, text: str) -> None:
    if spec.out:
        try:
            with open(spec.out, "w", encoding="utf-8") as f:
                f.write(text)
        except OSError as e:
            raise _unwritable(spec.out, e.strerror or e) from None
    else:
        sys.stdout.write(text)


def _csv_format(value):
    """The CSV formatter of a column whose first field is ``value``; every
    field of a column has its first field's type."""
    if isinstance(value, str):
        return '"{}"'.format
    if isinstance(value, bool):
        return lambda v: str(v).lower()
    return str if isinstance(value, int) else fmt_num


def _records_text(spec: Namespace, records: list[dict],
                  outward: dict[str, str] | None = None) -> str:
    """One dict per row: a JSON list, or CSV headed by the dict keys.
    ``outward`` maps the keys of certified bounds to their ``fmt_bound``
    rounding in CSV; JSON writes every float in full."""
    if spec.out_format == "json":
        return json.dumps(records, indent=2) + "\n"
    outward = outward or {}
    formats = [partial(fmt_bound, rounding=outward[key]) if key in outward
               else _csv_format(v) for key, v in records[0].items()]
    lines = [",".join(records[0])]
    lines += [",".join(f(v) for f, v in zip(formats, rec.values()))
              for rec in records]
    return "\n".join(lines) + "\n"


def _cmd_solve(spec: Namespace, wp: WeightedProblem,
               config: SolverConfig) -> tuple[str, bool]:
    res = cutting_plane_value(wp, config)
    return (f"[{fmt_bound(res.lower, ROUND_FLOOR)}, "
            f"{fmt_bound(res.upper, ROUND_CEILING)}]\n", res.converged)


def _cmd_partition(spec: Namespace, wp: WeightedProblem,
                   config: SolverConfig) -> tuple[str, bool]:
    res = solve_partition(wp, config)
    alloc = res.pvv.allocation
    if spec.out_format == "json":
        labeled = {
            _coalition_label(wp.structure[j]): [[a, b] for a, b in spans]
            for j, spans in sorted(alloc.intervals().items())
        }
        text = json.dumps(labeled, indent=2, sort_keys=True) + "\n"
    else:
        labels = [_coalition_label(s) for s in wp.structure]
        edges = wp.grid.edges.tolist()
        text = _records_text(spec, [
            {"cell_index": k, "x_left": edges[k], "x_right": edges[k + 1],
             "coalition": labels[j]}
            for k, j in enumerate(alloc.assignment.tolist())])
    return text, res.converged


def _cmd_game(spec: Namespace,
              tables: dict[str, GameTable]) -> tuple[str, bool]:
    records = []
    # every table holds the same coalitions, in the same order
    for s in next(iter(tables.values())).entries:
        row = {name: t.entries[s] for name, t in tables.items()}
        records.append({"coalition": _coalition_label(s),
                        **{f"eta_{name}": e.value for name, e in row.items()},
                        "converged": all(e.converged for e in row.values())})
    return (_records_text(spec, records),
            all(rec["converged"] for rec in records))


def _cmd_shapley(spec: Namespace,
                 tables: dict[str, GameTable]) -> tuple[str, bool]:
    values = {name: shapley(t).values for name, t in tables.items()}
    n = next(iter(tables.values())).players
    return (_records_text(spec, [
        {"player": i + 1, **{f"sv_{name}": v[i] for name, v in values.items()}}
        for i in range(n)]),
        all(t.all_converged for t in tables.values()))


def _cmd_trace(spec: Namespace, wp: WeightedProblem,
               config: SolverConfig) -> tuple[str, bool]:
    res = solve_value(wp, replace(config, record_trace=True))
    keys = (["t", "ub", "lb", "g", "vbar", "step"]
            + [f"alpha_{j + 1}" for j in range(wp.m)]
            + [f"u_{j + 1}" for j in range(wp.m)])
    return (_records_text(spec, [
        dict(zip(keys, (*row[:6], *row.alpha.tolist(), *row.u.tolist())))
        for row in res.trace],
        outward={"lb": ROUND_FLOOR, "ub": ROUND_CEILING}),
        res.converged)


#: solve, partition and trace solve the built problem; game and shapley
#: format the game tables
_DISPATCH = {"solve": _cmd_solve, "partition": _cmd_partition,
             "game": _cmd_game, "shapley": _cmd_shapley, "trace": _cmd_trace}


def run(spec: Namespace) -> int:
    """Run one parsed command line; returns the exit code.

    Check the settings, resolve the grid, weight systems and coalitions
    once and check the work budget on them; then build the weight systems
    and the tables, hand those to the command, which solves and formats,
    and write its text.  The weight systems' convergence and the command's
    decide exit 0 or 3."""
    try:
        problem = load_problem(spec.problem_path)
    except FileNotFoundError:
        print(f"fairdiv: cannot open {spec.problem_path}", file=sys.stderr)
        return EXIT_PARSE
    except OSError as e:
        print(f"fairdiv: cannot read {spec.problem_path}: {e.strerror or e}",
              file=sys.stderr)
        return EXIT_PARSE
    except ProblemFormatError as e:
        print(f"fairdiv: {spec.problem_path}: {e}", file=sys.stderr)
        return EXIT_PARSE
    try:
        _check_flags(spec)
        _check_out(spec)
        config = _solver_config(spec)
        grid = _grid(spec, problem)
        names = _weight_names(spec, problem)
        coalitions, rows = _coalitions(spec, problem.n)
        # the pre-division pre-solve measures the n singletons
        _check_work_budget(max(rows, problem.n) if "pre" in names else rows,
                           grid)
        tables = _tables(problem, grid)
        systems = {name: _weight_system(spec, tables, problem.n, name)
                   for name in names}
        if spec.command in GAME_COMMANDS:
            text, converged = _DISPATCH[spec.command](spec, {
                name: full_game(problem.densities, system, config=config,
                                grid=grid, subsets=coalitions)
                for name, system in systems.items()})
        else:
            wp = _structure_problem(problem, coalitions, tables,
                                    next(iter(systems.values()), None))
            text, converged = _DISPATCH[spec.command](spec, wp, config)
        _emit(spec, text)
    except ConfigError as e:
        print(f"fairdiv: invalid configuration: {e}", file=sys.stderr)
        return EXIT_CONFIG
    except ValueError as e:
        print(f"fairdiv: cannot solve this problem: {e}", file=sys.stderr)
        return EXIT_CONFIG
    except RuntimeError as e:
        print(f"fairdiv: internal error: {e}", file=sys.stderr)
        return EXIT_INTERNAL
    converged = converged and all(s.converged for s in systems.values())
    return EXIT_OK if converged else EXIT_UNCONVERGED


def main(argv=None) -> int:
    return run(_parser().parse_args(argv))


def console_main() -> None:
    sys.exit(main())
