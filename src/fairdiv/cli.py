"""Command-line front end: problem ingestion, solves, table and trace output.

Exit codes: 0 success, 2 problem-file parse error, 3 solver or pre-division
weights did not converge (partial outputs are still written, flagged), 4
invalid configuration or a problem the library rejects, 5 internal error (a
library ``RuntimeError``: a bug, not a property of the problem).

Game values (``game``, ``shapley``) come from the cutting-plane solver, which
has no step rule; ``--step-scale`` and ``--clip-k`` tune the projected
subgradient method behind ``solve``, ``partition`` and ``trace`` only.
"""

from __future__ import annotations

import argparse
import io
import itertools
import json
import sys
from dataclasses import dataclass, replace

from .coalitions import (PRE_SOLVE_EPSILON, GameTable, WeightSystem,
                         cardinality_weights, full_game, game_value,
                         pre_division_weights, shapley, weight_of)
from .measures import Grid
from .partition import WeightedProblem, weighted_problem
from .problemfile import (MAX_GRID_CELLS, Problem, ProblemFormatError,
                          load_problem)
from .subgradient import SolverConfig, StepRule, solve_partition, solve_value

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_UNCONVERGED = 3
EXIT_CONFIG = 4
EXIT_INTERNAL = 5

COMMANDS = ("solve", "partition", "game", "shapley", "trace")


class ConfigError(ValueError):
    pass


@dataclass(frozen=True)
class RunSpec:
    problem_path: str
    command: str
    coalitions: str | None = None
    subset: str | None = None
    weights: str | None = None
    epsilon: float | None = None
    grid_cells: int | None = None
    step_scale: float | None = None
    clip_k: int | None = None
    max_iter: int | None = None
    jobs: int = 1
    out: str | None = None
    out_format: str = "csv"


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="fairdiv",
        description="Maxmin fair division of [0,1] with coalition games.")
    p.add_argument("--problem", required=True, help="problem file (JSON)")
    p.add_argument("--command", required=True, choices=COMMANDS)
    p.add_argument("--coalitions",
                   help="coalition structure, e.g. '1,2|3|4,5' (1-based)")
    p.add_argument("--subset", help="single coalition for 'game', e.g. '3,5'")
    p.add_argument("--weights", choices=["card", "pre"],
                   help="weight system (default: problem file, else all ones)")
    p.add_argument("--epsilon", type=float, help="stop tolerance")
    p.add_argument("--grid", type=int, help="grid cells override")
    p.add_argument("--step-scale", type=float,
                   help="base step scale (solve, partition, trace)")
    p.add_argument("--clip-k", type=int,
                   help="interiority clip constant (solve, partition, trace)")
    p.add_argument("--max-iter", type=int, help="iteration cap")
    p.add_argument("--jobs", type=int, default=1,
                   help="worker threads for 'game'/'shapley'")
    p.add_argument("--out", help="output path (default: stdout)")
    p.add_argument("--format", choices=["csv", "json"], default="csv",
                   dest="out_format")
    return p


def _parse_players(text: str, n: int) -> tuple[int, ...]:
    try:
        ids = tuple(int(tok) for tok in text.split(","))
    except ValueError:
        raise ConfigError(f"cannot parse player list {text!r}") from None
    if not ids:
        raise ConfigError("empty player list")
    for i in ids:
        if i < 1 or i > n:
            raise ConfigError(f"player {i} out of range 1..{n}")
    if len(set(ids)) != len(ids):
        raise ConfigError(f"repeated player in {text!r}")
    return tuple(sorted(i - 1 for i in ids))


def _parse_structure(text: str | None, n: int) -> tuple[tuple[int, ...], ...]:
    if text is None:
        return tuple((i,) for i in range(n))
    groups = [g for g in text.split("|") if g.strip()]
    if not groups:
        raise ConfigError("empty coalition structure")
    structure = tuple(_parse_players(g, n) for g in groups)
    seen: set[int] = set()
    for s in structure:
        if seen & set(s):
            raise ConfigError("coalitions must be pairwise disjoint")
        seen |= set(s)
    return structure


def _solver_config(spec: RunSpec, for_game: bool = False) -> SolverConfig:
    if for_game:
        for flag, value in (("--step-scale", spec.step_scale),
                            ("--clip-k", spec.clip_k)):
            if value is not None:
                raise ConfigError(f"{flag} applies only to solve, partition "
                                  "and trace")
    base = SolverConfig()
    rule = base.step_rule
    try:
        if spec.step_scale is not None:
            rule = StepRule(kind=rule.kind, scale=spec.step_scale,
                            clip=rule.clip)
        if spec.clip_k is not None:
            rule = StepRule(kind=rule.kind, scale=rule.scale,
                            clip=spec.clip_k)
        return SolverConfig(
            epsilon=spec.epsilon if spec.epsilon is not None else base.epsilon,
            max_iterations=(spec.max_iter if spec.max_iter is not None
                            else base.max_iterations),
            step_rule=rule)
    except ValueError as e:
        raise ConfigError(str(e)) from None


def _grid(spec: RunSpec, problem: Problem) -> Grid:
    cells = spec.grid_cells if spec.grid_cells is not None else problem.grid_cells
    if not 1 <= cells <= MAX_GRID_CELLS:
        raise ConfigError(f"grid cells must be in 1..{MAX_GRID_CELLS}")
    return Grid(cells)


def _weight_system(spec: RunSpec, problem: Problem, name: str) -> WeightSystem:
    """The ``card`` or ``pre`` weight system; ``--max-iter`` caps the
    competitive pre-solve behind pre-division weights too."""
    if name == "card":
        return cardinality_weights()
    if spec.max_iter is None:
        return pre_division_weights(problem.densities)
    try:
        config = SolverConfig(epsilon=PRE_SOLVE_EPSILON,
                              max_iterations=spec.max_iter)
    except ValueError as e:
        raise ConfigError(str(e)) from None
    return pre_division_weights(problem.densities, config=config)


def _structure_problem(spec: RunSpec, problem: Problem
                       ) -> tuple[WeightedProblem, bool]:
    """The weighted problem behind solve, partition and trace, and whether
    its weights converged; ``--weights`` beats the file, default all ones."""
    grid = _grid(spec, problem)
    structure = _parse_structure(spec.coalitions, problem.n)
    choice = spec.weights or (problem.weights
                              if isinstance(problem.weights, str) else None)
    converged = True
    if choice is not None:
        system = _weight_system(spec, problem, choice)
        weights = tuple(weight_of(system, s) for s in structure)
        converged = system.converged
    elif problem.weights is not None:
        if len(problem.weights) != len(structure):
            raise ConfigError("problem-file weights do not match the structure")
        weights = problem.weights
    else:
        weights = (1.0,) * len(structure)
    return (weighted_problem(problem.densities, structure, weights, grid),
            converged)


def fmt_num(x: float) -> str:
    """6 significant digits, always with a decimal point or exponent."""
    s = f"{x:.6g}"
    if "." not in s and "e" not in s and "inf" not in s and "nan" not in s:
        s += ".0"
    return s


def _coalition_label(s) -> str:
    return ",".join(str(i + 1) for i in sorted(s))


def _open_out(spec: RunSpec):
    if spec.out:
        return open(spec.out, "w", encoding="utf-8")
    return None


def _emit(spec: RunSpec, text: str) -> None:
    f = _open_out(spec)
    if f is None:
        sys.stdout.write(text)
    else:
        with f:
            f.write(text)


def _cmd_solve(spec: RunSpec, problem: Problem) -> int:
    wp, weights_converged = _structure_problem(spec, problem)
    res = solve_value(wp, _solver_config(spec))
    print(f"[{fmt_num(res.lower)}, {fmt_num(res.upper)}]")
    return EXIT_OK if res.converged and weights_converged else EXIT_UNCONVERGED


def _cmd_partition(spec: RunSpec, problem: Problem) -> int:
    wp, weights_converged = _structure_problem(spec, problem)
    res = solve_partition(wp, _solver_config(spec))
    alloc = res.allocation
    if spec.out_format == "json":
        labeled = {
            _coalition_label(wp.structure[j]): [[a, b] for a, b in spans]
            for j, spans in sorted(alloc.intervals().items())
        }
        _emit(spec, json.dumps(labeled, indent=2, sort_keys=True) + "\n")
    else:
        buf = io.StringIO()
        buf.write("cell_index,x_left,x_right,coalition\n")
        edges = wp.grid.edges
        for k, j in enumerate(alloc.assignment):
            buf.write(f"{k},{fmt_num(edges[k])},{fmt_num(edges[k + 1])},"
                      f"{_coalition_label(wp.structure[int(j)])}\n")
        _emit(spec, buf.getvalue())
    return EXIT_OK if res.converged and weights_converged else EXIT_UNCONVERGED


def _systems(spec: RunSpec, problem: Problem) -> dict:
    names = [spec.weights] if spec.weights else ["card", "pre"]
    return {name: _weight_system(spec, problem, name) for name in names}


def _game_tables(spec: RunSpec, problem: Problem) -> dict[str, GameTable]:
    grid = _grid(spec, problem)
    config = _solver_config(spec, for_game=True)
    return {name: full_game(problem.densities, system, config=config,
                            grid=grid, jobs=spec.jobs)
            for name, system in _systems(spec, problem).items()}


def _write_game(spec: RunSpec, problem: Problem,
                tables: dict[str, GameTable], subsets) -> None:
    names = list(tables)
    rows = []
    for s in subsets:
        entries = [tables[name].entries[frozenset(s)] for name in names]
        rows.append((s, entries))
    if spec.out_format == "json":
        doc = []
        for s, entries in rows:
            rec = {"coalition": _coalition_label(s)}
            for name, e in zip(names, entries):
                rec[f"eta_{name}"] = e.value
            rec["converged"] = all(e.converged for e in entries)
            doc.append(rec)
        _emit(spec, json.dumps(doc, indent=2) + "\n")
    else:
        buf = io.StringIO()
        buf.write("coalition," + ",".join(f"eta_{n}" for n in names)
                  + ",converged\n")
        for s, entries in rows:
            vals = ",".join(fmt_num(e.value) for e in entries)
            flag = str(all(e.converged for e in entries)).lower()
            buf.write(f"\"{_coalition_label(s)}\",{vals},{flag}\n")
        _emit(spec, buf.getvalue())


def _cmd_game(spec: RunSpec, problem: Problem) -> int:
    n = problem.n
    if spec.subset is not None:
        s = _parse_players(spec.subset, n)
        grid = _grid(spec, problem)
        config = _solver_config(spec, for_game=True)
        systems = _systems(spec, problem)
        entries = {name: game_value(problem.densities, s, system,
                                    config=config, grid=grid)
                   for name, system in systems.items()}
        tables = {name: GameTable(players=n, system=systems[name],
                                  entries={frozenset(s): e})
                  for name, e in entries.items()}
        _write_game(spec, problem, tables, [s])
        ok = all(e.converged for e in entries.values())
        return EXIT_OK if ok else EXIT_UNCONVERGED
    tables = _game_tables(spec, problem)
    subsets = [s for r in range(1, n + 1)
               for s in itertools.combinations(range(n), r)]
    _write_game(spec, problem, tables, subsets)
    ok = all(t.all_converged for t in tables.values())
    return EXIT_OK if ok else EXIT_UNCONVERGED


def _cmd_shapley(spec: RunSpec, problem: Problem) -> int:
    tables = _game_tables(spec, problem)
    results = {name: shapley(t) for name, t in tables.items()}
    names = list(results)
    if spec.out_format == "json":
        doc = []
        for i in range(problem.n):
            rec = {"player": i + 1}
            for name in names:
                rec[f"sv_{name}"] = results[name].values[i]
            doc.append(rec)
        _emit(spec, json.dumps(doc, indent=2) + "\n")
    else:
        buf = io.StringIO()
        buf.write("player," + ",".join(f"sv_{n}" for n in names) + "\n")
        for i in range(problem.n):
            vals = ",".join(fmt_num(results[name].values[i]) for name in names)
            buf.write(f"{i + 1},{vals}\n")
        _emit(spec, buf.getvalue())
    ok = all(t.all_converged for t in tables.values())
    return EXIT_OK if ok else EXIT_UNCONVERGED


def _cmd_trace(spec: RunSpec, problem: Problem) -> int:
    wp, weights_converged = _structure_problem(spec, problem)
    res = solve_value(wp, replace(_solver_config(spec), record_trace=True))
    _emit(spec, res.trace.to_csv_string())
    return EXIT_OK if res.converged and weights_converged else EXIT_UNCONVERGED


_DISPATCH = {
    "solve": _cmd_solve,
    "partition": _cmd_partition,
    "game": _cmd_game,
    "shapley": _cmd_shapley,
    "trace": _cmd_trace,
}


def run(spec: RunSpec) -> int:
    try:
        problem = load_problem(spec.problem_path)
    except FileNotFoundError:
        print(f"fairdiv: cannot open {spec.problem_path}", file=sys.stderr)
        return EXIT_PARSE
    except ProblemFormatError as e:
        print(f"fairdiv: {spec.problem_path}: {e}", file=sys.stderr)
        return EXIT_PARSE
    try:
        return _DISPATCH[spec.command](spec, problem)
    except ConfigError as e:
        print(f"fairdiv: invalid configuration: {e}", file=sys.stderr)
        return EXIT_CONFIG
    except ValueError as e:
        print(f"fairdiv: cannot solve this problem: {e}", file=sys.stderr)
        return EXIT_CONFIG
    except RuntimeError as e:
        print(f"fairdiv: internal error: {e}", file=sys.stderr)
        return EXIT_INTERNAL


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    if args.jobs < 1:
        print("fairdiv: invalid configuration: jobs must be >= 1",
              file=sys.stderr)
        return EXIT_CONFIG
    spec = RunSpec(
        problem_path=args.problem,
        command=args.command,
        coalitions=args.coalitions,
        subset=args.subset,
        weights=args.weights,
        epsilon=args.epsilon,
        grid_cells=args.grid,
        step_scale=args.step_scale,
        clip_k=args.clip_k,
        max_iter=args.max_iter,
        jobs=args.jobs,
        out=args.out,
        out_format=args.out_format,
    )
    return run(spec)


def console_main() -> None:
    sys.exit(main())
