"""Spans recorded from outside the library, and the per-layer metrics derived
from them.

`Tracer.installed()` wraps every public function of the traced `fairdiv`
modules and rebinds each wrapped function wherever a `fairdiv.*` module holds
it (`maxsum_partition` inside `subgradient`, `solve_value` inside
`coalitions` and `cli`, the re-exports in `fairdiv` itself), so a call made
through any module is counted.  Nothing in the library changes; leaving the
context restores the original bindings.

A span is `(id, parent_id, name, start, end, extra)`, with `parent_id` 0 for a
root.  Parents are tracked per thread.  `extra` holds what the derived
metrics need from the call's arguments or result, taken after `end`.
"""

from __future__ import annotations

import contextlib
import csv
import importlib
import inspect
import itertools
import sys
import threading
import time
from collections import defaultdict

LAYERS = ("measures", "partition", "bounds", "subgradient", "coalitions",
          "problemfile", "cli")

#: the bundled instance has five players; its full game solves these
GAME_PLAYERS = 5

RAISED = "raised"


def structure_label(structure) -> str:
    """`((0,), (2, 4))` -> `"1_35"`: 1-based members, coalitions joined by _."""
    return "_".join("".join(str(i + 1) for i in s) for s in structure)


def _solve_extra(args, out):
    return (structure_label(args[0].structure), out.iterations,
            out.converged, out.width)


#: per-function payloads kept on the span, computed from (args, result)
_EXTRACT = {
    "measures.coalition_table": lambda a, out: out.masses.shape[0],
    "partition.maxsum_partition":
        lambda a, out: out.u.size * out.allocation.assignment.size,
    "subgradient.solve_value": _solve_extra,
    "subgradient.solve_partition": _solve_extra,
    "coalitions.full_game": lambda a, out: a[1].kind,
    "cli.main": lambda a, out: out,
}


class Tracer:
    """Keeps spans in memory; `write_csv` puts them on disk at the end."""

    def __init__(self):
        self.spans: list[tuple] = []
        self._local = threading.local()
        self._ids = itertools.count(1)

    def _wrap(self, name, fn):
        spans, local, ids = self.spans, self._local, self._ids
        clock = time.perf_counter
        extract = _EXTRACT.get(name)

        def traced(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            sid = next(ids)
            parent = stack[-1] if stack else 0
            stack.append(sid)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                spans.append((sid, parent, name, t0, clock(), RAISED))
                raise
            finally:
                stack.pop()
            t1 = clock()
            spans.append((sid, parent, name, t0, t1,
                          extract(args, out) if extract else None))
            return out

        traced.__wrapped__ = fn
        traced.__name__ = fn.__name__
        traced.__doc__ = fn.__doc__
        return traced

    @contextlib.contextmanager
    def installed(self):
        wrapped = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"fairdiv.{layer}")
            for attr, obj in vars(mod).items():
                if (inspect.isfunction(obj) and not attr.startswith("_")
                        and obj.__module__ == mod.__name__):
                    wrapped[id(obj)] = self._wrap(f"{layer}.{attr}", obj)
        rebound = []
        for modname, mod in list(sys.modules.items()):
            if modname != "fairdiv" and not modname.startswith("fairdiv."):
                continue
            for attr, obj in list(vars(mod).items()):
                if id(obj) in wrapped and inspect.isfunction(obj):
                    rebound.append((mod, attr, obj))
                    setattr(mod, attr, wrapped[id(obj)])
        try:
            yield self
        finally:
            for mod, attr, obj in rebound:
                setattr(mod, attr, obj)

    def write_csv(self, path, header: dict) -> None:
        with open(path, "w", newline="", encoding="utf-8") as f:
            for key, value in header.items():
                f.write(f"# {key}: {value}\n")
            w = csv.writer(f)
            w.writerow(["id", "parent", "name", "start", "end", "extra"])
            for sid, parent, name, t0, t1, extra in sorted(self.spans):
                w.writerow([sid, parent, name, f"{t0:.9f}", f"{t1:.9f}",
                            "" if extra is None else extra])


def game_structures(n: int = GAME_PLAYERS) -> list[str]:
    """Labels of the structures `full_game` solves: each coalition against
    the remaining singletons, with coincident structures solved once."""
    labels = set()
    for r in range(1, n + 1):
        for s in itertools.combinations(range(n), r):
            units = [s] + [(j,) for j in range(n) if j not in s]
            labels.add(structure_label(sorted(units)))
    return sorted(labels)


_SYSTEM_TAG = {"cardinality": "card", "pre_division": "pre"}


def per_layer_names() -> list[str]:
    names = [
        "import_s",
        "measures.coalition_table.calls", "measures.coalition_table.rows",
        "measures.coalition_table.s",
        "measures.density_eval.calls", "measures.density_eval.s",
        "partition.maxsum_partition.calls", "partition.maxsum_partition.s",
        "partition.maxsum_partition.us_per_call",
        "partition.maxsum_partition.computed_mb",
        "bounds.lower_bound.calls", "bounds.lower_bound.s",
        "subgradient.solves", "subgradient.iterations",
        "subgradient.iterations_max", "subgradient.unconverged",
        "subgradient.self_s", "subgradient.width_max",
        "coalitions.pre_division_weights.s", "coalitions.full_game.s",
        "coalitions.shapley.s", "coalitions.structures",
        "coalitions.jobs2_speedup",
    ]
    for tag in ("card", "pre"):
        names += [f"coalitions.oracle_calls.{tag}.{label}"
                  for label in game_structures()]
    names += [
        "problemfile.load_problem.calls", "problemfile.load_problem.s",
        "cli.main.calls", "cli.main.self_s",
        "cli.exit.0", "cli.exit.3", "cli.exit.other",
        "trace.overhead",
    ]
    return names


def layer_metrics(spans) -> dict[str, float]:
    """Counts, busy seconds and self times per layer, from one traced run.

    A layer's self time is its outermost spans' duration minus the time
    covered by descendant spans of other layers (reached through spans of
    the same layer), so helpers a layer calls on itself count as its own.
    """
    by_id = {s[0]: s for s in spans}
    children = defaultdict(list)
    for s in spans:
        children[s[1]].append(s)

    def layer(s):
        return s[2].split(".", 1)[0]

    def foreign(s):
        total = 0.0
        for c in children[s[0]]:
            total += (c[4] - c[3]) if layer(c) != layer(s) else foreign(c)
        return total

    def outermost(s):
        parent = by_id.get(s[1])
        return parent is None or layer(parent) != layer(s)

    named = defaultdict(list)
    for s in spans:
        named[s[2]].append(s)

    def calls(name):
        return len(named[name])

    def busy(name):
        return sum(s[4] - s[3] for s in named[name])

    out: dict[str, float] = {}
    tables = named["measures.coalition_table"]
    out["measures.coalition_table.calls"] = len(tables)
    out["measures.coalition_table.rows"] = sum(
        s[5] for s in tables if s[5] != RAISED)
    out["measures.coalition_table.s"] = busy("measures.coalition_table")
    out["measures.density_eval.calls"] = calls("measures.density_eval")
    out["measures.density_eval.s"] = busy("measures.density_eval")

    oracle = named["partition.maxsum_partition"]
    out["partition.maxsum_partition.calls"] = len(oracle)
    out["partition.maxsum_partition.s"] = busy("partition.maxsum_partition")
    out["partition.maxsum_partition.us_per_call"] = (
        1e6 * out["partition.maxsum_partition.s"] / len(oracle)
        if oracle else 0.0)
    # computed, not measured: each call reads the m x K float64 cell values
    # and writes an m x K float64 score array
    out["partition.maxsum_partition.computed_mb"] = sum(
        2 * 8 * s[5] for s in oracle if s[5] != RAISED) / 1e6

    out["bounds.lower_bound.calls"] = calls("bounds.lower_bound")
    out["bounds.lower_bound.s"] = busy("bounds.lower_bound")

    solves = [s for s in named["subgradient.solve_value"]
              + named["subgradient.solve_partition"] if s[5] != RAISED]
    out["subgradient.solves"] = len(solves)
    out["subgradient.iterations"] = sum(s[5][1] for s in solves)
    out["subgradient.iterations_max"] = max(
        (s[5][1] for s in solves), default=0)
    out["subgradient.unconverged"] = sum(1 for s in solves if not s[5][2])
    out["subgradient.self_s"] = sum(
        (s[4] - s[3]) - foreign(s) for s in spans
        if layer(s) == "subgradient" and outermost(s))
    out["subgradient.width_max"] = max((s[5][3] for s in solves), default=0.0)

    out["coalitions.pre_division_weights.s"] = busy(
        "coalitions.pre_division_weights")
    out["coalitions.full_game.s"] = busy("coalitions.full_game")
    out["coalitions.shapley.s"] = busy("coalitions.shapley")
    oracle_calls = {f"coalitions.oracle_calls.{tag}.{label}": 0
                    for tag in ("card", "pre")
                    for label in game_structures()}
    structures = 0
    for s in named["subgradient.solve_value"]:
        game = by_id.get(s[1])
        if game is None or game[2] != "coalitions.full_game":
            continue
        structures += 1
        if s[5] == RAISED or game[5] == RAISED:
            continue
        key = f"coalitions.oracle_calls.{_SYSTEM_TAG[game[5]]}.{s[5][0]}"
        if key in oracle_calls:  # a full game of the bundled five players
            oracle_calls[key] += sum(
                1 for c in children[s[0]]
                if c[2] == "partition.maxsum_partition")
    out["coalitions.structures"] = structures
    out.update(oracle_calls)

    out["problemfile.load_problem.calls"] = calls("problemfile.load_problem")
    out["problemfile.load_problem.s"] = busy("problemfile.load_problem")
    mains = named["cli.main"]
    out["cli.main.calls"] = len(mains)
    out["cli.main.self_s"] = sum(
        (s[4] - s[3]) - foreign(s) for s in mains if outermost(s))
    out["cli.exit.0"] = sum(1 for s in mains if s[5] == 0)
    out["cli.exit.3"] = sum(1 for s in mains if s[5] == 3)
    out["cli.exit.other"] = len(mains) - out["cli.exit.0"] - out["cli.exit.3"]
    return out
