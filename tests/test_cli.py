import csv
import io
import json
import os
import subprocess
import sys
import time
from decimal import ROUND_CEILING, ROUND_FLOOR

import pytest

import fairdiv
import fairdiv.coalitions

from fairdiv.cli import (COMMANDS, EXIT_CONFIG, EXIT_INTERNAL, EXIT_OK,
                         EXIT_PARSE, EXIT_UNCONVERGED, fmt_bound, fmt_num,
                         main)
from fairdiv.problemfile import MAX_GRID_CELLS
from conftest import BUNDLED_PROBLEM


@pytest.fixture()
def one_player_file(tmp_path):
    path = tmp_path / "one.json"
    path.write_text(json.dumps({
        "players": [{"name": "solo", "density": {"kind": "uniform"}}],
        "grid_cells": 64,
    }))
    return str(path)


@pytest.fixture()
def disjoint_file(tmp_path):
    path = tmp_path / "two.json"
    path.write_text(json.dumps({
        "players": [
            {"name": "left", "density": {"kind": "piecewise",
                                         "breakpoints": [0, 0.5, 1],
                                         "values": [2, 0]}},
            {"name": "right", "density": {"kind": "piecewise",
                                          "breakpoints": [0, 0.5, 1],
                                          "values": [0, 2]}},
        ],
        "grid_cells": 64,
    }))
    return str(path)


def test_fmt_num():
    assert fmt_num(1.0) == "1.0"
    assert fmt_num(0.4035533) == "0.403553"
    assert fmt_num(2.0) == "2.0"


def test_solve_one_player(one_player_file, capsys):
    rc = main(["--problem", one_player_file, "--command", "solve"])
    assert rc == EXIT_OK
    assert capsys.readouterr().out.strip() == "[1.0, 1.0]"


def test_solve_bundled_instance(capsys):
    rc = main(["--problem", BUNDLED_PROBLEM, "--command", "solve"])
    assert rc == EXIT_OK
    out = capsys.readouterr().out.strip()
    lo, hi = (float(tok) for tok in out.strip("[]").split(","))
    assert hi - lo < 1e-3
    assert lo <= 0.4036 and hi >= 0.4030


def _record_solves(monkeypatch) -> list:
    """Results of every cutting-plane solve that the CLI runs."""
    results, solve = [], fairdiv.cutting_plane_value

    def recording(*args, **kwargs):
        results.append(solve(*args, **kwargs))
        return results[-1]

    monkeypatch.setattr("fairdiv.cli.cutting_plane_value", recording)
    return results


@pytest.mark.parametrize("epsilon", ["1e-3", "1e-6", "1e-9", "1e-12"])
def test_printed_bracket_contains_the_value(capsys, monkeypatch, epsilon):
    results = _record_solves(monkeypatch)
    rc = main(["--problem", BUNDLED_PROBLEM, "--command", "solve",
               "--epsilon", epsilon])
    assert rc == EXIT_OK
    lo, hi = (float(tok) for tok in
              capsys.readouterr().out.strip().strip("[]").split(","))
    (res,) = results
    assert lo <= res.lower <= res.upper <= hi
    assert hi - lo <= res.width + 2e-6


def test_pinched_bracket_prints_apart(capsys):
    # the certified bracket is [0.4035535086944879, 0.40355350869448814];
    # rounding both ends to the nearest 6 digits would print 0.403554 twice
    rc = main(["--problem", BUNDLED_PROBLEM, "--command", "solve",
               "--epsilon", "1e-9"])
    assert rc == EXIT_OK
    assert capsys.readouterr().out == "[0.403553, 0.403554]\n"


@pytest.mark.parametrize("x, floor, ceiling", [
    (0.4035535086944879, "0.403553", "0.403554"),
    (0.5, "0.5", "0.5"),
    (0.3, "0.3", "0.3"),
    (1.0, "1.0", "1.0"),
    (0.9999995, "0.999999", "1.0"),
    (-0.4035535, "-0.403554", "-0.403553"),
    (1234567.0, "1.23456e+06", "1.23457e+06"),
    (1.2345678e-7, "1.23456e-07", "1.23457e-07"),
    (0.0, "0.0", "0.0"),
    (float("inf"), "inf", "inf"),
])
def test_fmt_bound_rounds_outward(x, floor, ceiling):
    assert fmt_bound(x, ROUND_FLOOR) == floor
    assert fmt_bound(x, ROUND_CEILING) == ceiling
    assert float(floor) <= x <= float(ceiling)


def test_solve_writes_out_file(disjoint_file, tmp_path, capsys):
    out = tmp_path / "bracket.txt"
    rc = main(["--problem", disjoint_file, "--command", "solve",
               "--out", str(out)])
    assert rc == EXIT_OK
    assert out.read_text() == "[1.0, 1.0]\n"
    assert capsys.readouterr().out == ""


def test_solve_with_coalition_structure(disjoint_file, capsys):
    rc = main(["--problem", disjoint_file, "--command", "solve",
               "--coalitions", "1|2"])
    assert rc == EXIT_OK
    assert capsys.readouterr().out.strip() == "[1.0, 1.0]"


def test_partition_csv_deterministic(disjoint_file, tmp_path):
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    for out in (out1, out2):
        rc = main(["--problem", disjoint_file, "--command", "partition",
                   "--out", str(out)])
        assert rc == EXIT_OK
    assert out1.read_bytes() == out2.read_bytes()
    header, first = out1.read_text().splitlines()[:2]
    assert header == "cell_index,x_left,x_right,coalition"
    assert first == '0,0.0,0.015625,"1"'


def test_partition_csv_quotes_coalition_labels(capsys):
    rc = main(["--problem", BUNDLED_PROBLEM, "--command", "partition",
               "--coalitions", "3,5|1|2|4", "--grid", "64",
               "--weights", "card"])
    assert rc in (EXIT_OK, EXIT_UNCONVERGED)
    reader = csv.DictReader(io.StringIO(capsys.readouterr().out))
    rows = list(reader)
    header = ["cell_index", "x_left", "x_right", "coalition"]
    assert reader.fieldnames == header
    assert len(rows) == 64
    for row in rows:
        assert list(row) == header and None not in row.values()
        assert row["coalition"] in {"3,5", "1", "2", "4"}


def test_partition_json_intervals(disjoint_file, capsys):
    rc = main(["--problem", disjoint_file, "--command", "partition",
               "--format", "json"])
    assert rc == EXIT_OK
    doc = json.loads(capsys.readouterr().out)
    assert doc == {"1": [[0.0, 0.5]], "2": [[0.5, 1.0]]}


def test_game_subset(disjoint_file, capsys):
    rc = main(["--problem", disjoint_file, "--command", "game",
               "--subset", "1,2", "--weights", "card"])
    assert rc == EXIT_OK
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "coalition,eta_card,converged"
    assert lines[1] == '"1,2",2.0,true'


def test_game_full_table_both_systems(disjoint_file, capsys):
    rc = main(["--problem", disjoint_file, "--command", "game"])
    assert rc == EXIT_OK
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "coalition,eta_card,eta_pre,converged"
    assert len(lines) == 4  # header + {1}, {2}, {1,2}
    assert lines[1].startswith('"1",1.0,1.0')
    assert lines[3].startswith('"1,2",2.0,2.0')


@pytest.mark.parametrize("command,header", [
    ("game", "coalition,eta_card,converged"),
    ("shapley", "player,sv_card"),
])
def test_file_weight_system_picks_the_columns(disjoint_file, capsys, command,
                                              header):
    with open(disjoint_file) as f:
        doc = json.load(f)
    doc["weights"] = "card"
    with open(disjoint_file, "w") as f:
        json.dump(doc, f)
    rc = main(["--problem", disjoint_file, "--command", command])
    assert rc == EXIT_OK
    assert capsys.readouterr().out.splitlines()[0] == header


def test_solve_matches_game_subset(capsys):
    # both run the cutting-plane solver; eta({3,5}) = w({3,5}) * value
    rc = main(["--problem", BUNDLED_PROBLEM, "--command", "solve",
               "--coalitions", "3,5|1|2|4", "--weights", "card"])
    assert rc == EXIT_OK
    lo, hi = (float(tok) for tok in
              capsys.readouterr().out.strip().strip("[]").split(","))
    assert hi - lo < 1e-3
    rc = main(["--problem", BUNDLED_PROBLEM, "--command", "game",
               "--subset", "3,5", "--weights", "card", "--format", "json"])
    assert rc == EXIT_OK
    eta = json.loads(capsys.readouterr().out)[0]["eta_card"]
    # the game value is 2 x the unrounded midpoint; each printed end is
    # rounded outward by less than 1e-6, so the printed midpoint is off by
    # less than that
    assert lo <= eta / 2 <= hi
    assert abs(eta / 2 - 0.5 * (lo + hi)) < 1e-6


def test_shapley_csv(disjoint_file, capsys):
    rc = main(["--problem", disjoint_file, "--command", "shapley",
               "--weights", "card"])
    assert rc == EXIT_OK
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "player,sv_card"
    assert lines[1] == "1,1.0"
    assert lines[2] == "2,1.0"


def test_shapley_json(disjoint_file, capsys):
    rc = main(["--problem", disjoint_file, "--command", "shapley",
               "--format", "json"])
    assert rc == EXIT_OK
    doc = json.loads(capsys.readouterr().out)
    assert doc[0]["player"] == 1
    assert doc[0]["sv_card"] == pytest.approx(1.0, abs=1e-9)
    assert doc[1]["sv_pre"] == pytest.approx(1.0, abs=1e-9)


def test_game_json_bytes(disjoint_file, capsys):
    rc = main(["--problem", disjoint_file, "--command", "game",
               "--format", "json"])
    assert rc == EXIT_OK
    rows = [("1", "1.0"), ("2", "1.0"), ("1,2", "2.0")]
    want = ",\n".join(
        f'  {{\n    "coalition": "{c}",\n    "eta_card": {v},\n'
        f'    "eta_pre": {v},\n    "converged": true\n  }}'
        for c, v in rows)
    assert capsys.readouterr().out == "[\n" + want + "\n]\n"


def test_shapley_csv_bytes(disjoint_file, capsys):
    rc = main(["--problem", disjoint_file, "--command", "shapley"])
    assert rc == EXIT_OK
    assert capsys.readouterr().out == ("player,sv_card,sv_pre\n"
                                       "1,1.0,1.0\n"
                                       "2,1.0,1.0\n")


def test_shapley_json_bytes(disjoint_file, capsys):
    rc = main(["--problem", disjoint_file, "--command", "shapley",
               "--format", "json"])
    assert rc == EXIT_OK
    want = ",\n".join(
        f'  {{\n    "player": {i},\n    "sv_card": 1.0,\n'
        f'    "sv_pre": 1.0\n  }}' for i in (1, 2))
    assert capsys.readouterr().out == "[\n" + want + "\n]\n"


def test_trace_csv(disjoint_file, capsys):
    rc = main(["--problem", disjoint_file, "--command", "trace"])
    assert rc == EXIT_OK
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "t,ub,lb,g,vbar,step,alpha_1,alpha_2,u_1,u_2"


def test_trace_csv_layout(capsys):
    # 10 capped iterations leave the bracket open: iterates t = 0..10
    rc = main(["--problem", BUNDLED_PROBLEM, "--command", "trace",
               "--max-iter", "10"])
    assert rc == EXIT_UNCONVERGED
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == ("t,ub,lb,g,vbar,step,"
                        "alpha_1,alpha_2,alpha_3,alpha_4,alpha_5,"
                        "u_1,u_2,u_3,u_4,u_5")
    assert [line.split(",")[0] for line in lines[1:]] == [
        str(t) for t in range(11)]
    assert lines[1].startswith("0,")


def test_trace_csv_bounds_round_outward(capsys):
    argv = ["--problem", BUNDLED_PROBLEM, "--command", "trace",
            "--grid", "256", "--max-iter", "30"]
    main(argv)
    csv_rows = list(csv.DictReader(io.StringIO(capsys.readouterr().out)))
    main(argv + ["--format", "json"])
    doc = json.loads(capsys.readouterr().out)
    for row, full in zip(csv_rows, doc, strict=True):
        assert float(row["lb"]) <= full["lb"]
        assert float(row["ub"]) >= full["ub"]
        assert row["g"] == fmt_num(full["g"])


def test_trace_json_matches_csv(capsys):
    argv = ["--problem", BUNDLED_PROBLEM, "--command", "trace",
            "--grid", "256", "--max-iter", "30"]
    rc_csv = main(argv)
    reader = csv.DictReader(io.StringIO(capsys.readouterr().out))
    csv_rows = list(reader)
    rc_json = main(argv + ["--format", "json"])
    doc = json.loads(capsys.readouterr().out)
    assert rc_json == rc_csv
    assert isinstance(doc, list) and len(doc) == len(csv_rows)
    assert all(list(row) == reader.fieldnames for row in doc)
    assert [row["t"] for row in doc] == [int(r["t"]) for r in csv_rows]


def test_shapley_bundled_instance_matches_reference(capsys):
    # reference values for the bundled instance; 1-based player order
    want = [0.465, 0.451, 0.507, 0.491, 0.563]
    rc = main(["--problem", BUNDLED_PROBLEM, "--command", "shapley",
               "--weights", "card"])
    assert rc == EXIT_OK
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "player,sv_card"
    for i, line in enumerate(lines[1:]):
        player, value = line.split(",")
        assert int(player) == i + 1
        assert float(value) == pytest.approx(want[i], abs=1e-2)


def test_solve_rejects_json_format(one_player_file, capsys):
    rc = main(["--problem", one_player_file, "--command", "solve",
               "--format", "json"])
    assert rc == EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.out == ""
    _one_line_error(captured.err)
    assert ("--format json applies only to partition, game, shapley and "
            "trace" in captured.err)


def test_quoted_numbers_exit_code(tmp_path, capsys):
    path = tmp_path / "strings.json"
    path.write_text(json.dumps({
        "players": [
            {"density": {"kind": "beta", "a": "2", "b": "5"}},
            {"density": {"kind": "piecewise",
                         "breakpoints": ["0", "0.5", "1"],
                         "values": ["2", "0"]}},
        ],
        "grid_cells": 64,
    }))
    rc = main(["--problem", str(path), "--command", "solve"])
    assert rc == EXIT_PARSE
    captured = capsys.readouterr()
    assert captured.out == ""
    _one_line_error(captured.err)


def test_parse_error_exit_code(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{ nope")
    rc = main(["--problem", str(path), "--command", "solve"])
    assert rc == EXIT_PARSE
    assert "line 1" in capsys.readouterr().err


def test_missing_file_exit_code(tmp_path, capsys):
    rc = main(["--problem", str(tmp_path / "absent.json"),
               "--command", "solve"])
    assert rc == EXIT_PARSE


def test_unreadable_problem_path_exit_code(tmp_path, capsys):
    # a directory, and a file that is not UTF-8 text
    not_utf8 = tmp_path / "utf16.json"
    not_utf8.write_bytes(b"\xff\xfe{\x00}\x00")
    for path in (tmp_path, not_utf8):
        rc = main(["--problem", str(path), "--command", "solve"])
        assert rc == EXIT_PARSE
        captured = capsys.readouterr()
        assert captured.out == ""
        _one_line_error(captured.err)


@pytest.mark.parametrize("out", [".", "missing_dir/x.csv"])
def test_unwritable_out_exit_code(one_player_file, tmp_path, capsys, out):
    rc = main(["--problem", one_player_file, "--command", "solve",
               "--out", str(tmp_path / out)])
    assert rc == EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.out == ""
    _one_line_error(captured.err)
    assert "cannot write" in captured.err


def _never_solve(*args, **kwargs):
    raise AssertionError("solved before --out was checked")


@pytest.mark.parametrize("command, out", [("game", "missing/x.csv"),
                                          ("shapley", ".")])
def test_unwritable_out_fails_before_the_solve(tmp_path, capsys, monkeypatch,
                                               command, out):
    for name in ("full_game", "cutting_plane_value",
                 "pre_division_from_table"):
        monkeypatch.setattr(fairdiv.cli, name, _never_solve)
    rc = main(["--problem", BUNDLED_PROBLEM, "--command", command,
               "--out", str(tmp_path / out)])
    assert rc == EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.out == ""
    _one_line_error(captured.err)
    assert "cannot write" in captured.err


def _never_build(*args, **kwargs):
    raise AssertionError("built before the work budget was checked")


@pytest.mark.parametrize("players, argv, limit", [
    # 2^40 - 1 coalitions at the file's 4,096 cells
    (40, ["--command", "shapley"], "rows"),
    (40, ["--command", "game", "--weights", "card"], "rows"),
    # 2^20 - 1 coalitions at 1,024 cells: 8 GiB
    (20, ["--command", "game", "--grid", "1024"], "bytes"),
    # 1,000 singletons at 2^20 cells: 8.4 GB
    (1000, ["--command", "solve", "--grid", str(MAX_GRID_CELLS)], "bytes"),
])
def test_work_budget_fails_before_any_table(tmp_path, capsys, monkeypatch,
                                            players, argv, limit):
    for module, name in ((fairdiv.cli, "coalition_table"),
                         (fairdiv.coalitions, "coalition_table"),
                         (fairdiv.coalitions, "_nonempty_subsets")):
        monkeypatch.setattr(module, name, _never_build)
    path = tmp_path / "many.json"
    path.write_text(json.dumps(
        {"players": [{"density": {"kind": "uniform"}}] * players}))
    rc = main(["--problem", str(path)] + argv)
    assert rc == EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.out == ""
    _one_line_error(captured.err)
    assert "work budget" in captured.err
    assert {"rows": "1048576 rows",
            "bytes": "1073741824 bytes (1 GiB)"}[limit] in captured.err


def _never_measure(*args, **kwargs):
    raise AssertionError("measured before the solver settings were checked")


@pytest.mark.parametrize("command, setting", [
    (command, setting)
    for command in ("solve", "partition", "trace", "game", "shapley")
    for setting in ("--epsilon -1", "--epsilon nan", "--max-iter 0")])
def test_invalid_solver_setting_fails_before_any_table(capsys, monkeypatch,
                                                       command, setting):
    # with pre-division weights every command measures the singletons and
    # runs the pre-solve; a setting the solver rejects exits 4 before both
    for module in (fairdiv.cli, fairdiv.coalitions):
        for name in ("coalition_table", "pre_division_from_table"):
            monkeypatch.setattr(module, name, _never_measure)
    rc = main(["--problem", BUNDLED_PROBLEM, "--command", command,
               "--weights", "pre"] + setting.split())
    assert rc == EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.out == ""
    _one_line_error(captured.err)
    assert "invalid configuration" in captured.err


@pytest.mark.parametrize("structure, tables, bracket", [
    ([], [((0,), (1,), (2,), (3,), (4,))], "[0.999531, 1.00025]"),
    (["--coalitions", "3,5|1|2|4"],
     [((0,), (1,), (2,), (3,), (4,)), ((2, 4), (0,), (1,), (3,))],
     "[0.999808, 1.00002]"),
])
def test_pre_weights_measure_the_singletons_once(capsys, monkeypatch,
                                                 structure, tables, bracket):
    # the pre-solve's singletons are the default structure's table, measured
    # once; any other structure is measured after them
    built = []
    build = fairdiv.cli.coalition_table

    def spy(players, subsets, grid):
        built.append(tuple(subsets))
        return build(players, subsets, grid)

    for module in (fairdiv.cli, fairdiv.coalitions):
        monkeypatch.setattr(module, "coalition_table", spy)
    rc = main(["--problem", BUNDLED_PROBLEM, "--command", "solve",
               "--weights", "pre"] + structure)
    assert rc == EXIT_OK
    assert capsys.readouterr().out == bracket + "\n"
    assert built == tables


def _fresh_parser_run(argv) -> int:
    """One command line through a newly built parser, as ``main`` once
    ran every call."""
    return fairdiv.cli.run(fairdiv.cli._parser.__wrapped__().parse_args(argv))


def test_main_reuses_one_parser(capsys, one_player_file):
    # calls in a row through the one parser give what a fresh parser gives,
    # a rejected flag included, before and after a successful call
    solve = ["--problem", one_player_file, "--command", "solve"]
    runs = [solve,
            ["--problem", BUNDLED_PROBLEM, "--command", "game",
             "--subset", "3,5", "--weights", "card", "--format", "json"],
            solve + ["--weights", "bogus"],
            solve + ["--subset", "3,5"],
            solve]

    def outcome(call, argv):
        try:
            rc = call(argv)
        except SystemExit as e:
            rc = ("exit", e.code)
        return rc, capsys.readouterr()

    want = [outcome(_fresh_parser_run, argv) for argv in runs]
    assert [rc for rc, _ in want] == [EXIT_OK, EXIT_OK, ("exit", 2),
                                      EXIT_CONFIG, EXIT_OK]
    assert [outcome(main, argv) for argv in runs] == want
    assert fairdiv.cli._parser() is fairdiv.cli._parser()


def test_work_budget_admits_its_largest_game(tmp_path, monkeypatch):
    # 2^15 - 1 coalitions at 4,096 cells is just under 1 GiB: the budget
    # lets the run reach its table build
    built = []

    def stop(players, subsets, grid):
        built.append((len(subsets), grid.cell_count))
        raise RuntimeError("stop here")

    monkeypatch.setattr(fairdiv.coalitions, "coalition_table", stop)
    path = tmp_path / "fifteen.json"
    path.write_text(json.dumps(
        {"players": [{"density": {"kind": "uniform"}}] * 15}))
    rc = main(["--problem", str(path), "--command", "game",
               "--weights", "card"])
    assert rc == EXIT_INTERNAL
    assert built == [(2 ** 15 - 1, 4096)]


def _players_file(tmp_path, players: int) -> str:
    path = tmp_path / f"{players}_players.json"
    path.write_text(json.dumps(
        {"players": [{"density": {"kind": "beta", "a": 2, "b": 5}}] * players}))
    return str(path)


@pytest.mark.parametrize("players, argv, module, rows", [
    # two rows of a thousand players at 2^20 cells: 16 MiB
    (1000, ["solve", "--coalitions", "1|2", "--weights", "card"],
     fairdiv.cli, 2),
    (1000, ["trace", "--coalitions", "1,2,3|4"], fairdiv.cli, 2),
    # S and the other 100 singletons: 101 rows, 808 MiB
    (200, ["game", "--subset", ",".join(map(str, range(1, 101))),
           "--weights", "card"], fairdiv.coalitions, 101),
])
def test_work_budget_counts_the_rows_the_run_builds(tmp_path, monkeypatch,
                                                    players, argv, module,
                                                    rows):
    # n rows at 2^20 cells would be over 1 GiB; the rows the run values fit,
    # so it reaches its table build
    built = []

    def stop(players, subsets, grid):
        built.append((len(subsets), grid.cell_count))
        raise RuntimeError("stop here")

    monkeypatch.setattr(module, "coalition_table", stop)
    rc = main(["--problem", _players_file(tmp_path, players), "--command"]
              + argv + ["--grid", str(MAX_GRID_CELLS)])
    assert rc == EXIT_INTERNAL
    assert built == [(rows, MAX_GRID_CELLS)]


@pytest.mark.parametrize("argv", [
    ["solve", "--coalitions", "1|2", "--weights", "pre"],
    # a game naming no weight system computes both, pre-division included
    ["game", "--subset", "1,2"],
])
def test_work_budget_counts_the_pre_solve_singletons(tmp_path, capsys,
                                                     monkeypatch, argv):
    for module, name in ((fairdiv.cli, "coalition_table"),
                         (fairdiv.cli, "pre_division_from_table"),
                         (fairdiv.coalitions, "coalition_table")):
        monkeypatch.setattr(module, name, _never_build)
    rc = main(["--problem", _players_file(tmp_path, 1000), "--command"]
              + argv + ["--grid", str(MAX_GRID_CELLS)])
    assert rc == EXIT_CONFIG
    captured = capsys.readouterr()
    _one_line_error(captured.err)
    assert "a measure table of 1000 coalitions" in captured.err
    assert "1073741824 bytes (1 GiB)" in captured.err


@pytest.mark.parametrize("weights", ["card", "pre", None])
@pytest.mark.parametrize("argv, rows", [
    (["solve", "--coalitions", "1,2|3"], 2),
    (["partition", "--coalitions", "1,2|3"], 2),
    (["trace", "--coalitions", "1,2|3"], 2),
    (["game"], 15),
    (["game", "--subset", "1,2"], 3),
    (["shapley"], 15),
])
def test_work_budget_counts_the_tables_the_run_builds(tmp_path, capsys,
                                                      monkeypatch, argv,
                                                      rows, weights):
    # the documented rows of four players: one per coalition of the
    # structure, n - |S| + 1 for game --subset S, 2^n - 1 for a full game,
    # and at least the n singletons wherever pre-division weights are
    # computed: under pre, and in a game that names no weight system
    pre = weights == "pre" or (weights is None
                               and argv[0] in ("game", "shapley"))
    rows = max(rows, 4) if pre else rows
    budget, built, presolves = [], [], []
    check, build = fairdiv.cli._check_work_budget, fairdiv.coalition_table

    def counting_budget(rows, grid):
        budget.append(rows)
        check(rows, grid)

    def counting_build(players, subsets, grid):
        built.append(len(subsets))
        return build(players, subsets, grid)

    def counting_presolve(*args, **kwargs):
        presolves.append(args)
        return fairdiv.pre_division_from_table(*args, **kwargs)

    monkeypatch.setattr(fairdiv.cli, "_check_work_budget", counting_budget)
    for module in (fairdiv.cli, fairdiv.coalitions):
        monkeypatch.setattr(module, "coalition_table", counting_build)
    monkeypatch.setattr(fairdiv.cli, "pre_division_from_table",
                        counting_presolve)
    path = tmp_path / "four.json"
    path.write_text(json.dumps({"players": [
        {"density": {"kind": "beta", "a": 1 + i, "b": 5 - i}}
        for i in range(4)]}))
    rc = main(["--problem", str(path), "--command", *argv, "--grid", "64",
               "--max-iter", "50"]
              + (["--weights", weights] if weights else []))
    assert rc in (EXIT_OK, EXIT_UNCONVERGED)
    assert budget == [rows]
    assert max(built) == rows
    assert len(presolves) == (1 if pre else 0)


def test_out_file_untouched_by_a_failed_run(one_player_file, tmp_path,
                                            capsys):
    out = tmp_path / "kept.txt"
    out.write_text("earlier output\n")
    rc = main(["--problem", one_player_file, "--command", "solve",
               "--grid", "0", "--out", str(out)])
    assert rc == EXIT_CONFIG
    _one_line_error(capsys.readouterr().err)
    assert out.read_text() == "earlier output\n"


@pytest.mark.parametrize("shape", [1e308, 1e307, 1e-320])
def test_beta_with_non_finite_normalizer_exit_code(tmp_path, capsys, shape):
    path = tmp_path / "extreme.json"
    path.write_text(json.dumps({
        "players": [{"density": {"kind": "beta", "a": shape, "b": shape}},
                    {"density": {"kind": "uniform"}}],
        "grid_cells": 4,
    }))
    rc = main(["--problem", str(path), "--command", "solve"])
    assert rc == EXIT_PARSE
    captured = capsys.readouterr()
    assert captured.out == ""
    _one_line_error(captured.err)


def test_invalid_epsilon_exit_code(one_player_file, capsys):
    rc = main(["--problem", one_player_file, "--command", "solve",
               "--epsilon", "-1"])
    assert rc == EXIT_CONFIG
    assert "invalid configuration" in capsys.readouterr().err


@pytest.mark.parametrize("command,flag", [("solve", "--epsilon")])
@pytest.mark.parametrize("value", ["nan", "inf"])
def test_non_finite_solver_value_exit_code(one_player_file, capsys, command,
                                           flag, value):
    rc = main(["--problem", one_player_file, "--command", command,
               flag, value])
    assert rc == EXIT_CONFIG
    assert "must be finite and positive" in capsys.readouterr().err


def test_jobs_flag_rejected(one_player_file, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--problem", one_player_file, "--command", "game",
              "--jobs", "2"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --jobs" in capsys.readouterr().err


def test_overlapping_coalitions_exit_code(disjoint_file, capsys):
    rc = main(["--problem", disjoint_file, "--command", "solve",
               "--coalitions", "1,2|2"])
    assert rc == EXIT_CONFIG


def test_player_out_of_range_exit_code(disjoint_file, capsys):
    rc = main(["--problem", disjoint_file, "--command", "solve",
               "--coalitions", "1|3"])
    assert rc == EXIT_CONFIG


@pytest.mark.parametrize("argv, message", [
    (["solve", "--coalitions", "1,a"], "cannot parse player list '1,a'"),
    (["trace", "--coalitions", "1,|2"], "cannot parse player list '1,'"),
    (["game", "--subset", "2,2"], "repeated player in '2,2'"),
    (["partition", "--coalitions", "|"], "empty coalition structure"),
    (["solve", "--coalitions", "1||2"], "empty coalition in '1||2'"),
    (["trace", "--coalitions", "1|2|"], "empty coalition in '1|2|'"),
])
def test_bad_player_list_exit_code(disjoint_file, capsys, argv, message):
    rc = main(["--problem", disjoint_file, "--command"] + argv)
    assert rc == EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.out == ""
    _one_line_error(captured.err)
    assert captured.err.strip().endswith(message)


@pytest.mark.parametrize("density, weights, message", [
    ({}, None, "players[0]: density needs a 'kind' field"),
    ({"kind": "uniform"}, 5, "'weights' must be a list or 'card'/'pre'"),
    ({"kind": "piecewise", "breakpoints": [0, 1], "values": [1, 2]}, None,
     "players[0]: need k+1 breakpoints for k values"),
])
def test_problem_file_rejection_exit_code(tmp_path, capsys, density, weights,
                                          message):
    doc = {"players": [{"density": density}]}
    if weights is not None:
        doc["weights"] = weights
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    rc = main(["--problem", str(path), "--command", "solve"])
    assert rc == EXIT_PARSE
    captured = capsys.readouterr()
    _one_line_error(captured.err)
    assert captured.err.strip().endswith(message)


def test_unconverged_exit_code(capsys):
    rc = main(["--problem", BUNDLED_PROBLEM, "--command", "solve",
               "--epsilon", "1e-9", "--max-iter", "20"])
    assert rc == EXIT_UNCONVERGED
    assert capsys.readouterr().out.startswith("[")


def test_game_with_unconverged_weights_still_writes(tmp_path, capsys,
                                                    monkeypatch):
    import fairdiv.cli
    from fairdiv import SolverConfig, pre_division_from_table

    def cramped_weights(table, config):
        return pre_division_from_table(
            table, SolverConfig(epsilon=1e-9, max_iterations=2))

    monkeypatch.setattr(fairdiv.cli, "pre_division_from_table",
                        cramped_weights)
    path = tmp_path / "two.json"
    path.write_text(json.dumps({
        "players": [{"density": {"kind": "beta", "a": 2, "b": 5}},
                    {"density": {"kind": "uniform"}}],
        "grid_cells": 64,
    }))
    rc = main(["--problem", str(path), "--command", "game",
               "--weights", "pre"])
    assert rc == EXIT_UNCONVERGED
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "coalition,eta_pre,converged"
    assert len(lines) == 4
    assert all(line.endswith(",false") for line in lines[1:])


def test_grid_override(one_player_file, capsys):
    rc = main(["--problem", one_player_file, "--command", "solve",
               "--grid", "16"])
    assert rc == EXIT_OK


def test_solver_override_flags(capsys):
    # the bracket floor scales with cell width, so the grid must stay fine
    # enough for the requested epsilon
    rc = main(["--problem", BUNDLED_PROBLEM, "--command", "trace",
               "--grid", "2048", "--max-iter", "20000", "--epsilon", "5e-3"])
    assert rc == EXIT_OK
    last = capsys.readouterr().out.splitlines()[-1].split(",")
    ub, lb = float(last[1]), float(last[2])
    assert ub - lb < 5e-3


@pytest.mark.parametrize("cells", [0, MAX_GRID_CELLS + 1, 10 ** 14])
def test_grid_override_out_of_range_exit_code(one_player_file, capsys, cells):
    rc = main(["--problem", one_player_file, "--command", "solve",
               "--grid", str(cells)])
    assert rc == EXIT_CONFIG
    err = capsys.readouterr().err
    assert f"grid cells must be in 1..{MAX_GRID_CELLS}" in err
    assert "Traceback" not in err


def test_boolean_grid_cells_exit_code(tmp_path, capsys):
    path = tmp_path / "bool.json"
    path.write_text(json.dumps({
        "players": [{"density": {"kind": "uniform"}}],
        "grid_cells": True,
    }))
    rc = main(["--problem", str(path), "--command", "solve"])
    assert rc == EXIT_PARSE
    _one_line_error(capsys.readouterr().err)


def test_oversized_grid_in_file_exit_code(tmp_path, capsys):
    path = tmp_path / "huge.json"
    path.write_text(json.dumps({
        "players": [{"density": {"kind": "uniform"}}],
        "grid_cells": 10 ** 14,
    }))
    rc = main(["--problem", str(path), "--command", "solve"])
    assert rc == EXIT_PARSE
    assert "grid_cells" in capsys.readouterr().err


def test_problem_file_weights_list(tmp_path, capsys):
    path = tmp_path / "weighted.json"
    path.write_text(json.dumps({
        "players": [
            {"density": {"kind": "piecewise", "breakpoints": [0, 0.5, 1],
                         "values": [2, 0]}},
            {"density": {"kind": "piecewise", "breakpoints": [0, 0.5, 1],
                         "values": [0, 2]}},
        ],
        "grid_cells": 32,
        "weights": [2.0, 1.0],
    }))
    rc = main(["--problem", str(path), "--command", "solve"])
    assert rc == EXIT_OK
    out = capsys.readouterr().out.strip()
    # the weight-2 player halves the maxmin; the optimum sits at a simplex
    # vertex, so the upper bound keeps a sub-epsilon slack
    lo, hi = (float(tok) for tok in out.strip("[]").split(","))
    assert lo == pytest.approx(0.5, abs=1e-12)
    assert 0.0 <= hi - lo < 1e-3


@pytest.fixture()
def beta_uniform_file(tmp_path):
    path = tmp_path / "beta_uniform.json"
    path.write_text(json.dumps({
        "players": [{"density": {"kind": "beta", "a": 2, "b": 5}},
                    {"density": {"kind": "uniform"}}],
        "grid_cells": 64,
    }))
    return str(path)


@pytest.mark.parametrize("command", COMMANDS)
@pytest.mark.parametrize("argv, message", [
    (["--step-scale", "0.3"], "unrecognized arguments: --step-scale 0.3"),
    (["--clip-k", "5"], "unrecognized arguments: --clip-k 5"),
    (["--epsilon", "abc"], "argument --epsilon: invalid float value: 'abc'"),
    (["--command", "bogus"], "argument --command: invalid choice: 'bogus'"),
])
def test_usage_errors_exit_2(disjoint_file, capsys, command, argv, message):
    # the step rule is fixed, so its old flags are unknown like any other; a
    # usage error prints the usage block and one error line, and exits 2
    with pytest.raises(SystemExit) as exc:
        main(["--problem", disjoint_file, "--command", command] + argv)
    assert exc.value.code == EXIT_PARSE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("usage: fairdiv ")
    assert captured.err.splitlines()[-1].startswith(
        f"fairdiv: error: {message}")
    assert "Traceback" not in captured.err


@pytest.mark.parametrize("command, flag, commands", [
    ("solve", ["--subset", "1"], "game"),
    ("partition", ["--subset", "1"], "game"),
    ("shapley", ["--subset", "1"], "game"),
    ("trace", ["--subset", "1"], "game"),
    ("game", ["--coalitions", "1|2"], "solve, partition and trace"),
    ("game", ["--coalitions", "1|2", "--subset", "1"],
     "solve, partition and trace"),
    ("shapley", ["--coalitions", "1|2"], "solve, partition and trace"),
])
def test_flags_rejected_where_ignored(disjoint_file, capsys, command, flag,
                                      commands):
    rc = main(["--problem", disjoint_file, "--command", command,
               "--weights", "card"] + flag)
    assert rc == EXIT_CONFIG
    assert capsys.readouterr() == (
        "", f"fairdiv: invalid configuration: {flag[0]} applies only to "
            f"{commands}\n")


@pytest.mark.parametrize("command", ["solve", "partition", "trace"])
@pytest.mark.parametrize("in_file", [False, True])
def test_unconverged_pre_division_weights_exit_3(beta_uniform_file, capsys,
                                                 command, in_file):
    # the 5-iteration pre-solve stops short of its epsilon, while
    # the loose epsilon lets the structure solve itself converge
    argv = ["--problem", beta_uniform_file, "--command", command,
            "--max-iter", "5", "--epsilon", "0.5"]
    if in_file:
        with open(beta_uniform_file) as f:
            doc = json.load(f)
        doc["weights"] = "pre"
        with open(beta_uniform_file, "w") as f:
            json.dump(doc, f)
    else:
        argv += ["--weights", "pre"]
    assert main(argv) == EXIT_UNCONVERGED
    assert capsys.readouterr().out


def test_max_iter_caps_pre_division_solve(beta_uniform_file, capsys):
    start = time.perf_counter()
    rc = main(["--problem", beta_uniform_file, "--command", "game",
               "--weights", "pre", "--max-iter", "5"])
    elapsed = time.perf_counter() - start
    assert rc == EXIT_UNCONVERGED
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "coalition,eta_pre,converged"
    assert len(lines) == 4
    assert all(line.endswith(",false") for line in lines[1:])
    # the pre-solve needs 6 Kelley iterations on this 64-cell file, so the
    # cap of 5 stops it short
    assert elapsed < 5.0


def test_pre_division_weights_use_run_grid(beta_uniform_file, capsys,
                                           monkeypatch):
    seen = []

    def recording_weights(table, config):
        seen.append(table.grid)
        return fairdiv.pre_division_from_table(table, config)

    monkeypatch.setattr(fairdiv.cli, "pre_division_from_table",
                        recording_weights)
    rc = main(["--problem", beta_uniform_file, "--command", "game",
               "--weights", "pre", "--grid", "1024"])
    assert rc == EXIT_OK
    assert seen == [fairdiv.Grid(1024)]


def test_pre_division_solve_measures_each_table_once(tmp_path, capsys,
                                                     monkeypatch):
    # the pre-solve measures the 13 singletons and the solve its 3 units;
    # no table of all 8,191 coalitions is built for the weights
    rows, build = [], fairdiv.coalition_table

    def counting(players, subsets, grid):
        rows.append(len(subsets))
        return build(players, subsets, grid)

    for module in (fairdiv.coalitions, fairdiv.cli):
        monkeypatch.setattr(module, "coalition_table", counting)
    path = tmp_path / "thirteen.json"
    path.write_text(json.dumps({
        "players": [{"density": {"kind": "beta", "a": 1 + i, "b": 13 - i}}
                    for i in range(13)],
        "grid_cells": 256,
    }))
    rc = main(["--problem", str(path), "--command", "solve",
               "--weights", "pre", "--coalitions", "1,2|3|4"])
    assert rc == EXIT_OK
    assert capsys.readouterr().out.startswith("[")
    assert rows == [13, 3]


@pytest.fixture()
def spike_file(tmp_path):
    # the spike on [0, 1e-4] lies inside the first of 4096 cells and misses
    # every cell midpoint
    path = tmp_path / "spike.json"
    path.write_text(json.dumps({
        "players": [
            {"density": {"kind": "piecewise", "breakpoints": [0, 1e-4, 1],
                         "values": [1, 0]}},
            {"density": {"kind": "uniform"}},
        ],
        "grid_cells": 4096,
    }))
    return str(path)


def test_sub_cell_spike_solves(spike_file, capsys):
    rc = main(["--problem", spike_file, "--command", "solve"])
    assert rc == EXIT_OK
    lo, hi = (float(tok) for tok in
              capsys.readouterr().out.strip().strip("[]").split(","))
    assert 0.9997 <= lo <= hi <= 0.9999


def _one_line_error(err: str) -> None:
    assert err.startswith("fairdiv: ")
    assert len(err.strip().splitlines()) == 1
    assert "Traceback" not in err


def test_library_value_error_exits_4(one_player_file, capsys, monkeypatch):
    def rejects(problem, config):
        raise ValueError("whole-cake coalition values must be positive")

    monkeypatch.setattr("fairdiv.cli.cutting_plane_value", rejects)
    rc = main(["--problem", one_player_file, "--command", "solve"])
    assert rc == EXIT_CONFIG
    _one_line_error(capsys.readouterr().err)


def test_identical_players_split_pre_division_weights(tmp_path, capsys):
    # identical players tie on every cell; the competitive optimum splits
    # the cake evenly between them
    path = tmp_path / "twins.json"
    path.write_text(json.dumps({
        "players": [{"density": {"kind": "uniform"}}] * 2,
        "grid_cells": 64,
    }))
    rc = main(["--problem", str(path), "--command", "game",
               "--weights", "pre"])
    assert rc == EXIT_OK
    assert capsys.readouterr().out.splitlines() == [
        "coalition,eta_pre,converged",
        '"1",0.5,true', '"2",0.5,true', '"1,2",1.0,true']


@pytest.mark.parametrize("command", [["solve"], ["game", "--subset", "1"],
                                     ["trace"]])
def test_internal_error_exits_5(capsys, monkeypatch, command):
    def not_interior(problem, config):
        raise RuntimeError("step was not clipped enough to stay interior")

    # no pivots allowed: the first master LP of a solve reaches its cap
    monkeypatch.setattr("fairdiv.cutting._WARM_PIVOTS", 0)
    monkeypatch.setattr("fairdiv.cutting._COLD_PIVOTS", 0)
    monkeypatch.setattr("fairdiv.cli.solve_value", not_interior)
    rc = main(["--problem", BUNDLED_PROBLEM, "--weights", "card",
               "--command"] + command)
    assert rc == EXIT_INTERNAL
    err = capsys.readouterr().err
    _one_line_error(err)
    assert "internal error" in err


def test_root_find_failure_exits_5(capsys, monkeypatch):
    # a crossing root find that cannot converge is a RuntimeError; the row
    # of coalition {3, 5} splits cells, the singleton rows do not
    monkeypatch.setattr("fairdiv.measures._BRENT_MAXITER", 1)
    rc = main(["--problem", BUNDLED_PROBLEM, "--command", "solve",
               "--coalitions", "3,5|1|2|4"])
    assert rc == EXIT_INTERNAL
    err = capsys.readouterr().err
    _one_line_error(err)
    assert err == ("fairdiv: internal error: Failed to converge after 1 "
                   "iterations.\n")


def test_python_m_fairdiv():
    src = os.path.dirname(os.path.dirname(os.path.abspath(fairdiv.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    proc = subprocess.run(
        [sys.executable, "-m", "fairdiv", "--problem", BUNDLED_PROBLEM,
         "--command", "solve"],
        capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == EXIT_OK, proc.stderr
    lo, hi = (float(tok) for tok in proc.stdout.strip().strip("[]").split(","))
    assert lo <= hi
