import csv
import dataclasses

import pytest

from discsp import cli, experiments, problemio
from discsp.cli import build_parser, main
from discsp.experiments import (ExperimentConfig, RUN_FIELDS, instance_seed,
                                median_ci, run_experiment, summarize,
                                trend_check, write_csv)
from discsp.generators import FAMILIES
from discsp.model import ModelError
from discsp.runtime import RunConfig
from discsp.solvers import SOLVERS, run_solver


def test_median_ci_odd_count_middle_order_statistic():
    med, lo, hi = median_ci([5, 1, 9, 3, 7])
    assert med == 5
    assert lo <= med <= hi


def test_median_ci_tightens_with_samples():
    small = median_ci(list(range(5)))
    large = median_ci(list(range(101)))
    assert (large[2] - large[1]) < (small[2] - small[1]) * 30
    assert large[0] == 50


def test_median_ci_empty():
    assert median_ci([]) == (None, None, None)


def test_run_experiment_grid_and_summary(tmp_path):
    cfg = ExperimentConfig(family="coloring", sizes=(3, 4), instances=2,
                           seed=1, solvers=("dpop", "pdpop_plus"))
    rows = run_experiment(cfg)
    assert len(rows) == 2 * 2 * 2
    assert all(r["status"] == "ok" for r in rows)
    assert all(r["oracle_ok"] is True for r in rows)
    summary = summarize(rows)
    groups = {(r["family"], r["size"], r["solver"]) for r in summary}
    assert ("coloring", 3, "dpop") in groups
    path = tmp_path / "runs.csv"
    write_csv(rows, path)
    with open(path) as fh:
        parsed = list(csv.DictReader(fh))
    assert len(parsed) == len(rows)
    assert list(parsed[0].keys()) == RUN_FIELDS


def test_rows_deterministic_under_seed():
    cfg = ExperimentConfig(family="coloring", sizes=(3,), instances=2, seed=9,
                           solvers=("dpop",))
    strip = lambda rows: [{k: v for k, v in r.items() if k != "wall_ms"}
                          for r in rows]
    assert strip(run_experiment(cfg)) == strip(run_experiment(cfg))


def test_worker_pool_matches_serial():
    cfg = ExperimentConfig(family="coloring", sizes=(3,), instances=2, seed=4,
                           solvers=("dpop",))
    serial = run_experiment(cfg)
    cfg.workers = 2
    parallel = run_experiment(cfg)
    for row in parallel:
        row2 = dict(row)
        row2.pop("wall_ms")
        match = [dict(r) for r in serial
                 if r["instance"] == row["instance"] and r["size"] == row["size"]]
        assert any({k: v for k, v in m.items() if k != "wall_ms"} == row2
                   for m in match)


def test_timeout_recorded_not_fatal():
    cfg = ExperimentConfig(family="coloring", sizes=(5,), instances=1, seed=1,
                           solvers=("p32",),
                           run=RunConfig(key_bits=64, incr_min=2,
                                         timeout_secs=0.000001))
    rows = run_experiment(cfg)
    assert [r["status"] for r in rows] == ["timeout"]
    assert summarize(rows) == []  # timed-out rows excluded from medians


def test_out_of_memory_recorded_not_fatal(monkeypatch):
    real_run_solver = experiments.run_solver

    def run_solver(solver, problem, seed, cfg):
        if solver == "pdpop_plus":
            raise MemoryError()
        return real_run_solver(solver, problem, seed, cfg)

    monkeypatch.setattr(experiments, "run_solver", run_solver)
    cfg = ExperimentConfig(family="coloring", sizes=(3,), instances=1, seed=1,
                           solvers=("dpop", "pdpop_plus"),
                           run=RunConfig(key_bits=64))
    rows = run_experiment(cfg)
    assert [r["status"] for r in rows] == ["ok", "out_of_memory"]
    assert isinstance(rows[1]["wall_ms"], float)
    assert rows[1]["feasible"] == "" and rows[1]["message_count"] == ""
    assert {s["solver"] for s in summarize(rows)} == {"dpop"}


def test_cli_bench_counts_out_of_memory_runs(tmp_path, capsys, monkeypatch):
    def run_solver(*args):
        raise MemoryError()

    monkeypatch.setattr(experiments, "run_solver", run_solver)
    assert main(["bench", "--sizes", "3", "--instances", "2",
                 "--solvers", "dpop", "--out", str(tmp_path / "b")]) == 0
    assert "timeouts: 0; out of memory: 2" in capsys.readouterr().out


def test_parallel_workers_with_crypto_solver():
    cfg = ExperimentConfig(family="coloring", sizes=(3,), instances=2, seed=5,
                           solvers=("p32",),
                           run=RunConfig(key_bits=64, incr_min=2),
                           workers=2)
    rows = run_experiment(cfg)
    assert len(rows) == 2
    assert all(r["status"] == "ok" and r["oracle_ok"] for r in rows)


def test_trend_check_climbs_the_paper_privacy_ladder():
    # The paper's ladder: DPOP < P-DPOP(+) < P^3/2-DPOP(+) < P^2-DPOP(+).
    ladder = {"dpop": 0, "pdpop": 1, "pdpop_plus": 1,
              "p32": 2, "p32_plus": 2, "p2": 3, "p2_plus": 3}
    assert {name: spec.privacy for name, spec in SOLVERS.items()} == ladder
    summary = [
        {"family": "coloring", "size": 3, "solver": solver,
         "metric": "info_bytes", "count": 1, "median": value, "ci_lo": value,
         "ci_hi": value}
        for solver, value in (("p2", 40), ("p32", 30), ("pdpop", 20),
                              ("dpop", 10), ("p2_plus", 41),
                              ("p32_plus", 31), ("pdpop_plus", 21))
    ]
    assert trend_check(summary) == [
        "TREND OK coloring n=3 info_bytes: dpop=10 <= pdpop=20",
        "TREND OK coloring n=3 info_bytes: pdpop_plus=21 <= p32=30",
        "TREND OK coloring n=3 info_bytes: p32_plus=31 <= p2=40",
    ]


def test_trend_check_reports_lines():
    summary = [
        {"family": "coloring", "size": 3, "solver": "pdpop_plus",
         "metric": "info_bytes", "count": 3, "median": 10, "ci_lo": 9,
         "ci_hi": 11},
        {"family": "coloring", "size": 3, "solver": "p32_plus",
         "metric": "info_bytes", "count": 3, "median": 100, "ci_lo": 90,
         "ci_hi": 110},
        {"family": "coloring", "size": 3, "solver": "p2_plus",
         "metric": "info_bytes", "count": 3, "median": 50, "ci_lo": 40,
         "ci_hi": 60},
    ]
    lines = trend_check(summary)
    assert any("TREND OK" in line for line in lines)
    assert any("TREND VIOLATION" in line for line in lines)


# -- CLI -------------------------------------------------------------------------------

def test_cli_gen_and_solve(tmp_path, capsys):
    out = tmp_path / "instance.discsp"
    assert main(["gen", "--family", "coloring", "--size", "4", "--seed", "2",
                 "--out", str(out)]) == 0
    assert out.exists()
    assert main(["solve", str(out), "--solver", "pdpop_plus"]) == 0
    text = capsys.readouterr().out
    assert "feasible:" in text


def test_cli_solve_reports_a_timeout_without_a_traceback(tmp_path, capsys):
    out = tmp_path / "instance.discsp"
    assert main(["gen", "--family", "coloring", "--size", "8", "--seed", "0",
                 "--out", str(out)]) == 0
    capsys.readouterr()
    assert main(["solve", str(out), "--solver", "p2_plus", "--key-bits", "64",
                 "--timeout-secs", "0.01"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == ["timeout: simulation exceeded 0.01s"]


def test_cli_solve_reports_out_of_memory_without_a_traceback(
        tmp_path, capsys, monkeypatch):
    def run_solver(*args):
        raise MemoryError()

    out = tmp_path / "instance.discsp"
    assert main(["gen", "--size", "3", "--out", str(out)]) == 0
    capsys.readouterr()
    monkeypatch.setattr(cli, "run_solver", run_solver)
    assert main(["solve", str(out), "--solver", "p2"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    [line] = captured.err.splitlines()
    assert line.startswith("out of memory")


def test_cli_solve_reports_a_malformed_or_missing_file_in_one_line(
        tmp_path, capsys):
    bad = tmp_path / "bad.discsp"
    bad.write_text("discsp 1\nagents two\n")
    assert main(["solve", str(bad)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        "error: expected 'agents <count>', got ['agents', 'two']"]
    assert main(["solve", str(tmp_path / "missing.discsp")]) == 2
    [line] = capsys.readouterr().err.splitlines()
    assert line.startswith("error: ") and "missing.discsp" in line


def test_cli_gen_reports_an_unwritable_out_in_one_line(tmp_path, capsys):
    out = tmp_path / "missing" / "x.txt"
    assert main(["gen", "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    [line] = captured.err.splitlines()
    assert line.startswith("error: ") and str(out) in line


def test_cli_bench_reports_an_unwritable_out_before_the_grid(
        tmp_path, capsys, monkeypatch):
    def run_experiment(cfg):
        raise AssertionError("the grid ran")

    monkeypatch.setattr("discsp.cli.run_experiment", run_experiment)
    out = tmp_path / "missing" / "b"
    assert main(["bench", "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    [line] = captured.err.splitlines()
    assert line.startswith("error: ") and f"{out}_runs.csv" in line


@pytest.mark.parametrize("command", ["solve", "bench"])
@pytest.mark.parametrize("secs", ["0", "-1"])
def test_cli_rejects_a_non_positive_timeout(tmp_path, capsys, command, secs):
    out = tmp_path / "instance.discsp"
    assert main(["gen", "--size", "3", "--out", str(out)]) == 0
    capsys.readouterr()
    args = [str(out)] if command == "solve" else ["--out", str(tmp_path / "b")]
    with pytest.raises(SystemExit) as exit_info:
        main([command, *args, "--timeout-secs", secs])
    assert exit_info.value.code == 2
    assert f"--timeout-secs: must be positive, got {secs}" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["solve", "bench"])
@pytest.mark.parametrize("flag, value, message", [
    ("--key-bits", "3", "must be at least 5, got 3"),
    ("--key-bits", "-512", "must be at least 5, got -512"),
    ("--b-bits", "-3", "must be non-negative, got -3"),
    ("--incr-min", "-1", "must be non-negative, got -1"),
])
def test_cli_rejects_an_unusable_solver_config(tmp_path, capsys, command, flag,
                                               value, message):
    # Each would otherwise end the run in a traceback: a group too small for
    # a safe prime, a negative shift count or an empty randrange.
    out = tmp_path / "instance.discsp"
    assert main(["gen", "--size", "3", "--out", str(out)]) == 0
    capsys.readouterr()
    args = [str(out)] if command == "solve" else ["--out", str(tmp_path / "b")]
    with pytest.raises(SystemExit) as exit_info:
        main([command, *args, flag, value])
    assert exit_info.value.code == 2
    err = capsys.readouterr().err
    assert f"{flag}: {message}" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("args, flag, bad", [
    (["gen", "--size", "0"], "--size", "0"),
    (["gen", "--size", "-2"], "--size", "-2"),
    (["bench", "--sizes", "0"], "--sizes", "0"),
    (["bench", "--sizes", "3,0"], "--sizes", "0"),
    # These used to write an empty grid, or run serially, and exit 0.
    (["bench", "--instances", "0"], "--instances", "0"),
    (["bench", "--instances", "-1"], "--instances", "-1"),
    (["bench", "--workers", "0"], "--workers", "0"),
    (["bench", "--workers", "-2"], "--workers", "-2"),
])
def test_cli_rejects_a_size_below_one(tmp_path, capsys, args, flag, bad):
    with pytest.raises(SystemExit) as exit_info:
        main([*args, "--out", str(tmp_path / "out")])
    assert exit_info.value.code == 2
    err = capsys.readouterr().err
    assert f"{flag}: must be at least 1, got {bad}" in err
    assert "Traceback" not in err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("flag, value", [
    ("--solvers", ","), ("--solvers", " "), ("--sizes", ","),
])
def test_cli_bench_rejects_an_empty_list(tmp_path, capsys, flag, value):
    # An empty grid used to be written with "oracle mismatches: 0", exit 0.
    with pytest.raises(SystemExit) as exit_info:
        main(["bench", flag, value, "--out", str(tmp_path / "out")])
    assert exit_info.value.code == 2
    err = capsys.readouterr().err
    assert f"{flag}: must name at least one, got {value!r}" in err
    assert "Traceback" not in err
    assert list(tmp_path.iterdir()) == []


def test_cli_keeps_zero_obfuscation_and_dense_ids(tmp_path, capsys):
    out = tmp_path / "instance.discsp"
    assert main(["gen", "--size", "4", "--out", str(out)]) == 0
    for solver in ("pdpop_plus", "p32"):
        assert main(["solve", str(out), "--solver", solver, "--key-bits", "5",
                     "--b-bits", "0", "--incr-min", "0"]) == 0
    assert capsys.readouterr().out.count("feasible: True") == 2


def test_cli_bench_writes_csvs(tmp_path, capsys):
    prefix = str(tmp_path / "bench")
    code = main(["bench", "--family", "coloring", "--sizes", "3",
                 "--instances", "2", "--solvers", "dpop,pdpop",
                 "--seed", "3", "--out", prefix])
    assert code == 0
    out = capsys.readouterr().out
    assert "oracle mismatches: 0" in out
    runs = list(csv.DictReader(open(prefix + "_runs.csv")))
    summary = list(csv.DictReader(open(prefix + "_summary.csv")))
    assert len(runs) == 4
    assert summary and {"family", "metric", "median"} <= set(summary[0])


def test_cli_rejects_unknown_solver(tmp_path, capsys):
    # One usage error from argparse, as `solve --solver quantum` gives.
    with pytest.raises(SystemExit) as exit_info:
        main(["bench", "--solvers", "dpop,quantum", "--out",
              str(tmp_path / "x")])
    assert exit_info.value.code == 2
    err = capsys.readouterr().err
    assert "argument --solvers: unknown solvers ['quantum']" in err
    assert "Traceback" not in err
    assert list(tmp_path.iterdir()) == []


def test_cli_commands_keep_their_own_timeout_defaults():
    # argparse shares a parent parser's actions between subparsers, so a
    # bench default set there would also reach solve.
    parser = build_parser()
    solve = parser.parse_args(["solve", "p.txt"])
    bench = parser.parse_args(["bench"])
    assert solve.timeout_secs is None
    assert bench.timeout_secs == 600.0
    assert ExperimentConfig().run == RunConfig(timeout_secs=600.0)
    defaults = RunConfig()
    for args in (solve, bench):
        assert (args.key_bits, args.b_bits, args.incr_min) == (
            defaults.key_bits, defaults.b_bits, defaults.incr_min)
    # bench defaults to every field of the grid config
    grid = ExperimentConfig()
    for f in dataclasses.fields(grid):
        got = (cli._run_config(bench) if f.name == "run"
               else getattr(bench, f.name))
        assert got == getattr(grid, f.name), f.name


def test_cli_bench_row_is_the_run_of_its_run_config(tmp_path, capsys):
    prefix = str(tmp_path / "b")
    assert main(["bench", "--sizes", "3", "--instances", "1", "--seed", "2",
                 "--solvers", "pdpop_plus,p32", "--key-bits", "64",
                 "--b-bits", "0", "--incr-min", "0", "--out", prefix]) == 0
    capsys.readouterr()
    rows = list(csv.DictReader(open(prefix + "_runs.csv")))
    assert [row["solver"] for row in rows] == ["pdpop_plus", "p32"]
    config = RunConfig(key_bits=64, b_bits=0, incr_min=0)
    metrics = ("message_count", "info_bytes", "simulated_time")
    seed = instance_seed(2, "coloring", 3, 0)
    problem = FAMILIES["coloring"](3, seed)
    for row in rows:
        assert int(row["seed"]) == seed
        want = run_solver(row["solver"], problem, seed, config).metrics
        assert [row[m] for m in metrics] == [
            str(getattr(want, m)) for m in metrics]
    # Not the defaults' run: under --incr-min 0 the IDs are dense, so p32's
    # root vectors are shorter.
    usual = run_solver("p32", problem, seed, RunConfig(key_bits=64)).metrics
    assert int(rows[1]["info_bytes"]) < usual.info_bytes


def disconnected_problem_text():
    return ("discsp 1\nagents 2\na1\na2\nvariables 2\n"
            "x a1 i:0 i:1\ny a2 i:0 i:1\nconstraints 0\n")


def empty_problem_text():
    return "discsp 1\nagents 1\na1\nvariables 0\nconstraints 0\n"


@pytest.mark.parametrize("solver", sorted(SOLVERS))
@pytest.mark.parametrize("text, components", [
    (disconnected_problem_text(), 2), (empty_problem_text(), 0),
], ids=["disconnected", "empty"])
def test_cli_solve_rejects_a_problem_that_is_not_one_component(
        tmp_path, capsys, solver, text, components):
    # Every solver needs one connected constraint graph: the empty problem
    # has no root to report a verdict, and a second component would need a
    # second election and tree.
    path = tmp_path / "p.discsp"
    path.write_text(text)
    problem = problemio.load(str(path))
    with pytest.raises(ModelError, match=f"got {components} components"):
        run_solver(solver, problem, 0, RunConfig(key_bits=64))
    assert main(["solve", str(path), "--solver", solver,
                 "--key-bits", "64"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        f"error: solvers require one connected constraint graph, "
        f"got {components} components"]
