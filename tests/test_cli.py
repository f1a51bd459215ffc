"""CLI tests: subcommands, output formats, determinism and exit codes."""

import argparse
import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import stepgap
from stepgap import cli, dynamics, ec3, verify
from stepgap.analytic import ising_linear_ground_energy
from stepgap.cli import (EXIT_CONFIG, EXIT_OK, _parse_tau_grid, build_parser,
                         main)
from stepgap.pauli import STATE_QUBIT_CAP


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def read_csv_rows(text):
    lines = [ln for ln in text.splitlines() if ln and not ln.startswith("#")]
    header = lines[0].split(",")
    rows = [ln.split(",") for ln in lines[1:]]
    return header, rows


def strip_wall_clock(text):
    return "\n".join(ln for ln in text.splitlines()
                     if not ln.startswith("# wall_seconds"))


# ---------------------------------------------------------------------------
# spectrum
# ---------------------------------------------------------------------------

def test_spectrum_csv_stdout(capsys):
    code, out, _ = run_cli(capsys, "spectrum", "--family", "ising-linear",
                           "--n", "4", "--s", "0.5", "--count", "4")
    assert code == EXIT_OK
    header, rows = read_csv_rows(out)
    assert header == ["index", "eigenvalue", "sector"]
    assert len(rows) == 4
    vals = [float(r[1]) for r in rows]
    assert vals == sorted(vals)
    assert {r[2] for r in rows} == {"even", "odd"}
    assert "# stepgap" in out and "# config" in out


def test_spectrum_json(tmp_path, capsys):
    out_file = tmp_path / "spec.json"
    code, _, _ = run_cli(capsys, "spectrum", "--family", "cluster1d-stepwise",
                         "--n", "4", "--s", "1.0", "--count", "2",
                         "--format", "json", "--out", str(out_file))
    assert code == EXIT_OK
    doc = json.loads(out_file.read_text())
    assert doc["meta"]["tool"].startswith("stepgap")
    levels = doc["data"]["levels"]
    assert levels[0]["eigenvalue"] == pytest.approx(-4.0, abs=1e-10)
    assert levels[1]["eigenvalue"] == pytest.approx(-2.0, abs=1e-10)


def test_cluster_spectrum_is_unlabelled_and_threads_flag_is_gone(tmp_path,
                                                                 capsys):
    code, out, _ = run_cli(capsys, "spectrum", "--family",
                           "cluster1d-stepwise", "--n", "5", "--s", "0.3",
                           "--count", "4")
    assert code == EXIT_OK
    _, rows = read_csv_rows(out)
    assert len(rows) == 4 and all(r[2] == "all" for r in rows)
    with pytest.raises(SystemExit) as exc:
        main(["gap-scan", "--family", "ising-linear", "--n", "4",
              "--threads", "2", "--out", str(tmp_path / "gaps.csv")])
    assert exc.value.code == EXIT_CONFIG


# ---------------------------------------------------------------------------
# gap-scan
# ---------------------------------------------------------------------------

def test_gap_scan_writes_csv_and_sidecar(tmp_path, capsys):
    out_file = tmp_path / "gaps.csv"
    code, _, _ = run_cli(capsys, "gap-scan", "--family", "ising-stepwise",
                         "--n", "4", "--points", "81", "--sector", "even",
                         "--out", str(out_file))
    assert code == EXIT_OK
    header, rows = read_csv_rows(out_file.read_text())
    assert header == ["s", "gap", "lambda0", "lambda1"]
    assert len(rows) == 81
    sidecar = json.loads((tmp_path / "gaps.csv.min.json").read_text())
    assert sidecar["minimum_gap"] == pytest.approx(np.sqrt(2), abs=1e-6)
    assert sidecar["sector"] == "even"


def test_gap_scan_refines_between_tied_boundary_samples(tmp_path, capsys):
    # 9 points on the 8 segments of a 3x3 build sample only the segment
    # boundaries, where every gap is 2; the dips between them reach
    # sqrt(5) - 1
    out_file = tmp_path / "gaps.csv"
    code, _, _ = run_cli(capsys, "gap-scan", "--family", "cluster2d-stepwise",
                         "--width", "3", "--height", "3", "--points", "9",
                         "--out", str(out_file))
    assert code == EXIT_OK
    _, rows = read_csv_rows(out_file.read_text())
    assert all(float(r[1]) == pytest.approx(2.0, abs=1e-9) for r in rows)
    sidecar = json.loads((tmp_path / "gaps.csv.min.json").read_text())
    assert sidecar["minimum_gap"] == pytest.approx(np.sqrt(5) - 1, abs=1e-7)


def test_gap_scan_requires_out(capsys):
    code, _, err = run_cli(capsys, "gap-scan", "--family", "ising-linear",
                           "--n", "3")
    assert code == EXIT_CONFIG
    assert "--out" in err


def test_gap_scan_deterministic_output(tmp_path, capsys):
    out_file = tmp_path / "gaps.csv"
    files = []
    for _ in range(2):
        code, _, _ = run_cli(capsys, "gap-scan", "--family", "ising-linear",
                             "--n", "4", "--points", "11",
                             "--out", str(out_file))
        assert code == EXIT_OK
        files.append(out_file.read_text())
    assert strip_wall_clock(files[0]) == strip_wall_clock(files[1])


def test_gap_scan_sidecar_counts_evaluations(tmp_path, capsys):
    # the minimum lies at s = 1/2, between the tied samples 0.4 and 0.6:
    # six samples, the probe at 1/2 between them and four refinement
    # evaluations from it
    out_file = tmp_path / "gaps.csv"
    counts = []
    for _ in range(2):
        code, _, _ = run_cli(capsys, "gap-scan", "--family", "ising-linear",
                             "--n", "10", "--sector", "even", "--points", "6",
                             "--out", str(out_file))
        assert code == EXIT_OK
        sidecar = json.loads((tmp_path / "gaps.csv.min.json").read_text())
        assert sidecar["minimum_s"] == pytest.approx(0.5, abs=1e-6)
        counts.append(sidecar["evaluations"])
    assert counts == [11, 11]


# ---------------------------------------------------------------------------
# evolve and scaling
# ---------------------------------------------------------------------------

def test_evolve_json_fields(tmp_path, capsys):
    out_file = tmp_path / "evo.json"
    code, _, _ = run_cli(capsys, "evolve", "--family", "ising-stepwise",
                         "--n", "4", "--tau", "40", "--accuracy", "1e-5",
                         "--track-parity", "--out", str(out_file))
    assert code == EXIT_OK
    doc = json.loads(out_file.read_text())
    data = doc["data"]
    assert data["fidelity"] > 0.9
    assert data["norm_drift"] < 1e-8
    assert abs(data["parity_min"] - 1.0) < 1e-8
    assert data["tau"] == 40.0


def test_evolve_takes_json_format_only(tmp_path, capsys):
    out_file = tmp_path / "evo.json"
    code, _, _ = run_cli(capsys, "evolve", "--family", "ising-stepwise",
                         "--n", "3", "--tau", "2", "--format", "json",
                         "--out", str(out_file))
    assert code == EXIT_OK
    assert json.loads(out_file.read_text())["data"]["tau"] == 2.0
    with pytest.raises(SystemExit) as exc:
        main(["evolve", "--family", "ising-stepwise", "--n", "3", "--tau",
              "2", "--format", "csv"])
    assert exc.value.code == EXIT_CONFIG


def test_scaling_csv(capsys):
    code, out, _ = run_cli(capsys, "scaling", "--family", "ising-stepwise",
                           "--n-list", "3,4", "--f-target", "0.8",
                           "--tau-grid", "2,6,18,54", "--accuracy", "1e-4")
    assert code == EXIT_OK
    header, rows = read_csv_rows(out)
    assert header == ["n", "family", "tau_required", "reached", "f_target"]
    assert len(rows) == 2
    for row in rows:
        assert row[3] == "1"


@pytest.mark.parametrize("family", ["cluster2d-stepwise", "ec3-projector"])
def test_scaling_offers_only_families_built_from_n(family, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["scaling", "--family", family, "--n-list", "4",
              "--tau-grid", "1,2"])
    assert exc.value.code == EXIT_CONFIG
    assert "invalid choice" in capsys.readouterr().err


def test_bad_tau_grid_is_config_error(capsys):
    code, _, err = run_cli(capsys, "scaling", "--family", "ising-linear",
                           "--n-list", "3", "--tau-grid", "geom:5:1:4")
    assert code == EXIT_CONFIG
    assert "stepgap:" in err


_EVOLVE = ["evolve", "--family", "ising-stepwise", "--n", "4"]
_SCALING = ["scaling", "--family", "ising-stepwise", "--n-list", "4"]


@pytest.mark.parametrize("argv, name", [
    (_EVOLVE + ["--tau", "inf"], "tau"),
    (_EVOLVE + ["--tau", "nan"], "tau"),
    (_EVOLVE + ["--tau", "5", "--accuracy", "nan"], "accuracy"),
    (_SCALING + ["--tau-grid", "1,inf"], "tau"),
    (_SCALING + ["--tau-grid", "1,2", "--accuracy", "nan"], "accuracy"),
], ids=["evolve-tau-inf", "evolve-tau-nan", "evolve-accuracy-nan",
        "scaling-tau-inf", "scaling-accuracy-nan"])
def test_unbounded_runtime_or_accuracy_refused_before_propagating(
        argv, name, capsys, monkeypatch):
    passes = []
    for route in ("_propagate", "_covariance_pass"):
        monkeypatch.setattr(dynamics, route,
                            lambda *args: passes.append(args))
    code, _, err = run_cli(capsys, *argv)
    assert code == EXIT_CONFIG
    assert f"stepgap: {name} must be finite and positive" in err
    assert passes == []


def test_parse_tau_grid_forms():
    assert _parse_tau_grid("1,2,4") == [1.0, 2.0, 4.0]
    geom = _parse_tau_grid("geom:1:8:4")
    assert geom[0] == pytest.approx(1.0)
    assert geom[-1] == pytest.approx(8.0)
    with pytest.raises(ValueError):
        _parse_tau_grid("")
    with pytest.raises(ValueError):
        _parse_tau_grid("geom:1:8")


# ---------------------------------------------------------------------------
# ec3
# ---------------------------------------------------------------------------

def test_ec3_counts_and_gaps(tmp_path, capsys):
    inst = tmp_path / "inst.txt"
    inst.write_text("# demo\n4 2\n1 2 3\n2 3 4\n")
    code, out, err = run_cli(capsys, "ec3", "--instance", str(inst))
    assert code == EXIT_OK
    header, rows = read_csv_rows(out)
    assert header == ["k", "count", "gap"]
    assert [r[1] for r in rows] == ["16", "6", "3"]
    assert float(rows[1][2]) == pytest.approx(np.sqrt(6 / 16))
    assert "min_gap" in err


def test_ec3_json_summary(tmp_path, capsys):
    inst = tmp_path / "inst.txt"
    inst.write_text("4 2\n1 2 3\n2 3 4\n")
    code, out, _ = run_cli(capsys, "ec3", "--instance", str(inst),
                           "--format", "json")
    assert code == EXIT_OK
    doc = json.loads(out)
    assert doc["data"]["counts"] == [16, 6, 3]
    assert doc["data"]["grover_gap"] == pytest.approx(0.25)
    assert doc["data"]["min_gap"] == pytest.approx(np.sqrt(6 / 16), abs=1e-12)


def test_ec3_missing_file_is_config_error(capsys):
    code, _, err = run_cli(capsys, "ec3", "--instance", "missing.txt")
    assert code == EXIT_CONFIG
    assert "stepgap:" in err


def test_ec3_projector_family_gap_scan(tmp_path, capsys):
    inst = tmp_path / "inst.txt"
    inst.write_text("4 2\n1 2 3\n2 3 4\n")
    out_file = tmp_path / "pg.csv"
    code, _, _ = run_cli(capsys, "gap-scan", "--family", "ec3-projector",
                         "--instance", str(inst), "--points", "41",
                         "--out", str(out_file))
    assert code == EXIT_OK
    sidecar = json.loads((tmp_path / "pg.csv.min.json").read_text())
    assert sidecar["minimum_gap"] == pytest.approx(np.sqrt(6 / 16), abs=1e-4)


def test_ec3_projector_gap_scan_above_dense_cap(tmp_path, capsys):
    inst = ec3.random_satisfiable_instance(14, 10, np.random.default_rng(0))
    inst_file = tmp_path / "inst.txt"
    inst_file.write_text(ec3.format_instance(inst))
    out_file = tmp_path / "pg.csv"
    # 41 points sample every segment's midpoint, where its minimum lies
    code, _, _ = run_cli(capsys, "gap-scan", "--family", "ec3-projector",
                         "--instance", str(inst_file), "--points", "41",
                         "--out", str(out_file))
    assert code == EXIT_OK
    sidecar = json.loads((tmp_path / "pg.csv.min.json").read_text())
    want = ec3.path_gaps(ec3.solution_counts(inst)).min()
    assert sidecar["minimum_gap"] == pytest.approx(want, abs=1e-9)


def test_ec3_projector_above_enumeration_cap_is_config_error(tmp_path,
                                                             capsys):
    inst_file = tmp_path / "inst.txt"
    inst_file.write_text(f"{STATE_QUBIT_CAP + 1} 1\n1 2 3\n")
    code, _, err = run_cli(capsys, "gap-scan", "--family", "ec3-projector",
                           "--instance", str(inst_file), "--points", "5",
                           "--out", str(tmp_path / "pg.csv"))
    assert code == EXIT_CONFIG
    assert "capped" in err


def test_ec3_projector_parity_sector_is_config_error(tmp_path, capsys):
    inst = ec3.random_satisfiable_instance(16, 6, np.random.default_rng(0))
    inst_file = tmp_path / "inst.txt"
    inst_file.write_text(ec3.format_instance(inst))
    code, _, err = run_cli(capsys, "gap-scan", "--family", "ec3-projector",
                           "--instance", str(inst_file), "--points", "5",
                           "--sector", "even", "--out",
                           str(tmp_path / "pg.csv"))
    assert code == EXIT_CONFIG
    assert "projector sum" in err


def test_ec3_projector_oversized_spectrum_is_config_error(tmp_path, capsys):
    inst = ec3.random_satisfiable_instance(15, 5, np.random.default_rng(0))
    inst_file = tmp_path / "inst.txt"
    inst_file.write_text(ec3.format_instance(inst))
    # 1 vector + 8192 levels at 2^15 exceed a dense matrix of 14 qubits
    code, _, err = run_cli(capsys, "spectrum", "--family", "ec3-projector",
                           "--instance", str(inst_file), "--s", "1",
                           "--count", "8192")
    assert code == EXIT_CONFIG
    assert "refused" in err


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def test_verify_conjugation_check(capsys):
    code, out, _ = run_cli(capsys, "verify", "--check", "conjugation")
    assert code == EXIT_OK
    assert "PASS conjugation" in out


def test_verify_small_first_step(capsys):
    code, out, _ = run_cli(capsys, "verify", "--check", "ising-first-step",
                           "--n-list", "4", "--points", "11")
    assert code == EXIT_OK
    assert "PASS" in out and "FAIL" not in out


def test_verify_level_check_above_dense_cap(capsys):
    # 16 qubits: the tapered blocks are 2 x 2, the dense route refused
    code, out, _ = run_cli(capsys, "verify", "--check", "ising-mid-step",
                           "--n-list", "16", "--points", "3")
    assert code == EXIT_OK
    assert out.startswith("PASS ising-mid-step n=16")


def test_verify_ground_energy_above_register_cap(capsys):
    # the levels come from the Majorana form: no 2^100 register is built
    code, out, _ = run_cli(capsys, "verify", "--check", "ising-ground-energy",
                           "--n-list", "100", "--points", "5")
    assert code == EXIT_OK
    (line,) = out.splitlines()
    status, label, n, dev, _ = line.split()
    assert (status, label, n) == ("PASS", "ising-ground-energy", "n=100")
    assert float(dev.removeprefix("max_dev=")) <= 1e-8


_VERIFY = ["verify", "--check", "ising-first-step", "--n-list", "4"]


@pytest.mark.parametrize("argv, message", [
    (["verify", "--check", "ising-ground-energy", "--points", "0"],
     "--points must be at least 2, got 0"),
    (_VERIFY + ["--points", "0"], "--points must be at least 2, got 0"),
    (_VERIFY + ["--points", "1"], "--points must be at least 2, got 1"),
    (_VERIFY + ["--kappa-max", "-1"],
     "--kappa-max must be at least 0, got -1"),
    (["verify", "--n-list", ""], "--n-list '' names no system size"),
    (["verify", "--n-list", " , "], "--n-list ' , ' names no system size"),
    (_SCALING[:3] + ["--n-list", "", "--tau-grid", "1,2"],
     "--n-list '' names no system size"),
], ids=["ground-energy-points-0", "points-0", "points-1", "kappa-max-neg",
        "verify-n-list-empty", "verify-n-list-blank", "scaling-n-list-empty"])
def test_checks_and_runs_without_work_refused(argv, message, capsys,
                                              monkeypatch):
    started = []
    monkeypatch.setattr(verify, "run_checks",
                        lambda *args, **kw: started.append(args))
    monkeypatch.setattr(cli, "runtime_for_fidelity",
                        lambda *args, **kw: started.append(args))
    code, out, err = run_cli(capsys, *argv)
    assert code == EXIT_CONFIG
    assert err == f"stepgap: {message}\n"
    assert out == "" and started == []


def test_verify_at_two_points(capsys):
    code, out, _ = run_cli(capsys, *_VERIFY, "--points", "2",
                           "--kappa-max", "0")
    assert code == EXIT_OK
    assert out.startswith("PASS ising-first-step n=4")


def test_missing_family_param_is_config_error(capsys):
    code, _, err = run_cli(capsys, "spectrum", "--family", "ising-linear")
    assert code == EXIT_CONFIG
    assert "needs --n" in err


def test_even_sector_hunt_without_symmetry_is_config_error(tmp_path, capsys):
    # cluster blends break bit-flip symmetry, so an even sector is refused
    # before any solve, as a configuration error
    out_file = tmp_path / "gaps.csv"
    code, _, err = run_cli(capsys, "gap-scan", "--family",
                           "cluster1d-stepwise", "--n", "4", "--points", "5",
                           "--sector", "even", "--out", str(out_file))
    assert code == EXIT_CONFIG
    assert "no even sector: the operator does not commute with the bit flip" \
        in err
    assert not out_file.exists()


# ---------------------------------------------------------------------------
# option set
# ---------------------------------------------------------------------------

def _options(parser):
    subs = next(a for a in parser._actions
                if isinstance(a, argparse._SubParsersAction))
    return {name: {a.option_strings[-1] for a in sub._actions
                   if a.option_strings and a.dest != "help"}
            for name, sub in subs.choices.items()}


def test_each_subcommand_takes_only_the_options_it_reads():
    path = {"--family", "--n", "--width", "--height", "--build-order",
            "--instance", "--order", "--seed"}
    assert _options(build_parser()) == {
        "spectrum": path | {"--out", "--format", "--s", "--count",
                            "--method"},
        "gap-scan": path | {"--out", "--points", "--sector"},
        "evolve": path | {"--out", "--format", "--tau", "--accuracy",
                          "--track-parity"},
        "scaling": {"--family", "--out", "--format", "--n-list",
                    "--f-target", "--tau-grid", "--accuracy"},
        "ec3": {"--instance", "--order", "--seed", "--out", "--format"},
        "verify": {"--check", "--n-list", "--points", "--kappa-max"},
    }


def _without_wall_clock(text):
    if text.startswith("{"):
        doc = json.loads(text)
        del doc["meta"]["wall_seconds"]
        return doc
    return strip_wall_clock(text)


def test_one_parser_serves_every_call_of_a_process(tmp_path, capsys):
    # a refused option, then two subcommands, all through the one parser:
    # each prints what it prints in a process of its own
    inst = tmp_path / "inst.txt"
    inst.write_text("4 2\n1 2 3\n2 3 4\n")
    calls = (["spectrum", "--family", "ising-linear", "--n", "4",
              "--count", "2", "--bogus"],
             ["spectrum", "--family", "ising-linear", "--n", "4", "--s",
              "0.5", "--count", "4"],
             ["ec3", "--instance", str(inst), "--format", "json"])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(Path(stepgap.__file__).parents[1])]
        + os.environ.get("PYTHONPATH", "").split(os.pathsep))}
    for argv in calls:
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        got = capsys.readouterr()
        fresh = subprocess.run(
            [sys.executable, "-c", "import sys; from stepgap.cli import main; "
             "sys.exit(main(sys.argv[1:]))", *argv],
            capture_output=True, text=True, env=env, check=False)
        assert code == fresh.returncode
        assert (_without_wall_clock(got.out)
                == _without_wall_clock(fresh.stdout))
        assert got.err == fresh.stderr
    assert code == EXIT_OK and fresh.returncode == EXIT_OK
    assert build_parser() is build_parser()


@pytest.mark.parametrize("argv", [
    ["gap-scan", "--family", "ising-linear", "--n", "4", "--dt", "2"],
    ["gap-scan", "--family", "ising-linear", "--n", "4", "--format", "json"],
    ["scaling", "--family", "ising-linear", "--n-list", "3",
     "--tau-grid", "1,2", "--n", "4"],
    ["scaling", "--family", "ising-linear", "--n-list", "3",
     "--tau-grid", "1,2", "--width", "3"],
    ["scaling", "--family", "ising-linear", "--n-list", "3",
     "--tau-grid", "1,2", "--seed", "1"],
], ids=["gap-scan-dt", "gap-scan-format", "scaling-n", "scaling-width",
        "scaling-seed"])
def test_removed_options_exit_2(argv, tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--out", str(tmp_path / "out.csv")])
    assert exc.value.code == EXIT_CONFIG
    assert not (tmp_path / "out.csv").exists()


@pytest.mark.parametrize("argv, option", [
    (["--family", "ising-linear", "--n", "4", "--width", "9"], "--width"),
    (["--family", "ising-stepwise", "--n", "4", "--height", "2"],
     "--height"),
    (["--family", "cluster1d-stepwise", "--n", "4", "--build-order",
      "order.txt"], "--build-order"),
    (["--family", "cluster2d-stepwise", "--width", "2", "--height", "2",
      "--n", "4"], "--n"),
    (["--family", "cluster2d-stepwise", "--build-order", "order.txt",
      "--width", "9"], "--width"),
    (["--family", "ising-linear", "--n", "4", "--instance", "nothere"],
     "--instance"),
    (["--family", "cluster2d-stepwise", "--width", "2", "--height", "2",
      "--order", "random"], "--order"),
    (["--family", "ising-linear", "--n", "4", "--seed", "4"], "--seed"),
    (["--family", "ising-linear", "--n", "4", "--width", "9", "--instance",
      "nothere", "--seed", "4", "--order", "random"], "--width"),
], ids=["width", "height", "build-order", "n", "width-with-build-order",
        "instance", "order", "seed", "all-unread"])
def test_path_options_the_family_does_not_read_exit_2(argv, option, capsys):
    code, out, err = run_cli(capsys, "spectrum", *argv, "--count", "2")
    assert code == EXIT_CONFIG
    assert out == ""
    assert option in err


def test_seed_without_random_order_exits_2(tmp_path, capsys):
    inst = tmp_path / "inst.txt"
    inst.write_text("4 2\n1 2 3\n2 3 4\n")
    for argv in (["gap-scan", "--family", "ec3-projector", "--instance",
                  str(inst), "--order", "greedy-max-r", "--points", "3",
                  "--out", str(tmp_path / "gaps.csv")],
                 ["ec3", "--instance", str(inst)]):
        code, _, err = run_cli(capsys, *argv, "--seed", "4")
        assert code == EXIT_CONFIG
        assert "--order random" in err
        code, _, _ = run_cli(capsys, *argv, "--seed", "4", "--order",
                             "random")
        assert code == EXIT_OK


def test_config_echo_names_no_duration(capsys):
    code, out, _ = run_cli(capsys, "spectrum", "--family", "ising-stepwise",
                           "--n", "3", "--count", "2")
    assert code == EXIT_OK
    line = next(ln for ln in out.splitlines() if ln.startswith("# config "))
    config = json.loads(line[len("# config "):])
    assert "dt" not in config
    assert config["family"] == "ising-stepwise" and config["seed"] == 0


@pytest.mark.parametrize("argv", [
    ["spectrum", "--family", "cluster1d-linear", "--n", "40"],
    ["evolve", "--family", "cluster1d-stepwise", "--n", "30", "--tau", "1"],
    ["gap-scan", "--family", "cluster1d-stepwise", "--n", "29",
     "--points", "3"],
], ids=["spectrum", "evolve", "gap-scan"])
def test_oversized_register_refused_before_allocating(argv, tmp_path,
                                                      capsys):
    tracemalloc.start()
    try:
        code, _, err = run_cli(capsys, *argv, "--out",
                               str(tmp_path / "out"))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == EXIT_CONFIG
    assert f"capped at {STATE_QUBIT_CAP} qubits" in err
    assert peak < 1 << 20


def test_sudden_quench_beyond_the_state_cap(tmp_path, capsys):
    # the Ising paths evolve an 80 x 80 covariance: at tau -> 0 the state
    # stays |+>^n, whose overlap with the even cat state is 2^(1 - n)
    n, out = 40, tmp_path / "e40.json"
    tracemalloc.start()
    try:
        code, _, _ = run_cli(capsys, "evolve", "--family", "ising-stepwise",
                             "--n", str(n), "--tau", "1e-6", "--track-parity",
                             "--out", str(out))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == EXIT_OK
    data = json.loads(out.read_text())["data"]
    assert abs(data["fidelity"] / 2.0 ** (1 - n) - 1.0) <= 1e-9
    assert data["parity_min"] == data["parity_max"] == 1.0
    assert data["norm_drift"] <= 1e-12
    assert peak < 4 << 20


@pytest.mark.parametrize("s", [0.0, 0.5])
def test_ising_linear_spectrum_beyond_the_state_cap(s, capsys):
    # quadratic in Majoranas: the levels of its 2^39-wide blocks come from
    # an 80 x 80 matrix, with no register allocated
    tracemalloc.start()
    try:
        code, out, _ = run_cli(capsys, "spectrum", "--family", "ising-linear",
                               "--n", "40", "--count", "4", "--s", str(s))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == EXIT_OK
    _, rows = read_csv_rows(out)
    assert len(rows) == 4 and rows[0][2] == "even"
    assert abs(float(rows[0][1]) - ising_linear_ground_energy(40, s)) <= 1e-9
    assert peak < 4 << 20


def test_more_free_fermion_levels_than_a_register_holds_exit_2(capsys):
    code, _, err = run_cli(capsys, "spectrum", "--family", "ising-linear",
                           "--n", "40", "--count", str((1 << 24) + 1))
    assert code == EXIT_CONFIG
    assert "levels refused" in err
