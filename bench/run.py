"""Run one benchmark workload of `stepgap` and print its metrics.

    python3 bench/run.py --workload scan-sparse --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout; the package is imported from
``src/``.  Set-up (import, input generation, one warm-up solve) is timed in
this process and in two fresh ones.  Then whole rounds of the workload's
operations run until the next round would end after ``--seconds``; each
operation's output is checked against `oracles`.  With ``--trace 0`` the
last line holds the end-to-end metrics, with ``--trace 1`` the per-layer
metrics of traced rounds, which alternate with untraced ones to give the
tracing overhead.  Result and trace files go to ``bench/out/``.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

SETUP_SAMPLES = 3
MIN_ROUNDS = 3  # untraced rounds; a traced run needs one untraced+traced pair
WORKLOADS = ("scan-sparse", "scan-dense", "evolve", "ec3-projector")


def _parse_args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=25.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true",
                   help="smallest sizes, for the smoke test")
    p.add_argument("--setup-only", action="store_true",
                   help="time set-up once and print the seconds")
    return p.parse_args(argv)


def _setup(args, work: Path):
    """Import, input generation and one warm-up solve; (cli, ops, seconds)."""
    t0 = time.perf_counter()
    sys.path.insert(0, str(SRC))
    from stepgap import cli
    import workloads
    ops = workloads.build(args.workload, work, args.seed, args.tiny)
    with contextlib.redirect_stdout(io.StringIO()):
        cli.main(["spectrum", "--family", "ising-linear", "--n", "9",
                  "--s", "0.5", "--count", "2", "--out",
                  str(work / "warm-up.csv")])
    return cli, ops, time.perf_counter() - t0


def _setup_in_fresh_process(args) -> float:
    argv = [sys.executable, str(Path(__file__).resolve()), "--setup-only",
            "--workload", args.workload, "--seed", str(args.seed)]
    if args.tiny:
        argv.append("--tiny")
    proc = subprocess.run(argv, capture_output=True, text=True, timeout=120,
                          check=True)
    return float(proc.stdout.split()[-1])


def _run_op(cli, op, ref, tracer=None, op_id=None) -> dict:
    """One CLI call, timed; its output checked after the clock stops."""
    from workloads import CheckFailed
    captured = io.StringIO()
    error = None
    c0, t0 = time.process_time(), time.perf_counter()
    try:
        with contextlib.redirect_stdout(captured), \
                contextlib.redirect_stderr(io.StringIO()):
            if tracer is None:
                code = cli.main(list(op.argv))
            else:
                with tracer.operation(op_id, op.label):
                    code = cli.main(list(op.argv))
    except Exception:  # a crash is a failed operation, not a failed run
        code = None
        error = traceback.format_exc(limit=3).strip().splitlines()[-1]
    wall, cpu = time.perf_counter() - t0, time.process_time() - c0
    if error is None:
        try:
            op.check(code, captured.getvalue(), ref)
        except (CheckFailed, OSError, ValueError, KeyError, IndexError) as exc:
            error = f"{type(exc).__name__}: {exc}"
    return {"wall": wall, "cpu": cpu, "error": error}


def _measure(cli, ops, refs, args) -> dict:
    """Whole rounds until the next one would end after `args.seconds`."""
    tracer = None
    if args.trace:
        from tracing import Tracer
        tracer = Tracer()
    rounds = []
    start = time.perf_counter()
    unit_times = []
    while True:
        unit_start = time.perf_counter()
        for traced in ((False, True) if tracer else (False,)):
            index = len(rounds)
            if traced:
                tracer.install()
            try:
                results = [_run_op(cli, op, ref, tracer if traced else None,
                                   (index, k))
                           for k, (op, ref) in enumerate(zip(ops, refs))]
            finally:
                if traced:
                    tracer.uninstall()
            rounds.append({"traced": traced, "ops": results,
                           "wall": sum(r["wall"] for r in results),
                           "cpu": sum(r["cpu"] for r in results)})
        now = time.perf_counter()
        unit_times.append(now - unit_start)
        enough = len(unit_times) >= (1 if tracer else MIN_ROUNDS)
        if enough and now - start + statistics.median(unit_times) \
                > args.seconds:
            break
    return {"rounds": rounds, "tracer": tracer,
            "peak_rss_mb": resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024}


def _machine() -> dict:
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
        sha = sha.stdout.strip() if sha.returncode == 0 else None
    except (OSError, subprocess.TimeoutExpired):
        sha = None
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "stepgap_threads_env": os.environ.get("STEPGAP_THREADS"),
            "git_sha": sha}


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def _end_to_end_metrics(run: dict, setups: list[float]) -> dict:
    # The fastest round, not the median: contention from outside the
    # process only ever slows a round down, and the fastest of several
    # rounds varies far less from run to run (README, "Metrics").
    plain = [r for r in run["rounds"] if not r["traced"]]
    return {
        "run_s": _metric(min(r["wall"] for r in plain), "s"),
        "cpu_s": _metric(min(r["cpu"] for r in plain), "s"),
        "setup_s": _metric(statistics.median(setups), "s"),
        "peak_rss_mb": _metric(run["peak_rss_mb"], "MB"),
    }


def _layer_metrics(run: dict, args) -> dict:
    """Medians over the traced rounds; overhead against the untraced ones.

    `trace.run_s` is the fastest traced round, like `run_s`.
    """
    from tracing import LAYER_UNITS, layer_metrics
    tracer, rounds = run["tracer"], run["rounds"]
    traced = [i for i, r in enumerate(rounds) if r["traced"]]
    per_round = [layer_metrics([s for s in tracer.spans if s[2][0] == i])
                 for i in traced]
    values = {k: statistics.median(m[k] for m in per_round)
              for k in per_round[0]}
    values["trace.run_s"] = min(rounds[i]["wall"] for i in traced)
    values["trace.overhead_s"] = values["trace.run_s"] - min(
        r["wall"] for r in rounds if not r["traced"])
    tracer.write_jsonl(OUT / f"trace-{args.workload}-seed{args.seed}.jsonl")
    print(f"absent layers: {tracer.absent or 'none'}")
    return {k: _metric(values[k], unit) for k, (unit, _) in LAYER_UNITS.items()}


def main(argv=None) -> int:
    args = _parse_args(argv)
    if not (SRC / "stepgap" / "__init__.py").is_file():
        sys.stderr.write(f"bench: no stepgap sources under {SRC}\n")
        return 2
    OUT.mkdir(exist_ok=True)
    work = OUT / f"work-{args.workload}-{os.getpid()}"
    work.mkdir()
    try:
        cli, ops, setup_s = _setup(args, work)
        if args.setup_only:
            print(f"{setup_s!r}")
            return 0
        setups = [setup_s] + [_setup_in_fresh_process(args)
                              for _ in range(SETUP_SAMPLES - 1)]
        refs = [op.reference() if op.reference else None for op in ops]
        run = _measure(cli, ops, refs, args)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    rounds = run["rounds"]
    results = [(op, res) for r in rounds for op, res in zip(ops, r["ops"])]
    errors = {}
    for op, res in results:
        if res["error"]:
            errors.setdefault(op.label, res["error"])
    known = {op.label for op in ops if op.known_fault}
    metrics = _layer_metrics(run, args) if args.trace \
        else _end_to_end_metrics(run, setups)

    plain = [r for r in rounds if not r["traced"]]
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}"
     f"{'-tiny' if args.tiny else ''}.json").write_text(json.dumps({
         "workload": args.workload, "seed": args.seed,
         "seconds": args.seconds, "tiny": args.tiny, "machine": _machine(),
         "setup_samples_s": setups,
         "round_traced": [r["traced"] for r in rounds],
         "round_op_wall_s": [[o["wall"] for o in r["ops"]] for r in rounds],
         "round_op_cpu_s": [[o["cpu"] for o in r["ops"]] for r in rounds],
         "errors": errors, "metrics": metrics}, indent=2) + "\n",
        encoding="utf-8")
    for k, op in enumerate(ops):
        wall = statistics.median(r["ops"][k]["wall"] for r in plain)
        print(f"op {wall:9.4f} s  {op.label}")
    for label, error in errors.items():
        print(f"failed: {label}: {error}")
    print(json.dumps({"correct": set(errors) <= known,
                      "attempted": len(results),
                      "failed": sum(bool(res["error"]) for _, res in results),
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
