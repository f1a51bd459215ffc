"""The benchmark's workloads: CLI operations, their inputs and output checks.

An operation is one ``stepgap.cli.main(argv)`` call with the CLI's own
defaults (``--threads`` included).  Every operation writes its result to a
file in the run's work directory, and its check compares that file with the
independent references in `oracles`.

The seed draws the EC3 instances.  Sizes, point counts and runtimes are
fixed, so that every seed costs the same work and `run_s` compares across
seeds; the start vectors stay at the CLI default ``--seed 0``.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import math
from pathlib import Path
from typing import Callable

import numpy as np

import oracles

#: absolute tolerance on gaps and eigenvalue differences
GAP_TOL = 1e-7

#: a run of the fixed EC3 instance that hits the Lanczos fault: its final
#: projector has two solutions (counts 1024 384 192 96 48 20 8 8 2 under
#: greedy-max-r) and ARPACK returns [1, 1] at s = 1.  These are the clauses of
#: ``ec3.random_satisfiable_instance(10, 8, np.random.default_rng(3))``.
EC3_FAULT_CLAUSES = ((1, 2, 7), (6, 7, 8), (3, 4, 7), (2, 7, 8),
                     (4, 9, 10), (4, 6, 10), (7, 8, 9), (6, 7, 9))

#: seeded instances keep at least this many solutions; with one or two the
#: fault above strikes many instances, depending on where the fixed start
#: vector puts weight, so a run's failure count would depend on the seed
#: (README, "EC3 fault")
EC3_MIN_SOLUTIONS = 4


class CheckFailed(Exception):
    """An operation's output disagrees with its reference."""


@dataclasses.dataclass(frozen=True)
class Op:
    label: str
    argv: tuple[str, ...]
    check: Callable[[int, str, object], None]  # (exit code, stdout, ref)
    known_fault: bool = False
    #: costly reference for `check`, computed once per run outside set-up
    reference: Callable[[], object] | None = None


def _expect(cond: bool, message: str) -> None:
    if not cond:
        raise CheckFailed(message)


def _read_scan(out: Path) -> tuple[np.ndarray, dict]:
    lines = [ln for ln in out.read_text(encoding="utf-8").splitlines()
             if ln and not ln.startswith("#")]
    _expect(lines[0] == "s,gap,lambda0,lambda1", f"header {lines[0]!r}")
    rows = np.array([[float(x) for x in ln.split(",")] for ln in lines[1:]])
    side = json.loads(Path(f"{out}.min.json").read_text(encoding="utf-8"))
    return rows, side


def _scan_check(out: Path, points: int, gap_at=None, floor=None,
                min_gap=None, min_s=None):
    """Check of a gap-scan: every sample, and the refined minimum."""
    def check(code: int, stdout: str, ref) -> None:
        _expect(code == 0, f"exit code {code}")
        rows, side = _read_scan(out)
        _expect(rows.shape == (points, 4), f"{rows.shape[0]} samples")
        _expect(np.allclose(rows[:, 0], np.linspace(0, 1, points),
                            rtol=0, atol=1e-12), "sample grid")
        gaps = rows[:, 1]
        if gap_at is not None:
            want = np.array([gap_at(s) for s in rows[:, 0]])
            worst = int(np.argmax(np.abs(gaps - want)))
            _expect(abs(gaps[worst] - want[worst]) <= GAP_TOL,
                    f"gap {float(gaps[worst])!r} at s={rows[worst, 0]}, "
                    f"want {float(want[worst])!r}")
        if floor is not None:
            _expect(gaps.min() >= floor - GAP_TOL,
                    f"sample gap {gaps.min()!r} below {floor!r}")
        _expect(abs(side["minimum_gap"] - min_gap) <= GAP_TOL,
                f"minimum {side['minimum_gap']!r} at s={side['minimum_s']}, "
                f"want {min_gap!r}")
        if min_s is not None:
            _expect(abs(side["minimum_s"] - min_s) <= 1e-3,
                    f"minimum at s={side['minimum_s']}, want {min_s}")
    return check


def _gap_scan(work: Path, tag: str, family_args: list[str], points: int,
              sector: str | None, **check) -> Op:
    out = work / f"{tag}.csv"
    argv = ["gap-scan", *family_args, "--points", str(points),
            "--out", str(out)]
    if sector:
        argv[1:1] = ["--sector", sector]
    return Op(f"gap-scan {tag}", tuple(argv),
              _scan_check(out, points, **check))


def scan_sparse(work: Path, seed: int, tiny: bool) -> list[Op]:
    n = 6 if tiny else 10
    return [
        _gap_scan(work, f"ising-linear-n{n}", ["--family", "ising-linear",
                  "--n", str(n)], 5, "even",
                  gap_at=lambda s: oracles.ising_linear_even_gap(n, s),
                  min_gap=oracles.ising_linear_even_min(n)[1], min_s=0.5),
        # 2n+1 points put a sample at every segment midpoint, where the
        # minima lie, so the golden-section refinement brackets one of them
        _gap_scan(work, f"ising-stepwise-n{n}", ["--family", "ising-stepwise",
                  "--n", str(n)], 2 * n + 1, "even",
                  gap_at=lambda s: oracles.ising_stepwise_even_gap(n, s),
                  min_gap=oracles.SQRT2),
        _gap_scan(work, f"cluster1d-stepwise-n{n}",
                  ["--family", "cluster1d-stepwise", "--n", str(n)],
                  2 * (n - 1) + 1, None,
                  gap_at=lambda s: oracles.cluster1d_stepwise_gap(s, n - 1),
                  min_gap=oracles.SQRT2),
    ]


def scan_dense(work: Path, seed: int, tiny: bool) -> list[Op]:
    n = 6 if tiny else 10
    width, height = (2, 2) if tiny else (3, 3)
    segments = width * height - 1

    def verify_check(code: int, stdout: str, ref) -> None:
        lines = stdout.splitlines()
        _expect(code == 0, f"exit code {code}")
        _expect(lines and all(ln.startswith("PASS") for ln in lines),
                "; ".join(ln for ln in lines if not ln.startswith("PASS")))

    return [
        Op(f"verify n={n}", ("verify", "--n-list", str(n), "--points", "3"),
           verify_check),
        _gap_scan(work, f"cluster2d-stepwise-{width}x{height}",
                  ["--family", "cluster2d-stepwise", "--width", str(width),
                   "--height", str(height)], 2 * segments + 1, None,
                  floor=oracles.TWO_LINK_MIN, min_gap=oracles.TWO_LINK_MIN),
    ]


def _evolve_check(out: Path, tau: float, floor: float | None):
    """`ref` is the dense reference fidelity, None without a cross-check."""
    def check(code: int, stdout: str, ref) -> None:
        _expect(code == 0, f"exit code {code}")
        data = json.loads(out.read_text(encoding="utf-8"))["data"]
        _expect(data["tau"] == tau, f"tau {data['tau']}")
        _expect(data["norm_drift"] <= 1e-10,
                f"norm drift {data['norm_drift']!r}")
        for key in ("parity_min", "parity_max"):
            _expect(abs(data[key] - 1.0) <= 1e-9, f"{key} {data[key]!r}")
        f = data["fidelity"]
        _expect(0.0 <= f <= 1.0 + 1e-12, f"fidelity {f!r}")
        if ref is not None:
            _expect(f >= floor, f"fidelity {f!r} below {floor}")
            _expect(abs(f - ref) <= 1e-5,
                    f"fidelity {f!r}, dense reference {ref!r}")
    return check


def evolve(work: Path, seed: int, tiny: bool) -> list[Op]:
    # (n, tau, dense cross-check); tau = 60 reaches F >= 0.99 at n = 8
    runs = [(4, 32.0, True), (6, 5.0, False)] if tiny else \
        [(8, 60.0, True), (12, 10.0, False)]
    ops = []
    for n, tau, dense in runs:
        out = work / f"evolve-n{n}.json"
        # twenty fourth-order Magnus steps per segment agree with the
        # converged value to about 2e-6 at n = 8
        ops.append(Op(f"evolve ising-stepwise n={n} tau={tau:g}",
                      ("evolve", "--family", "ising-stepwise", "--n", str(n),
                       "--tau", f"{tau:g}", "--track-parity", "--format",
                       "json", "--out", str(out)),
                      _evolve_check(out, tau, 0.99 if dense else None),
                      reference=functools.partial(
                          oracles.ising_stepwise_fidelity, n, tau, 20)
                      if dense else None))
    return ops


def _ec3_ops(work: Path, tag: str, n: int, clauses, known_fault: bool
             ) -> list[Op]:
    order, counts = oracles.greedy_count_chain(n, clauses)
    inst = work / f"{tag}.txt"
    inst.write_text(oracles.format_ec3(n, clauses), encoding="utf-8")
    summary = work / f"{tag}.json"
    min_gap = oracles.projector_min_gap(counts)

    def ec3_check(code: int, stdout: str, ref) -> None:
        _expect(code == 0, f"exit code {code}")
        data = json.loads(summary.read_text(encoding="utf-8"))["data"]
        _expect(tuple(data["order"]) == order, f"order {data['order']}")
        _expect(tuple(data["counts"]) == counts, f"counts {data['counts']}")
        want = [math.sqrt(b / a) for a, b in zip(counts, counts[1:])]
        _expect(np.allclose(data["gaps"], want, rtol=0, atol=1e-12),
                f"gaps {data['gaps']}")
        _expect(abs(data["min_gap"] - min_gap) <= 1e-12,
                f"min gap {data['min_gap']!r}")
        _expect(data["grover_gap"] == 2.0 ** (-n / 2),
                f"grover gap {data['grover_gap']!r}")
        _expect(data["solutions"] == counts[-1],
                f"solutions {data['solutions']}")

    points = 4 * len(clauses) + 1  # a sample at every segment's quarters
    scan = _gap_scan(work, tag, ["--family", "ec3-projector", "--instance",
                                 str(inst), "--order", "greedy-max-r"],
                     points, None,
                     gap_at=lambda s: oracles.projector_gap(counts, s),
                     min_gap=min_gap)
    return [
        Op(f"ec3 {tag}", ("ec3", "--instance", str(inst), "--order",
                          "greedy-max-r", "--format", "json",
                          "--out", str(summary)), ec3_check),
        dataclasses.replace(scan, known_fault=known_fault),
    ]


def ec3_projector(work: Path, seed: int, tiny: bool) -> list[Op]:
    n, m = (6, 4) if tiny else (10, 8)
    rng = np.random.default_rng(seed)
    ops = _ec3_ops(work, "ec3-fault", 10, EC3_FAULT_CLAUSES, True)
    for i in range(2):
        clauses = oracles.random_ec3_instance(rng, n, m, EC3_MIN_SOLUTIONS)
        ops += _ec3_ops(work, f"ec3-seed{seed}-{i}", n, clauses, False)
    return ops


_OPS_OF = {
    "scan-sparse": scan_sparse,
    "scan-dense": scan_dense,
    "evolve": evolve,
    "ec3-projector": ec3_projector,
}


def build(name: str, work: Path, seed: int, tiny: bool = False) -> list[Op]:
    """Generate the workload's inputs in `work` and return its operations."""
    return _OPS_OF[name](work, seed, tiny)
