"""Command-line interface: spectra, gap scans, evolution, scaling, EC3, verify.

Each subcommand takes only the options it reads.  Every run emits CSV or
JSON with a metadata block (tool version, config echo, wall time, BLAS
thread count).  Every command runs at one OpenBLAS thread
(:func:`stepgap._blas.limited`), except the wide solves that
:func:`stepgap.spectra.solve_threads` names.  Exit codes: 0 success,
2 configuration error, 3 numerical non-convergence, 4 verification failure.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__, _blas, ec3, verify
from .dynamics import adiabatic_run, runtime_for_fidelity
from .models import (N_FAMILIES, PATH_FAMILIES, build_order_from_file,
                     make_path)
from .spectra import ConvergenceError, Segment, gap_scan

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERIC = 3
EXIT_VERIFY = 4


def _fmt(x) -> str:
    if isinstance(x, float):
        return f"{x:.15g}"
    return str(x)


def _config(args: argparse.Namespace) -> dict:
    """The options given or defaulted, echoed in every output."""
    return {k: v for k, v in sorted(vars(args).items())
            if k != "func" and v is not None}


def _write_text(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        Path(out).write_text(text, encoding="utf-8")


def _emit_csv(header: list[str], rows: list[list], args, wall: float) -> None:
    lines = [
        f"# stepgap {__version__}",
        f"# config {json.dumps(_config(args), default=str, sort_keys=True)}",
        f"# wall_seconds {wall:.3f}",
        f"# blas_threads {_blas.threads() or 'none'}",
        ",".join(header),
    ]
    lines += [",".join(_fmt(x) for x in row) for row in rows]
    _write_text("\n".join(lines) + "\n", args.out)


def _emit_json(payload: dict, args, wall: float) -> None:
    doc = {
        "meta": {
            "tool": f"stepgap {__version__}",
            "config": {k: str(v) for k, v in _config(args).items()},
            "wall_seconds": round(wall, 3),
            "blas_threads": _blas.threads(),
        },
        "data": payload,
    }
    _write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n", args.out)


def _parse_n_list(text: str) -> list[int]:
    """The system sizes of --n-list; ValueError when it names none."""
    try:
        sizes = [int(x) for x in text.split(",") if x.strip()]
    except ValueError as exc:
        raise ValueError(f"bad integer list {text!r}") from exc
    if not sizes:
        raise ValueError(f"--n-list {text!r} names no system size")
    return sizes


def _parse_tau_grid(text: str) -> list[float]:
    """Comma list '1,2,5' or geometric spec 'geom:lo:hi:count'."""
    if text.startswith("geom:"):
        parts = text.split(":")
        if len(parts) != 4:
            raise ValueError("geometric grid spec is geom:lo:hi:count")
        lo, hi, count = float(parts[1]), float(parts[2]), int(parts[3])
        if lo <= 0 or hi <= lo or count < 2:
            raise ValueError(f"bad geometric grid {text!r}")
        return [float(t) for t in np.geomspace(lo, hi, count)]
    vals = [float(x) for x in text.split(",") if x.strip()]
    if not vals:
        raise ValueError("empty tau grid")
    return vals


#: path options that only some families read, by argparse dest
_FAMILY_OPTIONS = {
    "n": N_FAMILIES,
    "width": ("cluster2d-stepwise",),
    "height": ("cluster2d-stepwise",),
    "build_order": ("cluster2d-stepwise",),
    "instance": ("ec3-projector",),
    "order": ("ec3-projector",),
}


def _clause_order_options(args) -> None:
    """Refuse --seed without --order random, then fill in the defaults
    (order given, seed 0) that the config echo reports."""
    if args.seed is not None and args.order != "random":
        raise ValueError("--seed draws only the clause permutation of "
                         "--order random")
    args.order = args.order or "given"
    args.seed = args.seed or 0


def _load_path(args) -> "InterpolationPath":
    for dest, families in _FAMILY_OPTIONS.items():
        if getattr(args, dest) is not None and args.family not in families:
            raise ValueError(f"--{dest.replace('_', '-')} does not apply to "
                             f"family {args.family!r}")
    _clause_order_options(args)
    kwargs = {}
    if args.family == "cluster2d-stepwise":
        if args.build_order and (args.width, args.height) != (None, None):
            raise ValueError("--width and --height do not apply with "
                             "--build-order, whose header gives the grid")
        if args.build_order:
            kwargs["build_order"] = build_order_from_file(
                Path(args.build_order).read_text(encoding="utf-8"))
        else:
            kwargs["width"] = args.width
            kwargs["height"] = args.height
    elif args.family == "ec3-projector":
        if not args.instance:
            raise ValueError("ec3-projector needs --instance")
        inst = ec3.parse_instance(
            Path(args.instance).read_text(encoding="utf-8"))
        order = ec3.order_clauses(inst, args.order, seed=args.seed)
        kwargs["instance"] = inst
        kwargs["clause_order"] = order
    else:
        if args.n is None:
            raise ValueError(f"family {args.family!r} needs --n")
        kwargs["n"] = args.n
    return make_path(args.family, **kwargs)


# ---------------------------------------------------------------------------
# subcommand handlers
# ---------------------------------------------------------------------------

def cmd_spectrum(args) -> int:
    t0 = time.perf_counter()
    path = _load_path(args)
    # the segment at local s, solved as a gap-scan sample is
    k, s = path.locate(args.s * path.tau)
    segment = Segment(*path.segment(k))
    res = segment.levels((1.0 - s, s), segment.sector("all"), args.count,
                         want_vectors=False, method=args.method)
    labels = res.sector_labels or ("all",) * args.count
    rows = [[i, float(w), lab] for i, (w, lab) in
            enumerate(zip(res.eigenvalues, labels))]
    wall = time.perf_counter() - t0
    if args.format == "json":
        _emit_json({"s": args.s, "levels": [
            {"index": r[0], "eigenvalue": r[1], "sector": r[2]}
            for r in rows]}, args, wall)
    else:
        _emit_csv(["index", "eigenvalue", "sector"], rows, args, wall)
    return EXIT_OK


def cmd_gap_scan(args) -> int:
    t0 = time.perf_counter()
    if args.out is None:
        raise ValueError("gap-scan writes a CSV plus a JSON sidecar; "
                         "--out is required")
    path = _load_path(args)
    curve = gap_scan(path, points=args.points, sector=args.sector)
    rows = [[float(s), float(g), float(l0), float(l1)]
            for s, g, l0, l1 in curve.samples]
    wall = time.perf_counter() - t0
    _emit_csv(["s", "gap", "lambda0", "lambda1"], rows, args, wall)
    sidecar = {
        "minimum_s": curve.minimum[0],
        "minimum_gap": curve.minimum[1],
        "sector": curve.sector,
        "points": args.points,
        "evaluations": curve.evaluations,
    }
    Path(str(args.out) + ".min.json").write_text(
        json.dumps(sidecar, indent=2, sort_keys=True) + "\n",
        encoding="utf-8")
    return EXIT_OK


def cmd_evolve(args) -> int:
    t0 = time.perf_counter()
    path = _load_path(args)
    res = adiabatic_run(path, args.tau, accuracy=args.accuracy,
                        track_parity=args.track_parity)
    wall = time.perf_counter() - t0
    payload = {
        "fidelity": res.fidelity,
        "norm_drift": res.norm_drift,
        "tau": res.tau,
        "steps": res.step_count,
        "refinements": res.refinements,
    }
    if res.parity_range is not None:
        payload["parity_min"], payload["parity_max"] = res.parity_range
    _emit_json(payload, args, wall)
    return EXIT_OK


def cmd_scaling(args) -> int:
    t0 = time.perf_counter()
    grid = _parse_tau_grid(args.tau_grid)
    rows = []
    for n in _parse_n_list(args.n_list):
        row = runtime_for_fidelity(args.family, n, args.f_target, grid,
                                   accuracy=args.accuracy)
        rows.append([n, args.family,
                     row.tau_required if row.reached else "not-reached",
                     int(row.reached), row.f_target])
    wall = time.perf_counter() - t0
    if args.format == "json":
        _emit_json({"rows": [
            {"n": r[0], "family": r[1], "tau_required": r[2],
             "reached": bool(r[3]), "f_target": r[4]} for r in rows]},
            args, wall)
    else:
        _emit_csv(["n", "family", "tau_required", "reached", "f_target"],
                  rows, args, wall)
    return EXIT_OK


def cmd_ec3(args) -> int:
    t0 = time.perf_counter()
    _clause_order_options(args)
    inst = ec3.parse_instance(Path(args.instance).read_text(encoding="utf-8"))
    order = ec3.order_clauses(inst, args.order, seed=args.seed)
    chain = ec3.solution_counts(inst, order)
    gaps = ec3.path_gaps(chain)
    rows = [[k, chain.counts[k],
             float(gaps[k - 1]) if k > 0 else ""] for k in
            range(len(chain.counts))]
    wall = time.perf_counter() - t0
    summary = {
        "min_gap": float(gaps.min()),
        "grover_gap": ec3.grover_gap(inst.n),
        "order": list(order),
        "solutions": chain.counts[-1],
    }
    if args.format == "json":
        _emit_json({"counts": list(chain.counts),
                    "gaps": [float(g) for g in gaps], **summary}, args, wall)
    else:
        _emit_csv(["k", "count", "gap"], rows, args, wall)
        sys.stderr.write(
            f"min_gap={_fmt(summary['min_gap'])} "
            f"grover_gap={_fmt(summary['grover_gap'])}\n")
    return EXIT_OK


def cmd_verify(args) -> int:
    for option, value, least in (("points", args.points, 2),
                                 ("kappa-max", args.kappa_max, 0)):
        if value < least:
            raise ValueError(f"--{option} must be at least {least}, "
                             f"got {value}")
    names = list(verify.CHECKS) if args.check == "all" else [args.check]
    n_list = _parse_n_list(args.n_list)
    results = verify.run_checks(names, n_list, points=args.points,
                                kappa_max=args.kappa_max)
    failures = 0
    for res in results:
        status = "PASS" if res.passed else "FAIL"
        if not res.passed:
            failures += 1
        label = res.name + (f" n={res.n}" if res.n is not None else "")
        print(f"{status} {label:28s} max_dev={res.deviation:.3e} "
              f"tol={res.tolerance:.0e}")
    return EXIT_VERIFY if failures else EXIT_OK


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def _add_path(p: argparse.ArgumentParser) -> None:
    p.add_argument("--family", required=True, choices=PATH_FAMILIES)
    p.add_argument("--n", type=int)
    p.add_argument("--width", type=int)
    p.add_argument("--height", type=int)
    p.add_argument("--build-order", help="explicit link-order file")
    p.add_argument("--instance", help="EC3 instance file")
    _add_order(p)


def _add_order(p: argparse.ArgumentParser) -> None:
    p.add_argument("--order", choices=ec3.ORDER_STRATEGIES,
                   help="clause order (default: given)")
    p.add_argument("--seed", type=int,
                   help="draws the clause permutation of --order random "
                        "(default: 0)")


def _add_output(p: argparse.ArgumentParser, formats=("csv", "json")) -> None:
    p.add_argument("--out", help="output file (default: stdout)")
    p.add_argument("--format", default=formats[0], choices=formats)


@functools.cache  # one parser per process, shared by in-process callers
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="stepgap",
        description="Spectra, gaps and adiabatic dynamics of spin models "
                    "along stepwise interpolation paths.")
    parser.add_argument("--version", action="version",
                        version=f"stepgap {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, text: str) -> argparse.ArgumentParser:
        # no abbreviations: `scaling --n 4` would pass as `--n-list 4`
        return sub.add_parser(name, help=text, allow_abbrev=False)

    p = add("spectrum", "lowest levels at one point")
    _add_path(p)
    _add_output(p)
    p.add_argument("--s", type=float, default=0.0,
                   help="global path progress in [0, 1]")
    p.add_argument("--count", type=int, default=6)
    p.add_argument("--method", default="auto",
                   choices=("auto", "dense", "lanczos"))
    p.set_defaults(func=cmd_spectrum)

    p = add("gap-scan", "gap curve along a path (CSV)")
    _add_path(p)
    p.add_argument("--out", help="CSV file (required); the minimum goes to "
                                 "OUT.min.json")
    p.add_argument("--points", type=int, default=200)
    p.add_argument("--sector", default="all", choices=("all", "even", "odd"))
    p.set_defaults(func=cmd_gap_scan)

    p = add("evolve", "adiabatic time evolution (JSON)")
    _add_path(p)
    _add_output(p, formats=("json",))
    p.add_argument("--tau", type=float, required=True)
    p.add_argument("--accuracy", type=float, default=1e-6)
    p.add_argument("--track-parity", action="store_true")
    p.set_defaults(func=cmd_evolve)

    p = add("scaling", "runtime needed per system size")
    p.add_argument("--family", required=True, choices=N_FAMILIES)
    _add_output(p)
    p.add_argument("--n-list", required=True)
    p.add_argument("--f-target", type=float, default=0.99)
    p.add_argument("--tau-grid", required=True,
                   help="comma list or geom:lo:hi:count")
    p.add_argument("--accuracy", type=float, default=1e-5)
    p.set_defaults(func=cmd_scaling)

    p = add("ec3", "counts and projector-path gaps")
    p.add_argument("--instance", required=True)
    _add_order(p)
    _add_output(p)
    p.set_defaults(func=cmd_ec3)

    p = add("verify", "analytic-vs-numeric suite")
    p.add_argument("--check", default="all",
                   choices=["all"] + list(verify.CHECKS))
    p.add_argument("--n-list", default="6,8,10")
    p.add_argument("--points", type=int, default=101)
    p.add_argument("--kappa-max", type=int, default=2)
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    with _blas.limited():
        try:
            return args.func(args)
        except ConvergenceError as exc:
            sys.stderr.write(f"stepgap: numerical non-convergence: {exc}\n")
            return EXIT_NUMERIC
        except (ValueError, OSError) as exc:
            sys.stderr.write(f"stepgap: {exc}\n")
            return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
