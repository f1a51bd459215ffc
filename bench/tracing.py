"""Span tracing of `stepgap` from the outside, for the per-layer metrics.

`Tracer.install` replaces the public functions of each module (and the
three LAPACK/ARPACK entry points `spectra` calls) with wrappers that record a
span: name, operation id, parent span, start and end.  Nothing under `src/`
changes.  Names a module imported by value (``from .pauli import blend``)
are patched in every module that holds them.  The one private hook is
`dynamics._krylov_expm_apply`, whose first argument, the matvec callable,
is wrapped too.  A hooked name that no longer exists makes its layer
absent: its metrics read 0 and `absent` lists it.

Spans stay in memory until the run ends; `write_jsonl` dumps them.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import itertools
import json
import threading
import time
from collections import defaultdict


def _arg(args, kwargs, pos, name, default=None):
    if name in kwargs:
        return kwargs[name]
    return args[pos] if len(args) > pos else default


def _term_amps(args, kwargs, result):
    op = args[0]
    return {"term_amps": len(op.terms) << op.n}


def _count(args, kwargs, result):
    return {"count": int(_arg(args, kwargs, 1, "count"))}


def _levels(args, kwargs, result):
    return {"levels": len(result.eigenvalues)}


def _points(args, kwargs, result):
    return {"points": int(_arg(args, kwargs, 1, "points", 200))}


def _evolution(args, kwargs, result):
    return {"passes": result.refinements + 1, "steps": result.step_count}


def _checks(args, kwargs, result):
    return {"checks": len(result)}


def _bytes(args, kwargs, result):
    return {"bytes": len(_arg(args, kwargs, 1, "data").encode("utf-8"))}


# span name -> (targets "module:attr.path", attrs callback).  The first
# target is the defining one; the others are by-value imports of it.
HOOKS = {
    "pauli.apply": (["stepgap.pauli:OperatorSum.apply"], _term_amps),
    "pauli.dense_operator.apply": (["stepgap.pauli:DenseOperator.apply"],
                                   None),
    "pauli.to_dense": (["stepgap.pauli:OperatorSum.to_dense"], None),
    "pauli.blend": (["stepgap.pauli:blend", "stepgap.models:blend",
                     "stepgap.dynamics:blend"], None),
    "models.make_path": (["stepgap.models:make_path", "stepgap.cli:make_path",
                          "stepgap.verify:make_path"], None),
    "models.at_progress": (["stepgap.models:InterpolationPath.at_progress"],
                           None),
    "spectra.lowest_eigenpairs": (["stepgap.spectra:lowest_eigenpairs",
                                   "stepgap.cli:lowest_eigenpairs",
                                   "stepgap.verify:lowest_eigenpairs"],
                                  _count),
    "spectra.lanczos": (["scipy.sparse.linalg:eigsh"], None),
    "spectra.dense_eig": (["scipy.linalg:eigh", "scipy.linalg:eigvalsh",
                           "numpy.linalg:eigvalsh"], None),
    "spectra.classify_sectors": (["stepgap.spectra:classify_sectors",
                                  "stepgap.cli:classify_sectors"], None),
    "spectra.sector_levels": (["stepgap.spectra:sector_levels"], _levels),
    "spectra.sector_gap": (["stepgap.spectra:sector_gap"], None),
    "spectra.gap_scan": (["stepgap.spectra:gap_scan", "stepgap.cli:gap_scan"],
                         _points),
    "dynamics.evolve": (["stepgap.dynamics:evolve", "stepgap.cli:evolve"],
                        _evolution),
    "dynamics.krylov": (["stepgap.dynamics:_krylov_expm_apply"], None),
    "dynamics.target": (["stepgap.dynamics:evolution_target",
                         "stepgap.cli:evolution_target"], None),
    "ec3.enumerate": (["stepgap.ec3:solution_counts",
                       "stepgap.ec3:solution_indices",
                       "stepgap.ec3:order_clauses"], None),
    "ec3.projector": (["stepgap.ec3:projector_hamiltonian"], None),
    "verify.run_checks": (["stepgap.verify:run_checks"], _checks),
    "cli.output": (["pathlib:Path.write_text"], _bytes),
}

# apply spans that count as Lanczos matvecs under an ARPACK span
_MATVEC_SPANS = ("pauli.apply", "pauli.dense_operator.apply")


def _resolve(target: str):
    """(owner object, attribute name) of a "module:a.b" target, or None."""
    module_name, path = target.split(":")
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None
    *parents, attr = path.split(".")
    for name in parents:
        owner = getattr(owner, name, None)
        if owner is None:
            return None
    if not hasattr(owner, attr):
        return None
    return owner, attr


class Tracer:
    """Collects spans while installed; operations run one after another."""

    def __init__(self):
        self.spans: list[list] = []  # [id, name, op, parent, t0, t1, attrs]
        self.absent: list[str] = []
        self._ids = itertools.count()
        self._local = threading.local()
        self._main_stack: list[list] = []
        self._op = None
        self._patched: list[tuple] = []

    # -- span bookkeeping ---------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, name: str) -> list:
        stack = self._stack()
        # a worker thread (gap_scan's pool) starts under the main thread's
        # innermost span, which is blocked waiting for it
        parent = stack[-1] if stack else (
            self._main_stack[-1] if self._main_stack else None)
        rec = [next(self._ids), name, self._op,
               parent[0] if parent else None, time.perf_counter_ns(), 0, None]
        stack.append(rec)
        return rec

    def _close(self, rec: list) -> None:
        rec[5] = time.perf_counter_ns()
        self._stack().pop()
        self.spans.append(rec)

    @contextlib.contextmanager
    def operation(self, op_id, label: str):
        """One root span around a CLI operation, run in this thread."""
        self._op = op_id
        self._main_stack = self._stack()
        rec = self._open("cli.main")
        rec[6] = {"label": label}
        try:
            yield
        finally:
            self._close(rec)
            self._op = None

    def wrap(self, name: str, fn, attrs=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(rec)
            if attrs is not None:
                rec[6] = attrs(args, kwargs, result)
            return result
        return traced

    def _wrap_krylov(self, fn):
        tracer = self

        @functools.wraps(fn)
        def traced(matvec, *args, **kwargs):
            rec = tracer._open("dynamics.krylov")
            try:
                return fn(tracer.wrap("dynamics.matvec", matvec),
                          *args, **kwargs)
            finally:
                tracer._close(rec)
        return traced

    # -- patching -----------------------------------------------------------

    def install(self) -> None:
        self.absent = []
        for name, (targets, attrs) in HOOKS.items():
            for i, target in enumerate(targets):
                found = _resolve(target)
                if found is None:
                    if i == 0:
                        self.absent.append(name)
                    continue
                owner, attr = found
                own = attr in vars(owner)
                # a method from the class dict, so the wrapper binds `self`
                original = vars(owner)[attr] if own else getattr(owner, attr)
                wrapped = self._wrap_krylov(original) \
                    if name == "dynamics.krylov" \
                    else self.wrap(name, original, attrs)
                setattr(owner, attr, wrapped)
                self._patched.append((owner, attr, original, own))

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, original, own = self._patched.pop()
            if own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)

    def write_jsonl(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for sid, name, op, parent, t0, t1, attrs in sorted(self.spans):
                fh.write(json.dumps({
                    "id": sid, "name": name, "op": op, "parent": parent,
                    "start_ns": t0, "end_ns": t1, "attrs": attrs}) + "\n")


# ---------------------------------------------------------------------------
# per-layer metrics
# ---------------------------------------------------------------------------

def _union_length(intervals) -> int:
    total, end = 0, None
    for a, b in sorted(intervals):
        if end is None or a > end:
            total += b - a
            end = b
        elif b > end:
            total += b - end
            end = b
    return total


def layer_metrics(spans: list[list]) -> dict[str, float]:
    """Per-layer counts, times and ratios of one round's spans.

    A time ``X.s`` adds the durations of the spans named X that lie inside no
    other span named X; ``X.self_s`` subtracts the part of each span that its
    child spans cover.
    """
    by_id = {r[0]: r for r in spans}
    children = defaultdict(list)
    named = defaultdict(list)
    for r in spans:
        named[r[1]].append(r)
        if r[3] is not None:
            children[r[3]].append(r)

    def ancestors(r):
        while r[3] is not None and r[3] in by_id:
            r = by_id[r[3]]
            yield r

    def calls(name):
        return len(named[name])

    def seconds(name):
        return sum(r[5] - r[4] for r in named[name]
                   if all(a[1] != name for a in ancestors(r))) / 1e9

    def self_seconds(name):
        return sum(r[5] - r[4] - _union_length(
            (max(c[4], r[4]), min(c[5], r[5])) for c in children[r[0]])
            for r in named[name]) / 1e9

    def attr_sum(name, key):
        return sum((r[6] or {}).get(key, 0) for r in named[name])

    def under(name, parent_name):
        return [r for r in named[name]
                if r[3] in by_id and by_id[r[3]][1] == parent_name]

    def ratio(a, b):
        return a / b if b else 0.0

    m = {}
    apply_s = seconds("pauli.apply")
    m["pauli.apply.calls"] = calls("pauli.apply")
    m["pauli.apply.s"] = apply_s
    m["pauli.apply.term_amps_per_s"] = ratio(
        attr_sum("pauli.apply", "term_amps"), apply_s)
    for layer in ("pauli.to_dense", "pauli.blend",
                  "pauli.dense_operator.apply", "models.at_progress",
                  "spectra.lanczos", "spectra.dense_eig",
                  "spectra.classify_sectors", "dynamics.krylov",
                  "ec3.enumerate", "ec3.projector"):
        m[f"{layer}.calls"] = calls(layer)
        m[f"{layer}.s"] = seconds(layer)
    m["models.make_path.s"] = seconds("models.make_path")

    m["spectra.lanczos.self_s"] = self_seconds("spectra.lanczos")
    m["spectra.lanczos.matvecs"] = sum(
        len(under(name, "spectra.lanczos")) for name in _MATVEC_SPANS)
    sector_calls = calls("spectra.sector_levels")
    solves = under("spectra.lowest_eigenpairs", "spectra.sector_levels")
    m["spectra.solves_per_sector_call"] = ratio(len(solves), sector_calls)
    m["spectra.levels_used_ratio"] = ratio(
        attr_sum("spectra.sector_levels", "levels"),
        sum(r[6]["count"] for r in solves if r[6]))
    gap_evals = named["spectra.sector_gap"]
    m["spectra.gap_evals"] = len(gap_evals)
    scan_evals = defaultdict(int)
    for r in gap_evals:
        for a in ancestors(r):
            if a[1] == "spectra.gap_scan":
                scan_evals[a[0]] += 1
                break
    m["spectra.golden_evals"] = sum(
        scan_evals[r[0]] - r[6]["points"]
        for r in named["spectra.gap_scan"] if r[6])

    krylov = calls("dynamics.krylov")
    matvecs = calls("dynamics.matvec")
    substeps = krylov // 2  # two exponentials per fourth-order substep
    m["dynamics.passes"] = attr_sum("dynamics.evolve", "passes")
    m["dynamics.substeps"] = substeps
    m["dynamics.final_pass_share"] = ratio(
        attr_sum("dynamics.evolve", "steps"), substeps)
    m["dynamics.krylov.self_s"] = self_seconds("dynamics.krylov")
    m["dynamics.krylov.matvecs"] = matvecs
    m["dynamics.krylov.mean_dim"] = ratio(matvecs, krylov)
    m["dynamics.matvec.s"] = seconds("dynamics.matvec")
    m["dynamics.target.s"] = seconds("dynamics.target")

    m["verify.checks"] = attr_sum("verify.run_checks", "checks")
    m["verify.s"] = seconds("verify.run_checks")
    m["cli.output.bytes"] = attr_sum("cli.output", "bytes")
    m["cli.output.s"] = seconds("cli.output")
    return m


#: unit and better direction of every metric `layer_metrics` returns, plus
#: the two tracing-overhead figures the runner adds
LAYER_UNITS = {
    "pauli.apply.calls": ("count", "lower"),
    "pauli.apply.s": ("s", "lower"),
    "pauli.apply.term_amps_per_s": ("1/s", "higher"),
    "pauli.to_dense.calls": ("count", "lower"),
    "pauli.to_dense.s": ("s", "lower"),
    "pauli.blend.calls": ("count", "lower"),
    "pauli.blend.s": ("s", "lower"),
    "pauli.dense_operator.apply.calls": ("count", "lower"),
    "pauli.dense_operator.apply.s": ("s", "lower"),
    "models.make_path.s": ("s", "lower"),
    "models.at_progress.calls": ("count", "lower"),
    "models.at_progress.s": ("s", "lower"),
    "spectra.lanczos.calls": ("count", "lower"),
    "spectra.lanczos.s": ("s", "lower"),
    "spectra.lanczos.self_s": ("s", "lower"),
    "spectra.lanczos.matvecs": ("count", "lower"),
    "spectra.dense_eig.calls": ("count", "lower"),
    "spectra.dense_eig.s": ("s", "lower"),
    "spectra.classify_sectors.calls": ("count", "lower"),
    "spectra.classify_sectors.s": ("s", "lower"),
    "spectra.solves_per_sector_call": ("ratio", "lower"),
    "spectra.levels_used_ratio": ("ratio", "higher"),
    "spectra.gap_evals": ("count", "lower"),
    "spectra.golden_evals": ("count", "lower"),
    "dynamics.passes": ("count", "lower"),
    "dynamics.substeps": ("count", "lower"),
    "dynamics.final_pass_share": ("ratio", "higher"),
    "dynamics.krylov.calls": ("count", "lower"),
    "dynamics.krylov.s": ("s", "lower"),
    "dynamics.krylov.self_s": ("s", "lower"),
    "dynamics.krylov.matvecs": ("count", "lower"),
    "dynamics.krylov.mean_dim": ("count", "lower"),
    "dynamics.matvec.s": ("s", "lower"),
    "dynamics.target.s": ("s", "lower"),
    "ec3.enumerate.calls": ("count", "lower"),
    "ec3.enumerate.s": ("s", "lower"),
    "ec3.projector.calls": ("count", "lower"),
    "ec3.projector.s": ("s", "lower"),
    "verify.checks": ("count", "higher"),
    "verify.s": ("s", "lower"),
    "cli.output.bytes": ("bytes", "lower"),
    "cli.output.s": ("s", "lower"),
    "trace.run_s": ("s", "lower"),
    "trace.overhead_s": ("s", "lower"),
}
