"""Analytic-vs-numeric verification checks.

Each check evaluates a closed-form prediction against exact numerics and
returns the worst absolute deviation it saw.  Every level checked comes
from :meth:`stepgap.spectra.Segment.values`, as in `gap-scan`, in calls of
at most :data:`LEVELS_PER_CALL` levels: a step segment's full spectrum,
the ``ising-linear`` ground level (from its Majorana form above n = 9, at
any n), and the two lowest levels of an EC3 projector segment, from its
kept basis.  The conjugation check compares matrices instead:
``conjugate(H)`` against ``S H S``, S the gate's signed permutation, in
Frobenius norm.  The CLI `verify` subcommand and the acceptance tests run
these.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from itertools import chain, product

import numpy as np

from . import analytic, ec3
from .models import ising_step_hamiltonian, lattice_build_order, make_path
from .pauli import GateSpec, OperatorSum, PauliString, conjugate
from .spectra import Segment, sector_ground_state


@dataclass(frozen=True)
class CheckResult:
    name: str
    n: int | None
    deviation: float
    tolerance: float

    @property
    def passed(self) -> bool:
        return self.deviation < self.tolerance


def _match_deviation(num: np.ndarray, levels) -> float:
    """Worst distance from each analytic level to the spectrum `num`."""
    return max(float(np.min(np.abs(num - level.value))) for level in levels)


#: Levels held by one :meth:`Segment.values` call of a level check (2 MB).
LEVELS_PER_CALL = 1 << 18


def _segment_deviation(path, k: int, grid, levels_at,
                       count: int | None = None) -> float:
    """Worst deviation from ``levels_at(s)`` at the local s of `grid` of
    segment k's full spectrum (:func:`_match_deviation`), or element-wise of
    its `count` lowest levels, from as few :meth:`Segment.values` calls as
    hold at most :data:`LEVELS_PER_CALL` levels each."""
    segment = Segment(*path.segment(k))
    blocks, grid = segment.sector("all"), np.asarray(grid, dtype=float)
    compare = _match_deviation if count is None else \
        lambda num, want: float(np.abs(num - want).max())
    if count is None:
        count = len(blocks) * segment.tapering.block_dim
    share = max(1, LEVELS_PER_CALL // count)
    return max(max(compare(num, levels_at(s)) for s, num in zip(
        part, segment.values(np.column_stack([1.0 - part, part]), blocks,
                             count)))
        for part in np.split(grid, range(share, len(grid), share)))


def first_step_deviation(n: int, points: int = 101, kappa_max: int = 2
                         ) -> float:
    return _segment_deviation(
        make_path("ising-stepwise", n=n), 0, np.linspace(0.0, 1.0, points),
        lambda s: analytic.ising_first_step_levels(n, s, kappa_max))


def mid_step_deviation(n: int, points: int = 101, kappa_max: int = 2,
                       k: int | None = None) -> float:
    k = max(1, (n - 1) // 2) if k is None else k
    return _segment_deviation(
        make_path("ising-stepwise", n=n), k, np.linspace(0.0, 1.0, points),
        lambda s: analytic.ising_mid_step_levels(n, s, kappa_max))


def cluster_step_deviation(n: int, points: int = 101, kappa_max: int = 2
                           ) -> float:
    path = make_path("cluster1d-stepwise", n=n)
    return max(_segment_deviation(
        path, k, np.linspace(0.0, 1.0, points),
        lambda s: analytic.cluster1d_step_levels(n, s, kappa_max))
        for k in (0, max(1, path.segment_count // 2)))


def two_link_deviation(n: int, points: int = 101, kappa_max: int = 2
                       ) -> float:
    """First two-link step of a two-row grid with n sites (n even)."""
    if n % 2:
        raise ValueError("two-link check uses 2-row grids, n must be even")
    k = lattice_build_order(n // 2, 2).two_link_steps()[0]
    path = make_path("cluster2d-stepwise", width=n // 2, height=2)
    return _segment_deviation(
        path, k, np.linspace(0.0, 1.0, points), lambda s: list(chain(
            *analytic.cluster2d_two_link_lowest(n, s, kappa_max))))


def ground_energy_deviation(n: int, points: int = 101) -> float:
    """The lowest level of the ``ising-linear`` path at `points` progress
    values against Pfeuty's closed form."""
    return _segment_deviation(
        make_path("ising-linear", n=n), 0, np.linspace(0.0, 1.0, points),
        lambda s: analytic.ising_linear_ground_energy(n, s), count=1)


def overlap_chain_deviation(n: int) -> float:
    states = [sector_ground_state(ising_step_hamiltonian(n, k), "even")
              for k in range(n + 1)]
    want = [1.0 / np.sqrt(2.0)] * (n - 1) + [1.0]
    return max(abs(abs(np.vdot(a, b)) - w)
               for a, b, w in zip(states, states[1:], want))


# The six conjugation rules stated for the two gates, plus the three
# complements closing the set on the generators.  Each entry is
# (gate kind, factor on control, factor on target, expected factors).
CONJUGATION_RULES = (
    ("CNOT", "Z", "I", {"control": "Z"}),
    ("CNOT", "Z", "Z", {"target": "Z"}),
    ("CNOT", "I", "X", {"target": "X"}),
    ("CNOT", "X", "I", {"control": "X", "target": "X"}),
    ("CNOT", "I", "Z", {"control": "Z", "target": "Z"}),
    ("CZ", "Z", "X", {"target": "X"}),
    ("CZ", "Z", "I", {"control": "Z"}),
    ("CZ", "I", "Z", {"target": "Z"}),
    ("CZ", "X", "I", {"control": "X", "target": "Z"}),
)


def conjugation_rule_failures(n: int = 4, control: int = 2, target: int = 3
                              ) -> list[str]:
    """Exact term-pattern checks of the stated gate rules; empty = all hold."""
    failures = []
    for kind, pc, qt, expect in CONJUGATION_RULES:
        ops = {q: f for q, f in ((control, pc), (target, qt)) if f != "I"}
        op = OperatorSum(n, [PauliString.from_ops(n, ops, -1.5)])
        got = conjugate(op, GateSpec(kind, control, target))
        want_ops = {q: expect[role] for role, q in (
            ("control", control), ("target", target)) if role in expect}
        want = OperatorSum(n, [PauliString.from_ops(n, want_ops, -1.5)])
        if got != want:
            failures.append(f"{kind} {pc}{qt}: got {got}, want {want}")
    return failures


def conjugation_spectrum_deviation(sizes=(4, 6, 8), trials: int = 3,
                                   seed: int = 17) -> float:
    rng = np.random.default_rng(seed)
    return max((_similarity_deviation(rng, kind, n) for kind in ("CNOT", "CZ")
                for n in sizes for _ in range(trials)), default=0.0)


def _similarity_deviation(rng, kind: str, n: int) -> float:
    """``||conjugate(op, gate) - S op S||_F`` for a random sum of 2n strings
    and `kind` gate, S its matrix as the signed permutation it must be."""
    op = OperatorSum(n, [PauliString.from_label(
        "".join(rng.choice(list("IXYZ"), size=n)), float(rng.normal()))
        for _ in range(2 * n)])
    gate = GateSpec(kind, int(rng.integers(1, n)), n)
    smat = gate.to_matrix(n)
    (rows, perm), sign = np.nonzero(smat), smat[smat != 0]
    del smat
    assert np.array_equal(rows, np.arange(1 << n)) and np.array_equal(
        np.sort(perm), rows) and np.all(np.abs(sign) == 1), "not unitary"
    want = op.to_dense()[np.ix_(perm, perm)]
    want *= np.multiply.outer(sign, sign)
    want -= conjugate(op, gate).to_dense()
    return float(np.linalg.norm(want))


def conjugation_dense_deviation() -> float:
    """All 16 two-qubit Pauli pairs against dense gate conjugation."""
    worst = 0.0
    for kind, pc, qt in product(("CNOT", "CZ"), "IXYZ", "IXYZ"):
        gate = GateSpec(kind, 1, 2)
        smat = gate.to_matrix(2)
        ops = {k: v for k, v in ((1, pc), (2, qt)) if v != "I"}
        op = OperatorSum(2, [PauliString.from_ops(2, ops)])
        got = conjugate(op, gate).to_dense()
        want = smat @ op.to_dense() @ smat
        worst = max(worst, float(np.abs(got - want).max()))
    return worst


def ec3_two_level_deviation(count: int = 3, seed: int = 99) -> float:
    """The two lowest levels of every segment of `count` seeded EC3
    projector paths at s = 1/4, 1/2, 3/4 against the closed form."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(count):
        inst = ec3.random_satisfiable_instance(6, 4, rng)
        order = ec3.order_clauses(inst)
        gaps = ec3.path_gaps(ec3.solution_counts(inst, order))
        path = make_path("ec3-projector", instance=inst, clause_order=order)
        worst = max(worst, *(_segment_deviation(
            path, k, (0.25, 0.5, 0.75),
            partial(analytic.projector_two_level, gap), count=2)
            for k, gap in enumerate(gaps)))
    return worst


#: name -> (callable(n, points, kappa_max), tolerance, runs per system size)
CHECKS = {
    "ising-first-step":
        (lambda n, p, km: first_step_deviation(n, p, km), 1e-8, True),
    "ising-mid-step":
        (lambda n, p, km: mid_step_deviation(n, p, km), 1e-8, True),
    "cluster1d-step":
        (lambda n, p, km: cluster_step_deviation(n, p, km), 1e-8, True),
    "cluster2d-two-link":
        (lambda n, p, km: two_link_deviation(n, p, km), 1e-8, True),
    "ising-ground-energy":
        (lambda n, p, km: ground_energy_deviation(n, p), 1e-8, True),
    "overlap-chain":
        (lambda n, p, km: overlap_chain_deviation(n), 1e-8, True),
    "conjugation":
        (lambda n, p, km: max(conjugation_dense_deviation(),
                              conjugation_spectrum_deviation(),
                              1e-30 if not conjugation_rule_failures()
                              else 1.0), 1e-10, False),
    "ec3-two-level":
        (lambda n, p, km: ec3_two_level_deviation(), 1e-10, False),
}


def run_checks(names, n_list, points: int = 101, kappa_max: int = 2
               ) -> list[CheckResult]:
    out = []
    for name in names:
        func, tol, per_n = CHECKS[name]
        sizes = n_list if per_n else [None]
        for n in sizes:
            dev = func(n, points, kappa_max)
            out.append(CheckResult(name, n, float(dev), tol))
    return out
