"""Exact Cover 3: instances, solution counting and projector paths.

A clause over three bit positions is satisfied when exactly one of the
bits is set.  Solution counting is exhaustive over bitmasks (vectorized,
capped at :data:`~stepgap.pauli.STATE_QUBIT_CAP` bits), one running AND
over the clauses of an order giving every prefix at once.  The projector
Hamiltonians ``1 - |Psi_k><Psi_k|``, built from the uniform superpositions
Psi_k of partial solutions, have no useful sparse Pauli form; they are held
matrix-free as :class:`stepgap.pauli.ProjectorSum` operators, one vector
each.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .pauli import (OperatorSum, PauliString, ProjectorSum,
                    check_state_qubits)

ORDER_STRATEGIES = ("given", "greedy-max-r", "random")


class UnsatisfiablePrefixError(ValueError):
    """A clause prefix admits no solutions, so the projector path breaks."""


@dataclass(frozen=True)
class Ec3Instance:
    """n bits and m clauses of three distinct positions each (1-based)."""

    n: int
    clauses: tuple[tuple[int, int, int], ...]

    def __post_init__(self):
        if self.n < 3:
            raise ValueError("need at least three bits")
        clean = []
        for idx, clause in enumerate(self.clauses):
            if len(clause) != 3:
                raise ValueError(f"clause {idx} must have three positions")
            if len(set(clause)) != 3:
                raise ValueError(f"clause {idx} has duplicate positions")
            for p in clause:
                if not 1 <= p <= self.n:
                    raise ValueError(
                        f"clause {idx} position {p} outside 1..{self.n}")
            clean.append(tuple(int(p) for p in clause))
        object.__setattr__(self, "clauses", tuple(clean))

    @property
    def m(self) -> int:
        return len(self.clauses)


def parse_instance(text: str) -> Ec3Instance:
    """Parse the instance file format.

    First non-comment line: ``n m``; then m lines with three positions each.
    Lines starting with '#' are comments.
    """
    rows = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        rows.append((lineno, line))
    if not rows:
        raise ValueError("empty instance file")
    lineno, header = rows[0]
    parts = header.split()
    if len(parts) != 2:
        raise ValueError(f"line {lineno}: header must be 'n m'")
    try:
        n, m = int(parts[0]), int(parts[1])
    except ValueError as exc:
        raise ValueError(f"line {lineno}: bad header {header!r}") from exc
    if len(rows) - 1 != m:
        raise ValueError(
            f"expected {m} clause lines, found {len(rows) - 1}")
    clauses = []
    for lineno, line in rows[1:]:
        parts = line.split()
        if len(parts) != 3:
            raise ValueError(
                f"line {lineno}: clause needs three positions")
        try:
            clause = tuple(int(p) for p in parts)
        except ValueError as exc:
            raise ValueError(f"line {lineno}: bad clause {line!r}") from exc
        if len(set(clause)) != 3:
            raise ValueError(f"line {lineno}: duplicate position in clause")
        for p in clause:
            if not 1 <= p <= n:
                raise ValueError(
                    f"line {lineno}: position {p} outside 1..{n}")
        clauses.append(clause)
    return Ec3Instance(n, tuple(clauses))


def format_instance(instance: Ec3Instance) -> str:
    lines = [f"{instance.n} {instance.m}"]
    lines += [f"{a} {b} {c}" for a, b, c in instance.clauses]
    return "\n".join(lines) + "\n"


def clause_energy(bits: Sequence[int], clause: Sequence[int]) -> int:
    """(1 - b1 - b2 - b3)^2 for the clause's bits; zero iff exactly one set."""
    total = sum(int(bits[p - 1]) for p in clause)
    return (1 - total) ** 2


def clause_hamiltonian(n: int, clause: Sequence[int]) -> OperatorSum:
    """Diagonal partial problem Hamiltonian of one clause as a Pauli sum."""
    a, b, c = clause
    terms = [PauliString.identity(n, 1.0)]
    terms += [PauliString.from_ops(n, {p: "Z"}, -0.5) for p in (a, b, c)]
    terms += [PauliString.from_ops(n, {p: "Z", q: "Z"}, 0.5)
              for p, q in ((a, b), (a, c), (b, c))]
    return OperatorSum(n, terms)


def _clause_masks(instance: Ec3Instance, clauses):
    """Lazily, per clause, which basis states set exactly one of its bits.

    Refuses instances above :data:`~stepgap.pauli.STATE_QUBIT_CAP` bits
    before anything is allocated.
    """
    check_state_qubits(instance.n)
    idx = np.arange(1 << instance.n)
    return (np.bitwise_count(idx & sum(1 << (instance.n - p) for p in c)) == 1
            for c in clauses)


def _check_order(instance: Ec3Instance, order) -> tuple[int, ...]:
    if order is None:
        return tuple(range(instance.m))
    order = tuple(int(i) for i in order)
    if sorted(order) != list(range(instance.m)):
        raise ValueError("order must be a permutation of the clause indices")
    return order


def _prefix_masks(instance: Ec3Instance, order: tuple[int, ...], last: int):
    """Solutions of the first k clauses of a checked `order`, as boolean
    masks for k = 0..last, from one running AND over the clause masks."""
    if not 0 <= last <= instance.m:
        raise ValueError(f"k={last} outside 0..{instance.m}")
    masks = _clause_masks(instance,
                          [instance.clauses[i] for i in order[:last]])
    current = np.ones(1 << instance.n, dtype=bool)
    yield current
    for mask in masks:
        current = current & mask
        yield current


def _superposition(mask: np.ndarray, k: int) -> np.ndarray:
    """Uniform superposition over the set entries of a prefix-k mask."""
    count = np.count_nonzero(mask)
    if count == 0:
        raise UnsatisfiablePrefixError(
            f"clause prefix of length {k} has no solutions")
    return mask / np.sqrt(count)


@dataclass(frozen=True)
class SolutionCountChain:
    """Solution counts N_0 = 2^n, N_1, ..., N_m for a given clause order."""

    n: int
    counts: tuple[int, ...]
    order: tuple[int, ...]

    def __post_init__(self):
        if self.counts[0] != 1 << self.n:
            raise ValueError("N_0 must count every bitstring")
        if any(b > a for a, b in zip(self.counts, self.counts[1:])):
            raise ValueError("counts must be non-increasing")


def solution_counts(instance: Ec3Instance,
                    order: Sequence[int] | None = None) -> SolutionCountChain:
    """Exhaustive N_k for every clause prefix of the given order."""
    order = _check_order(instance, order)
    counts = tuple(int(np.count_nonzero(mask))
                   for mask in _prefix_masks(instance, order, instance.m))
    return SolutionCountChain(instance.n, counts, order)


def solution_indices(instance: Ec3Instance, k: int | None = None,
                     order: Sequence[int] | None = None) -> np.ndarray:
    """Basis indices satisfying the first k clauses (all of them by default)."""
    order = _check_order(instance, order)
    *_, mask = _prefix_masks(instance, order, instance.m if k is None else k)
    return np.nonzero(mask)[0]


def path_gaps(chain: SolutionCountChain) -> np.ndarray:
    """Per-segment minimum gaps sqrt(N_{k+1}/N_k) of the projector path."""
    counts = np.asarray(chain.counts)
    if np.any(counts == 0):
        k = int(np.argmax(counts == 0))
        raise UnsatisfiablePrefixError(
            f"clause prefix of length {k} has no solutions")
    return np.sqrt(counts[1:] / counts[:-1])


def solution_superposition(instance: Ec3Instance, order, k: int
                           ) -> np.ndarray:
    """Uniform superposition of all solutions to the first k clauses."""
    *_, mask = _prefix_masks(instance, _check_order(instance, order), k)
    return _superposition(mask, k)


def projector_hamiltonian(instance: Ec3Instance, order
                          ) -> tuple[ProjectorSum, ...]:
    """Projector complements ``1 - |Psi_k><Psi_k|`` for k = 0..m.

    The m + 1 operators of the projector path, built from one running AND
    over the clause masks of `order`.
    """
    order = _check_order(instance, order)
    return tuple(ProjectorSum.complement(_superposition(mask, k))
                 for k, mask in enumerate(
                     _prefix_masks(instance, order, instance.m)))


def order_clauses(instance: Ec3Instance, strategy: str = "given",
                  seed: int | None = None) -> tuple[int, ...]:
    """Clause permutation under a named strategy.

    ``greedy-max-r`` repeatedly picks the unused clause keeping the most
    solutions (ties by lowest clause index); ``random`` shuffles with the
    given seed.
    """
    if strategy not in ORDER_STRATEGIES:
        raise ValueError(f"unknown strategy {strategy!r}; choose from "
                         f"{', '.join(ORDER_STRATEGIES)}")
    if strategy == "given":
        return tuple(range(instance.m))
    if strategy == "random":
        rng = np.random.default_rng(seed)
        return tuple(int(i) for i in rng.permutation(instance.m))
    masks = list(_clause_masks(instance, instance.clauses))
    remaining = list(range(instance.m))
    current = np.ones(1 << instance.n, dtype=bool)
    order = []
    while remaining:
        best = max(remaining,
                   key=lambda i: (int((current & masks[i]).sum()), -i))
        order.append(best)
        remaining.remove(best)
        current &= masks[best]
    return tuple(order)


def grover_gap(n: int) -> float:
    """Minimum gap of the direct start-to-solution projector interpolation."""
    return float(2.0 ** (-n / 2.0))


def random_instance(n: int, m: int, rng: np.random.Generator) -> Ec3Instance:
    clauses = []
    for _ in range(m):
        clause = rng.choice(np.arange(1, n + 1), size=3, replace=False)
        clauses.append(tuple(int(p) for p in sorted(clause)))
    return Ec3Instance(n, tuple(clauses))


def random_satisfiable_instance(n: int, m: int, rng: np.random.Generator,
                                unique: bool = False, max_tries: int = 500
                                ) -> Ec3Instance:
    """Rejection-sample an instance with at least one (or exactly one) solution."""
    for _ in range(max_tries):
        inst = random_instance(n, m, rng)
        final = solution_counts(inst).counts[-1]
        if (final == 1) if unique else (final >= 1):
            return inst
    raise RuntimeError(
        f"no {'unique-solution' if unique else 'satisfiable'} instance "
        f"found in {max_tries} tries (n={n}, m={m})")
