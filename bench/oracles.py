"""Reference values the benchmark checks `stepgap` output against.

Everything here is written from the physics, with numpy and scipy only, and
imports nothing from `stepgap`: a fault in the package's own closed forms
(`stepgap.analytic`) or in its operator layer cannot hide a fault in the
numerics it is compared with.
"""

from __future__ import annotations

import math

import numpy as np
import scipy.linalg

SQRT2 = math.sqrt(2.0)
TWO_LINK_MIN = math.sqrt(5.0) - 1.0


# ---------------------------------------------------------------------------
# gap curves
# ---------------------------------------------------------------------------

def segment_of(s_global: float, segments: int) -> tuple[int, float]:
    """(segment index, local s) of a global progress value.

    Boundary points may be assigned to either neighbour: every curve below is
    continuous across segment boundaries.
    """
    k = min(int(math.floor(s_global * segments)), segments - 1)
    return k, s_global * segments - k


def ising_linear_even_gap(n: int, s: float) -> float:
    """Even-sector gap of (1-s)(-sum X) + s(-sum ZZ) on a periodic ring.

    The lowest even excitation is a quasiparticle pair at momenta +-pi/n.
    """
    c = math.cos(math.pi / (2 * n))
    return 4.0 * math.sqrt(max(0.0, 1.0 - 4.0 * c * c * s * (1.0 - s)))


def ising_linear_even_min(n: int) -> tuple[float, float]:
    return 0.5, 4.0 * math.sin(math.pi / (2 * n))


def ising_stepwise_even_gap(n: int, s_global: float) -> float:
    """Even-sector gap along the bond-by-bond Ising series (n segments)."""
    k, s = segment_of(s_global, n)
    if k == 0:
        r = math.sqrt(5 * s * s - 8 * s + 4)
        return min(2 * r, 2 + r - s)
    if k == n - 1:
        return 2 + 2 * s  # closes the periodic bond
    return 2 * math.sqrt(1 - 2 * s * (1 - s))


def cluster1d_stepwise_gap(s_global: float, segments: int) -> float:
    _, s = segment_of(s_global, segments)
    return 2 * math.sqrt(1 - 2 * s * (1 - s))


def projector_gap(counts, s_global: float) -> float:
    """Gap of (1-s)(1-|P_k><P_k|) + s(1-|P_k+1><P_k+1|) on segment k."""
    k, s = segment_of(s_global, len(counts) - 1)
    r = counts[k + 1] / counts[k]
    return math.sqrt(max(0.0, 1 - 4 * s * (1 - s) * (1 - r)))


def projector_min_gap(counts) -> float:
    return min(math.sqrt(b / a) for a, b in zip(counts, counts[1:]))


# ---------------------------------------------------------------------------
# Exact Cover 3
# ---------------------------------------------------------------------------

def _bits(n: int) -> np.ndarray:
    """(2^n, n) array; column p-1 is bit p, bit 1 the most significant."""
    idx = np.arange(1 << n)
    return np.stack([(idx >> (n - p)) & 1 for p in range(1, n + 1)], axis=1)


def clause_satisfied(n: int, clauses) -> list[np.ndarray]:
    """Per clause, a mask of the bitstrings with exactly one of its bits set."""
    bits = _bits(n)
    return [bits[:, [p - 1 for p in c]].sum(axis=1) == 1 for c in clauses]


def greedy_count_chain(n: int, clauses) -> tuple[tuple[int, ...],
                                                 tuple[int, ...]]:
    """(order, counts) of the greedy-max-r clause order, by brute force.

    Each step picks the unused clause that keeps the most solutions, the
    lowest clause index winning ties; counts are N_0 = 2^n, ..., N_m.
    """
    masks = clause_satisfied(n, clauses)
    alive = np.ones(1 << n, dtype=bool)
    remaining = list(range(len(clauses)))
    order, counts = [], [1 << n]
    while remaining:
        kept = [int(np.count_nonzero(alive & masks[i])) for i in remaining]
        best = remaining[kept.index(max(kept))]
        order.append(best)
        remaining.remove(best)
        alive &= masks[best]
        counts.append(int(np.count_nonzero(alive)))
    return tuple(order), tuple(counts)


def random_ec3_instance(rng: np.random.Generator, n: int, m: int,
                        min_solutions: int) -> tuple:
    """Clauses of a random instance whose full set keeps >= min_solutions."""
    for _ in range(100_000):
        clauses = tuple(tuple(int(p) for p in sorted(rng.choice(n, 3,
                                                                replace=False) + 1))
                        for _ in range(m))
        if greedy_count_chain(n, clauses)[1][-1] >= min_solutions:
            return clauses
    raise RuntimeError(f"no EC3 instance with {min_solutions}+ solutions "
                       f"(n={n}, m={m})")


def format_ec3(n: int, clauses) -> str:
    return "\n".join([f"{n} {len(clauses)}"]
                     + [" ".join(map(str, c)) for c in clauses]) + "\n"


# ---------------------------------------------------------------------------
# dynamics: ising-stepwise in the even parity sector
# ---------------------------------------------------------------------------

def _ising_step_dense(n: int, k: int) -> np.ndarray:
    """k-th Hamiltonian of the bond-by-bond series as a dense 2^n matrix."""
    dim = 1 << n
    bits = _bits(n)
    spin = 1 - 2 * bits  # Z eigenvalue per qubit
    diag = np.zeros(dim)
    for i in range(1, k + 1):
        j = i % n + 1
        diag -= spin[:, i - 1] * spin[:, j - 1]
    h = np.diag(diag)
    idx = np.arange(dim)
    for q in range(1 if k == 0 else k + 2, n + 1):
        h[idx ^ (1 << (n - q)), idx] -= 1.0
    return h


def _even_basis(n: int) -> np.ndarray:
    """Columns (|z> + |not z>)/sqrt(2) for every z with leading bit 0."""
    dim = 1 << n
    half = np.arange(dim // 2)
    basis = np.zeros((dim, dim // 2))
    basis[half, half] = basis[(dim - 1) ^ half, half] = 1 / SQRT2
    return basis


def ising_stepwise_fidelity(n: int, tau: float, substeps: int) -> float:
    """Final fidelity with the cat state after a run of length `tau`.

    Each of the n equal segments is split into `substeps` fourth-order Magnus
    steps (two Gauss points plus their commutator), each one
    ``scipy.linalg.expm`` of the even-sector generator.  The start state is
    the uniform superposition and the target the even cat state, which is
    the even-sector ground state of the closed ring.
    """
    basis = _even_basis(n)
    ops = [basis.T @ _ising_step_dense(n, k) @ basis for k in range(n + 1)]
    psi = basis.T @ np.full(1 << n, 1 / math.sqrt(1 << n)) + 0j
    h = tau / n / substeps
    c1, c2 = 0.5 - math.sqrt(3) / 6, 0.5 + math.sqrt(3) / 6
    for k in range(n):
        a, diff = ops[k], ops[k + 1] - ops[k]
        for j in range(substeps):
            h1 = a + (j + c1) / substeps * diff
            h2 = a + (j + c2) / substeps * diff
            omega = -0.5j * h * (h1 + h2) \
                - math.sqrt(3) / 12 * h * h * (h2 @ h1 - h1 @ h2)
            psi = scipy.linalg.expm(omega) @ psi
    return float(abs(psi[0]) ** 2)  # basis column 0 is the cat state
