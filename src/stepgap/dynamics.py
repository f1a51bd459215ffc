"""Time-dependent Schroedinger propagation along interpolation paths.

The propagator advances segment by segment (the Hamiltonian is only
piecewise smooth), taking fourth-order commutator-free substeps: two
Lanczos-evaluated exponentials of Hamiltonian combinations sampled at the
Gauss nodes of each substep.  Substeps are halved until the final fidelity
is stable, which pins the observable accuracy without committing to a step
size.  Krylov exponentials are unitary up to orthogonalization error, so
the norm is conserved to near machine precision.

There is one propagation route at every size: each exponential applies
the segment blend (:func:`stepgap.pauli.blend`) matrix-free, which for Pauli
sums is the compiled flip-mask form; no dense matrix is built.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .models import InterpolationPath
from .pauli import (blend, n_qubits, parity_expectation, parity_symmetric,
                    uniform_superposition)
from .spectra import ConvergenceError, sector_ground_state

#: Initial substep density (substeps per unit time) before refinement.
BASE_STEPS_PER_TIME = 1.0

KRYLOV_DIM_MAX = 48

# Gauss nodes and weights of the two-exponential fourth-order scheme
_CF4_NODE_1 = 0.5 - np.sqrt(3.0) / 6.0
_CF4_NODE_2 = 0.5 + np.sqrt(3.0) / 6.0
_CF4_ALPHA = (3.0 - 2.0 * np.sqrt(3.0)) / 12.0
_CF4_BETA = (3.0 + 2.0 * np.sqrt(3.0)) / 12.0


@dataclass(frozen=True)
class EvolutionResult:
    """Outcome of one propagation run."""

    final_state: np.ndarray
    fidelity: float | None
    norm_drift: float
    step_count: int
    tau: float
    refinements: int
    parity_range: tuple[float, float] | None = None


@dataclass(frozen=True)
class ScalingRow:
    """Smallest runtime reaching a fidelity target for one system size."""

    n: int
    family: str
    f_target: float
    tau_required: float | None
    reached: bool
    trace: tuple[tuple[float, float], ...] = ()


def fidelity(psi: np.ndarray, target: np.ndarray) -> float:
    """Squared overlap |<target|psi>|^2."""
    if psi.shape != target.shape:
        raise ValueError(
            f"state shapes differ: {psi.shape} vs {target.shape}")
    return float(abs(np.vdot(target, psi)) ** 2)


def _krylov_expm_apply(matvec, psi: np.ndarray, dt: float,
                       m: int = KRYLOV_DIM_MAX, tol: float = 1e-12
                       ) -> np.ndarray:
    """exp(-i dt H) psi via a Lanczos subspace with full reorthogonalization.

    The subspace grows until the top Krylov coefficient of the exponential
    falls below `tol`, so short steps stay cheap.
    """
    dim = len(psi)
    m = min(m, dim)
    norm0 = np.linalg.norm(psi)
    vecs = [psi / norm0]
    alphas: list[float] = []
    betas: list[float] = []
    coeff = None
    for j in range(m):
        w = matvec(vecs[j])
        alpha = float(np.real(np.vdot(vecs[j], w)))
        alphas.append(alpha)
        w = w - alpha * vecs[j]
        if j > 0:
            w = w - betas[-1] * vecs[j - 1]
        # reorthogonalize; the subspaces here are small
        for v in vecs:
            w = w - np.vdot(v, w) * v
        beta = float(np.linalg.norm(w))
        happy = beta < 1e-13
        if happy or j == m - 1 or j >= 3:
            k = len(vecs)
            tri = np.diag(np.array(alphas[:k]))
            if k > 1:
                off = np.array(betas[:k - 1])
                tri += np.diag(off, 1) + np.diag(off, -1)
            w_t, u_t = np.linalg.eigh(tri)
            coeff = u_t @ (np.exp(-1j * dt * w_t) * u_t[0, :].conj())
            if happy or j == m - 1 or abs(coeff[-1]) < tol:
                break
        betas.append(beta)
        vecs.append(w / beta)
    # one vector at a time: the matrix product is a threaded BLAS call at
    # 2^12 amplitudes, which doubles the CPU time and waits on a busy core
    out = coeff[0] * vecs[0]
    for c, v in zip(coeff[1:], vecs[1:]):
        out += c * v
    return norm0 * out


def _propagate(path: InterpolationPath, psi0: np.ndarray,
               steps_per_segment: list[int], track_parity: bool):
    psi = psi0.astype(complex)
    parity_lo = parity_hi = parity_expectation(psi) if track_parity else None
    total_steps = 0
    for k in range(path.segment_count):
        op_a, op_b = path.segment(k)
        m_seg = steps_per_segment[k]
        seg_dt = path.durations[k] / m_seg
        for j in range(m_seg):
            s1 = (j + _CF4_NODE_1) / m_seg
            s2 = (j + _CF4_NODE_2) / m_seg
            # H(s) is linear in s, so each Gauss-weighted combination is
            # H evaluated at an effective parameter, over half the substep
            s_eff_first = 2.0 * (_CF4_BETA * s1 + _CF4_ALPHA * s2)
            s_eff_second = 2.0 * (_CF4_ALPHA * s1 + _CF4_BETA * s2)
            psi = _krylov_expm_apply(blend(op_a, op_b, s_eff_first).apply,
                                     psi, 0.5 * seg_dt)
            psi = _krylov_expm_apply(blend(op_a, op_b, s_eff_second).apply,
                                     psi, 0.5 * seg_dt)
            total_steps += 1
            if track_parity:
                p = parity_expectation(psi)
                parity_lo = min(parity_lo, p)
                parity_hi = max(parity_hi, p)
    parity_range = (parity_lo, parity_hi) if track_parity else None
    return psi, total_steps, parity_range


def evolve(path: InterpolationPath, psi0: np.ndarray, tau: float,
           accuracy: float = 1e-6, target: np.ndarray | None = None,
           track_parity: bool = False, max_refinements: int = 12
           ) -> EvolutionResult:
    """Solve i dpsi/dt = H(t) psi over the path rescaled to runtime `tau`.

    Substeps per segment start at a coarse density and are doubled until
    the final fidelity (against `target`, or against the previous
    refinement's final state when no target is given) moves by less than
    `accuracy`.  Raises :class:`ConvergenceError` when the refinement
    budget is exhausted.
    """
    if tau <= 0:
        raise ValueError("tau must be positive")
    if n_qubits(psi0) != path.n:
        raise ValueError(
            f"state is on {n_qubits(psi0)} qubits, path on {path.n}")
    if abs(np.linalg.norm(psi0) - 1.0) > 1e-10:
        raise ValueError("initial state must be normalized")
    if target is not None and abs(np.linalg.norm(target) - 1.0) > 1e-10:
        raise ValueError("target state must be normalized")

    run = path.rescaled(tau)
    steps = [max(1, int(np.ceil(d * BASE_STEPS_PER_TIME)))
             for d in run.durations]
    prev_state = None
    prev_metric = None
    for refinement in range(max_refinements + 1):
        psi, step_count, parity_range = _propagate(
            run, psi0, steps, track_parity)
        if target is not None:
            metric = fidelity(psi, target)
        else:
            metric = fidelity(psi, prev_state) if prev_state is not None \
                else None
        converged = (prev_metric is not None and metric is not None
                     and abs(metric - prev_metric) < accuracy)
        if target is None:
            # self-comparison: successive solutions must overlap to accuracy
            converged = metric is not None and abs(1.0 - metric) < accuracy
        if converged:
            fid = fidelity(psi, target) if target is not None else None
            return EvolutionResult(
                final_state=psi,
                fidelity=fid,
                norm_drift=float(abs(1.0 - np.linalg.norm(psi))),
                step_count=step_count,
                tau=tau,
                refinements=refinement,
                parity_range=parity_range,
            )
        prev_state = psi
        prev_metric = metric
        steps = [2 * m for m in steps]
    raise ConvergenceError(
        f"final-state fidelity did not stabilize to {accuracy} within "
        f"{max_refinements} substep refinements")


def evolution_target(path: InterpolationPath, psi0: np.ndarray | None = None
                     ) -> np.ndarray:
    """Ground state of the final Hamiltonian in the evolved symmetry sector.

    When the final operator conserves bit-flip parity and the initial state
    has definite parity, the ground state of that parity sector is returned
    (the cat state for the periodic bond Hamiltonian); otherwise the global
    ground state.
    """
    final = path.operators[-1]
    if psi0 is None:
        psi0 = uniform_superposition(path.n)
    sector = "all"
    if parity_symmetric(final):
        p0 = parity_expectation(psi0)
        if p0 > 0.999999:
            sector = "even"
        elif p0 < -0.999999:
            sector = "odd"
    return sector_ground_state(final, sector)


def runtime_for_fidelity(family: str, n: int, f_target: float, tau_grid,
                         accuracy: float = 1e-5, psi0: np.ndarray | None = None,
                         **path_kwargs) -> ScalingRow:
    """Smallest grid runtime whose final fidelity reaches `f_target`.

    Scans `tau_grid` in ascending order and stops at the first hit; a row
    with ``reached=False`` marks an unreachable target.
    """
    taus = [float(t) for t in tau_grid]
    if any(b <= a for a, b in zip(taus, taus[1:])):
        raise ValueError("tau_grid must be strictly increasing")
    from .models import make_path
    path = make_path(family, n=n, **path_kwargs)
    if psi0 is None:
        psi0 = uniform_superposition(path.n)
    target = evolution_target(path, psi0)
    trace = []
    for tau in taus:
        result = evolve(path, psi0, tau, accuracy=accuracy, target=target)
        trace.append((tau, result.fidelity))
        if result.fidelity >= f_target:
            return ScalingRow(n, family, f_target, tau, True, tuple(trace))
    return ScalingRow(n, family, f_target, None, False, tuple(trace))
