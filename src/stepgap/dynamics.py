"""Time-dependent Schroedinger propagation along interpolation paths.

The propagator advances segment by segment (the Hamiltonian is only
piecewise smooth), taking fourth-order commutator-free substeps: two
exponentials of Hamiltonian combinations sampled at the Gauss nodes of
each substep.  Substeps are halved until the final fidelity is stable,
which pins the observable accuracy without committing to a step size, at
most :data:`MAX_REFINEMENTS` times.

:func:`adiabatic_run`, the run of the CLI's `evolve` and `scaling`, starts
from the uniform superposition and targets the final operator's ground
state in the start's block, on one of two routes, chosen by the path.  The
Ising paths (`ising-linear`, `ising-stepwise`), whose operators are all
quadratic in Majoranas with ``X^n`` their one symmetry
(:attr:`stepgap.spectra.Segment.forms`), take the covariance route: the
state stays Gaussian in the start's ``X^n = +1`` sector, so it is carried
as its 2n x 2n covariance ``Gamma_ab = <i c_a c_b>``, each exponential
``Gamma -> R Gamma R^T`` with ``R = exp((dt/2) A)`` (Pfeuty, Ann. Phys.
57, 79 (1970)), applied per connected component of the segment's Majorana
coupling graph: a plane rotation by its summed angle on two Majoranas,
Rodrigues' formula on three, one batched ``eigh`` per chunk on more.  The
target is the lowest Gaussian state of the final form in that sector, and
the fidelity ``sqrt|det((Gamma + Gamma_target)/2)|`` (Bravyi, Quantum Inf.
Comput. 5, 216 (2005)).  The substeps and the refinement ladder are
:func:`evolve`'s, so are `step_count` and `refinements`; `norm_drift` is
``max|Gamma Gamma^T - 1|``, the parity exactly the sector's +1, and
`final_state` None: no 2^n array is held, and the run is refused only
where Gamma would outgrow a state of STATE_QUBIT_CAP qubits.  Every other
path (cluster, EC3) takes :func:`evolution_target` and :func:`evolve` on
vectors, described below, which also stay the oracle of the covariance
route.

Each path segment is a :class:`stepgap.spectra.Segment`, built once per
:func:`evolve` call, so every blend along it is block diagonal.  The start
state is folded once per call into one row per block; rows that are exactly
zero stay zero and are skipped.  A boundary takes one Clifford map
(:func:`stepgap.pauli.boundary_map`) in place of an unfold and a fold.
Blocks at most :data:`KRYLOV_DIM_MAX` wide (2 x 2 or 4 x 4 on a stepwise
segment) come in the segment's factored form: constants, which only add a
phase, and one traceless active matrix per key, exponentiated by one
batched ``eigh`` per chunk of substeps, the chunk's propagators no more
than two copies of the fold and composed to one per key (per key and
substep where the parity is read after each).  Wider blocks, and a
projector segment's one full-space block, take a Lanczos exponential that
stops its Krylov space on an a-priori bound (:data:`KRYLOV_TOL`), at the BLAS
threads of :func:`stepgap.spectra.solve_threads`.  Both are unitary to
rounding.  Fidelities and norms are read on the last segment's rows, which
are unfolded only for the state returned.  Where ``X^n`` is a generator,
the parity is read off the rows once; elsewhere, after each substep, as
``<C X^n C^dagger>`` of the rows.  The fidelity target is the final
operator's ground state in the block of one segment over all the path's
operators that holds the start, solved in that block's own tapering, else
the global ground state.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np
from scipy.linalg.blas import dznrm2, zaxpy, zdotc, zdscal

from .majorana import MajoranaForm, block_form
from .models import InterpolationPath
from .pauli import (STATE_QUBIT_CAP, OperatorSum, PauliString, Tapering,
                    basis_state, boundary_map, n_qubits, string_expectation,
                    uniform_superposition)
from .spectra import (DEGENERACY_TOL, ConvergenceError, Segment,
                      normal_modes, solve_threads)

#: Initial substep density (substeps per unit time) before refinement.
BASE_STEPS_PER_TIME = 1.0

#: Largest Krylov space of one exponential below the full dimension.
KRYLOV_DIM_MAX = 48

#: Bound on the next Krylov coefficient at which an exponential stops.
KRYLOV_TOL = 1e-12

#: Substep doublings tried before `evolve` raises ConvergenceError.
MAX_REFINEMENTS = 12

# Entries in one chunk's stack of a covariance component's propagators:
# a bound on memory (1 MB complex), not on accuracy
_CHUNK_ENTRIES = 1 << 16

# Gauss nodes and weights of the two-exponential fourth-order scheme
_CF4_NODE_1 = 0.5 - np.sqrt(3.0) / 6.0
_CF4_NODE_2 = 0.5 + np.sqrt(3.0) / 6.0
_CF4_ALPHA = (3.0 - 2.0 * np.sqrt(3.0)) / 12.0
_CF4_BETA = (3.0 + 2.0 * np.sqrt(3.0)) / 12.0


@dataclass(frozen=True)
class EvolutionResult:
    """Outcome of one propagation run.  `final_state` is None on the
    covariance route (:func:`adiabatic_run`), which holds no 2^n state."""

    final_state: np.ndarray | None
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


def _krylov_expm_apply(matvec, psi: np.ndarray, dt: float) -> np.ndarray:
    """exp(-i dt H) psi via a Lanczos subspace with full reorthogonalization.

    The next Krylov coefficient ``e_(k+1)^T exp(-i dt T) e_1`` of the Jacobi
    matrix T is ``beta_1 ... beta_k`` times a divided difference of
    exp(-i dt x), so at most ``sqrt(2) beta_1 ... beta_k |dt|^k / k!``
    (Hochbruck & Lubich, SIAM J. Numer. Anal. 34, 1911 (1997)).  The space
    stops at k vectors once that bound is below :data:`KRYLOV_TOL`: one
    multiply per iteration and one tridiagonal ``eigh`` per call.  Missing
    the bound with :data:`KRYLOV_DIM_MAX` vectors, fewer than the dimension,
    raises :class:`ConvergenceError`.
    """
    dim = len(psi)
    norm0 = dznrm2(psi)
    vecs = [np.asarray(psi, dtype=complex) / norm0]
    alphas: list[float] = []
    betas: list[float] = []
    bound = np.sqrt(2.0)
    # level-1 BLAS on one basis vector at a time, in place: single-threaded
    # below about 10^4 amplitudes at any thread count (stepgap._blas),
    # whereas a matrix product over the basis would thread from 2^12
    for j in range(min(KRYLOV_DIM_MAX, dim)):
        v = vecs[j]
        w = matvec(v)
        alpha = zdotc(v, w).real
        alphas.append(alpha)
        w = zaxpy(v, w, a=-alpha)
        if j:
            w = zaxpy(vecs[j - 1], w, a=-betas[-1])
        for u in vecs:
            w = zaxpy(u, w, a=-zdotc(u, w))
        beta = dznrm2(w)
        bound *= beta * abs(dt) / (j + 1)
        if beta < 1e-13 or bound < KRYLOV_TOL or j + 1 == dim:
            break
        betas.append(beta)
        vecs.append(zdscal(1.0 / beta, w))
    else:
        raise ConvergenceError(
            f"Krylov exponential missed tolerance {KRYLOV_TOL} with "
            f"{KRYLOV_DIM_MAX} vectors "
            f"(dt={dt}, dimension {dim})")
    tri = np.diag(alphas) + np.diag(betas, 1) + np.diag(betas, -1)
    w_t, u_t = np.linalg.eigh(tri)
    coeff = norm0 * (u_t @ (np.exp(-1j * dt * w_t) * u_t[0]))
    out = coeff[0] * vecs[0]
    for c, v in zip(coeff[1:], vecs[1:]):
        out = zaxpy(v, out, a=c)
    return out


def _cf4_parameters(m: int) -> np.ndarray:
    """The 2m effective parameters of m CF4 substeps: H(s) is linear in s,
    so each Gauss-weighted pair of a substep's nodes is H at one parameter."""
    s = (np.arange(m)[:, None] + [_CF4_NODE_1, _CF4_NODE_2]) / (0.5 * m)
    return (s @ [[_CF4_BETA, _CF4_ALPHA], [_CF4_ALPHA, _CF4_BETA]]).ravel()


def _compose(p: np.ndarray) -> np.ndarray:
    """``p[-1] @ ... @ p[0]``, by pairwise batched products."""
    while len(p) > 1:
        head = p[1::2] @ p[:-1:2]
        p = np.concatenate([head, p[-1:]]) if len(p) % 2 else head
    return p[0]


def _segment_parity(tapering: Tapering, held: np.ndarray,
                    shape: tuple[int, int]):
    """``x -> <X^n>`` of the state whose fold holds the rows x at `held`.
    Where ``X^n`` is a generator, it reads off the rows' parities: exactly
    their one parity when they share it, else the weighted sum.  Anywhere
    else it is ``<rows|C X^n C^dagger|rows>``, read on the rows."""
    if tapering.parity(0) is not None:
        signs = tapering.parity(held).astype(float)
        if np.all(signs == signs[0]):
            return lambda x: float(signs[0])
        return lambda x: float(signs @ (x.real ** 2 + x.imag ** 2).sum(1))
    n = tapering.operators[0].n
    string = tapering.conjugated(PauliString(n, (1 << n) - 1, 0))
    rows = np.zeros(shape, dtype=complex)

    def folded(x):
        rows[held] = x
        return string_expectation(string, rows.ravel())
    return folded


def _crossings(segments: list[Segment]):
    """Per boundary, :func:`stepgap.pauli.boundary_map`; and the maps' unit
    factors' product, read off e_0 through them all."""
    taperings = [segment.tapering for segment in segments]
    crossings = [boundary_map(a, b) for a, b in zip(taperings, taperings[1:])]
    rows = taperings[0].fold(basis_state(segments[0].operators[0].n, 0))
    for crossing in crossings:
        rows = crossing(rows)
    unit = taperings[-1].unfold(rows)[0]
    return crossings, unit / abs(unit)


def _propagate(path: InterpolationPath, rows: np.ndarray,
               steps_per_segment: list[int], segments: list[Segment],
               crossings: list, track_parity: bool):
    """One pass of CF4 substeps over every segment, in its blocks, from
    the first one's `rows` to the last one's; exactly-zero rows are
    skipped."""
    parities = []
    for k, segment in enumerate(segments):
        if k:
            rows = crossings[k - 1](rows)
        held = np.flatnonzero(rows.any(axis=1))
        x = rows[held]
        parity = _segment_parity(segment.tapering, held, rows.shape) \
            if track_parity else None
        if parity:
            parities.append(parity(x))
        # a generator's parity is fixed by the conserved row norms
        each = parity and segment.tapering.parity(0) is None
        m_seg = steps_per_segment[k]
        dt = path.durations[k] / m_seg
        if not segment.narrow(KRYLOV_DIM_MAX):
            with solve_threads(segment.block((1.0, 0.0), held[0]),
                               dense=False):
                for j, s in enumerate(_cf4_parameters(m_seg)):
                    x = np.array([_krylov_expm_apply(
                        segment.block((1.0 - s, s), b).apply, v, 0.5 * dt)
                        for b, v in zip(held, x)])
                    if each and j % 2:
                        parities.append(parity(x))
        else:
            (index, c0, a0), (_, c1, a1) = (segment.factor(j, held)
                                            for j in (0, 1))
            # one propagator per key and chunk of `share` substeps, a stack
            # no larger than two copies of the fold; to read the parity
            # after each substep, one per key and substep of the chunk
            share = max(1, rows.size // a0.size)
            s = _cf4_parameters(m_seg)[:, None, None, None]
            for i in range(0, 2 * m_seg, 2 * share):
                t = s[i:i + 2 * share]
                w, v = np.linalg.eigh((1.0 - t) * a0 + t * a1)
                e = v * np.exp(-0.5j * dt * w)[..., None, :] @ v.conj().mT
                if not each:
                    x = np.einsum("hij,hj->hi", _compose(e)[index], x)
                    continue
                for p, u in zip(e[1::2] @ e[::2], t.reshape(-1, 2).mean(1)):
                    x = np.einsum("hij,hj->hi", p[index], x)
                    # the constants commute: their phase at the midpoint
                    x *= np.exp(-1j * dt * ((1.0 - u) * c0 + u * c1))[:, None]
                    parities.append(parity(x))
            if not each:
                # the constants' phase over the whole segment
                x *= np.exp(-0.5j * path.durations[k] * (c0 + c1))[:, None]
        rows = np.zeros(rows.shape, dtype=complex)
        rows[held] = x
    parity_range = (min(parities), max(parities)) if track_parity else None
    return rows, sum(steps_per_segment), parity_range


def _check_accuracy(accuracy: float) -> None:
    if not 0 < accuracy < np.inf:
        raise ValueError(f"accuracy must be finite and positive, got "
                         f"{accuracy}")


def _ladder(run: InterpolationPath, accuracy: float):
    """``(refinement, substeps per segment)`` of each pass: a coarse
    density, doubled after every pass; :class:`ConvergenceError` once
    :data:`MAX_REFINEMENTS` doublings have not converged."""
    steps = [max(1, int(np.ceil(d * BASE_STEPS_PER_TIME)))
             for d in run.durations]
    for refinement in range(MAX_REFINEMENTS + 1):
        yield refinement, steps
        steps = [2 * m for m in steps]
    raise ConvergenceError(
        f"final-state fidelity did not stabilize to {accuracy} within "
        f"{MAX_REFINEMENTS} substep refinements")


def evolve(path: InterpolationPath, psi0: np.ndarray, tau: float,
           accuracy: float = 1e-6, target: np.ndarray | None = None,
           track_parity: bool = False) -> EvolutionResult:
    """Solve i dpsi/dt = H(t) psi over the path rescaled to runtime `tau`.

    Substeps per segment start at a coarse density and are doubled until
    the final fidelity (against `target`, or against the previous
    refinement's final state when no target is given) moves by less than
    `accuracy`.  Raises :class:`ConvergenceError` after
    :data:`MAX_REFINEMENTS` doublings; ValueError, before any pass, unless
    `tau` (:meth:`InterpolationPath.rescaled`) and `accuracy` are finite
    and positive and `target`, if given, is a unit state like `psi0`.
    """
    _check_accuracy(accuracy)
    if n_qubits(psi0) != path.n:
        raise ValueError(
            f"state is on {n_qubits(psi0)} qubits, path on {path.n}")
    if abs(np.linalg.norm(psi0) - 1.0) > 1e-10:
        raise ValueError("initial state must be normalized")
    if target is not None and (target.shape != psi0.shape or abs(
            np.linalg.norm(target) - 1.0) > 1e-10):
        raise ValueError(f"target state must be normalized and of shape "
                         f"{psi0.shape}, got shape {target.shape}")

    run = path.rescaled(tau)
    # each segment tapered once for every pass
    segments = [Segment(*run.segment(k)) for k in range(run.segment_count)]
    # the maps' unit factors taken out of the start once for every pass
    crossings, unit = _crossings(segments)
    start = segments[0].tapering.fold(psi0.astype(complex)) / unit
    last = segments[-1].tapering
    goal = None if target is None else last.fold(target)
    prev_state = None
    prev_metric = None
    for refinement, steps in _ladder(run, accuracy):
        rows, step_count, parity_range = _propagate(
            run, start, steps, segments, crossings, track_parity)
        if target is not None:
            metric = fidelity(rows, goal)
        else:
            metric = fidelity(rows, prev_state) if prev_state is not None \
                else None
        converged = (prev_metric is not None and metric is not None
                     and abs(metric - prev_metric) < accuracy)
        if target is None:
            # self-comparison: successive solutions must overlap to accuracy
            converged = metric is not None and abs(1.0 - metric) < accuracy
        if converged:
            return EvolutionResult(
                final_state=last.unfold(rows),
                fidelity=metric if target is not None else None,
                norm_drift=float(abs(1.0 - np.linalg.norm(rows))),
                step_count=step_count,
                tau=tau,
                refinements=refinement,
                parity_range=parity_range,
            )
        prev_state = rows
        prev_metric = metric


def evolution_target(path: InterpolationPath, psi0: np.ndarray | None = None
                     ) -> np.ndarray:
    """Ground state of the final Hamiltonian in the evolved symmetry block.

    When `psi0` (default: the uniform superposition) lies in one block of
    a :class:`~stepgap.spectra.Segment` over all the path's operators,
    the only block with an amplitude above 1e-12, the ground state of the
    final operator in that block is returned (on the Ising paths, the even
    cat state of the bond Hamiltonian); otherwise the global ground state.
    A Pauli block wider than 1 is solved in its own tapering; ValueError if
    its lowest level is degenerate (within DEGENERACY_TOL).
    """
    if psi0 is None:
        psi0 = uniform_superposition(path.n)
    segment = Segment(*path.operators)
    held = np.flatnonzero(np.abs(segment.tapering.fold(psi0)).max(1) > 1e-12)
    final = (0.0,) * (len(path.operators) - 1) + (1.0,)
    if len(held) > 1 or segment.tapering.block_dim == 1 \
            or not isinstance(path.operators[-1], OperatorSum):
        blocks = held if len(held) == 1 else segment.sector("all")
        return segment.levels(final, blocks, 1).eigenvectors[:, 0]
    inner = Segment(segment.block(final, held[0]))
    low = inner.levels((1.0,), inner.sector("all"), 2, want_vectors=False)
    if low.eigenvalues[1] - low.eigenvalues[0] < DEGENERACY_TOL:
        raise ValueError(f"degenerate target: the lowest final level "
                         f"{low.eigenvalues[0]} ties in the start's block")
    low = inner.levels((1.0,), inner.sector("all"), 1)
    return segment.tapering.lift(low.eigenvectors[:, 0], held[0])


def _components(size: int, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """The root of each of `size` nodes under the edges ``(rows, cols)``:
    nodes share a root exactly when they are connected."""
    root = list(range(size))

    def find(a: int) -> int:
        while root[a] != a:
            root[a] = a = root[root[a]]
        return a
    for a, b in zip(rows.tolist(), cols.tolist()):
        root[find(a)] = find(b)
    return np.array([find(a) for a in range(size)])


def _couplings(forms: tuple[MajoranaForm, ...]) -> list:
    """Per segment, ``(pairs, blocks)``: the couplings of its two end
    forms where ``X^n`` reads +1, by connected component of the graph
    their Majorana pairs span.  `pairs` holds the two-Majorana components
    as arrays ``(i + j, a_0, a_1)``, the P components' first Majoranas,
    then their second, and ``A[i, j]`` at the segment's two ends;
    `blocks` each larger one as its Majoranas and its d x d matrices ``A``
    at the two ends, stacked.  Nothing 2n x 2n is held."""
    size = 2 * forms[0].n
    entries = [(f.rows * size + f.cols, f.values) for f in forms]
    out = []
    for (k0, v0), (k1, v1) in zip(entries, entries[1:]):
        keys, where = np.unique(np.concatenate([k0, k1]), return_inverse=True)
        ends = np.zeros((2, len(keys)))
        np.add.at(ends[0], where[:len(k0)], v0)
        np.add.at(ends[1], where[len(k0):], v1)
        rows, cols = np.divmod(keys, size)
        root = _components(size, rows, cols)
        edge_root = root[rows]
        pair = np.bincount(root, minlength=size)[edge_root] == 2
        blocks = []
        for r in np.unique(edge_root[~pair]).tolist():
            index, mine = np.flatnonzero(root == r), edge_root == r
            a = np.zeros((2, len(index), len(index)))
            a[:, np.searchsorted(index, rows[mine]),
              np.searchsorted(index, cols[mine])] = ends[:, mine]
            blocks.append((index, a - a.mT))
        out.append(((np.concatenate([rows[pair], cols[pair]]),
                     *ends[:, pair]), blocks))
    return out


def _component_propagator(a: np.ndarray, p: np.ndarray, h: float,
                          room: int) -> np.ndarray:
    """``exp(h A(p_last)) ... exp(h A(p_first))`` of one component, ``A(p)
    = (1 - p) a[0] + p a[1]``: each exponential by Rodrigues' formula on
    three Majoranas, else by one batched ``eigh`` of ``i h A`` per chunk,
    the chunk's stack of propagators no larger than `room` entries."""
    d = a.shape[-1]
    share = max(1, room // (d * d))
    out = np.eye(d)
    for k in range(0, len(p), share):
        t = p[k:k + share, None, None]
        x = h * ((1.0 - t) * a[0] + t * a[1])
        if d == 3:
            # x^3 = -theta^2 x
            theta = np.sqrt(0.5 * np.square(x).sum((1, 2)))[:, None, None]
            e = np.eye(3) + np.sinc(theta / np.pi) * x \
                + 0.5 * np.sinc(theta / (2.0 * np.pi)) ** 2 * (x @ x)
        else:
            w, v = np.linalg.eigh(1j * x)
            e = (v * np.exp(-1j * w)[..., None, :] @ v.conj().mT).real
        out = _compose(e) @ out
    return out


def _covariance_pass(run: InterpolationPath, steps: list[int],
                     couplings: list) -> np.ndarray:
    """The covariance ``Gamma_ab = <i c_a c_b>`` after one pass of CF4
    substeps from the uniform start, whose ``X_j = i c_2j c_2j+1`` all read
    +1.  Each exponential ``exp(-i (dt/2) H(p))`` takes ``Gamma -> R Gamma
    R^T`` with ``R = exp((dt/2) A(p))``, one component at a time; on a
    two-Majorana component the exponentials commute, so a segment's are
    one plane rotation by their summed angle."""
    gamma = np.kron(np.eye(run.n), [[0.0, 1.0], [-1.0, 0.0]])
    params = {m: _cf4_parameters(m) for m in set(steps)}
    for ((ij, a0, a1), blocks), m, duration in zip(
            couplings, steps, run.durations):
        h, p = 0.5 * duration / m, params[m]
        theta = h * (a0 * (len(p) - p.sum()) + a1 * p.sum())
        # (i, j) rows -> (c i + s j, c j - s i)
        c = np.cos(theta)[:, None]
        s = np.array([1.0, -1.0])[:, None, None] * np.sin(theta)[:, None]
        rs = [(index, _component_propagator(a, p, h, _CHUNK_ENTRIES))
              for index, a in blocks]
        # rows, then columns: R Gamma R^T
        for g in gamma, gamma.T:
            x = g[ij].reshape(2, len(c), len(g))
            g[ij] = (c * x + s * x[::-1]).reshape(len(ij), len(g))
            for index, r in rs:
                g[index] = r @ g[index]
    return gamma


def _target_covariance(form: MajoranaForm) -> np.ndarray:
    """The covariance of the lowest state of `form` where ``X^n`` reads
    +1: the polar factor of ``-A``, its softest mode flipped if its
    parity ``Pf = det(O) prod(-sign t)`` is not +1
    (:func:`~stepgap.spectra.normal_modes`).  ValueError if that level is
    degenerate within DEGENERACY_TOL, as :func:`evolution_target` refuses:
    the next level there raises the two softest modes, or, flipped, trades
    the softest for the next.  A lone zero mode is no refusal: the sector
    fixes its sign."""
    const, a = block_form((form,), (1.0,), 1)
    o, modes = normal_modes(a)
    fill = np.where(modes < 0, 1.0, -1.0)
    soft = np.argsort(np.abs(modes))[:2]
    e0, e1 = np.abs(modes[soft])
    flip = np.linalg.slogdet(o)[0] * np.prod(fill) < 0
    if (e1 - e0 if flip else e1 + e0) < DEGENERACY_TOL:
        low = const - 0.5 * np.abs(modes).sum() + flip * e0
        raise ValueError(f"degenerate target: the lowest final level "
                         f"{low} ties in the start's block")
    if flip:
        fill[soft[0]] *= -1.0
    half = (o[:, 0::2] * fill) @ o[:, 1::2].T
    return half - half.T


def _covariance_run(path: InterpolationPath, couplings: list,
                    target: np.ndarray, tau: float, accuracy: float = 1e-6,
                    track_parity: bool = False) -> EvolutionResult:
    """:func:`evolve`'s ladder on the covariance from the uniform start,
    against the target covariance.  The fidelity of two pure Gaussian
    states of one parity is ``sqrt|det((Gamma + Gamma_target) / 2)|``; the
    norm drift is ``max|Gamma Gamma^T - 1|``; the parity is the start's +1
    throughout."""
    _check_accuracy(accuracy)
    run = path.rescaled(tau)
    previous = None
    for refinement, steps in _ladder(run, accuracy):
        gamma = _covariance_pass(run, steps, couplings)
        metric = float(np.exp(0.5 * np.linalg.slogdet(
            0.5 * (gamma + target))[1]))
        if previous is not None and abs(metric - previous) < accuracy:
            drift = np.abs(gamma @ gamma.T - np.eye(len(gamma))).max()
            return EvolutionResult(None, metric, float(drift), sum(steps),
                                   tau, refinement,
                                   (1.0, 1.0) if track_parity else None)
        previous = metric


def _adiabatic(path: InterpolationPath):
    """``run(tau, accuracy, track_parity)`` of :func:`adiabatic_run` on
    `path`, its target solved once for every runtime."""
    forms = Segment(*path.operators).forms
    if forms is None:
        psi0 = uniform_superposition(path.n)
        return functools.partial(evolve, path, psi0,
                                 target=evolution_target(path, psi0))
    if 8 * (2 * path.n) ** 2 > 16 << STATE_QUBIT_CAP:
        raise ValueError(f"a {2 * path.n} x {2 * path.n} covariance is "
                         f"refused: larger than a state of "
                         f"{STATE_QUBIT_CAP} qubits")
    # the uniform start reads X^n = +1
    return functools.partial(_covariance_run, path, _couplings(forms),
                             _target_covariance(forms[-1]))


def adiabatic_run(path: InterpolationPath, tau: float,
                  accuracy: float = 1e-6, track_parity: bool = False
                  ) -> EvolutionResult:
    """:func:`evolve` from the uniform superposition over `path` at runtime
    `tau`, against the final operator's ground state in the start's block.

    Where every operator has a :func:`~stepgap.majorana.majorana_form` and
    X^n is the path's one symmetry (:attr:`stepgap.spectra.Segment.forms`:
    the Ising paths), the state stays Gaussian in the start's X^n = +1
    sector, the block :func:`evolution_target` reads, so it runs on its
    2n x 2n covariance instead, with the same
    CF4 substeps and refinement ladder (same `step_count` and
    `refinements`), the target the lowest Gaussian state of the final form
    in that sector.  There `final_state` is None, `parity_range` is
    exactly (1, 1) when tracked, and the run is refused, with ValueError,
    only where the covariance outgrows a state of STATE_QUBIT_CAP qubits.
    Every other path takes :func:`evolution_target` and :func:`evolve`.
    """
    return _adiabatic(path)(tau, accuracy, track_parity=track_parity)


def runtime_for_fidelity(family: str, n: int, f_target: float, tau_grid,
                         accuracy: float = 1e-5) -> ScalingRow:
    """Smallest grid runtime whose final fidelity reaches `f_target`.

    Runs :func:`adiabatic_run` on the path ``make_path(family, n=n)``,
    its target solved once, over `tau_grid` in ascending order and stops at
    the first hit; a row with ``reached=False`` marks an unreachable
    target.  Every runtime is checked as :func:`evolve` checks it before
    the first run.
    """
    taus = [float(t) for t in tau_grid]
    if not all(0 < tau < np.inf for tau in taus):
        raise ValueError(f"tau must be finite and positive, got {taus}")
    if any(b <= a for a, b in zip(taus, taus[1:])):
        raise ValueError("tau_grid must be strictly increasing")
    from .models import make_path
    run = _adiabatic(make_path(family, n=n))
    trace = []
    for tau in taus:
        result = run(tau, accuracy)
        trace.append((tau, result.fidelity))
        if result.fidelity >= f_target:
            return ScalingRow(n, family, f_target, tau, True, tuple(trace))
    return ScalingRow(n, family, f_target, None, False, tuple(trace))
