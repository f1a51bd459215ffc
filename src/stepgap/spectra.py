"""Numerical eigensolution and gap curves along interpolation paths.

Every level is solved block by block through a :class:`Segment` (below);
a wide block with no structured route falls to :func:`lowest_eigenpairs`,
dense LAPACK or a matrix-free Lanczos solver (ARPACK).  Projector sums
(:class:`stepgap.pauli.ProjectorSum`, the EC3 path) are solved exactly:
the span of their vectors is invariant and its complement one
degenerate level per sum, so a Rayleigh-Ritz step on that span plus a few
fixed random directions yields the lowest eigenpairs of every weighted sum
of them without iteration; it is refused, like the dense route, where its
basis would outgrow a dense matrix of
:data:`~stepgap.pauli.DENSE_QUBIT_CAP` qubits.  Start vectors, Lanczos and
projector alike, are fixed, so a solve repeats exactly.

Symmetry is handled by construction, by one mechanism, the
:class:`Segment`: operators (a path segment's two ends, a lone operator,
or all of a path's) tapered once under one map
(:func:`stepgap.pauli.taper`), which splits every weighted sum of them into
blocks, one per joint eigenvalue of their commuting Pauli symmetries.  A
block at most :data:`DENSE_SOLVE_DIM` wide is a constant plus the active
matrix of its key (:meth:`stepgap.pauli.Tapering.factor`): one batched
solve of the keys' weighted active matrices solves them all.  Wider blocks
are solved one by one by the eigensolver above, a projector segment's one
block in its kept Rayleigh-Ritz basis.  A third route takes the wider
blocks of free-fermion segments, those of the Ising paths: where every
operator is quadratic in Majoranas (:mod:`stepgap.majorana`), ``X^n`` is
the one generator, no vectors are asked for and `method` is ``auto``, each
block's levels are exact from the real Schur form of a 2n x 2n matrix
(:func:`_quadratic_levels`), with no 2^n array, so they run at any n.
Vectors are lifted to the full space through the recorded Clifford map.
When ``X^n`` is a symmetry, half the blocks make up the even sector and
half the odd one, so every level carries its sector by construction.  Gap
scans, sector levels, `evolve`, its target and `verify`'s level checks all
solve through it.

The eigensolver's two settings, `method` and `tol`, are named on
:func:`lowest_eigenpairs` alone and pick the solver of each wide block;
the sector, gap and scan functions pass them on as ``**solver``.  Its BLAS
threads follow :func:`solve_threads`.

A gap scan samples a uniform grid and refines its smallest sample, and any
dip between tied samples, by Brent's method (parabolic steps with a
golden-section fallback) to about :data:`REFINE_XTOL` in s.  Each run
starts at a point whose gap is already known, so no gap is computed twice.
The samples in one segment are solved at once, values only
(:meth:`Segment.values`), each refinement evaluation alone: on a stepwise
chain segment one ``eigvalsh`` of the samples' active matrices, at most
two each, 2 x 2 or 4 x 4, for any n, on a projector segment one of their
kept-basis matrices, 4 x 4 on the EC3 path for any n, on an
``ising-linear`` segment above n = 9 one 2n x 2n real Schur form per
sample and block.
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass
from functools import cached_property, reduce
from itertools import groupby, repeat, starmap
from operator import add, itemgetter
from typing import Callable

import numpy as np
import scipy.linalg
import scipy.sparse.linalg as spla

from . import _blas
from .majorana import block_form, majorana_form
from .models import InterpolationPath
from .pauli import (DENSE_QUBIT_CAP, STATE_QUBIT_CAP, OperatorSum,
                    ProjectorSum, Tapering, taper, weighted_sum)

#: Up to this dimension the dense solver is used even when not forced:
#: measured at k=2, dense LAPACK is faster below it and ARPACK above it.
#: Tapered blocks no wider are solved in factored form.
DENSE_SOLVE_DIM = 256

#: Gap samples closer than this to the smallest one count as tied.
DEGENERACY_TOL = 1e-8

#: ARPACK Lanczos basis size (raised to 2k + 1 for large k) and iteration
#: budget.
ARPACK_NCV = 60
ARPACK_MAXITER = 2000

#: Width in s to which :func:`gap_scan` refines a minimum.
REFINE_XTOL = 1e-6


class ConvergenceError(RuntimeError):
    """Iterative eigensolver or propagator failed to converge."""


@dataclass(frozen=True)
class SpectrumResult:
    """Ascending low-lying eigenvalues, optionally with vectors and sectors."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray | None = None
    sector_labels: tuple[str, ...] | None = None

    def __post_init__(self):
        w = np.asarray(self.eigenvalues, dtype=float)
        if np.any(np.diff(w) < -1e-12):
            raise ValueError("eigenvalues must be ascending")
        object.__setattr__(self, "eigenvalues", w)
        if self.sector_labels is not None and self.eigenvectors is not None:
            if len(self.sector_labels) != self.eigenvectors.shape[1]:
                raise ValueError("one sector label per eigenvector required")


@dataclass(frozen=True)
class GapCurve:
    """Sampled gap along a path plus the refined minimum.

    `samples` has rows (global_s, gap, lambda0, lambda1); `evaluations`
    counts the gap evaluations behind them and the minimum, tie probes
    included.
    """

    samples: np.ndarray
    sector: str
    minimum: tuple[float, float]
    evaluations: int

    def __post_init__(self):
        if np.any(self.samples[:, 1] < -1e-10):
            raise ValueError("gaps must be non-negative")


def solve_threads(op, dense: bool):
    """The BLAS threads for a solve of `op` (:mod:`stepgap._blas`): those in
    force outside :func:`~stepgap._blas.limited` for a Pauli sum wider than
    :data:`DENSE_SOLVE_DIM` solved densely, or wider than a dense matrix of
    DENSE_QUBIT_CAP qubits solved by Lanczos steps, else those in force.

    Measured on two cores: a second thread speeds up dense solves from 512
    wide, but Lanczos eigensolves only from about 2^15, and below that its
    idle spin after each call doubles the CPU time for no wall time.
    """
    limit = DENSE_SOLVE_DIM if dense else 1 << DENSE_QUBIT_CAP
    wide = isinstance(op, OperatorSum) and 1 << op.n > limit
    return _blas.unlimited() if wide else contextlib.nullcontext()


def lowest_eigenpairs(op, count: int, want_vectors: bool = True,
                      method: str = "auto", tol: float = 1e-9
                      ) -> SpectrumResult:
    """The `count` smallest eigenvalues of a Hermitian operator.

    `method` is ``dense``, ``lanczos`` or ``auto``; auto solves a
    :class:`~stepgap.pauli.ProjectorSum` exactly (:func:`_projector_basis`)
    and otherwise picks the dense LAPACK route for small dimensions and the
    matrix-free Lanczos solver above.  `tol` is the Lanczos (ARPACK)
    tolerance; the Lanczos route starts from a fixed vector and raises
    :class:`ConvergenceError` when the iteration budget is exhausted.  Both
    routes run at the BLAS threads of :func:`solve_threads`.
    """
    dim = 1 << op.n
    if not 1 <= count <= dim:
        raise ValueError(f"count {count} outside 1..{dim}")
    if method not in ("auto", "dense", "lanczos"):
        raise ValueError(f"unknown method {method!r}")
    if method == "auto" and isinstance(op, ProjectorSum):
        q, (small,) = _projector_basis((op,), count)
        return _projector_eigh(q, small, count, want_vectors)
    if method == "auto":
        small = dim <= DENSE_SOLVE_DIM or count > dim // 3
        method = "dense" if small and op.n <= DENSE_QUBIT_CAP else "lanczos"
    if method == "lanczos" and count >= dim - 1:
        method = "dense"  # ARPACK requires k < dim - 1
    if method == "dense" and op.n > DENSE_QUBIT_CAP:
        raise ValueError(f"dense solve refused above {DENSE_QUBIT_CAP} qubits")

    with solve_threads(op, dense=method == "dense"):
        if method == "dense":
            mat = op.to_dense()
            if want_vectors:
                w, v = scipy.linalg.eigh(mat)
                return SpectrumResult(w[:count], v[:, :count])
            w = scipy.linalg.eigvalsh(mat)
            return SpectrumResult(w[:count])

        dtype = float if op.is_real else complex
        linop = spla.LinearOperator((dim, dim), matvec=op.apply, dtype=dtype)
        v0 = np.random.default_rng(0).standard_normal(dim)
        ncv = min(dim, max(ARPACK_NCV, 2 * count + 1))
        try:
            out = spla.eigsh(linop, k=count, which="SA", ncv=ncv, tol=tol,
                             maxiter=ARPACK_MAXITER, v0=v0,
                             return_eigenvectors=want_vectors)
        except spla.ArpackNoConvergence as exc:
            raise ConvergenceError(
                f"Lanczos solver did not converge within {ARPACK_MAXITER} "
                f"iterations (dim {dim}, k {count})") from exc
    if want_vectors:
        w, v = out
        order = np.argsort(w)
        return SpectrumResult(w[order], v[:, order])
    return SpectrumResult(np.sort(out))


def _projector_basis(ops, count: int) -> tuple[np.ndarray, np.ndarray]:
    """``(Q, S)``: a Rayleigh-Ritz basis exact for every weighted sum of the
    projector sums `ops`, with ``S[k] = Q^T ops[k] Q``.

    Each ``shift_k - sum_j w_kj |psi_kj><psi_kj|`` leaves span{psi} (all
    vectors of all `ops`) invariant and is `shift_k` on its complement, so
    ``Q = qr([psi ..., R])``, with `count` fixed random columns R, spans an
    invariant subspace holding at least `count` complement directions: the
    lowest `count` eigenpairs of any ``sum_k c_k ops[k]`` are those of
    ``sum_k c_k S[k]``, to rounding, for every weight vector.  Repeated or
    linearly dependent psi are fine: the QR factor Q stays orthonormal.  A
    basis larger than a dense matrix of DENSE_QUBIT_CAP qubits is refused
    before it is allocated.
    """
    dim = 1 << ops[0].n
    rank = sum(len(op.vectors) for op in ops)
    columns = min(dim, rank + count)
    if dim * columns > 4 ** DENSE_QUBIT_CAP:
        raise ValueError(
            f"exact projector solve refused: a {dim} x {columns} basis "
            f"exceeds a dense matrix of {DENSE_QUBIT_CAP} qubits")
    extra = max(0, columns - rank)
    rng = np.random.default_rng(0)
    q, _ = np.linalg.qr(np.hstack([op.vectors.T for op in ops]
                                  + [rng.standard_normal((dim, extra))]))
    eye = np.eye(q.shape[1])
    projections = [(op, op.vectors @ q) for op in ops]
    return q, np.stack([op.shift * eye - (p.T * op.weights) @ p
                        for op, p in projections])


def _projector_eigh(q: np.ndarray, small: np.ndarray, count: int,
                    want_vectors: bool) -> SpectrumResult:
    """The `count` lowest eigenpairs of a projector sum from its
    :func:`_projector_basis` Q and ``small = Q^T H Q``: one ``eigh`` of
    `small`, vectors ``Q u``."""
    if not want_vectors:
        return SpectrumResult(np.linalg.eigvalsh(small)[:count])
    w, u = np.linalg.eigh(small)
    return SpectrumResult(w[:count], q @ u[:, :count])


def normal_modes(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(o, t)`` of a real antisymmetric 2n x 2n `a`: o real orthogonal
    and ``a = sum_k t_k (o_2k o_2k+1^T - o_2k+1 o_2k^T)``, the real Schur
    form ``a = O T O^T`` with its 2 x 2 blocks ``[[0, t], [-t, 0]]`` first
    and its 1 x 1 blocks, zero, paired in order into modes ``t_k = 0``.
    The modes ``c' = O^T c`` of ``(i/4) c^T a c`` (:func:`stepgap.majorana.
    block_form`) each add ``(t_k/2) i c'_2k c'_2k+1``, of energy ``+-t_k/2``.
    Raises :class:`ConvergenceError` when the form misses `a` by more than
    1e-10 of its norm."""
    t, o = scipy.linalg.schur(a, output="real")
    starts = np.flatnonzero(np.diagonal(t, -1))
    single = np.ones(len(a), bool)
    single[starts], single[starts + 1] = False, False
    o = o[:, np.argsort(single, kind="stable")]
    modes = np.zeros(len(a) // 2)
    modes[:len(starts)] = 0.5 * (t[starts, starts + 1]
                                 - t[starts + 1, starts])
    rebuilt = (o[:, 0::2] * modes) @ o[:, 1::2].T
    miss = np.linalg.norm(a - rebuilt + rebuilt.T)
    if miss > 1e-10 * np.linalg.norm(a):
        raise ConvergenceError(f"real Schur form misses the Majorana matrix "
                               f"by {miss:.3g} (2n = {len(a)})")
    return o, modes


def _quadratic_levels(const: float, a: np.ndarray, sign: int, count: int
                      ) -> np.ndarray:
    """The `count` lowest levels where ``X^n`` reads `sign` of ``const +
    (i/4) c^T a c`` (:func:`stepgap.majorana.block_form`).

    Of the :func:`normal_modes` of a, the vacuum has energy ``const - sum
    |t| / 2`` and parity ``X^n = det(O) prod(-sign t)``; each mode raised
    adds ``|t|`` and flips it.  The lowest `count` levels of each parity
    come from the lowest count + 1 modes, merged one mode at a time.
    Raises ValueError for more levels than a state of STATE_QUBIT_CAP
    qubits holds.
    """
    if count > 1 << STATE_QUBIT_CAP:
        raise ValueError(f"{count} levels refused: more than a state of "
                         f"{STATE_QUBIT_CAP} qubits holds")
    o, modes = normal_modes(a)
    vacuum = int(np.linalg.slogdet(o)[0] * np.prod(np.where(modes < 0,
                                                             1, -1)))
    levels = {vacuum: np.array([const - 0.5 * np.abs(modes).sum()]),
              -vacuum: np.zeros(0)}
    for e in np.sort(np.abs(modes))[:count + 1]:
        levels = {p: np.sort(np.concatenate([levels[p], levels[-p] + e])
                             )[:count] for p in (1, -1)}
    return levels[sign]


def _check_sector(ops, sector: str) -> None:
    """ValueError for an unknown sector, and for an even or odd one of
    projector sums or of sums with a term that anticommutes with ``X^n``,
    which is one with an odd number of Z and Y factors."""
    if sector not in ("all", "even", "odd"):
        raise ValueError(f"unknown sector {sector!r}")
    if sector == "all":
        return
    if not all(isinstance(op, OperatorSum) for op in ops):
        raise ValueError(f"no {sector} sector for a projector sum, whose "
                         f"levels are not parity eigenstates; use 'all'")
    if any(t.z.bit_count() & 1 for op in ops for t in op.terms):
        raise ValueError(f"no {sector} sector: the operator does not "
                         f"commute with the bit flip")


class Segment:
    """Operators tapered once under one map, solved block by block.

    A narrow block is a constant plus the active matrix of its key
    (:meth:`stepgap.pauli.Tapering.factor`), a wide one a sum on the
    untapered qubits, or, where ``X^n`` is the one generator and every
    operator has a :func:`~stepgap.majorana.majorana_form`, a parity
    sector of their Majorana forms.  Projector sums have no Pauli
    symmetries: their `tapering` has no generators, one full-space block
    with the identity fold and unfold.  Each operator's factors over a set
    of blocks and its block sums are built on first use and kept; so is,
    per `count`, the :func:`_projector_basis` of a segment's one or two
    projector sums, and, once asked for, the Majorana forms.
    """

    def __init__(self, *ops):
        self.operators = ops
        self._pauli = all(isinstance(op, OperatorSum) for op in ops)
        self.tapering = taper(*ops) if self._pauli \
            else Tapering((), (), ops, ())
        self._factors, self._blocks, self._bases = {}, {}, {}

    @cached_property
    def forms(self) -> tuple | None:
        """Each operator's :func:`~stepgap.majorana.majorana_form`, where
        every one has one and ``X^n`` is the one generator, so that each
        block is a parity sector; else None."""
        if len(self.tapering.generators) != 1 \
                or self.tapering.parity(0) is None:
            return None
        forms = tuple(map(majorana_form, self.operators))
        return None if any(f is None for f in forms) else forms

    def sector(self, name: str) -> range:
        """The blocks of sector `name`; refusals as :func:`_check_sector`."""
        _check_sector(self.operators, name)
        return self.tapering.sector(name)

    def narrow(self, limit: int) -> bool:
        """Whether blocks at most `limit` wide come in factored form."""
        return self._pauli and self.tapering.block_dim <= limit

    def factor(self, k: int, blocks) -> tuple:
        """``(index, consts, actives)`` of operator k on `blocks`
        (:meth:`stepgap.pauli.Tapering.factor`, with its refusals)."""
        # a range keys itself: its blocks are never listed
        key = k, blocks if isinstance(blocks, range) \
            else np.asarray(blocks, np.intp).tobytes()
        if key not in self._factors:
            self._factors[key] = self.tapering.factor(k, blocks)
        return self._factors[key]

    def block(self, weights, b: int):
        """Block b of ``sum_k weights[k] * operators[k]`` as an operator
        (:func:`stepgap.pauli.weighted_sum`)."""
        if b not in self._blocks:
            self._blocks[b] = [self.tapering.block(k, b) for k in range(
                len(self.operators))] if self._pauli else self.operators
        return weighted_sum(self._blocks[b], weights)

    def _route(self, blocks, count: int, want_vectors: bool, solver) -> str:
        """How :meth:`levels` and :meth:`values` solve `count` levels over
        `blocks`: ``projector``, its basis for `count` then built, or
        ``majorana``, ``narrow`` or ``wide``, as :meth:`levels` says; a
        count outside the blocks raises ValueError."""
        dim = self.tapering.block_dim
        if not 1 <= count <= len(blocks) * dim:
            raise ValueError(f"count {count} outside 1..{len(blocks) * dim}")
        auto = solver.get("method", "auto") == "auto"
        # a path's many operators would each widen the basis and its refusal
        if not self._pauli and len(self.operators) <= 2 and auto:
            if count not in self._bases:
                self._bases[count] = _projector_basis(self.operators, count)
            return "projector"
        if not want_vectors and auto and dim > DENSE_SOLVE_DIM \
                and self.forms:
            return "majorana"
        return "narrow" if self.narrow(DENSE_SOLVE_DIM) else "wide"

    def _solve(self, route: str, weights: np.ndarray, blocks, count: int,
               want_vectors: bool, solver):
        """Yield ``(w, v, index)`` for each row of the S x K `weights` on a
        Pauli route: row i of `w` the levels of block ``blocks[i]``,
        ``v[index[i]]`` its vectors, None without.  Narrow blocks take one
        ``eigvalsh`` of the S x keys stack of weighted active matrices, or
        with vectors one ``eigh`` per row."""
        if route == "narrow":
            parts = [(w, *self.factor(k, blocks))
                     for k, w in enumerate(weights.T) if w.any()]
            index = parts[0][1]
            active = reduce(add, (w[:, None, None, None] * a
                                  for w, _, _, a in parts))
            solved = map(np.linalg.eigh, active) if want_vectors \
                else zip(np.linalg.eigvalsh(active), repeat(None))
            for i, (keyed, vectors) in enumerate(solved):
                yield keyed[index] + reduce(add, (
                    x[i] * c for x, _, c, _ in parts if x[i]))[:, None], \
                    vectors, index
            return
        dim, index = self.tapering.block_dim, np.arange(len(blocks))
        for row in weights.tolist():
            if route == "majorana":
                yield np.stack([_quadratic_levels(
                    *block_form(self.forms, row, sign), sign,
                    min(count, dim)) for sign in self.tapering.parity(
                        np.asarray(blocks))]), None, index
                continue
            res = [lowest_eigenpairs(self.block(row, b), min(count, dim),
                                     want_vectors=want_vectors, **solver)
                   for b in blocks]
            yield np.stack([x.eigenvalues for x in res]), np.stack(
                [x.eigenvectors for x in res]) if want_vectors else None, index

    def levels(self, weights, blocks, count: int, want_vectors: bool = True,
               **solver) -> SpectrumResult:
        """The `count` lowest levels of ``sum_k weights[k] * operators[k]``
        over `blocks`, vectors lifted to the full space.

        Narrow blocks take one batched dense solve of the weighted active
        matrices, a block's levels its key's plus its weighted constant.
        Wider ones of a free-fermion segment (:attr:`forms`), without
        vectors and with `method` auto, take one :func:`_quadratic_levels`
        of their parity's weighted Majorana matrix each; other wider ones
        one :func:`lowest_eigenpairs` each, with `solver`.  One
        or two projector sums are one small solve of the weighted kept
        basis matrices; more, or an explicit dense or lanczos `method`,
        that of their one block.  Levels merge by value, the lower block
        first on ties, with their parity where ``X^n`` is a generator.
        """
        route = self._route(blocks, count, want_vectors, solver)
        if route == "projector":
            q, small = self._bases[count]
            weighted = sum(w * x for w, x in zip(weights, small))
            return _projector_eigh(q, weighted, count, want_vectors)
        (w, v, index), = self._solve(route, np.asarray(weights, float)[None],
                                     blocks, count, want_vectors, solver)
        # the stable argsort's first `count`, from the lowest levels alone
        flat = w.ravel()
        low = np.flatnonzero(flat <= np.partition(flat, count - 1)[count - 1])
        order = low[np.argsort(flat[low], kind="stable")[:count]]
        which, level = np.divmod(order, w.shape[1])
        held = np.array([blocks[i] for i in which.tolist()], dtype=np.intp)
        vectors = None if v is None else self.tapering.lift(
            v[index[which], :, level].T, held)
        signs = self.tapering.parity(held)
        labels = None if signs is None else tuple(
            "even" if x == 1 else "odd" for x in signs.tolist())
        return SpectrumResult(flat[order], vectors, labels)

    def values(self, weights, blocks, count: int, **solver) -> np.ndarray:
        """The S x count array of the levels :meth:`levels` gives for each
        row of the S x K `weights`, ascending, on its route but without its
        vectors, labels or merge; a projector segment's S kept-basis
        matrices take one ``eigvalsh``, like narrow blocks' active ones."""
        weights = np.asarray(weights, dtype=float)
        route = self._route(blocks, count, False, solver)
        if route == "projector":
            return np.linalg.eigvalsh(sum(w[:, None, None] * x for w, x in zip(
                weights.T, self._bases[count][1])))[:, :count]
        # one row's levels at a time: each is dropped before the next
        return np.fromiter(starmap(
            lambda w, *_: np.sort(np.partition(w.ravel(), count - 1)[:count]),
            self._solve(route, weights, blocks, count, False, solver)),
            np.dtype((float, count)), len(weights))


def sector_levels(op, sector: str, count: int = 2, want_vectors: bool = True,
                  **solver) -> SpectrumResult:
    """The `count` lowest levels of a parity sector: the :meth:`Segment.levels`
    of ``Segment(op)`` over the sector's blocks, with `solver`.  A count
    outside the sector, and the refusals of :func:`_check_sector`, raise
    ValueError before any solve.
    """
    segment = Segment(op)
    return segment.levels((1.0,), segment.sector(sector), count, want_vectors,
                          **solver)


def sector_ground_state(op, sector: str = "even", **solver) -> np.ndarray:
    """Ground-state vector within a parity sector."""
    res = sector_levels(op, sector, count=1, **solver)
    return res.eigenvectors[:, 0]


def sector_gap(op, sector: str = "all", **solver
               ) -> tuple[float, float, float]:
    """(gap, lambda0, lambda1) between the two lowest levels of a sector."""
    res = sector_levels(op, sector, count=2, want_vectors=False, **solver)
    lam0, lam1 = float(res.eigenvalues[0]), float(res.eigenvalues[1])
    return lam1 - lam0, lam0, lam1


def _brent_minimize(f: Callable[[float], float], a: float, b: float,
                    xtol: float = REFINE_XTOL,
                    start: tuple[float, float] | None = None
                    ) -> tuple[float, float]:
    """(x, f(x)) of the best point Brent's method evaluates on [a, b].

    Parabolic steps through the three best points, with a golden-section
    step wherever a parabola would leave the bracket or fail to shrink it
    (Brent 1973, ch. 5).  Stops once the bracket is about `xtol` wide
    (``tol = 1.5e-8 |x| + xtol / 3``).  `start` is an interior point whose
    value is known and not above f(a) or f(b); without it the first point
    is the golden section of [a, b].
    """
    golden = 0.5 * (3.0 - np.sqrt(5.0))
    if start is None:
        x = a + golden * (b - a)
        fx = f(x)
    else:
        x, fx = start
    w = v = x
    fw = fv = fx
    d = e = 0.0
    while True:
        xm = 0.5 * (a + b)
        tol1 = 1.5e-8 * abs(x) + xtol / 3.0
        tol2 = 2.0 * tol1
        if abs(x - xm) <= tol2 - 0.5 * (b - a):
            return x, fx
        parabolic = False
        if abs(e) > tol1:
            r = (x - w) * (fx - fv)
            q = (x - v) * (fx - fw)
            p = (x - v) * q - (x - w) * r
            q = 2.0 * (q - r)
            if q > 0.0:
                p = -p
            q = abs(q)
            e_prev, e = e, d
            if (abs(p) < abs(0.5 * q * e_prev)
                    and q * (a - x) < p < q * (b - x)):
                d = p / q
                u = x + d
                if u - a < tol2 or b - u < tol2:
                    d = np.copysign(tol1, xm - x)
                parabolic = True
        if not parabolic:
            e = (a if x >= xm else b) - x
            d = golden * e
        u = x + (d if abs(d) >= tol1 else np.copysign(tol1, d))
        fu = f(u)
        if fu <= fx:
            if u >= x:
                a = x
            else:
                b = x
            v, fv, w, fw, x, fx = w, fw, x, fx, u, fu
        else:
            if u < x:
                a = u
            else:
                b = u
            if fu <= fw or w == x:
                v, fv, w, fw = w, fw, u, fu
            elif fu <= fv or v == x or v == w:
                v, fv = u, fu


def _refined_minimum(f: Callable[[float], float], grid: np.ndarray,
                     values: np.ndarray) -> tuple[float, float]:
    """(s, f(s)) of the smallest sample, Brent-refined to about REFINE_XTOL
    in s on its bracketing interval and on each interval whose ends tie it
    within DEGENERACY_TOL but whose midpoint lies below (a dip between tied
    segment boundaries).  Of samples tied within DEGENERACY_TOL, the
    bracketed one is the rightmost interior one, so the runs do not rest
    on rounding; where a neighbour ties it too, it is not refined: it lies
    on a plateau, whose dips the midpoint probes look for, and Brent's
    steps along a plateau would follow the rounding of its values.  Each run starts at a point of known value: that sample, or
    the midpoint probe of the tie test, so no value is computed twice.  The
    value reported is the lowest found; s is the smallest among the runs'
    results and the samples whose values lie within DEGENERACY_TOL of it,
    so of tied dips and tied samples the leftmost is reported."""
    low = values.min()
    tie, mid = low + DEGENERACY_TOL, 0.5 * (grid[1:] + grid[:-1])
    inner = np.flatnonzero(values[1:-1] <= tie)
    runs = [(k, k + 2, grid[k + 1], values[k + 1]) for k in inner[-1:]
            if min(values[k], values[k + 2]) > tie]
    for j in range(len(grid) - 1):
        if max(values[j], values[j + 1]) <= tie:
            probe = f(mid[j])
            if probe < low - DEGENERACY_TOL:
                runs.append((j, j + 1, mid[j], probe))
    found = [_brent_minimize(f, grid[lo], grid[hi], start=(s, v))
             for lo, hi, s, v in runs] + list(zip(grid, values))
    v_min = min(v for _, v in found)
    s_min = min(s for s, v in found if v <= v_min + DEGENERACY_TOL)
    return float(s_min), float(v_min)


def gap_scan(path: InterpolationPath, points: int = 200,
             sector: str = "all", **solver) -> GapCurve:
    """Gap between the two lowest (sector-resolved) levels along a path.

    Samples `points` uniformly spaced global-s values, then refines the
    smallest sample to about REFINE_XTOL in s by Brent's method, started at
    that sample, as :func:`_refined_minimum` does.  An even or odd sector
    is refused before any solve, and before any tapering, unless ``X^n``
    commutes with every term of every operator of the path.  Each path
    segment becomes a :class:`Segment` when a sample first falls in it,
    and only the current one is kept; its samples are one
    :meth:`Segment.values` call, with `solver`, and each refinement
    evaluation one more.
    """
    if points < 2:
        raise ValueError("need at least two sample points")
    _check_sector(path.operators, sector)
    grid = np.linspace(0.0, 1.0, points)
    evaluations = points
    current, segment, blocks = None, None, None  # the segment last solved

    def levels(k: int, s) -> np.ndarray:
        """The two lowest levels of segment k at each local s."""
        nonlocal current, segment, blocks
        if k != current:
            current, segment = k, Segment(*path.segment(k))
            blocks = segment.sector(sector)
        return segment.values(np.column_stack([1.0 - s, s]), blocks, 2,
                              **solver)

    def eval_gap(s_global: float) -> float:
        nonlocal evaluations
        evaluations += 1
        (lam0, lam1), = levels(*path.locate(float(s_global) * path.tau)
                               ).tolist()
        return lam1 - lam0

    located = [path.locate(float(s) * path.tau) for s in grid]
    rows = np.concatenate([levels(k, np.array([s for _, s in group]))
                           for k, group in groupby(located, itemgetter(0))])
    samples = np.column_stack([grid, rows[:, 1] - rows[:, 0], rows])
    minimum = _refined_minimum(eval_gap, grid, samples[:, 1])
    return GapCurve(samples, sector, minimum, evaluations)


def segment_minimum(path: InterpolationPath, k: int, sector: str = "all",
                    points: int = 41, **solver) -> tuple[float, float]:
    """Refined (s_local, gap) minimum of one path segment.

    The :func:`gap_scan` minimum of segment k alone, as a path of unit
    duration, so its progress is `s_local`.
    """
    if not 0 <= k < path.segment_count:
        raise ValueError(f"segment {k} outside 0..{path.segment_count - 1}")
    segment = InterpolationPath(path.segment(k), (1.0,), path.family)
    return gap_scan(segment, points, sector, **solver).minimum
