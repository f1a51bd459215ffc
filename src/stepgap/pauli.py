"""Pauli-string operators and their matrix-free action on state vectors.

Conventions used throughout the package:

* Qubits are labelled 1..n.  Qubit 1 corresponds to the most significant
  bit of a computational-basis index, i.e. basis state ``|z_1 z_2 ... z_n>``
  has index ``z = z_1*2^(n-1) + ... + z_n``.
* State vectors are plain complex or real numpy arrays of length ``2**n``.
* A Pauli string is its symplectic row (Aaronson & Gottesman, PRA 70,
  052328, 2004): two ints ``x`` and ``z`` with bit ``n - q`` set where
  qubit q carries X or Y, respectively Z or Y, so Y is ``x & z`` and the
  string acts as ``i^y X^x Z^z`` with y = popcount(x & z).  It is built
  from a label (:meth:`PauliString.from_label`, ``"XZIY"``) or a sparse map
  of symbols (:meth:`PauliString.from_ops`); ``factors`` spells it out.
* Operators are real-weighted sums of Pauli strings (:class:`OperatorSum`).
  Each one is compiled once, on first use, into flip-mask groups: every
  Pauli string moves basis state ``i`` to ``i ^ flip``, so the terms that
  share a flip mask fold into one amplitude vector ``d`` (coefficient, Y
  phase and Z signs included) and ``(H psi)[i] = sum_f d_f[i] psi[i ^ f]``.
  The matrix-free action, the dense matrix and :func:`weighted_sum` all
  read this compiled form.
* :func:`taper` is the one symmetry reduction: it finds a maximal
  commuting set of Pauli strings that commute with every term of one or
  more sums and maps them by a Clifford to single-qubit Z's.  Each mapped
  sum is block diagonal, one block per joint eigenvalue of the symmetries,
  and the blocks' spectra together are the full spectrum.  Sums tapered
  together share the map, so every weighted sum of them is block diagonal
  too.  A block comes as a sum on the untapered qubits
  (:meth:`Tapering.block`) or as a constant plus the active matrix of its
  key, which blocks with the same key share (:meth:`Tapering.factor`).
  The map is kept as the steps that built it, which carry states to the
  blocks and back gate by gate on a ``(2,)*n`` view, with no index array
  (:meth:`Tapering.fold`, :meth:`Tapering.unfold`, :meth:`Tapering.lift`),
  and carry strings as :meth:`Tapering.conjugated`.
  When the bit-flip string ``X^n`` is a symmetry, its blocks make up the
  even and odd parity sectors.
* :func:`boundary_map` composes two taperings' maps into 2^h gathers with
  phases, on a stabilizer tableau (:class:`_Tableau`) whose gate rules
  :func:`taper` and :func:`conjugate` apply too.
* The EC3 projector Hamiltonians are :class:`ProjectorSum` operators,
  ``shift * 1`` minus a weighted sum of rank-one projectors, held as their
  vectors and weights.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, reduce
from itertools import accumulate
from operator import add, or_
from typing import Iterable, Literal, Mapping

import numpy as np

#: Largest qubit count for which dense materialization is permitted.
DENSE_QUBIT_CAP = 14

#: Largest qubit count for which a state vector, a compiled Pauli sum or an
#: EC3 enumeration is built: 2^24 amplitudes, 256 MB complex.
STATE_QUBIT_CAP = 24

#: Coefficients below this magnitude are dropped during canonicalization.
COEFF_CUTOFF = 1e-15

#: Phase ``i**y`` of a Pauli string with y factors Y, indexed by ``y % 4``.
_Y_PHASES = (1.0, 1j, -1.0, -1j)


@dataclass(frozen=True, slots=True)
class PauliString:
    """A signed tensor product of single-qubit Pauli factors.

    Attributes
    ----------
    n : int
        Number of qubits.
    x, z : int
        Symplectic row: bit ``n - q`` of `x` is set where qubit q carries X
        or Y, of `z` where it carries Z or Y.
    coefficient : float
        Real weight.  Real coefficients keep every operator Hermitian.
    """

    n: int
    x: int
    z: int
    coefficient: float = 1.0

    def __post_init__(self):
        if self.n < 1:
            raise ValueError(f"need at least one qubit, got n={self.n}")
        xz = self.x | self.z  # negative when x or z is
        if xz < 0 or xz.bit_length() > self.n:
            raise ValueError(f"(x, z) = ({self.x}, {self.z}) outside "
                             f"[0, 2^{self.n})")
        object.__setattr__(self, "coefficient", float(self.coefficient))

    @classmethod
    def from_label(cls, label: str, coefficient: float = 1.0
                   ) -> "PauliString":
        """Build from one symbol of ``"IXYZ"`` per qubit, qubit 1 first."""
        if not label:
            raise ValueError("need at least one qubit, got an empty label")
        bad = set(label) - set("IXYZ")
        if bad:
            raise ValueError(f"invalid Pauli symbols {sorted(bad)!r}")
        x, z = (int(label.translate(str.maketrans("IXYZ", bits)), 2)
                for bits in ("0110", "0011"))
        return cls(len(label), x, z, coefficient)

    @classmethod
    def from_ops(cls, n: int, ops: Mapping[int, str] | None = None,
                 coefficient: float = 1.0) -> "PauliString":
        """Build from a sparse map ``{qubit (1-based): symbol}``."""
        x = z = 0
        for qubit, sym in (ops or {}).items():
            if not 1 <= qubit <= n:
                raise ValueError(f"qubit {qubit} outside [1, {n}]")
            if sym not in ("I", "X", "Y", "Z"):
                raise ValueError(f"invalid Pauli symbol {sym!r}")
            bit = 1 << (n - qubit)
            if sym in "XY":
                x |= bit
            if sym in "YZ":
                z |= bit
        return cls(n, x, z, coefficient)

    @classmethod
    def identity(cls, n: int, coefficient: float = 1.0) -> "PauliString":
        return cls(n, 0, 0, coefficient)

    @property
    def y_count(self) -> int:
        return (self.x & self.z).bit_count()

    @property
    def factors(self) -> tuple[str, ...]:
        """One symbol from ``"IXYZ"`` per qubit; ``factors[q-1]`` acts on
        qubit q."""
        return tuple("IXZY"[(self.x >> b & 1) + 2 * (self.z >> b & 1)]
                     for b in range(self.n - 1, -1, -1))

    def __mul__(self, scalar: float) -> "PauliString":
        return PauliString(self.n, self.x, self.z, self.coefficient * scalar)

    __rmul__ = __mul__

    def __neg__(self) -> "PauliString":
        return self * -1.0

    def __str__(self) -> str:
        return f"{self.coefficient:+g}*{''.join(self.factors)}"


def check_state_qubits(n: int) -> None:
    """Refuse, before anything is allocated, a register above
    :data:`STATE_QUBIT_CAP` qubits."""
    if n > STATE_QUBIT_CAP:
        raise ValueError(f"registers capped at {STATE_QUBIT_CAP} qubits, "
                         f"got {n}")


def _compile(n: int, terms: tuple[PauliString, ...]) -> tuple:
    """Flip-mask groups ``(flip, gather, amps)`` of a Pauli sum, by flip.

    ``(H psi)[i] = sum over groups of amps[i] * psi[gather[i]]`` with
    ``gather = i ^ flip``; the diagonal group (flip 0) has ``gather=None``.
    A group of one string without Z or Y factors has a constant amplitude,
    kept as one number.  Amplitudes of strings with an odd Y count are
    complex.  Refuses n above :data:`STATE_QUBIT_CAP`.
    """
    check_state_qubits(n)
    idx = np.arange(1 << n)
    amps: dict[int, np.ndarray | float | complex] = {}
    for term in terms:
        flip, zmask = term.x, term.z
        # P|j> = c i^y (-1)^popcount(j & zmask) |j ^ flip>, taken at j = i^flip
        weight = term.coefficient * _Y_PHASES[term.y_count % 4]
        if (flip & zmask).bit_count() % 2:
            weight = -weight
        if zmask:
            weight = np.where(np.bitwise_count(idx & zmask) & 1,
                              -weight, weight)
        amps[flip] = amps.get(flip, 0.0) + weight
    return tuple((flip, idx ^ flip if flip else None, amp)
                 for flip, amp in sorted(amps.items()))


class OperatorSum:
    """A Hermitian operator given as a real-weighted sum of Pauli strings.

    Terms are canonicalized on construction: duplicate symplectic rows are
    merged, coefficients below :data:`COEFF_CUTOFF` dropped, and the terms
    sorted by ``(x, z)``, so equal operators compare equal.  The flip-mask
    groups that :meth:`apply` and :meth:`to_dense` read are compiled on
    first use and kept.  A :func:`blend` of two sums is built from their
    groups and canonicalizes its terms only when they are read.  Instances
    are immutable.  The package starts no threads of its own, and sets
    only OpenBLAS's count (:mod:`stepgap._blas`); if a caller's threads
    race on the first use of an operator, each compiles an equal tuple and
    publishes it with a single attribute store.
    """

    __slots__ = ("n", "_terms", "_groups", "_real", "_terms_of")

    def __init__(self, n: int, terms: Iterable[PauliString] = ()):
        merged: dict[tuple[int, int], PauliString] = {}
        for term in terms:
            if term.n != n:
                raise ValueError(
                    f"term on {term.n} qubits in an {n}-qubit sum")
            key = term.x, term.z
            if key in merged:  # strings are immutable: a lone one is kept
                term = PauliString(n, *key, merged[key].coefficient
                                   + term.coefficient)
            merged[key] = term
        canon = tuple(merged[key] for key in sorted(merged)
                      if abs(merged[key].coefficient) > COEFF_CUTOFF)
        self._init(n, canon, None, None, None)

    def _init(self, n, terms, groups, terms_of, real) -> None:
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "_terms", terms)
        object.__setattr__(self, "_terms_of", terms_of)
        object.__setattr__(self, "_real", real)
        object.__setattr__(self, "_groups", groups)

    def __setattr__(self, *_):
        raise AttributeError("OperatorSum is immutable")

    @property
    def terms(self) -> tuple[PauliString, ...]:
        """Canonical terms; for a blend, built when read."""
        if self._terms is None:
            object.__setattr__(self, "_terms", self._terms_of())
        return self._terms

    def _compiled(self) -> tuple:
        """The flip-mask groups of :func:`_compile`, built once."""
        if self._groups is None:
            groups = _compile(self.n, self.terms)
            # the flag first: whoever finds the groups finds the flag
            object.__setattr__(self, "_real", not any(
                np.iscomplexobj(amp) for _, _, amp in groups))
            object.__setattr__(self, "_groups", groups)
        return self._groups

    def __eq__(self, other) -> bool:
        return (isinstance(other, OperatorSum) and self.n == other.n
                and self.terms == other.terms)

    def __hash__(self) -> int:
        return hash((self.n, self.terms))

    def __len__(self) -> int:
        return len(self.terms)

    def __add__(self, other) -> "OperatorSum":
        if isinstance(other, PauliString):
            other = OperatorSum(other.n, [other])
        if self.n != other.n:
            raise ValueError("qubit counts differ")
        return OperatorSum(self.n, self.terms + other.terms)

    def __sub__(self, other) -> "OperatorSum":
        return self + (-1.0) * other

    def __mul__(self, scalar: float) -> "OperatorSum":
        return OperatorSum(self.n, [t * scalar for t in self.terms])

    __rmul__ = __mul__

    def __neg__(self) -> "OperatorSum":
        return self * -1.0

    def __str__(self) -> str:
        return " ".join(str(t) for t in self.terms) or "0"

    @property
    def is_real(self) -> bool:
        """True when the dense matrix is real (every term has even Y count)."""
        self._compiled()
        return self._real

    def apply(self, psi: np.ndarray) -> np.ndarray:
        """Matrix-free, unnormalized ``H @ psi``: a gather-multiply-add per
        flip group."""
        if psi.shape != (1 << self.n,):
            raise ValueError(
                f"state has shape {psi.shape}, expected ({1 << self.n},)")
        groups = self._compiled()
        complex_out = np.iscomplexobj(psi) or not self._real
        out = np.zeros(1 << self.n, dtype=complex if complex_out else float)
        for _, gather, amp in groups:
            out += amp * (psi if gather is None else psi[gather])
        return out

    def to_dense(self, cap: int = DENSE_QUBIT_CAP) -> np.ndarray:
        """Dense matrix ``M[i, i ^ f] = d_f[i]``; refuses n above `cap`."""
        if self.n > cap:
            raise ValueError(
                f"dense materialization capped at {cap} qubits, got {self.n}")
        dim = 1 << self.n
        mat = np.zeros((dim, dim), dtype=float if self.is_real else complex)
        rows = np.arange(dim)
        for _, gather, amp in self._compiled():
            mat[rows, rows if gather is None else gather] = amp
        return mat


@dataclass(frozen=True)
class GateSpec:
    """A Hermitian two-qubit controlled gate used as a similarity transform."""

    kind: Literal["CNOT", "CZ"]
    control: int
    target: int

    def __post_init__(self):
        if self.kind not in ("CNOT", "CZ"):
            raise ValueError(f"unknown gate kind {self.kind!r}")
        if self.control == self.target:
            raise ValueError("control and target must differ")
        if self.control < 1 or self.target < 1:
            raise ValueError("qubit indices are 1-based")

    def to_matrix(self, n: int) -> np.ndarray:
        """Dense matrix of the gate embedded in an n-qubit register."""
        half = 0.5
        iden = PauliString.identity(n, half)
        zc = PauliString.from_ops(n, {self.control: "Z"}, half)
        sym = "X" if self.kind == "CNOT" else "Z"
        xt = PauliString.from_ops(n, {self.target: sym}, half)
        zx = PauliString.from_ops(n, {self.control: "Z", self.target: sym},
                                  -half)
        gate = OperatorSum(n, [iden, zc, xt, zx])
        return gate.to_dense()


def conjugate(op: OperatorSum, gate: GateSpec) -> OperatorSum:
    """Similarity transform ``S @ op @ S`` by a CNOT or CZ gate.

    Pauli strings map to Pauli strings under both gates, so the result is
    again an :class:`OperatorSum` with real coefficients: its terms are
    carried through the gate as the rows of a :class:`_Tableau`, a CZ as
    the CNOT between two H on the target.
    """
    n = op.n
    if gate.control > n or gate.target > n:
        raise ValueError(
            f"gate on qubits ({gate.control},{gate.target}) outside 1..{n}")
    c, t = n - gate.control, n - gate.target
    hadamard = [(0, 1 << t, t, 0)] if gate.kind == "CZ" else []
    tableau = _Tableau(n, [(p.x, p.z, p.y_count) for p in op.terms])
    for step in hadamard + [(0, 0, t, 1 << c)] + hadamard:
        tableau.step(*step)
    return OperatorSum(n, [_signed(n, *row, p.coefficient)
                           for row, p in zip(tableau.rows(), op.terms)])


def _signed(n: int, x: int, z: int, q: int, coefficient: float
            ) -> PauliString:
    """``i^q X^x Z^z`` times `coefficient`, as a string: that is i^(q - y)
    times the string with y = popcount(x & z) factors Y, and i^(q - y) is
    +-1 for a Hermitian string."""
    return PauliString(n, x, z, (1 - (q - (x & z).bit_count()) % 4)
                       * coefficient)


def _anticommute(u: int, v: int, n: int) -> int:
    """1 when the strings with symplectic rows u, v = ``x << n | z``
    anticommute, else 0."""
    low = (1 << n) - 1
    return (((u >> n) & v).bit_count() + (u & low & (v >> n)).bit_count()) & 1


def _null_space(rows: list[int], width: int) -> dict[int, int]:
    """GF(2) kernel {v : popcount(row & v) even for every row} of
    `width`-bit vectors, as ``{free bit: basis vector}``; basis vector f is
    the only one with free bit f set."""
    pivots: dict[int, int] = {}  # pivot bit -> row, reduced on every pivot
    for row in rows:
        for bit, piv in pivots.items():
            if row >> bit & 1:
                row ^= piv
        if row:
            top = row.bit_length() - 1
            pivots = {bit: piv ^ row if piv >> top & 1 else piv
                      for bit, piv in pivots.items()}
            pivots[top] = row
    return {free: (1 << free) | sum(1 << bit for bit, piv in pivots.items()
                                    if piv >> free & 1)
            for free in range(width) if free not in pivots}


def _commuting_subset(vectors: list[int], n: int) -> list[int]:
    """Symplectic Gram-Schmidt: each vector in turn is kept, the first later
    one w it anticommutes with is dropped, and w is added to every other
    later one that anticommutes with it.  Each step keeps one vector of a
    pair and leaves the rank of the form on the rest two lower, so
    independent input gives an independent commuting set of the largest
    size, which holds the whole radical."""
    rest, kept = list(vectors), []
    while rest:
        v = rest.pop(0)
        w = next((u for u in rest if _anticommute(v, u, n)), None)
        if w is not None:
            rest.remove(w)
            rest = [u ^ w if _anticommute(u, v, n) else u for u in rest]
        kept.append(v)
    return kept


@dataclass(frozen=True)
class Tapering:
    """Pauli sums with their commuting Pauli symmetries tapered off (Bravyi,
    Gambetta, Mezzacapo & Temme, arXiv:1701.08213).

    `generators` are independent Pauli strings that commute with each other
    and with every term of every sum, ``X^n`` first when it is one of the
    symmetries.  `operators` are the sums under a Clifford map C that takes
    generator j to ``signs[j] Z_j``, so with r = len(generators) none of
    their terms flips qubits 1..r: each is block diagonal, block b of
    dimension 2^(n-r) being where qubits 1..r read the bits of b, qubit 1
    leading, and generator j reads ``signs[j] (-1)^(bit j of b)`` there.
    `steps` records C, gate by gate: per generator, the S gates on the
    qubits `ys`, CNOTs from the pivot p onto the other qubits of `xs` and
    H on p when `xs` is not empty, and CNOTs from the qubits of `fan_in`
    onto p, all as bit masks of basis indices; then the pivots move to
    qubits 1..r in generator order.  With no generators C is the identity
    and the one block is the full space, as for projector sums.
    """

    generators: tuple[PauliString, ...]
    signs: tuple[int, ...]
    operators: tuple[OperatorSum, ...]
    steps: tuple[tuple[int, int, int, int], ...]
    _keyed: dict = field(default_factory=dict, init=False, repr=False,
                         compare=False)

    @property
    def block_dim(self) -> int:
        return 1 << (self.operators[0].n - len(self.generators))

    def parity(self, b) -> int | np.ndarray | None:
        """The eigenvalue of ``X^n`` on block b (elementwise for an array
        of blocks), or None when ``X^n`` is not a generator; an X string,
        it maps to +Z_1 with no phase."""
        n, r = self.operators[0].n, len(self.generators)
        if not r or (self.generators[0].x, self.generators[0].z) != (
                (1 << n) - 1, 0):
            return None
        return 1 - 2 * (b >> (r - 1) & 1)

    def sector(self, name: str) -> range:
        """The blocks of sector `name`: ``all`` of them, or for ``even`` and
        ``odd`` the half where ``X^n`` reads +1 or -1; raises ValueError
        when ``X^n`` is not a generator."""
        r = len(self.generators)
        if name == "all":
            return range(1 << r)
        if name not in ("even", "odd"):
            raise ValueError(f"unknown sector {name!r}")
        if self.parity(0) is None:
            raise ValueError(f"no {name} sector: the operator does not "
                             f"commute with the bit flip")
        half = 1 << (r - 1)
        return range(half) if name == "even" else range(half, 1 << r)

    def factor(self, k: int, blocks) -> tuple:
        """``(index, consts, actives)`` of ``operators[k]`` on `blocks` (any
        sequence of block indices): block ``blocks[i]`` is ``consts[i] * 1
        + actives[index[i]]``.  The terms that are the identity on the
        untapered qubits make up `consts`; the others read only the key
        bits, so one traceless d x d matrix serves each key ``b & mask``
        present, ascending, the mask the bits they read in every operator.
        Refused, before anything is allocated, above STATE_QUBIT_CAP qubits
        and where the actives could outgrow DENSE_QUBIT_CAP dense qubits."""
        op, dim = self.operators[k], self.block_dim
        check_state_qubits(op.n)
        most = min(len(blocks), 1 << self._key_mask.bit_count())
        if most * dim * dim > 4 ** DENSE_QUBIT_CAP:
            raise ValueError(
                f"tapered blocks refused: {most} active blocks of {dim} x "
                f"{dim} exceed a dense matrix of {DENSE_QUBIT_CAP} qubits")
        blocks, keys, index = self._keys(blocks)
        consts = np.zeros(len(blocks))
        actives = np.zeros((len(keys), dim, dim), dtype=complex if any(
            t.y_count % 2 for t in op.terms) else float)
        rows = np.arange(dim)
        idx = keys[:, None] * dim + rows
        for t in op.terms:
            if not (t.x or t.z % dim):
                consts += np.where(np.bitwise_count(blocks & t.z // dim) & 1,
                                   -t.coefficient, t.coefficient)
                continue
            # <i ^ x| P |i> = c i^y (-1)^popcount(x & z) (-1)^popcount(i & z)
            w = t.coefficient * _Y_PHASES[t.y_count % 4] \
                * (-1) ** (t.x & t.z).bit_count()
            # t.x < dim: no term flips a tapered (leading) qubit
            actives[:, rows, rows ^ t.x] += np.where(
                np.bitwise_count(idx & t.z) & 1, -w, w)
        return index, consts, actives

    @cached_property
    def _key_mask(self) -> int:
        """The tapered bits that the terms of :meth:`factor`'s active
        matrices read, in any operator: ``z // block_dim`` is the tapered
        bits of z, which read the block index."""
        dim = self.block_dim
        return reduce(or_, (t.z // dim for o in self.operators
                            for t in o.terms if t.x or t.z % dim), 0)

    def _keys(self, blocks) -> tuple:
        """``(blocks, keys, index)`` of :meth:`factor`, the same for every
        operator: the blocks as an array, the keys ``b & mask`` present,
        ascending, and each block's place among them.  Built once per set
        of blocks and kept; a range keys itself, its blocks never listed."""
        tag = blocks if isinstance(blocks, range) \
            else np.asarray(blocks, np.intp).tobytes()
        if tag not in self._keyed:
            listed = np.arange(blocks.start, blocks.stop, blocks.step) \
                if isinstance(blocks, range) else np.asarray(blocks, np.intp)
            self._keyed[tag] = (listed, *np.unique(
                listed & self._key_mask, return_inverse=True))
        return self._keyed[tag]

    def block(self, k: int, b: int) -> OperatorSum:
        """Block b of ``operators[k]`` as a sum on the n - r untapered
        qubits: each tapered Z is replaced by its value on the block."""
        op = self.operators[k]
        m = op.n - len(self.generators)
        return OperatorSum(m, [
            PauliString(m, t.x, t.z & ((1 << m) - 1), -t.coefficient
                        if (t.z >> m & b).bit_count() & 1 else t.coefficient)
            for t in op.terms])

    def fold(self, psi: np.ndarray) -> np.ndarray:
        """``C psi`` as rows of :attr:`block_dim` amplitudes, row b its part
        in block b."""
        return self._carry(psi[:, None], False).reshape(-1, self.block_dim)

    def unfold(self, rows: np.ndarray) -> np.ndarray:
        """The state whose :meth:`fold` is `rows`."""
        return self._carry(rows.reshape(-1, 1), True).ravel()

    def lift(self, phi: np.ndarray, b) -> np.ndarray:
        """The state whose :meth:`fold` holds `phi` in row b alone; a 2-d
        `phi` lifts column by column, column j into row ``b[j]``."""
        cols = phi.reshape(len(phi), -1)
        rows = np.zeros((1 << len(self.generators),) + cols.shape, phi.dtype)
        rows[b, :, np.arange(cols.shape[1])] = cols.T
        return self._carry(rows.reshape(-1, cols.shape[1]), True).reshape(
            (-1,) + phi.shape[1:])

    def conjugated(self, string: PauliString) -> PauliString:
        """``C P C^dagger`` of a Hermitian string P, carried through `steps`
        as one :class:`_Tableau` row, as :func:`taper` carries terms."""
        n = self.operators[0].n
        tableau = _Tableau(n, [(string.x, string.z, string.y_count)])
        for step in self.steps:
            tableau.step(*step)
        tableau.reorder([p for _, _, p, _ in self.steps])
        (row,) = tableau.rows()
        return _signed(n, *row, string.coefficient)

    def _carry(self, psi: np.ndarray, inverse: bool) -> np.ndarray:
        """``C psi``, or ``C^dagger psi``, gate by gate on a ``(2,)*n`` view
        whose axis ``n - 1 - c`` holds bit c; the rows of psi are the basis
        states.  Without generators C is the identity."""
        n = self.operators[0].n
        v = psi.reshape((2,) * n + psi.shape[1:])

        def half(v, axis, bit):
            return v[(slice(None),) * axis + (bit,)]

        pivots = [n - 1 - p for _, _, p, _ in self.steps]
        top = range(len(pivots))
        if inverse:
            v = np.moveaxis(v, top, pivots)
        for ys, xs, p, fan_in in self.steps[::-1] if inverse else self.steps:
            # as in _Tableau.step: S on ys, CNOTs from p onto the rest of xs,
            # H on p where xs is set, CNOTs from each bit of fan_in onto p
            gates = [("S", ys, 0), ("CX", 1 << p, xs & ~(1 << p)),
                     ("H", xs and 1 << p, 0), ("CX", fan_in, 1 << p)]
            for gate, a, b in gates[::-1] if inverse else gates:
                if gate == "S" and a:
                    v = v.astype(complex)  # a copy: psi is left as it is
                    for axis in _axes(n, a):
                        half(v, axis, 1)[...] *= -1j if inverse else 1j
                elif gate == "H" and a:
                    (axis,) = _axes(n, a)
                    out = np.empty_like(v)
                    np.add(half(v, axis, 0), half(v, axis, 1),
                           out=half(out, axis, 0))
                    np.subtract(half(v, axis, 0), half(v, axis, 1),
                                out=half(out, axis, 1))
                    out /= np.sqrt(2.0)
                    v = out
                elif gate == "CX" and a and b:
                    # the bits b flip where the bits a have odd parity
                    out = v.copy()
                    np.copyto(out, np.flip(v, _axes(n, b)),
                              where=_odd(n, v.ndim, a))
                    v = out
        if not inverse:
            v = np.moveaxis(v, pivots, top)
        return v.reshape(psi.shape)


def _axes(n: int, mask: int) -> list[int]:
    """The axes of the bits `mask` in a ``(2,)*n`` view of a state."""
    return [n - 1 - c for c in range(mask.bit_length()) if mask >> c & 1]


def _odd(n: int, ndim: int, mask: int) -> np.ndarray:
    """True where the bits `mask` of a basis index have odd parity, shaped
    to broadcast against a ``(2,)*n`` view with `ndim` axes."""
    return reduce(np.logical_xor, (np.array([False, True]).reshape(
        [2 if i == a else 1 for i in range(ndim)]) for a in _axes(n, mask)))


def _transpose(cols: list[int], width: int) -> list[int]:
    """Bit c of entry i is bit i of ``cols[c]``, each below ``2**width``;
    the bits pass through numpy in 64-bit words."""
    size = max(1, -(-width // 64))
    words = np.array(cols, "<u8") if size == 1 else np.frombuffer(b"".join(
        c.to_bytes(8 * size, "little") for c in cols), "<u8")
    bits = np.zeros((width, 64 * max(1, -(-len(cols) // 64))), np.uint8)
    bits[:, :len(cols)] = np.unpackbits(words.view(np.uint8).reshape(
        len(cols), 8 * size), axis=1, count=width, bitorder="little").T
    out = np.packbits(bits, axis=1, bitorder="little")
    return out.view("<u8")[:, 0].tolist() if out.shape[1] == 8 else [
        int.from_bytes(row.tobytes(), "little") for row in out]


class _Tableau:
    """Pauli rows ``i^q X^x Z^z`` packed by qubit column, as in CHP
    (Aaronson & Gottesman, PRA 70, 052328, 2004): bit i of ``x[c]``,
    ``z[c]``, `q0` and `q1` is bit c of row i's x and z and bits 0 and 1 of
    its q.  S adds x to z and to q (its inverse takes x from q), H swaps x
    and z and adds 2 to q where both are set, a CNOT changes no phase."""

    def __init__(self, n: int, rows: list[tuple[int, int, int]]):
        cols = _transpose([x | z << n | (q % 4) << 2 * n for x, z, q in rows],
                          2 * n + 2)
        self.n, self.count = n, len(rows)
        self.x, self.z, (self.q0, self.q1) = cols[:n], cols[n:-2], cols[-2:]

    def row(self, i: int) -> tuple[int, int]:
        x = z = 0  # shifted in from bit i of each column, the last first
        for cx, cz in zip(reversed(self.x), reversed(self.z)):
            x, z = x << 1 | cx >> i & 1, z << 1 | cz >> i & 1
        return x, z

    def rows(self) -> list[tuple[int, int, int]]:
        low = (1 << self.n) - 1
        return [(v & low, v >> self.n & low, v >> 2 * self.n) for v in
                _transpose(self.x + self.z + [self.q0, self.q1], self.count)]

    def step(self, ys: int, xs: int, p: int, fan_in: int,
             inverse: bool = False) -> None:
        """Conjugate by a step of :attr:`Tapering.steps`, or its inverse:
        S on ys, CNOTs from p onto the rest of xs, H on p where xs is set,
        then CNOTs from each bit of fan_in onto p.  Gates of one kind
        commute, so the inverse reverses the order of the kinds alone."""
        x, z = self.x, self.z
        kinds = list(enumerate((ys, xs & ~(1 << p), xs and 1 << p, fan_in)))
        for kind, m in kinds[::-1] if inverse else kinds:
            while m:  # c walks the set bits of m
                c, m = (m & -m).bit_length() - 1, m & (m - 1)
                if kind == 0:  # S on c
                    z[c] ^= x[c]
                    self.q1 ^= x[c] & (~self.q0 if inverse else self.q0)
                    self.q0 ^= x[c]
                elif kind == 1:  # CNOT from p onto c
                    x[c] ^= x[p]
                    z[p] ^= z[c]
                elif kind == 2:  # H on c = p
                    self.q1 ^= x[c] & z[c]
                    x[c], z[c] = z[c], x[c]
                else:  # CNOT from c onto p
                    x[p] ^= x[c]
                    z[c] ^= z[p]

    def reorder(self, pivots: list[int], inverse: bool = False) -> None:
        """Move the columns `pivots` to the top in order, the first one
        highest, the rest kept in order below them; or back."""
        order = [c for c in range(self.n) if c not in pivots] + pivots[::-1]
        if inverse:
            order = sorted(range(self.n), key=order.__getitem__)
        self.x, self.z = ([v[c] for c in order] for v in (self.x, self.z))


def taper(*ops: OperatorSum) -> Tapering:
    """The :class:`Tapering` of one or more Pauli sums under one map.

    Each term is a symplectic row ``(x|z)``; the strings that commute with
    every term of every sum form the GF(2) kernel of those rows, reduced to
    a commuting set by symplectic Gram-Schmidt with ``X^n`` first when it
    is in the kernel, so every straight-line combination of the sums is
    block diagonal under the one map.  Generators and terms are then
    carried through the gates as the rows of a :class:`_Tableau`.  Per
    generator, S turns its free Y factors into X, CNOTs from the pivot, one
    of its free X qubits, clear the others, H on the pivot alone makes it a
    Z, and CNOTs into the pivot clear its other Z's.
    """
    n = ops[0].n
    if any(op.n != n for op in ops):
        raise ValueError("qubit counts differ")
    terms = tuple(t for op in ops for t in op.terms)
    low, xall = (1 << n) - 1, ((1 << n) - 1) << n
    # the ends of a segment share most terms: each support is solved once
    supports = list(dict.fromkeys((t.x, t.z) for t in terms))
    kernel = _null_space([z << n | x for x, z in supports], 2 * n)
    vectors = list(kernel.values())
    if not any(z.bit_count() & 1 for _, z in supports):
        # X^n is the sum of the basis vectors of its free bits: swap one out
        del kernel[next(f for f in kernel if xall >> f & 1)]
        vectors = [xall, *kernel.values()]
    generators = tuple(PauliString(n, g >> n, g & low)
                       for g in _commuting_subset(vectors, n))

    r = len(generators)
    tableau = _Tableau(n, [(p.x, p.z, p.y_count) for p in generators]
                       + [(x, z, (x & z).bit_count()) for x, z in supports])
    free, steps = low, []
    for i in range(r):
        # generator i has no X on earlier pivots
        gx, gz = tableau.row(i)
        ys, xs = free & gx & gz, free & gx
        p = (xs or free & gz).bit_length() - 1
        tableau.step(ys, xs, p, 0)
        fan_in = tableau.row(i)[1] ^ 1 << p
        tableau.step(0, 0, p, fan_in)
        free ^= 1 << p
        steps.append((ys, xs, p, fan_in))
    tableau.reorder([p for _, _, p, _ in steps])
    rows = tableau.rows()
    # generator j ends as i^q Z on pivot j
    image = dict(zip(supports, rows[r:]))
    mapped = [_signed(n, *image[t.x, t.z], t.coefficient) for t in terms]
    cuts = list(accumulate((len(op.terms) for op in ops), initial=0))
    return Tapering(generators, tuple(1 - q % 4 for _, _, q in rows[:r]),
                    tuple(OperatorSum(n, mapped[a:b])
                          for a, b in zip(cuts, cuts[1:])), tuple(steps))


def boundary_map(a: Tapering, b: Tapering):
    """``T = C_b C_a^dagger``, from rows folded by `a` to rows folded by
    `b`, up to a unit factor: 2^h gathers with phases, each term's index
    and phase built once with the map; where neither has steps, the
    identity.  X_j, Z_j carried back through the steps of `b` and on through
    `a`'s are ``U X_j U^dagger = i^q X^x Z^z`` (``U = T^dagger``) and the
    stabilizers of ``phi = U|0>``; with ``U|j> = i^Q X^A Z^B phi``, ``(T
    v)[j]`` sums ``conj(i^Q (-1)^popcount(B & y) phi_y) v[A ^ y]`` over the
    2^h support of phi."""
    if not (a.steps or b.steps):
        return lambda rows: rows
    n = a.operators[0].n
    tableau = _Tableau(n, [(1 << j, 0, 0) for j in range(n)]
                       + [(0, 1 << j, 0) for j in range(n)])
    tableau.reorder([p for _, _, p, _ in b.steps], inverse=True)
    for step, inverse in [(t, True) for t in b.steps[::-1]] + [
            (t, False) for t in a.steps]:
        tableau.step(*step, inverse)
    tableau.reorder([p for _, _, p, _ in a.steps])
    rows = tableau.rows()
    # stabilizers reduced by the leading bits of their X parts; the rest,
    # i^q Z^z with q even, ask popcount(z & y) = q/2 (mod 2) of the support
    lead, checks = {}, []
    for x, z, q in rows[n:]:
        while x and x.bit_length() - 1 in lead:
            px, pz, pq = lead[x.bit_length() - 1]
            x, z, q = x ^ px, z ^ pz, q + pq + 2 * (z & px).bit_count()
        if x:
            lead[x.bit_length() - 1] = x, z, q
        else:
            checks.append(z << 1 | q >> 1 & 1)
    # phi = prod (1 + g) |y0> / 2^(h/2), g|y> = i^q (-1)^(z.y) |y ^ x>
    support, phases = [_null_space(checks, n + 1)[0] >> 1], [0]
    for px, pz, pq in lead.values():
        phases += [e + pq + 2 * (y & pz).bit_count()
                   for y, e in zip(support, phases)]
        support += [y ^ px for y in support]
    # E_y = -(Q + 2 popcount(B & y) + e_y) by doubling: X on bit k times
    # X^j, j < 2^k, adds x to A, z to B and q + 2 popcount(z & A) to Q
    gather = np.zeros(1, np.intp)
    exponents = np.array([[-e % 4] for e in phases], np.uint8)
    for x, z, q in rows[:n]:
        shift = [[q + 2 * (z & y).bit_count() & 3] for y in support]
        exponents = np.concatenate([exponents, exponents - np.array(
            shift, np.uint8) - (np.bitwise_count(gather & z) << 1)], axis=1)
        gather = np.concatenate([gather, gather ^ x])
    # held at 12 bytes per term and index: the phases, +-1 and +-i, are
    # exact in complex64, and 2^n fits int32 below any register refused
    phases = np.take(np.array(_Y_PHASES, np.complex64), exponents & 3)
    index = (gather ^ np.array(support)[:, None]).astype(np.int32)
    scale = 2.0 ** (-len(lead) / 2)

    def crossing(rows: np.ndarray) -> np.ndarray:
        # the scale last: terms that cancel give exactly 0
        terms = phases * rows.ravel()[index]
        return (scale * terms.sum(0)).reshape(-1, b.block_dim)
    return crossing


@dataclass(frozen=True, eq=False)
class ProjectorSum:
    """The operator ``shift * 1 - sum_j w_j |psi_j><psi_j|`` for real psi_j.

    Used for the EC3 projector Hamiltonians ``1 - |Psi_k><Psi_k|``, which
    have no sparse Pauli form.  The operator is held as its vectors (the
    rows of `vectors`) and their weights, never as a matrix: :meth:`apply`
    costs one dot product per vector, :meth:`to_dense` builds the matrix
    only on request, and sums and scalar multiples concatenate vectors and
    scale weights, so :func:`blend` of two of them keeps the form.  Every
    vector orthogonal to the psi_j has eigenvalue `shift`, so one small
    basis (:func:`stepgap.spectra._projector_basis`) solves every weighted
    sum of a path segment's projector sums exactly.
    """

    n: int
    shift: float
    weights: np.ndarray = field(repr=False)
    vectors: np.ndarray = field(repr=False)

    def __post_init__(self):
        # read-only views of the given arrays, not copies: of the 2^n
        # vectors, only + (which concatenates them) makes a copy
        weights = np.atleast_1d(np.asarray(self.weights, dtype=float)).view()
        vectors = np.atleast_2d(np.asarray(self.vectors, dtype=float)).view()
        if (vectors.ndim != 2 or vectors.shape[1] != 1 << self.n
                or weights.shape != (len(vectors),)):
            raise ValueError(
                f"need one weight per vector of length {1 << self.n}, got "
                f"weights {weights.shape} and vectors {vectors.shape}")
        weights.setflags(write=False)
        vectors.setflags(write=False)
        object.__setattr__(self, "shift", float(self.shift))
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "vectors", vectors)

    @classmethod
    def complement(cls, psi: np.ndarray) -> "ProjectorSum":
        """``1 - |psi><psi|`` for a real unit vector psi."""
        return cls(n_qubits(psi), 1.0, (1.0,), psi)

    is_real = True

    def apply(self, psi: np.ndarray) -> np.ndarray:
        """``shift * psi - sum_j w_j psi_j <psi_j|psi>``."""
        if psi.shape != (1 << self.n,):
            raise ValueError(
                f"state has shape {psi.shape}, expected ({1 << self.n},)")
        overlaps = self.weights * (self.vectors @ psi)
        return self.shift * psi - overlaps @ self.vectors

    def to_dense(self, cap: int = DENSE_QUBIT_CAP) -> np.ndarray:
        """Dense matrix; refuses n above `cap`."""
        if self.n > cap:
            raise ValueError(
                f"dense materialization capped at {cap} qubits, got {self.n}")
        # outer products, not one BLAS matmul: measured on 2 cores, the
        # threaded matmul made the dense eigensolve that follows 2x slower
        scaled = -self.weights[:, None] * self.vectors
        mat = np.multiply.outer(scaled[0], self.vectors[0])
        for u, v in zip(scaled[1:], self.vectors[1:]):
            mat += np.multiply.outer(u, v)
        mat.flat[::(1 << self.n) + 1] += self.shift
        return mat

    def __add__(self, other: "ProjectorSum") -> "ProjectorSum":
        if self.n != other.n:
            raise ValueError("qubit counts differ")
        return ProjectorSum(self.n, self.shift + other.shift,
                            np.concatenate([self.weights, other.weights]),
                            np.vstack([self.vectors, other.vectors]))

    def __mul__(self, scalar: float) -> "ProjectorSum":
        return ProjectorSum(self.n, self.shift * scalar,
                            self.weights * scalar, self.vectors)

    __rmul__ = __mul__


def blend(op_a, op_b, s: float):
    """Straight-line combination ``(1-s)*op_a + s*op_b``, a
    :func:`weighted_sum`."""
    return weighted_sum((op_a, op_b), (1.0 - s, s))


def weighted_sum(ops, weights):
    """``sum_k weights[k] * ops[k]`` over the nonzero weights; a lone
    weight of 1 gives its operator itself.

    Pauli sums combine group by group, ``sum_k w_k d_k`` over the union of
    their flip masks, without rebuilding terms; :class:`ProjectorSum`
    operators use their own arithmetic, which concatenates their vectors.
    """
    if any(op.n != ops[0].n for op in ops):
        raise ValueError("qubit counts differ")
    picked = [(w, op) for w, op in zip(weights, ops) if w]
    if len(picked) == 1 and picked[0][0] == 1.0:
        return picked[0][1]
    if not all(isinstance(op, OperatorSum) for _, op in picked):
        return reduce(add, (w * op for w, op in picked))
    gathers, amps = {}, {}
    for weight, op in picked:
        for flip, gather, amp in op._compiled():
            gathers[flip] = gather
            amps[flip] = amps.get(flip, 0.0) + weight * amp
    out = object.__new__(OperatorSum)
    groups = tuple((flip, gathers[flip], amps[flip]) for flip in sorted(amps))
    out._init(ops[0].n, None, groups,
              lambda: reduce(add, (w * op for w, op in picked)).terms,
              all(op._real for _, op in picked))
    return out


def n_qubits(psi: np.ndarray) -> int:
    n = int(round(np.log2(len(psi))))
    if 1 << n != len(psi):
        raise ValueError(f"state length {len(psi)} is not a power of two")
    return n


def basis_state(n: int, bits) -> np.ndarray:
    """``|z_1...z_n>`` from an iterable of bits or an integer index."""
    if isinstance(bits, (int, np.integer)):
        index = int(bits)
    else:
        bits = list(bits)
        if len(bits) != n:
            raise ValueError(f"expected {n} bits, got {len(bits)}")
        index = 0
        for b in bits:
            index = (index << 1) | (int(b) & 1)
    psi = np.zeros(1 << n)
    psi[index] = 1.0
    return psi


def uniform_superposition(n: int) -> np.ndarray:
    """Equal-amplitude superposition of all basis states (all spins along +x);
    refuses n above :data:`STATE_QUBIT_CAP`."""
    check_state_qubits(n)
    return np.full(1 << n, 1.0 / np.sqrt(1 << n))


def ghz_state(n: int) -> np.ndarray:
    """The even-parity cat state ``(|0...0> + |1...1>)/sqrt(2)``."""
    psi = np.zeros(1 << n)
    psi[0] = psi[-1] = 1.0 / np.sqrt(2.0)
    return psi


def parity_apply(psi: np.ndarray) -> np.ndarray:
    """Apply the full bit-flip string (sigma^x on every qubit): a reversal."""
    n_qubits(psi)  # rejects a length that is not a power of two
    return psi[::-1].copy()


def parity_expectation(psi: np.ndarray) -> float:
    """Expectation of the bit-flip string, real for any normalized state."""
    return float(np.real(np.vdot(psi, parity_apply(psi))))


def string_expectation(string: PauliString, psi: np.ndarray) -> float:
    """``<psi|P|psi>`` of a Hermitian string P, on a ``(2,)*n`` view of
    psi: ``X^x`` a flip along the axes of x, ``Z^z`` a sign."""
    n = string.n
    v = psi.reshape((2,) * n)
    signed = np.where(_odd(n, n, string.z), -v, v) if string.z else v
    return float((string.coefficient * _Y_PHASES[string.y_count % 4]
                  * np.vdot(np.flip(v, _axes(n, string.x)), signed)).real)


def parity_operator(n: int) -> OperatorSum:
    return OperatorSum(n, [PauliString(n, (1 << n) - 1, 0, 1.0)])
