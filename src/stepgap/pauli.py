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
  The matrix-free action, the dense matrix and the straight-line blend of
  two operators all read this compiled form.
* A Pauli sum that commutes with the bit-flip string has two parity
  blocks, sums on n - 1 qubits folded from its compiled form;
  :func:`parity_fold` and :func:`parity_lift` carry states of definite
  parity to a block and back.
* :func:`taper` finds a maximal commuting set of Pauli strings that commute
  with every term and maps them by a Clifford to single-qubit Z's; the
  mapped sum is block diagonal, and the blocks' spectra together are the
  full spectrum (:meth:`Tapering.spectrum`).  Two sums tapered together
  share the map, so every blend of them is block diagonal too
  (:meth:`Tapering.stacks`).
* The EC3 projector Hamiltonians are :class:`ProjectorSum` operators,
  ``shift * 1`` minus a weighted sum of rank-one projectors, held as their
  vectors and weights.
"""

from __future__ import annotations

from dataclasses import dataclass, field
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
    are immutable.  The package starts no threads; if a caller's threads
    race on the first use of an operator, each compiles an equal tuple and
    publishes it with a single attribute store.
    """

    __slots__ = ("n", "_terms", "_groups", "_real", "_terms_of",
                 "_symmetric")

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

    def _init(self, n, terms, groups, terms_of, real, symmetric=None) -> None:
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "_terms", terms)
        object.__setattr__(self, "_terms_of", terms_of)
        object.__setattr__(self, "_real", real)
        object.__setattr__(self, "_symmetric", symmetric)
        object.__setattr__(self, "_groups", groups)

    def __setattr__(self, *_):
        raise AttributeError("OperatorSum is immutable")

    @property
    def terms(self) -> tuple[PauliString, ...]:
        """Canonical terms; for a blend or parity block, built when read."""
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

    def parity_block(self, sign: int) -> "OperatorSum":
        """This operator in the bit-flip sector of `sign` (+1 even, -1 odd),
        a sum on n - 1 qubits: block state z stands for ``(|z> + sign |~z>)
        / sqrt(2)``, z with its leading bit clear.  A flip with the leading
        bit set folds into ``f ^ (2^n - 1)`` with factor `sign`, and each
        amplitude is cut to its first half.  Needs n >= 2 and
        :func:`parity_symmetric`."""
        if sign not in (1, -1) or self.n < 2 or not parity_symmetric(self):
            raise ValueError("a parity block needs sign +1 or -1, n >= 2 and "
                             "an operator that commutes with the bit flip")
        half, full = 1 << (self.n - 1), (1 << self.n) - 1
        amps: dict[int, np.ndarray | float | complex] = {}
        gathers: dict[int, np.ndarray | None] = {0: None}
        for flip, gather, amp in self._compiled():
            amp = amp[:half] if np.ndim(amp) else amp
            if flip & half:
                flip, amp = flip ^ full, sign * amp
            elif flip:
                # i ^ flip keeps the leading bit: the gather's first half
                gathers[flip] = gather[:half]
            amps[flip] = amps.get(flip, 0.0) + amp
        idx = np.arange(half)
        groups = tuple((flip, gathers[flip] if flip in gathers else idx ^ flip,
                        amp) for flip, amp in sorted(amps.items()))
        out = object.__new__(OperatorSum)
        # every group folds into the block, so it is complex when one is
        out._init(self.n - 1, None, groups, lambda: _block_terms(self, sign),
                  self._real)
        return out


def parity_fold(psi: np.ndarray) -> np.ndarray:
    """Block vector of a state of definite parity in the basis of
    :meth:`OperatorSum.parity_block`: sqrt(2) times its first half."""
    return np.sqrt(2.0) * psi[:len(psi) // 2]


def parity_lift(phi: np.ndarray, sign: int) -> np.ndarray:
    """The state of parity `sign` whose :func:`parity_fold` is `phi`,
    ``(phi, sign * reversed phi) / sqrt(2)``; a 2-d `phi` lifts column by
    column."""
    return np.concatenate([phi, sign * phi[::-1]]) / np.sqrt(2.0)


def _block_terms(op: OperatorSum, sign: int) -> tuple[PauliString, ...]:
    """Terms of ``op.parity_block(sign)``: ``A (x) Q`` with A on qubit 1
    gives Q for A = I, Z and ``sign <0|A|1> Q X^(n-1)`` for A = X, Y."""
    half = 1 << (op.n - 1)
    out = []
    for term in op.terms:
        x, z, coeff = term.x & (half - 1), term.z & (half - 1), \
            term.coefficient
        if term.x & half:
            # <0|Y|1> = -i; per factor Q X is X, I, -iZ, iY for I, X, Y, Z,
            # so the phase is i^(#Z - #Y - lead Y), +-1 for an even Z count
            power = (z & ~x).bit_count() - (x & z).bit_count() \
                - (term.z >> (op.n - 1))
            coeff *= sign * (1 - power % 4)
            x ^= half - 1
        out.append(PauliString(op.n - 1, x, z, coeff))
    return OperatorSum(op.n - 1, out).terms


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
    again an :class:`OperatorSum` with real coefficients.  On the
    symplectic rows (Aaronson & Gottesman, PRA 70, 052328, 2004), with the
    bits read before the update: CNOT sets ``x_t ^= x_c``, ``z_c ^= z_t``
    and flips the sign when ``x_c z_t (x_t ^ z_c ^ 1)``; CZ sets
    ``z_t ^= x_c``, ``z_c ^= x_t`` and flips it when
    ``x_c x_t (z_c ^ z_t)``.
    """
    n = op.n
    if gate.control > n or gate.target > n:
        raise ValueError(
            f"gate on qubits ({gate.control},{gate.target}) outside 1..{n}")
    c, t = n - gate.control, n - gate.target
    out = []
    for term in op.terms:
        x, z = term.x, term.z
        xc, zc, xt, zt = x >> c & 1, z >> c & 1, x >> t & 1, z >> t & 1
        if gate.kind == "CNOT":
            flip = xc & zt & (xt ^ zc ^ 1)
            x ^= xc << t
            z ^= zt << c
        else:
            flip = xc & xt & (zc ^ zt)
            z ^= xc << t | xt << c
        out.append(PauliString(n, x, z, -term.coefficient if flip
                               else term.coefficient))
    return OperatorSum(n, out)


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
    """A Pauli sum with its commuting Pauli symmetries tapered off (Bravyi,
    Gambetta, Mezzacapo & Temme, arXiv:1701.08213).

    `generators` are independent Pauli strings that commute with each other
    and with every term, ``X^n`` first when it is one of the symmetries.
    `operator` is the sum under a Clifford map C of H, S and CNOT gates and
    a qubit reordering that takes generator j to ``signs[j] Z_j``, so with
    r = len(generators) none of its terms flips qubits 1..r: it is block
    diagonal, one block of dimension 2^(n-r) per value of those qubits.
    `carried` is the second sum given to :func:`taper`, under the same map.
    """

    generators: tuple[PauliString, ...]
    signs: tuple[int, ...]
    operator: OperatorSum
    carried: OperatorSum | None = None

    @property
    def block_dim(self) -> int:
        return 1 << (self.operator.n - len(self.generators))

    def stacks(self, sector: str = "all") -> list[np.ndarray]:
        """The blocks of `operator` and, when there is one, of `carried`,
        each as a stack ``(blocks, d, d)`` with d = :attr:`block_dim`.

        Block b is where qubits 1..r read the bits of b, qubit 1 leading.
        ``all`` keeps the 2^r blocks; ``even`` and ``odd`` keep the half
        where ``X^n``, generator 0 and mapped to ``signs[0] Z_1``, reads +1
        or -1, and raise ValueError when ``X^n`` is not a generator.  All
        2^r blocks together larger than a dense matrix of
        :data:`DENSE_QUBIT_CAP` qubits are refused before anything is
        allocated.
        """
        n, r = self.operator.n, len(self.generators)
        blocks = slice(None)
        if sector != "all":
            if sector not in ("even", "odd"):
                raise ValueError(f"unknown sector {sector!r}")
            if not r or self.generators[0] != PauliString(n, (1 << n) - 1, 0):
                raise ValueError(f"no {sector} sector: X^n is not a "
                                 f"symmetry of the tapered sum")
            half = 1 << (r - 1)
            lower = (self.signs[0] == 1) == (sector == "even")
            blocks = slice(0, half) if lower else slice(half, None)
        return [_block_stack(op, r, blocks)
                for op in (self.operator, self.carried) if op is not None]

    def spectrum(self) -> np.ndarray:
        """All 2^n eigenvalues of `operator`, ascending: one batched
        ``eigvalsh`` over its stack of blocks."""
        stack = _block_stack(self.operator, len(self.generators))
        return np.sort(np.linalg.eigvalsh(stack), axis=None)


def _block_stack(op: OperatorSum, r: int, blocks: slice = slice(None)
                 ) -> np.ndarray:
    """The diagonal blocks `blocks` of a sum none of whose terms flips
    qubits 1..r, stacked along the first axis; refused, before anything is
    allocated, when the 2^r blocks exceed a dense matrix of
    :data:`DENSE_QUBIT_CAP` qubits."""
    dim = 1 << (op.n - r)
    if (1 << op.n) * dim > 4 ** DENSE_QUBIT_CAP:
        raise ValueError(
            f"tapered blocks refused: {1 << r} blocks of {dim} x {dim} "
            f"exceed a dense matrix of {DENSE_QUBIT_CAP} qubits")
    count = len(range(1 << r)[blocks])
    stack = np.zeros((count, dim, dim), dtype=float if op.is_real else complex)
    rows = np.arange(dim)
    for flip, _, amp in op._compiled():
        # flip < dim: no term flips a tapered (leading) qubit
        stack[:, rows, rows ^ flip] = np.broadcast_to(
            amp, (1 << op.n,)).reshape(1 << r, dim)[blocks]
    return stack


def taper(op: OperatorSum, other: OperatorSum | None = None) -> Tapering:
    """The :class:`Tapering` of a Pauli sum, or of two under one map.

    Each term is a symplectic row ``(x|z)``; the strings that commute with
    every term form the GF(2) kernel of those rows, reduced to a commuting
    set by symplectic Gram-Schmidt with ``X^n`` first when it is in the
    kernel.  Generators and terms are then carried through H, S and CNOT
    gates in the form ``i^q X^x Z^z`` (tableau as in Aaronson & Gottesman,
    PRA 70, 052328, 2004): H swaps x and z and adds 2 to q where both are
    set, S adds x to z and to q, and CNOT changes no phase.  With `other`,
    the symmetries are those of the terms of both sums, so every
    straight-line combination of the two is block diagonal under the one
    map, and `other` comes out as :attr:`Tapering.carried`.
    """
    n = op.n
    if other is not None and other.n != n:
        raise ValueError("qubit counts differ")
    terms = op.terms + (() if other is None else other.terms)
    low, xall = (1 << n) - 1, ((1 << n) - 1) << n
    packed = [term.x << n | term.z for term in terms]
    kernel = _null_space([(v & low) << n | v >> n for v in packed], 2 * n)
    vectors = list(kernel.values())
    if not any(_anticommute(v, xall, n) for v in packed):
        # X^n is the sum of the basis vectors of its free bits: swap one out
        del kernel[next(f for f in kernel if xall >> f & 1)]
        vectors = [xall, *kernel.values()]
    generators = tuple(PauliString(n, g >> n, g & low)
                       for g in _commuting_subset(vectors, n))

    r = len(generators)
    rows = [(p.x, p.z, p.y_count) for p in generators + terms]
    free, pivots = low, []
    for i in range(r):
        # generator i has no X on earlier pivots; S turns its free Y into X
        # and H its free X into Z, so it is a Z string
        gx, gz, _ = rows[i]
        ys, xs = free & gx & gz, free & gx
        stepped = []
        for x, z, q in rows:
            q += (x & ys).bit_count()
            z ^= x & ys
            q += 2 * (x & z & xs).bit_count()
            stepped.append((x & ~xs | z & xs, z & ~xs | x & xs, q))
        # CNOT(t -> p) clears its Z on every other qubit t
        gz = stepped[i][1]
        p = (free & gz).bit_length() - 1
        others = gz ^ 1 << p
        rows = [(x ^ ((x & others).bit_count() & 1) << p,
                 z ^ others if z >> p & 1 else z, q) for x, z, q in stepped]
        free ^= 1 << p
        pivots.append(p)

    def reorder(v: int) -> int:
        # pivot qubits first, in generator order, then the free ones
        head = 0
        for p in pivots:
            head = head << 1 | v >> p & 1
        for p in sorted(pivots, reverse=True):
            v = v >> (p + 1) << p | v & ((1 << p) - 1)
        return head << (n - r) | v

    # i^q X^x Z^z is i^(q - y) times the string with y = popcount(x & z)
    # factors Y, and i^(q - y) is +-1 for a Hermitian string; generator j
    # ends as i^q Z on pivot j
    mapped = [PauliString(n, reorder(x), reorder(z),
                          (1 - (q - (x & z).bit_count()) % 4)
                          * term.coefficient)
              for (x, z, q), term in zip(rows[r:], terms)]
    cut = len(op.terms)
    return Tapering(generators, tuple(1 - q % 4 for _, _, q in rows[:r]),
                    OperatorSum(n, mapped[:cut]),
                    None if other is None else OperatorSum(n, mapped[cut:]))


@dataclass(frozen=True, eq=False)
class ProjectorSum:
    """The operator ``shift * 1 - sum_j w_j |psi_j><psi_j|`` for real psi_j.

    Used for the EC3 projector Hamiltonians ``1 - |Psi_k><Psi_k|``, which
    have no sparse Pauli form.  The operator is held as its vectors (the
    rows of `vectors`) and their weights, never as a matrix: :meth:`apply`
    costs one dot product per vector, :meth:`to_dense` builds the matrix
    only on request, and sums and scalar multiples concatenate vectors and
    scale weights, so :func:`blend` of two of them keeps the form.  Every
    vector orthogonal to the psi_j has eigenvalue `shift`, which
    :func:`stepgap.spectra.lowest_eigenpairs` uses to solve it exactly.
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
    """Straight-line combination ``(1-s)*op_a + s*op_b``.

    Two Pauli sums combine group by group, ``(1-s) d_a + s d_b`` over the
    union of their flip masks, without rebuilding terms; two
    :class:`ProjectorSum` operators use their own arithmetic, which
    concatenates their vectors.
    """
    if not (isinstance(op_a, OperatorSum) and isinstance(op_b, OperatorSum)):
        return (1.0 - s) * op_a + s * op_b
    if op_a.n != op_b.n:
        raise ValueError("qubit counts differ")
    gathers, amps = {}, {}
    for weight, op in ((1.0 - s, op_a), (s, op_b)):
        for flip, gather, amp in op._compiled():
            gathers[flip] = gather
            amps[flip] = amps.get(flip, 0.0) + weight * amp
    out = object.__new__(OperatorSum)
    groups = tuple((flip, gathers[flip], amps[flip]) for flip in sorted(amps))
    # a blend of two symmetric sums is symmetric; otherwise (an odd term
    # may cancel at this s) parity_symmetric reads the terms
    out._init(op_a.n, None, groups,
              lambda: ((1.0 - s) * op_a + s * op_b).terms,
              op_a._real and op_b._real,
              parity_symmetric(op_a) and parity_symmetric(op_b) or None)
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


def parity_symmetric(op) -> bool:
    """True when `op` is a Pauli sum that commutes with X^n: every term
    has an even number of Z and Y factors.  A :class:`ProjectorSum` gives
    False.  The answer is kept on the sum; a :func:`blend` of two
    symmetric sums carries it without building its terms."""
    if not isinstance(op, OperatorSum):
        return False
    if op._symmetric is None:
        object.__setattr__(op, "_symmetric", not any(
            term.z.bit_count() & 1 for term in op.terms))
    return op._symmetric


def parity_operator(n: int) -> OperatorSum:
    return OperatorSum(n, [PauliString(n, (1 << n) - 1, 0, 1.0)])
