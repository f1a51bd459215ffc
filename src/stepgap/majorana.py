"""Majorana forms of the Pauli sums that are free fermions.

Under Jordan-Wigner with X as the occupation (Lieb, Schultz & Mattis, Ann.
Phys. 16, 407 (1961); Pfeuty, Ann. Phys. 57, 79 (1970)), site j, which is
qubit j + 1, carries the Majoranas ``c_{2j} = X^{<j} Z_j`` and
``c_{2j+1} = X^{<j} Y_j``, with ``X^{<j}`` the X string on the qubits
before it.  Then ``X_j = i c_{2j} c_{2j+1}``, ``Z_j Z_{j+1} = i c_{2j+1}
c_{2j+2}`` and ``X^n = i^n c_0 c_1 ... c_{2n-1}``.  Every Pauli string is
a phase times one ordered monomial of the c's.  Which c's is GF(2)-linear
in its symplectic row, ``m_{2j+1} = x_j + sum_{k>j} z_k`` and ``m_{2j} =
z_j + m_{2j+1}`` (mod 2), read off with bit operations; the phase is that
of the product of the monomial's own rows.

A sum has a form (:func:`majorana_form`) when each term has degree 0 or 2,
or is ``X^n`` times a string of degree 0 or 2 (degree 2n or 2n - 2, as the
periodic wrap bond ``Z_n Z_1``).  On the states where ``X^n`` reads a sign
it is then ``const + (i/4) c^T A c`` with A real antisymmetric and 2n x 2n
(:func:`block_form`).  Every operator of the Ising paths has one.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .pauli import OperatorSum


@dataclass(frozen=True, eq=False)
class MajoranaForm:
    """``const + (i/4) c^T A c + X^n (parity_const + (i/4) c^T B c)`` on n
    qubits: A holds `values` at ``(rows, cols)``, ``rows < cols``, where
    `parity` is False, and minus them at ``(cols, rows)``; B the others."""

    n: int
    const: float
    parity_const: float
    rows: np.ndarray
    cols: np.ndarray
    values: np.ndarray
    parity: np.ndarray


def _monomial(n: int, x: int, z: int) -> list[int]:
    """The Majoranas, ascending, whose ordered product is ``X^x Z^z`` up to
    a phase.  Site j is bit ``n - 1 - j``: its later sites are the bits
    below it."""
    low = (1 << n) - 1
    upto, shift = z, 1  # bit b: parity of the z bits b, b - 1, ..., 0
    while shift < n:
        upto ^= (upto << shift) & low
        shift <<= 1
    odd = x ^ ((upto << 1) & low)
    even = z ^ odd
    return sorted(2 * (n - 1 - b) + k for k, mask in ((0, even), (1, odd))
                  for b in range(n) if mask >> b & 1)


def _term_form(n: int, x: int, z: int) -> tuple[list[int], int, int]:
    """``(m, factor, parity)``: ``h P``, P the string of ``(x, z)``, adds
    ``h factor`` to the constant (m empty) or to ``A`` at the pair m, in the
    ``X^n`` part where `parity` is 1; a monomial m of other length has none.
    ``c_a c_b = i^q X^x Z^z``, the product of their rows, is ``i^(q - y)
    P`` for the Hermitian string P with y factors Y; ``c_a c_b`` being
    anti-Hermitian, ``i^(q - y) = i sigma`` with sigma = +-1, so ``h P`` is
    ``(i/4) (A_ab c_a c_b + A_ba c_b c_a)`` with ``A_ab = -2 h sigma``.  A
    term P of degree 2n - d is ``(P X^n) X^n`` with ``P X^n = i^(y + 2
    popcount(z) - y') Q`` of degree d, that phase +-1.
    """
    factor, parity, m = 1, 0, _monomial(n, x, z)
    if len(m) > 2:
        y, x = (x & z).bit_count(), x ^ ((1 << n) - 1)
        factor = 1 - (y + 2 * z.bit_count() - (x & z).bit_count()) % 4
        m, parity = _monomial(n, x, z), 1
    if len(m) == 2:
        # c_a = i^(a % 2) X^x_a Z_j on its site j, where c_b's X^x_b has
        # one X: moving Z_j past it, q = a % 2 + b % 2 + 2
        q = m[0] % 2 + m[1] % 2 + 2
        factor *= -2 * (1 - (q - (x & z).bit_count() - 1) % 4)
    return m, factor, parity


def majorana_forms(ops) -> tuple[MajoranaForm, ...] | None:
    """Each Pauli sum's :class:`MajoranaForm`, or None when a term of one
    is of any other degree than 0, 2, 2n - 2 or 2n; each distinct ``(x,
    z)`` among their terms is converted once, for this call only."""
    term, forms = functools.cache(functools.partial(_term_form, ops[0].n)), []
    for op in ops:
        consts, entries = [0.0, 0.0], []
        for t in op.terms:
            m, factor, parity = term(t.x, t.z)
            if len(m) not in (0, 2):
                return None
            if m:
                entries.append((*m, factor * t.coefficient, parity))
            else:
                consts[parity] += factor * t.coefficient
        table = np.array(entries, float).reshape(-1, 4)
        forms.append(MajoranaForm(op.n, *consts, *table[:, :2].T.astype(
            np.intp), table[:, 2], table[:, 3] == 1))
    return tuple(forms)


def majorana_form(op: OperatorSum) -> MajoranaForm | None:
    """:func:`majorana_forms` of one Pauli sum."""
    return (majorana_forms((op,)) or (None,))[0]


def block_form(forms, weights, sign: int) -> tuple[float, np.ndarray]:
    """``(const, A)`` of ``sum_k weights[k] * forms[k]`` on the states where
    ``X^n`` reads `sign`: there it is ``const + (i/4) c^T A c``."""
    n = forms[0].n
    a, const = np.zeros((2 * n, 2 * n)), 0.0
    for w, f in zip(weights, forms):
        if w:
            const += w * (f.const + sign * f.parity_const)
            np.add.at(a, (f.rows, f.cols),
                      w * np.where(f.parity, sign * f.values, f.values))
    return const, a - a.T
