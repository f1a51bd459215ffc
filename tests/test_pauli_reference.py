"""Compiled Pauli sums against the term-by-term reference implementation.

`reference_dense` (a chain of Kronecker products per term) and
`reference_apply` (one index permutation and sign vector per term, on every
call) are the straightforward implementations the compiled flip-mask form
replaced.  They share no code with it, so the comparisons below check the
compiled `apply`, `to_dense` and `blend` independently.  The tapering of
`stepgap.pauli.taper` is checked the same way: the spectra of its blocks
against `eigvalsh` of `reference_dense`, its generators by counting where
two strings differ and by a GF(2) rank of their own.  The column tableau
and the boundary maps built on it are checked against the recorded map as
a dense unitary, itself checked against `reference_dense`.
`gate_list_taper` is `taper` as first written, every term carried through
a tableau that runs each step from a list of gates; the tapering must
equal it exactly.  `per_call_boundary_map` is `boundary_map` as it was when
each crossing rebuilt its phases and indices; the crossings must equal it
bit for bit.
"""

from itertools import accumulate

import numpy as np
import pytest
from hypothesis import Phase, given, settings, strategies as st

from stepgap.models import make_path
from stepgap.pauli import (_Y_PHASES, GateSpec, OperatorSum, PauliString,
                           Tapering, _Tableau, _anticommute,
                           _commuting_subset, _null_space, _signed, blend,
                           boundary_map, conjugate, string_expectation, taper)
from stepgap.spectra import Segment, sector_levels

_PAULI_MATRICES = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}


def y_count(term: PauliString) -> int:
    return term.factors.count("Y")


def reference_masks(term: PauliString) -> tuple[int, int]:
    """(flip mask, phase mask) of a term, read off its symbols: qubit 1 is
    the leading bit, set where X/Y respectively Z/Y act."""
    flip = zmask = 0
    for f in term.factors:
        flip = flip << 1 | (f in "XY")
        zmask = zmask << 1 | (f in "YZ")
    return flip, zmask


def reference_term_matrix(term: PauliString) -> np.ndarray:
    """Dense matrix of one term; real when the Y count is even."""
    mat = np.array([[term.coefficient]], dtype=complex)
    for f in term.factors:
        mat = np.kron(mat, _PAULI_MATRICES[f])
    if y_count(term) % 2 == 0:
        return mat.real.copy()
    return mat


def reference_dense(op: OperatorSum) -> np.ndarray:
    """Sum of the per-term Kronecker matrices, real for a real operator."""
    dim = 1 << op.n
    dtype = float if all(y_count(t) % 2 == 0 for t in op.terms) else complex
    mat = np.zeros((dim, dim), dtype=dtype)
    for term in op.terms:
        block = reference_term_matrix(term)
        mat += block if dtype is complex else block.real
    return mat


def reference_apply(op: OperatorSum, psi: np.ndarray) -> np.ndarray:
    """``op @ psi`` one term at a time, masks and signs rebuilt per call."""
    n = op.n
    idx = np.arange(1 << n, dtype=np.uint64)
    complex_out = np.iscomplexobj(psi) or any(y_count(t) % 2 for t in op.terms)
    out = np.zeros(1 << n, dtype=complex if complex_out else float)
    for term in op.terms:
        flip, zmask = reference_masks(term)
        phase = 1j ** y_count(term)
        if y_count(term) % 2 == 0:
            phase = phase.real
        # signs evaluated at y^flip equal signs at y up to a constant parity
        phase *= -1.0 if bin(flip & zmask).count("1") % 2 else 1.0
        contrib = psi[(idx ^ np.uint64(flip)).astype(np.intp)]
        if zmask:
            signs = 1 - 2 * (np.bitwise_count(idx & np.uint64(zmask))
                             .astype(np.int8) & 1)
            contrib = contrib * signs
        out += (term.coefficient * phase) * contrib
    return out


def flip_groups(op: OperatorSum) -> dict[int, np.ndarray]:
    """{flip mask: amplitude vector} of the compiled form."""
    return {flip: amp for flip, _, amp in op._compiled()}


# ---------------------------------------------------------------------------
# strategies
# ---------------------------------------------------------------------------

coefficients = st.floats(-2.0, 2.0, allow_nan=False, allow_infinity=False)


def label_string(factors, coefficient=1.0) -> PauliString:
    """The string of a sequence of symbols, qubit 1 first."""
    return PauliString.from_label("".join(factors), coefficient)


@st.composite
def pauli_sums(draw, n=None):
    """Random Pauli sums on 1-8 qubits, Y factors and duplicates included."""
    if n is None:
        n = draw(st.integers(1, 8))
    factors = st.tuples(*[st.sampled_from("IXYZ")] * n)
    terms = draw(st.lists(st.tuples(factors, coefficients), max_size=12))
    return OperatorSum(n, [label_string(f, c) for f, c in terms])


@st.composite
def sums_with_state(draw):
    op = draw(pauli_sums())
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    psi = rng.normal(size=1 << op.n)
    if draw(st.booleans()):
        psi = psi + 1j * rng.normal(size=1 << op.n)
    return op, psi / np.linalg.norm(psi)


def _even_zy(factors):
    """`factors` with its first factor swapped (I<->Z, X<->Y) when it holds
    an odd number of Z and Y factors, so the string commutes with X^n."""
    if sum(f in "YZ" for f in factors) % 2:
        factors = ("ZYXI"["IXYZ".index(factors[0])],) + factors[1:]
    return factors


@st.composite
def symmetric_sums(draw, n=None):
    """Random parity-symmetric Pauli sums on 2-8 qubits, plus one string
    with an odd number of Z and Y factors."""
    if n is None:
        n = draw(st.integers(2, 8))
    factors = st.tuples(*[st.sampled_from("IXYZ")] * n)
    terms = draw(st.lists(st.tuples(factors.map(_even_zy), coefficients),
                          max_size=12))
    odd = draw(factors.filter(lambda f: sum(x in "YZ" for x in f) % 2))
    return OperatorSum(n, [label_string(f, c) for f, c in terms]), odd


def strings_commute(a, b) -> bool:
    """Pauli strings commute when they differ, both non-identity, on an
    even number of qubits."""
    return sum(p != "I" != q and p != q for p, q in zip(a, b)) % 2 == 0


@st.composite
def planted_symmetry_sums(draw):
    """Random Pauli sums on 1-8 qubits, Y factors included: generic ones,
    ones whose terms commute with X^n, and ones built with I or Z on k
    qubits (k planted Z symmetries) that are then scrambled by a random
    relabelling of X, Y, Z per qubit and random CNOT conjugations."""
    n = draw(st.integers(1, 8))
    mode = draw(st.sampled_from(("generic", "bit-flip", "planted")))
    k = draw(st.integers(1, n)) if mode == "planted" else 0
    factors = st.tuples(*[st.sampled_from("IZ")] * k,
                        *[st.sampled_from("IXYZ")] * (n - k))
    if mode == "bit-flip":
        factors = factors.map(_even_zy)
    terms = draw(st.lists(st.tuples(factors, coefficients), min_size=n,
                          max_size=2 * n + 4))
    op = OperatorSum(n, [label_string(f, c) for f, c in terms])
    if mode != "planted":
        return op
    perms = draw(st.lists(st.permutations("XYZ"), min_size=n, max_size=n))
    op = OperatorSum(n, [label_string(
        (f if f == "I" else perm["XYZ".index(f)]
         for f, perm in zip(t.factors, perms)), t.coefficient)
        for t in op.terms])
    if n > 1:
        pairs = st.tuples(st.integers(1, n), st.integers(1, n))
        for c, t in draw(st.lists(pairs.filter(lambda p: p[0] != p[1]),
                                  max_size=6)):
            op = conjugate(op, GateSpec("CNOT", c, t))
    return op


def gf2_rank(rows) -> int:
    """Rank over GF(2) of integer bit rows."""
    rows, rank = [r for r in rows if r], 0
    while rows:
        pivot = max(rows)
        top = pivot.bit_length() - 1
        rows = [r ^ pivot if r >> top & 1 else r for r in rows]
        rows = [r for r in rows if r]
        rank += 1
    return rank


def symplectic_row(p: PauliString) -> int:
    """The string as the bit row (x|z)."""
    return int("".join("1" if f in "XY" else "0" for f in p.factors)
               + "".join("1" if f in "YZ" else "0" for f in p.factors), 2)


@st.composite
def sum_pairs(draw):
    n = draw(st.integers(1, 8))
    return draw(pauli_sums(n)), draw(pauli_sums(n)), draw(
        st.floats(0.0, 1.0, allow_nan=False))


# ---------------------------------------------------------------------------
# properties
# ---------------------------------------------------------------------------

@given(pauli_sums())
def test_to_dense_equals_kron_reference_exactly(op):
    got = op.to_dense()
    want = reference_dense(op)
    assert got.dtype == want.dtype
    assert np.array_equal(got, want)


@given(sums_with_state())
def test_apply_matches_per_term_reference(case):
    op, psi = case
    got = op.apply(psi)
    want = reference_apply(op, psi)
    assert got.dtype == want.dtype
    assert np.abs(got - want).max(initial=0.0) < 1e-12


@given(sum_pairs())
def test_blend_of_compiled_forms_equals_compiled_blend(case):
    op_a, op_b, s = case
    got = blend(op_a, op_b, s)
    want = (1.0 - s) * op_a + s * op_b
    assert got.terms == want.terms
    groups_got, groups_want = flip_groups(got), flip_groups(want)
    # is_real is carried over from the parents, not read off the groups
    assert got.is_real == (not any(map(np.iscomplexobj,
                                       groups_got.values())))
    # a flip group whose terms cancel is dropped from the canonical sum only
    assert set(groups_want) <= set(groups_got)
    for flip, amp in groups_got.items():
        ref = groups_want.get(flip, 0.0)
        assert np.abs(amp - ref).max() < 1e-12
    dim = 1 << op_a.n
    for flip, gather, _ in got._compiled():
        if flip:
            assert np.array_equal(gather, np.arange(dim) ^ flip)
        else:
            assert gather is None


def parity_fold(full: np.ndarray, sign: int) -> np.ndarray:
    """The dense parity block: ``H + sign H X^n`` on the basis states with
    the leading bit clear, H on span{|z> + sign |~z>}."""
    half = len(full) // 2
    return (full + sign * full[:, ::-1])[:half, :half]


@given(symmetric_sums(), st.data())
def test_parity_blocks_match_kron_reference(case, data):
    op, odd = case
    n, half = op.n, 1 << (op.n - 1)
    full = reference_dense(op)
    parity = reference_dense(OperatorSum(n, [label_string("X" * n)]))
    levels = []
    for sector, sign in (("even", 1), ("odd", -1)):
        res = sector_levels(op, sector, count=half)
        assert np.abs(res.eigenvalues - np.linalg.eigvalsh(
            parity_fold(full, sign))).max() < 1e-10
        vecs = res.eigenvectors
        assert np.abs(parity @ vecs - sign * vecs).max() < 1e-12
        assert np.abs(full @ vecs - vecs * res.eigenvalues).max() < 1e-10
        assert np.allclose(vecs.conj().T @ vecs, np.eye(half), atol=1e-10)
        levels += list(res.eigenvalues)
    want = np.linalg.eigvalsh(full)
    assert np.abs(np.sort(levels) - want).max() < 1e-10
    # the merged spectrum at a drawn count and at the full count 2^n
    for count in (data.draw(st.integers(1, 2 * half)), 2 * half):
        res = sector_levels(op, "all", count=count)
        assert np.abs(res.eigenvalues - want[:count]).max() < 1e-10
        signs = np.array([1 if lab == "even" else -1
                          for lab in res.sector_labels])
        assert np.abs(parity @ res.eigenvectors
                      - res.eigenvectors * signs).max() < 1e-12
    with pytest.raises(ValueError):
        sector_levels(op, "even", count=half + 1)
    bad = op + label_string(odd, 0.5)
    assert taper(op).parity(0) is not None and taper(bad).parity(0) is None
    with pytest.raises(ValueError, match="bit flip"):
        sector_levels(bad, "even")
    res = sector_levels(bad, "all", count=2 * half)
    assert res.sector_labels is None
    assert np.abs(res.eigenvalues
                  - np.linalg.eigvalsh(reference_dense(bad))).max() < 1e-10


@given(planted_symmetry_sums(), st.integers(0, 2**32 - 1), st.data())
def test_recorded_map_carries_states_to_the_tapered_blocks(op, seed, data):
    tapering = taper(op)
    n, dim, r = op.n, tapering.block_dim, len(tapering.generators)
    # the map U column by column: fold of each basis state
    unitary = np.column_stack([tapering.fold(np.eye(1 << n)[:, i]).ravel()
                               for i in range(1 << n)])
    assert np.abs(unitary.conj().T @ unitary - np.eye(1 << n)).max() < 1e-12
    assert np.abs(unitary @ reference_dense(op) @ unitary.conj().T
                  - reference_dense(tapering.operators[0])).max() < 1e-12
    # X^n, an X string, maps to +Z_1: the even blocks come first
    assert tapering.parity(0) is None or tapering.signs[0] == 1
    # a state drawn in block b folds into row b alone and lifts back
    b = data.draw(st.integers(0, (1 << r) - 1))
    rng = np.random.default_rng(seed)
    phi = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    psi = tapering.lift(phi / np.linalg.norm(phi), b)
    rows = tapering.fold(psi)
    assert np.abs(rows[b] - phi / np.linalg.norm(phi)).max() < 1e-12
    assert np.abs(np.delete(rows, b, axis=0)).max(initial=0.0) < 1e-12
    if dim > 1:
        got = tapering.lift(tapering.block(0, b).apply(rows[b]), b)
        assert np.abs(got - op.apply(psi)).max(initial=0.0) < 1e-12
    # unfold inverts fold for a state spread over every block, and a
    # second fold repeats the first exactly
    spread = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
    rows = tapering.fold(spread)
    assert np.abs(unitary @ spread - rows.ravel()).max() < 1e-12
    assert np.abs(tapering.unfold(rows) - spread).max() < 1e-12
    assert np.array_equal(tapering.fold(spread), rows)


def factored_blocks(tapering, k: int, blocks) -> np.ndarray:
    """Blocks `blocks` of ``tapering.operators[k]`` rebuilt from
    :meth:`Tapering.factor`, stacked ``(len(blocks), d, d)``."""
    index, consts, actives = tapering.factor(k, blocks)
    return consts[:, None, None] * np.eye(tapering.block_dim) + actives[index]


@given(planted_symmetry_sums(), st.data())
def test_factored_blocks_are_the_dense_blocks(op, data):
    # one sum, or the two ends of a blend, its terms split at random and
    # tapered under one map: for any blocks in any order, each block of
    # each operator is its constant times 1 plus its key's active matrix
    if data.draw(st.booleans()):
        ops = (op,)
    else:
        ends = data.draw(st.lists(st.booleans(), min_size=len(op.terms),
                                  max_size=len(op.terms)))
        ops = tuple(OperatorSum(op.n, [t for t, e in zip(op.terms, ends)
                                       if e == side]) for side in (0, 1))
    tapering = taper(*ops)
    dim, r = tapering.block_dim, len(tapering.generators)
    picked = data.draw(st.one_of(
        st.lists(st.integers(0, (1 << r) - 1), max_size=6),
        st.just(range(1 << r))))
    for k, mapped in enumerate(tapering.operators):
        index, consts, actives = tapering.factor(k, picked)
        # one key per distinct active part, shared by every operator
        assert np.array_equal(index, tapering.factor(0, picked)[0])
        assert len(actives) <= len(set(picked))
        assert np.abs(np.trace(actives, axis1=1, axis2=2)).max(
            initial=0.0) < 1e-12
        dense = reference_dense(mapped)
        assert np.abs(factored_blocks(tapering, k, picked) - np.array(
            [dense[j * dim:(j + 1) * dim, j * dim:(j + 1) * dim]
             for j in picked]).reshape(-1, dim, dim)).max(initial=0.0) < 1e-12


def reference_xz(n: int, x: int, z: int, q: int) -> np.ndarray:
    """The matrix of ``i^q X^x Z^z``: ``|j> -> i^q (-1)^popcount(j & z)
    |j ^ x>``."""
    j = np.arange(1 << n)
    mat = np.zeros((1 << n, 1 << n), dtype=complex)
    mat[j ^ x, j] = (1, 1j, -1, -1j)[q % 4] * (-1.0) ** np.bitwise_count(j & z)
    return mat


def fold_unitary(tapering) -> np.ndarray:
    """The recorded map C as a matrix, column i the fold of basis state i."""
    dim = tapering.block_dim << len(tapering.generators)
    return np.column_stack([tapering.fold(column).ravel()
                            for column in np.eye(dim)])


#: the tests that build :func:`fold_unitary` keep their examples but skip
#: shrinking a failure, which builds one 2^n x 2^n map per candidate and
#: once ran for minutes at about 1 GB
no_shrink = settings(phases=[p for p in Phase if p != Phase.shrink])


@no_shrink
@given(planted_symmetry_sums(), st.integers(0, 2**32 - 1))
def test_tableau_steps_conjugate_like_the_recorded_map(op, seed):
    # rows i^q X^x Z^z carried through a tapering's steps and pivot move
    # are C P C^dagger; carried back, they are the rows they started as
    tapering = taper(op)
    n, rng = op.n, np.random.default_rng(seed)
    rows = [(int(x), int(z), int(q)) for x, z, q in zip(
        *rng.integers(0, 1 << n, size=(2, 6)), rng.integers(0, 4, size=6))]
    tableau = _Tableau(n, rows)
    pivots = [p for _, _, p, _ in tapering.steps]
    for step in tapering.steps:
        tableau.step(*step)
    tableau.reorder(pivots)
    unitary = fold_unitary(tapering)
    for got, want in zip(tableau.rows(), rows):
        assert np.abs(reference_xz(n, *got) - unitary @ reference_xz(
            n, *want) @ unitary.conj().T).max() < 1e-12
    tableau.reorder(pivots, inverse=True)
    for step in tapering.steps[::-1]:
        tableau.step(*step, inverse=True)
    assert tableau.rows() == rows


@no_shrink
@given(planted_symmetry_sums(), st.data())
def test_conjugated_strings_are_the_folded_strings(op, data):
    # C P C^dagger of a string with Y factors among the others, and its
    # expectation on folded states, against the dense map
    tapering, n = taper(op), op.n
    factors = data.draw(st.tuples(*[st.sampled_from("IXYZ")] * n))
    string = label_string(factors, data.draw(coefficients))
    unitary = fold_unitary(tapering)
    got = tapering.conjugated(string)
    assert (got.n, abs(got.coefficient)) == (n, abs(string.coefficient))
    dense = reference_dense(OperatorSum(n, [string]))
    assert np.abs(reference_dense(OperatorSum(n, [got]))
                  - unitary @ dense @ unitary.conj().T).max() < 1e-12
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    psi = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
    assert abs(string_expectation(got, tapering.fold(psi).ravel())
               - np.vdot(psi, dense @ psi).real) < 1e-10


@no_shrink
@given(planted_symmetry_sums(), st.data())
def test_boundary_map_is_unfold_then_fold_up_to_a_unit(op, data):
    # from one sum's tapering to another on as many qubits: of a generic
    # sum, often without generators (C = 1), of the sum with it, or of the
    # sum under a CNOT
    a, n = taper(op), op.n
    other = data.draw(pauli_sums(n))
    pair = st.tuples(st.integers(1, n), st.integers(1, n)).filter(
        lambda p: p[0] != p[1])
    kind = data.draw(st.sampled_from(
        ["generic", "both"] + (["cnot"] if n > 1 else [])))
    if kind == "generic":
        b = taper(other)
    elif kind == "both":
        b = taper(op, other)
    else:
        b = taper(conjugate(op, GateSpec("CNOT", *data.draw(pair))))
    want = fold_unitary(b) @ fold_unitary(a).conj().T
    crossing = boundary_map(a, b)
    got = np.column_stack([crossing(column.reshape(-1, a.block_dim)).ravel()
                           for column in np.eye(1 << n)])
    assert got.shape == want.shape
    unit = np.vdot(got[:, 0], want[:, 0])
    assert abs(abs(unit) - 1.0) < 1e-12
    assert np.abs(unit * got - want).max() < 1e-12


@given(planted_symmetry_sums())
def test_tapered_blocks_hold_the_full_spectrum(op):
    tapering = taper(op)
    gens, r = tapering.generators, len(tapering.generators)
    want = np.linalg.eigvalsh(reference_dense(op))
    segment = Segment(op)
    got = segment.levels((1.0,), segment.sector("all"), 1 << op.n,
                         want_vectors=False).eigenvalues
    assert got.shape == want.shape
    assert np.abs(got - want).max() < 1e-10
    assert gf2_rank(symplectic_row(g) for g in gens) == r
    assert all(strings_commute(a.factors, b.factors)
               for a in gens for b in gens + op.terms)
    # maximal: the largest commuting set of symmetries has n - rank(C)/2
    # members, C the GF(2) matrix of which terms anticommute
    anti = [sum(1 << j for j, b in enumerate(op.terms)
                if not strings_commute(a.factors, b.factors))
            for a in op.terms]
    assert r == op.n - gf2_rank(anti) // 2
    xall = ("X",) * op.n
    if all(strings_commute(xall, t.factors) for t in op.terms):
        assert gens[0].factors == xall
    assert all(f in "IZ" for t in tapering.operators[0].terms
               for f in t.factors[:r])


@given(planted_symmetry_sums(), st.data())
def test_one_tapering_blocks_every_blend_of_two_sums(op, data):
    # the terms split at random into two endpoints, tapered under one map
    ends = data.draw(st.lists(st.booleans(), min_size=len(op.terms),
                              max_size=len(op.terms)))
    op_a = OperatorSum(op.n, [t for t, e in zip(op.terms, ends) if e])
    op_b = OperatorSum(op.n, [t for t, e in zip(op.terms, ends) if not e])
    s = data.draw(st.floats(0.0, 1.0, allow_nan=False))
    tapering = taper(op_a, op_b)
    mixed = blend(op_a, op_b, s)

    def blocks(sector):
        stack_a, stack_b = (factored_blocks(tapering, k,
                                            tapering.sector(sector))
                            for k in (0, 1))
        return np.sort(np.linalg.eigvalsh((1 - s) * stack_a + s * stack_b),
                       axis=None)

    full = reference_dense(mixed)
    want = np.linalg.eigvalsh(full)
    assert np.abs(blocks("all") - want).max() < 1e-10
    # block b is the joint eigenspace where generator j reads
    # signs[j] (-1)^(bit j of b), qubit 1 the leading bit
    gens, r = tapering.generators, len(tapering.generators)
    b = data.draw(st.integers(0, (1 << r) - 1))
    proj = np.eye(1 << op.n)
    for j, (g, sign) in enumerate(zip(gens, tapering.signs)):
        value = sign * (-1) ** (b >> (r - 1 - j) & 1)
        proj = proj @ (np.eye(1 << op.n) + value * reference_dense(
            OperatorSum(op.n, [g]))) / 2
    w, v = np.linalg.eigh(proj)
    span = v[:, w > 0.5]
    stack_a, stack_b = (factored_blocks(tapering, k, range(b, b + 1))
                        for k in (0, 1))
    assert np.abs(np.linalg.eigvalsh(span.conj().T @ full @ span)
                  - np.linalg.eigvalsh((1 - s) * stack_a[0] + s * stack_b[0])
                  ).max() < 1e-10
    if tapering.generators[:1] == (PauliString(op.n, (1 << op.n) - 1, 0),):
        assert len(tapering.signs) == len(tapering.generators)
        if op.n >= 2:
            for sector, sign in (("even", 1), ("odd", -1)):
                assert np.abs(blocks(sector) - np.linalg.eigvalsh(
                    parity_fold(full, sign))).max() < 1e-10
    else:
        with pytest.raises(ValueError):
            tapering.sector("even")


def test_pauli_string_apply_matches_reference():
    rng = np.random.default_rng(3)
    op = OperatorSum(3, [PauliString.from_label("YZX", -0.7)])
    psi = rng.normal(size=8)
    want = reference_apply(op, psi)
    assert np.abs(op.apply(psi) - want).max() < 1e-15


def bits(mask: int) -> list[int]:
    return [c for c in range(mask.bit_length()) if mask >> c & 1]


class GateListTableau(_Tableau):
    """The tableau with each step run from a list of its gates, in order,
    and in reverse for the inverse."""

    def step(self, ys, xs, p, fan_in, inverse=False):
        x, z = self.x, self.z
        gates = [("S", c, c) for c in bits(ys)] + [
            ("CX", p, t) for t in bits(xs & ~(1 << p))] + [
            ("H", p, p)] * (xs > 0) + [("CX", c, p) for c in bits(fan_in)]
        for gate, c, t in gates[::-1] if inverse else gates:
            if gate == "CX":
                x[t] ^= x[c]
                z[c] ^= z[t]
            elif gate == "H":
                self.q1 ^= x[c] & z[c]
                x[c], z[c] = z[c], x[c]
            else:
                z[c] ^= x[c]
                self.q1 ^= x[c] & (~self.q0 if inverse else self.q0)
                self.q0 ^= x[c]


def gate_list_taper(*ops):
    """`taper` with every term, repeated or not, carried on its own row of
    a :class:`GateListTableau`, and ``X^n`` tested by `_anticommute`."""
    n = ops[0].n
    terms = tuple(t for op in ops for t in op.terms)
    low, xall = (1 << n) - 1, ((1 << n) - 1) << n
    packed = [term.x << n | term.z for term in terms]
    kernel = _null_space([(v & low) << n | v >> n for v in packed], 2 * n)
    vectors = list(kernel.values())
    if not any(_anticommute(v, xall, n) for v in packed):
        del kernel[next(f for f in kernel if xall >> f & 1)]
        vectors = [xall, *kernel.values()]
    generators = tuple(PauliString(n, g >> n, g & low)
                       for g in _commuting_subset(vectors, n))
    r = len(generators)
    tableau = GateListTableau(n, [(p.x, p.z, p.y_count)
                                  for p in generators + terms])
    free, steps = low, []
    for i in range(r):
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
    mapped = [_signed(n, *row, term.coefficient)
              for row, term in zip(rows[r:], terms)]
    cuts = list(accumulate((len(op.terms) for op in ops), initial=0))
    return Tapering(generators, tuple(1 - q % 4 for _, _, q in rows[:r]),
                    tuple(OperatorSum(n, mapped[a:b])
                          for a, b in zip(cuts, cuts[1:])), tuple(steps))


@given(planted_symmetry_sums(), st.data())
def test_tapering_equals_the_gate_list_taper(op, data):
    # a second sum that shares some of the first's terms, with other
    # coefficients, as the two ends of a path segment do
    n = op.n
    shared = data.draw(st.lists(st.sampled_from(op.terms), max_size=8)
                       if op.terms else st.just([]))
    scales = data.draw(st.lists(coefficients, min_size=len(shared),
                                max_size=len(shared)))
    other = OperatorSum(n, [PauliString(n, t.x, t.z, c * t.coefficient)
                            for t, c in zip(shared, scales)]
                        + list(data.draw(pauli_sums(n)).terms))
    for ops in ((op,), (op, other), (other, op, op)):
        assert taper(*ops) == gate_list_taper(*ops)


@pytest.mark.parametrize("family, sizes", [
    (family, [{"n": n} for n in range(3, 13)]) for family in (
        "ising-stepwise", "ising-linear", "cluster1d-stepwise",
        "cluster1d-linear")] + [("cluster2d-stepwise", [
            {"width": w, "height": h} for w, h in ((2, 2), (3, 2), (3, 3))])])
def test_path_taperings_equal_the_gate_list_taper(family, sizes):
    # every segment's ends, and every path's operators all at once
    for size in sizes:
        path = make_path(family, **size)
        for ops in [path.segment(k) for k in range(path.segment_count)] + [
                path.operators]:
            assert taper(*ops) == gate_list_taper(*ops)


@given(st.integers(1, 8), st.integers(0, 2**32 - 1), st.booleans())
def test_tableau_step_equals_the_gate_list_step(n, seed, inverse):
    rng = np.random.default_rng(seed)
    rows = [(int(x), int(z), int(q)) for x, z, q in zip(
        *rng.integers(0, 1 << n, size=(2, 6)), rng.integers(0, 4, size=6))]
    p = int(rng.integers(0, n))
    ys, xs, fan_in = (int(v) for v in rng.integers(0, 1 << n, size=3))
    fan_in &= ~(1 << p)
    got, want = _Tableau(n, rows), GateListTableau(n, rows)
    for tableau in (got, want):
        tableau.step(ys, xs | 1 << p, p, fan_in, inverse)
        tableau.step(ys, 0, p, fan_in, inverse)
    assert got.rows() == want.rows()


def per_call_boundary_map(a: Tapering, b: Tapering):
    """`boundary_map` with one byte of phase per term and index, its phases
    and indices rebuilt on every crossing."""
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
    lead, checks = {}, []
    for x, z, q in rows[n:]:
        while x and x.bit_length() - 1 in lead:
            px, pz, pq = lead[x.bit_length() - 1]
            x, z, q = x ^ px, z ^ pz, q + pq + 2 * (z & px).bit_count()
        if x:
            lead[x.bit_length() - 1] = x, z, q
        else:
            checks.append(z << 1 | q >> 1 & 1)
    support, phases = [_null_space(checks, n + 1)[0] >> 1], [0]
    for px, pz, pq in lead.values():
        phases += [e + pq + 2 * (y & pz).bit_count()
                   for y, e in zip(support, phases)]
        support += [y ^ px for y in support]
    gather = np.zeros(1, np.intp)
    exponents = np.array([[-e % 4] for e in phases], np.uint8)
    for x, z, q in rows[:n]:
        shift = [[q + 2 * (z & y).bit_count() & 3] for y in support]
        exponents = np.concatenate([exponents, exponents - np.array(
            shift, np.uint8) - (np.bitwise_count(gather & z) << 1)], axis=1)
        gather = np.concatenate([gather, gather ^ x])
    exponents &= 3
    support, scale = np.array(support)[:, None], 2.0 ** (-len(lead) / 2)

    def crossing(rows: np.ndarray) -> np.ndarray:
        terms = np.take(np.array(_Y_PHASES), exponents)
        terms *= rows.ravel()[gather ^ support]
        return (scale * terms.sum(0)).reshape(-1, b.block_dim)
    return crossing


def assert_crossings_bitwise_equal(a: Tapering, b: Tapering, rng) -> None:
    crossing, want = boundary_map(a, b), per_call_boundary_map(a, b)
    n = a.operators[0].n
    rows = (rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)).reshape(
        -1, a.block_dim)
    # a basis state too: its crossings hold exact zeros
    for x in rows, np.eye(1 << n, 1, dtype=complex).reshape(rows.shape):
        for _ in range(2):  # a map is built once and crossed many times
            got = crossing(x)
            assert got.dtype == want(x).dtype and got.shape == want(x).shape
            assert got.tobytes() == want(x).tobytes()


@given(planted_symmetry_sums(), st.integers(0, 2**32 - 1), st.data())
def test_boundary_map_equals_the_per_call_map_bitwise(op, seed, data):
    other = data.draw(pauli_sums(op.n))
    a, rng = taper(op), np.random.default_rng(seed)
    for b in taper(other), taper(op, other), a:
        assert_crossings_bitwise_equal(a, b, rng)
        assert_crossings_bitwise_equal(b, a, rng)


@pytest.mark.parametrize("family, size", [
    ("ising-stepwise", {"n": 9}), ("cluster1d-stepwise", {"n": 10}),
    ("cluster2d-stepwise", {"width": 3, "height": 3})])
def test_path_boundary_maps_equal_the_per_call_maps_bitwise(family, size):
    path, rng = make_path(family, **size), np.random.default_rng(7)
    taperings = [taper(*path.segment(k)) for k in range(path.segment_count)]
    for a, b in zip(taperings, taperings[1:]):
        assert_crossings_bitwise_equal(a, b, rng)
