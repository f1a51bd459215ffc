"""Unit tests for the Pauli-string operator layer."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from stepgap.pauli import (
    GateSpec,
    OperatorSum,
    PauliString,
    ProjectorSum,
    basis_state,
    blend,
    conjugate,
    ghz_state,
    parity_apply,
    parity_expectation,
    parity_operator,
    uniform_superposition,
)
from stepgap.spectra import lowest_eigenpairs

RNG = np.random.default_rng(20240811)

SYMBOLS = "IXYZ"


def random_operator(n, n_terms, rng):
    terms = [
        PauliString.from_label("".join(rng.choice(list(SYMBOLS), size=n)),
                               float(rng.normal()))
        for _ in range(n_terms)
    ]
    return OperatorSum(n, terms)


def random_state(n, rng, complex_=True):
    psi = rng.normal(size=1 << n)
    if complex_:
        psi = psi + 1j * rng.normal(size=1 << n)
    return psi / np.linalg.norm(psi)


# ---------------------------------------------------------------------------
# construction and canonicalization
# ---------------------------------------------------------------------------

def test_pauli_string_validation():
    with pytest.raises(ValueError):
        PauliString(2, 4, 0)
    with pytest.raises(ValueError):
        PauliString.from_label("XQ")
    with pytest.raises(ValueError):
        PauliString.from_ops(2, {3: "X"})
    with pytest.raises(ValueError):
        PauliString.from_ops(2, {1: "Q"})
    with pytest.raises(ValueError):
        PauliString.from_label("")
    with pytest.raises(ValueError):
        PauliString(0, 0, 0)


labels = st.text("IXYZ", min_size=1, max_size=8)


@given(labels, st.floats(-2.0, 2.0, allow_nan=False))
def test_label_round_trips_through_bits(label, coeff):
    p = PauliString.from_label(label, coeff)
    assert (p.n, "".join(p.factors), p.coefficient) == (len(label), label,
                                                         coeff)
    assert p.y_count == label.count("Y")
    ops = {q: f for q, f in enumerate(label, start=1) if f != "I"}
    assert PauliString.from_ops(len(label), ops, coeff) == p
    assert str(p) == f"{coeff:+g}*{label}"


@given(labels, st.sampled_from("xz"), st.integers(1, 3),
       st.text("ABQixyz ", min_size=1, max_size=3))
def test_bad_labels_and_rows_raise(label, which, excess, junk):
    n = len(label)
    with pytest.raises(ValueError):
        PauliString.from_label(label + junk)
    # a bit at or above n, then a negative row
    row = {"x": 0, "z": 0, which: 1 << (n + excess - 1)}
    with pytest.raises(ValueError):
        PauliString(n, row["x"], row["z"])
    row[which] = -1
    with pytest.raises(ValueError):
        PauliString(n, row["x"], row["z"])


def test_operator_sum_merges_duplicates():
    a = PauliString.from_ops(3, {1: "Z", 2: "Z"}, 0.75)
    b = PauliString.from_ops(3, {1: "Z", 2: "Z"}, 0.25)
    op = OperatorSum(3, [a, b])
    assert len(op) == 1
    assert op.terms[0].coefficient == pytest.approx(1.0)


def test_operator_sum_drops_zero_terms():
    a = PauliString.from_ops(2, {1: "X"}, 1.0)
    op = OperatorSum(2, [a, -a])
    assert len(op) == 0
    assert np.allclose(op.to_dense(), 0.0)


def test_operator_sum_immutable():
    op = OperatorSum(2, [PauliString.from_ops(2, {1: "X"})])
    with pytest.raises(AttributeError):
        op.n = 3


def test_mixed_qubit_counts_rejected():
    with pytest.raises(ValueError):
        OperatorSum(3, [PauliString.from_ops(2, {1: "X"})])
    op2 = OperatorSum(2, [PauliString.from_ops(2, {1: "X"})])
    op3 = OperatorSum(3, [PauliString.from_ops(3, {1: "X"})])
    with pytest.raises(ValueError):
        op2 + op3
    with pytest.raises(ValueError):
        op2.apply(np.zeros(8))


# ---------------------------------------------------------------------------
# apply
# ---------------------------------------------------------------------------

def test_apply_minus_sigma_x_flips_single_qubit():
    op = OperatorSum(1, [PauliString.from_ops(1, {1: "X"}, -1.0)])
    out = op.apply(basis_state(1, [0]))
    assert np.allclose(out, -basis_state(1, [1]))


def test_apply_field_hamiltonian_on_plus_state():
    n = 3
    h_i = OperatorSum(n, [PauliString.from_ops(n, {i: "X"}, -1.0)
                          for i in range(1, n + 1)])
    psi = uniform_superposition(n)
    assert np.allclose(h_i.apply(psi), -n * psi)


def test_apply_kink_counting_on_antiferromagnetic_state():
    # periodic 4-qubit bond Hamiltonian on |0101>: all four bonds disagree
    n = 4
    bonds = [(1, 2), (2, 3), (3, 4), (4, 1)]
    h_f = OperatorSum(n, [PauliString.from_ops(n, {a: "Z", b: "Z"}, -1.0)
                          for a, b in bonds])
    psi = basis_state(n, [0, 1, 0, 1])
    # brute-force oracle over the 4 bonds
    bits = [0, 1, 0, 1]
    energy = -sum((-1) ** (bits[a - 1] ^ bits[b - 1]) for a, b in bonds)
    assert energy == 4
    assert np.allclose(h_f.apply(psi), energy * psi)


def test_apply_matches_dense_on_random_states():
    for n in (2, 3, 5, 7):
        op = random_operator(n, 2 * n, RNG)
        mat = op.to_dense()
        for _ in range(3):
            psi = random_state(n, RNG)
            assert np.linalg.norm(op.apply(psi) - mat @ psi) < 1e-12


def test_apply_y_phases_exact():
    op = OperatorSum(2, [PauliString.from_label("YI", 1.0)])
    # Y|0> = i|1>, Y|1> = -i|0>
    assert np.allclose(op.apply(basis_state(2, [0, 1]).astype(complex)),
                       1j * basis_state(2, [1, 1]))
    assert np.allclose(op.apply(basis_state(2, [1, 0]).astype(complex)),
                       -1j * basis_state(2, [0, 0]))


def test_real_operator_keeps_real_dtype():
    op = OperatorSum(3, [PauliString.from_label("YYI", 0.5),
                         PauliString.from_label("ZIX", -1.0)])
    assert op.is_real
    out = op.apply(np.ones(8))
    assert out.dtype == np.float64


# ---------------------------------------------------------------------------
# to_dense
# ---------------------------------------------------------------------------

def test_dense_sigma_z_single_qubit():
    op = OperatorSum(1, [PauliString.from_ops(1, {1: "Z"})])
    assert np.allclose(op.to_dense(), np.diag([1.0, -1.0]))


def test_dense_zz_two_qubits():
    op = OperatorSum(2, [PauliString.from_ops(2, {1: "Z", 2: "Z"})])
    assert np.allclose(op.to_dense(), np.diag([1.0, -1.0, -1.0, 1.0]))


def test_dense_cap_enforced():
    op = OperatorSum(3, [PauliString.from_ops(3, {1: "X"})])
    with pytest.raises(ValueError):
        op.to_dense(cap=2)


def test_dense_hermitian_for_random_operators():
    for n in (2, 4, 6):
        op = random_operator(n, 3 * n, RNG)
        mat = op.to_dense()
        assert np.abs(mat - mat.conj().T).max() < 1e-14


def test_dense_matches_apply_on_basis_vectors():
    n = 4
    op = random_operator(n, 8, RNG)
    mat = op.to_dense()
    for z in range(1 << n):
        col = op.apply(basis_state(n, z).astype(complex))
        assert np.allclose(mat[:, z], col, atol=1e-13)


# ---------------------------------------------------------------------------
# conjugation
# ---------------------------------------------------------------------------

def _two_qubit_term(pc, qt, control=1, target=2, n=2):
    return PauliString.from_ops(
        n, {k: v for k, v in ((control, pc), (target, qt)) if v != "I"})


@pytest.mark.parametrize("kind", ["CNOT", "CZ"])
def test_conjugation_rules_match_dense(kind):
    # exhaustively over all 16 two-qubit Pauli pairs, both orientations
    for control, target in [(1, 2), (2, 1)]:
        gate = GateSpec(kind, control, target)
        smat = gate.to_matrix(2)
        for pc in SYMBOLS:
            for qt in SYMBOLS:
                term = _two_qubit_term(pc, qt, control, target)
                op = OperatorSum(2, [term])
                got = conjugate(op, gate).to_dense()
                want = smat @ op.to_dense() @ smat
                assert np.abs(got - want).max() < 1e-13, (kind, pc, qt)


@st.composite
def conjugation_cases(draw):
    """A random Pauli sum on 3-6 qubits and a CNOT or CZ on two distinct
    qubits in either order."""
    n = draw(st.integers(3, 6))
    terms = draw(st.lists(st.tuples(st.text("IXYZ", min_size=n, max_size=n),
                                    st.floats(-2.0, 2.0, allow_nan=False)),
                          min_size=1, max_size=6))
    control, target = draw(st.permutations(range(1, n + 1)))[:2]
    gate = GateSpec(draw(st.sampled_from(("CNOT", "CZ"))), control, target)
    return OperatorSum(n, [PauliString.from_label(f, c) for f, c in terms]), \
        gate


@given(conjugation_cases())
def test_conjugation_matches_dense_gate(case):
    op, gate = case
    smat = gate.to_matrix(op.n)
    got = conjugate(op, gate).to_dense()
    want = smat @ op.to_dense() @ smat
    assert np.abs(got - want).max(initial=0.0) < 1e-13


def test_conjugation_identities_zz_cnot():
    op = OperatorSum(3, [PauliString.from_ops(3, {1: "Z", 2: "Z"})])
    got = conjugate(op, GateSpec("CNOT", 1, 2))
    assert got == OperatorSum(3, [PauliString.from_ops(3, {2: "Z"})])


def test_conjugation_identities_zx_cz():
    op = OperatorSum(3, [PauliString.from_ops(3, {2: "Z", 3: "X"})])
    got = conjugate(op, GateSpec("CZ", 2, 3))
    assert got == OperatorSum(3, [PauliString.from_ops(3, {3: "X"})])


def test_conjugation_identities_x_target_cnot():
    op = OperatorSum(3, [PauliString.from_ops(3, {2: "X"})])
    got = conjugate(op, GateSpec("CNOT", 1, 2))
    assert got == op


@pytest.mark.parametrize("kind", ["CNOT", "CZ"])
def test_conjugation_is_involution(kind):
    for n in (2, 4, 5):
        gate = GateSpec(kind, 1, n)
        op = random_operator(n, 3 * n, RNG)
        assert conjugate(conjugate(op, gate), gate) == op


@pytest.mark.parametrize("kind", ["CNOT", "CZ"])
def test_conjugation_preserves_spectrum(kind):
    for n in (3, 5):
        for trial in range(3):
            op = random_operator(n, 2 * n, RNG)
            gate = GateSpec(kind, 2, 3)
            w0 = np.linalg.eigvalsh(op.to_dense())
            w1 = np.linalg.eigvalsh(conjugate(op, gate).to_dense())
            assert np.abs(w0 - w1).max() < 1e-10


def test_conjugation_rejects_out_of_range_gate():
    op = OperatorSum(2, [PauliString.from_ops(2, {1: "X"})])
    with pytest.raises(ValueError):
        conjugate(op, GateSpec("CNOT", 1, 3))


def test_gate_spec_validation():
    with pytest.raises(ValueError):
        GateSpec("CNOT", 2, 2)
    with pytest.raises(ValueError):
        GateSpec("SWAP", 1, 2)


# ---------------------------------------------------------------------------
# parity
# ---------------------------------------------------------------------------

def test_parity_apply_reverses_bits():
    out = parity_apply(basis_state(3, [0, 0, 0]))
    assert np.allclose(out, basis_state(3, [1, 1, 1]))


def test_parity_leaves_uniform_superposition_invariant():
    psi = uniform_superposition(4)
    assert np.allclose(parity_apply(psi), psi)
    assert parity_expectation(psi) == pytest.approx(1.0)


def test_parity_odd_bell_state():
    psi = (basis_state(2, [0, 0]) - basis_state(2, [1, 1])) / np.sqrt(2)
    assert np.allclose(parity_apply(psi), -psi)
    assert parity_expectation(psi) == pytest.approx(-1.0)


def test_parity_operator_matches_parity_apply():
    n = 4
    op = parity_operator(n)
    psi = random_state(n, RNG)
    assert np.allclose(op.apply(psi), parity_apply(psi))


def test_parity_expectation_of_ghz():
    assert parity_expectation(ghz_state(5)) == pytest.approx(1.0)


# ---------------------------------------------------------------------------
# projector sums
# ---------------------------------------------------------------------------

def real_operator(n, n_terms, rng):
    """A random Pauli sum with an even number of Y factors per string, so
    its matrix is real symmetric."""
    terms = []
    while len(terms) < n_terms:
        label = "".join(rng.choice(list(SYMBOLS), size=n))
        if label.count("Y") % 2 == 0:
            terms.append(PauliString.from_label(label, float(rng.normal())))
    return OperatorSum(n, terms)


def test_dense_operator_apply_and_blend():
    # a projector sum holding a Pauli sum's eigendecomposition is that sum
    n = 3
    a = real_operator(n, 5, RNG)
    lam, vecs = np.linalg.eigh(a.to_dense().real)
    pa = ProjectorSum(n, 0.0, -lam, vecs.T)
    psi = random_state(n, RNG, complex_=False)
    assert np.allclose(pa.apply(psi), a.apply(psi))
    assert np.allclose(pa.to_dense(), a.to_dense())
    pb = ProjectorSum(n, 1.0, (0.0,), basis_state(n, [0, 0, 0]))
    mix = 0.25 * pa + 0.75 * pb
    want = 0.25 * a.to_dense() + 0.75 * np.eye(1 << n)
    assert np.allclose(mix.to_dense(), want)
    assert np.allclose(blend(pa, pb, 0.75).to_dense(), want)


def test_dense_operator_shape_validation():
    with pytest.raises(ValueError):
        ProjectorSum(2, 1.0, (1.0,), np.ones(3))
    with pytest.raises(ValueError):
        ProjectorSum(2, 1.0, (1.0, 1.0), np.ones(4))
    with pytest.raises(ValueError):
        ProjectorSum.complement(np.ones(4) / 2).apply(np.ones(3))


weights = st.floats(-2.0, 2.0, allow_nan=False, allow_infinity=False)


@st.composite
def projector_sums(draw):
    """A ProjectorSum, its dense oracle, a state, an eigen count and a
    second sum to blend with."""
    n = draw(st.integers(1, 7))
    r = draw(st.integers(1, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    vecs = rng.standard_normal((r, 1 << n))
    vecs /= np.linalg.norm(vecs, axis=1)[:, None]
    if r > 1 and draw(st.booleans()):
        vecs[1] = vecs[0]  # an equal-count step such as 8 -> 8
    shift = draw(weights)
    w = np.array(draw(st.lists(weights, min_size=r, max_size=r)))
    op = ProjectorSum(n, shift, w, vecs)
    oracle = shift * np.eye(1 << n) - sum(
        wj * np.outer(v, v) for wj, v in zip(w, vecs))
    count = draw(st.integers(1, min(r + 2, 1 << n)))
    other = ProjectorSum.complement(vecs[-1])
    s = draw(st.floats(0.0, 1.0, allow_nan=False))
    return op, oracle, rng.standard_normal(1 << n), count, other, s


@given(projector_sums())
def test_projector_sum_matches_dense_oracle(case):
    op, oracle, psi, count, other, s = case
    n = op.n
    assert np.abs(op.apply(psi) - oracle @ psi).max() < 1e-12
    assert np.abs(op.to_dense() - oracle).max() < 1e-12
    res = lowest_eigenpairs(op, count)
    want = np.linalg.eigvalsh(oracle)[:count]
    assert np.abs(res.eigenvalues - want).max() < 1e-12
    for lam, v in zip(res.eigenvalues, res.eigenvectors.T):
        assert np.linalg.norm(op.apply(v) - lam * v) <= 1e-10
    mixed = blend(op, other, s)
    want_mix = (1 - s) * oracle + s * other.to_dense()
    assert np.abs(mixed.to_dense() - want_mix).max() < 1e-12
    with pytest.raises(ValueError):
        op.apply(np.ones((1 << n) + 1))
    with pytest.raises(ValueError):
        ProjectorSum(n, op.shift, op.weights, op.vectors[:, 1:])


def test_apply_matches_dense_ten_qubits():
    op = random_operator(10, 12, RNG)
    mat = op.to_dense()
    psi = random_state(10, RNG)
    assert np.linalg.norm(op.apply(psi) - mat @ psi) < 1e-12
