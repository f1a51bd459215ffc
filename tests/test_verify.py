"""The checks of `verify` against the routes they replaced.

Every level check reads its levels from `Segment.values` calls of bounded
size, its segment's ends tapered once under one map.  `dense_values` is the
route the four step checks replaced, one `eigvalsh` of the 2^n x 2^n blend
per sample point; it stays here as the oracle, so a tapered spectrum that
dropped or moved a level would show, and `levels_segment_deviation` the
route before the batch, one `Segment.levels` per sample point, whose
deviations it keeps.  `full_space_ground_energy_deviation` keeps the route
the ground-energy check replaced, one full-space `lowest_eigenpairs` of
the 2^n blend per point, and `dense_ec3_two_level_deviation` that of the
EC3 check, one dense `eigvalsh` of each projector blend.  Likewise
`eigvalsh_conjugation_deviation` keeps the route the conjugation check
replaced, two `eigvalsh` spectra per seeded draw, as the oracle of its
signed-permutation certificate, and `dense_similarity_deviation` the route
before the entry-wise form, S H S gathered from the gate's dense matrix and
compared with the dense conjugated sum.
"""

import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from stepgap import analytic, ec3, verify
from stepgap.models import lattice_build_order, make_path
from stepgap.pauli import (GateSpec, OperatorSum, PauliString, blend,
                           conjugate)
from stepgap.spectra import Segment, lowest_eigenpairs


def dense_values(segment, weights, blocks, count):
    """`Segment.values` of a segment's full spectrum, from one `eigvalsh`
    of the dense blend per row ``(1 - s, s)`` of `weights`."""
    return [np.linalg.eigvalsh(blend(*segment.operators, s).to_dense())
            for _, s in weights]


def levels_segment_deviation(path, k, grid, levels_at, count=None) -> float:
    """`verify._segment_deviation` of a full spectrum with one
    `Segment.levels` per sample."""
    assert count is None
    segment = Segment(*path.segment(k))
    blocks = segment.sector("all")
    return max(verify._match_deviation(segment.levels(
        (1.0 - s, s), blocks, len(blocks) * segment.tapering.block_dim,
        want_vectors=False).eigenvalues, levels_at(s)) for s in grid)


def full_space_ground_energy_deviation(n, points) -> float:
    """`verify.ground_energy_deviation` from one full-space
    `lowest_eigenpairs` of the 2^n blend per point."""
    path = make_path("ising-linear", n=n)
    return max(abs(lowest_eigenpairs(path.at_progress(s), 1,
                                     want_vectors=False).eigenvalues[0]
                   - analytic.ising_linear_ground_energy(n, s))
               for s in np.linspace(0.0, 1.0, points))


def ec3_draws():
    """The (instance, order) pairs of `verify.ec3_two_level_deviation()`:
    three satisfiable 6-bit 4-clause instances from seed 99, given order."""
    rng = np.random.default_rng(99)
    instances = [ec3.random_satisfiable_instance(6, 4, rng) for _ in range(3)]
    return [(inst, ec3.order_clauses(inst)) for inst in instances]


def dense_ec3_two_level_deviation() -> float:
    """`verify.ec3_two_level_deviation()` from one dense `eigvalsh` of each
    projector blend at s = 1/4, 1/2, 3/4, compared element by element."""
    worst = 0.0
    for inst, order in ec3_draws():
        gaps = ec3.path_gaps(ec3.solution_counts(inst, order))
        dense = [op.to_dense()
                 for op in ec3.projector_hamiltonian(inst, order)]
        for k in range(inst.m):
            for s in (0.25, 0.5, 0.75):
                w = np.linalg.eigvalsh((1 - s) * dense[k] + s * dense[k + 1])
                lam0, lam1 = analytic.projector_two_level(gaps[k], s)
                worst = max(worst, abs(w[0] - lam0), abs(w[1] - lam1))
    return worst


def spectrum_at(segment, s):
    blocks = segment.sector("all")
    return segment.values([(1.0 - s, s)], blocks,
                          len(blocks) * segment.tapering.block_dim)[0]


LEVEL_CHECKS = (verify.first_step_deviation, verify.mid_step_deviation,
                verify.cluster_step_deviation, verify.two_link_deviation)


@pytest.mark.parametrize("check", LEVEL_CHECKS, ids=lambda f: f.__name__)
def test_level_check_equals_dense_route(check, monkeypatch):
    got = check(6, points=11)
    monkeypatch.setattr(Segment, "values", dense_values)
    want = check(6, points=11)
    assert got < 1e-8
    assert abs(got - want) <= 1e-12


@pytest.mark.parametrize("n, points", [(8, 7), (12, 5)])
@pytest.mark.parametrize("check", LEVEL_CHECKS, ids=lambda f: f.__name__)
def test_level_check_equals_the_per_sample_levels_route(check, n, points,
                                                        monkeypatch):
    got = check(n, points=points)
    monkeypatch.setattr(verify, "_segment_deviation",
                        levels_segment_deviation)
    assert got == check(n, points=points)


def _levels_at(name: str, s: float):
    """(segment, analytic levels) of one level check at n = 6."""
    n = 6
    if name == "first":
        return (Segment(*make_path("ising-stepwise", n=n).segment(0)),
                analytic.ising_first_step_levels(n, s, 2))
    if name == "mid":
        return (Segment(*make_path("ising-stepwise", n=n).segment(2)),
                analytic.ising_mid_step_levels(n, s, 2))
    if name == "cluster":
        return (Segment(*make_path("cluster1d-stepwise", n=n).segment(0)),
                analytic.cluster1d_step_levels(n, s, 2))
    path = make_path("cluster2d-stepwise", width=3, height=2)
    k = lattice_build_order(3, 2).two_link_steps()[0]
    lam0, lam1 = analytic.cluster2d_two_link_lowest(n, s, 2)
    return Segment(*path.segment(k)), lam0 + lam1


@pytest.mark.parametrize("name", ("first", "mid", "cluster", "two-link"))
def test_moved_level_is_caught(name):
    segment, levels = _levels_at(name, 0.3)
    spectrum = spectrum_at(segment, 0.3)
    assert verify._match_deviation(spectrum, levels) < 1e-12
    for i, level in enumerate(levels):
        moved = list(levels)
        moved[i] = replace(level, value=level.value + 1e-6)
        assert verify._match_deviation(spectrum, moved) >= 0.9e-6


def _check_run(check):
    """A check at n = 8 and 7 points, or the EC3 check as `verify` runs it."""
    if check is verify.ec3_two_level_deviation:
        return check()
    return check(8, points=7)


@pytest.mark.parametrize("check, per_point", [
    pytest.param(f, count, id=f.__name__) for f, count in
    [(f, 256) for f in LEVEL_CHECKS]
    + [(verify.ground_energy_deviation, 1),
       (verify.ec3_two_level_deviation, 2)]])
def test_split_level_checks_equal_the_single_call(check, per_point,
                                                  monkeypatch):
    # 256 levels per point for the full spectrum at n = 8, `count` for the
    # ground energy and the two EC3 levels: 1, 2 and 3 points per call
    want = _check_run(check)
    for share in (1, 2, 3):
        monkeypatch.setattr(verify, "LEVELS_PER_CALL", share * per_point)
        assert _check_run(check) == want


def recorded_values_calls(monkeypatch, check):
    """(weights, count) of each `Segment.values` call `check()` makes."""
    seen, values = [], Segment.values

    def record(self, weights, blocks, count, **solver):
        seen.append((np.asarray(weights).tolist(), count))
        return values(self, weights, blocks, count, **solver)
    with monkeypatch.context() as patch:
        patch.setattr(Segment, "values", record)
        check()
    return seen


@pytest.mark.parametrize("n", range(4, 13))
def test_ground_energy_check_equals_full_space_route(n, monkeypatch):
    got = verify.ground_energy_deviation(n, points=5)
    assert got < 1e-8
    assert abs(got - full_space_ground_energy_deviation(n, 5)) <= 1e-12
    grid = np.linspace(0.0, 1.0, 5)
    assert recorded_values_calls(
        monkeypatch, lambda: verify.ground_energy_deviation(n, points=5)) \
        == [(np.column_stack([1.0 - grid, grid]).tolist(), 1)]


def test_ground_energy_check_runs_at_n100():
    # 2^100 amplitudes would not fit: the levels are the Majorana form's
    assert verify.ground_energy_deviation(100, points=5) < 1e-8


@pytest.mark.parametrize("n", (8, 12))
def test_nudged_ground_energy_is_caught(n, monkeypatch):
    exact = analytic.ising_linear_ground_energy
    monkeypatch.setattr(analytic, "ising_linear_ground_energy",
                        lambda n, s: exact(n, s) + 1e-6)
    assert verify.ground_energy_deviation(n, points=5) >= 0.9e-6


def test_ec3_check_equals_dense_route(monkeypatch):
    seen = []

    def record(family, **kwargs):
        seen.append((kwargs["instance"], kwargs["clause_order"]))
        return make_path(family, **kwargs)
    monkeypatch.setattr(verify, "make_path", record)
    got = verify.ec3_two_level_deviation()
    assert seen == ec3_draws()
    assert got < 1e-10
    assert abs(got - dense_ec3_two_level_deviation()) <= 1e-12
    # one two-level call per segment of the three 4-clause paths
    weights = [[1.0 - s, s] for s in (0.25, 0.5, 0.75)]
    assert recorded_values_calls(monkeypatch, verify.ec3_two_level_deviation
                                 ) == [(weights, 2)] * 12


@pytest.mark.parametrize("which", (0, 1), ids=("lambda0", "lambda1"))
def test_nudged_two_level_value_is_caught(which, monkeypatch):
    exact = analytic.projector_two_level

    def nudged(overlap, s):
        levels = list(exact(overlap, s))
        levels[which] += 1e-6
        return tuple(levels)
    monkeypatch.setattr(analytic, "projector_two_level", nudged)
    assert verify.ec3_two_level_deviation() >= 0.9e-6


def test_level_check_memory_at_n14():
    # one call held 101 x 2^14 levels, 13.9 MB
    verify.mid_step_deviation(14, points=3)
    tracemalloc.start()
    try:
        verify.mid_step_deviation(14, points=101)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4 << 20


def test_oversized_tapered_stack_refused_before_allocating():
    # X and Z on every qubit leave no symmetry: one block of 2^15 x 2^15
    n = 15
    op = OperatorSum(n, [PauliString.from_ops(n, {q: sym}, 0.5)
                         for q in range(1, n + 1) for sym in "XZ"])
    segment = Segment(op)
    assert len(segment.sector("all")) == 1
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="refused"):
            segment.levels((1.0,), range(1), 1 << n, want_vectors=False)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def conjugation_draws():
    """The (sum, gate) pairs of `conjugation_spectrum_deviation()`, drawn
    in its order: per gate kind and size 4, 6, 8, three sums of 2n strings
    from seed 17."""
    rng = np.random.default_rng(17)
    draws = []
    for kind in ("CNOT", "CZ"):
        for n in (4, 6, 8):
            for _ in range(3):
                terms = [PauliString.from_label(
                    "".join(rng.choice(list("IXYZ"), size=n)),
                    float(rng.normal())) for _ in range(2 * n)]
                draws.append((OperatorSum(n, terms),
                              GateSpec(kind, int(rng.integers(1, n)), n)))
    return draws


def eigvalsh_conjugation_deviation(draws) -> float:
    """Largest distance between the spectra of each sum and of its
    `verify.conjugate`, two dense `eigvalsh` per draw."""
    worst = 0.0
    for op, gate in draws:
        w0 = np.linalg.eigvalsh(op.to_dense())
        w1 = np.linalg.eigvalsh(verify.conjugate(op, gate).to_dense())
        worst = max(worst, float(np.abs(w0 - w1).max()))
    return worst


def recorded_conjugations(monkeypatch):
    """The pairs `conjugation_spectrum_deviation` hands to `conjugate`."""
    seen = []

    def record(op, gate):
        seen.append((op, gate))
        return conjugate(op, gate)
    with monkeypatch.context() as patch:
        patch.setattr(verify, "conjugate", record)
        verify.conjugation_spectrum_deviation()
    return seen


def test_conjugation_check_agrees_with_eigvalsh_oracle(monkeypatch):
    draws = conjugation_draws()
    assert recorded_conjugations(monkeypatch) == draws
    old = eigvalsh_conjugation_deviation(draws)
    new = verify.conjugation_spectrum_deviation()
    assert old < 1e-10
    assert new < 1e-10
    assert new >= old - 1e-12


def test_conjugation_by_another_gate_is_caught(monkeypatch):
    # the same kind onto qubit n from another control: isospectral, so
    # the eigvalsh spectra agree, but it is not the requested similarity
    def wrong_gate(op, gate):
        other = gate.control % (op.n - 1) + 1
        return conjugate(op, GateSpec(gate.kind, other, gate.target))
    monkeypatch.setattr(verify, "conjugate", wrong_gate)
    assert eigvalsh_conjugation_deviation(conjugation_draws()) < 1e-10
    assert verify.conjugation_spectrum_deviation() > 1e-10


def test_nudged_coefficient_is_caught_by_both_forms(monkeypatch):
    def nudged(op, gate):
        got = conjugate(op, gate)
        first = got.terms[0]
        return got + PauliString(got.n, first.x, first.z, 1e-6)
    monkeypatch.setattr(verify, "conjugate", nudged)
    old = eigvalsh_conjugation_deviation(conjugation_draws())
    new = verify.conjugation_spectrum_deviation()
    assert old > 1e-10
    assert new > 1e-10
    # Hoffman-Wielandt: the Frobenius norm bounds every eigenvalue's shift
    assert new >= old - 1e-12


def test_conjugation_check_holds_two_dense_matrices():
    # two 256 x 256 complex matrices are 2 MB, which the dense similarity
    # route held (2.5 MB bound); the eigvalsh route held 1.2 MB and the
    # entry-wise form holds 0.7 MB, within this bound of one such matrix
    verify.conjugation_spectrum_deviation()
    tracemalloc.start()
    try:
        verify.conjugation_spectrum_deviation()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1.05e6


def dense_similarity_deviation(op, gate) -> float:
    """`verify._similarity_deviation` from dense matrices: p and s read off
    ``gate.to_matrix(n)``, S H S by one `np.ix_` gather of the dense sum,
    against the dense `conjugate`."""
    n = op.n
    smat = gate.to_matrix(n)
    (rows, perm), sign = np.nonzero(smat), smat[smat != 0]
    del smat
    assert np.array_equal(rows, np.arange(1 << n)) and np.array_equal(
        np.sort(perm), rows) and np.all(np.abs(sign) == 1), "not unitary"
    want = op.to_dense()[np.ix_(perm, perm)]
    want *= np.multiply.outer(sign, sign)
    want -= conjugate(op, gate).to_dense()
    return float(np.linalg.norm(want))


def test_similarity_deviation_equals_dense_route_on_every_draw():
    for op, gate in conjugation_draws():
        got = verify._similarity_deviation(op, gate)
        assert got < 1e-12
        assert abs(got - dense_similarity_deviation(op, gate)) <= 1e-12


@st.composite
def similarity_cases(draw):
    """A Pauli sum on 2-8 qubits, general or Y-heavy (complex entries),
    with optional identity terms, repeated strings whose coefficients
    cancel and pairs of strings with one flip whose entries cancel in
    part, and a CNOT or CZ with its control above or below its target."""
    n = draw(st.integers(2, 8))
    label = st.text(draw(st.sampled_from(("IXYZ", "YYYX", "YYYZ", "YI"))),
                    min_size=n, max_size=n)
    coeff = st.floats(-2.0, 2.0, allow_nan=False).filter(
        lambda c: abs(c) > 1e-3)
    terms = [PauliString.from_label(f, c) for f, c in draw(st.lists(
        st.tuples(label, coeff), min_size=1, max_size=8))]
    for f, c in draw(st.lists(st.tuples(label, coeff), max_size=2)):
        terms += [PauliString.from_label(f, c), PauliString.from_label(f, -c)]
    for f, c in draw(st.lists(st.tuples(label, coeff), max_size=2)):
        # the same flip x with Z on qubit 1 toggled: entries of equal size
        first = PauliString.from_label(f, c)
        terms += [first, PauliString(n, first.x, first.z ^ 1 << n - 1, -c)]
    if draw(st.booleans()):
        terms.append(PauliString.identity(n, draw(coeff)))
    control, target = draw(st.permutations(range(1, n + 1)))[:2]
    gate = GateSpec(draw(st.sampled_from(("CNOT", "CZ"))), control, target)
    return OperatorSum(n, terms), gate


@given(similarity_cases())
def test_similarity_deviation_equals_dense_route(case):
    op, gate = case
    got = verify._similarity_deviation(op, gate)
    assert got < 1e-12
    assert abs(got - dense_similarity_deviation(op, gate)) <= 1e-12


exact_signed_permutation = verify._signed_permutation


def unsigned(gate, n):
    """S with every sign dropped: a CZ read as the identity."""
    perm, sign = exact_signed_permutation(gate, n)
    return perm, np.abs(sign)


def wrong_control(gate, n):
    """p and s taken from the control bit next to the gate's own."""
    other = gate.control % (n - 1) + 1
    return exact_signed_permutation(GateSpec(gate.kind, other, gate.target),
                                    n)


@pytest.mark.parametrize("mutant", (unsigned, wrong_control),
                         ids=lambda f: f.__name__)
def test_wrong_signed_permutation_is_caught(mutant, monkeypatch):
    monkeypatch.setattr(verify, "_signed_permutation", mutant)
    assert verify.conjugation_spectrum_deviation() > 1e-10


def transposed(op, gate):
    """The conjugated sum read with rows and columns swapped: a Hermitian
    string's transpose is its complex conjugate, so the strings with an odd
    Y count, the imaginary entries, change sign and no others."""
    got = conjugate(op, gate)
    return OperatorSum(got.n, [t * (-1) ** t.y_count for t in got.terms])


def test_transposed_side_is_caught(monkeypatch):
    monkeypatch.setattr(verify, "conjugate", transposed)
    assert verify.conjugation_spectrum_deviation() > 1e-10
    # a sum without Y is real and symmetric, its transpose the same
    op = OperatorSum(4, [PauliString.from_label("XZIX", 0.5),
                         PauliString.from_label("ZXZI", -1.5)])
    assert verify._similarity_deviation(op, GateSpec("CZ", 1, 2)) < 1e-12


def test_similarity_deviation_memory_at_n10():
    # one 2^10 x 2^10 complex matrix is 16 MB
    rng = np.random.default_rng(5)
    op = OperatorSum(10, [PauliString.from_label("".join(
        "IXYZ"[i] for i in rng.integers(4, size=10)), float(rng.normal()))
        for _ in range(20)])
    for gate in (GateSpec("CNOT", 3, 10), GateSpec("CZ", 10, 4)):
        verify._similarity_deviation(op, gate)
        tracemalloc.start()
        try:
            assert verify._similarity_deviation(op, gate) < 1e-12
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8 << 20


@pytest.mark.parametrize("kind", ("CNOT", "CZ"))
@pytest.mark.parametrize("n", range(2, 7))
def test_gate_matrix_is_its_basis_state_signed_permutation(kind, n):
    cols = np.arange(1 << n)
    for control in range(1, n + 1):
        for target in set(range(1, n + 1)) - {control}:
            gate = GateSpec(kind, control, target)
            perm, sign = verify._signed_permutation(gate, n)
            smat = np.zeros((1 << n, 1 << n))
            smat[perm, cols] = sign
            assert np.array_equal(gate.to_matrix(n), smat)
