"""Tests for Hamiltonian families, lattices, build orders and paths."""

import numpy as np
import pytest

from stepgap.models import (
    BuildOrder,
    BuildStep,
    InterpolationPath,
    LatticeGraph,
    build_order_from_file,
    chain_lattice,
    cluster1d_step_hamiltonian,
    cluster_hamiltonian,
    cluster_state,
    grid_lattice,
    ising_endpoints,
    ising_step_hamiltonian,
    lattice_build_order,
    make_path,
)
from stepgap.pauli import (
    GateSpec,
    OperatorSum,
    PauliString,
    conjugate,
    parity_apply,
)

RNG = np.random.default_rng(7)


def kink_energy(bits, bonds):
    """Brute-force bond energy oracle: +1 per disagreeing bond, -1 per agreeing."""
    return -sum((-1) ** (bits[a - 1] ^ bits[b - 1]) for a, b in bonds)


# ---------------------------------------------------------------------------
# Ising endpoints and step series
# ---------------------------------------------------------------------------

def test_ising_endpoints_periodic_ground_doublet():
    _, h_f = ising_endpoints(4, "periodic")
    w = np.linalg.eigvalsh(h_f.to_dense())
    assert w[0] == pytest.approx(-4.0)
    assert w[1] == pytest.approx(-4.0)
    assert w[2] > -4.0 + 1e-9


def test_ising_endpoints_open_two_qubits():
    _, h_f = ising_endpoints(2, "open")
    w = np.linalg.eigvalsh(h_f.to_dense())
    assert np.allclose(w, [-1.0, -1.0, 1.0, 1.0])


def test_ising_endpoints_first_excited_manifold_n6():
    # oracle: enumerate all 64 bitstrings and count kinks on the ring
    n = 6
    bonds = [(i, i % n + 1) for i in range(1, n + 1)]
    energies = sorted(
        kink_energy([(z >> (n - q)) & 1 for q in range(1, n + 1)], bonds)
        for z in range(1 << n))
    distinct = sorted(set(energies))
    assert distinct[0] == -6 and distinct[1] == -2
    _, h_f = ising_endpoints(n, "periodic")
    w = np.linalg.eigvalsh(h_f.to_dense())
    assert np.allclose(sorted(w), energies, atol=1e-12)


def test_ising_endpoints_validation():
    with pytest.raises(ValueError):
        ising_endpoints(1)
    with pytest.raises(ValueError):
        ising_endpoints(4, "twisted")


def test_ising_step_boundary_members():
    n = 5
    h_i, h_f = ising_endpoints(n, "periodic")
    assert ising_step_hamiltonian(n, 0) == h_i
    assert ising_step_hamiltonian(n, n) == h_f


def test_ising_step_interior_structure():
    n = 4
    h2 = ising_step_hamiltonian(n, 2)
    want = OperatorSum(n, [
        PauliString.from_ops(n, {1: "Z", 2: "Z"}, -1.0),
        PauliString.from_ops(n, {2: "Z", 3: "Z"}, -1.0),
        PauliString.from_ops(n, {4: "X"}, -1.0),
    ])
    assert h2 == want
    # dense ground energy: two aligned bonds plus one free field
    w = np.linalg.eigvalsh(h2.to_dense())
    assert w[0] == pytest.approx(-3.0)


def test_ising_step_range_check():
    with pytest.raises(ValueError):
        ising_step_hamiltonian(4, 5)
    with pytest.raises(ValueError):
        ising_step_hamiltonian(4, -1)


def test_ising_steps_commute_with_bit_flip_string():
    n = 6
    for k in range(n + 1):
        h = ising_step_hamiltonian(n, k)
        psi = RNG.normal(size=1 << n) + 1j * RNG.normal(size=1 << n)
        psi /= np.linalg.norm(psi)
        resid = h.apply(parity_apply(psi)) - parity_apply(h.apply(psi))
        assert np.linalg.norm(resid) < 1e-12


# ---------------------------------------------------------------------------
# cluster Hamiltonians
# ---------------------------------------------------------------------------

def test_cluster_hamiltonian_empty_lattice_is_field_sum():
    lat = LatticeGraph(4)
    got = cluster_hamiltonian(lat)
    want = OperatorSum(4, [PauliString.from_ops(4, {i: "X"}, -1.0)
                           for i in range(1, 5)])
    assert got == want


def test_cluster_hamiltonian_three_site_chain_terms():
    got = cluster_hamiltonian(chain_lattice(3))
    want = OperatorSum(3, [
        PauliString.from_ops(3, {1: "X", 2: "Z"}, -1.0),
        PauliString.from_ops(3, {1: "Z", 2: "X", 3: "Z"}, -1.0),
        PauliString.from_ops(3, {2: "Z", 3: "X"}, -1.0),
    ])
    assert got == want


def test_cluster_chain_n3_spectrum():
    h = cluster_hamiltonian(chain_lattice(3))
    w = np.linalg.eigvalsh(h.to_dense())
    assert np.allclose(w, [-3, -1, -1, -1, 1, 1, 1, 3], atol=1e-12)


@pytest.mark.parametrize("lattice", [
    chain_lattice(5),
    grid_lattice(2, 3),
    LatticeGraph(5, [(1, 2), (1, 3), (1, 4), (4, 5)]),
])
def test_cluster_unique_ground_state_with_gap_two(lattice):
    h = cluster_hamiltonian(lattice)
    w = np.linalg.eigvalsh(h.to_dense())
    n = lattice.node_count
    assert w[0] == pytest.approx(-n)
    assert w[1] - w[0] == pytest.approx(2.0)


def test_cluster_state_is_ground_state():
    for lattice in (chain_lattice(4), grid_lattice(2, 2)):
        psi = cluster_state(lattice)
        h = cluster_hamiltonian(lattice)
        assert np.linalg.norm(h.apply(psi) + lattice.node_count * psi) < 1e-12


def test_cluster1d_step_members():
    n = 5
    assert cluster1d_step_hamiltonian(n, 0) == OperatorSum(
        n, [PauliString.from_ops(n, {i: "X"}, -1.0) for i in range(1, n + 1)])
    assert cluster1d_step_hamiltonian(n, n - 1) == cluster_hamiltonian(
        chain_lattice(n))
    assert cluster1d_step_hamiltonian(n, 2) == cluster_hamiltonian(
        LatticeGraph(n, [(1, 2), (2, 3)]))
    with pytest.raises(ValueError):
        cluster1d_step_hamiltonian(n, n)


# ---------------------------------------------------------------------------
# lattices and build orders
# ---------------------------------------------------------------------------

def test_lattice_validation():
    with pytest.raises(ValueError):
        LatticeGraph(3, [(1, 1)])
    with pytest.raises(ValueError):
        LatticeGraph(3, [(1, 4)])
    lat = LatticeGraph(3, [(2, 1)])
    assert lat.links == frozenset({(1, 2)})
    assert lat.neighbors(1) == (2,)


def test_grid_lattice_shape():
    lat = grid_lattice(3, 3)
    assert lat.node_count == 9
    assert len(lat.links) == 12
    degs = sorted(lat.degree(v) for v in range(1, 10))
    assert degs == [2, 2, 2, 2, 3, 3, 3, 3, 4]


def test_build_order_5x5_has_24_steps():
    order = lattice_build_order(5, 5)
    assert len(order.steps) == 24
    assert len(order.lattices()) == 25
    assert order.lattices()[-1].links == grid_lattice(5, 5).links


def test_build_order_chain_is_all_single_links():
    order = lattice_build_order(7, 1)
    assert len(order.steps) == 6
    assert all(len(s.new_links) == 1 for s in order.steps)


def test_build_order_2x2_hand_enumeration():
    # snake node order 1,2,3,4 with node 4 closing two links at once
    order = lattice_build_order(2, 2)
    assert len(order.steps) == 3
    assert [len(s.new_links) for s in order.steps] == [1, 1, 2]
    assert order.steps[2].pair is not None


def test_build_order_monotone_and_fresh_focal():
    order = lattice_build_order(4, 3)
    lats = order.lattices()
    for a, b in zip(lats, lats[1:]):
        assert a.links < b.links
    for k in order.two_link_steps():
        prior = lats[k]
        assert prior.degree(order.steps[k].focal) == 0


def test_build_order_rejects_connected_two_link_focal():
    with pytest.raises(ValueError):
        BuildOrder(3, (
            BuildStep(((1, 2),), focal=2),
            BuildStep(((2, 3), (1, 3)), focal=2, pair=(1, 3)),
        ))


def test_build_order_from_file_grouping():
    text = """3 2
# snake over a 3x2 grid
1 2
2 3
3 4
4 5
5 2
6 5
6 1
"""
    order = build_order_from_file(text)
    assert order.node_count == 6
    sizes = [len(s.new_links) for s in order.steps]
    assert sizes == [1, 1, 1, 2, 2]
    assert order.steps[3].focal == 5
    assert order.steps[3].pair == (2, 4)


def test_build_order_from_file_validation():
    with pytest.raises(ValueError):
        build_order_from_file("")
    with pytest.raises(ValueError):
        build_order_from_file("2 2\n1 9\n")


# ---------------------------------------------------------------------------
# interpolation paths
# ---------------------------------------------------------------------------

def test_make_path_linear_single_segment():
    path = make_path("ising-linear", n=10)
    assert path.segment_count == 1
    h_i, h_f = ising_endpoints(10)
    assert path.operators[0] == h_i
    assert path.operators[-1] == h_f


def test_make_path_stepwise_counts():
    assert make_path("ising-stepwise", n=10).segment_count == 10
    assert make_path("cluster1d-stepwise", n=8).segment_count == 7
    assert make_path("cluster2d-stepwise", width=3, height=3) \
        .segment_count == 8


def test_path_endpoint_evaluation_is_exact():
    path = make_path("ising-stepwise", n=4).rescaled(2.8)
    assert path.durations == pytest.approx((0.7,) * 4)
    assert path.at_time(path.tau) == path.operators[-1]
    assert path.at_time(0.0) == path.operators[0]


def test_path_boundary_continuity():
    path = make_path("ising-stepwise", n=4)
    t_boundary = path.durations[0]
    left = path.operators[0] * 0.0 + path.at_time(t_boundary - 1e-13)
    right = path.at_time(t_boundary)
    assert np.abs(left.to_dense() - right.to_dense()).max() < 1e-10
    # ownership: the boundary instant evaluates through the right segment
    assert path.locate(t_boundary)[0] == 1


def test_segment_starts_are_stored_once_and_read_only():
    # locate reads the starts built with the path, the same values as the
    # cumulative sum of the durations
    path = make_path("ising-stepwise", n=5).rescaled(3.7)
    starts = path.segment_starts()
    assert starts is path.segment_starts()
    assert np.array_equal(starts, np.concatenate([[0.0], np.cumsum(
        path.durations)]))
    with pytest.raises(ValueError):
        starts[1] = 0.0
    for t in np.linspace(0.0, path.tau, 23):
        k = int(np.searchsorted(starts, t, side="right") - 1)
        k = min(k, path.segment_count - 1)
        want = (k, (t - starts[k]) / path.durations[k]) if t < path.tau \
            else (path.segment_count - 1, 1.0)
        assert path.locate(t) == want


def test_path_midpoint_matches_hand_built_operator():
    n = 5
    path = make_path("ising-stepwise", n=n)
    k = 2
    t = (k + 0.5) * path.durations[0]
    got = path.at_time(t)
    s = 0.5
    want = OperatorSum(n, [
        PauliString.from_ops(n, {1: "Z", 2: "Z"}, -1.0),
        PauliString.from_ops(n, {2: "Z", 3: "Z"}, -1.0),
        PauliString.from_ops(n, {5: "X"}, -1.0),
        PauliString.from_ops(n, {4: "X"}, -(1 - s)),
        PauliString.from_ops(n, {3: "Z", 4: "Z"}, -s),
    ])
    assert got == want


def test_path_time_bounds_checked():
    path = make_path("ising-linear", n=3)
    with pytest.raises(ValueError):
        path.at_time(-0.1)
    with pytest.raises(ValueError):
        path.at_time(path.tau + 0.1)


def test_path_rescaled_preserves_shape():
    path = make_path("cluster1d-stepwise", n=5).rescaled(8.0)
    assert path.durations == pytest.approx((2.0,) * 4)
    fast = path.rescaled(1.0)
    assert fast.tau == pytest.approx(1.0)
    assert fast.segment_count == path.segment_count
    s = 0.37
    assert fast.at_progress(s) == path.at_progress(s)


def test_path_custom_durations():
    # named paths have unit segments; other durations come from rescaling
    # or from an InterpolationPath built directly
    path = make_path("ising-stepwise", n=3)
    assert path.durations == (1.0, 1.0, 1.0)
    custom = InterpolationPath(path.operators, (1.0, 2.0, 3.0), path.family)
    assert custom.tau == pytest.approx(6.0)
    with pytest.raises(ValueError):
        InterpolationPath(path.operators, (1.0, 2.0))
    with pytest.raises(TypeError):
        make_path("ising-stepwise", n=3, dt=1.0)


def test_make_path_param_validation():
    with pytest.raises(ValueError):
        make_path("no-such-family", n=4)
    with pytest.raises(ValueError):
        make_path("ising-linear")
    with pytest.raises(ValueError):
        make_path("cluster2d-stepwise", width=3)


# ---------------------------------------------------------------------------
# decoupling transformations along the paths
# ---------------------------------------------------------------------------

def _qubits_of(term):
    return {q for q in range(1, term.n + 1) if term.factors[q - 1] != "I"}


def test_ising_mid_step_cnot_decouples_moving_qubit():
    n, k, s = 7, 3, 0.35
    path = make_path("ising-stepwise", n=n)
    h_s = path.at_progress((k + s) / n)
    rotated = conjugate(h_s, GateSpec("CNOT", k + 1, k + 2))
    for term in rotated.terms:
        qubits = _qubits_of(term)
        if k + 2 in qubits:
            assert qubits == {k + 2}
            sym = term.factors[k + 1]
            if sym == "X":
                assert term.coefficient == pytest.approx(-(1 - s))
            else:
                assert sym == "Z"
                assert term.coefficient == pytest.approx(-s)


def test_cluster_step_cz_product_decouples_all_but_two():
    n, k, s = 7, 3, 0.6
    path = make_path("cluster1d-stepwise", n=n)
    # segment k runs from H_k (k links) to H_{k+1}
    t = (k + s) * path.durations[0]
    h_s = path.at_time(t)
    rotated = h_s
    for a in range(1, k + 1):  # links of L_k
        rotated = conjugate(rotated, GateSpec("CZ", a, a + 1))
    moving = {k + 1, k + 2}
    for term in rotated.terms:
        qubits = _qubits_of(term)
        assert len(qubits) == 1 or qubits <= moving


def test_model_hamiltonians_are_exactly_symmetric():
    ops = [ising_step_hamiltonian(6, k) for k in (0, 3, 6)]
    ops += [cluster1d_step_hamiltonian(6, k) for k in (0, 3, 5)]
    ops.append(cluster_hamiltonian(grid_lattice(2, 3)))
    for op in ops:
        mat = op.to_dense()
        assert np.abs(mat - mat.T).max() == 0.0
