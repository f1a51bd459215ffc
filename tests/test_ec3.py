"""Tests for Exact Cover 3 counting, projector paths and clause ordering."""

import itertools

import numpy as np
import pytest

from stepgap.analytic import projector_two_level
from stepgap.ec3 import (
    Ec3Instance,
    SolutionCountChain,
    UnsatisfiablePrefixError,
    clause_energy,
    clause_hamiltonian,
    format_instance,
    grover_gap,
    order_clauses,
    parse_instance,
    path_gaps,
    projector_hamiltonian,
    random_satisfiable_instance,
    solution_counts,
    solution_indices,
    solution_superposition,
)
from stepgap.models import make_path
from stepgap.pauli import (STATE_QUBIT_CAP, basis_state, blend,
                           uniform_superposition)
from stepgap.spectra import gap_scan, sector_levels

RNG = np.random.default_rng(2024)


def enumerate_solutions(n, clauses, upto=None):
    """Independent pure-python oracle: all satisfying bit tuples."""
    active = clauses if upto is None else clauses[:upto]
    out = []
    for bits in itertools.product((0, 1), repeat=n):
        if all(sum(bits[p - 1] for p in cl) == 1 for cl in active):
            out.append(bits)
    return out


# ---------------------------------------------------------------------------
# parsing and validation
# ---------------------------------------------------------------------------

def test_parse_single_clause():
    inst = parse_instance("3 1\n1 2 3\n")
    assert inst.n == 3
    assert inst.clauses == ((1, 2, 3),)


def test_parse_two_clauses_with_comments():
    inst = parse_instance("# toy instance\n4 2\n1 2 3\n# middle note\n2 3 4\n")
    assert inst.n == 4
    assert inst.clauses == ((1, 2, 3), (2, 3, 4))


def test_parse_duplicate_position_rejected():
    with pytest.raises(ValueError, match="duplicate"):
        parse_instance("3 1\n1 1 2\n")


@pytest.mark.parametrize("text", [
    "",
    "3\n1 2 3\n",
    "3 2\n1 2 3\n",
    "3 1\n1 2\n",
    "3 1\n1 2 9\n",
    "x y\n1 2 3\n",
])
def test_parse_malformed_inputs(text):
    with pytest.raises(ValueError):
        parse_instance(text)


def test_format_round_trip():
    inst = Ec3Instance(5, ((1, 2, 3), (2, 4, 5)))
    assert parse_instance(format_instance(inst)) == inst


def test_instance_validation():
    with pytest.raises(ValueError):
        Ec3Instance(2, ((1, 2, 3),))
    with pytest.raises(ValueError):
        Ec3Instance(4, ((1, 2, 2),))
    with pytest.raises(ValueError):
        Ec3Instance(4, ((0, 1, 2),))


# ---------------------------------------------------------------------------
# clause energies
# ---------------------------------------------------------------------------

def test_clause_energy_values():
    clause = (1, 2, 3)
    assert clause_energy((1, 0, 0), clause) == 0
    assert clause_energy((0, 0, 0), clause) == 1
    assert clause_energy((1, 1, 1), clause) == 4
    assert clause_energy((0, 1, 1), clause) == 1


def test_clause_hamiltonian_diagonal_matches_energy():
    n = 4
    clause = (1, 3, 4)
    ham = clause_hamiltonian(n, clause).to_dense()
    assert np.allclose(ham, np.diag(np.diag(ham)))
    for z, bits in enumerate(itertools.product((0, 1), repeat=n)):
        assert ham[z, z] == pytest.approx(clause_energy(bits, clause))


# ---------------------------------------------------------------------------
# solution counting
# ---------------------------------------------------------------------------

def test_counts_with_no_clauses():
    inst = Ec3Instance(4, ())
    chain = solution_counts(inst)
    assert chain.counts == (16,)


def test_counts_single_clause_n3():
    inst = Ec3Instance(3, ((1, 2, 3),))
    chain = solution_counts(inst)
    assert chain.counts == (8, 3)
    assert len(enumerate_solutions(3, inst.clauses)) == 3


def test_counts_two_overlapping_clauses_n4():
    inst = Ec3Instance(4, ((1, 2, 3), (2, 3, 4)))
    chain = solution_counts(inst)
    oracle = [len(enumerate_solutions(4, inst.clauses, upto=k))
              for k in range(3)]
    assert list(chain.counts) == oracle
    assert chain.counts == (16, 6, 3)


def test_counts_respect_clause_order():
    inst = Ec3Instance(5, ((1, 2, 3), (3, 4, 5)))
    fwd = solution_counts(inst, (0, 1))
    rev = solution_counts(inst, (1, 0))
    assert fwd.counts[-1] == rev.counts[-1]
    assert fwd.counts != rev.counts or fwd.order != rev.order


def test_solution_indices_match_oracle():
    inst = Ec3Instance(5, ((1, 2, 4), (2, 3, 5)))
    got = solution_indices(inst)
    oracle = enumerate_solutions(5, inst.clauses)
    want = sorted(int(np.vdot(basis_state(5, bits),
                              np.arange(32))) for bits in oracle)
    assert sorted(got.tolist()) == want


def test_clause_sum_ground_space_equals_solution_set():
    inst = random_satisfiable_instance(6, 3, np.random.default_rng(3))
    for k in range(inst.m + 1):
        diag = np.zeros(1 << inst.n)
        for clause in inst.clauses[:k]:
            diag += np.diag(clause_hamiltonian(inst.n, clause).to_dense())
        zero_energy = sorted(np.nonzero(np.abs(diag) < 1e-12)[0].tolist())
        assert zero_energy == sorted(solution_indices(inst, k).tolist())


def test_count_chain_validation():
    with pytest.raises(ValueError):
        SolutionCountChain(3, (8, 3, 5), (0, 1))
    with pytest.raises(ValueError):
        SolutionCountChain(3, (7, 3), (0,))
    with pytest.raises(ValueError):
        solution_counts(Ec3Instance(4, ((1, 2, 3),)), (1,))


# ---------------------------------------------------------------------------
# path gaps
# ---------------------------------------------------------------------------

def test_path_gaps_from_counts():
    chain = SolutionCountChain(3, (8, 3), (0,))
    gaps = path_gaps(chain)
    assert gaps[0] == pytest.approx(0.61237243569579452, abs=1e-15)


def test_redundant_clause_keeps_unit_gap():
    inst = Ec3Instance(4, ((1, 2, 3), (1, 2, 3)))
    gaps = path_gaps(solution_counts(inst))
    assert gaps[1] == pytest.approx(1.0)


def test_unsatisfiable_prefix_raises():
    # forcing bit 1 high twice in incompatible clauses kills all solutions
    inst = Ec3Instance(4, ((1, 2, 3), (1, 2, 4), (2, 3, 4), (1, 3, 4)))
    chain = solution_counts(inst)
    if 0 in chain.counts:
        with pytest.raises(UnsatisfiablePrefixError):
            path_gaps(chain)
    else:  # fall back to an explicitly dead chain
        with pytest.raises(ValueError):
            SolutionCountChain(4, (16, 0, 0, 0, 0), tuple(range(4)))


def test_unique_solution_gap_dominates_grover():
    inst = random_satisfiable_instance(8, 6, np.random.default_rng(9),
                                       unique=True)
    gaps = path_gaps(solution_counts(inst))
    assert gaps.min() > grover_gap(inst.n)


# ---------------------------------------------------------------------------
# projector Hamiltonians
# ---------------------------------------------------------------------------

def test_projector_k0_complements_uniform_superposition():
    inst = Ec3Instance(4, ((1, 2, 3),))
    op = projector_hamiltonian(inst, (0,))[0]
    psi = uniform_superposition(4)
    want = np.eye(16) - np.outer(psi, psi)
    assert np.abs(op.to_dense() - want).max() < 1e-14


def test_projector_segment_matches_two_level_formula():
    inst = Ec3Instance(6, ((1, 2, 3), (3, 4, 5), (2, 5, 6)))
    order = order_clauses(inst, "given")
    chain = solution_counts(inst, order)
    gaps = path_gaps(chain)
    for k in range(inst.m):
        h_a = projector_hamiltonian(inst, order)[k]
        h_b = projector_hamiltonian(inst, order)[k + 1]
        c = gaps[k]
        for s in (0.2, 0.5, 0.85):
            w = np.linalg.eigvalsh(blend(h_a, h_b, s).to_dense())
            lam0, lam1 = projector_two_level(c, s)
            assert w[0] == pytest.approx(lam0, abs=1e-10)
            assert w[1] == pytest.approx(lam1, abs=1e-10)
            assert np.allclose(w[2:], 1.0, atol=1e-10)


def test_projector_final_ground_is_unique_solution():
    inst = random_satisfiable_instance(6, 4, np.random.default_rng(14),
                                       unique=True)
    sol = solution_indices(inst)
    assert len(sol) == 1
    op = projector_hamiltonian(inst, tuple(range(inst.m)))[inst.m]
    w, v = np.linalg.eigh(op.to_dense())
    assert w[0] == pytest.approx(0.0, abs=1e-12)
    assert abs(v[:, 0][sol[0]]) == pytest.approx(1.0, abs=1e-12)


def test_projector_cap_and_empty_prefix():
    big = Ec3Instance(STATE_QUBIT_CAP + 1, ((1, 2, 3),))
    with pytest.raises(ValueError):
        projector_hamiltonian(big, (0,))[0]
    dead = Ec3Instance(4, ((1, 2, 3), (1, 2, 4), (2, 3, 4), (1, 3, 4)))
    chain = solution_counts(dead)
    if 0 in chain.counts:
        k = int(np.argmax(np.array(chain.counts) == 0))
        with pytest.raises(UnsatisfiablePrefixError):
            solution_superposition(dead, tuple(range(4)), k)


def test_projector_gap_scan_finds_unique_solution_ground_state():
    # ARPACK missed the unique ground state of this path's final projector
    # and reported a minimum gap of 0 at s = 1
    inst = random_satisfiable_instance(10, 8, np.random.default_rng(3))
    order = order_clauses(inst, "greedy-max-r")
    chain = solution_counts(inst, order)
    assert chain.counts == (1024, 384, 192, 96, 48, 20, 8, 8, 2)
    gaps = path_gaps(chain)
    path = make_path("ec3-projector", instance=inst, clause_order=order)
    curve = gap_scan(path, points=33)
    assert curve.minimum[0] == pytest.approx(0.9375, abs=1e-9)
    assert curve.minimum[1] == pytest.approx(0.5, abs=1e-9)
    for s_global, gap, lam0, lam1 in curve.samples:
        k, s_local = path.locate(s_global * path.tau)
        want = projector_two_level(gaps[k], s_local)
        assert lam0 == pytest.approx(want[0], abs=1e-9)
        assert lam1 == pytest.approx(want[1], abs=1e-9)


def test_projector_path_family_has_no_sector_labels():
    inst = Ec3Instance(4, ((1, 2, 3), (2, 3, 4)))
    path = make_path("ec3-projector", instance=inst)
    assert path.segment_count == 2
    res = sector_levels(path.at_progress(0.5), "all", count=3)
    assert res.sector_labels is None
    assert res.eigenvectors.shape == (16, 3)


# ---------------------------------------------------------------------------
# clause ordering
# ---------------------------------------------------------------------------

def test_order_single_clause_identity():
    inst = Ec3Instance(3, ((1, 2, 3),))
    assert order_clauses(inst, "given") == (0,)
    assert order_clauses(inst, "greedy-max-r") == (0,)


def test_greedy_orders_redundant_clause_early():
    # clause 2 duplicates clause 0, so right after clause 0 it keeps r = 1
    inst = Ec3Instance(5, ((1, 2, 3), (3, 4, 5), (1, 2, 3)))
    order = order_clauses(inst, "greedy-max-r")
    assert order == (0, 2, 1)
    gaps = path_gaps(solution_counts(inst, order))
    assert gaps[1] == pytest.approx(1.0)


def test_greedy_vs_given_order_on_regression_corpus():
    # no theorem here: greedy maximizes each step locally and can lose
    # globally (seed 4 does).  The corpus below is pinned to seeds where
    # the heuristic helps, plus one counterexample kept as a reminder.
    for seed in (0, 1, 2, 3, 5):
        inst = random_satisfiable_instance(7, 5,
                                           np.random.default_rng(seed))
        given = path_gaps(solution_counts(inst)).min()
        greedy_order = order_clauses(inst, "greedy-max-r")
        greedy = path_gaps(solution_counts(inst, greedy_order)).min()
        assert greedy >= given - 1e-12
    inst = random_satisfiable_instance(7, 5, np.random.default_rng(4))
    given = path_gaps(solution_counts(inst)).min()
    greedy_order = order_clauses(inst, "greedy-max-r")
    greedy = path_gaps(solution_counts(inst, greedy_order)).min()
    assert greedy == pytest.approx(0.5)
    assert given == pytest.approx(0.5773502691896257)


def test_random_order_reproducible():
    inst = Ec3Instance(6, ((1, 2, 3), (2, 3, 4), (4, 5, 6), (1, 5, 6)))
    a = order_clauses(inst, "random", seed=42)
    b = order_clauses(inst, "random", seed=42)
    c = order_clauses(inst, "random", seed=43)
    assert a == b
    assert sorted(a) == [0, 1, 2, 3]
    assert a != c or True  # different seeds may collide; only determinism counts


def test_order_strategy_validation():
    inst = Ec3Instance(3, ((1, 2, 3),))
    with pytest.raises(ValueError):
        order_clauses(inst, "alphabetical")


def test_random_satisfiable_instances_are_satisfiable():
    for seed in range(4):
        inst = random_satisfiable_instance(6, 4, np.random.default_rng(seed))
        assert solution_counts(inst).counts[-1] >= 1
