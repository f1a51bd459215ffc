"""The level checks of `verify` against a dense-eigvalsh oracle.

The checks read the full spectrum from the tapered symmetry blocks
(`stepgap.pauli.taper`).  `dense_match_deviation` is the route they replaced,
one `eigvalsh` of the 2^n x 2^n matrix per sample point; it stays here as the
oracle, so a tapered spectrum that dropped or moved a level would show.
"""

import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from stepgap import analytic, verify
from stepgap.models import lattice_build_order, make_path
from stepgap.pauli import OperatorSum, PauliString, taper


def dense_match_deviation(op, levels) -> float:
    num = np.linalg.eigvalsh(op.to_dense())
    return max(float(np.min(np.abs(num - level.value))) for level in levels)


LEVEL_CHECKS = (verify.first_step_deviation, verify.mid_step_deviation,
                verify.cluster_step_deviation, verify.two_link_deviation)


@pytest.mark.parametrize("check", LEVEL_CHECKS, ids=lambda f: f.__name__)
def test_level_check_equals_dense_route(check, monkeypatch):
    got = check(6, points=11)
    monkeypatch.setattr(verify, "_match_deviation", dense_match_deviation)
    want = check(6, points=11)
    assert got < 1e-8
    assert abs(got - want) <= 1e-12


def _levels_at(name: str, s: float):
    """(operator, analytic levels) of one level check at n = 6."""
    n = 6
    if name == "first":
        return (make_path("ising-stepwise", n=n).at_progress(s / n),
                analytic.ising_first_step_levels(n, s, 2))
    if name == "mid":
        return (make_path("ising-stepwise", n=n).at_progress((2 + s) / n),
                analytic.ising_mid_step_levels(n, s, 2))
    if name == "cluster":
        path = make_path("cluster1d-stepwise", n=n)
        return (path.at_progress(s / path.segment_count),
                analytic.cluster1d_step_levels(n, s, 2))
    path = make_path("cluster2d-stepwise", width=3, height=2)
    k = lattice_build_order(3, 2).two_link_steps()[0]
    lam0, lam1 = analytic.cluster2d_two_link_lowest(n, s, 2)
    return path.at_progress((k + s) / path.segment_count), lam0 + lam1


@pytest.mark.parametrize("name", ("first", "mid", "cluster", "two-link"))
def test_moved_level_is_caught(name):
    op, levels = _levels_at(name, 0.3)
    assert verify._match_deviation(op, levels) < 1e-12
    for i, level in enumerate(levels):
        moved = list(levels)
        moved[i] = replace(level, value=level.value + 1e-6)
        assert verify._match_deviation(op, moved) >= 0.9e-6


def test_oversized_tapered_stack_refused_before_allocating():
    # X and Z on every qubit leave no symmetry: one block of 2^15 x 2^15
    n = 15
    op = OperatorSum(n, [PauliString.from_ops(n, {q: sym}, 0.5)
                         for q in range(1, n + 1) for sym in "XZ"])
    assert taper(op).generators == ()
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="refused"):
            taper(op).spectrum()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
