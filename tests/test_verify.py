"""The level checks of `verify` against a dense-eigvalsh oracle.

The checks read the full spectrum of each checked path segment from the
blocks of one `stepgap.spectra.Segment`, its ends tapered once under one
map.  `dense_match_deviation` is the route they replaced, one `eigvalsh` of
the 2^n x 2^n blend per sample point; it stays here as the oracle, so a
tapered spectrum that dropped or moved a level would show.
"""

import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from stepgap import analytic, verify
from stepgap.models import lattice_build_order, make_path
from stepgap.pauli import OperatorSum, PauliString, blend
from stepgap.spectra import Segment


def dense_match_deviation(segment, s, levels) -> float:
    num = np.linalg.eigvalsh(blend(*segment.operators, s).to_dense())
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
    assert verify._match_deviation(segment, 0.3, levels) < 1e-12
    for i, level in enumerate(levels):
        moved = list(levels)
        moved[i] = replace(level, value=level.value + 1e-6)
        assert verify._match_deviation(segment, 0.3, moved) >= 0.9e-6


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
