"""Tests for the closed-form spectral predictions, cross-checked numerically."""

import numpy as np
import pytest

from stepgap.analytic import (
    AnalyticLevel,
    cluster1d_step_gap,
    cluster1d_step_levels,
    cluster2d_two_link_gap,
    cluster2d_two_link_lowest,
    ising_first_step_levels,
    ising_first_step_min_even_gap,
    ising_linear_even_gap,
    ising_linear_ground_energy,
    ising_linear_min_even_gap,
    ising_mid_step_gap,
    ising_mid_step_levels,
    ising_quasiparticle_energy,
    momentum_grid,
    projector_gap,
    projector_two_level,
)
from stepgap.models import make_path
from stepgap.spectra import (
    _brent_minimize,
    lowest_eigenpairs,
    sector_gap,
    sector_levels,
)


# ---------------------------------------------------------------------------
# momentum grid and dispersion
# ---------------------------------------------------------------------------

def test_momentum_grid_even_n():
    ka = momentum_grid(10)
    assert len(ka) == 10
    assert np.allclose(ka, -ka[::-1])  # symmetric about zero
    assert np.abs(ka).max() < np.pi
    assert np.allclose(np.diff(ka), 2 * np.pi / 10)


def test_momentum_grid_odd_n_contains_pi():
    ka = momentum_grid(5)
    assert len(ka) == 5
    assert np.isclose(ka.max(), np.pi)


def test_quasiparticle_energy_field_limit():
    ka = momentum_grid(8)
    assert np.allclose(ising_quasiparticle_energy(8, 0.0, ka), 1.0)
    assert np.allclose(ising_quasiparticle_energy(8, 1.0, ka), 1.0)


def test_quasiparticle_energy_midpoint():
    n = 10
    val = ising_quasiparticle_energy(n, 0.5, np.pi / n)
    assert val == pytest.approx(np.sin(np.pi / (2 * n)), abs=1e-14)


def test_quasiparticle_energy_spot_value():
    val = ising_quasiparticle_energy(10, 0.3, np.pi / 10)
    assert val == pytest.approx(0.42491912542981105, abs=1e-14)


def test_ground_energy_matches_numerics():
    for n in (6, 8):
        path = make_path("ising-linear", n=n)
        for s in (0.0, 0.25, 0.5, 0.8, 1.0):
            e0 = lowest_eigenpairs(path.at_progress(s), 1,
                                   want_vectors=False).eigenvalues[0]
            assert ising_linear_ground_energy(n, s) == pytest.approx(
                e0, abs=1e-8)


def test_ground_energy_matches_numerics_lanczos_n12():
    n = 12
    path = make_path("ising-linear", n=n)
    e0 = lowest_eigenpairs(path.at_progress(0.5), 1, want_vectors=False,
                           method="lanczos", tol=1e-11).eigenvalues[0]
    assert ising_linear_ground_energy(n, 0.5) == pytest.approx(e0, abs=1e-8)


def test_even_gap_matches_numerics():
    for n in (6, 8):
        path = make_path("ising-linear", n=n)
        for s in (0.3, 0.5, 0.7):
            gap = sector_gap(path.at_progress(s), "even")[0]
            assert ising_linear_even_gap(n, s) == pytest.approx(gap, abs=1e-8)


def test_min_even_gap_formula():
    assert ising_linear_min_even_gap(10) == pytest.approx(
        0.62573786016092348, abs=1e-14)


# ---------------------------------------------------------------------------
# first stepwise Ising segment
# ---------------------------------------------------------------------------

def test_first_step_endpoint_energies():
    n = 8
    lam0_start = [l for l in ising_first_step_levels(n, 0.0)
                  if l.branch == "lambda0" and l.kappa == 0]
    assert lam0_start[0].value == pytest.approx(-n)
    lam0_end = [l for l in ising_first_step_levels(n, 1.0)
                if l.branch == "lambda0" and l.kappa == 0]
    assert lam0_end[0].value == pytest.approx(-(n - 1))


def test_first_step_even_gap_at_minimum():
    n = 8
    levels = ising_first_step_levels(n, 0.8)
    lam0 = next(l for l in levels if l.branch == "lambda0" and l.kappa == 0)
    lam3 = next(l for l in levels if l.branch == "lambda3" and l.kappa == 0)
    assert lam3.value - lam0.value == pytest.approx(1.7888543819998318,
                                                    abs=1e-12)
    s_min, gap = ising_first_step_min_even_gap()
    assert (s_min, gap) == (0.8, pytest.approx(4 / np.sqrt(5)))


def test_first_step_minimizer_location():
    def even_gap(s):
        return 2.0 * np.sqrt(5 * s * s - 8 * s + 4)
    s_star, _ = _brent_minimize(even_gap, 0.0, 1.0, xtol=1e-9)
    assert s_star == pytest.approx(0.8, abs=1e-6)


def test_first_step_levels_present_in_dense_spectrum():
    n = 6
    path = make_path("ising-stepwise", n=n)
    for s in (0.2, 0.5, 0.9):
        num = np.linalg.eigvalsh(path.at_progress(s / n).to_dense())
        for level in ising_first_step_levels(n, s):
            assert np.min(np.abs(num - level.value)) < 1e-10


def test_first_step_sector_labels_match_numerics():
    n = 6
    path = make_path("ising-stepwise", n=n)
    s = 0.6
    op = path.at_progress(s / n)
    even = sector_levels(op, "even", count=3)
    analytic_even = sorted(l.value for l in ising_first_step_levels(n, s)
                           if l.sector == "even")
    assert np.allclose(even.eigenvalues, analytic_even[:3], atol=1e-9)


# ---------------------------------------------------------------------------
# intermediate Ising segments
# ---------------------------------------------------------------------------

def test_mid_step_gap_values():
    assert ising_mid_step_gap(0.5) == pytest.approx(np.sqrt(2))
    assert ising_mid_step_gap(0.0) == pytest.approx(2.0)
    assert ising_mid_step_gap(1.0) == pytest.approx(2.0)


def test_mid_step_spot_level():
    levels = ising_mid_step_levels(10, 0.25)
    lam_minus = next(l for l in levels
                     if l.branch == "lambda_minus" and l.kappa == 0)
    assert lam_minus.value == pytest.approx(-8.7905694150420948, abs=1e-12)


def test_mid_step_levels_present_in_dense_spectrum():
    n = 6
    path = make_path("ising-stepwise", n=n)
    for k in (1, 2, 3, 4):
        for s in (0.25, 0.5, 0.75):
            op = path.at_progress((k + s) / n)
            num = np.linalg.eigvalsh(op.to_dense())
            for level in ising_mid_step_levels(n, s):
                assert np.min(np.abs(num - level.value)) < 1e-10


def test_mid_step_symmetric_in_s():
    for s in (0.1, 0.3, 0.45):
        assert ising_mid_step_gap(s) == pytest.approx(
            ising_mid_step_gap(1 - s), abs=1e-14)


# ---------------------------------------------------------------------------
# 1d cluster segments
# ---------------------------------------------------------------------------

def test_cluster_step_decoupled_limit():
    n = 6
    vals = sorted({l.value for l in cluster1d_step_levels(n, 0.0)
                   if l.kappa == 0})
    assert vals == [pytest.approx(-n), pytest.approx(-(n - 2)),
                    pytest.approx(-(n - 4))]


def test_cluster_step_gap_and_symmetry():
    assert cluster1d_step_gap(0.5) == pytest.approx(np.sqrt(2))
    for s in (0.2, 0.4):
        levels = cluster1d_step_levels(8, s)
        lam1 = next(l.value for l in levels
                    if l.branch == "lambda1" and l.kappa == 0)
        lam4 = next(l.value for l in levels
                    if l.branch == "lambda4" and l.kappa == 0)
        spread = lam4 - lam1
        assert spread == pytest.approx(4 * np.sqrt(1 - 2 * s * (1 - s)))
        mirrored = cluster1d_step_levels(8, 1 - s)
        lam1_m = next(l.value for l in mirrored
                      if l.branch == "lambda1" and l.kappa == 0)
        assert lam1 == pytest.approx(lam1_m, abs=1e-14)


def test_cluster_step_levels_present_in_dense_spectrum():
    n = 6
    path = make_path("cluster1d-stepwise", n=n)
    segments = path.segment_count
    for k in (0, 2, segments - 1):
        for s in (0.3, 0.5):
            op = path.at_progress((k + s) / segments)
            num = np.linalg.eigvalsh(op.to_dense())
            for level in cluster1d_step_levels(n, s):
                assert np.min(np.abs(num - level.value)) < 1e-10


# ---------------------------------------------------------------------------
# 2d cluster two-link step
# ---------------------------------------------------------------------------

def test_two_link_endpoints_and_minimum():
    n = 9
    lam0, lam1 = cluster2d_two_link_lowest(n, 0.0)
    assert lam0[0].value == pytest.approx(-n)
    assert cluster2d_two_link_gap(0.0) == pytest.approx(2.0)
    assert cluster2d_two_link_gap(1.0) == pytest.approx(2.0)
    assert cluster2d_two_link_gap(0.5) == pytest.approx(
        1.2360679774997897, abs=1e-12)
    lam0_mid, lam1_mid = cluster2d_two_link_lowest(n, 0.5)
    assert lam1_mid[0].value - lam0_mid[0].value == pytest.approx(
        np.sqrt(5) - 1)


def test_two_link_levels_present_in_dense_spectrum():
    # 3x3 snake build: first two-link step attaches node 5 to nodes 4 and 2
    path = make_path("cluster2d-stepwise", width=3, height=3)
    from stepgap.models import lattice_build_order
    order = lattice_build_order(3, 3)
    k = order.two_link_steps()[0]
    segs = path.segment_count
    n = 9
    for s in (0.25, 0.5, 0.75):
        op = path.at_progress((k + s) / segs)
        num = np.linalg.eigvalsh(op.to_dense())
        lam0, lam1 = cluster2d_two_link_lowest(n, s, kappa_max=2)
        for level in lam0 + lam1:
            assert np.min(np.abs(num - level.value)) < 1e-9


def test_two_link_gap_symmetric_in_s():
    for s in (0.15, 0.35):
        assert cluster2d_two_link_gap(s) == pytest.approx(
            cluster2d_two_link_gap(1 - s), abs=1e-13)


# ---------------------------------------------------------------------------
# projector two-level formula
# ---------------------------------------------------------------------------

def test_projector_identical_states_keep_unit_gap():
    for s in (0.0, 0.3, 0.5, 1.0):
        assert projector_gap(1.0, s) == pytest.approx(1.0)


def test_projector_gap_minimum_equals_overlap():
    for c in (0.2, 1 / np.sqrt(2), 0.9):
        assert projector_gap(c, 0.5) == pytest.approx(c, abs=1e-14)
        lo, hi = projector_two_level(c, 0.5)
        assert lo == pytest.approx(0.5 * (1 - c))
        assert hi == pytest.approx(0.5 * (1 + c))


def test_projector_grover_limit():
    n = 8
    c = 1 / np.sqrt(2 ** n)
    assert projector_gap(c, 0.5) == pytest.approx(2 ** (-n / 2), abs=1e-15)


def test_projector_validation():
    with pytest.raises(ValueError):
        projector_two_level(1.5, 0.5)
    with pytest.raises(ValueError):
        projector_two_level(0.5, -0.1)


def test_analytic_level_is_frozen_record():
    lvl = AnalyticLevel(-3.0, 0, "lambda0", "even")
    with pytest.raises(Exception):
        lvl.value = 0.0
