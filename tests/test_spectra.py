"""Tests for eigensolvers, sector-labelled spectra and gap scans."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from test_dynamics import planted_paths
from test_pauli import projector_sums

from stepgap import ec3, spectra
from stepgap.models import (
    InterpolationPath,
    chain_lattice,
    cluster_hamiltonian,
    ising_endpoints,
    ising_step_hamiltonian,
    make_path,
)
from stepgap.pauli import (OperatorSum, PauliString, ProjectorSum, blend,
                           ghz_state, parity_expectation, taper)
from stepgap.spectra import (
    ConvergenceError,
    GapCurve,
    REFINE_XTOL,
    Segment,
    SpectrumResult,
    _brent_minimize,
    _refined_minimum,
    gap_scan,
    lowest_eigenpairs,
    sector_gap,
    sector_ground_state,
    sector_levels,
    segment_minimum,
)

RNG = np.random.default_rng(11)


def pair_gap_even(n, s):
    """Free-fermion oracle for the even-sector gap of the linear Ising path.

    Two quasiparticles at the smallest antiperiodic momenta +-pi/n, each of
    energy 2*sqrt(1 - 4 s (1-s) cos^2(ka/2)).
    """
    ka = np.pi / n
    eps = 2.0 * np.sqrt(1.0 - 4.0 * s * (1 - s) * np.cos(ka / 2.0) ** 2)
    return 2.0 * eps


# ---------------------------------------------------------------------------
# lowest_eigenpairs
# ---------------------------------------------------------------------------

def test_decoupled_field_levels():
    n = 5
    h_i, _ = ising_endpoints(n)
    res = lowest_eigenpairs(h_i, 2, want_vectors=False)
    assert np.allclose(res.eigenvalues, [-5.0, -3.0])


def test_cluster_chain_low_manifold():
    h = cluster_hamiltonian(chain_lattice(8))
    res = lowest_eigenpairs(h, 4, want_vectors=False)
    assert np.allclose(res.eigenvalues, [-8.0, -6.0, -6.0, -6.0], atol=1e-9)


def test_dense_and_lanczos_agree():
    for n, k in [(6, 2), (8, 4), (10, 3)]:
        h = ising_step_hamiltonian(n, k)
        dense = lowest_eigenpairs(h, 4, want_vectors=False, method="dense")
        lanc = lowest_eigenpairs(h, 4, want_vectors=False, method="lanczos",
                                 tol=1e-11)
        assert np.abs(dense.eigenvalues - lanc.eigenvalues).max() < 1e-8


def test_lanczos_linear_ising_even_gap_value():
    # independent free-fermion oracle; the minimum sits at s = 1/2
    n = 10
    path = make_path("ising-linear", n=n)
    gap, lam0, lam1 = sector_gap(path.at_progress(0.5), "even",
                                 method="lanczos", tol=1e-11)
    assert gap == pytest.approx(pair_gap_even(n, 0.5), abs=1e-8)
    assert gap == pytest.approx(4 * np.sin(np.pi / (2 * n)), abs=1e-8)


def test_count_validation_and_vectors():
    h, _ = ising_endpoints(3)
    with pytest.raises(ValueError):
        lowest_eigenpairs(h, 0)
    with pytest.raises(ValueError):
        lowest_eigenpairs(h, 9)
    res = lowest_eigenpairs(h, 3, want_vectors=True)
    for i in range(3):
        vec = res.eigenvectors[:, i]
        resid = h.apply(vec) - res.eigenvalues[i] * vec
        assert np.linalg.norm(resid) < 1e-10


def test_spectrum_result_requires_ascending():
    with pytest.raises(ValueError):
        SpectrumResult(np.array([1.0, 0.0]))


@given(projector_sums())
def test_projector_segment_kept_basis_matches_dense_blend(case):
    # one segment answers every s from the basis it builds first, the
    # ends included, where one operator's weight is zero; the second
    # operator is the strategy's, whose vector is one of op's, and one
    # whose vector lies outside op's span
    op, oracle, psi, count, other, s = case
    for second in (other, ProjectorSum.complement(psi / np.linalg.norm(psi))):
        segment = Segment(op, second)
        blocks = segment.sector("all")
        for t in (s, 0.0, 1.0, 0.5, s):
            blend_t = (1 - t) * oracle + t * second.to_dense()
            want = np.linalg.eigvalsh(blend_t)[:count]
            res = segment.levels((1 - t, t), blocks, count)
            bare = segment.levels((1 - t, t), blocks, count,
                                  want_vectors=False)
            for got in (res.eigenvalues, bare.eigenvalues):
                assert np.abs(got - want).max() <= 1e-12
            for lam, v in zip(res.eigenvalues, res.eigenvectors.T):
                assert np.linalg.norm(blend_t @ v - lam * v) <= 1e-10


# ---------------------------------------------------------------------------
# sector labels of the "all" spectrum
# ---------------------------------------------------------------------------

def test_ground_doublet_splits_into_even_and_odd():
    _, h_f = ising_endpoints(4)
    res = sector_levels(h_f, "all", count=4)
    # an exact tie between the blocks lists the even level first
    assert res.eigenvalues[0] == res.eigenvalues[1]
    assert res.sector_labels[:2] == ("even", "odd")
    even_idx = res.sector_labels.index("even")
    vec = res.eigenvectors[:, even_idx]
    overlap = abs(np.vdot(ghz_state(4), vec))
    assert overlap == pytest.approx(1.0, abs=1e-10)


def test_uniform_superposition_is_even():
    h_i, _ = ising_endpoints(4)
    res = sector_levels(h_i, "all", count=1)
    assert res.sector_labels == ("even",)


def test_parity_breaking_operator_has_no_labels():
    op = OperatorSum(2, [PauliString.from_ops(2, {1: "Z"}, -1.0)])
    res = sector_levels(op, "all", count=2)
    assert res.sector_labels is None
    assert np.allclose(res.eigenvalues, [-1.0, -1.0])


def test_sector_levels_even_requests_enough():
    _, h_f = ising_endpoints(5)
    res = sector_levels(h_f, "even", count=2)
    assert res.sector_labels == ("even", "even")
    # even levels of the bond Hamiltonian: cat ground then two-kink states
    assert np.allclose(res.eigenvalues, [-5.0, -1.0], atol=1e-9)


def dense_sector(op, sector):
    """Dense reference: the full matrix for ``all``, and for ``even`` or
    ``odd`` ``H +- H X^n`` on the basis states with the leading bit clear,
    H on span{|z> +- |~z>}."""
    full = op.to_dense()
    if sector == "all":
        return full
    sign = 1 if sector == "even" else -1
    half = len(full) // 2
    return (full + sign * full[:, ::-1])[:half, :half]


@pytest.mark.parametrize("n", [10, 12])
def test_sector_levels_is_one_block_solve_with_every_even_level(n,
                                                                monkeypatch):
    import stepgap.spectra as spectra
    solves, stacks = [], []
    solve, eigh = spectra.lowest_eigenpairs, np.linalg.eigh

    def counted(op, count, **kwargs):
        solves.append((op.n, count))
        return solve(op, count, **kwargs)

    def batched(a, *args, **kwargs):
        stacks.append(a.shape)
        return eigh(a, *args, **kwargs)

    monkeypatch.setattr(spectra, "lowest_eigenpairs", counted)
    monkeypatch.setattr(np.linalg, "eigh", batched)
    path = make_path("ising-stepwise", n=n)
    for s in (0.5 / n, 0.37, 0.55):
        op = path.at_progress(s)
        res = sector_levels(op, "even", count=6)
        even = np.linalg.eigvalsh(dense_sector(op, "even"))
        assert np.abs(res.eigenvalues - even[:6]).max() < 1e-9
        vecs = res.eigenvectors
        assert np.abs(vecs[::-1] - vecs).max() < 1e-12
        assert np.abs(np.column_stack([op.apply(v) for v in vecs.T])
                      - vecs * res.eigenvalues).max() < 1e-8
    # mid-segment, one qubit stays active: the even half of the 2^(n-1)
    # blocks of 2 x 2 shares two active matrices, one batched solve, with
    # no other eigensolve
    assert solves == []
    assert stacks == [(2, 2, 2)] * 3


def test_even_gap_sample_solves_at_most_two_active_blocks(monkeypatch):
    # an even ising-stepwise scan at n = 12 solves the grid samples of each
    # segment it enters in one eigvalsh of their keys' active matrices, not
    # of the 2^10 even blocks, and each refinement evaluation in one more;
    # the last segment tapers every qubit, one key of 1 x 1
    shapes, entered = [], []
    eigvalsh = np.linalg.eigvalsh

    def counted(a, *args, **kwargs):
        shapes.append(a.shape)
        return eigvalsh(a, *args, **kwargs)

    class Entered(Segment):
        def __init__(self, *ops):
            entered.append(ops)
            super().__init__(*ops)

    monkeypatch.setattr(np.linalg, "eigvalsh", counted)
    monkeypatch.setattr(spectra, "Segment", Entered)
    path, points = make_path("ising-stepwise", n=12), 41
    curve = gap_scan(path, points=points, sector="even")
    grid_segments = len({path.locate(s * path.tau)[0]
                         for s in np.linspace(0.0, 1.0, points)})
    refinements = curve.evaluations - points
    assert len(shapes) == grid_segments + refinements
    assert sum(shape[0] for shape in shapes) == curve.evaluations
    assert all(len(shape) == 4 and shape[1] <= 2
               and shape[2:] in ((2, 2), (1, 1)) for shape in shapes)
    assert (3, 2, 2, 2) in shapes and (4, 1, 1, 1) in shapes
    assert len(entered) >= path.segment_count
    assert curve.minimum[1] == pytest.approx(np.sqrt(2.0), abs=1e-9)


def test_operators_of_a_segment_share_one_key_index():
    # the keys of a set of blocks, and each block's place among them, are
    # built once and serve every operator of the segment
    segment = Segment(*make_path("ising-stepwise", n=8).segment(3))
    for blocks in (segment.sector("even"), [3, 1, 3]):
        (index, *_), (again, *_) = (segment.factor(k, blocks)
                                    for k in (0, 1))
        assert index is again
        assert np.array_equal(index, np.unique(
            np.asarray(blocks) & segment.tapering._key_mask,
            return_inverse=True)[1])


@pytest.mark.parametrize("route", ["stacked", "wide"])
@settings(max_examples=40)
@given(planted_paths(), st.data())
def test_segment_levels_match_the_dense_blend(route, path, data):
    # every valid sector of one segment at a random local s, against eigh
    # of the dense blend; the wide route solves each block operator alone
    k = data.draw(st.integers(0, path.segment_count - 1))
    s = data.draw(st.floats(0.0, 1.0))
    a, b = path.segment(k)
    full = (1.0 - s) * a.to_dense() + s * b.to_dense()
    with pytest.MonkeyPatch.context() as mp:
        if route == "wide":
            mp.setattr(spectra, "DENSE_SOLVE_DIM", 1)
        segment = Segment(a, b)
        for sector in ("all", "even", "odd"):
            try:
                blocks = segment.sector(sector)
            except ValueError:
                assert sector != "all"
                continue
            if sector == "all":
                want = np.linalg.eigvalsh(full)
            else:
                sign, half = (1 if sector == "even" else -1), len(full) // 2
                want = np.linalg.eigvalsh(
                    (full + sign * full[:, ::-1])[:half, :half])
            count = data.draw(st.integers(1, len(want)))
            res = segment.levels((1.0 - s, s), blocks, count)
            assert np.abs(res.eigenvalues - want[:count]).max() < 1e-10
            vecs = res.eigenvectors
            assert np.linalg.norm(full @ vecs - vecs * res.eigenvalues,
                                  axis=0).max() <= 1e-9
            if segment.tapering.parity(0) is None:
                assert res.sector_labels is None
                continue
            for v, label in zip(vecs.T, res.sector_labels):
                assert sector in ("all", label)
                assert parity_expectation(v) == pytest.approx(
                    1.0 if label == "even" else -1.0, abs=1e-9)


# ---------------------------------------------------------------------------
# minimum refinement
# ---------------------------------------------------------------------------

def golden_minimize(f, a, b, xtol=REFINE_XTOL):
    """Reference: golden-section minimum of a unimodal function on [a, b]."""
    invphi = (np.sqrt(5.0) - 1.0) / 2.0
    x1 = b - invphi * (b - a)
    x2 = a + invphi * (b - a)
    f1, f2 = f(x1), f(x2)
    while b - a > xtol:
        if f1 <= f2:
            b, x2, f2 = x2, x1, f1
            x1 = b - invphi * (b - a)
            f1 = f(x1)
        else:
            a, x1, f1 = x1, x2, f2
            x2 = a + invphi * (b - a)
            f2 = f(x2)
    return (x1, f1) if f1 <= f2 else (x2, f2)


def test_golden_minimize_quadratic():
    s, v = _brent_minimize(lambda x: (x - 0.3) ** 2 + 1.0, 0.0, 1.0)
    assert s == pytest.approx(0.3, abs=1e-6)
    assert v == pytest.approx(1.0, abs=1e-10)


def _unimodal(kind, c, scale, quartic, shift):
    """A function on the line with its one minimum at c."""
    if kind == "quartic":
        return lambda x: scale * (x - c) ** 2 + quartic * (x - c) ** 4 + shift
    if kind == "gap":  # 2 sqrt(1 - 2s(1 - s)), the linear-path gap shape
        return lambda x: scale * 2.0 * np.sqrt(
            1.0 - 2.0 * (0.5 + x - c) * (0.5 - x + c)) + shift
    return lambda x: abs(x - c)


@given(st.sampled_from(("quartic", "gap", "kink")),
       st.floats(-2.0, 1.0), st.floats(0.05, 1.0), st.floats(0.02, 0.98),
       st.floats(0.1, 10.0), st.floats(0.0, 10.0), st.floats(-3.0, 3.0),
       st.none() | st.floats(-0.99, 0.99))
def test_brent_matches_golden_section(kind, a, width, where, scale, quartic,
                                      shift, start):
    b = a + width
    c = a + where * width
    f = _unimodal(kind, c, scale, quartic, shift)
    calls = {"brent": 0, "golden": 0}

    def counted(name):
        def g(x):
            calls[name] += 1
            return f(x)
        return g

    seed = None
    if start is not None:  # no farther from c than the nearer end
        x0 = c + start * min(c - a, b - c)
        seed = (x0, f(x0))
    s, v = _brent_minimize(counted("brent"), a, b, start=seed)
    _, v_ref = golden_minimize(counted("golden"), a, b)
    assert a <= s <= b and v == f(s)
    if kind == "kink":
        # parabolas fit a V badly: held to the golden section's own bound,
        # its final bracket width
        assert abs(s - c) <= REFINE_XTOL
        assert calls["brent"] <= calls["golden"] + 2
    else:
        assert abs(s - c) <= 2 * REFINE_XTOL
        assert v <= v_ref + 1e-10
        assert calls["brent"] <= calls["golden"]


def test_brent_start_is_not_evaluated_again():
    seen = []

    def f(x):
        seen.append(x)
        return (x - 0.3) ** 2

    s, v = _brent_minimize(f, 0.0, 1.0, start=(0.25, 0.0025))
    assert 0.25 not in seen
    assert s == pytest.approx(0.3, abs=1e-6)


def test_tied_dips_report_the_leftmost():
    # samples at 0.25, 0.5, 0.75 tie, with a dip between each pair; the
    # right dip is lower by 1e-12, well inside DEGENERACY_TOL
    seen = []

    def f(x):
        value = min(1.0 + 4.0 * (x - 0.375) ** 2,
                    1.0 - 1e-12 + 4.0 * (x - 0.625) ** 2)
        seen.append((x, value))
        return value

    grid = np.linspace(0.0, 1.0, 5)
    values = np.array([f(x) for x in grid])
    seen.clear()
    s, v = _refined_minimum(f, grid, values)
    assert s == pytest.approx(0.375, abs=REFINE_XTOL)
    # the gap is still the lowest value found, at the right dip
    assert v == min(value for _, value in seen)
    assert v == pytest.approx(1.0 - 1e-12, abs=1e-15)
    assert any(abs(x - 0.625) <= REFINE_XTOL and value == v
               for x, value in seen)


def test_tied_samples_report_the_leftmost():
    # the samples at 0.25 and 0.75 are minima that tie within 1e-12, the
    # right one lower; the refinement starts there and finds nothing lower
    def dips(left):
        def f(x):
            calls.append(x)
            return min(left + 4.0 * (x - 0.25) ** 2,
                       1.0 - 1e-12 + 4.0 * (x - 0.75) ** 2)
        return f

    grid = np.linspace(0.0, 1.0, 5)
    counts = []
    for left, want in ((1.0, 0.25), (1.1, 0.75)):
        calls = []
        f = dips(left)
        values = np.array([f(x) for x in grid])
        calls.clear()
        s, v = _refined_minimum(f, grid, values)
        assert s == want
        assert v == pytest.approx(1.0 - 1e-12, abs=1e-15)
        counts.append(len(calls))
    # the tied sample costs no evaluation
    assert counts[0] == counts[1]


@pytest.mark.parametrize("edge, probes", [(0.5, 4), (0.8, 1)])
def test_a_plateau_takes_no_brent_run(edge, probes):
    # from `edge` on the values are rounding about 0, so the samples there
    # tie; only the midpoints between tied samples are probed, whatever
    # the rounding, and the leftmost tied sample is reported
    grid = np.linspace(0.0, 1.0, 9)
    for phase in (0.0, 1.0, 2.0):
        calls = []

        def f(x):
            calls.append(x)
            return max(0.0, edge - x) + 1e-12 * np.sin(1e4 * x + phase)

        values = np.array([f(x) for x in grid])
        calls.clear()
        s, v = _refined_minimum(f, grid, values)
        assert len(calls) == probes
        assert s == grid[np.flatnonzero(grid >= edge)[0]]
        assert abs(v) <= 1e-12


# ---------------------------------------------------------------------------
# gap scans
# ---------------------------------------------------------------------------

def test_gap_scan_linear_ising_minimum():
    n = 6
    path = make_path("ising-linear", n=n)
    curve = gap_scan(path, points=41, sector="even")
    s_min, g_min = curve.minimum
    assert s_min == pytest.approx(0.5, abs=1e-5)
    assert g_min == pytest.approx(pair_gap_even(n, 0.5), abs=1e-7)
    assert isinstance(curve, GapCurve)
    assert curve.samples.shape == (41, 4)


def test_gap_curve_continuous_at_segment_boundaries():
    n = 5
    path = make_path("ising-stepwise", n=n)
    for k in range(1, path.segment_count):
        s_b = k / path.segment_count
        left = sector_gap(path.at_progress(s_b - 1e-9), "even")[0]
        right = sector_gap(path.at_progress(s_b + 1e-9), "even")[0]
        assert abs(left - right) < 1e-6


def test_stepwise_even_gap_never_below_sqrt2():
    path = make_path("ising-stepwise", n=6)
    curve = gap_scan(path, points=121, sector="even")
    assert curve.samples[:, 1].min() >= np.sqrt(2) - 1e-6
    assert curve.minimum[1] == pytest.approx(np.sqrt(2), abs=1e-6)


def test_first_segment_minimum_matches_closed_form():
    path = make_path("ising-stepwise", n=6)
    s_min, g_min = segment_minimum(path, 0, sector="even")
    assert s_min == pytest.approx(0.8, abs=1e-5)
    assert g_min == pytest.approx(4 / np.sqrt(5), abs=1e-7)


def test_mid_segment_minimum_is_sqrt2_at_midpoint():
    path = make_path("ising-stepwise", n=6)
    s_min, g_min = segment_minimum(path, 2, sector="even")
    assert s_min == pytest.approx(0.5, abs=1e-5)
    assert g_min == pytest.approx(np.sqrt(2), abs=1e-7)


def test_last_segment_minimum_sits_at_boundary():
    n = 5
    path = make_path("ising-stepwise", n=n)
    s_min, g_min = segment_minimum(path, n - 1, sector="even")
    assert s_min == pytest.approx(0.0)
    assert g_min == pytest.approx(2.0, abs=1e-8)


ROUTE_CASES = [("ising-stepwise", {"n": n}, sector) for n in range(4, 11)
               for sector in ("all", "even", "odd")] \
    + [("cluster1d-stepwise", {"n": n}, "all") for n in range(4, 11)] \
    + [("cluster2d-stepwise", {"width": w, "height": 2}, "all")
       for w in (2, 3)]


def dense_scan(path, points, sector):
    """Reference scan: per sample, ``eigvalsh`` of the dense sector matrix
    of the operator, refined by the same `_refined_minimum`."""
    evaluations = 0

    def gap(s):
        nonlocal evaluations
        evaluations += 1
        w = np.linalg.eigvalsh(dense_sector(path.at_progress(s), sector))
        return w[1] - w[0], w[0], w[1]

    grid = np.linspace(0.0, 1.0, points)
    samples = np.column_stack([grid, [gap(s) for s in grid]])
    minimum = _refined_minimum(lambda s: gap(s)[0], grid, samples[:, 1])
    return samples, minimum, evaluations, lambda s: gap(s)[0]


@pytest.mark.parametrize("family, size, sector", ROUTE_CASES)
def test_tapered_scan_matches_the_per_sample_dense_route(family, size, sector,
                                                         monkeypatch):
    path = make_path(family, **size)
    samples, minimum, evaluations, dense_gap = dense_scan(path, 5, sector)
    # every sample of the tapered route is a batched block solve
    per_sample = []
    monkeypatch.setattr(spectra, "sector_gap",
                        lambda *args, **kw: per_sample.append(args))
    got = gap_scan(path, points=5, sector=sector)
    assert per_sample == []
    assert got.evaluations == evaluations
    assert np.abs(got.samples - samples).max() <= 1e-10
    assert abs(got.minimum[1] - minimum[1]) <= 1e-10
    # a bracket may hold several equal dips, and rounding picks the one a
    # refinement settles in: the tapered route's point is a minimum of the
    # dense curve
    assert abs(dense_gap(got.minimum[0]) - minimum[1]) <= 1e-10


def test_wide_block_scan_matches_the_dense_reference(monkeypatch):
    # the even block of ising-linear at n = 10 is 512 wide: one Lanczos
    # solve of the blended block sum per evaluation
    n = 10
    path = make_path("ising-linear", n=n)
    samples, minimum, evaluations, _ = dense_scan(path, 5, "even")
    solves = []
    solve = spectra.lowest_eigenpairs

    def counted(op, count, **kwargs):
        solves.append((op.n, count, kwargs.get("method")))
        return solve(op, count, **kwargs)

    monkeypatch.setattr(spectra, "lowest_eigenpairs", counted)
    got = gap_scan(path, points=5, sector="even", method="lanczos")
    assert solves == [(n - 1, 2, "lanczos")] * got.evaluations
    assert got.evaluations == evaluations
    assert np.abs(got.samples - samples).max() <= 1e-10
    assert abs(got.minimum[1] - minimum[1]) <= 1e-10
    assert got.minimum[1] == pytest.approx(pair_gap_even(n, 0.5), abs=1e-7)


def test_projector_scan_is_one_block_solve_per_evaluation(monkeypatch):
    from stepgap.ec3 import Ec3Instance, projector_hamiltonian
    solves, per_sample = [], []
    solve = spectra.lowest_eigenpairs

    def counted(op, count, **kwargs):
        solves.append((op.n, kwargs.get("method")))
        return solve(op, count, **kwargs)

    monkeypatch.setattr(spectra, "lowest_eigenpairs", counted)
    monkeypatch.setattr(spectra, "sector_gap",
                        lambda *args, **kw: per_sample.append(args))
    # a projector segment is one full-space block, solved once per
    # evaluation with the caller's explicit method; a Pauli path's method
    # reaches its wide blocks alone, here the even and the odd one
    inst = Ec3Instance(6, ((1, 2, 3), (4, 5, 6)))
    projectors = InterpolationPath(projector_hamiltonian(inst, (0, 1)),
                                   (1.0, 1.0))
    for path, solver, want in (
            (projectors, {"method": "dense"}, [(6, "dense")]),
            (make_path("ising-stepwise", n=4), {"method": "dense"}, []),
            (make_path("ising-linear", n=10), {"method": "lanczos"},
             [(9, "lanczos")] * 2)):
        solves.clear()
        curve = gap_scan(path, points=3, **solver)
        assert solves == want * curve.evaluations
    # with the default method a projector segment factors one kept basis
    # when it is entered, and each evaluation solves its small blend alone
    entered, factored = [], []
    qr = np.linalg.qr

    class Entered(Segment):
        def __init__(self, *ops):
            entered.append(ops)
            super().__init__(*ops)

    def counted_qr(a, *args, **kwargs):
        factored.append(a.shape)
        return qr(a, *args, **kwargs)

    monkeypatch.setattr(spectra, "Segment", Entered)
    monkeypatch.setattr(np.linalg, "qr", counted_qr)
    solves.clear()
    curve = gap_scan(projectors, points=3)
    assert solves == []
    assert curve.evaluations > len(entered) >= 2
    assert factored == [(64, 4)] * len(entered)
    assert per_sample == []


def levels_scan(path, points, sector="all", **solver):
    """`gap_scan` as it solved before :meth:`Segment.values`: one
    :meth:`Segment.levels` per sample and per refinement evaluation."""
    grid = np.linspace(0.0, 1.0, points)
    evaluations = 0
    current, segment, blocks = None, None, None

    def eval_gap(s_global):
        nonlocal evaluations, current, segment, blocks
        evaluations += 1
        k, s = path.locate(float(s_global) * path.tau)
        if k != current:
            current, segment = k, Segment(*path.segment(k))
            blocks = segment.sector(sector)
        lam0, lam1 = (float(x) for x in segment.levels(
            (1.0 - s, s), blocks, 2, want_vectors=False, **solver).eigenvalues)
        return lam1 - lam0, lam0, lam1

    samples = np.column_stack([grid, np.array([eval_gap(s) for s in grid])])
    minimum = _refined_minimum(lambda s: eval_gap(s)[0], grid, samples[:, 1])
    return GapCurve(samples, sector, minimum, evaluations)


def levels_rows(segment, weights, blocks, count, **solver):
    """Each row's :meth:`Segment.levels` eigenvalues, one call per row."""
    return np.array([segment.levels(row, blocks, count, want_vectors=False,
                                    **solver).eigenvalues for row in weights])


def value_weights(seed, size=2):
    """Rows at s = 0, 1/4, 1/2 and 1, then three random ones; with more
    than two operators, random rows with zeros and one-hot rows."""
    rng = np.random.default_rng(seed)
    if size == 2:
        s = np.concatenate([[0.0, 0.25, 0.5, 1.0], rng.random(3)])
        return np.column_stack([1.0 - s, s])
    return np.vstack([rng.random((3, size)) * (rng.random((3, size)) < 0.5),
                      np.eye(size)[[0, size // 2, -1]]])


def ec3_path(n, m, seed=None, clauses=None):
    """The greedy-ordered projector path of the given clauses, else of a
    seeded satisfiable instance."""
    inst = ec3.Ec3Instance(n, clauses) if clauses else \
        ec3.random_satisfiable_instance(n, m, np.random.default_rng(seed))
    return make_path("ec3-projector", instance=inst,
                     clause_order=ec3.order_clauses(inst, "greedy-max-r"))


@pytest.mark.parametrize("family, size, sector", ROUTE_CASES)
def test_values_equal_the_per_sample_levels(family, size, sector):
    path = make_path(family, **size)
    weights = value_weights(path.n)
    for k in range(path.segment_count):
        segment = Segment(*path.segment(k))
        blocks = segment.sector(sector)
        assert segment._route(blocks, 2, False, {}) == "narrow"
        for count in (1, 2, len(blocks) * segment.tapering.block_dim):
            got = segment.values(weights, blocks, count)
            assert got.shape == (len(weights), count)
            assert np.array_equal(got, levels_rows(segment, weights, blocks,
                                                   count))


@pytest.mark.parametrize("route, segment, sector, solver, counts", [
    ("narrow", lambda: Segment(*make_path("ising-stepwise", n=6).operators),
     "even", {}, (1, 2, 5)),
    ("projector", lambda: Segment(*ec3_path(8, 6, 5).segment(2)), "all", {},
     (1, 2, 3)),
    ("wide", lambda: Segment(*ec3_path(8, 6, 5).segment(4)), "all",
     {"method": "dense"}, (2,)),
    ("majorana", lambda: Segment(*make_path("ising-linear", n=10).segment(0)),
     "even", {}, (1, 2, 3)),
    ("majorana", lambda: Segment(*make_path("ising-linear", n=11).segment(0)),
     "all", {}, (2, 4)),
    ("wide", lambda: Segment(*make_path("ising-linear", n=10).segment(0)),
     "even", {"method": "lanczos"}, (2,)),
    ("wide", lambda: Segment(*make_path("ising-linear", n=10).segment(0)),
     "all", {"method": "dense"}, (2,)),
], ids=["path-wide", "projector", "projector-dense", "majorana-even",
        "majorana-all", "lanczos", "dense"])
def test_values_equal_the_per_sample_levels_on_every_route(
        route, segment, sector, solver, counts):
    segment = segment()
    blocks = segment.sector(sector)
    weights = value_weights(7, len(segment.operators))
    for count in counts:
        assert segment._route(blocks, count, False, solver) == route
        assert np.array_equal(
            segment.values(weights, blocks, count, **solver),
            levels_rows(segment, weights, blocks, count, **solver))


#: the fixed instance of the benchmark's ec3-projector workload
EC3_FAULT = ((1, 2, 7), (6, 7, 8), (3, 4, 7), (2, 7, 8), (4, 9, 10),
             (4, 6, 10), (7, 8, 9), (6, 7, 9))


@pytest.mark.parametrize("path, points, sector", [
    # the benchmark's scans
    (lambda: make_path("ising-linear", n=10), 5, "even"),
    (lambda: make_path("ising-stepwise", n=10), 21, "even"),
    (lambda: make_path("cluster1d-stepwise", n=10), 19, "all"),
    (lambda: make_path("cluster2d-stepwise", width=3, height=3), 17, "all"),
    (lambda: ec3_path(10, 8, clauses=EC3_FAULT), 33, "all"),
    (lambda: ec3_path(10, 8, 401), 33, "all"),
    # the CLI's default 200 points
    (lambda: make_path("ising-stepwise", n=10), 200, "even"),
    (lambda: make_path("cluster2d-stepwise", width=3, height=3), 200, "all"),
    (lambda: make_path("cluster1d-stepwise", n=12), 200, "all"),
    (lambda: make_path("ising-linear", n=12), 200, "even"),
], ids=["linear-10", "stepwise-10", "cluster1d-10", "cluster2d-3x3",
        "ec3-fault", "ec3-seeded", "stepwise-10-200", "cluster2d-3x3-200",
        "cluster1d-12-200", "linear-12-200"])
def test_scan_equals_the_per_sample_levels_route(path, points, sector):
    path = path()
    got, want = (scan(path, points, sector)
                 for scan in (gap_scan, levels_scan))
    assert np.array_equal(got.samples, want.samples)
    assert got.minimum == want.minimum
    assert got.evaluations == want.evaluations


def test_even_scan_memory_at_n16():
    # the per-sample route peaked at 15.0 words per even block of a mid
    # segment; the batch may add its S x keys x d stack of key levels
    n, points = 16, 200
    path = make_path("ising-stepwise", n=n)
    blocks = len(Segment(*path.segment(n // 2)).sector("even"))
    tracemalloc.start()
    try:
        curve = gap_scan(path, points=points, sector="even")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    stack = (points // path.segment_count + 2) * 2 * 2 * 8
    assert peak < 15.1 * 8 * blocks + stack
    assert curve.minimum[1] == pytest.approx(np.sqrt(2.0), abs=1e-9)


def test_even_scan_without_the_symmetry_is_refused_before_any_solve(
        monkeypatch):
    calls = []

    def refused(*args, **kwargs):
        calls.append(args)
        raise AssertionError("no solve expected")

    monkeypatch.setattr(spectra, "lowest_eigenpairs", refused)
    monkeypatch.setattr(np.linalg, "eigvalsh", refused)
    monkeypatch.setattr(np.linalg, "eigh", refused)
    # the first operator, -sum X, commutes with the bit flip; the cluster
    # steps after it do not
    path = make_path("cluster1d-stepwise", n=4)
    for sector in ("even", "odd"):
        with pytest.raises(ValueError, match="bit flip"):
            gap_scan(path, points=5, sector=sector)
    assert calls == []


@pytest.mark.parametrize("n", [4, 8, 12])
@pytest.mark.parametrize("family", ["ising-linear", "ising-stepwise"])
def test_parity_blocks_of_ising_paths_are_the_dense_fold(family, n):
    path = make_path(family, n=n)
    tapering = taper(*path.operators)
    assert [str(g) for g in tapering.generators] == ["+1*" + "X" * n]
    for sector in ("even", "odd"):
        (b,) = tapering.sector(sector)
        for k, op in enumerate(path.operators):
            block = tapering.block(k, b)
            assert block.n == n - 1
            assert np.abs(block.to_dense() - dense_sector(op, sector)
                          ).max() < 1e-12


def test_gap_scan_validation():
    path = make_path("ising-linear", n=4)
    with pytest.raises(ValueError):
        gap_scan(path, points=1)
    with pytest.raises(ValueError):
        segment_minimum(path, 3)


# ---------------------------------------------------------------------------
# scaling tables
# ---------------------------------------------------------------------------

def min_gaps(family, n_list, sector, points):
    """Minimum path gap per system size."""
    return [(n, gap_scan(make_path(family, n=n), points=points,
                         sector=sector).minimum[1]) for n in n_list]


def test_min_gap_vs_n_linear_ising():
    rows = min_gaps("ising-linear", [4, 6], sector="even", points=41)
    for n, g in rows:
        assert g == pytest.approx(pair_gap_even(n, 0.5), abs=1e-6)


def test_min_gap_vs_n_stepwise_constant():
    rows = min_gaps("ising-stepwise", [4, 6], sector="even", points=161)
    for _, g in rows:
        assert g == pytest.approx(np.sqrt(2), abs=1e-6)


def test_min_gap_vs_n_cluster_constant():
    rows = min_gaps("cluster1d-stepwise", [5, 6], sector="all", points=161)
    for _, g in rows:
        assert g == pytest.approx(np.sqrt(2), abs=1e-6)


# ---------------------------------------------------------------------------
# overlap chain between successive stepwise ground states
# ---------------------------------------------------------------------------

def test_even_ground_state_overlap_chain():
    n = 6
    states = [sector_ground_state(ising_step_hamiltonian(n, k), "even")
              for k in range(n + 1)]
    for k in range(n - 1):
        overlap = abs(np.vdot(states[k], states[k + 1]))
        assert overlap == pytest.approx(1 / np.sqrt(2), abs=1e-8)
    last = abs(np.vdot(states[n - 1], states[n]))
    assert last == pytest.approx(1.0, abs=1e-10)


# ---------------------------------------------------------------------------
# solver agreement across the remaining model families
# ---------------------------------------------------------------------------

def test_dense_and_lanczos_agree_cluster_families():
    from stepgap.models import cluster_hamiltonian, grid_lattice
    for op in (cluster_hamiltonian(chain_lattice(9, 4)),
               cluster_hamiltonian(grid_lattice(3, 3))):
        dense = lowest_eigenpairs(op, 4, want_vectors=False, method="dense")
        lanc = lowest_eigenpairs(op, 4, want_vectors=False, method="lanczos",
                                 tol=1e-11)
        assert np.abs(dense.eigenvalues - lanc.eigenvalues).max() < 1e-8


def test_dense_and_lanczos_agree_projector_segment():
    from stepgap.ec3 import Ec3Instance, projector_hamiltonian
    inst = Ec3Instance(9, ((1, 2, 3), (4, 5, 6), (7, 8, 9)))
    h_a = projector_hamiltonian(inst, (0, 1, 2))[1]
    h_b = projector_hamiltonian(inst, (0, 1, 2))[2]
    op = blend(h_a, h_b, 0.5)
    dense = lowest_eigenpairs(op, 2, want_vectors=False, method="dense")
    lanc = lowest_eigenpairs(op, 2, want_vectors=False, method="lanczos",
                             tol=1e-11)
    assert np.abs(dense.eigenvalues - lanc.eigenvalues).max() < 1e-8
