"""Tests for time evolution, fidelity measures and runtime scaling.

`evolve` on vectors is the oracle of the covariance route of
`adiabatic_run`, and the dense covariance ``<psi| i c_a c_b |psi>`` of
`evolution_target`'s vector, with the Majoranas built by Kronecker
products, that of its Gaussian target.
"""

import tracemalloc

import numpy as np
import pytest
import scipy.linalg
from hypothesis import assume, given, settings, strategies as st

from stepgap import dynamics, spectra
from stepgap.dynamics import (
    EvolutionResult,
    ScalingRow,
    _krylov_expm_apply,
    adiabatic_run,
    evolution_target,
    evolve,
    fidelity,
    runtime_for_fidelity,
)
from stepgap.models import InterpolationPath, ising_endpoints, make_path
from stepgap.pauli import (
    GateSpec,
    OperatorSum,
    PauliString,
    Tapering,
    basis_state,
    boundary_map,
    conjugate,
    ghz_state,
    parity_expectation,
    parity_operator,
    taper,
    uniform_superposition,
)
from stepgap.spectra import ConvergenceError, Segment, lowest_eigenpairs

RNG = np.random.default_rng(23)


# ---------------------------------------------------------------------------
# fidelity
# ---------------------------------------------------------------------------

def test_fidelity_identical_and_orthogonal():
    psi = uniform_superposition(3)
    assert fidelity(psi, psi) == pytest.approx(1.0)
    assert fidelity(basis_state(3, 0), basis_state(3, 7)) == 0.0


def test_fidelity_superposition_vs_cat():
    n = 6
    val = fidelity(uniform_superposition(n), ghz_state(n))
    assert val == pytest.approx(2.0 ** (-(n - 1)), abs=1e-15)
    assert val == pytest.approx(0.03125)


def test_fidelity_shape_mismatch():
    with pytest.raises(ValueError):
        fidelity(np.ones(4), np.ones(8))


# ---------------------------------------------------------------------------
# Krylov exponential
# ---------------------------------------------------------------------------

def test_krylov_step_matches_dense_expm():
    dim = 40
    h = RNG.normal(size=(dim, dim))
    h = 0.5 * (h + h.T)
    psi = RNG.normal(size=dim) + 1j * RNG.normal(size=dim)
    psi /= np.linalg.norm(psi)
    for dt in (0.05, 0.4):
        got = _krylov_expm_apply(lambda v: h @ v, psi, dt)
        want = scipy.linalg.expm(-1j * dt * h) @ psi
        assert np.linalg.norm(got - want) < 1e-10
        assert abs(np.linalg.norm(got) - 1.0) < 1e-12


def test_krylov_step_small_dimension_exact():
    h = np.diag([1.0, -1.0])
    psi = np.array([1.0, 1.0]) / np.sqrt(2)
    got = _krylov_expm_apply(lambda v: h @ v, psi, 0.7)
    want = scipy.linalg.expm(-0.7j * h) @ psi
    assert np.linalg.norm(got - want) < 1e-13


def test_krylov_full_space_is_exact_at_any_step():
    dim = 24
    h = RNG.normal(size=(dim, dim))
    h = 5.0 * (h + h.T)
    psi = RNG.normal(size=dim) + 1j * RNG.normal(size=dim)
    psi /= np.linalg.norm(psi)
    got = _krylov_expm_apply(lambda v: h @ v, psi, 3.0)
    want = scipy.linalg.expm(-3j * h) @ psi
    assert np.linalg.norm(got - want) < 1e-9


def test_krylov_space_that_misses_the_bound_raises():
    # dt * ||H|| ~ 10^3: 48 vectors of a 200-dimensional space cannot
    # reach the bound, and a truncated exponential must not come back
    dim = 200
    h = RNG.normal(size=(dim, dim))
    h = 5.0 * (h + h.T)
    psi = RNG.normal(size=dim) + 1j * RNG.normal(size=dim)
    psi /= np.linalg.norm(psi)
    with pytest.raises(ConvergenceError):
        _krylov_expm_apply(lambda v: h @ v, psi, 10.0)


def test_one_tridiagonal_eigh_per_exponential(monkeypatch):
    calls = {"eigh": 0, "expm": 0}
    eigh, expm = np.linalg.eigh, dynamics._krylov_expm_apply

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(np.linalg, "eigh", counted("eigh", eigh))
    monkeypatch.setattr(dynamics, "_krylov_expm_apply",
                        counted("expm", expm))
    # a projector path runs every exponential through the Krylov route
    from stepgap.ec3 import Ec3Instance
    inst = Ec3Instance(4, ((1, 2, 3), (2, 3, 4)))
    path = make_path("ec3-projector", instance=inst)
    evolve(path, uniform_superposition(4), tau=8.0)
    assert calls["expm"] > 0
    assert calls["eigh"] == calls["expm"]


# ---------------------------------------------------------------------------
# evolve
# ---------------------------------------------------------------------------

# (n, tau, fidelity, substeps) of `evolve --family ising-stepwise` at the
# benchmark's sizes, as the full-dimension propagator computed them
PINNED_RUNS = [(8, 60.0, 0.9953455539152419, 512),
               (12, 10.0, 0.0016727047386910093, 96)]


@pytest.mark.parametrize("n, tau, fid, steps", PINNED_RUNS)
def test_stepwise_ising_runs_keep_their_counts(n, tau, fid, steps):
    path = make_path("ising-stepwise", n=n)
    psi0 = uniform_superposition(n)
    res = evolve(path, psi0, tau, target=evolution_target(path, psi0),
                 track_parity=True)
    assert res.refinements == 3
    assert res.step_count == steps
    assert abs(res.fidelity - fid) < 1e-9
    # the block holds only even states, so the parity is exact
    assert res.parity_range == (1.0, 1.0)
    assert res.norm_drift < 1e-12


def _recorded_chunks(monkeypatch):
    """Shapes of the stacks that batched ``eigh`` exponentiates, and per
    segment ``(keys, d)`` of its first operator's factored form, recorded
    as `evolve` runs."""
    calls, shapes = [], []
    eigh, factor = np.linalg.eigh, Tapering.factor

    def recorded_eigh(a, *args, **kwargs):
        if a.ndim == 4:  # (exponentials, keys, d, d)
            calls.append(a.shape)
        return eigh(a, *args, **kwargs)

    def recorded_factor(tapering, k, held):
        index, consts, actives = factor(tapering, k, held)
        if k == 0:
            shapes.append(actives.shape[:2])
        return index, consts, actives

    monkeypatch.setattr(np.linalg, "eigh", recorded_eigh)
    monkeypatch.setattr(Tapering, "factor", recorded_factor)
    return calls, shapes


def _chunk_count(path, tau, res, shapes):
    """Batched ``eigh`` calls of a run: per pass and segment, one per chunk
    of as many substeps as the fold holds amplitudes per active matrix."""
    base = [int(np.ceil(d)) for d in path.rescaled(tau).durations]
    share = [max(1, (1 << path.n) // (keys * d * d)) for keys, d in shapes]
    return sum(-(-(m << r) // c) for r in range(res.refinements + 1)
               for m, c in zip(base, share))


def test_narrow_segments_take_one_eigh_per_chunk(monkeypatch):
    # a pass exponentiates each segment's active matrices in chunks of as
    # many substeps as the fold holds amplitudes per active matrix, one
    # batched eigh a chunk, where it once took one per exponential
    n, tau, fid, steps = PINNED_RUNS[0]
    path = make_path("ising-stepwise", n=n)
    psi0 = uniform_superposition(n)
    target = evolution_target(path, psi0)
    calls, shapes = _recorded_chunks(monkeypatch)
    res = evolve(path, psi0, tau, target=target, track_parity=True)
    assert res.step_count == steps
    assert abs(res.fidelity - fid) < 1e-9
    # set up once per segment for every pass
    assert len(shapes) == path.segment_count
    exponentials = sum(2 * res.step_count >> r
                       for r in range(res.refinements + 1))
    assert exponentials == 1920
    assert len(calls) == _chunk_count(path, tau, res, shapes)
    assert len(calls) <= exponentials // 16
    # no chunk's stack outgrows two copies of the fold
    assert max(np.prod(shape) for shape in calls) <= 2 << n


def test_parity_read_per_substep_takes_one_eigh_per_chunk(monkeypatch):
    # X^n is no generator of a cluster segment, so the parity is read after
    # every substep: each chunk's propagators compose per substep, not per
    # chunk, from the same one batched eigh; the run's numbers are those of
    # one eigh per substep
    n, tau = 6, 20.0
    path = make_path("cluster1d-stepwise", n=n)
    psi0 = uniform_superposition(n)
    target = evolution_target(path, psi0)
    calls, shapes = _recorded_chunks(monkeypatch)
    res = evolve(path, psi0, tau, target=target, track_parity=True)
    assert (res.step_count, res.refinements) == (160, 3)
    assert len(calls) == _chunk_count(path, tau, res, shapes)
    assert len(calls) < sum(res.step_count >> r
                            for r in range(res.refinements + 1))
    assert max(np.prod(shape) for shape in calls) <= 2 << n
    assert abs(res.fidelity - 0.9278183365695823) < 1e-12
    lo, hi = res.parity_range
    assert abs(lo + 0.1228746905227249) < 1e-12
    assert abs(hi - 0.9999999999999993) < 1e-12


def test_long_unshared_run_holds_no_propagator_per_substep():
    # ising-linear keeps X^n alone: the even start holds one 32 x 32 block
    # at n = 6, which no other row shares.  A propagator kept for each of
    # the last pass's 640 substeps would take 10 MB.
    n, tau = 6, 320.0
    path = make_path("ising-linear", n=n)
    psi0 = uniform_superposition(n)
    target = evolution_target(path, psi0)
    tracemalloc.start()
    try:
        res = evolve(path, psi0, tau, target=target)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert res.step_count == 640
    assert peak < 1 << 20


def _dense_cf4(path, psi0, steps, states=None):
    """Fourth-order commutator-free propagation with scipy's expm of the
    dense operators, ``exp(-i h (a1 H(t1) + a2 H(t2)))`` twice per substep
    at the Gauss nodes t1, t2; `states`, when given, collects the state
    after each substep."""
    node = np.sqrt(3.0) / 6.0
    a_lo, a_hi = (3.0 - 2.0 * np.sqrt(3.0)) / 12.0, \
        (3.0 + 2.0 * np.sqrt(3.0)) / 12.0
    psi = psi0.astype(complex)
    for k, m in enumerate(steps):
        h_a, h_b = (op.to_dense() for op in path.segment(k))
        h = path.durations[k] / m
        for j in range(m):
            h1, h2 = ((1.0 - s) * h_a + s * h_b
                      for s in ((j + 0.5 - node) / m, (j + 0.5 + node) / m))
            psi = scipy.linalg.expm(-1j * h * (a_hi * h1 + a_lo * h2)) @ psi
            psi = scipy.linalg.expm(-1j * h * (a_lo * h1 + a_hi * h2)) @ psi
            if states is not None:
                states.append(psi)
    return psi


def _start_state(kind, n):
    cat = np.zeros(1 << n)
    cat[0] = 1.0 / np.sqrt(2.0)
    cat[-1] = (1.0 if kind == "even" else -1.0) / np.sqrt(2.0)
    if kind != "mixed":
        return cat
    psi = basis_state(n, 1) + 0.5 * uniform_superposition(n)
    return psi / np.linalg.norm(psi)


def _recorded_routes(monkeypatch):
    """Widths of the blocks exponentiated by batched ``eigh`` and
    dimensions of the Krylov exponentials, recorded as `evolve` runs."""
    widths, dims = set(), set()
    eigh, expm = np.linalg.eigh, dynamics._krylov_expm_apply

    def recorded_eigh(a, *args, **kwargs):
        if a.ndim >= 3:  # a stack of blocks, not a Krylov tridiagonal
            widths.add(a.shape[-1])
        return eigh(a, *args, **kwargs)

    def recorded_expm(matvec, psi, dt, *args, **kwargs):
        dims.add(len(psi))
        return expm(matvec, psi, dt, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", recorded_eigh)
    monkeypatch.setattr(dynamics, "_krylov_expm_apply", recorded_expm)
    return widths, dims


@pytest.mark.parametrize("start", ["even", "odd", "mixed"])
@pytest.mark.parametrize("family, n", [("ising-linear", 6),
                                       ("ising-stepwise", 6),
                                       ("cluster1d-stepwise", 5)])
def test_propagation_routes_match_dense_cf4(family, n, start, monkeypatch):
    widths, dims = _recorded_routes(monkeypatch)
    path = make_path(family, n=n)
    psi0 = _start_state(start, n)
    tau = 4.0
    res = evolve(path, psi0, tau, accuracy=1e-6, track_parity=True)
    run = path.rescaled(tau)
    steps = [int(np.ceil(d)) << res.refinements for d in run.durations]
    assert res.step_count == sum(steps)
    want = _dense_cf4(run, psi0, steps)
    assert np.linalg.norm(res.final_state - want) < 1e-10
    # each segment tapers to blocks of 2^(n-1) amplitudes (ising-linear
    # keeps X^n alone), 2 (1 on the last, diagonal, Ising step) or 4, all
    # exponentiated exactly
    assert dims == set()
    assert widths == {"ising-linear": {1 << (n - 1)},
                      "ising-stepwise": {2, 1},
                      "cluster1d-stepwise": {4}}[family]
    # only the Ising paths commute with the bit flip at every operator
    if family.startswith("ising") and start != "mixed":
        sign = 1.0 if start == "even" else -1.0
        assert res.parity_range == (sign, sign)
    elif family.startswith("ising"):
        # read off the rows' parities, and conserved
        lo, hi = res.parity_range
        assert abs(lo - parity_expectation(psi0)) < 1e-12
        assert abs(hi - parity_expectation(psi0)) < 1e-12


def test_lifted_parity_matches_dense_cf4_substeps():
    # X^n is no generator of a cluster segment, so the parity is measured
    # on the lifted state after every substep, where the phases of the
    # rows' mean diagonals count
    n, tau = 5, 4.0
    path = make_path("cluster1d-stepwise", n=n)
    psi0 = _start_state("mixed", n)
    res = evolve(path, psi0, tau, accuracy=1e-6, track_parity=True)
    run = path.rescaled(tau)
    steps = [int(np.ceil(d)) << res.refinements for d in run.durations]
    states = [psi0]
    _dense_cf4(run, psi0, steps, states)
    assert len(states) == res.step_count + 1
    want = [parity_expectation(psi) for psi in states]
    assert abs(res.parity_range[0] - min(want)) < 1e-10
    assert abs(res.parity_range[1] - max(want)) < 1e-10
    assert max(want) - min(want) > 0.1


def test_wide_blocks_take_the_krylov_route(monkeypatch):
    # ising-linear keeps X^n alone: blocks of 64 amplitudes at n = 7, wider
    # than KRYLOV_DIM_MAX, and the even start fills one of them
    widths, dims = _recorded_routes(monkeypatch)
    n, tau = 7, 4.0
    assert 1 << (n - 1) > dynamics.KRYLOV_DIM_MAX
    path = make_path("ising-linear", n=n)
    psi0 = uniform_superposition(n)
    res = evolve(path, psi0, tau, accuracy=1e-6, track_parity=True)
    assert dims == {1 << (n - 1)}
    assert widths == set()
    run = path.rescaled(tau)
    steps = [int(np.ceil(d)) << res.refinements for d in run.durations]
    want = _dense_cf4(run, psi0, steps)
    assert np.linalg.norm(res.final_state - want) < 1e-10
    assert res.parity_range == (1.0, 1.0)


@st.composite
def planted_paths(draw):
    """Paths through 2-3 random Pauli sums on 2-6 qubits that share at
    least k symmetries: every term carries I or Z on the first k qubits,
    and all the sums are scrambled by one relabelling of X, Y, Z per
    qubit and the same CNOT conjugations."""
    n = draw(st.integers(2, 6))
    k = draw(st.integers(1, n))
    factors = st.tuples(*[st.sampled_from("IZ")] * k,
                        *[st.sampled_from("IXYZ")] * (n - k))
    coefficient = st.floats(-1.0, 1.0).filter(lambda c: abs(c) > 0.05)
    perms = draw(st.lists(st.permutations("XYZ"), min_size=n, max_size=n))
    pairs = st.tuples(st.integers(1, n), st.integers(1, n))
    cnots = draw(st.lists(pairs.filter(lambda p: p[0] != p[1]),
                          max_size=4))
    ops = []
    for _ in range(draw(st.integers(2, 3))):
        terms = draw(st.lists(st.tuples(factors, coefficient), min_size=n,
                              max_size=2 * n + 2))
        op = OperatorSum(n, [PauliString.from_label("".join(
            f if f == "I" else perm["XYZ".index(f)]
            for f, perm in zip(label, perms)), c) for label, c in terms])
        for c, t in cnots:
            op = conjugate(op, GateSpec("CNOT", c, t))
        ops.append(op)
    durations = draw(st.lists(st.floats(0.3, 1.5), min_size=len(ops) - 1,
                              max_size=len(ops) - 1))
    return InterpolationPath(tuple(ops), tuple(durations))


@settings(max_examples=40)
@given(planted_paths(), st.integers(0, 2**32 - 1), st.data())
def test_segment_blocks_match_dense_cf4(path, seed, data):
    # a start in several blocks of the path's common tapering, the others
    # exactly empty
    tapering = taper(*path.operators)
    blocks = 1 << len(tapering.generators)
    kept = data.draw(st.lists(st.booleans(), min_size=blocks,
                              max_size=blocks).filter(any))
    rng = np.random.default_rng(seed)
    rows = rng.normal(size=(blocks, tapering.block_dim)) \
        + 1j * rng.normal(size=(blocks, tapering.block_dim))
    rows[~np.array(kept)] = 0.0
    psi0 = tapering.unfold(rows)
    psi0 /= np.linalg.norm(psi0)
    res = evolve(path, psi0, path.tau, accuracy=1e-6)
    steps = [int(np.ceil(d)) << res.refinements for d in path.durations]
    assert res.step_count == sum(steps)
    want = _dense_cf4(path, psi0, steps)
    assert np.linalg.norm(res.final_state - want) < 1e-10


@settings(max_examples=30)
@given(planted_paths(), st.integers(0, 2**32 - 1))
def test_all_distinct_blocks_match_dense_cf4(path, seed):
    # every block of every segment has its own key, so no held row shares
    # its propagator, and a start fills every row
    for k in range(path.segment_count):
        segment = Segment(*path.segment(k))
        held = np.arange(1 << len(segment.tapering.generators))
        assume(segment.narrow(dynamics.KRYLOV_DIM_MAX))
        assume(len(segment.factor(0, held)[2]) == len(held))
    rng = np.random.default_rng(seed)
    psi0 = rng.normal(size=1 << path.n) + 1j * rng.normal(size=1 << path.n)
    psi0 /= np.linalg.norm(psi0)
    res = evolve(path, psi0, path.tau, accuracy=1e-6)
    steps = [int(np.ceil(d)) << res.refinements for d in path.durations]
    want = _dense_cf4(path, psi0, steps)
    assert np.linalg.norm(res.final_state - want) < 1e-10


@st.composite
def stepwise_paths(draw):
    """A stepwise path on at most 10 qubits."""
    family = draw(st.sampled_from(["ising-stepwise", "cluster1d-stepwise",
                                   "cluster2d-stepwise"]))
    if family == "cluster2d-stepwise":
        width, height = draw(st.sampled_from([(2, 2), (2, 3), (3, 3)]))
        return make_path(family, width=width, height=height)
    return make_path(family, n=draw(st.integers(3, 10)))


@settings(max_examples=30)
@given(planted_paths(), stepwise_paths(), st.integers(0, 2**32 - 1))
def test_boundary_maps_cross_like_unfold_then_fold(planted, stepwise, seed):
    # a planted path in every example: only its taperings carry S gates
    rng = np.random.default_rng(seed)

    def random_state(n):
        psi = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
        return psi / np.linalg.norm(psi)

    for path in planted, stepwise:
        segments = [Segment(*path.segment(k))
                    for k in range(path.segment_count)]
        taperings = [segment.tapering for segment in segments]
        # every boundary's map, both ways, and each segment's map to itself
        # are the unfold and the fold up to one unit factor
        pairs = list(zip(taperings, taperings[1:]))
        pairs += [(b, a) for a, b in pairs] + [(a, a) for a in taperings]
        for a, b in pairs:
            rows = random_state(path.n).reshape(-1, a.block_dim)
            want = b.fold(a.unfold(rows))
            got = boundary_map(a, b)(rows)
            unit = np.vdot(got, want)
            assert abs(abs(unit) - 1.0) < 1e-12
            assert np.abs(unit * got - want).max() < 1e-12
        # with the unit factors taken out, the first fold, the crossings
        # and the last unfold are the identity
        psi = random_state(path.n)
        crossings, unit = dynamics._crossings(segments)
        rows = taperings[0].fold(psi) / unit
        for crossing in crossings:
            rows = crossing(rows)
        assert np.abs(taperings[-1].unfold(rows) - psi).max() < 1e-12


@pytest.mark.parametrize("family", ["ising-stepwise", "cluster1d-stepwise"])
def test_fold_unfold_and_lift_allocate_no_index_array(family):
    # at n = 14 a gate takes one state in and gives one out, and lift holds
    # its zero rows besides: a 2^n intp array on top of that shows in the
    # peak.  numpy's ufunc buffers (8192 elements by default, as large as
    # half the state here) do not grow with n and are shrunk for the count
    n = 14
    tapering = Segment(*make_path(family, n=n).segment(0)).tapering
    rng = np.random.default_rng(14)
    psi = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
    rows = psi.reshape(-1, tapering.block_dim)
    state, index = psi.nbytes, 8 << n
    calls = [(lambda: tapering.fold(psi), 2),
             (lambda: tapering.unfold(rows), 2),
             (lambda: tapering.lift(rows[1], 1), 3)]
    bufsize = np.setbufsize(256)
    try:
        for call, states in calls:
            tracemalloc.start()
            try:
                out = call()
                kept, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert peak < states * state + index
            assert kept - out.nbytes < index
    finally:
        np.setbufsize(bufsize)
    assert not [v for v in vars(tapering).values() for v in (
        v if isinstance(v, tuple) else (v,)) if isinstance(v, np.ndarray)]


@pytest.mark.parametrize("family, n, tau, parity", [
    ("ising-stepwise", 8, 60.0, False), ("cluster1d-stepwise", 8, 20.0, True)])
def test_evolve_unfolds_once_for_the_unit_and_once_to_return(
        family, n, tau, parity, monkeypatch):
    # every refinement pass reads fidelities, norms and the parity on the
    # folded rows
    calls = []
    unfold = Tapering.unfold

    def counted(self, rows):
        calls.append(len(rows))
        return unfold(self, rows)

    monkeypatch.setattr(Tapering, "unfold", counted)
    path = make_path(family, n=n)
    psi0 = uniform_superposition(n)
    target = evolution_target(path, psi0)
    calls.clear()
    res = evolve(path, psi0, tau, target=target, track_parity=parity)
    assert res.refinements >= 3
    assert len(calls) <= 2


def _folded_parities_match_unfolded(path, psi0, tau, monkeypatch):
    """Run `evolve` with the parity tracked, each folded read of every
    pass checked against ``parity_expectation`` of the unfolded state; the
    result and the last pass's reads."""
    reads, errors = [], []
    segment_parity, propagate = dynamics._segment_parity, dynamics._propagate

    def checked(tapering, held, shape):
        folded = segment_parity(tapering, held, shape)

        def read(x):
            rows = np.zeros(shape, dtype=complex)
            rows[held] = x
            reads.append(folded(x))
            errors.append(reads[-1] - parity_expectation(
                tapering.unfold(rows)))
            return reads[-1]
        return read

    def one_pass(*args):
        reads.clear()
        return propagate(*args)

    monkeypatch.setattr(dynamics, "_segment_parity", checked)
    monkeypatch.setattr(dynamics, "_propagate", one_pass)
    res = evolve(path, psi0, tau, accuracy=1e-6, track_parity=True)
    assert np.abs(errors).max() < 1e-12
    assert res.parity_range == (min(reads), max(reads))
    return res, len(reads)


def test_folded_parity_is_the_unfolded_states_after_each_substep(
        monkeypatch):
    # X^n is no generator of a cluster segment: one read per segment
    # start and per substep, each matching the unfolded state's parity
    n = 6
    path = make_path("cluster1d-stepwise", n=n)
    res, reads = _folded_parities_match_unfolded(
        path, _start_state("mixed", n), 4.0, monkeypatch)
    assert reads == path.segment_count + res.step_count


@settings(max_examples=20)
@given(planted_paths(), st.integers(0, 2**32 - 1))
def test_folded_parity_of_planted_paths(path, seed):
    # planted paths carry S gates and Y factors into C X^n C^dagger
    rng = np.random.default_rng(seed)
    psi0 = rng.normal(size=1 << path.n) + 1j * rng.normal(size=1 << path.n)
    with pytest.MonkeyPatch.context() as monkeypatch:
        _folded_parities_match_unfolded(
            path, psi0 / np.linalg.norm(psi0), path.tau, monkeypatch)


def test_stationary_state_keeps_unit_fidelity():
    n = 4
    h_i, _ = ising_endpoints(n)
    path = InterpolationPath((h_i, h_i), (1.0,))
    psi0 = uniform_superposition(n)
    res = evolve(path, psi0, tau=7.3, target=psi0)
    assert res.fidelity == pytest.approx(1.0, abs=1e-9)
    assert res.norm_drift < 1e-10


def test_sudden_quench_fidelity_matches_overlap():
    n = 8
    path = make_path("ising-linear", n=n)
    psi0 = uniform_superposition(n)
    res = evolve(path, psi0, tau=1e-4, target=ghz_state(n))
    assert res.fidelity == pytest.approx(2.0 ** (-(n - 1)), abs=1e-5)


def test_adiabatic_stepwise_reaches_cat_state():
    n = 6
    path = make_path("ising-stepwise", n=n)
    psi0 = uniform_superposition(n)
    res = evolve(path, psi0, tau=120.0, target=ghz_state(n),
                 track_parity=True, accuracy=1e-5)
    assert res.fidelity >= 0.99
    assert res.norm_drift < 1e-8
    lo, hi = res.parity_range
    assert abs(lo - 1.0) < 1e-8 and abs(hi - 1.0) < 1e-8
    assert res.tau == pytest.approx(120.0)
    assert res.step_count >= path.segment_count


def test_fidelity_grows_with_runtime():
    n = 5
    path = make_path("ising-linear", n=n)
    psi0 = uniform_superposition(n)
    target = ghz_state(n)
    fids = [evolve(path, psi0, tau, target=target, accuracy=1e-5).fidelity
            for tau in (2.0, 20.0, 80.0)]
    assert fids[0] < fids[1] < fids[2]
    assert fids[2] > 0.99


def test_residual_energy_decreases_with_runtime():
    n = 5
    path = make_path("ising-stepwise", n=n)
    h_f = path.operators[-1]
    e0 = lowest_eigenpairs(h_f, 1, want_vectors=False).eigenvalues[0]
    psi0 = uniform_superposition(n)
    residuals = []
    for tau in (3.0, 30.0):
        res = evolve(path, psi0, tau, accuracy=1e-5)
        energy = float(np.real(np.vdot(res.final_state,
                                       h_f.apply(res.final_state))))
        residuals.append(energy - e0)
    assert residuals[1] < residuals[0]
    assert residuals[1] >= -1e-9


def test_evolve_without_target_converges_on_state():
    n = 4
    path = make_path("cluster1d-stepwise", n=n)
    res = evolve(path, uniform_superposition(n), tau=10.0, accuracy=1e-7)
    assert res.fidelity is None
    assert res.norm_drift < 1e-10
    assert isinstance(res, EvolutionResult)


def test_evolve_validation():
    path = make_path("ising-linear", n=3)
    psi0 = uniform_superposition(3)
    with pytest.raises(ValueError):
        evolve(path, psi0, tau=-1.0)
    with pytest.raises(ValueError):
        evolve(path, uniform_superposition(4), tau=1.0)
    with pytest.raises(ValueError):
        evolve(path, 2.0 * psi0, tau=1.0)
    with pytest.raises(ValueError):
        evolve(path, psi0, tau=1.0, target=2.0 * psi0)


def test_evolve_refuses_a_target_on_other_qubits(monkeypatch):
    # before any pass
    monkeypatch.setattr(dynamics, "_propagate", None)
    path = make_path("ising-stepwise", n=4)
    for m in (3, 5):
        with pytest.raises(ValueError, match="target"):
            evolve(path, uniform_superposition(4), tau=1.0,
                   target=uniform_superposition(m))


# ---------------------------------------------------------------------------
# evolution target
# ---------------------------------------------------------------------------

def test_evolution_target_is_even_cat_for_ising():
    n = 5
    path = make_path("ising-stepwise", n=n)
    target = evolution_target(path)
    assert fidelity(target, ghz_state(n)) == pytest.approx(1.0, abs=1e-10)


def test_evolution_target_without_symmetry_uses_global_ground():
    n = 3
    h_i, _ = ising_endpoints(n)
    # a Z on every qubit leaves the path no symmetry
    h_kept = OperatorSum(n, [PauliString.from_ops(n, {1: "Z"}, -2.0),
                             PauliString.from_ops(n, {2: "X"}, -0.5)])
    h_broken = h_kept + OperatorSum(n, [
        PauliString.from_ops(n, {2: "Z"}, -0.3),
        PauliString.from_ops(n, {3: "Z"}, -0.1)])
    path = InterpolationPath((h_i, h_broken), (1.0,))
    target = evolution_target(path)
    w, v = np.linalg.eigh(h_broken.to_dense())
    assert fidelity(target, v[:, 0]) == pytest.approx(1.0, abs=1e-10)
    # without the Z's on qubits 2 and 3 the path keeps X_2 and X_3, and
    # the target is the ground state where both read +1, like the start
    path = InterpolationPath((h_i, h_kept), (1.0,))
    x2, x3 = (OperatorSum(n, [PauliString.from_ops(n, {q: "X"})]).to_dense()
              for q in (2, 3))
    proj = (np.eye(1 << n) + x2) @ (np.eye(1 << n) + x3) / 4
    w, v = np.linalg.eigh(proj @ h_kept.to_dense() @ proj - 10 * proj)
    assert fidelity(evolution_target(path), v[:, 0]) == \
        pytest.approx(1.0, abs=1e-10)


def test_target_sector_is_the_block_evolve_runs_in():
    # X^n has its even levels at +1 and its odd levels at -1
    n = 4
    h_i, _ = ising_endpoints(n)
    flip = parity_operator(n)
    even = uniform_superposition(n)
    path = InterpolationPath((h_i, flip), (1.0,))
    assert parity_expectation(evolution_target(path, even)) == \
        pytest.approx(1.0, abs=1e-12)
    # a start of nearly, not exactly, definite parity runs in the full
    # space, so its target is the global ground state
    odd = (basis_state(n, 0) - basis_state(n, (1 << n) - 1)) / np.sqrt(2.0)
    near = even + 1e-7 * odd
    near /= np.linalg.norm(near)
    assert parity_expectation(near) > 0.999999
    assert parity_expectation(evolution_target(path, near)) == \
        pytest.approx(-1.0, abs=1e-12)
    # so does a path with one operator that breaks the symmetry
    broken = OperatorSum(n, [PauliString.from_ops(n, {1: "Z"}, -1.0)])
    path = InterpolationPath((h_i, broken, flip), (1.0, 1.0))
    assert parity_expectation(evolution_target(path, even)) == \
        pytest.approx(-1.0, abs=1e-12)


# from n = 9 the start's block is wider than a factored solve takes, and a
# solve of it would call lowest_eigenpairs
TARGET_PATHS = [dict(family=f, n=n)
                for f in ("ising-linear", "ising-stepwise", "cluster1d-linear",
                          "cluster1d-stepwise") for n in (5, 8, 10)] \
    + [dict(family="cluster2d-stepwise", width=2, height=h) for h in (3, 5)]


@pytest.mark.parametrize("spec", TARGET_PATHS,
                         ids=lambda d: "-".join(map(str, d.values())))
def test_target_is_the_dense_ground_state_in_the_start_block(spec,
                                                              monkeypatch):
    # the start's block of the path's symmetries, from the generators'
    # values on the start, and the final operator's ground state there
    path = make_path(**spec)
    psi0 = uniform_superposition(path.n)
    dim = 1 << path.n
    proj = np.eye(dim)
    for g in Segment(*path.operators).tapering.generators:
        mat = OperatorSum(path.n, [g]).to_dense()
        sign = np.vdot(psi0, mat @ psi0).real
        assert abs(abs(sign) - 1.0) < 1e-12
        proj = proj @ (np.eye(dim) + sign * mat) / 2
    h = proj @ path.operators[-1].to_dense() @ proj
    w, v = np.linalg.eigh(h - 100.0 * proj)
    assert w[1] - w[0] > 1e-6
    # solved in the block's own tapering, with no eigensolve of the block
    solves, solve = [], spectra.lowest_eigenpairs
    monkeypatch.setattr(spectra, "lowest_eigenpairs", lambda *args, **kw:
                        solves.append(args) or solve(*args, **kw))
    target = evolution_target(path, psi0)
    assert solves == []
    assert abs(np.linalg.norm(target) - 1.0) < 1e-12
    assert fidelity(target, v[:, 0]) == pytest.approx(1.0, abs=1e-10)


@pytest.mark.parametrize("family", ["ising-stepwise", "cluster1d-stepwise"])
def test_target_holds_a_few_states_at_n14(family):
    # the wide start block is never solved: at most 8 states of 2^14
    # amplitudes, where one ARPACK solve over it held 8 to 20 MB
    n = 14
    path = make_path(family, n=n)
    psi0 = uniform_superposition(n)
    tracemalloc.start()
    try:
        target = evolution_target(path, psi0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 16 << n
    # the target lies in the start's block: X^n is a symmetry of the Ising
    # path, and the cluster target is the cluster state
    if family == "ising-stepwise":
        assert fidelity(target, ghz_state(n)) == pytest.approx(1.0, abs=1e-10)
    else:
        from stepgap.models import chain_lattice, cluster_state
        assert fidelity(target, cluster_state(chain_lattice(n))) == \
            pytest.approx(1.0, abs=1e-10)


def test_degenerate_target_in_the_start_block_is_refused():
    # the Heisenberg bond keeps X1 X2 alone; the start's block X1 X2 = +1
    # holds |++> and |-->, both triplet states at -1
    n = 2
    h_i = OperatorSum(n, [PauliString.from_label(p, -1.0)
                          for p in ("XI", "IX")])
    h_f = OperatorSum(n, [PauliString.from_label(p, -1.0)
                          for p in ("XX", "YY", "ZZ")])
    path = InterpolationPath((h_i, h_f), (1.0,))
    with pytest.raises(ValueError, match="degenerate"):
        evolution_target(path)


def test_projector_target_factors_the_final_operator_alone(monkeypatch):
    # the target of a projector path weighs its last operator alone, so
    # its basis is that operator's one vector and one random column, not
    # a column for every operator of the path
    from stepgap.ec3 import Ec3Instance, solution_superposition
    inst = Ec3Instance(6, ((1, 2, 3), (4, 5, 6), (1, 4, 5), (2, 3, 6)))
    path = make_path("ec3-projector", instance=inst)
    factored, qr = [], np.linalg.qr

    def counted_qr(a, *args, **kwargs):
        factored.append(a.shape)
        return qr(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "qr", counted_qr)
    target = evolution_target(path)
    assert len(path.operators) == 5
    assert factored == [(64, 2)]
    assert fidelity(target, solution_superposition(inst, (0, 1, 2, 3), 4)) \
        == pytest.approx(1.0, abs=1e-12)


# ---------------------------------------------------------------------------
# covariance route
# ---------------------------------------------------------------------------

@settings(max_examples=14)
@given(st.sampled_from(["ising-linear", "ising-stepwise"]),
       st.integers(4, 12), st.floats(0.5, 60.0))
def test_covariance_route_matches_evolve(family, n, tau):
    path = make_path(family, n=n)
    got = adiabatic_run(path, tau, track_parity=True)
    psi0 = uniform_superposition(n)
    want = evolve(path, psi0, tau, target=evolution_target(path, psi0),
                  track_parity=True)
    assert got.final_state is None
    assert abs(got.fidelity - want.fidelity) <= 1e-10
    assert (got.step_count, got.refinements, got.parity_range, got.tau) == (
        want.step_count, want.refinements, want.parity_range, want.tau)
    assert got.norm_drift <= 1e-12


@pytest.mark.parametrize("family, n, tau", [
    ("ising-stepwise", 8, 60.0), ("ising-linear", 10, 5.0),
    ("cluster1d-stepwise", 6, 4.0)])
def test_adiabatic_run_is_the_vector_run_where_no_form(family, n, tau,
                                                       monkeypatch):
    # the Ising paths never reach the vector route, the cluster path only
    passes = []
    propagate = dynamics._propagate
    monkeypatch.setattr(dynamics, "_propagate", lambda *args: passes.append(
        args) or propagate(*args))
    res = adiabatic_run(make_path(family, n=n), tau, track_parity=True)
    assert (res.final_state is None) == (passes == []) \
        == family.startswith("ising")


def covariance(psi: np.ndarray, n: int) -> np.ndarray:
    """``Gamma_ab = <psi| i c_a c_b |psi>``, zero on the diagonal."""
    from test_majorana import majoranas
    cs = [c @ psi for c in majoranas(n)]
    gamma = np.array([[np.vdot(a, 1j * b).real for b in cs] for a in cs])
    return gamma - np.diag(np.diag(gamma))


@pytest.mark.parametrize("d, room", [(3, 1 << 16), (3, 18), (4, 1 << 16),
                                     (6, 72), (6, 1)])
def test_component_propagator_is_the_expm_product(d, room):
    # Rodrigues on three Majoranas, eigh on more; a small room splits the
    # exponentials into chunks of 2 (and 1), composed in order
    rng = np.random.default_rng(d + room)
    a = rng.normal(size=(2, d, d))
    a -= a.transpose(0, 2, 1)
    p, h = dynamics._cf4_parameters(3), 0.37
    want = np.eye(d)
    for t in p:
        want = scipy.linalg.expm(h * ((1 - t) * a[0] + t * a[1])) @ want
    got = dynamics._component_propagator(a, p, h, room)
    assert np.abs(got - want).max() < 1e-13


@pytest.mark.parametrize("family", ["ising-linear", "ising-stepwise"])
@pytest.mark.parametrize("n", [4, 5])
def test_covariance_is_the_evolved_states(family, n):
    # Gamma of the last pass against <psi| i c_a c_b |psi> of the state
    # `evolve` returns from the same substeps
    path, tau = make_path(family, n=n), 3.0
    psi0 = uniform_superposition(n)
    res = evolve(path, psi0, tau, target=evolution_target(path, psi0))
    run = path.rescaled(tau)
    steps = next(s for r, s in dynamics._ladder(run, 1e-6)
                 if r == res.refinements)
    gamma = dynamics._covariance_pass(
        run, steps, dynamics._couplings(Segment(*path.operators).forms))
    assert np.abs(gamma - covariance(res.final_state, n)).max() < 1e-10


def _chain(n, fields, bonds):
    """``-sum h_j X_j - sum J_j Z_j Z_j+1``, the wrap bond last."""
    return OperatorSum(n, [PauliString.from_ops(n, {q: "X"}, -h)
                           for q, h in enumerate(fields, 1) if h] + [
        PauliString.from_ops(n, {q: "Z", q % n + 1: "Z"}, -j)
        for q, j in enumerate(bonds, 1) if j])


def _final_ops(n):
    """Final operators with a form: the closed ring, the open chain (a
    zero mode: the sector fixes its sign), unequal positive fields (odd n:
    the vacuum is odd, its softest mode flipped) and random couplings."""
    rng = np.random.default_rng(n)
    return [ising_endpoints(n)[1], ising_endpoints(n, "open")[1],
            _chain(n, -1.0 - np.arange(n), [0.0] * n),
            _chain(n, rng.normal(size=n), rng.normal(size=n))]


def _through_the_ring(h_f):
    """The path from the fields through the closed ring to `h_f`: X^n is
    its one symmetry."""
    h_i, ring = ising_endpoints(h_f.n)
    return InterpolationPath((h_i, ring, h_f), (1.0, 1.0))


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_target_covariance_is_the_dense_targets(n):
    for h_f in _final_ops(n):
        path = _through_the_ring(h_f)
        want = covariance(evolution_target(path), n)
        forms = Segment(*path.operators).forms
        got = dynamics._target_covariance(forms[-1])
        assert np.abs(got - want).max() < 1e-10


def test_covariance_route_needs_x_string_as_the_one_symmetry():
    # fields to fields: every X_j is a symmetry, and the vector route's
    # target is the start itself, where the odd-n vacuum of the X^n = +1
    # sector would be another state
    n = 5
    path = InterpolationPath((ising_endpoints(n)[0], _chain(
        n, [-1.0] * n, [0.0] * n)), (1.0,))
    assert Segment(*path.operators).forms is None
    res = adiabatic_run(path, 1.0)
    assert res.final_state is not None
    assert res.fidelity == pytest.approx(1.0, abs=1e-12)


def test_degenerate_target_is_refused_on_both_routes():
    # an open chain missing its middle bond has two even ground states;
    # the Heisenberg pair of the vector route's test has no form
    n = 6
    split = _chain(n, [0.0] * n, [1.0, 1.0, 0.0, 1.0, 1.0, 0.0])
    heisenberg = OperatorSum(2, [PauliString.from_label(p, -1.0)
                                 for p in ("XX", "YY", "ZZ")])
    for path in (_through_the_ring(split),
                 InterpolationPath((ising_endpoints(2)[0], heisenberg),
                                   (1.0,))):
        with pytest.raises(ValueError, match="degenerate"):
            evolution_target(path)
        with pytest.raises(ValueError, match="degenerate"):
            adiabatic_run(path, 1.0)


def test_covariance_larger_than_a_state_is_refused(monkeypatch):
    # at a cap of 8 qubits a state holds 4 kB, a 24 x 24 covariance 4.5 kB
    monkeypatch.setattr(dynamics, "STATE_QUBIT_CAP", 8)
    assert adiabatic_run(make_path("ising-stepwise", n=11), 1.0).fidelity
    with pytest.raises(ValueError, match="covariance is refused"):
        adiabatic_run(make_path("ising-stepwise", n=12), 1.0)


def test_covariance_route_runs_at_n100_in_little_memory():
    # no 2^n array: the 200 x 200 covariance and one segment's couplings
    path = make_path("ising-stepwise", n=100)
    tracemalloc.start()
    try:
        res = adiabatic_run(path, 1e-3, track_parity=True)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert res.parity_range == (1.0, 1.0) and res.norm_drift <= 1e-12
    assert abs(res.fidelity / 2.0 ** -99 - 1.0) < 1e-6
    assert peak < 4 << 20


# ---------------------------------------------------------------------------
# runtime scaling
# ---------------------------------------------------------------------------

def test_runtime_for_fidelity_zero_target_takes_first_tau():
    row = runtime_for_fidelity("ising-linear", 4, 0.0, [0.5, 1.0, 2.0])
    assert row.tau_required == 0.5
    assert row.reached
    assert isinstance(row, ScalingRow)


def test_runtime_for_fidelity_unreachable_marker():
    row = runtime_for_fidelity("ising-linear", 5, 0.999, [0.5, 1.0])
    assert not row.reached
    assert row.tau_required is None
    assert len(row.trace) == 2


def test_runtime_for_fidelity_finds_threshold():
    row = runtime_for_fidelity("ising-stepwise", 4, 0.99,
                               [2.0, 8.0, 20.0, 45.0, 90.0])
    assert row.reached
    assert row.tau_required is not None
    # the scan stops at the first grid runtime that reaches the target
    assert row.trace[-1][1] >= 0.99
    for tau, fid in row.trace[:-1]:
        assert fid < 0.99


def test_runtime_grid_validation():
    with pytest.raises(ValueError):
        runtime_for_fidelity("ising-linear", 4, 0.5, [1.0, 1.0])


def test_adiabatic_limit_cluster_build():
    from stepgap.models import chain_lattice, cluster_state
    n = 5
    path = make_path("cluster1d-stepwise", n=n)
    target = cluster_state(chain_lattice(n))
    res = evolve(path, uniform_superposition(n), tau=80.0, target=target,
                 accuracy=1e-6)
    assert res.fidelity >= 0.999


def test_adiabatic_limit_projector_path():
    from stepgap.ec3 import Ec3Instance, solution_superposition
    inst = Ec3Instance(4, ((1, 2, 3), (2, 3, 4)))
    path = make_path("ec3-projector", instance=inst)
    target = solution_superposition(inst, (0, 1), 2)
    res = evolve(path, uniform_superposition(4), tau=60.0, target=target,
                 accuracy=1e-6)
    assert res.fidelity >= 0.999
