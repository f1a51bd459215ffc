"""The free-fermion route: Majorana forms of Pauli sums and their levels.

Forms are checked term by term against the dense Majorana matrices built
by Kronecker products, and levels against ``eigvalsh`` of the dense parity
blocks and against the Lanczos route they replace.
"""

import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from test_pauli_reference import parity_fold, reference_dense

from stepgap import spectra
from stepgap.analytic import ising_linear_min_even_gap
from stepgap.majorana import block_form, majorana_form
from stepgap.models import make_path
from stepgap.pauli import OperatorSum, PauliString
from stepgap.spectra import ConvergenceError, Segment, gap_scan

_PAULI = {"I": np.eye(2), "X": np.array([[0.0, 1.0], [1.0, 0.0]]),
          "Y": np.array([[0.0, -1j], [1j, 0.0]]), "Z": np.diag([1.0, -1.0])}


def kron(label: str) -> np.ndarray:
    out = np.eye(1)
    for f in label:
        out = np.kron(out, _PAULI[f])
    return out


def majoranas(n: int) -> list[np.ndarray]:
    """``c_{2j} = X^{<j} Z_j`` and ``c_{2j+1} = X^{<j} Y_j``, site j on
    qubit j + 1."""
    return [kron("X" * j + f + "I" * (n - 1 - j))
            for j in range(n) for f in "ZY"]


def pair_string(n: int, a: int, b: int) -> tuple[str, complex]:
    """``(label, phase)`` with ``c_a c_b = phase * label`` for a < b, by
    the single-qubit products ``Z Y = -iX``, ``Z X = iY``, ``Y X = -iZ``."""
    j, k = a // 2, b // 2
    if j == k:
        return "I" * j + "X" + "I" * (n - 1 - j), -1j
    label = ("I" * j + ("Y" if a % 2 == 0 else "Z") + "X" * (k - j - 1)
             + ("Z" if b % 2 == 0 else "Y") + "I" * (n - 1 - k))
    return label, 1j if a % 2 == 0 else -1j


def times_parity(label: str) -> tuple[str, complex]:
    """``(label', phase)`` with ``X^n * label = phase * label'``."""
    table = {"I": ("X", 1), "X": ("I", 1), "Y": ("Z", 1j), "Z": ("Y", -1j)}
    pairs = [table[f] for f in label]
    return "".join(f for f, _ in pairs), np.prod([p for _, p in pairs])


def quadratic_sum(n, const, a, wrap) -> OperatorSum:
    """``const + (i/4) c^T a c + X^n (i/2) w c_p c_q`` as a Pauli sum,
    ``wrap = (p, q, w)`` with p < q."""
    terms = [PauliString.identity(n, const)]
    for p, q in itertools.combinations(range(2 * n), 2):
        label, phase = pair_string(n, p, q)
        terms.append(PauliString.from_label(label, (0.5j * a[p, q]
                                                    * phase).real))
    p, q, w = wrap
    label, phase = pair_string(n, p, q)
    label, flip = times_parity(label)
    terms.append(PauliString.from_label(label, (0.5j * w * phase
                                                * flip).real))
    return OperatorSum(n, terms)


def form_dense(form) -> np.ndarray:
    """The dense matrix of a :class:`~stepgap.majorana.MajoranaForm`, one
    parity half from each sign's :func:`block_form`."""
    n, c = form.n, majoranas(form.n)
    one, parity = np.eye(1 << n), kron("X" * form.n)
    out = 0
    for sign in (1, -1):
        const, a = block_form((form,), (1.0,), sign)
        half = const * one + 0.25j * sum(a[p, q] * c[p] @ c[q] for p, q in
                                         itertools.product(range(2 * n),
                                                           repeat=2))
        out = out + 0.5 * (one + sign * parity) @ half
    return out


# ---------------------------------------------------------------------------
# forms
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_pair_strings_are_the_dense_majorana_products(n):
    c = majoranas(n)
    for a, b in itertools.combinations(range(2 * n), 2):
        label, phase = pair_string(n, a, b)
        assert np.abs(c[a] @ c[b] - phase * kron(label)).max() < 1e-15
    gamma = np.linalg.multi_dot(c)
    assert np.abs(kron("X" * n) - 1j ** n * gamma).max() < 1e-15


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_every_string_of_degree_0_2_2n_2_or_2n_has_its_dense_form(n):
    # exactly the strings X^n^e c_S with |S| in (0, 2) have a form, and the
    # form, phase included, is the string
    with_form = 0
    for labels in itertools.product("IXYZ", repeat=n):
        op = OperatorSum(n, [PauliString.from_label("".join(labels), -0.7)])
        form = majorana_form(op)
        if form is None:
            continue
        with_form += 1
        assert np.abs(form_dense(form) - reference_dense(op)).max() < 1e-12
    pairs = 1 + 2 * n * (2 * n - 1) // 2
    assert with_form == (2 * pairs if n > 2 else 4 ** n // 2)


@pytest.mark.parametrize("family", ["ising-linear", "ising-stepwise"])
def test_ising_operators_are_their_forms(family):
    for op in make_path(family, n=5).operators:
        assert np.abs(form_dense(majorana_form(op))
                      - reference_dense(op)).max() < 1e-12


@st.composite
def quadratic_sums(draw):
    """A random real antisymmetric A on 2n Majoranas, n = 2..7, with the
    Majoranas of a random subset left out (zero modes), a constant, and a
    parity-weighted bilinear, as a Pauli sum."""
    n = draw(st.integers(2, 7))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    a = np.triu(rng.normal(size=(2 * n, 2 * n)), 1)
    if draw(st.booleans()):
        idle = rng.random(2 * n) < 0.3
        a[idle], a[:, idle] = 0.0, 0.0
    p, q = sorted(rng.choice(2 * n, size=2, replace=False).tolist())
    return quadratic_sum(n, rng.normal(), a - a.T, (p, q, rng.normal()))


@settings(max_examples=60)
@given(quadratic_sums())
def test_quadratic_levels_are_the_dense_parity_levels(op):
    form, full = majorana_form(op), reference_dense(op)
    assert form is not None
    for sign in (1, -1):
        want = np.linalg.eigvalsh(parity_fold(full, sign))
        for count in range(1, min(4, len(want)) + 1):
            got = spectra._quadratic_levels(
                *block_form((form,), (1.0,), sign), sign, count)
            assert np.abs(got - want[:count]).max() < 1e-10


@settings(max_examples=30)
@given(quadratic_sums(), st.floats(0.0, 1.0))
def test_wide_quadratic_segments_take_the_free_fermion_route(op, s):
    # the blend of two sums with a form, every block counted as wide: in
    # every sector and for counts 1-4, the route's levels against the dense
    # parity blocks, with no Lanczos solve
    n = op.n
    other = quadratic_sum(n, 0.3, np.triu(np.ones((2 * n, 2 * n)), 1)
                          - np.tril(np.ones((2 * n, 2 * n)), -1),
                          (0, 2 * n - 1, 1.0))
    full = (1.0 - s) * reference_dense(op) + s * reference_dense(other)
    calls = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(spectra, "DENSE_SOLVE_DIM", 1)
        mp.setattr(spectra, "lowest_eigenpairs", None)
        quadratic = spectra._quadratic_levels
        mp.setattr(spectra, "_quadratic_levels",
                   lambda *args: calls.append(args) or quadratic(*args))
        segment = Segment(op, other)
        if segment.tapering.parity(0) is None \
                or len(segment.tapering.generators) > 1:
            return  # more symmetry than X^n: narrow blocks, another route
        for sector in ("all", "even", "odd"):
            blocks = segment.sector(sector)
            want = np.linalg.eigvalsh(full) if sector == "all" else \
                np.linalg.eigvalsh(parity_fold(full, 1 if sector == "even"
                                               else -1))
            for count in range(1, min(4, len(want)) + 1):
                got = segment.levels((1.0 - s, s), blocks, count,
                                     want_vectors=False)
                assert np.abs(got.eigenvalues - want[:count]).max() < 1e-10
    assert calls


# ---------------------------------------------------------------------------
# the route in gap scans
# ---------------------------------------------------------------------------

def counted_solvers(monkeypatch) -> dict:
    """Count calls of the per-block eigensolver and the free-fermion one."""
    counts = {"eigenpairs": 0, "fermion": 0}
    solve, quadratic = spectra.lowest_eigenpairs, spectra._quadratic_levels

    def lanczos(*args, **kwargs):
        counts["eigenpairs"] += 1
        return solve(*args, **kwargs)

    def fermion(*args):
        counts["fermion"] += 1
        return quadratic(*args)

    monkeypatch.setattr(spectra, "lowest_eigenpairs", lanczos)
    monkeypatch.setattr(spectra, "_quadratic_levels", fermion)
    return counts


@pytest.mark.parametrize("n", range(4, 13))
def test_ising_linear_scans_match_lanczos(n, monkeypatch):
    path = make_path("ising-linear", n=n)
    counts = counted_solvers(monkeypatch)
    for sector in ("all", "even", "odd"):
        want = gap_scan(path, points=9, sector=sector, method="lanczos")
        before = dict(counts)
        got = gap_scan(path, points=9, sector=sector)
        # the "all" gap at s >= 7/8 is the ground doublet's splitting, tied
        # with the 0 at s = 1: no Brent run chases its rounding there, so
        # every sector repeats its evaluations
        assert got.evaluations == want.evaluations
        assert np.abs(got.samples - want.samples).max() <= 1e-10
        assert abs(got.minimum[0] - want.minimum[0]) <= 1e-10
        assert abs(got.minimum[1] - want.minimum[1]) <= 1e-10
        # blocks of 2^(n-1) above 256: the free-fermion route alone
        blocks = 2 if sector == "all" else 1
        fermion = got.evaluations * blocks if n > 9 else 0
        assert counts == {"eigenpairs": before["eigenpairs"],
                          "fermion": before["fermion"] + fermion}


@pytest.mark.parametrize("case", ["cluster1d-linear", "three", "four"])
def test_sums_without_a_form_keep_the_lanczos_route(case, monkeypatch):
    # cluster1d-linear's open ends are single Majoranas; a 3-Majorana term
    # breaks X^n, a 4-Majorana one (Z1 Z2 Z3 Z4) keeps it but has no form
    n = 10
    if case == "cluster1d-linear":
        ops = make_path(case, n=n).segment(0)
    else:
        h_i, h_f = make_path("ising-linear", n=n).segment(0)
        extra = "ZX" if case == "three" else "ZZZZ"
        ops = h_i, h_f + PauliString.from_label(extra.ljust(n, "I"), 0.3)
    segment = Segment(*ops)
    assert segment.tapering.block_dim > spectra.DENSE_SOLVE_DIM
    assert majorana_form(ops[1]) is None
    assert (segment.tapering.parity(0) is not None) == (case == "four")
    counts = counted_solvers(monkeypatch)
    levels = segment.levels((0.5, 0.5), segment.sector("all"), 2,
                            want_vectors=False)
    assert counts == {"eigenpairs": len(segment.sector("all")), "fermion": 0}
    want = np.linalg.eigvalsh(0.5 * (ops[0].to_dense() + ops[1].to_dense()))
    assert np.abs(levels.eigenvalues - want[:2]).max() < 1e-9


def test_vectors_and_explicit_methods_keep_their_routes(monkeypatch):
    path = make_path("ising-linear", n=10)
    segment = Segment(*path.segment(0))
    counts = counted_solvers(monkeypatch)
    blocks = segment.sector("even")
    segment.levels((0.5, 0.5), blocks, 2)
    segment.levels((0.5, 0.5), blocks, 2, want_vectors=False, method="dense")
    assert counts == {"eigenpairs": 2, "fermion": 0}


def test_even_minimum_at_n64_is_the_pair_gap():
    # 2^63-wide blocks, with no register: the scan's peak is a few
    # 128 x 128 matrices
    tracemalloc.start()
    try:
        curve = gap_scan(make_path("ising-linear", n=64), points=17,
                         sector="even")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4 << 20
    assert abs(curve.minimum[1] - 4.0 * np.sin(np.pi / 128)) <= 1e-10
    assert abs(curve.minimum[1] - ising_linear_min_even_gap(64)) <= 1e-10
    assert curve.minimum[0] == pytest.approx(0.5, abs=1e-6)


def test_a_schur_form_that_misses_the_matrix_is_refused(monkeypatch):
    schur = spectra.scipy.linalg.schur

    def perturbed(a, **kwargs):
        t, o = schur(a, **kwargs)
        return t * (1.0 + 1e-6), o

    segment = Segment(*make_path("ising-linear", n=10).segment(0))
    monkeypatch.setattr(spectra.scipy.linalg, "schur", perturbed)
    with pytest.raises(ConvergenceError, match="real Schur form"):
        segment.levels((0.5, 0.5), segment.sector("even"), 2,
                       want_vectors=False)
