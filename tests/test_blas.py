"""OpenBLAS thread counts: `_blas`'s blocks, and where the CLI sets them."""

import json

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse.linalg

from stepgap import _blas, dynamics, ec3
from stepgap.cli import EXIT_CONFIG, EXIT_OK, main

needs_blas = pytest.mark.skipif(not _blas._libraries(),
                                reason="no OpenBLAS library found")


@pytest.fixture
def two_threads():
    """Every library at two threads for the test, then as it was."""
    before = _blas._counts()
    _blas._set((2,) * len(before))
    yield
    _blas._set(before)


@needs_blas
def test_limited_restores_the_count_on_exit_and_on_error(two_threads):
    with _blas.limited():
        assert _blas.threads() == 1
    assert _blas.threads() == 2
    with pytest.raises(KeyError):
        with _blas.limited():
            raise KeyError
    assert _blas.threads() == 2


@needs_blas
def test_unlimited_reenters_the_starting_count(two_threads):
    with _blas.unlimited():  # outside limited(): no change
        assert _blas.threads() == 2
    with _blas.limited():
        with _blas.unlimited():
            assert _blas.threads() == 2
            with _blas.limited():
                assert _blas.threads() == 1
                with _blas.limited(), _blas.unlimited():
                    assert _blas.threads() == 2
                assert _blas.threads() == 1
            assert _blas.threads() == 2
        assert _blas.threads() == 1
    assert _blas.threads() == 2
    _blas._set((1,) * len(_blas._libraries()))
    with _blas.unlimited():
        assert _blas.threads() == 1


def test_without_a_library_every_block_is_a_no_op(monkeypatch, tmp_path):
    monkeypatch.setattr(_blas, "_libraries", lambda: ())
    with _blas.limited(), _blas.unlimited():
        assert _blas.threads() is None
    out = tmp_path / "e.json"
    assert main(["evolve", "--family", "ising-stepwise", "--n", "4",
                 "--tau", "2", "--out", str(out)]) == EXIT_OK
    assert json.loads(out.read_text())["meta"]["blas_threads"] is None
    out = tmp_path / "s.csv"
    assert main(["spectrum", "--family", "ising-linear", "--n", "4",
                 "--out", str(out)]) == EXIT_OK
    assert "# blas_threads none" in out.read_text().splitlines()


@needs_blas
def test_outputs_record_the_count_the_command_ran_at(two_threads, tmp_path):
    out = tmp_path / "e.json"
    assert main(["evolve", "--family", "ising-stepwise", "--n", "4",
                 "--tau", "2", "--out", str(out)]) == EXIT_OK
    assert json.loads(out.read_text())["meta"]["blas_threads"] == 1
    out = tmp_path / "g.csv"
    assert main(["gap-scan", "--family", "ising-linear", "--n", "4",
                 "--points", "3", "--out", str(out)]) == EXIT_OK
    lines = out.read_text().splitlines()
    wall = next(i for i, ln in enumerate(lines)
                if ln.startswith("# wall_seconds "))
    assert lines[wall + 1] == "# blas_threads 1"


@needs_blas
def test_main_leaves_the_count_as_it_found_it(two_threads, tmp_path, capsys):
    assert main(["spectrum", "--family", "ising-linear", "--n", "4"]) \
        == EXIT_OK
    assert _blas.threads() == 2
    assert main(["spectrum", "--family", "ising-linear"]) == EXIT_CONFIG
    assert _blas.threads() == 2
    _blas._set((1,) * len(_blas._libraries()))
    assert main(["spectrum", "--family", "ising-linear", "--n", "4"]) \
        == EXIT_OK
    assert _blas.threads() == 1


def _recording(monkeypatch, owner, name, seen):
    solve = getattr(owner, name)

    def recorded(*args, **kwargs):
        seen.append(_blas.threads())
        return solve(*args, **kwargs)
    monkeypatch.setattr(owner, name, recorded)


@needs_blas
@pytest.mark.parametrize("n, method, owner, name, want", [
    (11, "dense", scipy.linalg, "eigvalsh", 2),
    (16, "lanczos", scipy.sparse.linalg, "eigsh", 2),
    (11, "lanczos", scipy.sparse.linalg, "eigsh", 1),
])
def test_wide_pauli_blocks_solve_at_the_starting_count(
        two_threads, monkeypatch, capsys, n, method, owner, name, want):
    # ising-linear tapers to two parity blocks 2^(n-1) wide: dense solves
    # take threads above 256, Lanczos ones above 2^14
    seen = []
    _recording(monkeypatch, owner, name, seen)
    assert main(["spectrum", "--family", "ising-linear", "--n", str(n),
                 "--s", "0.5", "--count", "2", "--method", method]) == EXIT_OK
    assert seen == [want, want]


@needs_blas
@pytest.mark.parametrize("path", [
    ["--family", "ising-stepwise", "--n", "10"],  # 2 x 2 active matrices
    ["--family", "ising-linear", "--n", "8", "--method", "dense"],  # 128
    ["--family", "ec3-projector", "--method", "dense"],  # 256, projectors
], ids=["factored", "pauli-128", "projector-256"])
def test_narrow_and_projector_blocks_solve_at_one_thread(
        two_threads, monkeypatch, capsys, tmp_path, path):
    inst = tmp_path / "inst.txt"
    inst.write_text("8 2\n1 2 3\n4 5 6\n")
    if "ec3-projector" in path:
        path = path + ["--instance", str(inst)]
    seen = []
    _recording(monkeypatch, np.linalg, "eigvalsh", seen)
    _recording(monkeypatch, scipy.linalg, "eigvalsh", seen)
    assert main(["spectrum", *path, "--s", "0.37", "--count", "2"]) \
        == EXIT_OK
    assert seen and set(seen) == {1}


@needs_blas
def test_krylov_threads_on_wide_pauli_blocks_only(two_threads, monkeypatch,
                                                  tmp_path):
    # cluster1d-linear blocks are 2^16 wide at n = 16, 256 at n = 9
    # (ising-linear runs on its covariance); the projector segments of an
    # EC3 path are never Pauli blocks
    inst = tmp_path / "inst.txt"
    inst.write_text(ec3.format_instance(ec3.random_satisfiable_instance(
        8, 4, np.random.default_rng(0))))
    seen = []
    _recording(monkeypatch, dynamics, "_krylov_expm_apply", seen)
    for path, want in ((["--family", "cluster1d-linear", "--n", "16"], {2}),
                       (["--family", "cluster1d-linear", "--n", "9"], {1}),
                       (["--family", "ec3-projector", "--instance",
                         str(inst)], {1})):
        seen.clear()
        assert main(["evolve", *path, "--tau", "0.5", "--accuracy", "1e-2",
                     "--out", str(tmp_path / "e.json")]) == EXIT_OK
        assert set(seen) == want
