"""Hamiltonian families and interpolation paths.

Covers the transverse-field Ising chain with its stepwise bond-by-bond
series, cluster models on arbitrary lattices with 1d/2d stepwise build
orders, and the piecewise-linear path object that drives gap scans and
time evolution.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from .pauli import OperatorSum, PauliString, blend

#: The families built from the register size `n` alone.
N_FAMILIES = (
    "ising-linear",
    "ising-stepwise",
    "cluster1d-linear",
    "cluster1d-stepwise",
)

PATH_FAMILIES = N_FAMILIES + (
    "cluster2d-stepwise",
    "ec3-projector",
)


# ---------------------------------------------------------------------------
# lattices and build orders
# ---------------------------------------------------------------------------

def _normalize_links(links: Iterable[tuple[int, int]]) -> frozenset:
    out = set()
    for a, b in links:
        if a == b:
            raise ValueError(f"self-link at node {a}")
        out.add((min(a, b), max(a, b)))
    return frozenset(out)


@dataclass(frozen=True)
class LatticeGraph:
    """Undirected lattice on nodes 1..node_count with a set of links."""

    node_count: int
    links: frozenset = field(default_factory=frozenset)

    def __post_init__(self):
        object.__setattr__(self, "links", _normalize_links(self.links))
        for a, b in self.links:
            if not (1 <= a <= self.node_count and 1 <= b <= self.node_count):
                raise ValueError(f"link ({a},{b}) outside 1..{self.node_count}")

    def neighbors(self, node: int) -> tuple[int, ...]:
        out = [b if a == node else a
               for a, b in self.links if node in (a, b)]
        return tuple(sorted(out))

    def degree(self, node: int) -> int:
        return len(self.neighbors(node))

    def with_links(self, extra: Iterable[tuple[int, int]]) -> "LatticeGraph":
        return LatticeGraph(self.node_count,
                            self.links | _normalize_links(extra))


def chain_lattice(n: int, link_count: int | None = None) -> LatticeGraph:
    """Open chain on n nodes with the first `link_count` bonds (default all)."""
    if link_count is None:
        link_count = n - 1
    if not 0 <= link_count <= n - 1:
        raise ValueError(f"link_count {link_count} outside 0..{n - 1}")
    return LatticeGraph(n, [(i, i + 1) for i in range(1, link_count + 1)])


def grid_lattice(width: int, height: int) -> LatticeGraph:
    """Square lattice, nodes numbered along the snake path used to build it."""
    if width < 1 or height < 1:
        raise ValueError("grid dimensions must be positive")
    links = []
    for r in range(height):
        for c in range(width):
            node = _snake_index(width, r, c)
            if c + 1 < width:
                links.append((node, _snake_index(width, r, c + 1)))
            if r + 1 < height:
                links.append((node, _snake_index(width, r + 1, c)))
    return LatticeGraph(width * height, links)


def _snake_index(width: int, row: int, col: int) -> int:
    """1-based node index along a row-by-row snake (alternating direction)."""
    if row % 2 == 0:
        return row * width + col + 1
    return row * width + (width - 1 - col) + 1


@dataclass(frozen=True)
class BuildStep:
    """One step of a stepwise lattice build.

    `new_links` holds one or two links; `focal` is the node being attached.
    For a two-link step `pair` names the two already-connected nodes the
    focal node is linked to.
    """

    new_links: tuple[tuple[int, int], ...]
    focal: int
    pair: tuple[int, int] | None = None

    def __post_init__(self):
        if len(self.new_links) not in (1, 2):
            raise ValueError("a step adds one or two links")
        if len(self.new_links) == 2 and self.pair is None:
            raise ValueError("two-link step needs its attachment pair")


@dataclass(frozen=True)
class BuildOrder:
    """Ordered link insertions producing a monotone chain of lattices."""

    node_count: int
    steps: tuple[BuildStep, ...]

    def __post_init__(self):
        seen: set[tuple[int, int]] = set()
        degree = {v: 0 for v in range(1, self.node_count + 1)}
        for step in self.steps:
            if len(step.new_links) == 2 and degree[step.focal] != 0:
                raise ValueError(
                    f"two-link focal node {step.focal} already has links")
            for link in _normalize_links(step.new_links):
                if link in seen:
                    raise ValueError(f"link {link} added twice")
                seen.add(link)
                degree[link[0]] += 1
                degree[link[1]] += 1

    def lattices(self) -> list[LatticeGraph]:
        """The increasing chain L_0 (no links) .. L_M (all links)."""
        out = [LatticeGraph(self.node_count)]
        for step in self.steps:
            out.append(out[-1].with_links(step.new_links))
        return out

    def two_link_steps(self) -> list[int]:
        return [k for k, s in enumerate(self.steps) if len(s.new_links) == 2]


def lattice_build_order(width: int, height: int) -> BuildOrder:
    """Snake-path build order over a (width x height) grid.

    Nodes enter row by row with alternating direction; each new node is
    linked to every neighbor already present.  Inside the first row this
    adds one link per step, afterwards one or two, for n-1 steps in total.
    """
    grid = grid_lattice(width, height)
    steps = []
    included: set[int] = set()
    for order in range(1, width * height + 1):
        present = [u for u in grid.neighbors(order) if u in included]
        included.add(order)
        if not present:
            if order != 1:
                raise AssertionError("snake order left a node unattached")
            continue
        links = tuple((order, u) for u in sorted(present))
        pair = tuple(sorted(present)) if len(present) == 2 else None
        steps.append(BuildStep(links, focal=order, pair=pair))
    return BuildOrder(width * height, tuple(steps))


def build_order_from_file(text: str) -> BuildOrder:
    """Parse an explicit build order.

    Line 1 holds ``width height``; each following non-comment line holds one
    link ``u v`` (1-based).  Consecutive links attaching the same previously
    isolated node are merged into a single two-link step.
    """
    lines = [ln.strip() for ln in text.splitlines()]
    lines = [ln for ln in lines if ln and not ln.startswith("#")]
    if not lines:
        raise ValueError("empty build-order file")
    try:
        width, height = map(int, lines[0].split())
    except ValueError as exc:
        raise ValueError(f"bad header line {lines[0]!r}") from exc
    n = width * height
    links = []
    for ln in lines[1:]:
        parts = ln.split()
        if len(parts) != 2:
            raise ValueError(f"bad link line {ln!r}")
        u, v = map(int, parts)
        if not (1 <= u <= n and 1 <= v <= n):
            raise ValueError(f"link ({u},{v}) outside 1..{n}")
        links.append((u, v))

    degree = {v: 0 for v in range(1, n + 1)}
    steps: list[BuildStep] = []
    i = 0
    while i < len(links):
        u, v = links[i]
        group = [(u, v)]
        focal = None
        # merge with the next link only when it forms a genuine two-link
        # attachment: an isolated focal node joined to two nodes that both
        # carry links already
        if i + 1 < len(links):
            nxt = links[i + 1]
            for cand, other in ((u, v), (v, u)):
                if degree[cand] != 0 or cand not in nxt or degree[other] == 0:
                    continue
                third = nxt[1] if nxt[0] == cand else nxt[0]
                if third != other and degree[third] > 0:
                    group.append(nxt)
                    focal = cand
                    i += 1
                    break
        if focal is None:
            isolated = [w for w in (u, v) if degree[w] == 0]
            focal = isolated[0] if isolated else u
        i += 1
        for a, b in group:
            degree[a] += 1
            degree[b] += 1
        pair = None
        if len(group) == 2:
            pair = tuple(sorted(w for link in group for w in link
                                if w != focal))
        steps.append(BuildStep(tuple(group), focal=focal, pair=pair))
    return BuildOrder(n, tuple(steps))


# ---------------------------------------------------------------------------
# Hamiltonian constructors
# ---------------------------------------------------------------------------

def _field_term(n: int, qubit: int) -> PauliString:
    return PauliString.from_ops(n, {qubit: "X"}, -1.0)

def _bond_term(n: int, a: int, b: int) -> PauliString:
    return PauliString.from_ops(n, {a: "Z", b: "Z"}, -1.0)


def ising_endpoints(n: int, boundary: str = "periodic") \
        -> tuple[OperatorSum, OperatorSum]:
    """Initial field Hamiltonian and final bond Hamiltonian of the chain."""
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    if boundary not in ("periodic", "open"):
        raise ValueError(f"unknown boundary {boundary!r}")
    h_i = OperatorSum(n, [_field_term(n, i) for i in range(1, n + 1)])
    bonds = [(i, i + 1) for i in range(1, n)]
    if boundary == "periodic":
        bonds.append((n, 1))
    h_f = OperatorSum(n, [_bond_term(n, a, b) for a, b in bonds])
    return h_i, h_f


def ising_step_hamiltonian(n: int, k: int) -> OperatorSum:
    """k-th Hamiltonian of the bond-by-bond Ising series.

    The first k bonds are switched on and transverse fields stay on qubits
    k+2..n; the k=0 member is the pure field Hamiltonian on all qubits and
    the k=n member closes the periodic wrap-around bond.
    """
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    if not 0 <= k <= n:
        raise ValueError(f"k={k} outside 0..{n}")
    terms = [_bond_term(n, i, i % n + 1) for i in range(1, k + 1)]
    field_start = 1 if k == 0 else k + 2
    terms += [_field_term(n, i) for i in range(field_start, n + 1)]
    return OperatorSum(n, terms)


def cluster_hamiltonian(lattice: LatticeGraph) -> OperatorSum:
    """One term per node: -sigma^x on the node times sigma^z on its neighbors."""
    n = lattice.node_count
    ops = {mu: {mu: "X"} for mu in range(1, n + 1)}
    for a, b in lattice.links:
        ops[a][b] = ops[b][a] = "Z"
    return OperatorSum(n, [PauliString.from_ops(n, o, -1.0)
                           for o in ops.values()])


def cluster1d_endpoints(n: int) -> tuple[OperatorSum, OperatorSum]:
    h_i = OperatorSum(n, [_field_term(n, i) for i in range(1, n + 1)])
    return h_i, cluster_hamiltonian(chain_lattice(n))


def cluster1d_step_hamiltonian(n: int, k: int) -> OperatorSum:
    """Cluster Hamiltonian of the chain with its first k links present."""
    if not 0 <= k <= n - 1:
        raise ValueError(f"k={k} outside 0..{n - 1}")
    return cluster_hamiltonian(chain_lattice(n, k))


def cluster_state(lattice: LatticeGraph) -> np.ndarray:
    """Ground state of :func:`cluster_hamiltonian`, built in closed form.

    Uniform superposition with a sign flip for every occupied linked pair.
    """
    n = lattice.node_count
    idx = np.arange(1 << n, dtype=np.uint64)
    signs = np.ones(1 << n)
    for a, b in lattice.links:
        mask = np.uint64((1 << (n - a)) | (1 << (n - b)))
        both = (idx & mask) == mask
        signs[both] *= -1.0
    return signs / np.sqrt(1 << n)


# ---------------------------------------------------------------------------
# interpolation paths
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class InterpolationPath:
    """A chain of straight-line segments through operators H_0 .. H_M.

    Segment k runs for `durations[k]`; inside it the operator is
    ``(1-s_k) H_k + s_k H_{k+1}`` with the segment-local parameter
    ``s_k = (t - t_k)/durations[k]``.  Each boundary instant belongs to the
    right-hand segment, and ``t = tau`` evaluates to exactly ``H_M``, so the
    path is continuous and single-valued in time.
    """

    operators: tuple
    durations: tuple[float, ...]
    family: str = "custom"

    def __post_init__(self):
        if len(self.operators) < 2:
            raise ValueError("a path needs at least two operators")
        if len(self.durations) != len(self.operators) - 1:
            raise ValueError("need one duration per segment")
        if any(d <= 0 for d in self.durations):
            raise ValueError("segment durations must be positive")
        n = self.operators[0].n
        if any(op.n != n for op in self.operators):
            raise ValueError("all operators must share the qubit count")
        object.__setattr__(self, "operators", tuple(self.operators))
        object.__setattr__(self, "durations",
                           tuple(float(d) for d in self.durations))
        starts = np.concatenate([[0.0], np.cumsum(self.durations)])
        starts.setflags(write=False)
        object.__setattr__(self, "_starts", starts)

    @property
    def n(self) -> int:
        return self.operators[0].n

    @property
    def segment_count(self) -> int:
        return len(self.operators) - 1

    @property
    def tau(self) -> float:
        return float(sum(self.durations))

    def segment_starts(self) -> np.ndarray:
        return self._starts

    def locate(self, t: float) -> tuple[int, float]:
        """Segment index and local parameter owning time t in [0, tau]."""
        tau = self.tau
        if not 0.0 <= t <= tau * (1 + 1e-12):
            raise ValueError(f"t={t} outside [0, {tau}]")
        if t >= tau:
            return self.segment_count - 1, 1.0
        starts = self._starts
        k = int(np.searchsorted(starts, t, side="right") - 1)
        k = min(k, self.segment_count - 1)
        return k, (t - starts[k]) / self.durations[k]

    def at_time(self, t: float):
        k, s = self.locate(t)
        if s == 0.0:
            return self.operators[k]
        if s == 1.0:
            return self.operators[k + 1]
        return blend(self.operators[k], self.operators[k + 1], s)

    def at_progress(self, s_global: float):
        """Operator at global progress s in [0, 1] (s = t/tau)."""
        return self.at_time(s_global * self.tau)

    def segment(self, k: int) -> tuple:
        return self.operators[k], self.operators[k + 1]

    def rescaled(self, tau: float) -> "InterpolationPath":
        """Same geometry with durations scaled to a total runtime `tau`."""
        if not 0 < tau < np.inf:
            raise ValueError(f"tau must be finite and positive, got {tau}")
        factor = tau / self.tau
        return InterpolationPath(
            self.operators, tuple(d * factor for d in self.durations),
            self.family)


def make_path(family: str, *, n: int | None = None, width: int | None = None,
              height: int | None = None, boundary: str = "periodic",
              build_order: BuildOrder | None = None,
              instance=None, clause_order: Sequence[int] | None = None,
              ) -> InterpolationPath:
    """Construct a named interpolation path.

    Linear families yield a single segment from the initial to the final
    Hamiltonian; stepwise families yield the full chain of intermediate
    Hamiltonians.  Every segment has duration 1, and
    :meth:`InterpolationPath.rescaled` sets the total runtime.
    """
    if family not in PATH_FAMILIES:
        raise ValueError(f"unknown family {family!r}; choose from "
                         f"{', '.join(PATH_FAMILIES)}")

    if family == "ising-linear":
        ops = list(ising_endpoints(_require(n, "n"), boundary))
    elif family == "ising-stepwise":
        n = _require(n, "n")
        ops = [ising_step_hamiltonian(n, k) for k in range(n + 1)]
    elif family == "cluster1d-linear":
        ops = list(cluster1d_endpoints(_require(n, "n")))
    elif family == "cluster1d-stepwise":
        n = _require(n, "n")
        ops = [cluster1d_step_hamiltonian(n, k) for k in range(n)]
    elif family == "cluster2d-stepwise":
        if build_order is None:
            build_order = lattice_build_order(_require(width, "width"),
                                              _require(height, "height"))
        ops = [cluster_hamiltonian(lat) for lat in build_order.lattices()]
    else:  # ec3-projector
        from . import ec3
        ops = list(ec3.projector_hamiltonian(_require(instance, "instance"),
                                             clause_order))

    return InterpolationPath(tuple(ops), (1.0,) * (len(ops) - 1), family)


def _require(value, name):
    if value is None:
        raise ValueError(f"family requires parameter {name!r}")
    return value
