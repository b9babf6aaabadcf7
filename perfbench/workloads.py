"""Seeded inputs, the three benchmark workloads and their answer oracle.

One generator builds every operand of the paper's Fig. 7 kernels from a
seed, stored in its Table-3 format (``A`` as CSR).  Each workload drives
the public API on the ``typed`` backend:

* ``serve``  -- prepared queries on a ``Server`` (e-graph plans, paid in set-up);
* ``adhoc``  -- one-shot ``storel`` calls whose text carries a fresh literal,
  so every call parses, optimizes and lowers;
* ``ingest`` -- sparse writes to ``A`` maintaining two views, beside reads.

A workload object is built by its constructor (the set-up) and exposes
``read()`` and ``write()``; each returns a list of ``Answer`` rows.  An
answer carries the reference as a function, so that ``check`` computes and
compares it after the timed call.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np
import scipy.sparse as sp

from repro import storel
from repro.serving import Server
from repro.storage import Catalog, CSCFormat, CSFFormat, CSRFormat, DenseFormat

BACKEND = "typed"

#: The Fig. 7 kernels of ``repro.kernels`` with their operands renamed so
#: that one catalog holds all of them: the rank-3 tensor is ``T`` and its
#: factors ``U`` (TTM), ``F`` and ``G`` (MTTKRP).  ``{c}`` is the literal
#: factor ``adhoc`` writes into each program; the other workloads use 1.
SOURCES = {
    "SUMMM": "sum(<(i,j), a> in A, <(j,k), b> in B) { () -> {c} * a * b }",
    "MMM": "sum(<(i,j), a> in A, <(j,k), b> in B) { (i, k) -> {c} * a * b }",
    "BATAX": ("sum(<(i,j), a1> in A, <(i2,k), a2> in A, <k2, x> in X) "
              "if (i == i2) then if (k == k2) then "
              "{ j -> {c} * beta * a1 * a2 * x }"),
    "TTM": ("sum(<(i,j,l), a> in T, <(k,l2), b> in U) "
            "if (l == l2) then { (i, j, k) -> {c} * a * b }"),
    "MTTKRP": ("sum(<(i,k,l), a> in T, <(k2,j), b> in F, <(l2,j2), c> in G) "
               "if (k == k2) then if (l == l2) then if (j == j2) then "
               "{ (i, j) -> {c} * a * b * c }"),
}
KERNELS = tuple(SOURCES)


def program(kernel: str, factor: str = "1.0") -> str:
    return SOURCES[kernel].replace("{c}", factor)


@dataclass(frozen=True)
class Sizes:
    n: int                      # A is n x n
    a_density: float
    b_cols: int
    t_dims: tuple[int, int, int]
    t_nnz: int
    rank: int


SIZES = {
    "full": Sizes(n=512, a_density=0.01, b_cols=32, t_dims=(64, 96, 128),
                  t_nnz=5000, rank=8),
    # The self-test's size: every code path, a fraction of a second per round.
    "tiny": Sizes(n=48, a_density=0.05, b_cols=8, t_dims=(8, 10, 12),
                  t_nnz=120, rank=3),
}

OTHER_DENSITY = 2.0 ** -5
FACTOR_DENSITY = 2.0 ** -2
#: Row skew of ``A``, as in the SuiteSparse stand-ins of ``repro.data``.
ROW_SKEW = 0.6
#: Largest sparse write, in entries.
MAX_WRITE = 32
GOLDEN = (5 ** 0.5 - 1) / 2


def fixed_rows(rng: np.random.Generator, counts, cols: int) -> np.ndarray:
    """A dense matrix with ``counts[i]`` non-zeros at random columns of row i."""
    matrix = np.zeros((len(counts), cols))
    for i, count in enumerate(counts):
        columns = rng.choice(cols, size=int(count), replace=False)
        matrix[i, columns] = rng.uniform(0.1, 1.0, size=int(count))
    return matrix


def skewed_counts(rng: np.random.Generator, rows: int, cols: int,
                  density: float) -> np.ndarray:
    """Row lengths falling off as ``rank ** -ROW_SKEW``, in a seeded row order.

    The lengths themselves do not depend on the seed, so neither does the
    work of a kernel that follows them (BATAX is quadratic in them); only
    which rows are long does.
    """
    weights = 1.0 / np.arange(1, rows + 1) ** ROW_SKEW
    counts = np.minimum(np.round(density * rows * cols * weights / weights.sum()),
                        cols).astype(int)
    return rng.permutation(counts)


class Operands:
    """Every operand as a dense NumPy array, generated from one seed.

    Positions and values are random; the number of non-zeros in each row
    (of ``A``, ``B``, ``F``, ``G``) and column (of ``U``) is fixed by the
    sizes, so the work each kernel does varies little between seeds.
    """

    def __init__(self, sizes: Sizes, seed: int):
        rng = np.random.default_rng(seed)
        n, rank, (d1, d2, d3) = sizes.n, sizes.rank, sizes.t_dims
        per_row = max(1, round(FACTOR_DENSITY * rank))
        self.sizes = sizes
        self.A = fixed_rows(rng, skewed_counts(rng, n, n, sizes.a_density), n)
        self.B = fixed_rows(rng, [max(1, round(OTHER_DENSITY * sizes.b_cols))] * n,
                            sizes.b_cols)
        self.X = rng.uniform(0.1, 1.0, size=n)
        self.beta = float(rng.uniform(0.5, 2.0))
        flat = rng.choice(d1 * d2 * d3, size=sizes.t_nnz, replace=False)
        self.T_coords = np.column_stack(np.unravel_index(np.sort(flat), (d1, d2, d3)))
        self.T_values = rng.uniform(0.1, 1.0, size=sizes.t_nnz)
        self.T = np.zeros((d1, d2, d3))
        self.T[tuple(self.T_coords.T)] = self.T_values
        self.U = fixed_rows(rng, [per_row] * d3, rank).T.copy()
        self.F = fixed_rows(rng, [per_row] * d2, rank)
        self.G = fixed_rows(rng, [per_row] * d3, rank)
        self._references: dict[str, object] = {}

    def catalog(self) -> Catalog:
        d = self.sizes.t_dims
        return (Catalog()
                .add(CSRFormat.from_dense("A", self.A))
                .add(CSRFormat.from_dense("B", self.B))
                .add(DenseFormat.from_dense("X", self.X))
                .add(CSFFormat.from_coo("T", self.T_coords, self.T_values, d))
                .add(CSCFormat.from_dense("U", self.U))
                .add(CSRFormat.from_dense("F", self.F))
                .add(CSCFormat.from_dense("G", self.G))
                .add_scalar("beta", self.beta))

    def shape(self, kernel: str) -> tuple[int, ...]:
        s = self.sizes
        return {"SUMMM": (), "MMM": (s.n, s.b_cols), "BATAX": (s.n,),
                "TTM": (*s.t_dims[:2], s.rank),
                "MTTKRP": (s.t_dims[0], s.rank)}[kernel]

    def reference(self, kernel: str, A: np.ndarray | None = None):
        """The dense answer, computed by SciPy/NumPy from the operands.

        ``A`` replaces the generated ``A``; answers over the generated one
        are computed once, on first use.
        """
        if A is None:
            if kernel not in self._references:
                self._references[kernel] = self.reference(kernel, self.A)
            return self._references[kernel]
        a = sp.csr_matrix(A)
        if kernel == "SUMMM":
            return float((a @ self.B).sum())
        if kernel == "MMM":
            return a @ self.B
        if kernel == "BATAX":
            return self.beta * (a.T @ (a @ self.X))
        if kernel == "TTM":
            return np.einsum("ijl,kl->ijk", self.T, self.U)
        return np.einsum("ikl,kj,lj->ij", self.T, self.F, self.G)


@dataclass
class Answer:
    kernel: str
    got: object
    want: Callable[[], object]


def check(answers: list[Answer]) -> int:
    """The number of answers that differ from their reference."""
    return sum(not np.allclose(a.got, a.want(), rtol=1e-9, atol=1e-9)
               for a in answers)


class Writes:
    """Seeded sparse point updates of ``A``, mirrored on a dense shadow.

    Coordinates come from a fixed pool: ``A``'s initial non-zeros plus half
    as many zero cells.  A touched zero cell gets a value (insert), a
    non-zero one is either cancelled exactly (delete) or incremented, each
    with probability one half.  Two thirds of the pool is then non-zero in
    the long run, which is where it starts, so ``A`` keeps its size however
    many writes a run makes.
    """

    def __init__(self, ops: Operands, rng: np.random.Generator):
        self.rng = rng
        self.shadow = ops.A.copy()
        nonzero = np.argwhere(self.shadow != 0)
        zero = np.argwhere(self.shadow == 0)
        extra = zero[rng.choice(len(zero), size=len(nonzero) // 2, replace=False)]
        self.pool = np.concatenate([nonzero, extra])

    def next(self) -> tuple[np.ndarray, np.ndarray]:
        k = int(self.rng.integers(1, MAX_WRITE + 1))
        coords = self.pool[self.rng.choice(len(self.pool), size=k, replace=False)]
        current = self.shadow[tuple(coords.T)]
        fresh = self.rng.uniform(0.1, 1.0, size=k)
        delete = self.rng.random(k) < 0.5
        values = np.where(current == 0, fresh, np.where(delete, -current, fresh))
        self.shadow[tuple(coords.T)] += values
        return coords, values


class Workload:
    """Set up by the constructor; ``read`` and ``write`` are the timed requests."""

    programs_per_read: int
    catalog: Catalog
    writes: Writes

    def final_check(self) -> list[Answer]:
        """The stored ``A`` against the shadow every write also updated."""
        return [Answer("A", self.catalog["A"].to_dense(), lambda: self.writes.shadow)]

    def close(self) -> None:
        pass


class Serve(Workload):
    """Read-mostly serving: a round runs the five prepared kernels."""

    programs_per_read = len(KERNELS)

    def __init__(self, ops: Operands, seed: int):
        self.ops = ops
        self.rng = np.random.default_rng(seed + 1)
        self.catalog = ops.catalog()
        self.server = Server(self.catalog, method="egraph", backend=BACKEND)
        client = self.server.session()
        self.statements = {k: client.prepare(program(k), dense_shape=ops.shape(k))
                           for k in KERNELS}
        # Preparation happens on first execution: this pays every e-graph
        # optimization in set-up.
        for stmt in self.statements.values():
            stmt.execute()
        self.writes = Writes(ops, self.rng)
        self.order = list(KERNELS)

    def read(self) -> list[Answer]:
        self.rng.shuffle(self.order)
        answers = []
        for k in self.order:
            scale = 1.0
            if k == "BATAX":
                beta = float(self.rng.uniform(0.5, 2.0))
                got = self.statements[k].execute(beta=beta)
                scale = beta / self.ops.beta
            else:
                got = self.statements[k].execute()
            answers.append(Answer(k, got,
                                  lambda k=k, s=scale: s * self.ops.reference(k)))
        return answers

    def write(self) -> list[Answer]:
        """A point update of ``A`` with no view over it: the bare write path."""
        self.server.update("A", *self.writes.next())
        return []

    def close(self) -> None:
        self.server.close()

    def plans(self) -> dict[str, object]:
        return served_plans(self.server, self.statements)


class Adhoc(Workload):
    """One-shot analytic queries: a round runs five fresh programs."""

    programs_per_read = len(KERNELS)

    def __init__(self, ops: Operands, seed: int):
        self.ops = ops
        self.rng = np.random.default_rng(seed + 2)
        self.catalog = ops.catalog()
        self.writes = Writes(ops, self.rng)
        self.chosen: dict[str, set[str]] = {k: set() for k in KERNELS}
        self.order = list(KERNELS)
        # Literals follow a seeded Weyl sequence: all distinct, so no cache
        # of any layer can serve a program twice.
        self.literal = float(self.rng.uniform())
        self.read()                     # warm-up: imports, first lowering

    def read(self) -> list[Answer]:
        self.rng.shuffle(self.order)
        answers = []
        for k in self.order:
            self.literal = (self.literal + GOLDEN) % 1.0
            factor = f"{0.5 + 1.5 * self.literal:.9f}"
            outcome = storel.run_detailed(program(k, factor), self.catalog,
                                          backend=BACKEND,
                                          dense_shape=self.ops.shape(k))
            self.chosen[k].add(outcome.optimization.chosen_candidate)
            c = float(factor)
            answers.append(Answer(k, outcome.result,
                                  lambda k=k, c=c: c * self.ops.reference(k)))
        return answers

    def write(self) -> list[Answer]:
        """A point update of ``A`` through the catalog: the bare write path."""
        self.catalog.update("A", *self.writes.next())
        return []



class Ingest(Workload):
    """Writes beside reads: two views over ``A`` maintained on every write."""

    programs_per_read = 3
    VIEWS = ("MMM", "BATAX")

    def __init__(self, ops: Operands, seed: int):
        self.ops = ops
        self.rng = np.random.default_rng(seed + 3)
        self.catalog = ops.catalog()
        self.server = Server(self.catalog, method="egraph", backend=BACKEND)
        self.views = {k: self.server.create_view(k, program(k),
                                                 dense_shape=ops.shape(k))
                      for k in self.VIEWS}
        self.summm = self.server.session().prepare(program("SUMMM"),
                                                   dense_shape=())
        self.summm.execute()
        self.writes = Writes(ops, self.rng)
        # Two warm-up writes derive and prepare the delta plans.
        for _ in range(2):
            self.write()
        self.read()

    def read(self) -> list[Answer]:
        got = [(k, view.value()) for k, view in self.views.items()]
        got.append(("SUMMM", self.summm.execute()))
        return [Answer(k, value,
                       lambda k=k: self.ops.reference(k, A=self.writes.shadow))
                for k, value in got]

    def write(self) -> list[Answer]:
        self.server.update("A", *self.writes.next())
        return []

    def close(self) -> None:
        self.server.close()

    def plans(self) -> dict[str, object]:
        plans = {k: view.statement.optimization for k, view in self.views.items()}
        plans.update(served_plans(self.server, {"SUMMM": self.summm}))
        return plans


def served_plans(server: Server, statements: dict) -> dict[str, object]:
    """Kernel -> the ``OptimizationResult`` the server serves it with."""
    by_query = {key[0]: server.plans.get(key).optimization
                for key in server.plans.keys()}
    return {k: by_query[s.query] for k, s in statements.items()}


WORKLOADS = {"serve": Serve, "adhoc": Adhoc, "ingest": Ingest}
