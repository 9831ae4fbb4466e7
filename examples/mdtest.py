"""mdtest-style tree metadata benchmark.

mdtest (LLNL) is the companion benchmark to IOR: each task creates, stats
and removes files/directories across a tree of configurable depth and
branching factor.  The paper uses Metarates (flat per-client directories);
mdtest exercises the *tree* dimension — deep lookups, directory creation
spread across groups, and interleaved per-task operation phases — and is
the benchmark a downstream user of this library would reach for first.

No runner or claim of the package uses it: the mdtest ablation,
``tests/test_workloads_mdtest.py`` and ``tests/test_meta_onepass.py``
import it.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigError
from repro.meta.mds import MetadataServer
from repro.workloads.base import MetaOp, drive, mds_executor, meta_runs


@dataclass(frozen=True)
class MdtestConfig:
    """Tree shape and per-task load (mdtest's -z/-b/-I/-n knobs)."""

    depth: int = 2
    branch: int = 3
    items_per_dir: int = 16
    ntasks: int = 4

    def __post_init__(self) -> None:
        if self.depth < 0 or self.branch <= 0:
            raise ConfigError("depth must be >= 0 and branch positive")
        if self.items_per_dir <= 0 or self.ntasks <= 0:
            raise ConfigError("items_per_dir and ntasks must be positive")

    @property
    def ndirs(self) -> int:
        """Directories in one task's tree (full ``branch``-ary of ``depth``)."""
        if self.branch == 1:
            return self.depth + 1
        return (self.branch ** (self.depth + 1) - 1) // (self.branch - 1)

    @property
    def nitems(self) -> int:
        """Files one task creates (items in every directory of its tree)."""
        return self.ndirs * self.items_per_dir


@dataclass
class MdtestResult:
    """ops/s per phase, as mdtest reports."""

    dir_create: float
    file_create: float
    file_stat: float
    file_remove: float
    total_ops: int


class MdtestWorkload:
    """Run the four mdtest phases against one MDS."""

    def __init__(self, config: MdtestConfig) -> None:
        self.config = config

    def tree_program(self, root):
        """Phase-1 event stream: every task builds its tree, tasks
        interleaving per level.  Receives each mkdir's handle back via
        :func:`drive`; returns the per-task directory lists."""
        cfg = self.config
        trees: list[list] = [[] for _ in range(cfg.ntasks)]
        for t in range(cfg.ntasks):
            handle = yield (0.0, MetaOp("mkdir", (root, f"task{t:03d}")))
            trees[t].append(handle)
        frontier = [list(tree) for tree in trees]
        for level in range(cfg.depth):
            next_frontier: list[list] = [[] for _ in range(cfg.ntasks)]
            for width_idx in range(cfg.branch):
                for t in range(cfg.ntasks):
                    for parent_idx, parent in enumerate(frontier[t]):
                        d = yield (
                            0.0,
                            MetaOp("mkdir", (parent, f"d{level}.{parent_idx}.{width_idx}")),
                        )
                        trees[t].append(d)
                        next_frontier[t].append(d)
            frontier = next_frontier
        return trees

    def item_program(self, trees: list[list], method: str):
        """Per-item event stream (phases 2-4): ``method`` on every item of
        every directory, tasks interleaved one op at a time; results are
        unread, so the stream is :class:`~repro.workloads.base.MetaOpRun`s."""
        cfg = self.config
        return meta_runs(method, (
            (d, f"file.{di}.{i}")
            for i in range(cfg.items_per_dir)
            for t in range(cfg.ntasks)
            for di, d in enumerate(trees[t])
        ))

    def run(self, mds: MetadataServer, cold_stat: bool = True) -> MdtestResult:
        cfg = self.config
        execute = mds_executor(mds)
        # Phase 1: every task builds its tree (tasks interleave per level).
        t0 = mds.elapsed_s
        trees = drive(self.tree_program(mds.root), execute)
        ndirs = sum(len(tree) for tree in trees)
        dir_create_s = mds.elapsed_s - t0

        # Phase 2: create items in every directory, tasks interleaved.
        t0 = mds.elapsed_s
        drive(self.item_program(trees, "create"), execute)
        nitems = cfg.ntasks * cfg.nitems
        file_create_s = mds.elapsed_s - t0

        # Phase 3: stat every item (optionally cold, like a fresh mount).
        if cold_stat:
            mds.flush()
            mds.drop_caches()
        t0 = mds.elapsed_s
        drive(self.item_program(trees, "stat"), execute)
        file_stat_s = mds.elapsed_s - t0

        # Phase 4: remove every item.
        t0 = mds.elapsed_s
        drive(self.item_program(trees, "delete"), execute)
        file_remove_s = mds.elapsed_s - t0
        mds.flush()

        def rate(n: int, secs: float) -> float:
            return n / secs if secs > 0 else 0.0

        return MdtestResult(
            dir_create=rate(ndirs, dir_create_s),
            file_create=rate(nitems, file_create_s),
            file_stat=rate(nitems, file_stat_s),
            file_remove=rate(nitems, file_remove_s),
            total_ops=ndirs + 3 * nitems,
        )
