"""PostMark benchmark (§V.D.3, Fig. 10).

Katcher's PostMark models a mail/news server: create an initial pool of
small files, then run transactions, each pairing a create-or-delete with a
read-or-append, and finally delete everything.  The paper configures
"files-counts=100K, transaction-counts=500K and transaction-size equal to
file size", run by 10 clients in their own directories; the comparison is
between directory placement algorithms, so the metadata path dominates.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigError
from repro.fs.redbud import RedbudFileSystem
from repro.rng import derive_rng
from repro.workloads.base import MetaOp, drive, mds_executor


@dataclass(frozen=True)
class PostMarkConfig:
    """PostMark knobs (paper scale: files=100_000, transactions=500_000)."""

    files: int = 1000
    transactions: int = 5000
    nclients: int = 10
    min_size: int = 512
    max_size: int = 16 * 1024
    seed: int = 0

    def __post_init__(self) -> None:
        if self.files <= 0 or self.transactions < 0 or self.nclients <= 0:
            raise ConfigError("files/transactions/nclients must be positive")
        if not (0 < self.min_size <= self.max_size):
            raise ConfigError("need 0 < min_size <= max_size")
        if self.files % self.nclients != 0:
            raise ConfigError("files must divide evenly among clients")


@dataclass
class PostMarkResult:
    """Execution-time breakdown of one PostMark run."""

    elapsed_s: float
    mds_s: float
    data_s: float
    creates: int
    deletes: int
    reads: int
    appends: int


class PostMarkWorkload:
    """Run PostMark against a :class:`RedbudFileSystem`."""

    def __init__(self, config: PostMarkConfig) -> None:
        self.config = config

    def program(self):
        """The whole PostMark run as one seeded lazy op program.

        Pool state (which files exist per client) lives in the generator;
        file sizes are resolved at execution time by yielding a
        ``file_handle`` call and reading the answer sent back through
        :func:`drive`.  Returns (creates, deletes, reads, appends).
        """
        cfg = self.config
        rng = derive_rng(cfg.seed, "postmark")
        creates = deletes = reads = appends = 0

        # Per-client directories and file pools.
        pools: list[list[str]] = []
        serial = 0
        for c in range(cfg.nclients):
            yield MetaOp("mkdir", (f"/pm{c:03d}",))
            pools.append([])
        # Initial pool, clients interleaved.
        per_client = cfg.files // cfg.nclients
        for i in range(per_client):
            for c in range(cfg.nclients):
                path = f"/pm{c:03d}/file{serial:07d}"
                serial += 1
                size = int(rng.integers(cfg.min_size, cfg.max_size + 1))
                yield MetaOp("create", (path,))
                yield MetaOp("write", (path, 0, size))
                pools[c].append(path)
                creates += 1

        # Transactions, round-robin over clients.
        for t in range(cfg.transactions):
            c = t % cfg.nclients
            pool = pools[c]
            # create-or-delete half
            if rng.random() < 0.5 or not pool:
                path = f"/pm{c:03d}/file{serial:07d}"
                serial += 1
                size = int(rng.integers(cfg.min_size, cfg.max_size + 1))
                yield MetaOp("create", (path,))
                yield MetaOp("write", (path, 0, size))
                pool.append(path)
                creates += 1
            else:
                victim = pool.pop(int(rng.integers(0, len(pool))))
                yield MetaOp("unlink", (victim,))
                deletes += 1
            # read-or-append half
            if pool:
                target = pool[int(rng.integers(0, len(pool)))]
                f = yield MetaOp("file_handle", (target,))
                size = max(1, f.size_bytes)
                if rng.random() < 0.5:
                    yield MetaOp("open", (target,))
                    yield MetaOp("read", (target, 0, size))
                    reads += 1
                else:
                    grow = int(rng.integers(cfg.min_size, cfg.max_size + 1))
                    yield MetaOp("write", (target, f.size_bytes, grow))
                    appends += 1

        # Teardown: delete the remaining pool (PostMark's final phase).
        for c, pool in enumerate(pools):
            for path in pool:
                yield MetaOp("unlink", (path,))
                deletes += 1
        return (creates, deletes, reads, appends)

    def run(self, fs: RedbudFileSystem) -> PostMarkResult:
        mds_start = fs.mds.elapsed_s
        data_start = fs.data.array.total_busy_s
        creates, deletes, reads, appends = drive(self.program(), mds_executor(fs))
        mds_s = fs.mds.elapsed_s - mds_start
        data_s = fs.data.array.total_busy_s - data_start
        return PostMarkResult(
            elapsed_s=mds_s + data_s,
            mds_s=mds_s,
            data_s=data_s,
            creates=creates,
            deletes=deletes,
            reads=reads,
            appends=appends,
        )
