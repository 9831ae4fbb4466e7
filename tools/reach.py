#!/usr/bin/env python3
"""Reach audit: list every function in ``src/repro`` that nothing runs.

Under one ``sys.setprofile`` hook, in one process (``REPRO_JOBS=1``), it
drives:

- every CLI subcommand once at small arguments.  That includes each
  registered runner's subcommand at smoke scale (so every runner runs),
  ``service`` with telemetry, SLOs and sampled tracing, and ``trace``,
  ``inspect``, ``bench run``, ``fsck`` (offline, repair, online) and
  ``info``;
- the five ledger workloads at their smoke size, imported from
  ``benchmarks/ledger/workloads.py``;
- every ``examples/*.py`` as ``__main__``, each with its own directory
  first on ``sys.path`` and ``sys.argv == [path]``.

Tests and ``examples/ablations`` are not driven: a function that only a
test calls is dead.  The sorted ``module:qualname`` of every ``def`` in
``src/repro`` whose code never ran is written to ``.github/unreached``
(or to the path given).  CI regenerates the list and fails when it gains
a name, or when it loses one the committed file still lists; a change
that reaches or deletes a function lowers the file in the same commit.

Run from the repository root (a few minutes):

    python tools/reach.py [OUT]
"""

from __future__ import annotations

import importlib.util
import io
import os
import runpy
import sys
import tempfile
import time
import types
from contextlib import chdir, redirect_stdout
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
PACKAGE = SRC / "repro"

#: ``service`` as CI's smoke runs it: telemetry, SLOs and sampled tracing
#: (its one rate given as a ``--rates`` list, so the list parser runs too).
SERVICE_ARGS = [
    "service", "--streams", "2000", "--rates", "small", "--duration", "short",
    "--telemetry", "--slo", "--sample", "1/200",
    "--telemetry-out", "service.csv", "--dashboard-out", "service.txt",
    "--out", "service.json",
]

#: The subcommands that are not a registered runner.
UTILITY_COMMANDS = [
    ["--list"],
    ["info"],
    ["trace", "fig6a", "--scale", "0.05"],
    ["trace", "fig8", "--scale", "0.04", "--format", "jsonl"],
    ["inspect", "fig6a", "--scale", "smoke", "--json", "inspect.json"],
    ["bench", "run", "--names", "fig6a", "--scale", "smoke",
     "--out-dir", "bench"],
    ["fsck", "--scale", "0.3", "--seed", "3"],
    ["fsck", "--scale", "0.3", "--seed", "3", "--repair"],
    ["fsck", "--online", "--scale", "0.2", "--corrupt", "2"],
]


def defined_functions() -> dict[tuple[str, int, str], str]:
    """``(filename, first line, name) -> "module:qualname"`` for every
    ``def`` (methods and nested functions included) under ``src/repro``."""
    out = {}
    for path in sorted(PACKAGE.rglob("*.py")):
        parts = path.relative_to(SRC).with_suffix("").parts
        module = ".".join(parts[:-1] if parts[-1] == "__init__" else parts)
        stack = [compile(path.read_text(encoding="utf-8"), str(path), "exec")]
        while stack:
            for const in stack.pop().co_consts:
                if isinstance(const, types.CodeType):
                    stack.append(const)
                    if not const.co_name.startswith("<"):
                        key = (str(path), const.co_firstlineno, const.co_name)
                        out[key] = f"{module}:{const.co_qualname}"
    return out


def _step(label: str, fn, *args) -> None:
    start = time.perf_counter()
    with redirect_stdout(io.StringIO()):
        fn(*args)
    print(f"  {label}: {time.perf_counter() - start:.1f} s", file=sys.stderr)


def drive_cli() -> None:
    from repro.cli import main
    from repro.core.run import runner_names

    commands = [
        SERVICE_ARGS if name == "service" else [name, "--scale", "0.05"]
        for name in runner_names()
    ] + UTILITY_COMMANDS
    for argv in commands:
        _step("repro " + " ".join(argv), main, argv)


def drive_ledger() -> None:
    spec = importlib.util.spec_from_file_location(
        "ledger_workloads", ROOT / "benchmarks" / "ledger" / "workloads.py"
    )
    ledger = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = ledger  # dataclasses look their module up
    spec.loader.exec_module(ledger)

    def sample(workload) -> None:
        fixture = workload.setup(0, "smoke")
        outcome = workload.outcome(fixture, workload.timed(workload.restore(fixture)))
        failed = [name for name, ok in outcome.checks.items() if not ok]
        if failed:
            raise RuntimeError(f"ledger {workload.name}: checks failed: {failed}")

    for name, workload in ledger.WORKLOADS.items():
        _step(f"ledger {name}", sample, workload)


def drive_examples() -> None:
    def script(path: Path) -> None:
        saved_path, saved_argv = sys.path[:], sys.argv[:]
        sys.path.insert(0, str(path.parent))
        sys.argv = [str(path)]
        try:
            runpy.run_path(str(path), run_name="__main__")
        finally:
            sys.path[:], sys.argv[:] = saved_path, saved_argv

    for path in sorted((ROOT / "examples").glob("*.py")):
        _step(f"examples/{path.name}", script, path)


def main(argv: list[str]) -> int:
    out = Path(argv[1]) if len(argv) > 1 else ROOT / ".github" / "unreached"
    os.environ["REPRO_JOBS"] = "1"
    sys.path.insert(0, str(SRC))
    functions = defined_functions()
    called: set[types.CodeType] = set()

    def hook(frame, event, arg) -> None:
        if event == "call":
            called.add(frame.f_code)

    start = time.perf_counter()
    with tempfile.TemporaryDirectory() as tmp, chdir(tmp):
        sys.setprofile(hook)
        try:
            drive_cli()
            drive_ledger()
            drive_examples()
        finally:
            sys.setprofile(None)
    reached = {(code.co_filename, code.co_firstlineno, code.co_name) for code in called}
    unreached = sorted({name for key, name in functions.items() if key not in reached})
    out.write_text("".join(f"{name}\n" for name in unreached), encoding="utf-8")
    print(
        f"{len(functions)} functions in src/repro, {len(unreached)} unreached "
        f"-> {out} ({time.perf_counter() - start:.0f} s)",
        file=sys.stderr,
    )
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
