"""Print or check golden tables (``python -m tests.<name>_golden [--check]``).

A golden script computes ``{table name: {case id: value}}``; the test module
that pins the values holds dicts of the same names.  Without arguments the
tables are printed as Python source to paste into the test module; with
``--check`` they are compared with the recorded ones instead.
"""

from __future__ import annotations


def main(tables: dict[str, dict], recorded, argv: list[str]) -> int:
    """Exit status: 0, or 1 when ``--check`` found an id whose computed
    value differs from (or is missing in, or extra to) module ``recorded``."""
    if "--check" not in argv:
        for name, table in tables.items():
            print(f"{name} = {{")
            for key, value in table.items():
                line = f"    {key!r}: {value!r},"
                print(line if len(line) < 80 else f"    {key!r}:\n        {value!r},")
            print("}")
        return 0
    bad = 0
    for name, table in tables.items():
        want = getattr(recorded, name)
        for key in sorted({*table, *want}, key=repr):
            if table.get(key) != want.get(key):
                bad += 1
                print(f"{name}[{key!r}]: recorded {want.get(key)!r}, computed {table.get(key)!r}")
    total = sum(len(table) for table in tables.values())
    print(f"{total - bad} of {total} golden values match {recorded.__name__}")
    return 1 if bad else 0
