"""Every case of the golden registry (``tests/golden.py``) against its record,
and the report that names what moved."""

from __future__ import annotations

import pytest

from tests import golden


@pytest.mark.parametrize("case", list(golden.CASES))
def test_recorded(case):
    moved = golden.diff(case, golden.document(case))
    assert not moved, "\n".join(moved)


#: Cases that cost milliseconds, one of them file-backed.
CHEAP = ("repair-normal-seed1", "draws-read-seed1", "BENCH_fig_fsck")


@pytest.fixture
def cheap(monkeypatch, tmp_path):
    """The registry cut to ``CHEAP``, over a copy of its records: returns
    the recorded table and the directory of BENCH files to alter."""
    monkeypatch.setattr(golden, "CASES", {case: golden.CASES[case] for case in CHEAP})
    recorded = {case: dict(golden.recorded_table()[case]) for case in CHEAP}
    monkeypatch.setattr(golden, "recorded_table", lambda: recorded)
    bench = golden.bench_file("BENCH_fig_fsck")
    (tmp_path / bench.name).write_bytes(bench.read_bytes())
    monkeypatch.setattr(golden, "ROOT", tmp_path)
    return recorded, tmp_path


def test_one_altered_section_is_named_alone(cheap, capsys):
    recorded, _ = cheap
    computed = recorded["repair-normal-seed1"]["repair"]
    recorded["repair-normal-seed1"]["repair"] = "0" * 16
    assert golden.main(["--check"]) == 1
    assert capsys.readouterr().out.splitlines() == [
        f"repair-normal-seed1: repair: recorded {'0' * 16}, computed {computed}",
        "2 of 3 cases match",
    ]


def test_an_altered_bench_file_is_named_with_its_diff(cheap, capsys):
    _, root = cheap
    path = root / "BENCH_fig_fsck.json"
    path.write_text(path.read_text().replace('"seed": 0', '"seed": 7'))
    assert golden.main(["--check"]) == 1
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "BENCH_fig_fsck: bench: differs from BENCH_fig_fsck.json"
    assert '    -  "seed": 7' in out and '    +  "seed": 0' in out
    assert out[-1] == "2 of 3 cases match"
    assert not [line for line in out if line.startswith(("repair", "draws"))]


def test_recording_writes_the_table_it_checks_against(cheap, monkeypatch, tmp_path, capsys):
    recorded, _ = cheap
    monkeypatch.setattr(golden, "TABLE", tmp_path / "recorded.py")
    assert golden.main([]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == "3 of 3 cases match"
    written = {}
    exec(golden.TABLE.read_text(), written)
    assert written["RECORDED"] == recorded
    assert "bench" not in written["RECORDED"]["BENCH_fig_fsck"]
