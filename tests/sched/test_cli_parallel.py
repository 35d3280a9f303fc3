"""``repro stream-sweep --parallel N``: N local sched workers on one work
dir print the serial table byte for byte, and the runtime line counts
the blocks and shard writes of every worker.  A rerun over a finished
work dir with a damaged shard still prints the serial table."""

import contextlib
import io
import json
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

from repro.cli import main

SRC = str(Path(__file__).resolve().parents[2] / "src")

ARGS = ["stream-sweep", "--scale", "1", "--horizon", "3600",
        "--users", "2000", "4000"]
#: 65,536-arrival blocks: 5 for 2000 users, 9 for 4000.
SERIAL_BLOCKS = 14


def _run(*extra: str) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(ARGS + list(extra)) == 0
    return out.getvalue()


def _sweep(*extra: str):
    """Run the CLI in-process: (table, streamed blocks, sched units)."""
    text = _run(*extra)
    table = text.split("-- streamed runtime")[0]
    blocks = int(re.search(r"-- streamed runtime: (\d+) blocks", text)[1])
    units = re.search(r"-- sched: (\d+) units", text)
    return table, blocks, int(units[1]) if units else None


def _shard_writes(text: str):
    """(spills, shard bytes) from the runtime line."""
    found = re.search(r"(\d+) spills, (\d+) shard bytes", text)
    return int(found[1]), int(found[2])


@pytest.fixture(scope="module")
def serial():
    table, blocks, units = _sweep()
    assert (blocks, units) == (SERIAL_BLOCKS, None)
    return table


def test_parallel_matches_serial_on_a_temporary_work_dir(
        serial, tmp_path, monkeypatch):
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
    table, blocks, units = _sweep("--parallel", "2")
    assert table == serial
    assert blocks == SERIAL_BLOCKS
    assert units > 0
    # The temporary work dir is gone once the sweep has merged.
    assert list(tmp_path.iterdir()) == []


def test_parallel_over_a_work_dir_resumes_with_zero_units(serial,
                                                          tmp_path):
    work_dir = str(tmp_path / "wd")
    table, blocks, units = _sweep("--parallel", "2", "--work-dir",
                                  work_dir)
    assert table == serial
    assert blocks == SERIAL_BLOCKS
    assert units > 0
    table, blocks, units = _sweep("--parallel", "2", "--work-dir",
                                  work_dir)
    assert table == serial
    assert (blocks, units) == (0, 0)


def test_parallel_counts_every_shard_write(tmp_path):
    """Every unit and stitched point is one counted spill, from
    whichever local worker wrote it; no plan shard is written."""
    work_dir = tmp_path / "wd"
    spills, nbytes = _shard_writes(_run("--parallel", "2", "--work-dir",
                                        str(work_dir)))
    shard_bytes = {}
    for manifest in (work_dir / "shards").glob("*/manifest.json"):
        shards = json.loads(manifest.read_text())["shards"]
        for key, entry in shards.items():
            shard_bytes[manifest.parent.name, key] = entry["bytes"]
    assert {key.split("-")[0] for _, key in shard_bytes} \
        == {"unit", "point"}
    assert spills == len(shard_bytes)
    assert nbytes == sum(shard_bytes.values()) > 0
    # A rerun over the finished dir writes nothing.
    assert _shard_writes(_run("--parallel", "2", "--work-dir",
                              str(work_dir))) == (0, 0)


@pytest.mark.parametrize("damaged", ["unit-0000", "point"])
def test_rerun_over_a_damaged_shard_prints_the_serial_table(
        serial, tmp_path, damaged):
    """Truncate one kind of shard in every point of a finished work dir:
    the rerun re-executes whatever it needs and prints the serial
    table, and so does the rerun after it."""
    work_dir = tmp_path / "wd"
    assert _sweep("--work-dir", str(work_dir))[0] == serial
    shards = sorted((work_dir / "shards").glob(f"*/{damaged}.npz"))
    assert len(shards) == 2
    for shard in shards:
        data = shard.read_bytes()
        shard.write_bytes(data[:len(data) // 2])
    for _ in range(2):
        assert _sweep("--work-dir", str(work_dir))[0] == serial


#: One user over a 0.01 s horizon: the point draws no session at all.
EMPTY = ["stream-sweep", "--scale", "1", "--horizon", "0.01",
         "--users", "1"]
EMPTY_TABLE = """\
Stream sweep: N=200 channels, horizon=0s
users | sessions | dropped | p_drop | svc_mean | svc_std | p50 | p90 | p99
------+----------+---------+--------+----------+---------+-----+-----+----
    1 |        0 |       0 | 0.0000 |        - |       - |   - |   - |   -
"""


def _empty_sweep(*extra: str) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(EMPTY + list(extra)) == 0
    return out.getvalue()


def test_zero_session_point_reports_no_service_statistics(tmp_path):
    """A point with no in-horizon session has sessions 0, dropped 0,
    drop probability 0.0 and no service statistics: ``-`` in the
    table, ``null`` in the report."""
    report = tmp_path / "empty.json"
    text = _empty_sweep("--report", str(report))
    assert text.split("-- streamed runtime")[0] == EMPTY_TABLE
    (point,) = json.loads(report.read_text())["points"]
    assert (point["sessions"], point["dropped"],
            point["drop_probability"]) == (0, 0, 0.0)
    assert [point[f"service_{stat}"] for stat in (
        "mean", "std", "min", "max", "p50", "p90", "p99")] == [None] * 7


def test_zero_session_point_stitches_to_the_serial_table(tmp_path,
                                                         monkeypatch):
    """A point with no session runs one empty unit and stitches to the
    serial point."""
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
    text = _empty_sweep("--parallel", "2")
    assert text.split("-- streamed runtime")[0] == EMPTY_TABLE


def test_block_zero_is_rejected(capsys):
    assert main(ARGS + ["--block", "0"]) == 2
    err = capsys.readouterr().err
    assert err.strip() == "stream-sweep arguments must be positive: --block"


def test_mismatched_work_dir_is_one_line_exit_2(tmp_path):
    """Rejoining a work dir built for other parameters is bad input:
    one stderr line naming the dir, exit 2, no traceback."""
    work_dir = str(tmp_path / "wd")
    base = ["stream-sweep", "--scale", "1", "--horizon", "600",
            "--work-dir", work_dir]

    def cli(*users):
        return subprocess.run(
            [sys.executable, "-m", "repro", *base, "--users", *users],
            capture_output=True, text=True, timeout=120,
            env={**os.environ, "PYTHONPATH": SRC})

    assert cli("250").returncode == 0
    rejoined = cli("300")
    assert rejoined.returncode == 2
    assert rejoined.stdout == ""
    assert "Traceback" not in rejoined.stderr
    (line,) = rejoined.stderr.splitlines()
    assert work_dir in line
