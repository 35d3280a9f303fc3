"""``repro stream-sweep --parallel N``: N local sched workers on one work
dir print the serial table byte for byte, and the runtime line counts
the blocks of every worker."""

import contextlib
import io
import re
import tempfile

import pytest

from repro.cli import main

ARGS = ["stream-sweep", "--scale", "1", "--horizon", "3600",
        "--users", "2000", "4000"]
#: 65,536-arrival blocks: 5 for 2000 users, 9 for 4000.
SERIAL_BLOCKS = 14


def _sweep(*extra: str):
    """Run the CLI in-process: (table, streamed blocks, sched units)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(ARGS + list(extra)) == 0
    text = out.getvalue()
    table = text.split("-- streamed runtime")[0]
    blocks = int(re.search(r"-- streamed runtime: (\d+) blocks", text)[1])
    units = re.search(r"-- sched: (\d+) units", text)
    return table, blocks, int(units[1]) if units else None


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


@pytest.mark.parametrize("extra", [["--no-stream"], ["--out", "shards"]])
def test_parallel_rejects_flags_the_sched_path_cannot_honour(
        extra, capsys):
    assert main(ARGS + ["--parallel", "2", *extra]) == 2
    err = capsys.readouterr().err
    assert len(err.strip().splitlines()) == 1
    assert "--parallel" in err and extra[0] in err


def test_block_zero_is_rejected(capsys):
    assert main(ARGS + ["--block", "0"]) == 2
    err = capsys.readouterr().err
    assert err.strip() == "stream-sweep arguments must be positive: --block"
