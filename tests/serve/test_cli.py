"""``repro serve`` CLI error paths."""

import pytest

from repro.cli import main


def test_serve_rejects_bad_port(capsys):
    assert main(["serve", "--port", "99999"]) == 2
    err = capsys.readouterr().err
    assert "invalid port" in err
    assert len(err.strip().splitlines()) == 1


def test_serve_rejects_negative_window(capsys):
    """Batching is gated on core occupancy: there is no window to set,
    so argparse rejects ``--batch-window`` at any value."""
    for value in ("-1", "0", "0.005"):
        with pytest.raises(SystemExit) as exit_info:
            main(["serve", "--batch-window", value])
        assert exit_info.value.code == 2
        assert "unrecognized arguments: --batch-window" in \
            capsys.readouterr().err


def test_serve_rejects_bad_worker_counts(capsys):
    assert main(["serve", "--workers", "0"]) == 2
    assert "must be >= 1" in capsys.readouterr().err


def test_serve_rejects_zero_max_batch(capsys):
    assert main(["serve", "--max-batch", "0"]) == 2
    err = capsys.readouterr().err
    assert "--max-batch" in err
    assert len(err.strip().splitlines()) == 1
