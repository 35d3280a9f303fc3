"""``repro serve`` CLI error paths."""

from repro.cli import main


def test_serve_rejects_bad_port(capsys):
    assert main(["serve", "--port", "99999"]) == 2
    err = capsys.readouterr().err
    assert "invalid port" in err
    assert len(err.strip().splitlines()) == 1


def test_serve_rejects_negative_window(capsys):
    assert main(["serve", "--batch-window", "-1"]) == 2
    assert "batch-window" in capsys.readouterr().err


def test_serve_rejects_bad_worker_counts(capsys):
    assert main(["serve", "--workers", "0"]) == 2
    assert "must be >= 1" in capsys.readouterr().err


def test_serve_rejects_zero_max_batch(capsys):
    assert main(["serve", "--max-batch", "0"]) == 2
    err = capsys.readouterr().err
    assert "--max-batch" in err
    assert len(err.strip().splitlines()) == 1
