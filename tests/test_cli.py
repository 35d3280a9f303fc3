"""CLI: every subcommand end to end."""

import json

import pytest

from repro.cli import main


def test_compare_subcommand(capsys):
    assert main(["compare", "--page", "cnn", "--reading", "5"]) == 0
    out = capsys.readouterr().out
    assert "energy-aware" in out
    assert "savings" in out


def test_experiments_subcommand_subset(capsys):
    assert main(["experiments", "fig03"]) == 0
    out = capsys.readouterr().out
    assert "break-even" in out


def test_experiments_unknown_id(capsys):
    assert main(["experiments", "fig99"]) == 2
    assert "unknown" in capsys.readouterr().err


def test_ablations_unknown_name(capsys):
    assert main(["ablations", "nonsense"]) == 2
    assert "unknown" in capsys.readouterr().err


def test_faults_sweep_unknown_profile(capsys):
    assert main(["faults-sweep", "nowhere"]) == 2
    err = capsys.readouterr().err
    assert "unknown" in err and "nowhere" in err
    assert "Traceback" not in err
    assert len(err.strip().splitlines()) == 1


def test_trace_train_predict_pipeline(tmp_path, capsys):
    trace_path = str(tmp_path / "trace.csv")
    model_path = str(tmp_path / "model.json")
    assert main(["trace", "--out", trace_path, "--users", "5",
                 "--views", "40", "--seed", "7"]) == 0
    assert main(["train", "--trace", trace_path, "--out",
                 model_path]) == 0
    assert main(["predict", "--model", model_path, "--trace",
                 trace_path, "--threshold", "9"]) == 0
    out = capsys.readouterr().out
    assert "threshold accuracy" in out


def test_train_without_interest_threshold(tmp_path, capsys):
    trace_path = str(tmp_path / "trace.csv")
    model_path = str(tmp_path / "model.json")
    main(["trace", "--out", trace_path, "--users", "4", "--views", "30"])
    assert main(["train", "--trace", trace_path, "--out", model_path,
                 "--no-interest-threshold"]) == 0
    assert "interest threshold: None" in capsys.readouterr().out


def test_missing_subcommand_rejected():
    with pytest.raises(SystemExit):
        main([])


def test_session_subcommand(capsys):
    assert main(["session", "--user", "3", "--seed", "2013"]) == 0
    out = capsys.readouterr().out
    assert "Algorithm 2" in out
    assert "switches" in out


def test_session_unknown_user(capsys):
    assert main(["session", "--user", "9999"]) == 2
    assert "not found" in capsys.readouterr().err


def test_profile_subcommand_reports_top_hotspots(tmp_path, capsys):
    report = tmp_path / "profile.json"
    assert main(["profile", "fig01", "--top", "3",
                 "--report", str(report)]) == 0
    assert "profile fig01" in capsys.readouterr().out
    payload = json.loads(report.read_text())
    assert 0 < len(payload["hotspots"]) <= 3
    assert payload["kernel"]["events_processed"] > 0


def test_profile_unknown_task(capsys):
    assert main(["profile", "fig99"]) == 2
    err = capsys.readouterr().err.strip()
    assert len(err.splitlines()) == 1
    assert "fig99" in err
    assert "fig01" in err and "table07" in err  # the known ids


def _tune(trace, seed):
    return main(["tune", "--algorithm", "random", "--trials", "3",
                 "--pages", "www.motors.ebay.com",
                 "--readings", "2", "9", "30", "--seed", str(seed),
                 "--trace", str(trace)])


@pytest.mark.parametrize("damage", ["other-search", "torn"])
def test_tune_overwrites_an_existing_trace(tmp_path, capsys, damage):
    """An existing ``--trace`` file is overwritten, not replayed: one
    left by a different search or cut short by a torn write ends up
    byte-equal to a fresh run's trace."""
    fresh = tmp_path / "fresh.jsonl"
    assert _tune(fresh, seed=5) == 0
    trace = tmp_path / "trace.jsonl"
    if damage == "other-search":
        assert _tune(trace, seed=6) == 0
    else:
        trace.write_bytes(fresh.read_bytes()[:-40])
    assert trace.read_bytes() != fresh.read_bytes()
    assert _tune(trace, seed=5) == 0
    assert trace.read_bytes() == fresh.read_bytes()


@pytest.mark.parametrize("points", ["0", "-1"])
def test_tune_rejects_points_below_one(capsys, points):
    code = main(["tune", "--algorithm", "grid", "--points", points,
                 "--pages", "www.motors.ebay.com",
                 "--readings", "2", "9", "30"])
    err = capsys.readouterr().err.strip()
    assert code == 2
    assert len(err.splitlines()) == 1 and "points" in err
