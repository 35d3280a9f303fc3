"""Sensitivity sweep: determinism, parallel identity, dormancy failure."""

import pytest

from repro.browser.energy_aware import EnergyAwareEngine
from repro.core.session import browse_and_read
from repro.experiments.fig_sensitivity import SWEEP_TASKS, run_profile
from repro.faults.injector import FaultPlan
from repro.faults.profiles import PROFILE_ORDER, ChannelProfile
from repro.runtime.parallel import KIND_FAULTS, run_tasks
from repro.runtime.report import CSV_COLUMNS
from repro.rrc.states import RrcState
from repro.webpages.corpus import benchmark_pages

#: Small grid for the parallel-identity test: one clean, one lossy.
FAST_PROFILES = ["ideal", "congested"]


def test_sweep_tasks_cover_all_presets_in_order():
    assert tuple(task_id for task_id, _, _ in SWEEP_TASKS) == PROFILE_ORDER
    for _, _, runner in SWEEP_TASKS:
        assert getattr(runner, "needs_seed", False)


def test_same_seed_same_report():
    first = run_profile("congested", seed=77)
    second = run_profile("congested", seed=77)
    assert first.report() == second.report()


def test_different_seed_different_impairments():
    a = run_profile("cell_edge", seed=1)
    b = run_profile("cell_edge", seed=2)
    assert a.total_faults.to_dict() != b.total_faults.to_dict()


def test_parallel_sweep_identical_to_sequential():
    sequential = run_tasks(KIND_FAULTS, FAST_PROFILES, processes=1)
    parallel = run_tasks(KIND_FAULTS, FAST_PROFILES, processes=2)
    assert [r.report for r in sequential.results] == \
           [r.report for r in parallel.results]
    assert [r.seed for r in sequential.results] == \
           [r.seed for r in parallel.results]
    assert [r.kernel.faults_injected for r in sequential.results] == \
           [r.kernel.faults_injected for r in parallel.results]


def test_savings_degrade_but_stay_positive():
    """The energy-aware win shrinks as the channel worsens but grouping
    transmissions keeps paying even at the cell edge."""
    ideal = run_profile("ideal", seed=5)
    edge = run_profile("cell_edge", seed=5)
    assert ideal.mean_energy_saving > edge.mean_energy_saving
    assert edge.mean_energy_saving > 0.0
    assert ideal.total_faults.faults_injected == 0
    assert edge.total_faults.faults_injected > 0


def test_task_report_folds_fault_counters():
    suite = run_tasks(KIND_FAULTS, ["congested"], processes=1)
    (result,) = suite.results
    assert result.kind == KIND_FAULTS
    assert result.kernel.faults_injected > 0
    row = result.to_dict()
    assert row["faults_injected"] == result.kernel.faults_injected
    assert "faults_injected" in CSV_COLUMNS
    assert "transfer_retries" in CSV_COLUMNS


def test_forced_dormancy_failure_keeps_ledger_consistent():
    """With every dormancy/release request ignored by the firmware, the
    energy-aware load must still complete, log the failures, and pay the
    tail energy: the timers demote the radio to IDLE on their own."""
    plan = FaultPlan(profile=ChannelProfile(name="no-dormancy",
                                            dormancy_failure_prob=1.0),
                     seed=13)
    page = benchmark_pages(mobile=True)[0]
    # Reading longer than T1+T2 (4+15 s): the timers can finish the job.
    failed = browse_and_read(page, EnergyAwareEngine, reading_time=25.0,
                             idle_at_open=True, faults=plan)
    honoured = browse_and_read(page, EnergyAwareEngine, reading_time=25.0,
                               idle_at_open=True)

    # The load completed and both failures (release at tx end, dormancy
    # at open) were logged, not raised.
    assert failed.load.load_complete_time > 0.0
    assert failed.handset.ril.errors
    assert any("ignored by firmware" in m.error
               for m in failed.handset.ril.errors)
    assert failed.load.ril_errors  # the engine logged its failed release

    # The inactivity timers demoted the radio anyway.
    assert failed.handset.machine.state is RrcState.IDLE

    # Ledger consistency: the two accounting windows tile the session.
    load_start = failed.load.started_at
    load_end = load_start + failed.load.load_complete_time
    read_end = load_end + failed.reading_time
    total = failed.handset.accountant.total_energy(load_start, read_end)
    assert failed.total_energy == pytest.approx(total)

    # And the failure costs real energy: the DCH/FACH tail is paid.
    assert failed.total_energy > honoured.total_energy
