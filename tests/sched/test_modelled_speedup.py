"""The modelled 8-worker speedup of the fig11 sweep at 10x scale.

One worker runs every task of the work dir and records each task's
wall time; :func:`tests.sched.lpt.list_schedule_makespan` replays
those durations on eight workers.  The speedup is a model, not an
8-process measurement (see ``tests/sched/lpt.py``).  The sweep has
the shape of ``bench/``'s ``sweep`` workload: 2000 channels, a 2 h
horizon, five load factors, eight blocks per unit.  An 8 h horizon
gives more units per point and so a larger modelled speedup; the
shorter one is the harder case for the 3x bound.
"""

import pytest

from repro.capacity.simulator import CapacityConfig
from repro.sched import (ensure_spec, execute_work_dir, merge_work_dir,
                         spec_payload)
from repro.stream.sweep import default_user_counts, lognormal_pool
from tests.sched.lpt import list_schedule_makespan

#: Two points: point 0 fans out to three units, point 1 to one long
#: unit on the critical path plan-1 -> unit-1-0 -> stitch-1 (8 s).
DAG = {"plan-0": 1.0, "unit-0-0": 4.0, "unit-0-1": 3.0, "unit-0-2": 2.0,
       "stitch-0": 1.0, "plan-1": 2.0, "unit-1-0": 5.0, "stitch-1": 1.0}


@pytest.mark.parametrize("n_workers, makespan", [
    (1, 19.0),   # one worker runs every task back to back
    # LPT trace: plan-1 [0,2], unit-1-0 [2,7], plan-0 [2,3],
    # unit-0-0 [3,7], unit-0-1 [7,10], unit-0-2 [7,9],
    # stitch-0 [10,11], stitch-1 [10,11]
    (2, 11.0),
    (8, 8.0),    # enough workers: the critical path
])
def test_list_schedule_makespan_on_a_hand_built_dag(n_workers, makespan):
    assert list_schedule_makespan(DAG, n_workers) == makespan


def test_fig11_10x_sweep_models_a_3x_speedup_on_8_workers(tmp_path):
    pool = lognormal_pool()
    config = CapacityConfig(n_channels=2000, horizon=7200.0, seed=7)
    counts = default_user_counts(config, float(pool.mean()))
    ensure_spec(tmp_path, spec_payload(pool, counts, config, seed=7,
                                       unit_blocks=8))
    durations = execute_work_dir(tmp_path)["tasks"]
    assert sum(point.dropped
               for point in merge_work_dir(tmp_path).points) > 0
    assert sum(task.startswith("unit-") for task in durations) >= 8
    one_worker = sum(durations.values())
    assert one_worker / list_schedule_makespan(durations, 8) >= 3.0
