"""The modelled 8-worker speedup of the fig11 sweep at 10x scale.

One worker runs every task of the work dir and records each task's
wall time; :func:`tests.sched.lpt.list_schedule_makespan` replays
those durations on eight workers, over one unit chain per point.  The
speedup is a model, not an 8-process measurement (see
``tests/sched/lpt.py``).  The sweep has
the shape of ``bench/``'s ``sweep`` workload: 2000 channels, a 2 h
horizon, five load factors, eight blocks per unit.  With five points
on eight workers the makespan is the longest point's chain, so the
bound reads total work over the largest point's work; five points of
load 0.8-1.2 give about 4.
"""

import pytest

from repro.capacity.simulator import CapacityConfig
from repro.sched import (ensure_spec, execute_work_dir, merge_work_dir,
                         spec_payload)
from repro.stream.sweep import default_user_counts, lognormal_pool
from tests.sched.lpt import list_schedule_makespan

#: Three points, each one chain: point 0 runs two units, points 1 and 2
#: one each; point 2's chain unit-2-0 -> stitch-2 (8 s) is critical.
DAG = {"unit-0-0": 3.0, "unit-0-1": 2.0, "stitch-0": 1.0,
       "unit-1-0": 4.0, "stitch-1": 1.0,
       "unit-2-0": 7.0, "stitch-2": 1.0}


@pytest.mark.parametrize("n_workers, makespan", [
    (1, 19.0),   # one worker runs every task back to back
    # LPT trace: unit-2-0 [0,7], unit-1-0 [0,4], unit-0-0 [4,7],
    # unit-0-1 [7,9], stitch-0 [9,10], stitch-1 [9,10],
    # stitch-2 [10,11]
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
