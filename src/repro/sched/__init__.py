"""Deterministic work-stealing scheduler for distributed stream sweeps.

``repro.sched`` turns ``repro stream-sweep`` into a coordinator-free
map-reduce over a shared work directory: every sweep *point* is one
chain of block-range **units** (:mod:`repro.sched.units`), each run
from the exact source state and drop carry its predecessor published
(:mod:`repro.sched.worker`), and a **stitch** folds the unit shards
into the point (:mod:`repro.sched.stitch`).  A claim-file lease
protocol (:mod:`repro.sched.executor`, built on
:mod:`repro.runtime.lease`) lets any number of worker processes — on
one host or many, sharing only a filesystem — claim, heartbeat, steal
and re-execute tasks with no coordinator process; a stolen or resumed
unit restarts from the last published boundary.  It is the one
multi-process sweep executor: ``repro stream-sweep --parallel N`` runs
``N`` local workers on one work dir.  The merged report is
byte-identical to the serial ``run_stream_sweep``; the golden tests in
``tests/sched`` hold that line, kill/resume included.
"""

from repro.sched.executor import (WorkDirIncomplete, WorkDirMismatch,
                                  ensure_spec, execute_work_dir,
                                  merge_work_dir, run_distributed_sweep,
                                  spec_payload, work_dir_progress)
from repro.sched.stitch import stitch_point
from repro.sched.units import (Boundary, PointPlan, UnitDescriptor,
                               plan_point)
from repro.sched.worker import run_unit

__all__ = [
    "Boundary",
    "PointPlan",
    "UnitDescriptor",
    "WorkDirIncomplete",
    "WorkDirMismatch",
    "ensure_spec",
    "execute_work_dir",
    "merge_work_dir",
    "plan_point",
    "run_distributed_sweep",
    "run_unit",
    "spec_payload",
    "stitch_point",
    "work_dir_progress",
]
