"""Coordinator-free work-stealing executor over a shared work directory.

Any number of worker processes — launched independently, on one host or
many, sharing only a filesystem — drive one sweep to completion:

``work_dir/sweep.json``
    The immutable sweep spec (pool values, config, user counts,
    per-point seeds, block/unit sizing) plus its fingerprint.  The
    first worker writes it atomically; every later worker verifies the
    fingerprint and refuses (:class:`WorkDirMismatch`) to join a
    directory built for different parameters.

``work_dir/tasks/``
    One claim file (:mod:`repro.runtime.lease`) and one done marker
    per task.  Tasks per point ``i``: ``plan-i`` (seeding pass),
    ``unit-i-u`` (speculative block-range execution, one per unit),
    ``stitch-i`` (carry-chain stitch).  Workers scan for ready tasks
    in a per-worker rotation, claim with an atomic ``O_EXCL`` create,
    heartbeat while running, and *steal* claims whose heartbeat went
    stale — a crashed worker's task re-executes elsewhere with no
    coordinator involved.

``work_dir/shards/point-<n>-<seed>/``
    One :class:`~repro.stream.shard.ShardStore` per point holding the
    plan, the unit results and the stitched point.  Every read is
    checksum-verified; a damaged shard drops the task's done marker so
    the work re-executes instead of poisoning the merge.  Each worker
    reads every stitched point once per run, so a rerun re-stitches a
    point whose shard was damaged after it finished.

Determinism: every task is a pure function of the spec, all results
land keyed by point/unit id, and :func:`merge_work_dir` assembles
points in spec order — so the merged report is byte-identical to the
serial :func:`~repro.stream.sweep.run_stream_sweep` no matter how many
workers ran, in what interleaving, or how many died along the way.
"""

from __future__ import annotations

import contextlib
import dataclasses
import json
import os
import tempfile
import time
import uuid
from pathlib import Path
from typing import Dict, Optional, Sequence, Set

import numpy as np

from repro.capacity.simulator import CapacityConfig, CapacitySimulator
from repro.runtime import lease
from repro.runtime.observability import (KERNEL_STATS, SimRunStats,
                                         collecting)
from repro.stream import DEFAULT_BLOCK_ARRIVALS
from repro.stream.shard import ShardStore, params_fingerprint
from repro.stream.sweep import (StreamPoint, StreamSweepResult,
                                point_fingerprint)
from repro.sched.stitch import stitch_point
from repro.sched.units import DEFAULT_UNIT_BLOCKS, PointPlan, plan_point
from repro.sched.worker import run_unit

_SPEC_NAME = "sweep.json"
_PLAN_KEY = "plan"
_POINT_KEY = "point"


class WorkDirMismatch(RuntimeError):
    """The work directory was initialised for different parameters."""


class WorkDirIncomplete(RuntimeError):
    """The sweep has a spec but not every point is stitched yet.

    Carries the :func:`work_dir_progress` snapshot so callers (the
    serving layer's job-status endpoint in particular) can report *how
    far* the sweep got instead of just "not done".  Subclasses
    ``RuntimeError`` so pre-existing callers keep working.
    """

    def __init__(self, message: str, progress: Optional[dict] = None):
        super().__init__(message)
        self.progress = progress


class _Retry(Exception):
    """A task's inputs were damaged; clear markers and try again."""


def spec_payload(pool: np.ndarray,
                 user_counts: Sequence[int],
                 config: Optional[CapacityConfig] = None, *,
                 seed: Optional[int] = None,
                 block_arrivals: int = DEFAULT_BLOCK_ARRIVALS,
                 unit_blocks: int = DEFAULT_UNIT_BLOCKS) -> dict:
    """Build the JSON spec for one distributed sweep.

    Per-point seeds are derived exactly as the serial sweep derives
    them (:meth:`~repro.capacity.simulator.CapacitySimulator.
    sweep_seeds`), so the distributed run reproduces the serial one
    draw for draw.
    """
    simulator = CapacitySimulator(pool, config)
    config = simulator.config
    counts = [int(n) for n in user_counts]
    seeds = [int(s) for s in
             simulator.sweep_seeds(len(counts), seed=seed)]
    payload = {
        "version": 1,
        "pool": [float(v) for v in np.asarray(pool, dtype=np.float64)],
        "config": {
            "n_channels": int(config.n_channels),
            "mean_interval": float(config.mean_interval),
            "horizon": float(config.horizon),
            "seed": int(config.seed),
        },
        "counts": counts,
        "seeds": seeds,
        "block_arrivals": int(block_arrivals),
        "unit_blocks": int(unit_blocks),
    }
    payload["fingerprint"] = params_fingerprint(payload)
    return payload


def ensure_spec(work_dir, payload: dict) -> dict:
    """Publish ``payload`` as the work directory's spec, atomically.

    Exactly one worker wins the create (``os.link`` of a temp file is
    atomic and fails if the spec exists); everyone else loads the
    winner's spec and must match its fingerprint.
    """
    work_dir = Path(work_dir)
    work_dir.mkdir(parents=True, exist_ok=True)
    spec_path = work_dir / _SPEC_NAME
    if not spec_path.exists():
        tmp = work_dir / f".{_SPEC_NAME}.{os.getpid()}.{uuid.uuid4().hex[:8]}"
        tmp.write_text(json.dumps(payload, indent=2, sort_keys=True),
                       encoding="utf-8")
        try:
            os.link(tmp, spec_path)
        except FileExistsError:
            pass
        finally:
            os.unlink(tmp)
    spec = load_spec(work_dir)
    if spec["fingerprint"] != payload["fingerprint"]:
        raise WorkDirMismatch(
            f"{spec_path} holds a sweep with fingerprint "
            f"{spec['fingerprint'][:12]}..., refusing to join with "
            f"{payload['fingerprint'][:12]}...")
    return spec


def load_spec(work_dir) -> dict:
    spec_path = Path(work_dir) / _SPEC_NAME
    try:
        with open(spec_path, "r", encoding="utf-8") as handle:
            return json.load(handle)
    except FileNotFoundError:
        raise WorkDirMismatch(
            f"no sweep spec at {spec_path}; initialise the work "
            f"directory with ensure_spec / run_distributed_sweep first")


def _spec_config(spec: dict) -> CapacityConfig:
    cfg = spec["config"]
    return CapacityConfig(n_channels=int(cfg["n_channels"]),
                          mean_interval=float(cfg["mean_interval"]),
                          horizon=float(cfg["horizon"]),
                          seed=int(cfg["seed"]))


def _unit_key(unit_index: int) -> str:
    return f"unit-{unit_index:04d}"


class _WorkDir:
    """Paths, stores and task markers of one work directory."""

    def __init__(self, work_dir, spec: dict):
        self.root = Path(work_dir)
        self.spec = spec
        self.pool = np.asarray(spec["pool"], dtype=np.float64)
        self.config = _spec_config(spec)
        self.counts = [int(n) for n in spec["counts"]]
        self.seeds = [int(s) for s in spec["seeds"]]
        self.block_arrivals = int(spec["block_arrivals"])
        self.unit_blocks = int(spec["unit_blocks"])
        self.tasks = self.root / "tasks"
        self.tasks.mkdir(parents=True, exist_ok=True)

    @property
    def n_points(self) -> int:
        return len(self.counts)

    def open_store(self, point: int) -> ShardStore:
        """A fresh store per access, so the manifest reflects what
        other workers have published since."""
        n_users = self.counts[point]
        seed = self.seeds[point]
        fingerprint = params_fingerprint({
            "layer": "sched-v1",
            "point": point_fingerprint(self.pool, self.config, n_users,
                                       seed, self.block_arrivals),
            "unit_blocks": self.unit_blocks,
        })
        return ShardStore(self.root / "shards"
                          / f"point-{n_users}-{seed}", fingerprint)

    def done_path(self, task_id: str) -> Path:
        return self.tasks / f"{task_id}.done"

    def claim_path(self, task_id: str) -> Path:
        return self.tasks / f"{task_id}.claim"

    def is_done(self, task_id: str) -> bool:
        return self.done_path(task_id).exists()

    def mark_done(self, task_id: str, payload: dict) -> None:
        path = self.done_path(task_id)
        tmp = path.with_name(path.name
                             + f".tmp-{os.getpid()}-{uuid.uuid4().hex[:8]}")
        tmp.write_text(json.dumps(payload, sort_keys=True),
                       encoding="utf-8")
        os.replace(tmp, path)

    def clear_done(self, task_id: str) -> None:
        try:
            os.unlink(self.done_path(task_id))
        except OSError:
            pass


def _rotated(items: list, offset: int) -> list:
    if not items:
        return items
    offset %= len(items)
    return items[offset:] + items[:offset]


def execute_work_dir(work_dir, *, worker_id: Optional[str] = None,
                     worker_index: int = 0,
                     poll: float = 0.05,
                     heartbeat_interval: float = 1.0,
                     stale_after: float = 10.0) -> dict:
    """Run tasks until the whole sweep is complete; returns stats.

    Blocks until *every* task in the directory is done — tasks this
    worker could not claim are someone else's, and their claims go
    stale and get stolen here if that someone dies.  The returned
    stats record per-task wall-clock durations for the tasks this
    worker ran, plus how many stale claims it stole.
    """
    spec = load_spec(work_dir)
    wd = _WorkDir(work_dir, spec)
    if worker_id is None:
        worker_id = f"w{worker_index}-{os.getpid()}"
    plans: Dict[int, PointPlan] = {}
    #: Points whose stitched shard this run wrote or read back intact.
    stitched: Set[int] = set()
    durations: Dict[str, float] = {}
    stats = {"worker_id": worker_id, "tasks": durations, "steals": 0}

    def _try_run(task_id: str, fn) -> bool:
        claim = wd.claim_path(task_id)
        try:
            stale = (time.time() - claim.stat().st_mtime) > stale_after
        except OSError:
            stale = False
        if not lease.try_claim(claim, worker_id,
                               stale_after=stale_after):
            return False
        try:
            if wd.is_done(task_id):
                return False
            if stale:
                stats["steals"] += 1
                KERNEL_STATS.add(sched_steals=1)
            started = time.perf_counter()
            try:
                with lease.Heartbeat(claim,
                                     interval=heartbeat_interval):
                    fn()
            except _Retry:
                return False
            elapsed = time.perf_counter() - started
            durations[task_id] = elapsed
            wd.mark_done(task_id, {"owner": worker_id,
                                   "seconds": elapsed})
            return True
        finally:
            lease.release(claim)

    def _run_plan(point: int) -> None:
        plan = plan_point(wd.pool, wd.counts[point], wd.seeds[point],
                          config=wd.config,
                          block_arrivals=wd.block_arrivals,
                          unit_blocks=wd.unit_blocks)
        wd.open_store(point).put(_PLAN_KEY, {}, plan.to_state())
        plans[point] = plan

    def _load_plan(point: int) -> Optional[PointPlan]:
        plan = plans.get(point)
        if plan is not None:
            return plan
        got = wd.open_store(point).get(_PLAN_KEY)
        if got is None:
            # Done marker without a readable shard: the planner died
            # mid-publish or the shard was damaged — replan.
            wd.clear_done(f"plan-{point}")
            return None
        plan = PointPlan.from_state(got[1])
        plans[point] = plan
        return plan

    def _run_unit(point: int, plan: PointPlan, unit_index: int) -> None:
        arrays, meta = run_unit(wd.pool, plan, plan.units[unit_index],
                                config=wd.config)
        wd.open_store(point).put(_unit_key(unit_index), arrays, meta)

    def _run_stitch(point: int, plan: PointPlan) -> None:
        store = wd.open_store(point)
        results = []
        for unit_index in range(len(plan.units)):
            got = store.get(_unit_key(unit_index))
            if got is None:
                wd.clear_done(f"unit-{point}-{unit_index}")
                raise _Retry
            results.append(got)
        point_result = stitch_point(wd.pool, plan, results,
                                    config=wd.config)
        store.put(_POINT_KEY, {},
                  {"point": dataclasses.asdict(point_result)})
        stitched.add(point)

    point_order = _rotated(list(range(wd.n_points)), worker_index)
    while True:
        progressed = False
        pending = False
        for point in point_order:
            plan_id = f"plan-{point}"
            if not wd.is_done(plan_id):
                pending = True
                progressed |= _try_run(
                    plan_id, lambda point=point: _run_plan(point))
                continue
            plan = _load_plan(point)
            if plan is None:
                pending = True
                continue
            unit_order = _rotated(list(range(len(plan.units))),
                                  worker_index)
            for unit_index in unit_order:
                unit_id = f"unit-{point}-{unit_index}"
                if wd.is_done(unit_id):
                    continue
                pending = True
                progressed |= _try_run(
                    unit_id,
                    lambda point=point, plan=plan,
                    unit_index=unit_index:
                    _run_unit(point, plan, unit_index))
            if not all(wd.is_done(f"unit-{point}-{u}")
                       for u in range(len(plan.units))):
                pending = True
                continue
            stitch_id = f"stitch-{point}"
            if not wd.is_done(stitch_id):
                pending = True
                progressed |= _try_run(
                    stitch_id,
                    lambda point=point, plan=plan:
                    _run_stitch(point, plan))
            elif point not in stitched:
                if wd.open_store(point).get(_POINT_KEY) is None:
                    # Done marker without a readable point shard: the
                    # merge would fail on every rerun — re-stitch.
                    wd.clear_done(stitch_id)
                    pending = True
                else:
                    stitched.add(point)
        if not pending:
            return stats
        if not progressed:
            time.sleep(poll)


def work_dir_progress(work_dir) -> dict:
    """Pure read of a work directory's completion state.

    Unlike :func:`merge_work_dir`'s shard walk, this never creates
    directories or stores — a freshly ``ensure_spec``'d directory with
    zero completed tasks reports ``state: "pending"`` and stays
    byte-for-byte untouched, which is what lets a job-status endpoint
    poll it safely while (or before, or after a crash of) the workers.

    Per point: ``pending`` (no task ran), ``running`` (planned and/or
    some units done) or ``complete`` (stitched).  ``units_total`` is
    filled from the published plan when one is readable, else ``None``
    — the plan itself is part of the work being awaited.
    """
    root = Path(work_dir)
    spec = load_spec(root)
    tasks = root / "tasks"
    counts = [int(n) for n in spec["counts"]]
    seeds = [int(s) for s in spec["seeds"]]
    wd: Optional[_WorkDir] = None
    points = []
    n_complete = 0
    for index, (n_users, seed) in enumerate(zip(counts, seeds)):
        plan_done = (tasks / f"plan-{index}.done").exists()
        stitch_done = (tasks / f"stitch-{index}.done").exists()
        units_done = (len(list(tasks.glob(f"unit-{index}-*.done")))
                      if tasks.is_dir() else 0)
        units_total: Optional[int] = None
        if plan_done:
            # The plan marker lives in tasks/ and the plan shard under
            # shards/, so both directories already exist — opening the
            # store here cannot create anything.
            if wd is None:
                wd = _WorkDir(root, spec)
            got = wd.open_store(index).get(_PLAN_KEY)
            if got is not None:
                units_total = len(PointPlan.from_state(got[1]).units)
        if stitch_done:
            state = "complete"
            n_complete += 1
        elif plan_done or units_done:
            state = "running"
        else:
            state = "pending"
        points.append({
            "point": index,
            "n_users": n_users,
            "seed": seed,
            "state": state,
            "plan_done": plan_done,
            "units_done": units_done,
            "units_total": units_total,
            "stitch_done": stitch_done,
        })
    if n_complete == len(points):
        state = "complete"
    elif all(p["state"] == "pending" for p in points):
        state = "pending"
    else:
        state = "running"
    return {
        "state": state,
        "fingerprint": spec["fingerprint"],
        "points_total": len(points),
        "points_complete": n_complete,
        "points": points,
    }


def merge_work_dir(work_dir) -> StreamSweepResult:
    """Assemble the completed sweep, points in spec order.

    Pure read: any worker (or a later process) merges the same bytes.
    An incomplete sweep — including a spec-only directory where no
    task ever ran — raises :class:`WorkDirIncomplete` carrying the
    progress snapshot, without disturbing the directory.
    """
    spec = load_spec(work_dir)
    progress = work_dir_progress(work_dir)
    if progress["state"] != "complete":
        raise WorkDirIncomplete(
            f"work dir {Path(work_dir)} is {progress['state']}: "
            f"{progress['points_complete']}/{progress['points_total']} "
            f"points stitched", progress)
    wd = _WorkDir(work_dir, spec)
    points = []
    for point in range(wd.n_points):
        got = wd.open_store(point).get(_POINT_KEY)
        if got is None:
            # Done marker present but the stitched shard is unreadable
            # (damaged or torn mid-publish): the stitch must re-run.
            raise WorkDirIncomplete(
                f"work dir {wd.root} is incomplete: point {point} "
                f"(n_users={wd.counts[point]}) has no stitched result",
                progress)
        points.append(StreamPoint(**got[1]["point"]))
    return StreamSweepResult(config=wd.config, points=tuple(points))


def _collected_worker(work_dir, **options) -> SimRunStats:
    """One local pool worker: run the work dir, return its counters."""
    with collecting() as stats:
        execute_work_dir(work_dir, **options)
    return stats.snapshot()


def run_distributed_sweep(pool: np.ndarray,
                          user_counts: Sequence[int],
                          config: Optional[CapacityConfig] = None, *,
                          seed: Optional[int] = None,
                          work_dir=None,
                          worker_id: Optional[str] = None,
                          worker_index: int = 0,
                          processes: int = 1,
                          block_arrivals: int = DEFAULT_BLOCK_ARRIVALS,
                          unit_blocks: int = DEFAULT_UNIT_BLOCKS,
                          poll: float = 0.05,
                          heartbeat_interval: float = 1.0,
                          stale_after: float = 10.0
                          ) -> StreamSweepResult:
    """Join (or initialise) ``work_dir`` with ``processes`` local
    workers, work until the sweep completes everywhere, merge and
    return.

    This process is one worker; ``processes - 1`` more run in a process
    pool, and their counters fold into this process's
    :data:`~repro.runtime.observability.KERNEL_STATS`.  Local worker
    ``j`` takes index ``worker_index * processes + j``, so the local
    workers of distinct ``worker_index`` callers all scan in different
    rotations.  Without a ``work_dir`` the sweep runs in a temporary
    directory that is removed after the merge.

    Every participating worker returns the same
    :class:`~repro.stream.sweep.StreamSweepResult` — byte-identical to
    the serial ``run_stream_sweep`` on the same parameters.
    """
    payload = spec_payload(pool, user_counts, config, seed=seed,
                           block_arrivals=block_arrivals,
                           unit_blocks=unit_blocks)
    options = dict(poll=poll, heartbeat_interval=heartbeat_interval,
                   stale_after=stale_after)
    first = worker_index * processes
    with contextlib.ExitStack() as stack:
        if work_dir is None:
            work_dir = stack.enter_context(
                tempfile.TemporaryDirectory(prefix="repro-sweep-"))
        ensure_spec(work_dir, payload)
        futures = []
        if processes > 1:
            from concurrent.futures import ProcessPoolExecutor

            local = stack.enter_context(
                ProcessPoolExecutor(max_workers=processes - 1))
            futures = [local.submit(_collected_worker, work_dir,
                                    worker_index=first + j, **options)
                       for j in range(1, processes)]
        execute_work_dir(work_dir, worker_id=worker_id,
                         worker_index=first, **options)
        for future in futures:
            KERNEL_STATS.add(**vars(future.result()))
        return merge_work_dir(work_dir)
