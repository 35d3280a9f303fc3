"""Coordinator-free work-stealing executor over a shared work directory.

Any number of worker processes — launched independently, on one host or
many, sharing only a filesystem — drive one sweep to completion:

``work_dir/sweep.json``
    The immutable sweep spec (pool values, config, user counts,
    per-point seeds, block/unit sizing) plus its fingerprint.  The
    first worker writes it atomically; every later worker verifies the
    fingerprint and refuses (:class:`WorkDirMismatch`) to join a
    directory built for different parameters or by an older layout.

``work_dir/tasks/``
    One claim file (:mod:`repro.runtime.lease`) and one done marker
    per task.  Tasks per point ``i`` form one chain: ``unit-i-0``
    (the scan plus the first blocks), ``unit-i-1``, ... each ready
    once its predecessor is done, then ``stitch-i`` (the fold of the
    unit shards).  After every task a worker takes the ready task
    whose chain has the most blocks left (ties in a per-worker
    rotation), claims it with an atomic ``O_EXCL`` create, heartbeats
    while running, and *steals* claims whose heartbeat went stale — a
    crashed worker's unit re-executes elsewhere from the last
    published boundary, with no coordinator and no replay.

``work_dir/shards/point-<n>-<seed>/``
    One :class:`~repro.stream.shard.ShardStore` per point holding the
    unit shards (each unit's dropped count, aggregate fragment and end
    boundary) and the stitched point, one self-verifying file each.
    Every read checks the file's digest, fingerprint and key; a damaged
    shard drops the done marker of the task that wrote it, so that
    task re-executes instead of poisoning the merge.  Each worker
    reads every stitched point once per run, so a rerun re-stitches a
    point whose shard was damaged after it finished.

Determinism: every task is a pure function of the spec and of the
boundary its predecessor published, all results land keyed by
point/unit id, and :func:`merge_work_dir` assembles points in spec
order — so the merged report is byte-identical to the serial
:func:`~repro.stream.sweep.run_stream_sweep` no matter how many workers
ran, in what interleaving, or how many died along the way.
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
from typing import Dict, Optional, Sequence, Set, Tuple

import numpy as np

from repro.capacity.simulator import CapacityConfig, CapacitySimulator
from repro.runtime import lease
from repro.runtime.observability import (KERNEL_STATS, SimRunStats,
                                         collecting)
from repro.stream import DEFAULT_BLOCK_ARRIVALS
from repro.stream.shard import (ShardStore, atomic_write,
                                params_fingerprint)
from repro.stream.sweep import (StreamPoint, StreamSweepResult,
                                point_fingerprint)
from repro.sched.stitch import stitch_point
from repro.sched.units import (DEFAULT_UNIT_BLOCKS, Boundary, PointPlan,
                               plan_point)
from repro.sched.worker import run_unit

_SPEC_NAME = "sweep.json"
_POINT_KEY = "point"
#: Work-dir layout: the spec ``version`` and the shard stores' layer
#: tag.  A directory written under another layout is refused: 1 was
#: the plan/speculate/replay layout, 2 indexed shards in a manifest.
_LAYOUT = 3


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
        "version": _LAYOUT,
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
    """The work directory's spec; :class:`WorkDirMismatch` if it is
    missing, unreadable, or not a JSON object with a fingerprint."""
    spec_path = Path(work_dir) / _SPEC_NAME
    try:
        with open(spec_path, "r", encoding="utf-8") as handle:
            spec = json.load(handle)
    except FileNotFoundError:
        raise WorkDirMismatch(
            f"no sweep spec at {spec_path}; initialise the work "
            f"directory with ensure_spec / run_distributed_sweep first")
    except (OSError, ValueError) as exc:
        raise WorkDirMismatch(
            f"cannot read the sweep spec at {spec_path}: {exc}") from None
    if not isinstance(spec, dict) \
            or not isinstance(spec.get("fingerprint"), str):
        raise WorkDirMismatch(
            f"the sweep spec at {spec_path} is not a JSON object "
            f"with a fingerprint")
    return spec


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

    @property
    def n_points(self) -> int:
        return len(self.counts)

    def open_store(self, point: int) -> ShardStore:
        """The point's shard store."""
        n_users = self.counts[point]
        seed = self.seeds[point]
        fingerprint = params_fingerprint({
            "layer": f"sched-v{_LAYOUT}",
            "point": point_fingerprint(self.pool, self.config, n_users,
                                       seed, self.block_arrivals),
            "unit_blocks": self.unit_blocks,
        })
        return ShardStore(self.root / "shards"
                          / f"point-{n_users}-{seed}", fingerprint)

    def plan(self, point: int, boundary: Boundary) -> PointPlan:
        """The point's plan, rebuilt from the session count that any
        published boundary carries."""
        return PointPlan.tile(
            self.counts[point], self.seeds[point],
            int(boundary.source_state["n_sessions"]),
            block_arrivals=self.block_arrivals,
            unit_blocks=self.unit_blocks)

    def done_path(self, task_id: str) -> Path:
        return self.tasks / f"{task_id}.done"

    def claim_path(self, task_id: str) -> Path:
        return self.tasks / f"{task_id}.claim"

    def is_done(self, task_id: str) -> bool:
        return self.done_path(task_id).exists()

    def mark_done(self, task_id: str, payload: dict) -> None:
        atomic_write(self.done_path(task_id),
                     json.dumps(payload, sort_keys=True).encode("utf-8"))

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
                     poll: float = 0.01,
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
    wd.tasks.mkdir(parents=True, exist_ok=True)
    if worker_id is None:
        worker_id = f"w{worker_index}-{os.getpid()}"
    plans: Dict[int, PointPlan] = {}
    #: Unit shards this worker wrote or read back intact.
    shards: Dict[Tuple[int, int], tuple] = {}
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
                    fn(stale)
            except _Retry:
                return False
            elapsed = time.perf_counter() - started
            durations[task_id] = elapsed
            wd.mark_done(task_id, {"owner": worker_id,
                                   "seconds": elapsed})
            return True
        finally:
            lease.release(claim)

    def _unit_shard(point: int, unit_index: int) -> Optional[tuple]:
        """A published unit shard, or ``None`` with its done marker
        cleared, so the unit that wrote it re-executes."""
        got = shards.get((point, unit_index))
        if got is None:
            got = wd.open_store(point).get(_unit_key(unit_index))
            if got is None:
                wd.clear_done(f"unit-{point}-{unit_index}")
                return None
            shards[point, unit_index] = got
        return got

    def _run_unit(point: int, unit_index: int, stolen: bool) -> None:
        if unit_index == 0:
            plan, start = plan_point(
                wd.pool, wd.counts[point], wd.seeds[point],
                config=wd.config, block_arrivals=wd.block_arrivals,
                unit_blocks=wd.unit_blocks)
            plans[point] = plan
        else:
            previous = _unit_shard(point, unit_index - 1)
            if previous is None:
                raise _Retry
            plan, start = plans[point], Boundary.from_shard(*previous)
        unit = plan.units[unit_index]
        if stolen:
            KERNEL_STATS.add(sched_replay_blocks=unit.n_blocks)
        arrays, meta = run_unit(wd.pool, plan, unit, start,
                                config=wd.config)
        wd.open_store(point).put(_unit_key(unit_index), arrays, meta)
        shards[point, unit_index] = (arrays, meta)

    def _run_stitch(point: int) -> None:
        plan = plans[point]
        results = []
        for unit_index in range(len(plan.units)):
            got = _unit_shard(point, unit_index)
            if got is None:
                raise _Retry
            results.append(got)
        point_result = stitch_point(plan, results)
        wd.open_store(point).put(_POINT_KEY, {},
                                 {"point": dataclasses.asdict(point_result)})
        stitched.add(point)

    def _next_task(point: int):
        """``(task_id, body, blocks_left)`` of the point's first undone
        task, or ``None`` when a damaged shard reopened a unit."""
        plan = plans.get(point)
        unit_index = 0
        while (plan is None or unit_index < len(plan.units)) \
                and wd.is_done(f"unit-{point}-{unit_index}"):
            unit_index += 1
        if unit_index and plan is None:
            previous = _unit_shard(point, unit_index - 1)
            if previous is None:
                return None
            plan = plans[point] = wd.plan(point,
                                          Boundary.from_shard(*previous))
        if plan is None:
            # Unit 0 carries the scan: until it runs, the expected
            # session count stands in for the block count.
            return (f"unit-{point}-0",
                    lambda stolen: _run_unit(point, 0, stolen),
                    wd.counts[point] * wd.config.horizon
                    / wd.config.mean_interval / wd.block_arrivals)
        if unit_index == len(plan.units):
            return (f"stitch-{point}",
                    lambda _stolen: _run_stitch(point), 0)
        return (f"unit-{point}-{unit_index}",
                lambda stolen: _run_unit(point, unit_index, stolen),
                sum(u.n_blocks for u in plan.units[unit_index:]))

    def _is_stitched(point: int) -> bool:
        if point in stitched:
            return True
        stitch_id = f"stitch-{point}"
        if not wd.is_done(stitch_id):
            return False
        if wd.open_store(point).get(_POINT_KEY) is None:
            # Done marker without a readable point shard: the merge
            # would fail on every rerun — re-stitch.
            wd.clear_done(stitch_id)
            return False
        stitched.add(point)
        return True

    point_order = _rotated(list(range(wd.n_points)), worker_index)
    while True:
        tasks = [task for task in map(_next_task, [
            point for point in point_order if not _is_stitched(point)])
            if task is not None]
        if not tasks and len(stitched) == wd.n_points:
            return stats
        # The chain with the most blocks left first: the longest chain
        # sets the makespan.  Ties keep this worker's rotation.
        tasks.sort(key=lambda task: -task[2])
        if not any(_try_run(task_id, body) for task_id, body, _ in tasks):
            time.sleep(poll)


def work_dir_progress(work_dir) -> dict:
    """Pure read of a work directory's completion state.

    This never creates, rewrites or removes a file: a freshly
    ``ensure_spec``'d directory with zero completed tasks reports
    ``state: "pending"`` and stays byte-for-byte untouched, and so does
    a finished one with a damaged shard, which is what lets a
    job-status endpoint poll it safely while (or before, or after a
    crash of) the workers.

    Per point, under the unit chain:

    - ``plan_done`` — unit 0 is done, so the point's unit ranges are
      published (unit 0 carries the scan);
    - ``units_done`` — how many units are done;
    - ``units_total`` — the point's unit count, read from unit 0's
      shard, or ``None`` while that shard is missing or unreadable;
    - ``stitch_done`` — the stitched point is published;
    - ``state`` — ``pending`` (no task done), ``running`` (some units
      done) or ``complete`` (stitched).
    """
    root = Path(work_dir)
    spec = load_spec(root)
    wd = _WorkDir(root, spec)
    points = []
    n_complete = 0
    for index, (n_users, seed) in enumerate(zip(wd.counts, wd.seeds)):
        plan_done = wd.is_done(f"unit-{index}-0")
        stitch_done = wd.is_done(f"stitch-{index}")
        units_done = (len(list(wd.tasks.glob(f"unit-{index}-*.done")))
                      if wd.tasks.is_dir() else 0)
        units_total: Optional[int] = None
        if plan_done:
            got = wd.open_store(index).get(_unit_key(0))
            if got is not None:
                units_total = len(wd.plan(
                    index, Boundary.from_shard(*got)).units)
        if stitch_done:
            state = "complete"
            n_complete += 1
        elif units_done:
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

    Pure read: any worker (or a later process) merges the same bytes,
    and a damaged shard leaves the directory as it was.  An incomplete
    sweep — including a spec-only directory where no task ever ran —
    raises :class:`WorkDirIncomplete` carrying the progress snapshot.
    """
    wd = _WorkDir(work_dir, load_spec(work_dir))
    points = []
    for point in range(wd.n_points):
        got = (wd.open_store(point).get(_POINT_KEY)
               if wd.is_done(f"stitch-{point}") else None)
        if got is None:
            progress = work_dir_progress(work_dir)
            if progress["state"] != "complete":
                raise WorkDirIncomplete(
                    f"work dir {wd.root} is {progress['state']}: "
                    f"{progress['points_complete']}/"
                    f"{progress['points_total']} points stitched",
                    progress)
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
                          poll: float = 0.01,
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
