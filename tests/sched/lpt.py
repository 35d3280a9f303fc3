"""Modelled multi-worker makespan of a measured work-dir run.

A one-worker ``execute_work_dir`` run records every task's wall time.
:func:`list_schedule_makespan` replays those durations on ``n``
workers by longest-processing-time list scheduling over the plan ->
units -> stitch dependency graph the executor exposes.  On a machine
with fewer cores than the modelled workers, a real ``n``-process run
would only time-slice the CPUs, so this is the honest form of an
``n``-worker speedup; it is a model, and is labelled so wherever it is
quoted.
"""

from __future__ import annotations

import heapq
from typing import Dict, List, Mapping, Tuple


def task_graph(durations: Mapping[str, float]
               ) -> Dict[str, Tuple[List[str], float]]:
    """(dependencies, duration) per task id, read off the executor's
    task names: ``plan-<p>``, ``unit-<p>-<u>`` and ``stitch-<p>``."""
    units: Dict[str, List[str]] = {}
    for task_id in durations:
        kind, rest = task_id.split("-", 1)
        if kind == "unit":
            units.setdefault(rest.split("-", 1)[0], []).append(task_id)
    graph = {}
    for task_id, seconds in durations.items():
        kind, rest = task_id.split("-", 1)
        if kind == "plan":
            deps: List[str] = []
        elif kind == "unit":
            deps = [f"plan-{rest.split('-', 1)[0]}"]
        else:
            deps = [f"plan-{rest}"] + units.get(rest, [])
        graph[task_id] = (deps, float(seconds))
    return graph


def list_schedule_makespan(durations: Mapping[str, float],
                           n_workers: int) -> float:
    """Makespan of LPT list scheduling of ``durations`` on
    ``n_workers``: the longest released task goes to the earliest free
    worker and starts once its dependencies have finished."""
    graph = task_graph(durations)
    indegree = {task: len(deps) for task, (deps, _) in graph.items()}
    dependents: Dict[str, List[str]] = {task: [] for task in graph}
    for task, (deps, _) in graph.items():
        for dep in deps:
            dependents[dep].append(task)
    release = {task: 0.0 for task in graph if indegree[task] == 0}
    ready = [(-graph[task][1], task) for task in release]
    heapq.heapify(ready)
    workers = [0.0] * n_workers
    finish: Dict[str, float] = {}
    while len(finish) < len(graph):
        if not ready:
            raise RuntimeError("dependency cycle in task graph")
        _, task = heapq.heappop(ready)
        end = max(heapq.heappop(workers), release[task]) + graph[task][1]
        finish[task] = end
        heapq.heappush(workers, end)
        for dependent in dependents[task]:
            indegree[dependent] -= 1
            if indegree[dependent] == 0:
                release[dependent] = max(finish[dep]
                                         for dep in graph[dependent][0])
                heapq.heappush(ready, (-graph[dependent][1], dependent))
    return max(finish.values())
