"""Command-line interface.

Subcommands::

    repro compare --page espn.go.com/sports --reading 20
    repro experiments [fig08 table04 ...] [--parallel N] [--cache]
                      [--report out.json]
    repro ablations [reorganisation timers predictor alpha] [--parallel N]
    repro faults-sweep [ideal suburban ...] [--parallel N] [--report out.json]
    repro ablate [--matrix loo] [--profile cell_edge] [--rank-out rank.csv]
    repro tune [--algorithm halving] [--profile cell_edge]
               [--budget-delay 1.2] [--trace search.jsonl]
    repro profile fig11 [--kind experiment] [--top 25] [--report prof.json]
    repro stream-sweep [--scale 10] [--horizon 28800]
                       [--parallel N] [--work-dir D --worker-id k/K]
    repro trace --out trace.csv
    repro train --trace trace.csv --out model.json
    repro predict --model model.json --trace trace.csv --threshold 9
    repro session --user 35
    repro serve [--port 8323] [--batch-window 0.005] [--job-dir jobs/]

Also reachable as ``python -m repro``.  Each command imports the modules
it runs, so ``--help`` and a sweep worker never load the browser,
prediction or trace stacks.
"""

from __future__ import annotations

import argparse
import os
import signal
import sys
from typing import List, Optional

from repro.faults.profiles import PROFILES
from repro.runtime import parallel as runtime_parallel
from repro.runtime.cache import DEFAULT_CACHE_DIR, ResultCache
from repro.runtime.report import write_report
from repro.runtime.seeding import DEFAULT_ROOT_SEED


def _cmd_compare(args: argparse.Namespace) -> int:
    from repro.core.comparison import compare_engines
    from repro.webpages.corpus import find_page

    page = find_page(args.page)
    comparison = compare_engines(page, reading_time=args.reading)
    original, ours = comparison.original, comparison.energy_aware
    print(f"page: {page.url} ({page.total_kb:.0f} KB, "
          f"{page.object_count} objects)")
    print(f"original:     tx {original.load.data_transmission_time:6.1f}s  "
          f"load {original.load.load_complete_time:6.1f}s  "
          f"energy {original.total_energy:6.1f}J")
    print(f"energy-aware: tx {ours.load.data_transmission_time:6.1f}s  "
          f"load {ours.load.load_complete_time:6.1f}s  "
          f"energy {ours.total_energy:6.1f}J")
    print(f"savings: tx {comparison.tx_time_saving:.1%}, "
          f"load {comparison.loading_time_saving:.1%}, "
          f"energy {comparison.energy_saving:.1%}")
    return 0


def _run_suite(kind: str, ids: List[str],
               args: argparse.Namespace) -> int:
    cache = None
    if getattr(args, "cache", False) or getattr(args, "cache_dir", None):
        cache = ResultCache(args.cache_dir or DEFAULT_CACHE_DIR)
    try:
        suite = runtime_parallel.run_tasks(
            kind, ids or None, processes=args.parallel, cache=cache,
            root_seed=args.seed)
    except (KeyError, ValueError) as exc:
        print(exc.args[0], file=sys.stderr)
        return 2
    print(suite.render())
    print(suite.render_summary())
    if getattr(args, "report", None):
        write_report(suite.to_dict(), args.report)
        print(f"report -> {args.report}")
    return 0


def _cmd_experiments(args: argparse.Namespace) -> int:
    return _run_suite(runtime_parallel.KIND_EXPERIMENT, args.ids, args)


def _cmd_ablations(args: argparse.Namespace) -> int:
    return _run_suite(runtime_parallel.KIND_ABLATION, args.names, args)


def _cmd_faults_sweep(args: argparse.Namespace) -> int:
    return _run_suite(runtime_parallel.KIND_FAULTS, args.profiles, args)


def _ablation_scenario(args: argparse.Namespace):
    """Build the evaluation :class:`~repro.ablation.Scenario` from the
    shared ``ablate``/``tune`` options."""
    from repro.ablation import PopulationSpec, Scenario

    population = None
    if args.population:
        population = PopulationSpec(n_users=args.population,
                                    n_channels=args.channels)
    kwargs = {"profile": args.profile, "seed": args.seed,
              "population": population}
    if args.pages:
        kwargs["pages"] = tuple(args.pages)
    if args.readings:
        kwargs["reading_times"] = tuple(args.readings)
    return Scenario(**kwargs)


def _cmd_ablate(args: argparse.Namespace) -> int:
    """Run a declarative ablation matrix and rank component importance."""
    from repro.ablation import rank_components, run_matrix, write_ranking

    cache = None
    if args.cache or args.cache_dir:
        cache = ResultCache(args.cache_dir or DEFAULT_CACHE_DIR)
    try:
        scenario = _ablation_scenario(args)
        result = run_matrix(args.matrix, scenario,
                            components=args.components or None,
                            fraction=args.fraction,
                            processes=args.parallel, cache=cache)
    except (KeyError, ValueError) as exc:
        print(exc.args[0], file=sys.stderr)
        return 2
    print(result.report())
    ranking = None
    if args.matrix != "baseline":
        try:
            ranking = rank_components(result, metric=args.metric)
        except (KeyError, ValueError) as exc:
            print(exc.args[0], file=sys.stderr)
            return 2
        print(ranking.report())
    print(result.render_summary())
    if args.report:
        write_report(result.to_dict(), args.report)
        print(f"report -> {args.report}")
    if args.rank_out:
        if ranking is None:
            print("--rank-out needs a matrix with a baseline cell "
                  "(loo/ofat/pairs/factorial)", file=sys.stderr)
            return 2
        write_ranking(ranking, args.rank_out)
        print(f"ranking -> {args.rank_out}")
    return 0


def _cmd_tune(args: argparse.Namespace) -> int:
    """Constrained search over T1/T2 and α/Tp per channel profile."""
    from pathlib import Path

    from repro.ablation import ALGORITHMS, Constraint

    search = ALGORITHMS[args.algorithm]
    if args.objective == "drop_probability" and not args.population:
        print("--objective drop_probability needs --population N (the "
              "metric is an M/G/N capacity run over the variant's own "
              "channel-hold times)", file=sys.stderr)
        return 2
    constraints = []
    if args.budget_delay is not None:
        constraints.append(Constraint("delay", args.budget_delay))
    if args.budget_drop is not None:
        if not args.population:
            print("--budget-drop needs --population N", file=sys.stderr)
            return 2
        constraints.append(Constraint("drop_probability",
                                      args.budget_drop))
    cache = None
    if args.cache or args.cache_dir:
        cache = ResultCache(args.cache_dir or DEFAULT_CACHE_DIR)
    kwargs = {
        "constraints": tuple(constraints),
        "objective": args.objective,
        "processes": args.parallel,
        "cache": cache,
    }
    if args.algorithm == "grid":
        kwargs["points"] = args.points
    else:
        kwargs["n_trials"] = args.trials
        kwargs["seed"] = args.seed
    if args.algorithm == "halving":
        kwargs["eta"] = args.eta
    try:
        scenario = _ablation_scenario(args)
        result = search(scenario, **kwargs)
    except (KeyError, ValueError) as exc:
        print(exc.args[0], file=sys.stderr)
        return 2
    if args.trace:
        trace = Path(args.trace)
        trace.parent.mkdir(parents=True, exist_ok=True)
        trace.write_text(result.trace(), encoding="utf-8")
    print(result.report())
    print(result.render_summary())
    if args.report:
        write_report(result.to_dict(), args.report)
        print(f"report -> {args.report}")
    return 0


def _cmd_profile(args: argparse.Namespace) -> int:
    from repro.runtime.profiling import profile_task, render_profile

    try:
        payload = profile_task(args.kind, args.task, seed=args.seed,
                               top_n=args.top, sort=args.sort)
    except KeyError as exc:
        print(exc.args[0], file=sys.stderr)
        return 2
    print(render_profile(payload))
    if args.report:
        write_report(payload, args.report)
        print(f"report -> {args.report}")
    return 0


def _cmd_stream_sweep(args: argparse.Namespace) -> int:
    """Run a fig11-shaped capacity sweep in streamed blocks.

    The report is mode-free (byte-identical between serial and
    ``repro.sched`` runs); the runtime counters lines below it are
    where the execution mode shows.

    Without ``--work-dir`` the sweep runs serially and keeps nothing on
    disk.  ``--work-dir`` and ``--parallel N`` both run the
    coordinator-free ``repro.sched`` executor, the one resumable sweep:
    rerun the same command on the same work dir and it resumes where a
    killed run stopped.  ``--parallel N`` runs N local workers on
    ``--work-dir`` (or, without it, on a temporary work dir).  Launch
    the same command with the same work directory from any number of
    processes (or hosts sharing the filesystem), giving each a distinct
    ``--worker-id k/K``; every worker finishes with the identical
    report.
    """
    from repro.capacity.simulator import CapacityConfig
    from repro.runtime.observability import collecting
    from repro.stream import DEFAULT_BLOCK_ARRIVALS
    from repro.stream.sweep import (default_user_counts, lognormal_pool,
                                    run_stream_sweep)

    block = DEFAULT_BLOCK_ARRIVALS if args.block is None else args.block
    bad = [name for name, value, floor in (
        ("--scale", args.scale, 1),
        ("--horizon", args.horizon, 1e-9),
        ("--block", block, 1),
        ("--parallel", args.parallel, 1),
        ("--unit-blocks", args.unit_blocks, 1),
        ("--stale-after", args.stale_after, 1e-9),
        *((f"--users {n}", n, 1) for n in args.users or ()),
    ) if value < floor]
    if bad:
        print(f"stream-sweep arguments must be positive: "
              f"{', '.join(bad)}", file=sys.stderr)
        return 2
    sched = args.work_dir is not None or args.parallel > 1
    worker_index, n_workers = 0, 1
    if sched:
        try:
            worker_index, n_workers = map(int,
                                          args.worker_id.split("/"))
        except ValueError:
            worker_index, n_workers = -1, 0
        if not 0 <= worker_index < n_workers:
            print(f"--worker-id must look like k/K with 0 <= k < K, "
                  f"got {args.worker_id!r}", file=sys.stderr)
            return 2
    pool = lognormal_pool(seed=args.pool_seed)
    config = CapacityConfig(n_channels=200 * args.scale,
                            horizon=args.horizon, seed=args.seed)
    counts = args.users or default_user_counts(
        config, float(pool.mean()))
    with collecting() as stats:
        if sched:
            from repro.sched import WorkDirMismatch, run_distributed_sweep
            try:
                result = run_distributed_sweep(
                    pool, counts, config, seed=args.seed,
                    work_dir=args.work_dir,
                    worker_id=f"w{worker_index}of{n_workers}-"
                              f"{os.getpid()}",
                    worker_index=worker_index, processes=args.parallel,
                    block_arrivals=block, unit_blocks=args.unit_blocks,
                    stale_after=args.stale_after)
            except WorkDirMismatch as exc:
                # A work dir built for other parameters is bad input;
                # the message names its spec file.
                print(exc, file=sys.stderr)
                return 2
        else:
            result = run_stream_sweep(pool, counts, config,
                                      seed=args.seed,
                                      block_arrivals=block)
    snap = stats.snapshot()
    print(result.report())
    print(f"-- streamed runtime: {snap.stream_blocks} blocks, "
          f"{snap.stream_spills} spills, "
          f"{snap.stream_shard_bytes} shard bytes, "
          f"peak carried state {snap.stream_peak_carried_bytes} B --")
    if sched:
        print(f"-- sched: {snap.sched_units} units, "
              f"{snap.sched_replay_blocks} replayed blocks, "
              f"{snap.sched_steals} steals --")
    if args.report:
        payload = result.to_dict()
        payload["kernel"] = snap.to_dict()
        if args.report.lower().endswith(".csv"):
            # The suite CSV schema is task-shaped; a sweep exports one
            # row per point instead.
            import csv

            rows = payload["points"]
            with open(args.report, "w", encoding="utf-8",
                      newline="") as handle:
                writer = csv.DictWriter(handle,
                                        fieldnames=list(rows[0]))
                writer.writeheader()
                writer.writerows(rows)
        else:
            write_report(payload, args.report)
        print(f"report -> {args.report}")
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    from repro.traces.generator import TraceConfig, generate_trace

    config = TraceConfig(n_users=args.users,
                         mean_views_per_user=args.views,
                         seed=args.seed)
    dataset = generate_trace(config).filter_reading_time()
    dataset.save_csv(args.out)
    print(f"wrote {len(dataset)} pageviews from {args.users} users "
          f"to {args.out}")
    return 0


def _cmd_train(args: argparse.Namespace) -> int:
    from repro.prediction.predictor import ReadingTimePredictor
    from repro.traces.records import TraceDataset

    dataset = TraceDataset.load_csv(args.trace)
    threshold = None if args.no_interest_threshold else args.alpha
    predictor = ReadingTimePredictor(interest_threshold=threshold)
    predictor.fit(dataset)
    predictor.save_json(args.out)
    print(f"trained on {len(dataset)} pageviews "
          f"(interest threshold: {threshold}); model -> {args.out}")
    return 0


def _cmd_predict(args: argparse.Namespace) -> int:
    from repro.prediction.predictor import ReadingTimePredictor
    from repro.traces.records import TraceDataset

    predictor = ReadingTimePredictor.load_json(args.model)
    dataset = TraceDataset.load_csv(args.trace)
    if predictor.interest_threshold is not None:
        dataset = dataset.exclude_quick_bounces(
            predictor.interest_threshold)
    accuracy = predictor.accuracy(dataset, args.threshold)
    print(f"threshold accuracy at {args.threshold:.0f}s over "
          f"{len(dataset)} pageviews: {accuracy:.1%}")
    return 0


def _cmd_session(args: argparse.Namespace) -> int:
    """Replay one trace user's longest session with Algorithm 2."""
    from repro.browser.energy_aware import EnergyAwareEngine
    from repro.browser.original import OriginalEngine
    from repro.core.browsing import PageVisit, browse_session
    from repro.core.config import PolicyConfig
    from repro.prediction.policy import PredictivePolicy
    from repro.prediction.predictor import ReadingTimePredictor
    from repro.traces.generator import (TraceConfig, build_catalog,
                                        generate_trace)
    from repro.webpages.generator import generate_page

    trace_config = TraceConfig(seed=args.seed)
    dataset = generate_trace(trace_config).filter_reading_time()
    sessions = [s for s in dataset.sessions() if s.user_id == args.user]
    if not sessions:
        print(f"user {args.user} not found (0..{trace_config.n_users - 1})",
              file=sys.stderr)
        return 2
    session = max(sessions, key=len)
    catalog = {c.name: c for c in build_catalog(trace_config)}
    visits = [PageVisit(generate_page(catalog[r.page_name].spec),
                        r.reading_time)
              for r in session.records]
    print(f"replaying user {args.user}'s longest session "
          f"({len(visits)} pageviews) under three setups...")

    predictor = ReadingTimePredictor(interest_threshold=2.0).fit(dataset)
    policy = PredictivePolicy(predictor, PolicyConfig(mode=args.mode))
    runs = (("original", OriginalEngine, None),
            ("energy-aware", EnergyAwareEngine, None),
            ("energy-aware + Algorithm 2", EnergyAwareEngine, policy))
    baseline = None
    for label, engine_cls, run_policy in runs:
        outcome = browse_session(visits, engine_cls, policy=run_policy)
        if baseline is None:
            baseline = outcome.total_energy
        saving = 1.0 - outcome.total_energy / baseline
        print(f"  {label:28s} {outcome.total_energy:8.1f} J "
              f"({saving:+6.1%})  {outcome.switch_count} switches, "
              f"{outcome.total_loading_time:6.1f} s loading")
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    """Run the what-if service in the foreground until SIGINT/SIGTERM."""
    from repro.serve import JobManager, ServeApp, ServerThread, WhatIfService

    if not 0 <= args.port <= 65535:
        print(f"invalid port {args.port}: must be 0..65535",
              file=sys.stderr)
        return 2
    if args.batch_window < 0:
        print(f"invalid --batch-window {args.batch_window}: "
              "must be >= 0", file=sys.stderr)
        return 2
    if min(args.workers, args.max_jobs, args.max_batch) < 1:
        print("--workers, --max-jobs and --max-batch must be >= 1",
              file=sys.stderr)
        return 2

    service = WhatIfService(batch_window=args.batch_window,
                            max_batch=args.max_batch,
                            load_cache_dir=args.cache_dir)
    jobs = None
    if args.job_dir is not None:
        jobs = JobManager(args.job_dir, max_pending=args.max_jobs,
                          workers=args.workers)
    app = ServeApp(service, jobs)
    if not args.no_warmup:
        print("warming corpus and caches...", flush=True)
        service.warmup()
    try:
        thread = ServerThread(app, host=args.host, port=args.port)
    except OSError as exc:
        print(f"cannot bind {args.host}:{args.port}: {exc}",
              file=sys.stderr)
        return 1
    thread.start()
    host, port = thread.address
    print(f"serving on http://{host}:{port} "
          f"(batch window {args.batch_window * 1000:.1f} ms, "
          f"jobs {'enabled' if jobs else 'disabled'})", flush=True)

    done = []

    def _stop(signum, frame) -> None:
        done.append(signum)

    signal.signal(signal.SIGINT, _stop)
    signal.signal(signal.SIGTERM, _stop)
    try:
        while not done:
            signal.pause()
    finally:
        print("draining in-flight work and shutting down...", flush=True)
        thread.stop()
    return 0


def _add_runtime_options(parser: argparse.ArgumentParser) -> None:
    """Options shared by the suite-running subcommands."""
    parser.add_argument(
        "--parallel", type=int, default=1, metavar="N",
        help="fan tasks out across N worker processes (default: 1)")
    parser.add_argument(
        "--cache", action="store_true",
        help=f"skip tasks already cached under {DEFAULT_CACHE_DIR}/")
    parser.add_argument(
        "--cache-dir", metavar="DIR",
        help="cache directory (implies --cache)")
    parser.add_argument(
        "--seed", type=int, default=DEFAULT_ROOT_SEED,
        help="root seed for per-task seed derivation "
             f"(default: {DEFAULT_ROOT_SEED})")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Energy-aware 3G web browsing (ICDCS 2013) "
                    "reproduction toolkit")
    subparsers = parser.add_subparsers(dest="command", required=True)

    compare = subparsers.add_parser(
        "compare", help="compare both browsers on a benchmark page")
    compare.add_argument("--page", default="espn.go.com/sports",
                         help="Table 3 page name")
    compare.add_argument("--reading", type=float, default=20.0,
                         help="reading period after the load, seconds")
    compare.set_defaults(func=_cmd_compare)

    experiments = subparsers.add_parser(
        "experiments", help="regenerate the paper's tables and figures")
    experiments.add_argument("ids", nargs="*",
                             help="experiment ids (default: all)")
    _add_runtime_options(experiments)
    experiments.add_argument(
        "--report", metavar="PATH",
        help="write a structured run report (.json or .csv)")
    experiments.set_defaults(func=_cmd_experiments)

    ablation = subparsers.add_parser("ablations",
                                     help="run the ablation studies")
    ablation.add_argument("names", nargs="*",
                          help="reorganisation|timers|predictor|alpha|carriers")
    _add_runtime_options(ablation)
    ablation.add_argument(
        "--report", metavar="PATH",
        help="write a structured run report (.json or .csv)")
    ablation.set_defaults(func=_cmd_ablations)

    faults = subparsers.add_parser(
        "faults-sweep",
        help="sweep channel profiles: engine savings under faults")
    faults.add_argument("profiles", nargs="*",
                        help=f"channel profiles (default: all): "
                             f"{' '.join(PROFILES)}")
    _add_runtime_options(faults)
    faults.add_argument(
        "--report", metavar="PATH",
        help="write a structured run report (.json or .csv)")
    faults.set_defaults(func=_cmd_faults_sweep)

    def _add_scenario_options(sub: argparse.ArgumentParser) -> None:
        """Options shared by ``ablate`` and ``tune``."""
        sub.add_argument(
            "--profile", default="ideal", choices=tuple(PROFILES),
            help="channel profile the scenario runs under "
                 "(default: ideal)")
        sub.add_argument(
            "--pages", nargs="*", metavar="PAGE",
            help="Table 3 page names (default: a two-page set)")
        sub.add_argument(
            "--readings", type=float, nargs="*", metavar="SECONDS",
            help="reading-time grid (default: 2 5 9 15 30 60)")
        sub.add_argument(
            "--population", type=int, default=0, metavar="USERS",
            help="add a population-scale drop_probability metric for "
                 "USERS concurrent users (default: off)")
        sub.add_argument(
            "--channels", type=int, default=200,
            help="cell channels for --population (default: 200)")
        sub.add_argument(
            "--parallel", type=int, default=1, metavar="N",
            help="fan runs across N worker processes (default: 1)")
        sub.add_argument(
            "--cache", action="store_true",
            help=f"serve repeated runs from {DEFAULT_CACHE_DIR}/")
        sub.add_argument("--cache-dir", metavar="DIR",
                         help="cache directory (implies --cache)")
        sub.add_argument(
            "--seed", type=int, default=DEFAULT_ROOT_SEED,
            help="scenario/sampling seed (run seeds are spawned off "
                 f"content-addressed run IDs; default: "
                 f"{DEFAULT_ROOT_SEED})")

    ablate = subparsers.add_parser(
        "ablate",
        help="declarative ablation matrix + component importance")
    ablate.add_argument(
        "--matrix", default="loo",
        choices=("baseline", "loo", "ofat", "pairs", "factorial"),
        help="matrix generator (default: loo = leave-one-out)")
    ablate.add_argument(
        "--fraction", type=int, default=None, metavar="Q",
        help="run a deterministic 1/Q fractional factorial instead")
    ablate.add_argument(
        "--components", nargs="*", metavar="NAME",
        help="restrict to these declared components (default: all)")
    ablate.add_argument(
        "--metric", default="energy",
        help="metric the importance ranking folds (default: energy)")
    _add_scenario_options(ablate)
    ablate.add_argument(
        "--report", metavar="PATH",
        help="write the matrix results (.json or .csv)")
    ablate.add_argument(
        "--rank-out", metavar="PATH",
        help="write the importance ranking (.json or .csv)")
    ablate.set_defaults(func=_cmd_ablate)

    tune = subparsers.add_parser(
        "tune",
        help="constrained T1/T2 + α/Tp search per channel profile")
    tune.add_argument(
        "--algorithm", default="halving",
        choices=("grid", "random", "halving"),
        help="search algorithm (default: halving)")
    tune.add_argument(
        "--objective", default="energy",
        help="metric to minimise (default: energy; "
             "drop_probability needs --population N — per-trial "
             "capacity runs batched through the fleet block kernel)")
    tune.add_argument(
        "--budget-delay", type=float, default=None, metavar="SECONDS",
        help="constraint: mean next-click delay must stay <= SECONDS")
    tune.add_argument(
        "--budget-drop", type=float, default=None, metavar="P",
        help="constraint: drop_probability <= P (needs --population)")
    tune.add_argument(
        "--trials", type=int, default=16,
        help="random/halving trial budget (default: 16)")
    tune.add_argument(
        "--eta", type=int, default=2,
        help="halving promotion factor (default: 2)")
    tune.add_argument(
        "--points", type=int, default=3,
        help="grid points per parameter (default: 3)")
    tune.add_argument(
        "--trace", metavar="PATH",
        help="write the JSONL trace of this search to PATH")
    _add_scenario_options(tune)
    tune.add_argument(
        "--report", metavar="PATH",
        help="write the full search result as JSON")
    tune.set_defaults(func=_cmd_tune)

    profile = subparsers.add_parser(
        "profile", help="run one task under cProfile and report hotspots")
    profile.add_argument("task", help="task id (e.g. fig11, alpha, ideal)")
    profile.add_argument(
        "--kind", default=runtime_parallel.KIND_EXPERIMENT,
        choices=(runtime_parallel.KIND_EXPERIMENT,
                 runtime_parallel.KIND_ABLATION,
                 runtime_parallel.KIND_FAULTS,
                 runtime_parallel.KIND_ABLATE),
        help="task registry to look in (default: experiment)")
    profile.add_argument("--top", type=int, default=25,
                         help="hotspot rows to keep (default: 25)")
    profile.add_argument("--sort", default="cumulative",
                         choices=("cumulative", "tottime", "ncalls"),
                         help="pstats sort order (default: cumulative)")
    profile.add_argument("--seed", type=int, default=None,
                         help="root seed for task-seed derivation "
                              f"(default: {DEFAULT_ROOT_SEED})")
    profile.add_argument("--report", metavar="PATH",
                         help="write hotspots + kernel metrics as JSON")
    profile.set_defaults(func=_cmd_profile)

    stream_sweep = subparsers.add_parser(
        "stream-sweep",
        help="capacity sweep in bounded-memory streamed blocks")
    stream_sweep.add_argument(
        "--scale", type=int, default=10,
        help="channel-count multiple of the paper's N=200 (default: 10)")
    stream_sweep.add_argument(
        "--horizon", type=float, default=28800.0,
        help="simulated horizon in seconds (default: 28800 = 8h)")
    stream_sweep.add_argument(
        "--users", type=int, nargs="*", default=None,
        help="explicit user counts (default: bracket the capacity knee)")
    stream_sweep.add_argument(
        "--block", type=int, default=None,
        help="arrivals per streamed block (default: 65536)")
    stream_sweep.add_argument("--seed", type=int, default=7,
                              help="sweep root seed (default: 7)")
    stream_sweep.add_argument(
        "--pool-seed", type=int, default=7,
        help="service-time pool seed (default: 7)")
    stream_sweep.add_argument(
        "--parallel", type=int, default=1, metavar="N",
        help="run N local work-stealing workers on one work dir "
             "(--work-dir, or a temporary one) (default: 1)")
    stream_sweep.add_argument(
        "--work-dir", metavar="DIR", default=None,
        help="shared work directory for the distributed "
             "work-stealing executor: a rerun resumes it, and the "
             "same command run from several processes/hosts splits "
             "the sweep")
    stream_sweep.add_argument(
        "--worker-id", metavar="K/N", default="0/1",
        help="this worker's index and the worker count, e.g. 1/4 "
             "(default: 0/1); only used with --work-dir")
    stream_sweep.add_argument(
        "--unit-blocks", type=int, default=8, metavar="BLOCKS",
        help="checkpoint interval in --work-dir mode: each point's "
             "chain publishes its exact state every BLOCKS blocks, "
             "and a stolen or resumed unit restarts there (default: 8)")
    stream_sweep.add_argument(
        "--stale-after", type=float, default=30.0, metavar="SECONDS",
        help="heartbeat age after which a worker's claim is stolen "
             "in --work-dir mode (default: 30)")
    stream_sweep.add_argument(
        "--report", metavar="PATH",
        help="write points + runtime counters (.json or .csv)")
    stream_sweep.set_defaults(func=_cmd_stream_sweep)

    trace = subparsers.add_parser(
        "trace", help="generate a synthetic browsing trace as CSV")
    trace.add_argument("--out", required=True)
    trace.add_argument("--users", type=int, default=40)
    trace.add_argument("--views", type=int, default=180)
    trace.add_argument("--seed", type=int, default=DEFAULT_ROOT_SEED,
                       help="root seed for trace generation "
                            f"(default: {DEFAULT_ROOT_SEED})")
    trace.set_defaults(func=_cmd_trace)

    train = subparsers.add_parser(
        "train", help="train the reading-time predictor from a trace CSV")
    train.add_argument("--trace", required=True)
    train.add_argument("--out", required=True)
    train.add_argument("--alpha", type=float, default=2.0)
    train.add_argument("--no-interest-threshold", action="store_true")
    train.set_defaults(func=_cmd_train)

    predict = subparsers.add_parser(
        "predict", help="evaluate a trained model's threshold accuracy")
    predict.add_argument("--model", required=True)
    predict.add_argument("--trace", required=True)
    predict.add_argument("--threshold", type=float, default=9.0)
    predict.set_defaults(func=_cmd_predict)

    session = subparsers.add_parser(
        "session", help="replay a trace user's session with Algorithm 2")
    session.add_argument("--user", type=int, default=35)
    session.add_argument("--mode", choices=("power", "delay"),
                         default="power")
    session.add_argument("--seed", type=int, default=DEFAULT_ROOT_SEED,
                         help="root seed for trace generation "
                              f"(default: {DEFAULT_ROOT_SEED})")
    session.set_defaults(func=_cmd_session)

    serve = subparsers.add_parser(
        "serve", help="run the what-if capacity-planning HTTP service")
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=8323,
                       help="listen port; 0 binds an ephemeral port "
                            "(default: 8323)")
    serve.add_argument("--batch-window", type=float, default=0.005,
                       metavar="S",
                       help="micro-batch collection window in seconds; "
                            "0 disables batching (default: 0.005)")
    serve.add_argument("--max-batch", type=int, default=64,
                       help="max predictions per batch (default: 64)")
    serve.add_argument("--job-dir", metavar="DIR",
                       help="enable async /sweep jobs rooted at DIR "
                            "(resumable across restarts)")
    serve.add_argument("--max-jobs", type=int, default=4,
                       help="pending sweep-job queue bound; a full "
                            "queue answers 429 (default: 4)")
    serve.add_argument("--workers", type=int, default=1,
                       help="background sweep worker threads "
                            "(default: 1)")
    serve.add_argument("--cache-dir", metavar="DIR",
                       help="persist page-load results under DIR")
    serve.add_argument("--no-warmup", action="store_true",
                       help="skip corpus warmup (first requests pay it)")
    serve.set_defaults(func=_cmd_serve)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    # Die quietly on SIGPIPE so `repro experiments | head` doesn't
    # traceback: the suite reports are long and made to be piped.
    if hasattr(signal, "SIGPIPE"):
        signal.signal(signal.SIGPIPE, signal.SIG_DFL)
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
