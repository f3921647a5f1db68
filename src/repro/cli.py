"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``solve``
    Run one resilient PCG solve on a built-in problem (or a local
    MatrixMarket file) with an optional injected failure, and print the
    outcome summary.
``experiment``
    Run the paper's Table-2/3 grid for one problem as a campaign
    (:func:`repro.campaign.paper_table_spec`, on a process pool) and
    print the rendered table, with the paper's values beside ours for
    the two paper problems (quick mode by default; ``--full`` for the
    whole constellation).
``campaign``
    Scenario-campaign sweeps (:mod:`repro.campaign`): ``campaign run``
    expands a declarative spec (built-in demo sweep, or a JSON file via
    ``--spec``) and executes it on a process pool (or through a durable
    queue via ``--queue-dir``); ``campaign report`` re-renders the
    Table-2-style overhead comparison from stored results, renders
    per-cell A/B overhead deltas against a second result file via
    ``--baseline``, and can export records to CSV.  The distributed
    path (:mod:`repro.queue`) is the ``submit`` → ``worker`` (×N, any
    host sharing the queue directory) → ``status`` / ``collect``
    subcommand family.
``info``
    List available problems, strategies and preconditioners.

Examples::

    python -m repro solve --problem emilia_923_like --scale tiny \
        --strategy esrp -T 10 --phi 2 --fail 40:0,1
    python -m repro experiment --problem emilia_923_like --quick
    python -m repro campaign run --workers 4 --out campaign.json
    python -m repro campaign report --results campaign.json --csv campaign.csv
    python -m repro campaign report --results new.json --baseline old.json
    python -m repro campaign submit --queue sweep.queue --spec sweep.json
    python -m repro campaign worker --queue sweep.queue
    python -m repro campaign status --queue sweep.queue
    python -m repro campaign collect --queue sweep.queue --out campaign.json
    python -m repro info

Development: the tier-1 test suite is ``python -m pytest -x -q`` from
the repository root (``pytest.ini`` puts ``src`` on the import path).
"""

from __future__ import annotations

import argparse
import sys
import time
from typing import Sequence

import numpy as np

from . import FailureEvent, __version__
from .api import SolveRequest, SolverSession
from .core.strategies import STRATEGY_NAMES, available_strategies
from .events import EventKind
from .exceptions import ConfigurationError, ReproError
from .matrices import available_problems, available_scales, read_matrix_market, suite
from .preconditioners import available_preconditioners


def _parse_failure(spec: str) -> FailureEvent:
    """Parse ``ITERATION:RANK[,RANK...]`` into a failure event."""
    try:
        iteration_part, ranks_part = spec.split(":", 1)
        iteration = int(iteration_part)
        ranks = tuple(int(r) for r in ranks_part.split(",") if r != "")
        return FailureEvent(iteration, ranks)
    except (ValueError, ConfigurationError) as exc:
        raise ConfigurationError(
            f"invalid --fail spec {spec!r} (expected ITER:RANK[,RANK...]): {exc}"
        ) from exc


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Algorithm-based checkpoint-recovery for PCG (ICPP 2020 reproduction)",
    )
    parser.add_argument("--version", action="version", version=f"repro {__version__}")
    commands = parser.add_subparsers(dest="command", required=True)

    solve_cmd = commands.add_parser("solve", help="run one resilient solve")
    solve_cmd.add_argument("--problem", default="emilia_923_like",
                           choices=available_problems())
    solve_cmd.add_argument("--scale", default="small", choices=available_scales())
    solve_cmd.add_argument("--matrix-file", default=None,
                           help="MatrixMarket file (overrides --problem)")
    solve_cmd.add_argument("--nodes", type=int, default=8)
    solve_cmd.add_argument("--strategy", default="esrp",
                           choices=STRATEGY_NAMES)
    solve_cmd.add_argument("-T", "--interval", type=int, default=20,
                           help="checkpoint/storage interval")
    solve_cmd.add_argument("--phi", type=int, default=1,
                           help="redundant copies / tolerated failures")
    solve_cmd.add_argument("--preconditioner", default="block_jacobi",
                           choices=available_preconditioners())
    solve_cmd.add_argument("--rtol", type=float, default=1e-8)
    solve_cmd.add_argument("--fail", action="append", default=[],
                           metavar="ITER:RANKS",
                           help="inject a failure, e.g. 500:0,1,2 (repeatable)")
    solve_cmd.add_argument("--seed", type=int, default=0)
    solve_cmd.add_argument("--events", action="store_true",
                           help="print the full event timeline")

    exp_cmd = commands.add_parser("experiment", help="run a paper table grid")
    exp_cmd.add_argument("--problem", default="emilia_923_like",
                         choices=available_problems())
    exp_cmd.add_argument("--quick", action="store_true", default=True)
    exp_cmd.add_argument("--full", dest="quick", action="store_false",
                         help="full paper constellation (slow)")

    campaign_cmd = commands.add_parser(
        "campaign",
        help="scenario-campaign sweeps (run / report)",
        description="Expand a declarative sweep spec into seeded runs, execute "
        "them on a process pool, and aggregate Table-2-style overhead reports. "
        "See the repro.campaign module docstring for the JSON spec schema.",
    )
    campaign_sub = campaign_cmd.add_subparsers(dest="campaign_command", required=True)

    run_cmd = campaign_sub.add_parser(
        "run", help="expand a campaign spec and execute every run"
    )
    run_cmd.add_argument("--spec", default=None, metavar="FILE",
                         help="JSON campaign spec (default: built-in demo sweep)")
    run_cmd.add_argument("--demo", default="paper", choices=("paper", "faults"),
                         help="built-in sweep used when no --spec is given: "
                         "the paper's Table-2 demo, or the fault-taxonomy "
                         "sweep (SDC + lossy checkpoints vs. pv/lossy_imcr)")
    run_cmd.add_argument("--out", default="campaign_results.json", metavar="FILE",
                         help="where to store the result records (JSON)")
    run_cmd.add_argument("--workers", type=int, default=None,
                         help="process-pool size (0/1 = serial; default: auto)")
    run_cmd.add_argument("--scale", default="tiny", choices=available_scales(),
                         help="matrix scale of the built-in demo sweep")
    run_cmd.add_argument("--repetitions", type=int, default=None,
                         help="override the spec's repetitions per cell")
    from .api.session import DEFAULT_CACHE_DIR

    run_cmd.add_argument("--cache-dir", nargs="?", const=DEFAULT_CACHE_DIR,
                         default=None, metavar="DIR",
                         help="spool reference trajectories to DIR so pool "
                         "workers share one copy per configuration "
                         "(default DIR when given without a value: "
                         f"{DEFAULT_CACHE_DIR})")
    run_cmd.add_argument("--list", action="store_true", dest="list_only",
                         help="print the expanded run list and exit")
    run_cmd.add_argument("--quiet", action="store_true",
                         help="suppress per-run progress lines")
    run_cmd.add_argument("--queue-dir", default=None, metavar="DIR",
                         help="execute through a durable on-disk queue rooted "
                         "at DIR (crash-resumable; external 'campaign worker' "
                         "processes may join) instead of an in-memory pool")

    submit_cmd = campaign_sub.add_parser(
        "submit",
        help="materialise a campaign spec as a durable on-disk task queue",
        description="Expand a campaign spec into claimable tasks under the "
        "queue directory (batched into per-shard segment files). Workers "
        "('repro campaign worker') on any host sharing that directory then "
        "drain it; see the repro.queue module docstring for the layout and "
        "lease protocol.",
    )
    submit_cmd.add_argument("--queue", required=True, metavar="DIR",
                            help="queue directory (must not hold a queue yet)")
    submit_cmd.add_argument("--spec", default=None, metavar="FILE",
                            help="JSON campaign spec (default: built-in demo)")
    submit_cmd.add_argument("--demo", default="paper",
                            choices=("paper", "faults"),
                            help="built-in sweep used when no --spec is given")
    submit_cmd.add_argument("--scale", default="tiny", choices=available_scales(),
                            help="matrix scale of the built-in demo sweep")
    submit_cmd.add_argument("--repetitions", type=int, default=None,
                            help="override the spec's repetitions per cell")
    submit_cmd.add_argument("--max-attempts", type=int, default=None, metavar="N",
                            help="retry policy: dead-letter a task after N "
                            "failed (exception-raising) attempts (default: 3)")
    submit_cmd.add_argument("--retry-backoff", type=float, default=None,
                            metavar="SECONDS",
                            help="base of the jittered exponential backoff a "
                            "failed task sits out before it is claimable "
                            "again (default: 0.05)")
    from .queue.store import DEFAULT_SHARD_SIZE

    submit_cmd.add_argument("--shard-size", type=int,
                            default=DEFAULT_SHARD_SIZE, metavar="N",
                            help="max tasks per task segment "
                            f"(default: {DEFAULT_SHARD_SIZE})")

    worker_cmd = campaign_sub.add_parser(
        "worker",
        help="claim and execute tasks from a submitted queue until drained",
    )
    worker_cmd.add_argument("--queue", required=True, metavar="DIR")
    worker_cmd.add_argument("--id", default=None, metavar="NAME", dest="worker_id",
                            help="worker id (default: host-pid-nonce)")
    worker_cmd.add_argument("--ttl", type=float, default=None, metavar="SECONDS",
                            help="lease time-to-live (default: 60)")
    worker_cmd.add_argument("--max-tasks", type=int, default=None, metavar="N",
                            help="stop after N claimed tasks (time slicing)")
    worker_cmd.add_argument("--wait", action="store_true",
                            help="keep polling until every task is terminal "
                            "(outlive peers whose leases may expire)")
    worker_cmd.add_argument("--cache-dir", nargs="?", const=DEFAULT_CACHE_DIR,
                            default=None, metavar="DIR",
                            help="share reference trajectories on disk "
                            "(same contract as 'campaign run --cache-dir')")
    worker_cmd.add_argument("--quiet", action="store_true",
                            help="suppress per-task progress/ETA lines")

    retry_cmd = campaign_sub.add_parser(
        "retry",
        help="resurrect a queue's dead-lettered tasks after a fix",
        description="Clear every failed/ marker and retry ledger so the "
        "tasks are claimable again with a fresh attempt budget; the full "
        "failure provenance is preserved as audit manifests under "
        "retried-manifests/ first. Run workers again afterwards.",
    )
    retry_cmd.add_argument("--queue", required=True, metavar="DIR")

    migrate_cmd = campaign_sub.add_parser(
        "migrate",
        help="convert a layout-2 queue (one JSON file per task) in place",
        description="One-shot conversion of a queue submitted by an older "
        "build: its per-task JSON files become task segments, keeping every "
        "task id, lease, marker, ledger and spool. Stop every worker first; "
        "re-running is safe and a no-op on an up-to-date queue.",
    )
    migrate_cmd.add_argument("--queue", required=True, metavar="DIR")

    status_cmd = campaign_sub.add_parser(
        "status", help="summarise a queue's task/lease/spool state"
    )
    status_cmd.add_argument("--queue", required=True, metavar="DIR")
    status_cmd.add_argument("--json", action="store_true", dest="as_json",
                            help="machine-readable QueueStatus JSON")

    collect_cmd = campaign_sub.add_parser(
        "collect",
        help="merge a drained queue's spool shards into one result file",
    )
    collect_cmd.add_argument("--queue", required=True, metavar="DIR")
    collect_cmd.add_argument("--out", default="campaign_results.json",
                             metavar="FILE",
                             help="where to store the merged records (JSON)")
    collect_cmd.add_argument("--csv", default=None, metavar="FILE",
                             help="additionally export the records to CSV")
    collect_cmd.add_argument("--allow-partial", action="store_true",
                             help="collect whatever completed even if tasks "
                             "are missing or failed")
    collect_cmd.add_argument("--quiet", action="store_true",
                             help="suppress the rendered summary table")

    report_cmd = campaign_sub.add_parser(
        "report", help="render the overhead comparison from stored results"
    )
    report_cmd.add_argument("--results", required=True, metavar="FILE",
                           help="JSON file written by 'campaign run'")
    report_cmd.add_argument("--baseline", default=None, metavar="FILE",
                           help="second result file: render per-cell A/B "
                           "overhead deltas (results minus baseline) instead "
                           "of the plain summary")
    report_cmd.add_argument("--channels", action="store_true",
                           help="with --baseline: additionally render "
                           "per-channel communication-volume deltas")
    report_cmd.add_argument("--csv", default=None, metavar="FILE",
                           help="additionally export the raw records to CSV")

    serve_cmd = commands.add_parser(
        "serve",
        help="run the pooled HTTP solver service (see repro.serve)",
    )
    serve_cmd.add_argument("--host", default="127.0.0.1")
    serve_cmd.add_argument("--port", type=int, default=8765,
                           help="listen port (0 = ephemeral)")
    serve_cmd.add_argument("--pool-size", type=int, default=None, metavar="N",
                           help="max concurrently cached solver sessions")
    serve_cmd.add_argument("--cache-dir", nargs="?", const=DEFAULT_CACHE_DIR,
                           default=None, metavar="DIR",
                           help="disk trajectory cache for warm session "
                           "restarts (flag alone uses the default cache)")
    serve_cmd.add_argument("--load", action="store_true",
                           help="self-test: start the server, fire a "
                           "concurrent load run against it, print the "
                           "measurements and exit")
    serve_cmd.add_argument("--requests", type=int, default=32, metavar="N",
                           help="with --load: number of requests to fire")
    serve_cmd.add_argument("--clients", type=int, default=4, metavar="N",
                           help="with --load: concurrent client threads")
    serve_cmd.add_argument("--quiet", action="store_true",
                           help="suppress per-request HTTP logging")

    commands.add_parser("info", help="list problems/strategies/preconditioners")
    return parser


def _cmd_solve(args: argparse.Namespace) -> int:
    if args.matrix_file:
        matrix = read_matrix_market(args.matrix_file)
        rng = np.random.default_rng(args.seed)
        b = matrix @ rng.standard_normal(matrix.shape[0])
        label = args.matrix_file
    else:
        matrix, b, meta = suite.load(args.problem, scale=args.scale)
        label = f"{meta.name} (scale={meta.scale}, n={meta.n}, nnz={meta.nnz})"

    failures = [_parse_failure(spec) for spec in args.fail]
    # Declarative request against a one-shot session; the request
    # validates every input eagerly before any setup work happens.
    request = SolveRequest(
        strategy=args.strategy,
        T=args.interval,
        phi=args.phi,
        preconditioner=args.preconditioner,
        rtol=args.rtol,
        failures=failures,
        seed=args.seed,
        n_nodes=args.nodes,
    )
    session = SolverSession(matrix, b, n_nodes=args.nodes, seed=args.seed)
    result = session.solve(request).result
    print(f"problem:            {label}")
    print(f"strategy:           {result.strategy} (T={args.interval}, phi={args.phi})")
    print(f"converged:          {result.converged}")
    print(f"iterations:         {result.iterations} "
          f"(+{result.wasted_iterations} re-executed)")
    print(f"relative residual:  {result.relative_residual:.3e}")
    print(f"modeled runtime:    {result.modeled_time * 1e3:.3f} ms")
    print(f"recovery time:      {result.recovery_time * 1e3:.3f} ms")
    print(f"wall time:          {result.wall_time:.3f} s")
    failures_seen = result.events.of_kind(EventKind.NODE_FAILURE)
    if failures_seen:
        print(f"failures survived:  {len(failures_seen)}")
    if args.events:
        print("\nevent timeline:")
        for event in result.events:
            print(f"  t={event.time * 1e3:9.3f} ms  j={event.iteration:>6d}  "
                  f"{event.kind.value:15s} {event.detail}")
    return 0 if result.converged else 1


def _cmd_experiment(args: argparse.Namespace) -> int:
    from .campaign import execute_campaign, paper_table_spec
    from .harness import PAPER_TABLES, paper_table, render_overhead_table

    spec = paper_table_spec(args.problem, quick=args.quick)
    ((_, scale),) = spec.problems
    print(f"running {args.problem} grid: scale={scale}, "
          f"N={spec.n_nodes} ...", flush=True)
    results = paper_table(execute_campaign(spec), args.problem)
    print(render_overhead_table(
        results,
        phis=spec.phis,
        title=f"Overheads for {args.problem}",
        paper=PAPER_TABLES.get(args.problem),
    ))
    return 0


def _campaign_spec_from_args(args: argparse.Namespace):
    """Shared spec assembly for ``campaign run`` and ``campaign submit``."""
    import dataclasses

    from .campaign import CampaignSpec, demo_spec, faults_spec

    if args.spec:
        spec = CampaignSpec.from_json(args.spec)
    elif getattr(args, "demo", "paper") == "faults":
        spec = faults_spec(scale=args.scale)
    else:
        spec = demo_spec(scale=args.scale)
    if args.repetitions is not None:
        spec = dataclasses.replace(spec, repetitions=args.repetitions)
    return spec


def _worker_progress_printer(worker_id: str):
    """Per-task progress/ETA line for ``repro campaign worker``."""
    def progress(summary, status, record):
        label = record.run_id if record is not None else "(failed/abandoned)"
        rate = summary.seconds_per_task
        if rate and status.remaining:
            # Crude but honest: assume every currently-leased worker
            # (plus this one) sustains this worker's observed rate.
            active = max(1, status.claimed + 1)
            eta = f", eta ~{status.remaining * rate / active:.0f}s"
        else:
            eta = ""
        print(
            f"  [{worker_id}] done {summary.done}"
            + (f" retried {summary.retried}" if summary.retried else "")
            + (f" dead {summary.failed}" if summary.failed else "")
            + (f" abandoned {summary.abandoned}" if summary.abandoned else "")
            + f" | queue: {status.render()}"
            + (f" | {rate:.2f} s/task{eta}" if rate else "")
            + f" | {label}",
            flush=True,
        )
    return progress


def _cmd_campaign_queue(args: argparse.Namespace) -> int:
    """The durable-queue subcommands: submit / retry / migrate / worker /
    status / collect."""
    import json as _json
    import os

    from .queue import QueueStore, collect, default_worker_id, run_worker
    from .queue.store import (
        DEFAULT_MAX_ATTEMPTS,
        DEFAULT_RETRY_BACKOFF,
        DEFAULT_TTL,
    )

    if args.campaign_command == "submit":
        spec = _campaign_spec_from_args(args)
        max_attempts = (
            args.max_attempts if args.max_attempts is not None
            else DEFAULT_MAX_ATTEMPTS
        )
        retry_backoff = (
            args.retry_backoff if args.retry_backoff is not None
            else DEFAULT_RETRY_BACKOFF
        )
        store = QueueStore.submit(
            spec, args.queue,
            max_attempts=max_attempts, retry_backoff=retry_backoff,
            shard_size=args.shard_size,
        )
        print(f"campaign {spec.name!r}: {store.n_tasks} tasks submitted "
              f"to {store.queue_dir} in {len(store.shards())} shard(s) "
              f"(max {max_attempts} attempt(s)/task)")
        print("next: repro campaign worker --queue "
              f"{store.queue_dir}  (repeat per core / host)")
        return 0

    if args.campaign_command == "retry":
        store = QueueStore(args.queue)
        resurrected = store.retry_dead_letters()
        if not resurrected:
            print(f"queue {args.queue}: no dead-lettered tasks to retry")
            return 0
        for outcome in resurrected:
            print(f"requeued {outcome.run_id} "
                  f"(had {outcome.attempts} failed attempt(s))")
        print(f"resurrected {len(resurrected)} task(s); provenance kept in "
              f"{store.manifests_dir()}")
        print(f"next: repro campaign worker --queue {store.queue_dir}")
        return 0

    if args.campaign_command == "migrate":
        converted = QueueStore.migrate(args.queue)
        print(f"queue {args.queue}: " + (
            f"migrated {converted} task(s) to task segments" if converted
            else "already up to date"
        ))
        return 0

    if args.campaign_command == "worker":
        worker_id = args.worker_id or default_worker_id()
        ttl = args.ttl if args.ttl is not None else DEFAULT_TTL
        progress = None if args.quiet else _worker_progress_printer(worker_id)
        cache_dir = os.path.expanduser(args.cache_dir) if args.cache_dir else None
        print(f"worker {worker_id} draining {args.queue} (ttl={ttl:g}s) ...",
              flush=True)
        summary = run_worker(
            args.queue,
            worker_id=worker_id,
            ttl=ttl,
            max_tasks=args.max_tasks,
            wait=args.wait,
            cache_dir=cache_dir,
            progress=progress,
        )
        print(f"worker {worker_id}: {summary.done} done, "
              f"{summary.retried} retried, {summary.failed} dead-lettered, "
              f"{summary.abandoned} abandoned "
              f"({summary.busy_seconds:.1f}s busy)")
        return 0 if summary.failed == 0 else 1

    if args.campaign_command == "status":
        status = QueueStore(args.queue).status(with_workers=True)
        if args.as_json:
            print(_json.dumps(status.to_dict(), indent=2, sort_keys=True))
        else:
            print(f"queue {args.queue}: {status.render()}")
            for worker_id, count in sorted(status.workers.items()):
                print(f"  {worker_id}: {count} done")
        return 0 if status.failed == 0 else 1

    # campaign collect
    store = QueueStore(args.queue)
    result = collect(args.queue, allow_partial=args.allow_partial)
    if not args.quiet:
        print(result.render_summary())
        print()
    if args.allow_partial:
        # Surface what the partial collect skipped: dead-lettered
        # tasks (with their provenance) are silent data loss otherwise.
        for outcome in store.failed_outcomes():
            last = (outcome.error or "").strip().splitlines()
            print(f"DEAD-LETTERED after {outcome.attempts} attempt(s): "
                  f"{outcome.run_id}" + (f" ({last[-1]})" if last else ""))
    path = result.to_json(args.out)
    print(f"wrote {len(result)} records to {path}")
    if args.csv:
        csv_path = result.to_csv(args.csv)
        print(f"wrote {len(result)} records to {csv_path}")
    return 0 if all(record.converged for record in result) else 1


def _cmd_campaign(args: argparse.Namespace) -> int:
    from .campaign import CampaignResult, execute_campaign
    from .campaign.executor import default_workers
    from .campaign.spec import expand_spec

    if args.campaign_command in (
        "submit", "worker", "retry", "migrate", "status", "collect"
    ):
        return _cmd_campaign_queue(args)

    if args.campaign_command == "report":
        result = CampaignResult.from_json(args.results)
        if args.baseline:
            baseline = CampaignResult.from_json(args.baseline)
            print(result.render_comparison(baseline))
            if args.channels:
                print()
                print(result.render_communication_comparison(baseline))
        else:
            print(result.render_summary())
        if args.csv:
            path = result.to_csv(args.csv)
            print(f"\nwrote {len(result)} records to {path}")
        return 0

    # campaign run
    spec = _campaign_spec_from_args(args)
    runs = expand_spec(spec)
    if not runs:
        raise ConfigurationError(
            f"campaign {spec.name!r} expands to zero runs "
            "(a reference-only strategy list prunes every failure scenario)"
        )
    if args.list_only:
        for run in runs:
            print(run.run_id)
        print(f"\n{len(runs)} runs")
        return 0
    workers = args.workers if args.workers is not None else default_workers(len(runs))
    where = "a serial loop" if workers <= 1 else f"{workers} pool workers"
    if args.queue_dir:
        where = f"{workers} queue worker(s) via {args.queue_dir}"
    print(f"campaign {spec.name!r}: {len(runs)} runs on {where} ...", flush=True)
    progress = None
    if not args.quiet and not args.queue_dir:
        def progress(done, total, record):  # noqa: E306
            status = "ok " if record.converged else "FAIL"
            print(f"  [{done:>3d}/{total}] {status} {record.run_id} "
                  f"(+{100 * record.total_overhead:.1f}%)", flush=True)
    import os

    cache_dir = os.path.expanduser(args.cache_dir) if args.cache_dir else None
    result = execute_campaign(
        spec, workers=workers, progress=progress, cache_dir=cache_dir,
        queue_dir=args.queue_dir,
    )
    print()
    print(result.render_summary())
    path = result.to_json(args.out)
    print(f"\nwrote {len(result)} records to {path}")
    return 0 if all(record.converged for record in result) else 1


def _cmd_info(_args: argparse.Namespace) -> int:
    from .kernels import available_backends

    print(f"repro {__version__} — ICPP 2020 ESRP reproduction")
    print(f"problems:         {', '.join(available_problems())}")
    print(f"scales:           {', '.join(available_scales())}")
    print(f"strategies:       {', '.join(available_strategies())}")
    print(f"preconditioners:  {', '.join(available_preconditioners())}")
    print(f"kernel backends:  {', '.join(available_backends())}")
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    from .serve import ServeRequest, SolverServer, run_load
    from .serve.service import BATCH_SIZE, DEFAULT_POOL_SIZE

    server = SolverServer(
        host=args.host,
        port=args.port,
        pool_size=args.pool_size or DEFAULT_POOL_SIZE,
        cache_dir=args.cache_dir,
        verbose=not args.quiet,
    )
    server.start()
    host, port = server.address
    pool = server.service.pool
    print(f"repro serve listening on http://{host}:{port} "
          f"(pool={pool.capacity}, batch={BATCH_SIZE})",
          flush=True)
    if args.load:
        # Self-test: a config-skewed load run against our own endpoint.
        payloads = [
            ServeRequest(
                request=SolveRequest(
                    strategy="esrp" if i % 2 else "esr",
                    T=10,
                    preconditioner="jacobi" if i % 4 else "block_jacobi",
                ),
            ).to_dict()
            for i in range(args.requests)
        ]
        report = run_load(server.url, payloads, clients=args.clients)
        server.stop()
        print(f"requests:      {report.ok} ok / {report.errors} failed "
              f"({report.clients} clients)")
        print(f"throughput:    {report.requests_per_second:.1f} req/s")
        print(f"latency:       p50={report.p50_latency * 1e3:.1f} ms  "
              f"p99={report.p99_latency * 1e3:.1f} ms")
        print(f"pool hit rate: {report.pool.get('hit_rate', 0.0):.0%}")
        print(f"digests:       "
              f"{'consistent' if report.digests_consistent else 'INCONSISTENT'}")
        return 0 if report.errors == 0 and report.digests_consistent else 1
    try:
        while True:
            time.sleep(3600)
    except KeyboardInterrupt:
        print("draining ...", flush=True)
        server.stop()
    return 0


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "solve":
            return _cmd_solve(args)
        if args.command == "experiment":
            return _cmd_experiment(args)
        if args.command == "campaign":
            return _cmd_campaign(args)
        if args.command == "serve":
            return _cmd_serve(args)
        if args.command == "info":
            return _cmd_info(args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0  # pragma: no cover - argparse enforces the choices


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
