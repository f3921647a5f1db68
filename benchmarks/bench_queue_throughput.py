"""Queue benchmark: scaling, affine claiming, compaction, sharded layout.

Four cell families, all recorded into ``BENCH_queue.json``:

* **scaling** — tasks/sec from 1 to 8 ``repro campaign worker``
  subprocesses draining one reference sweep (tiny Emilia-like
  campaign).  Every configuration's collected result must be
  byte-identical to the single-worker one — the determinism contract
  of :mod:`repro.queue` — which doubles as the correctness gate.
* **affinity** — a multi-configuration sweep (2 problems x 2
  preconditioners = 4 configuration groups, no shared trajectory
  cache) drained with configuration-affine vs plain scan-order
  claiming.  Besides tasks/sec, each cell records the **config
  spread**: the total number of (worker, configuration) warm-ups paid.
  Affine claiming's whole point is spread ~= n_configs instead of
  n_configs x workers.
* **compaction** — one worker draining with an aggressive
  ``--compact-every`` cadence; records segment count and collect time,
  and the collect must stay byte-identical to the uncompacted drain.
* **sharded** — the six-figure-sweep task-segment cells: submit time
  and *claim-scan* time (cold chunk selection + a fixed batch of real
  lease claims from a fresh store handle) at two sweep sizes an order
  of magnitude apart (10k and 100k tasks in the full run).  Claim-scan
  cost must be O(shards), i.e. essentially flat in the task count.

The acceptance gate (``--check``) is host-aware:

* scaling: on a multi-core host the 2-worker configuration must reach
  >= 1.15x single-worker throughput.  On a single-core host scaling
  cells are **refused**: ``run`` records the honest per-core raw rates
  but stores ``scaling_vs_1: null`` everywhere, and ``--check`` fails
  if a scaling ratio was stored anyway (a ``cpu_count: 1`` "0.65x"
  measures coordination contention, not the queue) — only the
  raw-rate overhead floor (2-worker >= 0.5x 1-worker) is enforced.
  Every recorded cell carries the recording host's ``cpu_count`` so
  stored numbers can't be misread later.
* affinity: the affine config spread is always bounded by
  ``n_configs + 2 * (workers - 1)`` (near-perfect chunking plus tail
  stealing) and never exceeds the scan-order spread; affine claiming
  must not regress single-worker throughput (>= 0.85x) and must not
  regress the multi-worker sweep on multi-core hosts (>= 0.95x —
  the warm-up saving is the spread cell's deterministic evidence).
* compaction: segments were actually published and the collect is
  byte-identical.
* sharded: claim-scan time at the large size must stay <= 3x the
  small size (sub-linear in tasks; both sizes claim the same fixed
  batch, so O(shards) selection shows up as a ratio near 1).
* smoke mode gates completeness + byte-identity + the spread bound +
  the sharded claim-scan ratio, at reduced sizes (CI sanity run).

Usage::

    python benchmarks/bench_queue_throughput.py            # full sweep
    python benchmarks/bench_queue_throughput.py --check    # + enforce gate
    python benchmarks/bench_queue_throughput.py --smoke    # CI sanity run
    python benchmarks/bench_queue_throughput.py --out other.json
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import subprocess
import sys
import tempfile
import time

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = REPO_ROOT / "src"
sys.path.insert(0, str(SRC))

from repro.campaign import CampaignSpec, ScenarioSpec, StrategySpec, demo_spec  # noqa: E402
from repro.campaign.spec import expand_spec  # noqa: E402
from repro.queue import QueueStore, QueueWorker, collect, task_config  # noqa: E402

DEFAULT_OUT = REPO_ROOT / "BENCH_queue.json"
WORKER_COUNTS = (1, 2, 4, 8)
SMOKE_WORKER_COUNTS = (1, 2)
#: Required 2-worker speedup when the host has >= 2 cores.
SCALING_THRESHOLD = 1.15
#: Allowed 2-worker *slowdown* floor on a single-core host (pure
#: coordination-overhead bound; there is no parallelism to win),
#: computed from the stored raw rates — no scaling cell is recorded.
SINGLE_CORE_FLOOR = 0.5
#: Affine claiming must not regress a single worker below this.
AFFINE_1W_FLOOR = 0.85
#: ...nor the multi-worker multi-config sweep (multi-core hosts).
AFFINE_MULTI_FLOOR = 0.95
#: Sharded-layout gate: claim-scan time at the large sweep size must
#: stay within this factor of the small size (O(shards), not O(tasks)).
CLAIM_SCAN_RATIO_BOUND = 3.0
#: Task counts for the sharded claim-scan cells (full / smoke runs).
SHARDED_SIZES = (10_000, 100_000)
SMOKE_SHARDED_SIZES = (1_000, 5_000)
#: Lease claims per claim-scan measurement (fixed across sizes, so the
#: per-claim constant cost cancels out of the ratio).
CLAIM_SCAN_CLAIMS = 64


def bench_spec(repetitions: int) -> CampaignSpec:
    """The reference sweep: the built-in demo (12 cells) x repetitions."""
    import dataclasses

    return dataclasses.replace(
        demo_spec(scale="tiny"),
        name="queue-throughput",
        repetitions=repetitions,
    )


def affinity_spec(repetitions: int, scale: str = "small") -> CampaignSpec:
    """Multi-configuration sweep: 2 problems x 2 preconditioners.

    Four configuration groups whose per-worker warm-up (session setup
    + reference trajectory, deliberately *not* shared through a disk
    cache) is a meaningful fraction of the task work — the regime
    affine claiming exists for.
    """
    return CampaignSpec(
        name="queue-affinity",
        problems=(("emilia_923_like", scale), ("poisson3d", scale)),
        n_nodes=8,
        preconditioners=("block_jacobi", "jacobi"),
        strategies=(StrategySpec("esr"),),
        phis=(1,),
        scenarios=(
            ScenarioSpec.make("failure_free"),
            ScenarioSpec.make("worst_case", location="start"),
        ),
        repetitions=repetitions,
    )


def _spawn_worker(
    queue_dir: pathlib.Path,
    index: int,
    cache_dir: pathlib.Path | None,
    affine: bool = True,
    compact_every: int | None = None,
) -> subprocess.Popen:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    argv = [
        sys.executable, "-m", "repro", "campaign", "worker",
        "--queue", str(queue_dir), "--id", f"bench-w{index}", "--quiet",
    ]
    if cache_dir is not None:
        argv += ["--cache-dir", str(cache_dir)]
    if not affine:
        argv += ["--no-affine"]
    if compact_every is not None:
        argv += ["--compact-every", str(compact_every)]
    return subprocess.Popen(
        argv,
        env=env,
        stdout=subprocess.DEVNULL,
        stderr=subprocess.PIPE,
    )


def _drain(
    spec: CampaignSpec,
    workers: int,
    queue_dir: pathlib.Path,
    cache_dir: pathlib.Path | None,
    affine: bool = True,
    compact_every: int | None = None,
) -> tuple[QueueStore, float]:
    store = QueueStore.submit(spec, queue_dir)
    started = time.perf_counter()
    procs = [
        _spawn_worker(queue_dir, i, cache_dir, affine, compact_every)
        for i in range(workers)
    ]
    for proc in procs:
        _, stderr = proc.communicate()
        if proc.returncode != 0:
            raise RuntimeError(
                f"worker exited with {proc.returncode}: {stderr.decode()}"
            )
    elapsed = time.perf_counter() - started
    status = store.status()
    if not status.drained or status.failed:
        raise RuntimeError(f"queue not cleanly drained: {status.render()}")
    return store, elapsed


def config_spread(store: QueueStore) -> int:
    """Total (worker, configuration) warm-ups paid during the drain."""
    per_worker: dict[str, set[str]] = {}
    for outcome in store.outcomes():
        if outcome.status == "done":
            per_worker.setdefault(outcome.worker_id, set()).add(
                task_config(outcome.task_id)
            )
    return sum(len(configs) for configs in per_worker.values())


def bench_workers(spec: CampaignSpec, workers: int, scratch: pathlib.Path) -> dict:
    queue_dir = scratch / f"queue-{workers}w"
    # Workers share reference trajectories through a disk cache (the
    # same contract as `campaign run --cache-dir`), so the sweep
    # measures task throughput, not N redundant reference solves.
    cache_dir = scratch / f"cache-{workers}w"
    store, elapsed = _drain(spec, workers, queue_dir, cache_dir)
    result_path = scratch / f"result-{workers}w.json"
    collect(queue_dir).to_json(result_path)
    return {
        "workers": workers,
        "tasks": store.n_tasks,
        "seconds": elapsed,
        "tasks_per_sec": store.n_tasks / elapsed,
        # Provenance: scaling numbers are meaningless without knowing
        # how many cores the recording host could actually run
        # workers on (a single-core "0.65x" measures contention).
        "cpu_count": os.cpu_count() or 1,
        "result_path": result_path,
    }


def run_scaling(worker_counts, repetitions: int, scratch: pathlib.Path) -> dict:
    spec = bench_spec(repetitions)
    cores = os.cpu_count() or 1
    rows = []
    baseline_bytes = None
    for workers in worker_counts:
        row = bench_workers(spec, workers, scratch)
        payload = row.pop("result_path").read_bytes()
        if baseline_bytes is None:
            baseline_bytes = payload
        row["result_identical"] = payload == baseline_bytes
        base_rate = rows[0]["tasks_per_sec"] if rows else row["tasks_per_sec"]
        # A single-core host has no parallelism to measure: storing a
        # "scaling" ratio there would record pure coordination
        # contention as a queue property, so the cell is withheld
        # (null) and only the honest raw rates are kept.  --check
        # enforces the refusal.
        ratio = row["tasks_per_sec"] / base_rate
        row["scaling_vs_1"] = ratio if cores >= 2 else None
        rows.append(row)
        scaling_note = (
            f"scaling {ratio:.2f}x" if cores >= 2
            else "scaling withheld (single-core host)"
        )
        print(
            f"{row['workers']} worker(s): {row['tasks']} tasks in "
            f"{row['seconds']:6.2f}s  {row['tasks_per_sec']:6.1f} tasks/s  "
            f"{scaling_note}  "
            f"{'OK' if row['result_identical'] else 'RESULT MISMATCH'}",
            flush=True,
        )
    two = next((r for r in rows if r["workers"] == 2), None)
    return {
        "sweep": f"{spec.name} ({rows[0]['tasks']} tiny-problem tasks)",
        "results": rows,
        "headline": {
            "workers": 2,
            "scaling": (two or {}).get("scaling_vs_1"),
            "scaling_withheld": cores < 2,
            "threshold": SCALING_THRESHOLD if cores >= 2 else SINGLE_CORE_FLOOR,
            "multi_core": cores >= 2,
            "all_results_identical": all(r["result_identical"] for r in rows),
        },
    }


def run_affinity(repetitions: int, scratch: pathlib.Path, smoke: bool) -> dict:
    spec = affinity_spec(repetitions, scale="tiny" if smoke else "small")
    n_configs = len({run.config_key for run in expand_spec(spec)})
    cells = []
    baseline_bytes = None
    trials = 1 if smoke else 2
    for affine in (True, False):
        for workers in (1, 2):
            label = f"{'affine' if affine else 'scan'}-{workers}w"
            # Best-of-N: the cells are short (seconds) and subprocess
            # scheduling noise on a loaded host easily exceeds the
            # effect being measured; the minimum drain time is the
            # honest cost of each claiming mode.
            elapsed = float("inf")
            identical = True
            store = spread = None
            for trial in range(trials):
                queue_dir = scratch / f"affinity-{label}-t{trial}"
                trial_store, trial_elapsed = _drain(
                    spec, workers, queue_dir, cache_dir=None, affine=affine
                )
                payload_path = scratch / f"affinity-{label}-t{trial}.json"
                collect(queue_dir).to_json(payload_path)
                payload = payload_path.read_bytes()
                if baseline_bytes is None:
                    baseline_bytes = payload
                identical = identical and payload == baseline_bytes
                if trial_elapsed < elapsed:
                    elapsed = trial_elapsed
                    store, spread = trial_store, config_spread(trial_store)
            cell = {
                "claiming": "affine" if affine else "scan",
                "workers": workers,
                "tasks": store.n_tasks,
                "n_configs": n_configs,
                "seconds": elapsed,
                "tasks_per_sec": store.n_tasks / elapsed,
                "cpu_count": os.cpu_count() or 1,
                "config_spread": spread,
                "result_identical": identical,
            }
            cells.append(cell)
            print(
                f"affinity {label:10s}: {cell['tasks']} tasks in "
                f"{cell['seconds']:6.2f}s  {cell['tasks_per_sec']:6.1f} tasks/s  "
                f"spread {cell['config_spread']} "
                f"(configs={n_configs}, workers={workers})  "
                f"{'OK' if cell['result_identical'] else 'RESULT MISMATCH'}",
                flush=True,
            )

    def cell(claiming, workers):
        return next(
            c for c in cells
            if c["claiming"] == claiming and c["workers"] == workers
        )

    return {
        "sweep": f"{spec.name} ({cells[0]['tasks']} tasks, "
                 f"{n_configs} configuration groups, no shared cache)",
        "results": cells,
        "headline": {
            "n_configs": n_configs,
            "affine_spread_2w": cell("affine", 2)["config_spread"],
            "scan_spread_2w": cell("scan", 2)["config_spread"],
            "spread_bound_2w": n_configs + 2 * (2 - 1),
            "affine_vs_scan_1w":
                cell("affine", 1)["tasks_per_sec"]
                / cell("scan", 1)["tasks_per_sec"],
            "affine_vs_scan_2w":
                cell("affine", 2)["tasks_per_sec"]
                / cell("scan", 2)["tasks_per_sec"],
            "all_results_identical": all(c["result_identical"] for c in cells),
        },
    }


def run_compaction(repetitions: int, scratch: pathlib.Path, compact_every: int) -> dict:
    spec = bench_spec(repetitions)
    plain_store, plain_elapsed = _drain(
        spec, 1, scratch / "compact-off", cache_dir=scratch / "compact-cache-a"
    )
    plain_path = scratch / "compact-off.json"
    started = time.perf_counter()
    collect(plain_store.queue_dir).to_json(plain_path)
    plain_collect = time.perf_counter() - started

    store, elapsed = _drain(
        spec, 1, scratch / "compact-on", cache_dir=scratch / "compact-cache-b",
        compact_every=compact_every,
    )
    segments = store.segment_paths()
    shard_residual = sum(
        len(p.read_bytes().splitlines())
        for p in (store.queue_dir / "spool").glob("*.jsonl")
    )
    compact_path = scratch / "compact-on.json"
    started = time.perf_counter()
    collect(store.queue_dir).to_json(compact_path)
    compact_collect = time.perf_counter() - started

    identical = plain_path.read_bytes() == compact_path.read_bytes()
    row = {
        "tasks": store.n_tasks,
        "compact_every": compact_every,
        "cpu_count": os.cpu_count() or 1,
        "segments": len(segments),
        "segment_bytes": sum(p.stat().st_size for p in segments),
        "shard_residual_records": shard_residual,
        "drain_seconds_plain": plain_elapsed,
        "drain_seconds_compacting": elapsed,
        "collect_seconds_plain": plain_collect,
        "collect_seconds_compacted": compact_collect,
        "result_identical": identical,
    }
    print(
        f"compaction: {row['tasks']} tasks, cadence {compact_every} -> "
        f"{row['segments']} segment(s), {shard_residual} residual record(s), "
        f"collect {compact_collect:.2f}s vs {plain_collect:.2f}s plain  "
        f"{'OK' if identical else 'RESULT MISMATCH'}",
        flush=True,
    )
    return row


def sharded_spec(n_tasks: int) -> CampaignSpec:
    """A multi-configuration sweep expanded to ~``n_tasks`` runs.

    Built on :func:`affinity_spec` (8 runs per repetition, 4
    configuration groups) so shard selection sees both many shards per
    configuration *and* several configurations.
    """
    import dataclasses

    return dataclasses.replace(
        affinity_spec(max(1, n_tasks // 8), scale="tiny"),
        name="queue-sharded",
    )


def measure_claim_scan(
    queue_dir: pathlib.Path, claims: int, reps: int = 3
) -> tuple[float, int]:
    """Cold claim-scan cost: chunk selection + ``claims`` real claims.

    Each repetition opens a *fresh* store handle (no warmed caches —
    this is the cost a newly spawned worker pays), runs the worker's
    own chunk selection, claims ``claims`` tasks through the ordinary
    lease path (including the task-payload load), then releases every
    lease so the next repetition sees an idle queue.  Best-of-N: the
    minimum is the honest cost, the rest is scheduler noise.
    """
    best = float("inf")
    claimed_count = 0
    for rep in range(reps):
        store = QueueStore(queue_dir)
        worker_id = f"probe{rep}"
        worker = QueueWorker(store, worker_id=worker_id, ttl=600.0)
        claimed: list[str] = []
        started = time.perf_counter()
        while len(claimed) < claims:
            task = worker._next_task()
            if task is None:
                break
            claimed.append(task.task_id)
        elapsed = time.perf_counter() - started
        for task_id in claimed:
            store.release(task_id, worker_id)
        best = min(best, elapsed)
        claimed_count = len(claimed)
    return best, claimed_count


def run_sharded(sizes, scratch: pathlib.Path) -> dict:
    """The submit + claim-scan cells (no drain: metadata only)."""
    rows = []
    for n_tasks in sizes:
        spec = sharded_spec(n_tasks)
        queue_dir = scratch / f"sharded-{n_tasks}"
        started = time.perf_counter()
        store = QueueStore.submit(spec, queue_dir)
        submit_seconds = time.perf_counter() - started
        n_shards = len(store.shards())
        claim_seconds, claimed = measure_claim_scan(
            queue_dir, claims=CLAIM_SCAN_CLAIMS
        )
        row = {
            "tasks": store.n_tasks,
            "shards": n_shards,
            "submit_seconds": submit_seconds,
            "claim_scan_seconds": claim_seconds,
            "claims_measured": claimed,
            "cpu_count": os.cpu_count() or 1,
        }
        rows.append(row)
        print(
            f"sharded: {row['tasks']:>7} tasks, "
            f"{n_shards:>3} shard(s), submit {submit_seconds:6.2f}s, "
            f"claim-scan ({claimed} claims) {claim_seconds * 1e3:7.1f}ms",
            flush=True,
        )
    small, large = rows[0], rows[-1]
    return {
        "sweep": f"queue-sharded (task-segment metadata cells, "
                 f"{CLAIM_SCAN_CLAIMS} claims per measurement)",
        "results": rows,
        "headline": {
            "sizes": [r["tasks"] for r in rows],
            "claim_scan_ratio":
                large["claim_scan_seconds"] / small["claim_scan_seconds"],
            "claim_scan_bound": CLAIM_SCAN_RATIO_BOUND,
            "submit_ratio":
                large["submit_seconds"] / small["submit_seconds"],
            "tasks_ratio": large["tasks"] / small["tasks"],
        },
    }


def run(worker_counts, repetitions: int, smoke: bool) -> dict:
    with tempfile.TemporaryDirectory(prefix="bench-queue-") as scratch_name:
        scratch = pathlib.Path(scratch_name)
        scaling = run_scaling(worker_counts, repetitions, scratch)
        affinity = run_affinity(1 if smoke else 3, scratch, smoke)
        compaction = run_compaction(
            2 if smoke else 4, scratch, compact_every=8
        )
        sharded = run_sharded(
            SMOKE_SHARDED_SIZES if smoke else SHARDED_SIZES, scratch
        )
    cores = os.cpu_count() or 1
    return {
        "benchmark": (
            "durable queue: scaling, affine claiming, compaction, "
            "sharded layout"
        ),
        "metric": "tasks/sec over submit->drain wall-clock (worker subprocesses)",
        "cpu_count": cores,
        "sweep": scaling["sweep"],
        "results": scaling["results"],
        "affinity": affinity,
        "compaction": compaction,
        "sharded": sharded,
        "headline": {
            **scaling["headline"],
            "affine_vs_scan_1w": affinity["headline"]["affine_vs_scan_1w"],
            "affine_vs_scan_2w": affinity["headline"]["affine_vs_scan_2w"],
            "affine_spread_2w": affinity["headline"]["affine_spread_2w"],
            "scan_spread_2w": affinity["headline"]["scan_spread_2w"],
            "claim_scan_ratio": sharded["headline"]["claim_scan_ratio"],
            "all_results_identical": (
                scaling["headline"]["all_results_identical"]
                and affinity["headline"]["all_results_identical"]
                and compaction["result_identical"]
            ),
        },
    }


def check(payload: dict, smoke: bool) -> int:
    headline = payload["headline"]
    affinity = payload["affinity"]["headline"]
    sharded = payload["sharded"]["headline"]
    cores = payload["cpu_count"]
    failures = []
    if not headline["all_results_identical"]:
        failures.append("collected results differ across configurations")
    if affinity["affine_spread_2w"] > affinity["spread_bound_2w"]:
        failures.append(
            f"affine config spread {affinity['affine_spread_2w']} exceeds "
            f"bound {affinity['spread_bound_2w']}"
        )
    if affinity["affine_spread_2w"] > affinity["scan_spread_2w"]:
        failures.append(
            f"affine spread {affinity['affine_spread_2w']} exceeds scan-order "
            f"spread {affinity['scan_spread_2w']}"
        )
    if payload["compaction"]["segments"] < 1:
        failures.append("compaction published no segments")
    # The sharded claim-scan gate holds in smoke too: the cell sizes
    # shrink but the O(shards) claim is size-independent.
    ratio = sharded["claim_scan_ratio"]
    if ratio > sharded["claim_scan_bound"]:
        failures.append(
            f"claim-scan cost scales with tasks, not shards: "
            f"{sharded['tasks_ratio']:.0f}x more tasks made the cold "
            f"claim-scan {ratio:.2f}x slower "
            f"(bound {sharded['claim_scan_bound']}x)"
        )
    if not headline["multi_core"]:
        # A single-core host must not *store* scaling cells at all —
        # a number recorded there measures coordination contention and
        # would be read later as a queue property.  Refuse the payload
        # outright if any slipped through.
        banner = "=" * 72
        print(banner)
        print(
            "NOTE: single-core host — scaling cells are withheld "
            "(stored as null); only the raw-rate overhead floor "
            f"({SINGLE_CORE_FLOOR}x) and the sharded claim-scan gate "
            "are enforced"
        )
        print(banner)
        stored = [
            r["workers"] for r in payload["results"]
            if r.get("scaling_vs_1") is not None
        ]
        if stored or headline["scaling"] is not None:
            failures.append(
                f"refusing scaling cell(s) from a cpu_count:{cores} host "
                f"(workers={stored or [2]}): re-record on a multi-core "
                "machine or store null"
            )
        if not headline.get("scaling_withheld"):
            failures.append(
                "single-core payload does not declare scaling_withheld"
            )
    if not smoke:
        if headline["multi_core"]:
            threshold = headline["threshold"]
            if headline["scaling"] is None or headline["scaling"] < threshold:
                failures.append(
                    f"2-worker scaling {headline['scaling']} < {threshold}x "
                    f"(cpu_count={cores})"
                )
        else:
            # Raw rates are still honest on one core: two workers
            # sharing it must keep at least SINGLE_CORE_FLOOR of the
            # single-worker throughput or coordination is too chatty.
            by_workers = {r["workers"]: r for r in payload["results"]}
            one, two = by_workers.get(1), by_workers.get(2)
            if one and two:
                floor = two["tasks_per_sec"] / one["tasks_per_sec"]
                if floor < SINGLE_CORE_FLOOR:
                    failures.append(
                        f"2-worker overhead floor {floor:.2f}x < "
                        f"{SINGLE_CORE_FLOOR}x (cpu_count={cores})"
                    )
        if affinity["affine_vs_scan_1w"] < AFFINE_1W_FLOOR:
            failures.append(
                f"affine claiming regresses 1-worker throughput: "
                f"{affinity['affine_vs_scan_1w']:.2f}x < {AFFINE_1W_FLOOR}x"
            )
        if cores >= 2 and affinity["affine_vs_scan_2w"] < AFFINE_MULTI_FLOOR:
            failures.append(
                f"affine claiming regresses the 2-worker multi-config sweep: "
                f"{affinity['affine_vs_scan_2w']:.2f}x < {AFFINE_MULTI_FLOOR}x"
            )
    if failures:
        for failure in failures:
            print(f"FAIL: {failure}", file=sys.stderr)
        return 1
    print(
        "check passed: drained, byte-identical, affine spread "
        f"{affinity['affine_spread_2w']}/{affinity['spread_bound_2w']} "
        f"(scan {affinity['scan_spread_2w']}), affine-vs-scan "
        f"{affinity['affine_vs_scan_1w']:.2f}x (1w) / "
        f"{affinity['affine_vs_scan_2w']:.2f}x (2w), "
        f"{payload['compaction']['segments']} segment(s), "
        f"claim-scan {ratio:.2f}x at {sharded['tasks_ratio']:.0f}x tasks "
        f"(bound {sharded['claim_scan_bound']}x, cpu_count={cores})"
    )
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", type=pathlib.Path, default=DEFAULT_OUT,
                        help=f"output JSON path (default: {DEFAULT_OUT.name})")
    parser.add_argument("--repetitions", type=int, default=16,
                        help="repetitions per sweep cell (16 -> 192 tasks)")
    parser.add_argument("--smoke", action="store_true",
                        help="small sweep, 1/2 workers only (CI sanity run)")
    parser.add_argument("--check", action="store_true",
                        help="exit non-zero unless drained + byte-identical + "
                        "affinity/compaction gates hold (see module docstring)")
    args = parser.parse_args(argv)

    counts = SMOKE_WORKER_COUNTS if args.smoke else WORKER_COUNTS
    repetitions = 2 if args.smoke else args.repetitions
    payload = run(counts, repetitions, args.smoke)
    args.out.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"\nwrote {args.out}")

    if args.check:
        return check(payload, args.smoke)
    return 0


if __name__ == "__main__":
    sys.exit(main())
