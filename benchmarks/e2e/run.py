"""Layer-ladder benchmark: four workloads, two clocks, an outside-in trace.

    python benchmarks/e2e/run.py --seed 2020 [--workload W] [--trace] [--smoke] [--out F]

Without ``--workload`` every workload of ``BENCHMARK.json`` runs, each
in its own fresh subprocess (so ``setup_s`` is cold); with ``--trace``
each runs twice — untraced for the end-to-end metrics, traced for the
per-layer ones — and the difference is printed as ``trace_overhead_pct``.

With ``--workload`` the workload runs in this process, prints every
metric by name with its unit and ends with one JSON line: the
end-to-end metrics (``--trace 0``) or the per-layer metrics
(``--trace 1``) that ``BENCHMARK.json`` lists.  The exit code is
non-zero when a correctness check failed.  See README.md for what each
metric means.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib.util
import json
import os
import pathlib
import platform
import shutil
import signal
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"
#: Queue directories, logs and child results live here while a run lasts.
SCRATCH = ROOT / ".bench_scratch"

#: Units of the metrics printed where a workload produces them but left
#: out of ``BENCHMARK.json``, whose metrics every workload must report.
EXTRA_UNITS = {
    "serve_ms_p95": "ms",
    "paper_ff_dev_pp": "pp",
    "core.paper_fail_dev_pp": "pp",
    "queue.drain2_tasks_per_s": "1/s",
}
#: BLAS is held to one thread in this process and in every child, unless
#: the caller says otherwise.  With OpenBLAS's default (one thread per
#: core) the reductions of an n = 85 184 solve are handed to a second
#: thread: measured on the 2-vCPU baseline host that makes a solve 30 %
#: slower (352 vs 270 ms) and bistable, flipping between the two speeds
#: for minutes at a time.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

#: The throughput metrics ``trace_overhead_pct`` is computed for.
THROUGHPUT = ("session_solves_per_s", "campaign_runs_per_s",
              "queue_tasks_per_s", "serve_rps")


def load_contract() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def metric_units(contract: dict) -> dict[str, str]:
    listed = contract["end_to_end"] + contract["per_layer"]
    return EXTRA_UNITS | {entry["name"]: entry["unit"] for entry in listed}


@contextlib.contextmanager
def scratch_dir(name: str):
    """A directory under ``SCRATCH`` for one run; nothing is left behind."""
    path = SCRATCH / f"{name}-{os.getpid()}"
    path.mkdir(parents=True)
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)
        with contextlib.suppress(OSError):  # not empty: another run is using it
            SCRATCH.rmdir()


def filesystem_type(path: pathlib.Path) -> str:
    """Filesystem type holding ``path`` (longest mount-point prefix)."""
    best, kind = "", "unknown"
    try:
        with open("/proc/mounts", encoding="utf-8") as mounts:
            for line in mounts:
                _dev, mount, fstype = line.split()[:3]
                if os.fspath(path).startswith(mount) and len(mount) >= len(best):
                    best, kind = mount, fstype
    except OSError:
        pass
    return kind


def child_env() -> dict:
    env = os.environ.copy()
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    return env


def git_sha() -> str | None:
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def host_stamp() -> dict:
    """Who measured: stamped into every result file."""
    import numpy
    import scipy

    return {
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numba_importable": importlib.util.find_spec("numba") is not None,
        "REPRO_BACKEND": os.environ.get("REPRO_BACKEND"),
        "blas_threads": os.environ.get(BLAS_THREAD_VARS[0]),
        "git_sha": git_sha(),
        "queue_scratch_fs": filesystem_type(ROOT),  # SCRATCH is a plain subdirectory
    }


def print_metrics(result: dict, units: dict) -> None:
    name = result["workload"]
    for metric, value in result["metrics"].items():
        unit = units[metric]
        info = result["info"].get(metric, {})
        notes = []
        if info.get("spread") is not None:
            notes.append(f"spread {info['spread'] * 100:.1f} %")
        if info.get("samples"):
            notes.append(f"n={info.get('requests', info['samples'])}")
        if "raw_median" in info:  # measured raw, reported at reference host speed
            notes.append(f"raw {info['raw_median']:.6g} host x{info['host_factor']:.3f}")
        shown = "unresolved" if value is None else f"{value:.6g}"
        print(f"[{name}] {metric:<38} {shown:>12} {unit:<6} {' '.join(notes)}")
    print(f"[{name}] ops_attempted {result['ops_attempted']} "
          f"ops_failed {result['ops_failed']} "
          f"host_factor {result['info']['host_factor']:.3f} "
          f"passes {'/'.join(map(str, result['info']['passes'].values()))} "
          f"wall {result['info']['run_wall_s']:.1f} s "
          f"sim_digest {result['sim_digest'][:16]} "
          f"sim_digest_serve {result['sim_digest_serve'][:16]}")
    for problem in result["problems"]:
        print(f"[{name}] CHECK FAILED: {problem}")


# ------------------------------------------------------------- one workload


def run_workload(args, contract: dict) -> int:
    """Run ``args.workload`` in this process; the driver's entry."""
    from ladder import Ladder
    from spans import write_chrome_trace
    from workloads import BY_NAME

    bounds = {entry["name"]: entry["bound"] for entry in contract["end_to_end"]}
    with scratch_dir(args.workload) as scratch:
        ladder = Ladder(BY_NAME[args.workload], args.seed, args.seconds,
                        bool(args.trace), args.smoke, bounds, scratch, child_env())
        result = ladder.run()
    result.update(trace=bool(args.trace), smoke=args.smoke, host=host_stamp())
    print_metrics(result, metric_units(contract))
    if args.trace:
        events = ladder.tracer.events(pid=os.getpid(), process_name=args.workload)
        write_chrome_trace(args.trace_out or "trace.json", events)
    if args.out:
        pathlib.Path(args.out).write_text(json.dumps(result, indent=2, sort_keys=True) + "\n")
    # The driver's line must carry a number for every metric, so an
    # unresolved one goes out as the median of its passes (the driver
    # judges spread across runs itself); result files store no value.
    # A run with failed ops has no layer metrics and exits 1.
    values = {
        name: result["info"][name]["median"] if value is None else value
        for name, value in result["metrics"].items()
    }
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["ops_attempted"],
        "failed": result["ops_failed"],
        "metrics": {
            entry["name"]: {"value": values[entry["name"]], "unit": entry["unit"]}
            for entry in contract["per_layer" if args.trace else "end_to_end"]
            if entry["name"] in values
        },
    }))
    return 0 if result["correct"] else 1


# ------------------------------------------------------------ every workload


def run_child(args, workload: str, trace: int, out: pathlib.Path) -> dict | None:
    command = [
        sys.executable, str(HERE / "run.py"), "--workload", workload,
        "--seed", str(args.seed), "--seconds", str(args.seconds),
        "--trace", str(trace), "--out", str(out),
        "--trace-out", str(out.with_suffix(".trace.json")),
    ] + (["--smoke"] if args.smoke else [])
    child = subprocess.Popen(command)
    try:
        child.wait()
    finally:  # a terminated driver stops the workload, which stops its server
        if child.poll() is None:
            child.terminate()
            child.wait()
    return json.loads(out.read_text()) if out.exists() else None


def run_all(args, contract: dict) -> int:
    """Every workload, each in a fresh subprocess; one result file."""
    report = {"seed": args.seed, "seconds": args.seconds, "smoke": args.smoke,
              "host": host_stamp(), "workloads": {}}
    events, ok = [], True
    with scratch_dir("all") as scratch:
        for index, entry in enumerate(contract["workloads"]):
            name = entry["name"]
            row = {"untraced": run_child(args, name, 0, scratch / f"{name}.json")}
            if args.trace:
                row["traced"] = run_child(args, name, 1, scratch / f"{name}.t.json")
            ok &= all(run is not None and run["correct"] for run in row.values())
            trace_file = scratch / f"{name}.t.trace.json"
            if all(row.values()) and trace_file.exists():
                for event in json.loads(trace_file.read_text())["traceEvents"]:
                    events.append({**event, "pid": index})
                row["trace_overhead_pct"] = {
                    metric: (1.0 - row["traced"]["metrics"][metric]
                             / row["untraced"]["metrics"][metric]) * 100.0
                    for metric in THROUGHPUT
                    if None not in (row["traced"]["metrics"][metric],
                                    row["untraced"]["metrics"][metric])
                }
                for metric, pct in row["trace_overhead_pct"].items():
                    print(f"[{name}] trace_overhead_pct[{metric}] {pct:.2f} %")
            report["workloads"][name] = row
    if args.trace:
        from spans import write_chrome_trace

        write_chrome_trace(args.trace_out or "trace.json", events)
    if args.out:
        pathlib.Path(args.out).write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    print("all correctness checks passed" if ok else "CORRECTNESS CHECKS FAILED")
    return 0 if ok else 1


def main(argv=None) -> int:
    if not (SRC / "repro").is_dir():
        print(f"error: {SRC / 'repro'} not found: the benchmark measures the "
              "program in this checkout and has none to measure", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    for name in BLAS_THREAD_VARS:  # before numpy is first imported
        os.environ.setdefault(name, "1")
    # A terminated run must still stop its serve child (finally blocks run).
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    contract = load_contract()
    names = [entry["name"] for entry in contract["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=names, default=None)
    parser.add_argument("--seed", type=int, default=2020)
    parser.add_argument("--seconds", type=float, default=contract["run_seconds"],
                        help="timed passes repeat until this budget is used "
                             "(and every rung has its minimum number of passes)")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1))
    parser.add_argument("--smoke", action="store_true",
                        help="shrunk workloads, one pass: same code paths and checks")
    parser.add_argument("--out", default=None, metavar="FILE")
    parser.add_argument("--trace-out", default=None, metavar="FILE",
                        help="where --trace writes the Chrome trace (default trace.json)")
    args = parser.parse_args(argv)
    if args.workload:
        return run_workload(args, contract)
    return run_all(args, contract)


if __name__ == "__main__":
    raise SystemExit(main())
