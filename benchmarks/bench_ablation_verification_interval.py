"""Ablation: the periodic-verification interval T of the ``pv`` strategy.

Sweeps the verification interval over a campaign spec (the ablation is
a plain :class:`~repro.campaign.spec.CampaignSpec` — same engine, same
record format) under two scenarios:

* ``failure_free`` — isolates the pure verification cost: every T-th
  iteration pays one extra SpMV plus a local checkpoint, so the modeled
  total overhead must grow monotonically as T shrinks;
* ``sdc`` — seeded silent-corruption strikes: smaller T detects a
  strike sooner and re-runs fewer iterations per rollback, at the
  price of the higher standing verification cost (the classic
  detection-latency/overhead trade-off, cf. arXiv:1511.04478).

An ESRP baseline rides along so the pv rows are comparable against an
exact fail-stop strategy that pays no verification.

Gates (``--check``):

* **convergence** — every run in every cell converges;
* **monotone verification cost** — in the failure-free scenario, the
  median total overhead is non-increasing in T (modeled time is
  deterministic, so this is exact, not a noisy perf gate);
* **determinism** — re-executing the sweep yields byte-identical
  records (the campaign byte-identity contract, here guarding the
  fault-injection path).

Usage::

    python benchmarks/bench_ablation_verification_interval.py
    python benchmarks/bench_ablation_verification_interval.py --check
    python benchmarks/bench_ablation_verification_interval.py --smoke
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys

DEFAULT_OUT = (
    pathlib.Path(__file__).resolve().parent.parent
    / "BENCH_verification_interval.json"
)

INTERVALS = (5, 10, 20, 40)
SMOKE_INTERVALS = (10, 20)
SDC_PROBABILITY = 0.02


def build_spec(scale: str, intervals, repetitions: int, n_nodes: int = 8):
    from repro.campaign import CampaignSpec, ScenarioSpec, StrategySpec

    return CampaignSpec(
        name=f"pv-ablation-{scale}",
        problems=(("poisson3d", scale),),
        n_nodes=n_nodes,
        preconditioners=("block_jacobi",),
        strategies=(
            StrategySpec("pv", tuple(intervals)),
            StrategySpec("esrp", (20,)),
        ),
        phis=(1,),
        scenarios=(
            ScenarioSpec.make("failure_free"),
            ScenarioSpec.make(
                "sdc", probability=SDC_PROBABILITY, mode="scale",
                magnitude=1e-2,
            ),
        ),
        repetitions=repetitions,
        seed=2020,
    )


def sweep(spec, workers: int):
    from repro.campaign import execute_campaign

    result = execute_campaign(spec, workers=workers, progress=None)
    rows = []
    for row in result.overhead_rows():
        rows.append(
            {
                "strategy": row["strategy"],
                "T": row["T"],
                "scenario": row["scenario"],
                "runs": row["runs"],
                "converged": row["converged"],
                "total_overhead": row["total_overhead"],
                "recovery_overhead": row["recovery_overhead"],
                "wasted_iterations": row["wasted_iterations"],
                "faults_injected": row["faults_injected"],
                "faults_detected": row["faults_detected"],
                "rollbacks": row["rollbacks"],
            }
        )
    return result, rows


def check_monotone_verification_cost(rows: list[dict]) -> dict:
    """Failure-free pv overhead must be non-increasing in T."""
    curve = sorted(
        (
            (row["T"], row["total_overhead"])
            for row in rows
            if row["strategy"] == "pv" and "failure_free" in row["scenario"]
        ),
    )
    violations = [
        f"T={a_T} -> T={b_T}: {a:.4f} -> {b:.4f}"
        for (a_T, a), (b_T, b) in zip(curve, curve[1:])
        if b > a + 1e-12
    ]
    return {
        "checked": len(curve) >= 2,
        "curve": {f"T={T}": overhead for T, overhead in curve},
        "violations": violations,
        "passed": not violations,
    }


def check_determinism(spec, rows: list[dict], workers: int) -> dict:
    _, again = sweep(spec, workers)
    identical = json.dumps(rows, sort_keys=True) == json.dumps(
        again, sort_keys=True
    )
    return {"checked": True, "passed": identical}


def _fmt_row(row: dict) -> str:
    def num(value):
        return f"{100 * value:7.2f}" if value is not None else "      -"

    return (
        f"{row['strategy']:5s} T={row['T']:<3d} {row['scenario']:44s} "
        f"total%={num(row['total_overhead'])} "
        f"inj={row['faults_injected']:.1f} det={row['faults_detected']:.1f} "
        f"rb={row['rollbacks']:.1f}"
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="pv verification-interval ablation (campaign sweep)"
    )
    parser.add_argument("--scale", default="tiny")
    parser.add_argument("--smoke", action="store_true",
                        help="small CI cell set (fewer intervals, 1 rep)")
    parser.add_argument("--check", action="store_true",
                        help="enforce the convergence/monotonicity/"
                        "determinism gates")
    parser.add_argument("--repetitions", type=int, default=None)
    parser.add_argument("--workers", type=int, default=0,
                        help="campaign worker processes (0 = serial)")
    parser.add_argument("--out", default=str(DEFAULT_OUT), metavar="FILE")
    args = parser.parse_args(argv)

    intervals = SMOKE_INTERVALS if args.smoke else INTERVALS
    repetitions = (
        args.repetitions
        if args.repetitions is not None
        else (1 if args.smoke else 3)
    )
    spec = build_spec(args.scale, intervals, repetitions)
    result, rows = sweep(spec, args.workers)
    for row in rows:
        print(_fmt_row(row), flush=True)

    gates = {
        "convergence": {
            "checked": True,
            "passed": all(row["converged"] for row in rows),
        },
        "monotone_verification_cost": check_monotone_verification_cost(rows),
    }
    if args.check:
        gates["determinism"] = check_determinism(spec, rows, args.workers)

    payload = {
        "benchmark": "pv verification-interval ablation",
        "problem": f"poisson3d ({args.scale})",
        "intervals": list(intervals),
        "sdc_probability": SDC_PROBABILITY,
        "repetitions": repetitions,
        "metric": "median modeled total overhead vs the reference solver "
        "per (strategy, T, scenario) cell, plus faults[...] counters",
        "rows": rows,
        "gates": gates,
    }
    out = pathlib.Path(args.out)
    out.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    print(f"\nwrote {out}")

    if args.check:
        failures = [
            name
            for name, gate in gates.items()
            if gate.get("checked") and not gate["passed"]
        ]
        if failures:
            for name in failures:
                print(f"FAIL: {name} gate: {gates[name]}", file=sys.stderr)
            return 1
        print("check passed: converged, verification cost monotone in T, "
              "byte-identical re-execution")
    return 0


if __name__ == "__main__":
    sys.exit(main())
