"""Run one workload up the ladder, in this (fresh) process.

Order of a run: cold set-ups (``setup_s``), warm-ups, timed passes of
the rungs in round-robin, the noise guard, then — traced runs only —
the step-wise layer measurements of :mod:`layers`.  Every pass is
bracketed by the host-speed probe of :mod:`hostspeed` and enters at
reference host speed; a metric's value is the median of its passes, and
the spread, every pass, the raw median and the host factor are recorded
beside it.
"""

from __future__ import annotations

import concurrent.futures
import dataclasses
import gc
import functools
import json
import math
import pathlib
import random
import resource
import shutil
import statistics
from time import perf_counter

from repro.api import SolveRequest
from repro.campaign import CampaignResult, execute_campaign, expand_spec, run_one
from repro.harness.paper import PAPER_TABLE2, PAPER_TABLE3
from repro.queue import QueueStore, collect, run_worker
from repro.serve import ServeRequest, canonical_report, get_json

import hostspeed
import layers
import rungs
from spans import Tracer
from workloads import FAILURE_FREE, Workload

#: Cold set-ups per run: at least MIN, then until SETUP_SECONDS are spent.
MIN_SETUPS, MAX_SETUPS, SETUP_SECONDS = 3, 25, 1.0
#: ``serve_ms_p95`` needs this many 1-client samples (ten beyond the
#: percentile).  A workload whose serve pass has at least
#: ``P95_MIN_REQUESTS`` requests pools passes until it has them, ten
#: passes at most; the others (6 and 14 requests a pass) never report it.
P95_MIN_SAMPLES, P95_MIN_REQUESTS = 200, 20
#: ``python -m repro solve`` is started at least this often per run.
CLI_RUNS = 3
#: A pass that can stop between ops probes the host this often (seconds).
PROBE_EVERY = 0.25

PAPER_TABLES = {"emilia_923_like": PAPER_TABLE2, "audikw_1_like": PAPER_TABLE3}

#: The metric each timed rung feeds (its bound drives the noise guard).
RUNG_METRIC = {
    "session": "session_solves_per_s",
    "campaign": "campaign_runs_per_s",
    "queue": "queue_tasks_per_s",
    "serve1": "serve_ms_p50",
    "serve2": "serve_rps",
    "cli": "cli_solve_s",
}
#: Rungs whose pass value is a rate (a slow host lowers it); the others'
#: is a time.
RATE_RUNGS = {"session", "campaign", "queue", "serve2"}


def spread(values) -> float | None:
    """How far the passes disagree, as a share of their median: the
    interquartile distance from four passes on, the range below that,
    ``None`` for a single pass.  (The quartiles are the inclusive ones:
    the default method puts the quartiles of four or five values next to
    the extremes, so that one slow pass would condemn the median of the
    other three.)"""
    if len(values) < 2:
        return None
    if len(values) < 4:
        return (max(values) - min(values)) / statistics.median(values)
    q1, _q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return (q3 - q1) / statistics.median(values)


def summary(values) -> dict:
    return {"samples": len(values), "spread": spread(values),
            "median": statistics.median(values), "values": list(values)}


def percentile(values, q: float) -> float:
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, round(q * (len(ordered) - 1)))]


def _json_bytes(result, path: pathlib.Path) -> bytes:
    return result.to_json(path).read_bytes()


class Ladder:
    """State of one workload run (see the module docstring for the order)."""

    def __init__(self, workload: Workload, seed: int, seconds: float, trace: bool,
                 smoke: bool, bounds: dict, scratch: pathlib.Path, child_env: dict):
        self.workload, self.seed, self.seconds = workload, seed, seconds
        self.smoke, self.bounds, self.scratch, self.env = smoke, bounds, scratch, child_env
        self.tracer = Tracer(trace)
        self.checks = rungs.Checks()
        # The problem (CampaignSpec.seed) is fixed; see README, "--seed".
        self.spec = dataclasses.replace(workload.spec, **(workload.smoke if smoke else {}))
        upper = dict(workload.upper)
        if "first_problems" in upper:
            upper["problems"] = self.spec.problems[:upper.pop("first_problems")]
        self.upper_spec = dataclasses.replace(self.spec, **upper)
        self.runs = expand_spec(self.spec)
        self.upper_ids = {run.run_id for run in expand_spec(self.upper_spec)}
        #: Per rung: the passes at reference host speed (what the noise
        #: guard edits), and every pass as measured with its host factor.
        self.samples = {rung: [] for rung in RUNG_METRIC}
        self.raw = {rung: [] for rung in RUNG_METRIC}
        self.factors = {rung: [] for rung in RUNG_METRIC}
        #: Probe readings since the last pass or set-up ended.
        self.pass_probes: list[float] = []
        self.unresolved: set[str] = set()
        self.latencies = {1: [], 2: []}
        self.hit_latencies, self.miss_latencies = [], []
        self.metrics: dict[str, float] = {}
        self.info: dict = {}
        self.digests: dict[str, str] = {}
        self.reply_digests: dict[str, str] = {}
        self.queue_dirs = 0
        self.drains: list[tuple] = []
        #: Simulated outcome of every run, from the first session pass.
        self.outcomes: dict | None = None
        self.child = None
        self.passes = {
            "session": self._pass_session,
            "campaign": self._pass_campaign,
            "queue": self._pass_queue,
            "serve1": functools.partial(self._pass_serve, 1),
            "serve2": functools.partial(self._pass_serve, 2),
            "cli": self._pass_cli,
        }

    # ------------------------------------------------------------- set-up

    def setup(self) -> None:
        """``setup_s``: cold sessions + first references, several times."""
        times, raw, factors = [], [], []
        hostspeed.probe()  # the probe's own first call is slow
        self._probe()
        while not raw or (not self.smoke and (
                len(raw) < MIN_SETUPS
                or (sum(raw) < SETUP_SECONDS and len(raw) < MAX_SETUPS))):
            start = perf_counter()
            with self.tracer.span("setup"):
                self.sessions = rungs.cold_setup(self.spec)
            raw.append(perf_counter() - start)
            factors.append(self._host_factor())
            times.append(raw[-1] / factors[-1])
        self.metrics["setup_s"] = statistics.median(times)
        self.info["setup_s"] = summary(times) | {
            "raw_median": statistics.median(raw),
            "host_factor": statistics.median(factors),
        }
        self.all_factors = factors
        self.ops = rungs.session_ops(self.runs, self.sessions)
        self.upper_ops = [op for op in self.ops if op[0].run_id in self.upper_ids]
        #: The workload's first config, whatever the seed: what the cli
        #: rung solves and the ``kernels.*`` metrics are measured on.
        self.first_run = self.upper_ops[0][0]
        random.Random(self.seed).shuffle(self.ops)  # the session rung's visiting order

    def warm_up(self) -> None:
        """One untimed op per config group on every rung; serial references.

        The service child starts, builds its sessions and answers its
        first request per config group on the other core meanwhile (none
        of this is timed; run after run it saves 0.6-2 s of the driver's
        time limit)."""
        self.payloads = self._arrival_order(
            [rungs.serve_payload(run, req) for run, _s, req in self.upper_ops])
        keys = {ServeRequest.from_dict(p).session_key: p for p in self.payloads}
        self.child = rungs.ServeChild(
            self.workload.pool_size, self.env, self.scratch / "serve.log"
        )
        with concurrent.futures.ThreadPoolExecutor(max_workers=1) as pool:
            warm_serve = pool.submit(self._warm_serve, list(keys.values()))
            first = {}
            for op in self.ops:
                first.setdefault(op[0].config_key, op)
            for run, session, request in first.values():
                session.solve(request, with_reference=True)
                run_one(run)
            warm_dir = self._queue_dir()  # the worker path: one task, then collect
            QueueStore.submit(self.upper_spec, warm_dir)
            run_worker(warm_dir, max_tasks=1)
            collect(warm_dir, allow_partial=True)
            shutil.rmtree(warm_dir)
            # The byte-identity reference for the queue rung's slice (the
            # campaign rung itself is the reference when there is no slice).
            self.serial_upper = (
                execute_campaign(self.upper_spec, workers=1)
                if self.workload.upper else None
            )
            self.direct = rungs.direct_reports(self.upper_ops)
            self.expected = {
                run_id: json.loads(json.dumps(canonical_report(report)))
                for run_id, report in self.direct.items()
            }
            _wall, latencies, replies = warm_serve.result()
        self.miss_latencies += latencies
        rungs.check_replies(self.checks, "serve warm-up", list(keys.values()),
                            replies, self.expected, self.reply_digests)

    def _warm_serve(self, payloads: list[dict]):
        self.child.wait_ready()
        return rungs.rung_serve(self.child.url, payloads, 1, self.tracer)

    def _arrival_order(self, payloads: list[dict]) -> list[dict]:
        """Uniformly shuffled arrivals whose pool hit rate is the workload's.

        The *config* sequence the session pool sees is one fixed uniform
        shuffle, so the hit rate is a property of the workload and not of
        the seed (with 72 requests it would otherwise move by +-6 %, and
        ``serve_rps`` with it); the seed decides which run of that config
        arrives in each slot.
        """
        by_config: dict[str, list] = {}
        for payload in payloads:
            by_config.setdefault(ServeRequest.from_dict(payload).session_key, []).append(payload)
        rng = random.Random(self.seed)
        for group in by_config.values():
            rng.shuffle(group)
        slots = [key for key, group in sorted(by_config.items()) for _ in group]
        random.Random(0).shuffle(slots)
        return [by_config[key].pop() for key in slots]

    # -------------------------------------------------------------- passes

    def _probe(self) -> None:
        """Probe the host; ``pass_probes`` collects a pass's readings."""
        self.probe_s, self.probed_at = hostspeed.probe(), perf_counter()
        self.pass_probes.append(self.probe_s)

    def _tick(self) -> None:
        """Between two ops of a pass: probe, if the last probe is old."""
        if perf_counter() - self.probed_at > PROBE_EVERY:
            self._probe()

    def _host_factor(self) -> float:
        """Host slowness since the last pass or set-up ended: the probe
        readings from that moment to now, over the nominal one."""
        self._probe()
        slow = hostspeed.factor(self.pass_probes)
        self.pass_probes = [self.probe_s]  # the next pass starts here
        return slow

    def one_pass(self, rung: str) -> None:
        gc.collect()  # so a collection of the last rung's garbage is not timed
        if perf_counter() - self.probed_at > 0.05:  # checks ran since the last pass
            self.pass_probes = []
            self._probe()
        with self.tracer.span(f"rung.{rung}"):
            raw = self.passes[rung]()
        slow = self._host_factor()
        self.raw[rung].append(raw)
        self.factors[rung].append(slow)
        self.samples[rung].append(raw * slow if rung in RATE_RUNGS else raw / slow)

    def _same_digest(self, rung: str, outcomes: dict) -> None:
        """Rungs sharing a cost model must agree on the simulated records.

        session, campaign and queue simulate ``BENCH_COST_MODEL``; the
        service builds its sessions on the default model, so serve
        passes are compared with each other.
        """
        if rung == "serve":
            expected = self.digests.setdefault(
                "sim_digest_serve", rungs.sim_digest(outcomes)
            )
        else:
            if self.outcomes is None:  # the first pass of the session rung
                self.outcomes = outcomes
                self.digests["sim_digest"] = rungs.sim_digest(outcomes)
            expected = rungs.sim_digest(
                {run_id: self.outcomes[run_id] for run_id in outcomes}
            )
        self.checks.require(
            rungs.sim_digest(outcomes) == expected,
            f"{rung}: sim_digest differs from the other rungs on its cost model",
        )

    def _pass_session(self) -> float:
        wall, reports = rungs.rung_session(self.ops, self.tracer, self._tick)
        outcomes = {r.request.label: r.to_dict() for r in reports}
        for run_id, outcome in outcomes.items():
            self.checks.solved("session", run_id, outcome)
        self._same_digest("session", outcomes)
        self.reports = reports
        return len(reports) / wall

    def _pass_campaign(self) -> float:
        wall, result = rungs.rung_campaign(self.spec, self.tracer, self._tick)
        outcomes = {record.run_id: record.to_dict() for record in result}
        for run_id, outcome in outcomes.items():
            self.checks.solved("campaign", run_id, outcome)
        self._same_digest("campaign", outcomes)
        self.serial = result
        return len(result) / wall

    def _queue_dir(self) -> pathlib.Path:
        self.queue_dirs += 1
        return self.scratch / f"queue-{self.queue_dirs}"

    def _check_collect(self, where: str, result) -> None:
        serial = self.serial_upper or self.serial
        self.checks.require(
            _json_bytes(result, self.scratch / "collected.json")
            == _json_bytes(serial, self.scratch / "serial.json"),
            f"{where}: collect() is not byte-identical to the serial CampaignResult",
        )

    def _pass_queue(self) -> float:
        queue_dir = self._queue_dir()
        wall, drain_wall, worker, result = rungs.rung_queue(
            self.upper_spec, queue_dir, self.tracer
        )
        tasks = len(self.upper_ids)
        self.drains.append((drain_wall, worker.busy_seconds, tasks))
        outcomes = {record.run_id: record.to_dict() for record in result}
        for run_id, outcome in outcomes.items():
            self.checks.solved("queue", run_id, outcome)
        for _ in range(tasks - len(outcomes)):
            self.checks.op(False, "queue: task dead-lettered or missing from collect()")
        self._same_digest("queue", outcomes)
        self._check_collect("queue", result)
        shutil.rmtree(queue_dir)
        return tasks / wall

    def _pass_serve(self, clients: int) -> float:
        wall, latencies, replies = rungs.rung_serve(
            self.child.url, self.payloads, clients, self.tracer,
            self._tick if clients == 1 else None,
        )
        self.latencies[clients] += latencies
        served = rungs.check_replies(
            self.checks, f"serve x{clients}", self.payloads, replies,
            self.expected, self.reply_digests,
        )
        self._same_digest("serve", {rid: body["report"] for rid, body in served.items()})
        if clients == 1:
            self.served = served
            for payload, latency in zip(self.payloads, latencies):
                body = served.get(payload["request"]["label"])
                if body is not None:
                    (self.hit_latencies if body["pool"]["hit"]
                     else self.miss_latencies).append(latency)
            return statistics.median(latencies) * 1e3
        return len(replies) / wall

    def _pass_cli(self) -> float:
        """One ``python -m repro solve`` process on the workload's first
        config; in the rotation so that the runs are spread over the
        whole measurement like every other rung's passes."""
        wall, done = rungs.rung_cli(self.first_run, self.env, self.tracer)
        self.checks.op(
            done.returncode == 0,
            f"cli: repro solve exited {done.returncode}: {done.stderr.strip()[-200:]}",
        )
        return wall

    def _min_passes(self, rung: str) -> int:
        floor = self.workload.min_passes
        if rung == "cli":
            return max(floor, CLI_RUNS)
        if rung == "serve1" and len(self.payloads) >= P95_MIN_REQUESTS:
            return max(floor, math.ceil(P95_MIN_SAMPLES / len(self.payloads)))
        return floor

    def timed_passes(self) -> None:
        """Round-robin over the rungs; each rung keeps its place in the
        rotation until it has used its share of ``--seconds`` (and has
        been timed its minimum number of times), so cheap rungs get many
        short passes spread over the whole run."""
        share = self.seconds / len(RUNG_METRIC)
        spent = dict.fromkeys(RUNG_METRIC, 0.0)
        active = list(RUNG_METRIC)
        while active:
            for rung in list(active):
                start = perf_counter()
                self.one_pass(rung)
                spent[rung] += perf_counter() - start
                enough = len(self.samples[rung]) >= self._min_passes(rung)
                if self.smoke or (enough and spent[rung] >= share):
                    active.remove(rung)
        self.info["passes"] = {rung: len(v) for rung, v in self.samples.items()}

    def noise_guard(self) -> None:
        """A rung whose passes disagree by more than its metric's bound is
        run once more, the new pass replacing the outlier; if the passes
        still disagree the metric is reported as unresolved.  (A rung
        timed once — ``paper_grid``'s full-grid passes — has no spread to
        judge and is left alone.)"""
        for rung, metric in RUNG_METRIC.items():
            values, bound = self.samples[rung], self.bounds[metric]
            if len(values) < 2 or spread(values) <= bound:
                continue
            self.one_pass(rung)
            fresh = values.pop()
            median = statistics.median(values)
            values.remove(max(values, key=lambda value: abs(value - median)))
            values.append(fresh)
            self.info.setdefault("reran", []).append(rung)
            if spread(values) > bound:
                self.unresolved.add(metric)

    # ------------------------------------------------------------- metrics

    def end_to_end(self) -> None:
        m, info = self.metrics, self.info
        for rung, metric in RUNG_METRIC.items():
            m[metric] = statistics.median(self.samples[rung])
            info[metric] = summary(self.samples[rung]) | {
                "raw_median": statistics.median(self.raw[rung]),
                "host_factor": statistics.median(self.factors[rung]),
            }
            self.all_factors += self.factors[rung]
        info["host_factor"] = statistics.median(self.all_factors)
        info["serve_ms_p50"]["requests"] = len(self.latencies[1])
        if len(self.latencies[1]) >= P95_MIN_SAMPLES:
            per_pass = len(self.payloads)  # every 1-client pass, each at its host factor
            pooled = [
                latency / slow
                for index, slow in enumerate(self.factors["serve1"])
                for latency in self.latencies[1][index * per_pass:(index + 1) * per_pass]
            ]
            m["serve_ms_p95"] = percentile(pooled, 0.95) * 1e3
            info["serve_ms_p95"] = {"samples": len(pooled)}
        deviations = self._paper_deviation()
        if deviations["failure_free"]:
            m["paper_ff_dev_pp"] = statistics.median(deviations["failure_free"])
        self.paper_fail = deviations["failure"]

    def _paper_deviation(self) -> dict[str, list[float]]:
        """|ours - paper| in percentage points, per cell of Tables 2 and 3."""
        out = {"failure_free": [], "failure": []}
        if not self.workload.paper_cells:
            return out
        for run in self.runs:
            cells = PAPER_TABLES[run.problem]["cells"]
            row = cells[("esrp", 1) if run.strategy == "esr" else (run.strategy, run.T)]
            ours = self.outcomes[run.run_id]["total_overhead"] * 100.0
            if run.scenario == FAILURE_FREE:
                out["failure_free"].append(abs(ours - row["failure_free"][run.phi]))
            else:
                location = dict(run.scenario.params)["location"]
                out["failure"].append(abs(ours - row[location, "total"][run.phi]))
        return out

    def per_layer(self) -> None:
        """The traced run's layer metrics (see README for the definitions)."""
        m, w, med = self.metrics, self.workload, statistics.median
        stages = [layers.setup_stages(self.spec)
                  for _ in range(1 if self.smoke else self.info["setup_s"]["samples"])]
        for name in stages[0]:
            m[name] = med(stage[name] for stage in stages)
        # Kernels: micro-measured per config group; the metrics are those
        # of the workload's first config, the in-situ pass prices each op
        # with its own.
        kernel_us = {}
        for run, session, _request in self.upper_ops:
            if run.config_key not in kernel_us:
                kernel_us[run.config_key] = layers.kernel_costs(session, run.preconditioner)
        m.update(kernel_us[self.first_run.config_key])

        # solvers / api: the session rung's spans against SolveReport.wall_time.
        spans = self.tracer.by_run("api.session_solve")
        solve_s = {rid: med(v) for rid, v in spans.items()}
        engine_s = {r.request.label: r.wall_time for r in self.reports}  # last pass
        executed = sum(r.executed_iterations for r in self.reports)
        m["solvers.engine_ms"] = med(engine_s.values()) * 1e3
        m["solvers.iter_us"] = med(
            r.wall_time / r.executed_iterations for r in self.reports) * 1e6
        m["solvers.iter_self_us"] = m["solvers.iter_us"] - m["kernels.iter_us"]
        m["solvers.iterations"] = executed / len(self.reports)
        m["api.session_ms"] = med(solve_s.values()) * 1e3
        m["api.session_self_ms"] = med(
            spans[rid][-1] - engine_s[rid] for rid in engine_s) * 1e3
        # The same engine time split in situ, without kernels.iter_us.
        in_situ = layers.engine_in_situ(self.upper_ops, kernel_us)
        m["solvers.engine_self_ms"] = med(r["engine_self"] for r in in_situ.values()) * 1e3
        m["core.resilience_kernels_ms"] = med(
            r["resilience_kernels"] for r in in_situ.values()) * 1e3
        m["kernels.in_situ_ratio"] = (
            sum(r["kernels_in_situ"] for r in in_situ.values())
            / sum(r["kernels_micro"] for r in in_situ.values()))

        # campaign: run_one against session.solve, paired by run id.
        run_one_s = {rid: med(v) for rid, v in self.tracer.by_run("campaign.run_one").items()}
        m["campaign.expand_ms"] = layers.seconds(lambda: expand_spec(self.spec)) * 1e3
        m["campaign.run_self_ms"] = med(run_one_s[rid] - solve_s[rid] for rid in solve_s) * 1e3
        m["campaign.result_ms_per_run"] = layers.seconds(lambda: CampaignResult(
            self.spec.to_dict(), self.serial.records).to_json(self.scratch / "result.json")
        ) * 1e3 / len(self.serial)

        # queue: the drain against the run_one it wraps, then step by step.
        upper_run_one = sum(run_one_s[rid] for rid in self.upper_ids)
        m["queue.task_self_ms"] = med(
            (wall - upper_run_one) / tasks for wall, _busy, tasks in self.drains) * 1e3
        m["queue.heartbeat_ms"] = med(
            (busy - upper_run_one) / tasks for _wall, busy, tasks in self.drains) * 1e3
        serial = self.serial_upper or self.serial
        steps, collected = layers.queue_steps(
            self.upper_spec, self._queue_dir(),
            {record.run_id: record for record in serial},
        )
        m.update(steps)
        self._check_collect("queue steps", collected)
        if w.two_worker_drain:
            rate, collected = layers.drain_two_workers(
                self.upper_spec, self._queue_dir(), self.env)
            if rate is not None:
                m["queue.drain2_tasks_per_s"] = rate
                self._check_collect("queue drain2", collected)

        # serve: latency against the reply's own timing block.
        by_id = {p["request"]["label"]: lat for p, lat in zip(
            self.payloads, self.latencies[1][-len(self.payloads):])}
        timing = {rid: body["timing"] for rid, body in self.served.items()}
        m["serve.transport_ms"] = med(
            by_id[rid] - t["service_seconds"] for rid, t in timing.items()) * 1e3
        m["serve.service_self_ms"] = med(
            t["service_seconds"] - t["wall_time"] for t in timing.values()) * 1e3
        m.update(layers.serve_steps(self.payloads, self.direct, self.served))
        m["serve.queue_wait_ms"] = (med(self.latencies[2]) - med(self.latencies[1])) * 1e3
        pool = get_json(self.child.url + "/stats")["pool"]
        m["serve.pool_hit_rate"] = pool["hit_rate"]
        m["serve.pool_evictions"] = float(pool["evictions"])
        m["serve.rebuild_ms"] = (
            med(self.miss_latencies) - med(self.hit_latencies or self.latencies[1])) * 1e3
        # Does the ladder close?  Per run id, the engine time rebuilt from
        # independently measured parts (micro-measured kernels x their
        # in-situ call counts, resilience kernels, engine self) plus what
        # the service and the transport add, against the latency observed.
        parts = [
            {**r, "service_and_transport": by_id[rid] - timing[rid]["wall_time"]}
            for rid, r in in_situ.items()]
        rebuilt = med(
            part["kernels_micro"] + part["resilience_kernels"] + part["engine_self"]
            + part["service_and_transport"] for part in parts)
        signed = (rebuilt / med(by_id.values()) - 1.0) * 100.0
        m["serve.ladder_closure_err_pct"] = abs(signed)
        # Means beside the medians: over a mix of ops only means add up.
        self.info["ladder_closure"] = {
            "signed_pct": signed, "rebuilt_ms": rebuilt * 1e3,
            "latency_ms": med(by_id.values()) * 1e3,
            "mean_latency_ms": statistics.fmean(by_id[rid] for rid in in_situ) * 1e3,
            "mean_ms": {name: statistics.fmean(part[name] for part in parts) * 1e3
                        for name in parts[0]},
        }

        # core: storage and recovery on the host clock, kept apart.
        reference_s, free_s, recovery = [], [], []
        for (problem, scale), session in self.sessions.items():
            for name in self.spec.preconditioners:
                request = SolveRequest(strategy="reference", preconditioner=name,
                                       rtol=self.spec.rtol, seed=self.seed)
                reference_s.append(med(
                    session.solve(request).wall_time for _ in range(3)))
                free_s.append(med(
                    solve_s[run.run_id] for run in self.runs
                    if (run.problem, run.scale, run.preconditioner) == (problem, scale, name)
                    and run.scenario == FAILURE_FREE))
        for run in self.runs:
            if run.scenario != FAILURE_FREE:
                twin = dataclasses.replace(run, scenario=FAILURE_FREE).run_id
                recovery.append(solve_s[run.run_id] - solve_s[twin])
        m["core.storage_host_pct"] = (sum(free_s) / sum(reference_s) - 1.0) * 100.0
        m["core.recovery_host_ms"] = med(recovery) * 1e3

        # core / cluster on the simulated clock: exact, seed-determined.
        free = [self.outcomes[r.run_id] for r in self.runs if r.scenario == FAILURE_FREE]
        hit = [self.outcomes[r.run_id] for r in self.runs if r.scenario != FAILURE_FREE]
        m["core.sim_ff_overhead_pct"] = med(o["total_overhead"] for o in free) * 100.0
        m["core.sim_fail_overhead_pct"] = med(o["total_overhead"] for o in hit) * 100.0
        m["core.sim_recovery_pct"] = med(o["recovery_overhead"] for o in hit) * 100.0
        everything = list(self.outcomes.values())
        m["core.wasted_iters"] = float(sum(
            o["executed_iterations"] - o["iterations"] for o in everything))
        m["core.peak_redundancy_bytes"] = max(
            o["stats"]["peak_redundancy_bytes"] for o in everything)
        if self.paper_fail:
            m["core.paper_fail_dev_pp"] = med(self.paper_fail)

        def total(key: str) -> float:
            return sum(o["stats"].get(key, 0.0) for o in everything)

        m["cluster.flops_per_iter"] = total("total_flops") / executed
        m["cluster.bytes_per_iter"] = total("total_bytes") / executed
        m["cluster.messages_per_iter"] = total("total_messages") / executed
        m["cluster.bytes_aspmv_extra"] = total("bytes[aspmv_extra]")
        m["cluster.bytes_recovery"] = total("bytes[recovery]")

    # ---------------------------------------------------------------- run

    def run(self) -> dict:
        started = perf_counter()
        try:
            with self.tracer.span(f"workload.{self.workload.name}"):
                self.setup()
                self.warm_up()
                self.timed_passes()
                if not self.smoke:
                    self.noise_guard()
                self.end_to_end()
                # The layer metrics pair runs across rungs by run id, so
                # they need every op of every rung to have succeeded.
                if self.tracer.enabled and not self.checks.failed:
                    self.per_layer()
        finally:
            if self.child is not None:
                self.child.stop()
        self.metrics["peak_rss_mb"] = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        )
        self.info["run_wall_s"] = perf_counter() - started
        return {
            "workload": self.workload.name,
            "seed": self.seed,
            "correct": not self.checks.problems,
            "ops_attempted": self.checks.attempted,
            "ops_failed": self.checks.failed,
            "problems": self.checks.problems[:20],
            "unresolved": sorted(self.unresolved),
            # An unresolved metric has no value; its passes are in ``info``.
            "metrics": {name: None if name in self.unresolved else value
                        for name, value in self.metrics.items()},
            "info": self.info,
            "runs": len(self.runs),
            "upper_runs": len(self.upper_ids),
            **self.digests,
        }

