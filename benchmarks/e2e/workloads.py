"""The four workloads: what each one is, and why it is there.

A workload is a :class:`~repro.campaign.CampaignSpec` (the program only
ever sees the expanded ``RunSpec``s and the requests built from them)
plus the knobs of the rungs above the session.

``CampaignSpec.seed`` stays at its default, 2020, whatever ``--seed``
says.  It seeds the matrix coefficients and the right-hand side, and
with them the work: across ten seeds the iterations per solve moved by
25 % on ``poisson3d`` large (smoother right-hand sides converge sooner)
and 14 % on ``audikw_1_like`` tiny, so same-commit runs would disagree
beyond any bound.  ``--seed`` decides what does not change the amount
of work: the serve arrival order and the order the session rung visits
its ops in.  2020 is also the service's fixed problem seed, so every
rung solves the same matrix.

Sizes were probed on a 2-core host (python 3.11, numpy 2.4, no numba).
The issue's ≈ 30 s-per-workload sizing does not fit the driver's cap of
92 runs in 3 420 s, so ``repetitions`` is cut (never a problem size or
a grid) and the number of passes follows ``--seconds``.
"""

from __future__ import annotations

import dataclasses

from repro.campaign import CampaignSpec, ScenarioSpec, StrategySpec

FAILURE_FREE = ScenarioSpec.make("failure_free")
WORST_START = ScenarioSpec.make("worst_case", location="start")
WORST_CENTER = ScenarioSpec.make("worst_case", location="center")

#: The three strategies the paper compares, at its headline interval.
LADDER_STRATEGIES = (
    StrategySpec("esr"),
    StrategySpec("esrp", (20,)),
    StrategySpec("imcr", (20,)),
)
#: The paper's §5 grid (ESRP with T = 1 *is* ESR).
PAPER_STRATEGIES = (
    StrategySpec("esrp", (1, 20, 50, 100)),
    StrategySpec("imcr", (20, 50, 100)),
)


@dataclasses.dataclass(frozen=True)
class Workload:
    name: str
    why: str
    spec: CampaignSpec
    #: Field overrides of ``spec`` under ``--smoke``: the same code paths
    #: and checks in a few seconds.
    smoke: dict
    #: Field overrides selecting the slice of ``spec`` that the queue,
    #: serve and cli rungs run (empty: the whole spec); ``first_problems``
    #: keeps that many of the spec's problems, at ``--smoke``'s scale too.
    upper: dict = dataclasses.field(default_factory=dict)
    #: Every rung is timed at least this often, whatever ``--seconds`` says.
    min_passes: int = 2
    pool_size: int = 4
    #: Compare the cells with the paper's Tables 2 and 3.
    paper_cells: bool = False
    #: Traced runs also drain with two ``repro campaign worker`` processes.
    two_worker_drain: bool = False


def _spec(name: str, **fields) -> CampaignSpec:
    fields.setdefault("strategies", LADDER_STRATEGIES)
    fields.setdefault("scenarios", (FAILURE_FREE, WORST_START))
    return CampaignSpec(name=name, **fields)


WORKLOADS = (
    Workload(
        name="ladder_tiny",
        why=(
            "One warm config, ~11 ms per solve: each upper layer's fixed per-op cost "
            "is 2-15 % of an op and the two reductions 47 % of a kernel iteration, "
            "so api/campaign/queue/serve/reduction work shows here."
        ),
        spec=_spec(
            "ladder_tiny", problems=(("emilia_923_like", "tiny"),), n_nodes=8,
            phis=(1, 2), repetitions=2,
        ),
        smoke={"repetitions": 1},
    ),
    Workload(
        name="ladder_large",
        why=(
            "Kernel-bound poisson3d n=85184, 32 nodes, ~0.29 s per solve: SpMV+"
            "preconditioner 74 % of a kernel iteration, upper layers < 2 %; the "
            "no-change control for upper-layer work, where a kernel gain shows."
        ),
        spec=_spec(
            "ladder_large", problems=(("poisson3d", "large"),), n_nodes=32,
            phis=(1,),
        ),
        smoke={"problems": (("poisson3d", "small"),)},
    ),
    Workload(
        name="paper_grid",
        why=(
            "The paper's section-5 grid (126 runs, small scale, 16 nodes): "
            "storage-only and reconstruction+rollback cells, so a storage gain "
            "that costs recovery shows; carries the simulated-clock numbers."
        ),
        spec=_spec(
            "paper_grid",
            problems=(("emilia_923_like", "small"), ("audikw_1_like", "small")),
            n_nodes=16, strategies=PAPER_STRATEGIES, phis=(1, 3, 8),
            scenarios=(FAILURE_FREE, WORST_START, WORST_CENTER),
        ),
        smoke={
            "problems": (("emilia_923_like", "tiny"), ("audikw_1_like", "tiny")),
            "phis": (1, 3),
        },
        # The upper rungs exist here only so that every end-to-end metric
        # is reported on every workload; they run the failure-free phi=1
        # column of the first problem (7 runs, 0.4 s a pass: many short
        # passes give a steadier median than a few long ones).  One pass
        # of the whole grid takes ~9 s.
        upper={"first_problems": 1, "phis": (1,), "scenarios": (FAILURE_FREE,)},
        min_passes=1,
        paper_cells=True,
    ),
    Workload(
        name="sweep_mix",
        why=(
            "4 config groups x mtbf failures: one task shard per config, so chunk "
            "claiming crosses shards, and a session pool smaller than the config set "
            "(hit rate ~0.5); ladder_tiny has one shard, 100 % hits."
        ),
        spec=_spec(
            "sweep_mix",
            problems=(("emilia_923_like", "tiny"), ("audikw_1_like", "tiny")),
            n_nodes=4, preconditioners=("jacobi", "block_jacobi"), phis=(1, 2),
            scenarios=(
                FAILURE_FREE, WORST_START,
                ScenarioSpec.make("mtbf", mtbf_fraction=0.4),
            ),
        ),
        smoke={
            "phis": (1,),
            "scenarios": (FAILURE_FREE, ScenarioSpec.make("mtbf", mtbf_fraction=0.4)),
        },
        # Two passes of a rung disagreed by 6-9 % between same-commit runs
        # here (many short ops over four configs), hence a median of three;
        # three serve passes also give serve_ms_p95 its 200 samples.
        min_passes=3,
        pool_size=2,
        two_worker_drain=True,
    ),
)

BY_NAME = {workload.name: workload for workload in WORKLOADS}
