"""Fault-model subsystem: a taxonomy of injectable faults.

The seed reproduction modelled exactly one fault class — fail-stop node
failure at a scripted iteration.  This package adds the event types and
the seeded schedule models of the other classes.  The campaign scenario
table (:data:`repro.campaign.scenarios.SCENARIO_KINDS`) is the one place
that names them: a scenario kind builds its model from the spec's
parameters and asks it for the run's schedule.

Fault taxonomy
--------------
==================  ==========================  =======================  ==========================
Scenario kind       Event type                  Detection                Recovery
==================  ==========================  =======================  ==========================
``worst_case``,     ``FailureEvent``            immediate (fail-stop     strategy ``recover`` hook
``fraction``,                                   notification)            (ESR/ESRP/IMCR/...)
``multi_node``,
``storm``, ``mtbf``
``sdc``             ``SDCEvent``                none — silent; needs a   ``pv`` backward rollback /
                                                verification strategy    ``pv_forward`` reconstruction
                                                (``pv``/``pv_forward``)  (arXiv:1511.04478)
``lossy``           ``FailureEvent``            immediate                ``lossy_imcr`` restores a
                                                                         quantised checkpoint; the
                                                                         bounded error re-enters CG
                                                                         (arXiv:1804.11268)
``churn``           ``ChurnEvent``              immediate                recovery replacement = the
                    (epoch-tagged failure)                               rejoining member; epoch
                                                                         critical/sufficient sizes
                                                                         tracked in stats/events
==================  ==========================  =======================  ==========================

The ``sdc``, ``lossy`` and ``churn`` kinds draw their schedules from
:class:`SDCModel`, :class:`LossyCheckpointModel` and :class:`ChurnModel`.

Injection-hook contract
-----------------------
* **Where.** All faults land at the paper's injection point: inside
  iteration ``j``, immediately after the SpMV.  One
  :class:`~repro.cluster.failures.FailureSchedule` carries both event
  families: fail-stop events flow through ``pop_due(j)`` and
  ``VirtualCluster.fail(ranks)``; corruption events flow through
  ``pop_corruptions(j)`` and the ``VirtualCluster.corrupt(rank)`` hook
  plus an in-place block mutation (``SDCEvent.apply``).
* **Cost.** Injection itself is free on the simulated clock — a fault
  is an act of the environment, not of the algorithm.  Everything the
  *solver* does about it (verification residuals, rollbacks,
  checkpoint traffic) is charged normally.
* **Determinism.** A model's ``schedule(ctx)`` derives all randomness
  from ``ctx.seed``; each ``SDCEvent`` carries its own sub-seed for the
  index/bit draw.  Same seed ⇒ byte-identical schedule ⇒ byte-identical
  ``CampaignResult``.
* **Backend invariance.** Corruption mutates owned numpy blocks
  elementwise and consults no kernel code, so outcomes do not depend
  on the kernel backend (a timing plugin sees the same bits).
* **Counting.** Every injected fault increments a ``faults[<kind>]``
  counter in ``ClusterStats`` (via ``VirtualCluster.record_fault``);
  detections and rollbacks increment ``faults[sdc_detected]`` /
  ``faults[rollback]``.  The counters surface in ``SolveResult.stats``
  → ``CampaignRunRecord.stats`` → ``campaign report`` columns.
* **Consumption.** Schedules are consumed at most once: a rollback
  never re-triggers an already-injected fault (one-event-per-run paper
  semantics, generalised).

Campaign specs reach every kind with plain ``{"kind": "sdc", ...}``
dictionaries; a parameter a kind does not take is a
:class:`~repro.exceptions.ConfigurationError`.
"""

from .churn import ChurnModel
from .events import (
    CORRUPTIBLE_VECTORS,
    SDC_MODES,
    ChurnEvent,
    SDCEvent,
    event_from_dict,
)
from .lossy import CompressionModel, LossyCheckpointModel
from .sdc import SDCModel

__all__ = [
    "SDCEvent",
    "ChurnEvent",
    "event_from_dict",
    "CORRUPTIBLE_VECTORS",
    "SDC_MODES",
    "CompressionModel",
    "SDCModel",
    "LossyCheckpointModel",
    "ChurnModel",
]
