"""Fault-model subsystem: a taxonomy of injectable faults.

The seed reproduction modelled exactly one fault class — fail-stop node
failure at a scripted iteration.  This package generalises that into a
registry of *fault models* (what goes wrong, when, and how it is drawn
from a seed) that the scenario layer, the request API, and the solver
engine all consume through one uniform schedule interface.

Fault taxonomy
--------------
==================  ==========================  =======================  ==========================
Model (registry)    Event type                  Detection                Recovery
==================  ==========================  =======================  ==========================
``node_failure``    ``FailureEvent``            immediate (fail-stop     strategy ``recover`` hook
                                                notification)            (ESR/ESRP/IMCR/...)
``sdc``             ``SDCEvent``                none — silent; needs a   ``pv`` backward rollback /
                                                verification strategy    ``pv_forward`` reconstruction
                                                (``pv``/``pv_forward``)  (arXiv:1511.04478)
``lossy_checkpoint``  ``FailureEvent``          immediate                ``lossy_imcr`` restores a
                                                                         quantised checkpoint; the
                                                                         bounded error re-enters CG
                                                                         (arXiv:1804.11268)
``churn``           ``ChurnEvent``              immediate                recovery replacement = the
                    (epoch-tagged failure)                               rejoining member; epoch
                                                                         critical/sufficient sizes
                                                                         tracked in stats/events
==================  ==========================  =======================  ==========================

Injection-hook contract
-----------------------
* **Where.** All faults land at the paper's injection point: inside
  iteration ``j``, immediately after the SpMV.  Fail-stop events flow
  through ``FailureSchedule.pop_due(j)`` and
  ``VirtualCluster.fail(ranks)`` exactly as before; corruption events
  flow through ``FaultSchedule.pop_corruptions(j)`` and the new
  ``VirtualCluster.corrupt(rank)`` hook plus an in-place block mutation
  (``SDCEvent.apply``).
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

Registering a new model::

    from repro.faults import register_fault

    @register_fault("my_fault")
    class MyFaultModel:
        name = "my_fault"
        def __init__(self, **params): ...
        def schedule(self, ctx):  # ctx: campaign ScenarioContext
            return FaultSchedule([...])

Scenario kinds ``sdc`` / ``lossy`` / ``churn`` in
:mod:`repro.campaign.scenarios` delegate to these models, so campaign
specs reach them with plain ``{"kind": "sdc", ...}`` dictionaries.
"""

from .base import FAULTS, FaultModel, fault_kinds, make_fault_model, register_fault
from .events import (
    CORRUPTIBLE_VECTORS,
    SDC_MODES,
    ChurnEvent,
    FaultSchedule,
    SDCEvent,
    event_from_dict,
)
from .lossy import CompressionModel

# Importing the model modules runs their registrations.
from . import churn, lossy, node_failure, sdc  # noqa: F401  (registration side effects)
from .churn import ChurnModel
from .lossy import LossyCheckpointModel
from .node_failure import NodeFailureModel
from .sdc import SDCModel

__all__ = [
    "FAULTS",
    "FaultModel",
    "register_fault",
    "make_fault_model",
    "fault_kinds",
    "FaultSchedule",
    "SDCEvent",
    "ChurnEvent",
    "event_from_dict",
    "CORRUPTIBLE_VECTORS",
    "SDC_MODES",
    "CompressionModel",
    "NodeFailureModel",
    "SDCModel",
    "LossyCheckpointModel",
    "ChurnModel",
]
