"""repro — reproduction of *Workflow-Driven Distributed Machine Learning in
CHASE-CI* (Altintas et al., 2019).

The package implements, from scratch, the full stack the paper describes:

- :mod:`repro.sim` — discrete-event simulation kernel (virtual clock,
  coroutine processes, resources).
- :mod:`repro.cluster` — Kubernetes-like container orchestration (nodes,
  pods, jobs, replica sets, services, namespaces, scheduler, self-healing).
- :mod:`repro.netsim` — the Pacific Research Platform network (sites,
  10/40/100 GbE links, max-min fair flow sharing, Science-DMZ DTNs).
- :mod:`repro.storage` — Ceph/Rook-like distributed object storage
  (CRUSH-style placement, replication, OSD recovery, CephFS facade).
- :mod:`repro.transfer` — THREDDS catalog + subsetting, Aria2-like parallel
  downloads, a Redis-like work queue.
- :mod:`repro.data` — synthetic MERRA-2-like atmospheric data and IVT.
- :mod:`repro.ml` — a NumPy flood-filling network (FFN), the CONNECT
  baseline, segmentation metrics, and a GPU performance model.
- :mod:`repro.monitoring` — Prometheus-like metrics, a PromQL subset and
  Grafana-style sparklines.
- :mod:`repro.workflow` — the paper's core contribution: the workflow-driven
  development/measurement layer and the 4-step CONNECT case study.
- :mod:`repro.viz` — ASCII renderers for every paper figure and table.

Quickstart
----------
>>> from repro.testbed import build_nautilus_testbed
>>> from repro.workflow import build_connect_workflow, WorkflowDriver
>>> testbed = build_nautilus_testbed(seed=42, scale=0.001)
>>> wf = build_connect_workflow(testbed)
>>> report = WorkflowDriver(testbed).run(wf)
>>> report.succeeded
True
"""

from repro._version import __version__

__all__ = ["__version__"]
