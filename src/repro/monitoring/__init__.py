"""Monitoring: Prometheus-like metrics and Grafana-style sparklines.

Paper §II-A: "Nautilus needs software to monitor the health, availability,
and performance of resources.  Grafana is an open source platform for
time series analytics.  It graphs cluster health and performance data
using a functional query language provided by Prometheus."  Contribution
5 — the step-by-step measurement approach — depends on exactly this loop:
every workflow step is measured, and "experimental results and
performance measurements were presented using the CHASE-CI dashboard
visualizations in Grafana" (§VIII).

Prometheus scrapes every 15 s.  Here each scraped gauge's owner (a node,
the Ceph cluster, the flow engine) records the value where it changes,
and the registry resamples those records onto the scrape grid when a
series is read, so no polling process runs.

The implementations live in the submodules (``repro.monitoring.metrics``,
``.promql``, ``.grafana``); import each name from its submodule.
"""
