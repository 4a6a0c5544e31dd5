"""Prebuilt Grafana-style dashboards for a Nautilus testbed.

"Grafana ... graphs cluster health and performance data" (§II-A); admins
don't assemble panels by hand every time — they load the standard
cluster dashboard.  This builder produces the equivalent for a
:class:`~repro.testbed.NautilusTestbed`.
"""

from __future__ import annotations

import typing as _t

from repro.monitoring.grafana import Dashboard, Panel

if _t.TYPE_CHECKING:  # pragma: no cover
    from repro.testbed import NautilusTestbed

__all__ = ["build_cluster_dashboard"]


def build_cluster_dashboard(testbed: "NautilusTestbed") -> Dashboard:
    """The cluster-health view: per-node compute + storage + network."""
    dash = Dashboard(f"Nautilus cluster — {testbed.cluster.name}",
                     testbed.registry)
    dash.add_panel(Panel(title="CPU allocated (cores)",
                         metric="node_cpu_allocated_cores", unit="cores"))
    dash.add_panel(Panel(title="Memory allocated",
                         metric="node_memory_allocated_bytes", unit="GB",
                         scale=1e-9))
    dash.add_panel(Panel(title="GPUs in use", metric="node_gpus_in_use",
                         unit="GPUs"))
    dash.add_panel(Panel(title="Ceph bytes stored", metric="ceph_used_bytes",
                         unit="TB", scale=1e-12, kind="stat"))
    dash.add_panel(Panel(title="Ceph disk writes",
                         metric="ceph_disk_write_bytes_per_second", unit="MB/s",
                         scale=1e-6))
    dash.add_panel(Panel(title="THREDDS egress", metric="thredds_egress_bytes_per_second",
                         unit="MB/s", scale=1e-6))
    return dash

