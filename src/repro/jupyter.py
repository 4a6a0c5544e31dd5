"""JupyterHub: on-demand per-user GPU notebooks (paper §VII).

"JupyterHub is also an integral part of the CHASE-CI Kubernetes GPU
cluster.  This software allows for a web based environment to
automatically be generated per user on demand.  The Jupyter Notebook
instance that is generated is attached to a GPU on the cluster."

The hub authenticates users through CILogon-style federated identities
(§IV), spawns one single-user notebook pod per user (GPU-attached by
default, CephFS mounted), culls idle servers, and tears everything down
on logout — all on the simulated cluster, so notebooks contend for the
same GPUs the workflow jobs use.
"""

from __future__ import annotations

import dataclasses
import typing as _t

from repro.cluster import ContainerSpec, PodSpec, ResourceRequirements
from repro.cluster.pod import Pod, PodPhase
from repro.errors import ClusterError

if _t.TYPE_CHECKING:  # pragma: no cover
    from repro.testbed import NautilusTestbed

__all__ = ["CILogonAuthenticator", "NotebookServer", "JupyterHub"]


class CILogonAuthenticator:
    """Federated identity verification (the CILogon model, §IV).

    "over 2500 identity providers are supported, allowing the use of
    home or campus credentials.  In this way, new users log on and
    'claim' their identity, rather than creating a new one."
    """

    #: Identity providers accepted out of the box (a representative set).
    DEFAULT_PROVIDERS = frozenset(
        {"ucsd.edu", "uci.edu", "stanford.edu", "berkeley.edu",
         "caltech.edu", "washington.edu", "hawaii.edu", "orcid.org"}
    )

    def __init__(self, providers: _t.Iterable[str] | None = None):
        self.providers = frozenset(providers) if providers else self.DEFAULT_PROVIDERS
        self.claimed: set[str] = set()

    def authenticate(self, identity: str) -> str:
        """Validate and 'claim' a federated identity; returns it."""
        if "@" not in identity:
            raise PermissionError(f"not a federated identity: {identity!r}")
        domain = identity.rsplit("@", 1)[1].lower()
        if domain not in self.providers:
            raise PermissionError(
                f"identity provider {domain!r} is not federated with CILogon"
            )
        self.claimed.add(identity)
        return identity


@dataclasses.dataclass
class NotebookServer:
    """One user's running single-user server."""

    user: str
    pod: Pod
    started_at: float
    last_activity: float

    @property
    def ready(self) -> bool:
        return self.pod.phase is PodPhase.RUNNING

    @property
    def gpus(self) -> tuple[str, ...]:
        return self.pod.assigned_gpus


class JupyterHub:
    """The hub: authenticate, spawn, track activity, cull idle servers.

    Parameters
    ----------
    testbed:
        The Nautilus deployment notebooks run on.
    idle_timeout:
        Servers idle longer than this are culled by the periodic culler.
    """

    #: Namespace for the single-user pods.
    namespace = "jupyterhub"

    def __init__(
        self,
        testbed: "NautilusTestbed",
        idle_timeout: float = 3600.0,
        cull_interval: float = 300.0,
    ):
        self.testbed = testbed
        self.idle_timeout = idle_timeout
        self.authenticator = CILogonAuthenticator()
        self.servers: dict[str, NotebookServer] = {}
        self.culled: list[str] = []
        if self.namespace not in testbed.cluster.namespaces:
            testbed.cluster.create_namespace(self.namespace)
        self._serial = 0
        testbed.env.process(self._culler(cull_interval), name="jhub-culler")

    # -- spawning -------------------------------------------------------------------

    def spawn(self, identity: str) -> NotebookServer:
        """Authenticate and start (or return) the user's server."""
        user = self.authenticator.authenticate(identity)
        existing = self.servers.get(user)
        if existing is not None and not existing.pod.is_terminal:
            existing.last_activity = self.testbed.env.now
            return existing

        env = self.testbed.env

        def notebook_main(ctx):
            # Runs until stopped or culled; activity is driven externally.
            try:
                while True:
                    yield ctx.env.timeout(60.0)
            finally:
                pass

        spec = PodSpec(
            containers=[
                ContainerSpec(
                    name="notebook",
                    image="chase-ci/jupyterlab-gpu:2.0",
                    main=notebook_main,
                    # Single-user server profile ("attached to a GPU on
                    # the cluster").
                    resources=ResourceRequirements(
                        cpu=2.0, memory="12G", gpu=1
                    ),
                )
            ],
            volumes={"cephfs": self.testbed.cephfs},
        )
        self._serial += 1
        safe = user.replace("@", "-").replace(".", "-")
        pod = self.testbed.cluster.create_pod(
            f"jupyter-{safe}-{self._serial}", spec, namespace=self.namespace
        )
        server = NotebookServer(
            user=user, pod=pod, started_at=env.now, last_activity=env.now
        )
        self.servers[user] = server
        return server

    def touch(self, identity: str) -> None:
        """Record user activity (resets the idle-cull clock)."""
        server = self.servers.get(identity)
        if server is None:
            raise ClusterError(f"no server for {identity!r}")
        server.last_activity = self.testbed.env.now

    def stop(self, identity: str) -> None:
        """Stop a user's server, releasing its GPU."""
        server = self.servers.pop(identity, None)
        if server is not None and not server.pod.is_terminal:
            self.testbed.cluster.delete_pod(server.pod)

    def active_users(self) -> list[str]:
        return sorted(
            user
            for user, server in self.servers.items()
            if not server.pod.is_terminal
        )

    def gpus_in_use(self) -> int:
        return sum(
            len(s.pod.assigned_gpus)
            for s in self.servers.values()
            if s.pod.phase is PodPhase.RUNNING
        )

    # -- culling -------------------------------------------------------------------

    def _culler(self, interval: float):
        env = self.testbed.env
        while True:
            yield env.timeout(interval)
            now = env.now
            for user, server in list(self.servers.items()):
                if server.pod.is_terminal:
                    del self.servers[user]
                    continue
                if now - server.last_activity >= self.idle_timeout:
                    self.culled.append(user)
                    self.stop(user)
