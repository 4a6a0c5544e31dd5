"""Discrete-event simulation kernel.

This package is the substrate on which every simulated subsystem of the
CHASE-CI reproduction runs: the Kubernetes-like control plane, the PRP
network, the Ceph-like storage cluster, and the workflow driver are all
coroutine *processes* scheduled on a single virtual clock.

The design is a compact, from-scratch SimPy-style engine:

- :class:`Environment` owns the event heap and the virtual clock.
- :class:`Event` is a one-shot occurrence with success/failure and callbacks.
- :class:`Process` wraps a generator; ``yield``-ing an event suspends the
  process until the event fires.
- :class:`Resource` and :class:`Store` provide capacity-limited sharing
  and object queues.

Determinism: all ties at equal simulation time are broken by a monotonically
increasing sequence number, so a run is exactly reproducible given the same
program and seed. The kernel never reads the wall clock.

Example
-------
>>> from repro.sim import Environment
>>> env = Environment()
>>> log = []
>>> def proc(env):
...     yield env.timeout(5)
...     log.append(env.now)
>>> _ = env.process(proc(env))
>>> env.run()
>>> log
[5.0]
"""

from repro.sim.events import Event, Timeout, AllOf, AnyOf, Interrupt
from repro.sim.process import Process
from repro.sim.environment import Environment
from repro.sim.resources import Resource, Store
from repro.sim.rng import SeededRNG, derive_seed

__all__ = [
    "Environment",
    "Event",
    "Timeout",
    "AllOf",
    "AnyOf",
    "Interrupt",
    "Process",
    "Resource",
    "Store",
    "SeededRNG",
    "derive_seed",
]
