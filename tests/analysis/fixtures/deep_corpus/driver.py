"""Seeded-defect corpus: the simulation entry module.

``driver`` in the module name marks this as a sim entry point for the
taint pass, exactly like ``repro.workflow.driver`` in the real tree.
Every defect in the sibling modules is reachable (or deliberately
unreachable) through the calls below.
"""

import clock
import envcfg
import rngpool
import shards


def run(env):
    deadline = clock.stamp()  # DET010: wall-clock via callee
    jitter = rngpool.draw()  # DET011: global RNG two hops down
    plan = shards.plan("/data")  # DET013: listdir/set order
    limit = envcfg.limit()  # DET012: os.environ read
    return deadline, jitter, plan, limit


def helper_not_reached():
    """Defined in an entry module, so itself an entry; calls nothing."""
    return 0
