"""Lint fixture: a simulation helper that breaks the determinism rules.

This file is test data for the ``det`` pack — it is never imported.
"""

import random
import time

import numpy as np

rng = np.random.default_rng()  # DET001: no seed
STARTED_AT = time.time()  # DET010: runs at import time


def jitter() -> float:
    # Reached from no simulation entry point: no DET010/DET011 here.
    return random.uniform(0.0, 1.0) * time.time()
