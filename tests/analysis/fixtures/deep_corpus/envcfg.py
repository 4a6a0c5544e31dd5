"""Seeded defects: an environment read on the reachable path, and a
global-RNG draw in a helper nothing calls (must stay quiet: the call
graph proves it unreachable)."""

import os
import random


def limit():
    return int(os.environ.get("REPRO_LIMIT", "8"))  # DET012


def dead_code_draw():
    return random.random()  # unreachable: no DET011
