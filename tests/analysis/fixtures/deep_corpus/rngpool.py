"""Seeded defects: global-RNG draw reachable through two call hops,
plus an unseeded generator in a function nothing reaches (DET001 only —
the taint pass must NOT add a DET011 for it)."""

import random

import numpy as np


def _jitter():
    return random.random()  # DET011: reached via draw() from driver.run


def draw():
    return _jitter() * 2.0


def make_gen_unreached():
    return np.random.default_rng()  # DET001 wherever it sits, but not DET011
