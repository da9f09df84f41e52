"""Fixture: REP001-clean — every generator seeded from a parameter."""
import random

import numpy as np


def init_weights(shape, rng):
    return rng.normal(size=shape)


def make_rng(seed):
    return np.random.default_rng(seed)


def make_rng_kw(seed):
    return np.random.default_rng(seed=seed)


def pick(items, seed):
    return random.Random(seed).choice(items)


def run_trial(ctx):
    child_seed = ctx.seed + 1
    return np.random.default_rng(child_seed).normal()


def helper_derives(seed):
    stream = np.random.SeedSequence(seed + 1)
    return np.random.default_rng(stream).normal()


class Jitter:
    # A fixed, documented seed routed through a parameter default.
    def __init__(self, seed=0):
        self.rng = np.random.Generator(np.random.PCG64(seed))
