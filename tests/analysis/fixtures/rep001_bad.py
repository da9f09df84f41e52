"""Fixture: REP001 violations — unseeded, constant-seeded or global-state RNG."""
import random

import numpy as np

SEED = 7
SEEDS = (7, 8, 9)
_NOISE = np.random.default_rng(42)  # expect[REP001]


def init_weights(shape):
    rng = np.random.default_rng()  # expect[REP001]
    return rng.normal(size=shape)


def legacy_noise(n):
    np.random.seed(0)  # expect[REP001]
    return np.random.randn(n)  # expect[REP001]


def pick(items):
    coin = random.Random()  # expect[REP001]
    return coin.choice(items)


def sample_floats(n):
    return [random.random() for _ in range(n)]  # expect[REP001]


def helper_reseeds(n):
    rng = np.random.default_rng(1234)  # expect[REP001]
    return rng.normal(size=n)


def helper_stdlib(items):
    rng = random.Random(42)  # expect[REP001]
    return rng.choice(items)


def helper_fresh_stream(n):
    entropy = np.random.SeedSequence()  # expect[REP001]
    return entropy.generate_state(n)


class Jitter:
    def __init__(self, scale):
        self.scale = scale
        self.rng = np.random.Generator(np.random.PCG64(SEED))  # expect[REP001]


def fixed_streams(n):
    return [np.random.default_rng(s) for s in range(3)]  # expect[REP001]


def constant_streams(n):
    rngs = []
    for seed in SEEDS:
        rngs.append(np.random.default_rng(seed))  # expect[REP001]
    return rngs
