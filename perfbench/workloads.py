"""The benchmark's workloads: what one trial runs, and how it is checked.

Every trial goes through the public :func:`repro.experiments.run_scenario`
path, exactly as ``python -m repro run`` does, and yields the scenario's
:class:`~repro.experiments.ScenarioResult`.  Its artifact text (the bytes
``repro run`` would write) is the output the benchmark checks: the
scenario's own ``run_checks`` must pass, and at the default seed its
SHA-256 must equal the one recorded in ``digests.json``.

Inputs derive only from ``--seed`` and the trial number.  The tournament
draws its scenario seeds from a small fixed pool, so the DNN-Defender
profiles those cells load are all filled before any timed run; the
defended attack draws from a pool of seeds on which its checks pass.
"""

from __future__ import annotations

import hashlib
import json
import pathlib
from dataclasses import dataclass
from typing import Callable

PRESET = "resnet20_cifar"
TOURNAMENT_DEFENSES = ("none", "dnn-defender", "shadow", "radar")
TOURNAMENT_ATTACKERS = ("random", "bfa", "smart-bfa")
TOURNAMENT_SEED_POOL = (0, 1, 2, 3)
# Semi-white-box seeds whose scenario checks pass (seeds 0-23 all do).
DEFENDED_SEED_POOL = tuple(range(12))
SHARDED_TRIALS = 8
SHARDED_WORKERS = 2
SHARDED_PARAMS = {"t_rh_grid": [1000]}
DEFAULT_SEED = 0
DIGESTS_PATH = pathlib.Path(__file__).with_name("digests.json")


def artifact_text(result) -> str:
    """The artifact bytes ``repro run`` writes for ``result``."""
    return json.dumps(result.to_json(), indent=2, sort_keys=True) + "\n"


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


class Session:
    """Caches and scratch space shared by the trials of one pass."""

    def __init__(self, seed: int, workdir: pathlib.Path):
        from repro.experiments import PresetCache, ProfileCache

        self.seed = seed
        self.workdir = workdir
        self.cache = PresetCache()
        self.profile_cache = ProfileCache()

    def run(self, scenario: str, seed: int, trials: int = 1, **kwargs):
        from repro.experiments import run_scenario

        return run_scenario(
            scenario, trials=trials, seed=seed, cache=self.cache,
            profile_cache=self.profile_cache, **kwargs,
        )


def _tournament(session: Session, t: int):
    # Trial t runs cell (t mod 4, t mod 3) of the 4 x 3 roster: 4 and 3
    # are coprime, so 12 trials cover every cell once and any 4
    # consecutive trials touch every defense.
    pool = TOURNAMENT_SEED_POOL
    return session.run(
        "tournament-matrix",
        seed=pool[(session.seed + t) % len(pool)],
        params={
            "defenses": TOURNAMENT_DEFENSES[t % len(TOURNAMENT_DEFENSES)],
            "attackers": TOURNAMENT_ATTACKERS[t % len(TOURNAMENT_ATTACKERS)],
        },
    )


def _dram_sweep(session: Session, t: int):
    return session.run("sweep-hammer-rate", seed=session.seed * 1000 + t)


def _sharded(session: Session, t: int, backend=None):
    from repro.experiments import ShardedBackend

    if backend is None:
        backend = ShardedBackend(
            SHARDED_WORKERS, workdir=session.workdir / "shards"
        )
    return session.run(
        "sweep-hammer-rate", seed=session.seed, trials=SHARDED_TRIALS,
        params=SHARDED_PARAMS, backend=backend,
    )


def _sharded_reference(session: Session) -> str:
    """Serial artifact every sharded batch must equal byte for byte."""
    from repro.experiments import SerialBackend

    return artifact_text(_sharded(session, 0, backend=SerialBackend()))


def _defended(session: Session, t: int):
    pool = DEFENDED_SEED_POOL
    return session.run("semi-whitebox", seed=pool[(session.seed + t) % len(pool)])


@dataclass(frozen=True)
class Workload:
    """One benchmark workload.

    ``call(session, t)`` runs trial ``t`` (for ``sharded-sweep`` a batch
    of ``trials_per_call`` scenario trials) and returns its result.
    ``digest_key(t)`` names the recorded default-seed digest the result
    must match; ``reference`` returns an artifact every call must equal.
    """

    name: str
    scenario: str
    call: Callable
    digest_key: Callable[[int], str]
    uses_preset: bool = False
    uses_profile: bool = False
    trials_per_call: int = 1
    reference: Callable | None = None


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "tournament-logical", "tournament-matrix", _tournament,
            digest_key=lambda t: str(t % 12),
            uses_preset=True, uses_profile=True,
        ),
        Workload(
            "dram-sweep", "sweep-hammer-rate", _dram_sweep,
            digest_key=str,
        ),
        Workload(
            "sharded-sweep", "sweep-hammer-rate", _sharded,
            digest_key=lambda t: "0",
            trials_per_call=SHARDED_TRIALS,
            reference=_sharded_reference,
        ),
        Workload(
            "defended-dram-attack", "semi-whitebox", _defended,
            digest_key=lambda t: str(t % len(DEFENDED_SEED_POOL)),
            uses_preset=True,
        ),
    )
}


def load_digests(path: pathlib.Path = DIGESTS_PATH) -> dict[str, dict[str, str]]:
    """Recorded default-seed artifact digests, per workload and trial key."""
    return json.loads(path.read_text())["workloads"]
