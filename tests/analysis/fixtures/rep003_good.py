"""Fixture: REP003-clean — reads via env_str, mutation stays allowed."""
import contextlib
import os

from repro.utils.env import env_str


def cache_dir():
    return env_str("REPRO_CACHE_DIR", "")


def enabled():
    return env_str("REPRO_FEATURE", "1") != "0"


@contextlib.contextmanager
def scoped_override(var, value):
    saved = env_str(var)
    os.environ[var] = value  # Store: process-local override, not a read
    try:
        yield
    finally:
        os.environ.pop(var, None)  # mutation/restore is sanctioned
        if saved is not None:
            os.environ[var] = saved
