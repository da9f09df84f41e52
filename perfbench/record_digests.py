"""Record the default-seed artifact digests into ``digests.json``.

Run from the repository root after an intended change of outputs::

    python3 perfbench/record_digests.py

For each workload it runs the calls a default-seed benchmark run can
reach and stores the SHA-256 of each call's artifact under the call's
digest key.  Every result must pass its scenario's checks first.
"""

from __future__ import annotations

import json

import run
from workloads import DEFAULT_SEED, DIGESTS_PATH, WORKLOADS

# Calls recorded per workload: a full cycle where inputs repeat, else
# more calls than a 60-second run can make.
CALLS = {
    "tournament-logical": 12,
    "dram-sweep": 60,
    "sharded-sweep": 1,
    "defended-dram-attack": 12,
}


def main() -> None:
    run.isolate()
    recorded = {}
    for name, workload in WORKLOADS.items():
        run.fill(workload)
        done = run.run_pass(
            workload, run.new_session(workload, DEFAULT_SEED),
            calls=CALLS[name],
        )
        errors = [e for e in done.errors if e is not None]
        if errors:
            raise SystemExit(f"{name}: {errors[0]}")
        recorded[name] = {
            workload.digest_key(t): run.digest(text)
            for t, text in enumerate(done.texts)
        }
        print(f"{name}: {len(recorded[name])} digest(s)")
    DIGESTS_PATH.write_text(
        json.dumps({"seed": DEFAULT_SEED, "workloads": recorded}, indent=2,
                   sort_keys=True) + "\n"
    )


if __name__ == "__main__":
    main()
