"""Execution backends: shard manifests, merge validation, determinism.

The headline guarantee under test: serial, process-pool, and sharded
(subprocess + merge) execution of the same (scenario, trials, seed,
params) produce *byte-identical* aggregate artifacts.
"""

import json

import pytest

from repro.experiments import (
    ProcessPoolBackend,
    SerialBackend,
    ShardedBackend,
    merge_shards,
    parse_shard,
    run_chunk,
    run_scenario,
    run_shard,
    scenario,
    shard_indices,
    trial_seed,
    unregister,
    write_artifact,
)
from repro.experiments.backends import (
    chunk_stream_path,
    discover_chunks,
    discover_shards,
    discover_streams,
    read_stream,
    shard_stream_path,
)

# Registered at module import so forked worker processes inherit it.
toy = scenario(
    "backend-toy",
    title="unit-test scenario for backends",
    tags=("test",),
    default_trials=4,
)(lambda ctx: {
    "metrics": {
        "draw": float(ctx.rng().normal()),
        "trial": float(ctx.trial_index),
    },
    "detail": {"trial": ctx.trial_index},
})


def teardown_module(module):
    unregister("backend-toy")


class TestShardManifests:
    def test_parse_shard(self):
        assert parse_shard("0/2") == (0, 2)
        assert parse_shard("3/4") == (3, 4)

    @pytest.mark.parametrize("text", ["2/2", "-1/2", "0/0", "x/2", "1", "1/"])
    def test_parse_shard_rejects(self, text):
        with pytest.raises(ValueError):
            parse_shard(text)

    def test_strided_partition_covers_everything_once(self):
        count = 3
        shards = [shard_indices(10, i, count) for i in range(count)]
        assert shards[0] == [0, 3, 6, 9]
        assert sorted(i for s in shards for i in s) == list(range(10))

    def test_more_shards_than_trials_leaves_empty_shards(self):
        assert shard_indices(2, 2, 4) == []


class TestRunShardAndMerge:
    def _run_all_shards(self, tmp_path, count=2, trials=4, seed=9):
        return [
            run_shard(
                "backend-toy", shard=(i, count), trials=trials, seed=seed,
                directory=tmp_path,
            )
            for i in range(count)
        ]

    def test_shard_stream_header_and_records(self, tmp_path):
        path = self._run_all_shards(tmp_path)[0]
        assert path == shard_stream_path(tmp_path, "backend-toy", 0, 2)
        header, records = read_stream(path)
        assert header["scenario"] == "backend-toy"
        assert header["seed"] == 9
        assert header["trials"] == 4
        assert header["shard"] == {
            "index": 0, "count": 2, "trial_indices": [0, 2],
        }
        assert sorted(records) == [0, 2]
        assert records[0]["seed"] == trial_seed(9, 0)

    def test_merge_equals_serial_run(self, tmp_path):
        paths = self._run_all_shards(tmp_path)
        merged = merge_shards(paths, scenario="backend-toy")
        serial = run_scenario("backend-toy", trials=4, seed=9)
        assert merged.per_trial_metrics == serial.per_trial_metrics
        assert merged.detail == serial.detail
        assert merged.to_json() == serial.to_json()

    def test_merge_discovers_shards(self, tmp_path):
        self._run_all_shards(tmp_path)
        found = discover_shards(tmp_path, "backend-toy")
        assert len(found) == 2
        assert merge_shards(found).trials == 4

    def test_merge_rejects_missing_shard(self, tmp_path):
        paths = self._run_all_shards(tmp_path)
        with pytest.raises(ValueError, match="missing trial"):
            merge_shards([paths[0]])

    def test_merge_rejects_duplicate_shard(self, tmp_path):
        paths = self._run_all_shards(tmp_path)
        with pytest.raises(ValueError, match="duplicate shard"):
            merge_shards([paths[0], paths[0]])

    def test_merge_rejects_mismatched_seed(self, tmp_path):
        first = run_shard(
            "backend-toy", shard=(0, 2), trials=4, seed=1,
            directory=tmp_path,
        )
        other_dir = tmp_path / "other"
        second = run_shard(
            "backend-toy", shard=(1, 2), trials=4, seed=2,
            directory=other_dir,
        )
        with pytest.raises(ValueError, match="seed"):
            merge_shards([first, second])

    def test_merge_rejects_tampered_trial_seed(self, tmp_path):
        paths = self._run_all_shards(tmp_path)
        lines = paths[0].read_text().splitlines()
        record = json.loads(lines[1])
        record["seed"] += 1
        lines[1] = json.dumps(record)
        paths[0].write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match="derives"):
            merge_shards(paths)

    def test_merge_rejects_foreign_trial_index(self, tmp_path):
        paths = self._run_all_shards(tmp_path)
        lines = paths[0].read_text().splitlines()
        record = json.loads(lines[1])
        record["trial_index"] = 1  # owned by shard 1, not shard 0
        record["seed"] = trial_seed(9, 1)
        lines[1] = json.dumps(record)
        paths[0].write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match="does not belong"):
            merge_shards(paths)

    def test_shard_resume_skips_completed_trials(self, tmp_path):
        path = run_shard(
            "backend-toy", shard=(0, 2), trials=4, seed=9,
            directory=tmp_path,
        )
        before = path.read_text()
        again = run_shard(
            "backend-toy", shard=(0, 2), trials=4, seed=9,
            directory=tmp_path, resume=True,
        )
        assert again == path
        assert path.read_text() == before  # nothing re-ran, nothing appended


class TestRunChunkAndMerge:
    """Chunk leases stream like shards and merge interchangeably."""

    def test_chunk_stream_header_and_records(self, tmp_path):
        path = run_chunk(
            "backend-toy", chunk_id=0, indices=[0, 2], trials=4, seed=9,
            directory=tmp_path,
        )
        assert path == chunk_stream_path(tmp_path, "backend-toy", 0)
        header, records = read_stream(path)
        assert header["scenario"] == "backend-toy"
        assert header["seed"] == 9
        assert header["trials"] == 4
        assert header["chunk"] == {"id": 0, "trial_indices": [0, 2]}
        assert sorted(records) == [0, 2]
        assert records[0]["seed"] == trial_seed(9, 0)

    def test_chunk_rejects_out_of_range_indices(self, tmp_path):
        with pytest.raises(ValueError, match="out of range"):
            run_chunk(
                "backend-toy", chunk_id=0, indices=[0, 4], trials=4,
                directory=tmp_path,
            )

    def test_chunk_resume_skips_completed_trials(self, tmp_path):
        path = run_chunk(
            "backend-toy", chunk_id=3, indices=[1, 3], trials=4, seed=9,
            directory=tmp_path,
        )
        before = path.read_text()
        again = run_chunk(
            "backend-toy", chunk_id=3, indices=[1, 3], trials=4, seed=9,
            directory=tmp_path, resume=True,
        )
        assert again == path
        assert path.read_text() == before  # replayed, nothing re-ran

    def test_merge_fuses_chunk_streams(self, tmp_path):
        paths = [
            run_chunk("backend-toy", chunk_id=k, indices=indices, trials=4,
                      seed=9, directory=tmp_path)
            for k, indices in enumerate([[0, 1], [2, 3]])
        ]
        merged = merge_shards(paths, scenario="backend-toy")
        serial = run_scenario("backend-toy", trials=4, seed=9)
        assert merged.to_json() == serial.to_json()

    def test_merge_mixes_shard_and_chunk_streams(self, tmp_path):
        shard = run_shard(
            "backend-toy", shard=(0, 2), trials=4, seed=9,
            directory=tmp_path,
        )  # owns 0, 2
        chunk = run_chunk(
            "backend-toy", chunk_id=7, indices=[1, 3], trials=4, seed=9,
            directory=tmp_path,
        )
        merged = merge_shards([shard, chunk], scenario="backend-toy")
        serial = run_scenario("backend-toy", trials=4, seed=9)
        assert merged.to_json() == serial.to_json()

    def test_merge_tolerates_identical_duplicates(self, tmp_path):
        """A salvaged attempt plus its retry may both record a trial;
        identical duplicate records merge cleanly."""
        a = run_chunk("backend-toy", chunk_id=0, indices=[0, 1, 2, 3],
                      trials=4, seed=9, directory=tmp_path)
        b = run_chunk("backend-toy", chunk_id=1, indices=[1, 3], trials=4,
                      seed=9, directory=tmp_path)
        merged = merge_shards([a, b], scenario="backend-toy")
        assert merged.to_json() == run_scenario(
            "backend-toy", trials=4, seed=9
        ).to_json()

    def test_merge_rejects_conflicting_duplicates(self, tmp_path):
        a = run_chunk("backend-toy", chunk_id=0, indices=[0, 1, 2, 3],
                      trials=4, seed=9, directory=tmp_path)
        b = run_chunk("backend-toy", chunk_id=1, indices=[1], trials=4,
                      seed=9, directory=tmp_path)
        lines = b.read_text().splitlines()
        record = json.loads(lines[1])
        record["metrics"]["draw"] += 1.0
        lines[1] = json.dumps(record)
        b.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match="conflicting"):
            merge_shards([a, b])

    def test_merge_rejects_foreign_chunk_trial(self, tmp_path):
        path = run_chunk("backend-toy", chunk_id=0, indices=[0, 1],
                         trials=4, seed=9, directory=tmp_path)
        lines = path.read_text().splitlines()
        record = json.loads(lines[1])
        record["trial_index"] = 2  # not in the chunk manifest
        record["seed"] = trial_seed(9, 2)
        lines[1] = json.dumps(record)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match="does not belong"):
            merge_shards([path], scenario="backend-toy")

    def test_discover_streams_finds_both_kinds(self, tmp_path):
        run_shard("backend-toy", shard=(0, 2), trials=4, seed=9,
                  directory=tmp_path)
        run_chunk("backend-toy", chunk_id=0, indices=[1, 3], trials=4,
                  seed=9, directory=tmp_path)
        assert len(discover_shards(tmp_path, "backend-toy")) == 1
        assert len(discover_chunks(tmp_path, "backend-toy")) == 1
        merged = merge_shards(discover_streams(tmp_path, "backend-toy"))
        assert merged.trials == 4


class TestCrossBackendDeterminism:
    """The acceptance criterion: identical artifacts from every backend."""

    def test_serial_pool_sharded_artifacts_are_byte_identical(self, tmp_path):
        results = {
            "serial": run_scenario(
                "fig6", trials=3, seed=3, backend=SerialBackend(),
            ),
            "pool": run_scenario(
                "fig6", trials=3, seed=3, backend=ProcessPoolBackend(2),
            ),
            # Sharded: two `python -m repro run fig6 --shard i/2`
            # subprocesses stream JSONL, read back and aggregated.
            "sharded": run_scenario(
                "fig6", trials=3, seed=3,
                backend=ShardedBackend(2, workdir=tmp_path / "shards"),
            ),
        }
        artifacts = {}
        for label, result in results.items():
            directory = tmp_path / label
            artifacts[label] = write_artifact(
                result, directory=directory
            ).read_bytes()
        assert artifacts["serial"] == artifacts["pool"]
        assert artifacts["serial"] == artifacts["sharded"]

    def test_sharded_backend_round_trips_non_cli_params(self, tmp_path):
        """Tuple grids and numeric strings must survive the subprocess
        hop losslessly (JSON transport, not --param coercion)."""
        params = {"t_rh_grid": (1000, 2000), "n_targets": 8, "tag": "32"}
        sharded = run_scenario(
            "sweep-hammer-rate", trials=2, seed=4, params=params,
            backend=ShardedBackend(2, workdir=tmp_path / "shards"),
        )
        serial = run_scenario(
            "sweep-hammer-rate", trials=2, seed=4, params=params,
        )
        assert sharded.to_json() == serial.to_json()
        assert sharded.params["tag"] == "32"  # not coerced to int 32

    def test_sharded_backend_resume_replays_existing_streams(self, tmp_path):
        workdir = tmp_path / "shards"
        for i in range(2):
            run_shard(
                "fig6", shard=(i, 2), trials=3, seed=3, directory=workdir,
            )
        before = {
            p.name: p.read_text() for p in discover_shards(workdir, "fig6")
        }
        result = run_scenario(
            "fig6", trials=3, seed=3,
            backend=ShardedBackend(2, workdir=workdir, resume=True),
        )
        after = {
            p.name: p.read_text() for p in discover_shards(workdir, "fig6")
        }
        assert after == before  # workers replayed; nothing re-ran/appended
        serial = run_scenario("fig6", trials=3, seed=3)
        assert result.to_json() == serial.to_json()

    def test_numpy_params_are_normalised_not_fatal(self, tmp_path):
        import numpy as np

        serial = run_scenario(
            "backend-toy", trials=2, seed=1,
            params={"n": np.int64(16), "grid": np.asarray([1, 2])},
        )
        assert serial.params == {"n": 16, "grid": [1, 2]}
        with pytest.raises(TypeError, match="not JSON-serializable"):
            run_scenario(
                "backend-toy", trials=2, seed=1, params={"bad": object()},
            )

    def test_sharded_backend_reports_worker_failure(self, tmp_path):
        with pytest.raises((RuntimeError, ValueError)):
            # backend-toy is only registered in this process; the shard
            # subprocesses cannot resolve it and must fail loudly.
            run_scenario(
                "backend-toy", trials=2, seed=0,
                backend=ShardedBackend(2, workdir=tmp_path),
            )

    def test_sharded_backend_imports_scenario_modules(
        self, tmp_path, monkeypatch
    ):
        """REPRO_SCENARIO_MODULES makes extra scenarios visible to shard
        worker subprocesses (and any fresh interpreter)."""
        module = tmp_path / "extra_scenarios_mod.py"
        module.write_text(
            "from repro.experiments import scenario\n"
            "scenario('plugin-toy', tags=('test',), default_trials=2)(\n"
            "    lambda ctx: {'metrics': {'seed': float(ctx.seed)},\n"
            "                 'detail': {}}\n"
            ")\n"
        )
        monkeypatch.setenv("PYTHONPATH", str(tmp_path))
        monkeypatch.setenv("REPRO_SCENARIO_MODULES", "extra_scenarios_mod")
        monkeypatch.syspath_prepend(str(tmp_path))
        import extra_scenarios_mod  # noqa: F401  (registers in-process too)

        try:
            result = run_scenario(
                "plugin-toy", trials=2, seed=5,
                backend=ShardedBackend(2, workdir=tmp_path / "shards"),
            )
            serial = run_scenario("plugin-toy", trials=2, seed=5)
            assert result.to_json() == serial.to_json()
        finally:
            unregister("plugin-toy")
            import sys

            sys.modules.pop("extra_scenarios_mod", None)
