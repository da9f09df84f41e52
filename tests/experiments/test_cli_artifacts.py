"""CLI surface and JSON artifacts (cheap scenarios only)."""

import json
import warnings

import pytest

from repro.cli import _parse_params, main
from repro.defenses.registry import get_defense
from repro.experiments import load_artifact, run_scenario, write_artifact
from repro.experiments.artifacts import default_results_dir
from repro.experiments.tournament import tournament_cells


class TestParamParsing:
    def test_coercion(self):
        params = _parse_params(["trials=3", "rate=0.5", "model=vgg11_cifar"])
        assert params == {"trials": 3, "rate": 0.5, "model": "vgg11_cifar"}

    def test_malformed_pair_exits(self):
        with pytest.raises(SystemExit):
            _parse_params(["no-equals-sign"])


class TestListCommand:
    def test_lists_at_least_eight_scenarios(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        lines = [l for l in out.splitlines() if l and not l.startswith("\n")]
        assert sum(1 for l in lines if l.split() and "scenarios;" not in l) >= 8
        assert "fig8a" in out and "table3" in out

    def test_tag_filter(self, capsys):
        assert main(["list", "--tag", "sweep"]) == 0
        out = capsys.readouterr().out
        assert "sweep-hammer-rate" in out
        assert "fig1a" not in out


class TestRunCommand:
    def test_run_writes_artifact(self, tmp_path, capsys):
        code = main([
            "run", "fig1a", "--trials", "2", "--out", str(tmp_path), "--quiet",
        ])
        assert code == 0
        artifact = json.loads((tmp_path / "fig1a.json").read_text())
        assert artifact["scenario"] == "fig1a"
        assert artifact["trials"] == 2
        assert artifact["check_error"] is None
        ratio = artifact["metrics"]["ratio_ddr3_new_over_lpddr4_new"]
        assert 4.0 < ratio["mean"] < 5.0
        assert len(ratio["values"]) == 2

    def test_unknown_scenario_fails_fast(self, tmp_path, capsys):
        assert main(["run", "not-a-scenario", "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert "unknown scenario" in err and "fig8a" in err


class TestArtifacts:
    def test_round_trip(self, tmp_path):
        result = run_scenario("fig1a", trials=1)
        path = write_artifact(result, directory=tmp_path)
        assert path.name == "fig1a.json"
        loaded = load_artifact(path)
        assert loaded == result.to_json()

    def test_results_dir_env_override(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_RESULTS_DIR", str(tmp_path / "override"))
        assert default_results_dir() == tmp_path / "override"


class TestAtomicArtifacts:
    """Artifact writes go through tmp-file + os.replace: no reader (or
    crash) can ever observe a truncated JSON document."""

    def test_concurrent_writers_never_expose_partial_json(self, tmp_path):
        import threading

        from repro.utils.io import atomic_write_text

        path = tmp_path / "artifact.json"
        payloads = [
            json.dumps({"writer": w, "blob": "x" * 20000}) + "\n"
            for w in range(4)
        ]
        atomic_write_text(path, payloads[0])
        stop = threading.Event()
        bad: list[str] = []

        def reader():
            while not stop.is_set():
                try:
                    json.loads(path.read_text())
                except json.JSONDecodeError as exc:  # pragma: no cover
                    bad.append(str(exc))

        def writer(payload: str):
            for _ in range(40):
                atomic_write_text(path, payload)

        threads = [threading.Thread(target=reader)] + [
            threading.Thread(target=writer, args=(p,)) for p in payloads
        ]
        for t in threads:
            t.start()
        for t in threads[1:]:
            t.join()
        stop.set()
        threads[0].join()
        assert not bad, f"reader saw partial JSON: {bad[0]}"
        assert json.loads(path.read_text())["blob"].startswith("x")
        # No tmp litter left behind.
        assert list(tmp_path.glob("*.tmp")) == []

    def test_failed_write_preserves_existing_artifact(self, tmp_path,
                                                      monkeypatch):
        import os as _os

        from repro.experiments import artifacts

        result = run_scenario("fig1a", trials=1)
        path = write_artifact(result, directory=tmp_path)
        before = path.read_bytes()

        def boom(*args, **kwargs):
            raise OSError("disk full")

        monkeypatch.setattr(artifacts.os, "replace", boom)
        with pytest.raises(OSError, match="disk full"):
            write_artifact(result, directory=tmp_path)
        monkeypatch.undo()
        assert path.read_bytes() == before  # old artifact untouched
        assert list(tmp_path.glob("*.tmp")) == []  # tmp cleaned up


class TestSchedulerFlags:
    """CLI validation of the sharded-scheduler and chunk-worker flags."""

    @pytest.mark.parametrize("argv", [
        ["run", "fig1a", "--shards", "2"],
        ["run", "fig1a", "--shard-timeout", "5"],
        ["run", "fig1a", "--retries", "2"],
        ["run", "fig1a", "--chunk-size", "2"],
        ["run", "fig1a", "--backend", "process", "--shards", "2"],
    ])
    def test_scheduler_flags_require_sharded_backend(self, argv, tmp_path):
        with pytest.raises(SystemExit):
            main(argv + ["--out", str(tmp_path)])

    @pytest.mark.parametrize("argv", [
        ["run", "fig1a", "--chunk", "0"],
        ["run", "fig1a", "--trial-indices", "0,1"],
        ["run", "fig1a", "--chunk", "0", "--trial-indices", "0,1",
         "--shard", "0/2"],
        ["run", "fig1a", "--chunk", "0", "--trial-indices", "0,1",
         "--backend", "serial"],
        ["run", "fig1a", "--chunk", "0", "--trial-indices", "0,1",
         "--retries", "1"],
        ["run", "fig1a", "--chunk", "0", "--trial-indices", "nope"],
        ["run", "fig1a", "--chunk", "0", "--trial-indices", ","],
    ])
    def test_chunk_worker_flag_validation(self, argv, tmp_path):
        with pytest.raises(SystemExit):
            main(argv + ["--out", str(tmp_path)])

    @pytest.mark.parametrize("param,serial_error", [
        ("attackers=", lambda: tournament_cells({"attackers": ""})),
        ("defenses=nope", lambda: get_defense("nope")),
    ], ids=["empty-attackers", "unknown-defense"])
    def test_bad_roster_fails_before_any_worker_launches(
        self, param, serial_error, tmp_path, capsys
    ):
        # The serial trial raises exactly this error; the sharded
        # scheduler must report it the same way, not retry workers on it.
        with pytest.raises((KeyError, ValueError)) as exc:
            serial_error()
        out = tmp_path / "out"
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            code = main([
                "run", "tournament-matrix", "--param", param,
                "--backend", "sharded", "--shards", "2", "--trials", "2",
                "--retries", "1", "--out", str(out), "--quiet",
            ])
        assert code == 2
        assert capsys.readouterr().err == f"error: {exc.value.args[0]}\n"
        # No chunk stream, log or workdir: the error came first.
        assert not out.exists()

    def test_chunk_worker_streams_and_merge_discovers_chunks(
        self, tmp_path, capsys
    ):
        for chunk_id, indices in enumerate(["0,1", "2,3"]):
            code = main([
                "run", "fig1a", "--trials", "4", "--seed", "2",
                "--chunk", str(chunk_id), "--trial-indices", indices,
                "--out", str(tmp_path), "--quiet",
            ])
            assert code == 0
        assert len(list(tmp_path.glob("fig1a.chunk-*.trials.jsonl"))) == 2
        assert main([
            "merge", "fig1a", "--out", str(tmp_path), "--quiet",
        ]) == 0
        merged = json.loads((tmp_path / "fig1a.json").read_text())
        serial_dir = tmp_path / "serial"
        assert main([
            "run", "fig1a", "--trials", "4", "--seed", "2",
            "--out", str(serial_dir), "--quiet",
        ]) == 0
        serial = json.loads((serial_dir / "fig1a.json").read_text())
        assert merged == serial


class TestTraceCommand:
    def test_record_replay_show_round_trip(self, tmp_path, capsys):
        out = tmp_path / "hammer.jsonl"
        assert main([
            "trace", "record", "--workload", "hammer-window",
            "--out", str(out), "--check", "strict",
        ]) == 0
        assert "recorded hammer-window" in capsys.readouterr().out
        assert main(["trace", "replay", str(out), "--check", "strict"]) == 0
        assert "byte-identically" in capsys.readouterr().out
        assert main(["trace", "show", str(out), "--limit", "3"]) == 0
        shown = capsys.readouterr().out
        assert "format 1" in shown and "stats:" in shown

    def test_unknown_workload_exits_two(self, tmp_path, capsys):
        assert main([
            "trace", "record", "--workload", "nope",
            "--out", str(tmp_path / "x.jsonl"),
        ]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "hammer-window" in err

    def test_missing_trace_file_exits_two(self, tmp_path, capsys):
        assert main(["trace", "replay", str(tmp_path / "gone.jsonl")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: no such trace file")
