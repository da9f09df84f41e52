"""Perf harness: suite schema, artifact writing, CLI entry point."""

import json
import pathlib
import re

import pytest

from repro.bench import HOTPATH_BENCHMARKS, format_suite, run_hotpath_suite
from repro.cli import main
from repro.experiments import write_bench_artifact

ROOT = pathlib.Path(__file__).resolve().parents[2]
# A registered bench name in backticks, or a quoted ratio such as "4.87×".
NAME_OR_RATIO = re.compile(r"`(\w+)`|(\d+(?:\.\d+)?)×")


@pytest.fixture(scope="module")
def sync_suite():
    return run_hotpath_suite(quick=True, paths=["sync_post_window"])


class TestSuite:
    def test_payload_schema(self, sync_suite):
        assert sync_suite["suite"] == "hotpaths"
        assert sync_suite["quick"] is True
        (bench,) = sync_suite["benchmarks"]
        assert bench["name"] == "sync_post_window"
        assert set(bench["variants"]) == {"before", "after"}
        for variant in bench["variants"].values():
            assert variant["median_ms"] > 0
            assert variant["p95_ms"] >= variant["median_ms"]
        assert bench["parity"] is True
        assert sync_suite["summary"]["sync_post_window"]["speedup"] == (
            bench["speedup"]
        )

    def test_incremental_sync_is_faster(self, sync_suite):
        # The committed BENCH_hotpaths.json records ~15x; assert a floor
        # loose enough that machine load cannot flake the suite (the
        # incremental path reloads 4 rows instead of 272, so anything
        # near parity would indicate it silently fell back to a full
        # re-read).
        assert sync_suite["summary"]["sync_post_window"]["speedup"] >= 3.0

    def test_unknown_path_rejected(self):
        with pytest.raises(KeyError, match="unknown bench path"):
            run_hotpath_suite(quick=True, paths=["nope"])

    def test_all_paths_registered(self):
        assert set(HOTPATH_BENCHMARKS) == {
            "sync_post_window", "multi_bit_window", "radar_detection_sweep",
            "defended_vs_undefended", "timing_checker", "bfa_exact_eval",
            "bfa_gradient_pass", "bfa_blocked_step",
        }

    def test_format_suite_renders(self, sync_suite):
        text = format_suite(sync_suite)
        assert "sync_post_window" in text
        assert "speedup" in text


def _committed() -> dict:
    return json.loads((ROOT / "BENCH_hotpaths.json").read_text())


class TestCommittedArtifact:
    def test_names_match_registry(self):
        payload = _committed()
        assert payload["quick"] is False
        assert [b["name"] for b in payload["benchmarks"]] == list(
            HOTPATH_BENCHMARKS
        )
        assert set(payload["summary"]) == set(HOTPATH_BENCHMARKS)

    @pytest.mark.parametrize("doc", ["README.md", "docs/performance.md"])
    def test_quoted_ratios_match_artifact(self, doc):
        """Every ``N×`` figure that follows a registered bench name on
        the same line is that bench's committed ratio."""
        ratios = {
            name: entry.get("speedup", entry.get("overhead_x"))
            for name, entry in _committed()["summary"].items()
        }
        quotes = []
        for line in (ROOT / doc).read_text().splitlines():
            current = None
            for match in NAME_OR_RATIO.finditer(line):
                name, figure = match.groups()
                if name in ratios:
                    current = name
                elif figure is not None and current is not None:
                    quotes.append((current, float(figure)))
        assert quotes, f"{doc} quotes no bench ratio"
        wrong = [(n, f, ratios[n]) for n, f in quotes if f != ratios[n]]
        assert not wrong, f"{doc}: (bench, quoted, committed) {wrong}"


class TestArtifact:
    def test_write_bench_artifact(self, sync_suite, tmp_path):
        path = write_bench_artifact(sync_suite, directory=tmp_path)
        assert path == tmp_path / "BENCH_hotpaths.json"
        loaded = json.loads(path.read_text())
        assert loaded["benchmarks"][0]["name"] == "sync_post_window"

    def test_env_override_dir(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_BENCH_DIR", str(tmp_path / "bench"))
        from repro.experiments import default_bench_dir

        assert default_bench_dir() == tmp_path / "bench"


class TestCli:
    def test_bench_command(self, tmp_path, capsys):
        code = main([
            "bench", "--quick", "--paths", "sync_post_window",
            "--out", str(tmp_path),
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "repro bench" in out
        assert (tmp_path / "BENCH_hotpaths.json").exists()

    def test_bench_unknown_path_fails_cleanly(self, capsys):
        code = main(["bench", "--quick", "--paths", "bogus"])
        assert code == 2
        assert "unknown bench path" in capsys.readouterr().err
