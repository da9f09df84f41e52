"""Hot-path perf microbenchmarks (the ``repro bench`` suite under pytest).

Runs the quick configuration of :func:`repro.bench.run_hotpath_suite` —
incremental sync vs full resync, row-batched vs per-bit multi-bit
hammer windows, vectorized vs pure-Python RADAR sweeps, and the
defended-window and timing-observer overheads — writes the payload to
the report sink, and asserts every pair kept functional parity.

Run directly for the command-line experience::

    PYTHONPATH=src python -m repro bench [--quick]
"""

from repro.bench import format_suite, run_hotpath_suite


def test_hotpath_suite_quick(report_sink):
    payload = run_hotpath_suite(quick=True)
    report_sink("hotpaths", format_suite(payload), payload)
    # Parity is the functional contract and is deterministic; the
    # wall-clock ratios are recorded in the JSON for trend review rather
    # than asserted, so machine load cannot flake the smoke run.
    for name, entry in payload["summary"].items():
        assert entry["parity"], f"{name}: the two paths disagree"
