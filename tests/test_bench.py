"""The timing script runs each case in a fresh process of its own."""

import multiprocessing.context
from pathlib import Path

from shadowproj import experiments, shadows

ROOT = Path(__file__).resolve().parent.parent


def test_a_bench_case_runs_in_one_fresh_process(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "scripts"))
    import bench

    started = []
    start = multiprocessing.context.SpawnProcess.start

    def counted_start(process):
        started.append(process)
        start(process)

    monkeypatch.setattr(multiprocessing.context.SpawnProcess, "start",
                        counted_start)
    result = bench.fresh(str(ROOT / "src"), bench.bench_distinct, 4, 1)
    assert len(started) == 1
    assert set(result) == {"median_ms", "min_ms", "distinct_rows"}
    assert result["median_ms"] == result["min_ms"] > 0   # one timed call
    shadow = shadows.acquire_shadow(experiments.prepare_fig4_state(4),
                                    bench.DISTINCT_SHOTS, 1)
    assert result["distinct_rows"] == len(shadows._distinct_snapshots(
        shadow)[0])
