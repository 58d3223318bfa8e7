"""Self-tests of the benchmark harness.

    python3 -m pytest benchmarks -q
"""

from __future__ import annotations

import json
import math
import subprocess
import sys
from itertools import islice
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402
import spans  # noqa: E402

sys.path.insert(0, str(run.SRC))


def _write_csv(path: Path, header, data) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\n")
        for row in data:
            fh.write(",".join(f"{v:.17g}" for v in row) + "\n")


def test_sweep_params_deterministic_and_stratified():
    first = run.sweep_params(7)
    assert first == run.sweep_params(7)
    assert first != run.sweep_params(8)
    assert len(first) == run.SWEEP_OPS
    assert len({a for a, _, _ in first}) == run.SWEEP_OPS
    lg_lo, lg_hi = math.log(run.SWEEP_G[0]), math.log(run.SWEEP_G[1])
    width = (lg_hi - lg_lo) / run.SWEEP_OPS
    strata = sorted(int((math.log(g) - lg_lo) // width) for _, g, _ in first)
    assert strata == list(range(run.SWEEP_OPS))
    assert all(run.SWEEP_ALPHA[0] < a < run.SWEEP_ALPHA[1] for a, _, _ in first)
    assert sorted(l for _, _, l in first) == [1] * (run.SWEEP_OPS // 2) + [2] * (run.SWEEP_OPS // 2)


def test_shuffled_passes_deterministic():
    a = list(islice(run.shuffled_passes(3, run.PRESETS), 5))
    assert a == list(islice(run.shuffled_passes(3, run.PRESETS), 5))
    assert all(sorted(batch) == sorted(run.PRESETS) for batch in a)


def test_wrapping_changes_no_output(tmp_path):
    import tjcm.scan
    from tjcm.params import ModelParams

    cfg = tjcm.scan.ScanConfig(
        params=ModelParams(alpha=3.0, g=0.7, l=2), t_max=5.0, steps=40,
        channels=run.ATOM_CHANNELS + ("jcm_sy", "harmonic_sy"))
    plain, traced = tmp_path / "plain.csv", tmp_path / "traced.csv"
    tjcm.scan.write_csv(tjcm.scan.run_scan(cfg), str(plain))
    original = tjcm.scan.run_scan
    recorder = spans.Recorder()
    patches = spans.install(recorder)
    try:
        tjcm.scan.write_csv(tjcm.scan.run_scan(cfg), str(traced))
    finally:
        spans.uninstall(patches)
    assert tjcm.scan.run_scan is original
    assert plain.read_bytes() == traced.read_bytes()
    totals = spans.layer_totals(recorder.spans)
    assert totals["params.calls"] == 1
    assert totals["blocks.n_blocks"] == cfg.params.n_max + 1
    assert totals["blocks.amplitudes"] == 4 * 40 * (cfg.params.n_max + 1)
    assert totals["reduced.terms"] == 2 * 40 * (cfg.params.n_max + 1)
    assert totals["jcm.calls"] == 2 * 40
    assert totals["scan.csv_bytes"] == traced.stat().st_size


def test_traced_cli_matches_cli(tmp_path):
    env = run.child_env()
    plain, traced = tmp_path / "plain.csv", tmp_path / "traced.csv"
    args = ["preset", "fig3", "--steps", "30"]
    subprocess.run(run.CLI + args + ["--out", str(plain)], check=True, env=env)
    subprocess.run(run.TRACED_CLI + [str(tmp_path / "spans.json"), "0"] + args
                   + ["--out", str(traced)], check=True, env=env)
    assert plain.read_bytes() == traced.read_bytes()


def test_forced_failure_counted(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "VERIFY_SETS", {"small": (1.0, 0.5, 1)})
    monkeypatch.setattr(run, "VERIFY_SAMPLES", 10)
    monkeypatch.setattr(run, "VERIFY_T_MAX", 1.0)
    monkeypatch.setattr(run, "CLI", run.CLI[:2] + [
        "import sys; sys.argv += ['--inject-fault']; " + run.CLI[2]])
    bench = run.Run("verify", seed=0, seconds=0.0, trace=False, work=tmp_path)
    bench.execute()
    assert len(bench.ops) == 1
    assert bench.ops[0]["error"].startswith("exit code 2")
    assert bench.ops[0]["work"] == 0


def test_traced_sweep_pass_in_worker(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "SWEEP_OPS", 2)
    bench = run.Run("sweep", seed=1, seconds=0.0, trace=True, work=tmp_path)
    bench.execute()
    assert [r["error"] for r in bench.ops] == [None] * 4
    assert sorted(r["traced"] for r in bench.ops) == [False, False, True, True]
    traced_ops = {r["op"] for r in bench.ops if r["traced"]}
    assert {s[spans.OP] for s in bench.spans} == traced_ops
    assert set(bench.bodies) == traced_ops


def test_reference_check_catches_drift(tmp_path):
    checker = run.Checker("presets", seed=1)
    ref = checker.presets
    header = [str(h) for h in ref["fig3_header"]]
    path = tmp_path / "fig3.csv"
    _write_csv(path, header, ref["fig3"])
    assert checker.preset("fig3", path)[0] is None
    _write_csv(path, header, ref["fig3"] + 1e-11)
    assert "deviation" in checker.preset("fig3", path)[0]
    _write_csv(path, [header[0], header[2], header[1]], ref["fig3"])
    assert "header" in checker.preset("fig3", path)[0]


def test_invariants_catch_unphysical_output():
    ref = run.load_reference("sweep")
    header, data = [str(h) for h in ref["header"]], ref["data"][0].copy()
    assert run.check_invariants(header, data) is None
    data[3, header.index("ex2")] = -1e-6
    assert "ex2" in run.check_invariants(header, data)


def test_tail_has_ten_beyond():
    value, pct, beyond = run.tail([float(i) for i in range(1, 26)])
    assert (value, beyond) == (15.0, 10)
    assert pct == pytest.approx(60.0)
    assert run.tail([3.0, 1.0, 2.0]) == (3.0, 100.0, 0)


def test_per_input_takes_median_time_and_checked_work():
    ops = [{"input": "a", "seconds": 2.0, "work": 5, "error": None},
           {"input": "a", "seconds": 1.0, "work": 0, "error": "bad"},
           {"input": "a", "seconds": 4.0, "work": 5, "error": None},
           {"input": "b", "seconds": 3.0, "work": 0, "error": "bad"}]
    assert run.per_input(ops) == {"a": (2.0, 5), "b": (3.0, 0)}


def test_self_time_subtracts_children():
    s = [[0, None, 0, "scan", "run_scan", 0.0, 10.0, {}],
         [1, 0, 0, "blocks", "eigen_table", 1.0, 3.0, {}],
         [2, 0, 0, "blocks", "evolve_grid", 2.5, 6.0, {"blocks": 5, "amplitudes": 40}],
         [3, None, 0, "scan", "write_csv", 10.0, 11.0, {"bytes": 9}]]
    assert spans.self_times(s) == {0: 5.0, 1: 2.0, 2: 3.5, 3: 1.0}
    totals = spans.layer_totals(s)
    assert totals["scan.self_s"] == 5.0
    assert totals["blocks.spectrum_s"] == 2.0
    assert totals["blocks.evolve_s"] == 3.5
    assert totals["top_s"] == 11.0
    assert totals["scan.csv_bytes"] == 9


def test_rk4_steps_matches_integrator_split():
    assert spans.rk4_steps(0.3, [0.5, 0.5, 1.0, 2.0]) == 2 + 2 + 4


def test_metric_lists_match_benchmark_json():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
