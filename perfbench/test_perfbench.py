"""Self-test of the benchmark: python3 -m pytest perfbench/test_perfbench.py"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
from tracing import COUNTERS  # noqa: E402


def _bench(workload, seed, trace, seconds="0.5"):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", seconds, "--trace", str(trace)],
        cwd=run.ROOT, capture_output=True, text=True, timeout=170, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_benchmark_json_matches_the_benchmark():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert [w["why"] for w in spec["workloads"]] == [w.why for w in run.WORKLOADS.values()]
    result = _bench("sim_location", 3, 0)
    assert result["correct"] and result["failed"] == 0
    assert set(result["metrics"]) == {m["name"] for m in spec["end_to_end"]}
    for m in spec["end_to_end"]:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
    layers = {f"{layer}.{kind}" for layer in run.LAYERS for kind in ("calls", "self_pct")}
    layers |= {f"{layer}.{counter}" for layer, (counter, _) in COUNTERS.items()}
    layers |= {"trace.overhead_s", "trace.coverage_pct"}
    assert {m["name"] for m in spec["per_layer"]} == layers


def test_counts_repeat_exactly_at_one_seed():
    first, second = (_bench("sim_grand_mean_ties", 5, 1)["metrics"] for _ in range(2))
    counts = {k: v["value"] for k, v in first.items() if v["unit"] == "count"}
    assert counts["optimize.RowOrder.is_feasible.calls"] > 0
    assert counts == {k: second[k]["value"] for k in counts}


@pytest.mark.parametrize("name", list(run.WORKLOADS))
def test_seed_determines_inputs(name, tmp_path):
    workload = run.WORKLOADS[name]

    def generated(seed, sub):
        (tmp_path / sub).mkdir()
        workload.setup(seed, tmp_path / sub)
        return {p.name: p.read_bytes() for p in sorted((tmp_path / sub).iterdir())}

    one, again, other = generated(1, "a"), generated(1, "b"), generated(2, "c")
    assert one == again
    assert one.keys() == other.keys()
    assert all(one[k] != other[k] for k in one)
