"""Fast self-test of the benchmark: python3 -m pytest perfbench -q

Runs shrunken versions of the three workloads, traced and untraced, and
checks that together they emit exactly the metric names BENCHMARK.json
lists; checks the self-time arithmetic on a synthetic span tree; and
checks the exit code without sources.
"""

import io
import json
import shutil
import subprocess
import sys
from contextlib import redirect_stdout
from pathlib import Path

import numpy as np
import pytest

import run

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

assert run.import_sources()

import layers  # noqa: E402
import workloads  # noqa: E402
from fieldalign import gpa, simulation  # noqa: E402
from tracer import Tracer, self_times  # noqa: E402


def shrunken():
    sim2d = workloads.Sim2D()
    sim2d.hyper = simulation.sim2d_hyper(zeta=90.0, n_iterations=400)
    sim3d = workloads.Sim3D()
    sim3d.hyper = simulation.sim3d_hyper(beta=0.04, zeta=70.0, n_iterations=200)
    sim3d.operations = 1
    mols = workloads.Molecules()
    mols.align_settings = ("iterations=300", "restart_check=100", "weight_initial_iters=50")
    mols.gpa_settings = ("step1_iterations=300", "step1_restart_check=100",
                         "refine_iterations=40", "tol=0.05")
    return {"sim2d": sim2d, "sim3d": sim3d, "molecules": mols}


@pytest.fixture(scope="module")
def outputs():
    small = shrunken()
    saved = dict(workloads.WORKLOADS), run.SETUP_REPEATS
    workloads.WORKLOADS.update(small)
    run.SETUP_REPEATS = 1
    results = {}
    try:
        for name in small:
            for trace in ("0", "1"):
                buf = io.StringIO()
                with redirect_stdout(buf):
                    code = run.main(["--workload", name, "--seed", "3",
                                     "--seconds", "0", "--trace", trace])
                results[name, trace] = code, json.loads(buf.getvalue().splitlines()[-1])
    finally:
        workloads.WORKLOADS.clear()
        workloads.WORKLOADS.update(saved[0])
        run.SETUP_REPEATS = saved[1]
    return results


@pytest.mark.parametrize("workload", ["sim2d", "sim3d", "molecules"])
def test_shrunken_workloads_emit_every_metric(outputs, workload):
    e2e = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    for trace, expected in (("0", e2e), ("1", per_layer)):
        code, result = outputs[workload, trace]
        assert code == 0 and result["correct"], result
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["attempted"] >= 1 and result["failed"] == 0
        got = {k: v["unit"] for k, v in result["metrics"].items()}
        assert got == expected
        assert all(np.isfinite(v["value"]) for v in result["metrics"].values())
    assert all(outputs[workload, "0"][1]["metrics"][k]["value"] > 0 for k in e2e)


def test_traced_layers_see_their_workloads(outputs):
    def value(workload, metric):
        return outputs[workload, "1"][1]["metrics"][metric]["value"]

    assert value("sim2d", "mcmc.set_rho.calls") > 0
    assert value("sim2d", "simulation.sample_grf.self_s") > 0
    assert value("sim3d", "geometry.rotation_matrix.calls") > 0
    assert value("molecules", "gpa.passes") >= 1
    assert value("molecules", "cli.align-all.total_s") > 0
    assert value("molecules", "molio.parse_molecule_file.self_s") > 0
    for workload in ("sim2d", "sim3d", "molecules"):
        assert value(workload, "mcmc.step_mask.b.calls") > 0
        assert value(workload, "mcmc.chain.sweeps") > 0


def test_per_layer_table_matches_benchmark_json():
    table = layers.metric_table()
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == {
        name: unit for name, (unit, _span) in table.items()
    }


def test_self_time_of_a_synthetic_span_tree():
    t = Tracer()
    root = t.record("root", 0.0, 10.0)
    a = t.record("a", 1.0, 3.0, root)
    t.record("a.child", 1.5, 2.0, a)
    t.record("b", 2.0, 4.0, root)  # overlaps a: covered time is the union [1, 4]
    t.record("c", 9.0, 12.0, root)  # runs past the parent: only [9, 10] counts
    spans = t.arrays()
    got = self_times(spans["parent"], spans["start"], spans["end"])
    np.testing.assert_allclose(got, [10 - 3 - 1, 2 - 0.5, 0.5, 2.0, 3.0])
    per_name = t.per_name()
    assert per_name["root"] == {"calls": 1, "total_s": 10.0, "self_s": 6.0}


def test_wrapper_nesting_builds_parent_links():
    t = Tracer()
    inner = t.traced(lambda x: x + 1, "inner")
    outer = t.traced(lambda x: inner(x) * 2, "outer")
    assert outer(1) == 4
    spans = t.arrays()
    # spans are stored in opening order: outer first, inner inside it
    assert [t.names[i] for i in spans["name_id"]] == ["outer", "inner"]
    assert spans["parent"].tolist() == [-1, 0]
    assert np.all(spans["end"] >= spans["start"])


def test_missing_function_is_reported_absent(monkeypatch):
    monkeypatch.delattr(gpa, "multi_carbo")
    t = Tracer()
    layers.instrument(t)
    t.unpatch()
    assert t.absent == {"gpa.multi_carbo"}
    values = layers.layer_metrics(t, 1, 0.0)
    assert values["gpa.multi_carbo.self_s"] == 0.0


def test_exits_nonzero_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", "sim3d", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
