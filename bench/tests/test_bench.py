"""Self-tests of the benchmark: names and units, reproducible inputs, smoke runs.

    python3 -m pytest bench/tests -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import harness  # noqa: E402
import inputs as I  # noqa: E402
import layers  # noqa: E402
import oracles as O  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def _run(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=600)


def _result(proc):
    assert proc.returncode == 0, proc.stderr[-3000:]
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.fixture(scope="module", params=WORKLOADS)
def smoke(request):
    """A tiny run of one workload, untraced and traced."""
    name = request.param
    plain = _result(_run("--workload", name, "--seed", "3", "--seconds", "0.5", "--trace", "0"))
    traced = _result(_run("--workload", name, "--seed", "3", "--seconds", "0.5", "--trace", "1"))
    return name, plain, traced


def test_smoke_run_passes_and_emits_every_metric_with_its_unit(smoke):
    name, plain, traced = smoke
    for res, spec in ((plain, SPEC["end_to_end"]), (traced, SPEC["per_layer"])):
        assert set(res) == {"correct", "attempted", "failed", "metrics"}
        assert res["correct"] is True, name
        assert res["attempted"] >= 1 and res["failed"] == 0
        assert list(res["metrics"]) == [m["name"] for m in spec]
        for m in spec:
            assert res["metrics"][m["name"]]["unit"] == m["unit"]
    for m in SPEC["end_to_end"]:
        assert plain["metrics"][m["name"]]["value"] > 0, (name, m["name"])


def test_benchmark_json_matches_the_emitted_per_layer_metrics():
    assert [m["name"] for m in SPEC["per_layer"]] == list(layers.PER_LAYER)
    for m in SPEC["per_layer"]:
        assert (m["unit"], m["better"]) == layers.PER_LAYER[m["name"]]


def _build(name, seed, tmp_path):
    if name == "cli-calls":
        work = tmp_path / f"s{seed}-{len(list(tmp_path.iterdir()))}"
        work.mkdir()
        return workloads.build_cli_calls(seed, 1, ROOT / "src", work)
    builder = {"verify-suites": workloads.build_verify_suites,
               "wide-slots": workloads.build_wide_slots,
               "deep-orders": workloads.build_deep_orders}[name]
    return builder(seed, 1)


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_same_seed_same_inputs_other_seed_other_inputs(name, tmp_path):
    assert _build(name, 11, tmp_path).digest == _build(name, 11, tmp_path).digest
    assert _build(name, 11, tmp_path).digest != _build(name, 12, tmp_path).digest


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_known_defects_run_only_in_the_probe(name, tmp_path):
    corpus = _build(name, 5, tmp_path)
    assert not [op.id for op in corpus.ops if op.defect]
    assert all(op.defect for op in corpus.defects)
    assert bool(corpus.defects) == (name != "verify-suites")


def test_without_the_package_the_benchmark_fails_without_a_result(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = _run("--workload", "wide-slots", "--seed", "1", "--seconds", "1", "--trace", "0",
                cwd=tmp_path)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout


def test_tracer_rebinds_imported_names_and_restores_them():
    import matfn
    from matfn import antisym, calculus, funcalc, verify
    from tracer import Tracer

    before = (funcalc.analyze, calculus.f_otimes, antisym.f_otimes, matfn.f_otimes,
              verify.SUITES["zero"])
    tr = Tracer()
    tr.install()
    try:
        for obj in (funcalc.analyze, calculus.f_otimes, antisym.f_otimes, matfn.f_otimes,
                    verify.SUITES["zero"]):
            assert hasattr(obj, "__wrapped_original__")
        M = np.diag([1.0, 2.0])
        tr.begin("t")
        calculus.frechet_derivative(matfn.parse_field("x1^2"), [M], 0, np.eye(2))
        tr.end()
    finally:
        tr.uninstall()
    after = (funcalc.analyze, calculus.f_otimes, antisym.f_otimes, matfn.f_otimes,
             verify.SUITES["zero"])
    assert all(a is b for a, b in zip(before, after))
    assert tr.calls["funcalc.f_otimes"] == 1 and tr.calls["spectral.analyze"] >= 1
    assert tr.calls["tensor.poly_tensor_eval"] == 1
    # self times of all spans add up to the root span's duration
    assert sum(tr.self_s.values()) == pytest.approx(tr.total_s["bench.op"], rel=1e-6)


def test_oracle_agrees_with_the_packages_jordan_closed_form():
    import matfn

    rng = I.rng_for(0, "oracle-test")
    sts = [I.jordan_structure(rng, [3, 1], conjugate=False),
           I.jordan_structure(rng, [2, 2], conjugate=False)]
    for fam in (I.Family("res", 2, 4.0), I.Family("prod", 2, powers=(2, 1)),
                I.Family("exp", 2, 0.4)):
        f = matfn.parse_field(fam.text(), 2)
        ref, kappa = O.tensor_extension(fam, sts)
        pkg = matfn.jordan_closed_form(f, [st.matrix() for st in sts],
                                       [list(st.blocks) for st in sts])
        assert O.rel_err(pkg.data, ref) < O.tolerance(kappa)


def test_margin_is_clamped_and_failures_enter_at_the_floor():
    assert harness.margin(1.0, 0.5) == harness.MARGIN_FLOOR
    assert harness.margin(float("nan"), 1.0) == harness.MARGIN_FLOOR
    assert harness.margin(0.0, 1e-8) == harness.MARGIN_CAP
    assert harness.margin(-1.0, 1e-8) == harness.MARGIN_CAP
    assert harness.margin(1e-12, 1e-8) == pytest.approx(4.0)
    assert harness.quantile([1, 2, 3, 4, 5], 0.5) == 3
    assert harness.quantile([1, 2], 0.9) == pytest.approx(1.9)
