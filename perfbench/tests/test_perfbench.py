"""Self-tests of the benchmark, on tiny passes of every workload.

Run from the repository root::

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import functools
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]

sys.path.insert(0, str(ROOT / "perfbench"))
from tracing import Tracer, descendants, self_times  # noqa: E402


def run(workload, *extra, seed=3, trace=0, cwd=ROOT):
    cmd = [sys.executable, "perfbench/run.py",
           "--workload", workload, "--seed", str(seed), "--seconds", "0",
           "--trace", str(trace), *extra]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                          timeout=300)


@functools.lru_cache(maxsize=None)
def tiny(workload, trace=0, corrupt=False):
    extra = ("--size", "tiny") + (("--corrupt",) if corrupt else ())
    proc = run(workload, *extra, trace=trace)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return lines, json.loads(lines[-1])


def line_value(lines, prefix):
    return next(line.split(":", 1)[1].strip() for line in lines
                if line.startswith(prefix))


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
def test_prints_exactly_the_declared_metrics(workload, trace, section):
    _, result = tiny(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    declared = {m["name"]: m["unit"] for m in SPEC[section]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    assert all(isinstance(v["value"], (int, float))
               for v in result["metrics"].values())
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics_are_never_zero(workload):
    _, result = tiny(workload)
    assert all(v["value"] > 0 for v in result["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_corrupted_output_is_caught(workload):
    lines, result = tiny(workload, corrupt=True)
    assert result["failed"] > 0 and not result["correct"]
    assert float(line_value(lines, "fail_frac").split()[0]) > 0


@pytest.mark.parametrize("workload", WORKLOADS)
def test_same_seed_same_outputs(workload):
    first, a = tiny(workload)
    traced, _ = tiny(workload, trace=1)
    proc = run(workload, "--size", "tiny")
    again = proc.stdout.strip().splitlines()
    digest = line_value(first, "records digest")
    assert line_value(traced, "records digest") == digest
    assert line_value(again, "records digest") == digest
    assert (json.loads(again[-1])["metrics"]["err_pct"]["value"]
            == a["metrics"]["err_pct"]["value"])


def test_other_seed_other_outputs():
    lines, _ = tiny("fi-uniform")
    proc = run("fi-uniform", "--size", "tiny", seed=4)
    other = proc.stdout.strip().splitlines()
    assert line_value(lines, "records digest") != line_value(other, "records digest")


def test_traced_layers_account_for_the_pass():
    _, result = tiny("fi-uniform", trace=1)
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    assert metrics["trace.attributed_frac"] > 0.9
    assert metrics["arch.inject.trials"] > 0
    assert metrics["arch.golden.calls"] == 8


def test_fails_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "tests"))
    proc = run("fi-uniform", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_self_time_subtracts_children():
    tracer = Tracer()
    tracer.active = True
    with tracer.span("outer"):
        with tracer.span("inner"):
            pass
        with tracer.span("inner"):
            with tracer.span("leaf"):
                pass
    own = self_times(tracer.spans)
    total = tracer.spans[0][2] - tracer.spans[0][1]
    assert sum(own) == pytest.approx(total)
    assert descendants(tracer.spans, 0) == [1, 2, 3]
    assert descendants(tracer.spans, 2) == [3]
