"""Smoke tests of the benchmark harness, every workload at toy sizes.

    PYTHONPATH=src python -m pytest -q bench/test_bench.py
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
if HERE not in sys.path:
    sys.path.insert(0, HERE)

import run  # noqa: E402

run.add_program_path()

import tracing  # noqa: E402
import workloads  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
    SPEC = json.load(fh)

NAMES = [w["name"] for w in SPEC["workloads"]]
# Counts the program's structure fixes; they must repeat exactly.
EXACT = {
    "train_desk": ("autodiff.nodes_per_step", "esa.fft_calls_per_step", "freq.fft_calls_per_step"),
    "infer_batch": ("esa.fft_calls_per_forward", "freq.fft_calls_per_forward"),
    "serve_cli": ("data.rows_parsed", "trainer.checkpoint_bytes", "esa.fft_calls_per_forward"),
    "baseline_hw": ("data.rows_parsed", "classical.candidates"),
}


@pytest.fixture(autouse=True)
def _workdir(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "WORKDIR", str(tmp_path))


def _bench(tmp_path, *argv: str, program: bool = True) -> subprocess.CompletedProcess:
    """The benchmark's command line, run from a fresh checkout under tmp_path.

    A separate process, as in real use: run.py pins glibc's malloc
    thresholds for the rest of the process it runs in.
    """
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    if program:
        os.symlink(os.path.join(ROOT, "src"), tmp_path / "src")
    return subprocess.run(
        [sys.executable, "bench/run.py", *argv],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
        env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"},
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", NAMES)
def test_every_metric_printed_with_unit(tmp_path, workload, trace):
    proc = _bench(tmp_path, "--workload", workload, "--seed", "3", "--seconds", "0.2",
                  "--trace", str(trace), "--tiny")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in spec} == {
        name: m["unit"] for name, m in result["metrics"].items()
    }
    assert all(np.isfinite(m["value"]) for m in result["metrics"].values())


@pytest.mark.parametrize("workload", NAMES)
def test_exact_counters_repeat(workload):
    runs = [run.run_workload(workload, 5, 0.1, trace=True, tiny=True)["metrics"] for _ in range(2)]
    for key in EXACT[workload]:
        assert runs[0][key] > 0 and runs[0][key] == runs[1][key], key


def test_counters_at_desk_size_match_the_engine():
    """One desk-config training step records 176 nodes and 128 FFTs today."""
    wl = workloads.TrainDesk(0, run.WORKDIR)
    wl.setup()
    wl.train_pairs, wl.val_pairs = wl.train_pairs[:32], wl.val_pairs[:1]
    wl.tcfg = workloads.trainer.TrainConfig(epochs=1, warmup_epochs=0, batch_size=32)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        with tracer.recording(0):
            wl.op(0)
    finally:
        tracer.uninstall()
    m = tracer.metrics(1)
    assert m["autodiff.nodes_per_step"] == 176
    assert m["esa.fft_calls_per_step"] + m["freq.fft_calls_per_step"] == 128


def _perturb_value(text: str) -> str:
    """Nudge one value of a CLI payload: a forecast cell or a fitted alpha."""
    if text.lstrip().startswith("{"):
        obj = json.loads(text)
        if "rows" in obj:
            obj["rows"][0][1] += 1e-6
        else:
            obj["channels"][0]["alpha"] += 1e-6
        return json.dumps(obj) + "\n"
    lines = text.splitlines()
    cells = lines[1].split(",")
    cells[1] = repr(float(cells[1]) + 1e-6)
    lines[1] = ",".join(cells)
    return "\n".join(lines) + "\n"


def _perturbations(monkeypatch, workload: str) -> None:
    if workload in ("serve_cli", "baseline_hw"):
        real_cli = workloads._run_cli

        def run_cli(argv):
            code, text = real_cli(argv)
            return code, _perturb_value(text)

        monkeypatch.setattr(workloads, "_run_cli", run_cli)
    elif workload == "infer_batch":
        real_eval = workloads.trainer.evaluate_state

        def evaluate_state(*args, **kwargs):
            out = real_eval(*args, **kwargs)
            return {**out, "mse": out["mse"] + 1e-6}

        monkeypatch.setattr(workloads.trainer, "evaluate_state", evaluate_state)
    else:
        real = workloads.trainer.train
        calls = []

        def train(*a, **k):
            ckpt, log = real(*a, **k)
            calls.append(1)
            if len(calls) > 1:  # later calls drift from the first
                log[-1]["val_mse"] += 1e-12
            return ckpt, log

        monkeypatch.setattr(workloads.trainer, "train", train)


@pytest.mark.parametrize("workload", NAMES)
def test_perturbed_output_counts_as_failure(monkeypatch, workload):
    _perturbations(monkeypatch, workload)
    result = run.run_workload(workload, 2, 0.1, trace=False, tiny=True)
    assert not result["correct"] and result["failed"] >= 1
    assert result["native"]["error_rate"][0] > 0


def test_refuses_to_run_without_the_program(tmp_path):
    proc = _bench(tmp_path, "--workload", "serve_cli", "--seed", "1", "--seconds", "1",
                  "--trace", "0", program=False)
    assert proc.returncode != 0 and proc.stdout == ""
