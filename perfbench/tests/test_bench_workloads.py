"""Smoke-size runs of every workload, untraced and traced."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import tracing
import workloads

BENCH = Path(__file__).resolve().parents[1]

SMOKE = {
    "desk-train": dict(n_records=300, n_test=60, n_val=40, epochs=1, explain={
        "lrptrans": 2, "integrated-gradients": 1}),
    "desk-explain": dict(n_records=300, n_test=60, n_val=40, sweep_pos=3,
                         sweep_neg=6, explain={
                             "lrptrans": 2, "integrated-gradients": 1,
                             "lrp-epsilon": 2, "attention-rollout": 2,
                             "attention-last": 2, "random": 2}),
    "paper-pipeline": dict(n_kept=5, n_rejected=1, train_steps=1, train_batch=1,
                           n_predict=2, predict_batch=2, explain={
                               "lrptrans": 1, "integrated-gradients": 1}),
}


@pytest.mark.parametrize("name", list(SMOKE))
@pytest.mark.parametrize("trace", [False, True])
def test_smoke_run(name, trace, tmp_path):
    result = workloads.execute(name, seed=5, seconds=0.0, trace=trace,
                               workdir=tmp_path, **SMOKE[name])
    failed = [c for c in result["checks"] if not c[1]]
    assert not failed and result["failed"] == 0
    assert result["rounds"] == workloads.SETUP_REPEATS   # one per segment
    if trace:
        assert set(result["metrics"]) == {n for n, _, _ in tracing.PER_LAYER}
        assert len(result["tracers"]) == workloads.SETUP_REPEATS
        assert result["traced_digest"] == result["digest"]
    else:
        expected = {n for n, _ in workloads.END_TO_END}
        assert expected <= set(result["metrics"])
        assert all(result["metrics"][n][0] > 0 for n in expected)


def test_without_sources_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copytree(BENCH, tmp_path / BENCH.name,
                    ignore=shutil.ignore_patterns("out", "__pycache__", "tests"))
    proc = subprocess.run(
        [sys.executable, f"{BENCH.name}/run.py", "--workload", "desk-train",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    for line in proc.stdout.splitlines():
        with pytest.raises(json.JSONDecodeError):
            json.loads(line)
