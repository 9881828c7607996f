"""The benchmark's layer contract: each layer that perfbench/run.py says a
workload exercises sees a call when perfbench/tracer.py traces that
workload's recipe, potentials and thread count on small numerics."""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import kinchaos

ROOT = Path(__file__).resolve().parents[1]
PERFBENCH = ROOT / "perfbench"

# the workload configs with their [numerics] cut so a traced run takes about
# a second; the recipe and the potentials stay those of the workload
SMALL_NUMERICS = {
    "vfp_decay": "nx = 64\nnv = 64\nT = 0.5\nn_w2 = 64\n",
    "coulomb_concentration": "N_list = [8, 16, 32]\nn_mc = 4\nnx = 129\n",
    "langevin_particles": "N = 16\nT = 0.5\n",
}


def _workloads():
    # perfbench/run.py is loaded, not run: its module body only defines
    loader = importlib.util.spec_from_file_location(
        "perfbench_run", PERFBENCH / "run.py")
    module = importlib.util.module_from_spec(loader)
    loader.loader.exec_module(module)
    return module.WORKLOADS


def test_every_workload_has_small_numerics():
    assert set(SMALL_NUMERICS) == set(_workloads())


@pytest.mark.parametrize("name", sorted(SMALL_NUMERICS))
def test_traced_workload_calls_every_exercised_layer(name, tmp_path):
    workload = _workloads()[name]
    text = (PERFBENCH / "workloads" / workload["config"]).read_text()
    head, _, _ = text.partition("[numerics]")
    config = tmp_path / "small.ini"
    config.write_text(head + "[numerics]\n" + SMALL_NUMERICS[name])
    env = dict(os.environ)
    env["PYTHONPATH"] = str(Path(kinchaos.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, str(PERFBENCH / "child.py"), str(config),
         "--seed", "1", "--out-dir", str(tmp_path / "out"),
         "--threads", str(workload["threads"]),
         "--spans", str(tmp_path / "spans.jsonl")],
        env=env, capture_output=True, text=True, timeout=300, check=False)
    assert proc.returncode == 0, proc.stderr
    counts = json.loads(proc.stdout.strip().splitlines()[-1])["counts"]
    idle = [layer for layer in workload["exercises"]
            if counts.get(layer + ".calls", 0) == 0]
    assert idle == []
