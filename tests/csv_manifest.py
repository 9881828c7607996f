"""The CSV manifest: the sha256 of every CSV that criterion 10's six configs
write, each run's verdict outcomes by name, and the Python, numpy and scipy
versions that wrote them.

    PYTHONPATH=src python3 tests/csv_manifest.py

reruns the six configs once, at --threads 1, and rewrites
tests/csv_manifest.json.  tests/test_csv_manifest.py reruns them and
compares, so a CSV byte that moves fails Tier-1.  Rewriting the manifest is
a declared output change: it never makes a failing comparison pass.
"""

import hashlib
import json
import os
import platform
import tempfile

import numpy
import scipy

from kinchaos.harness import parse_config, run_experiment, write_report

# one small config per recipe, the ones criterion 10 reruns across threads
CONFIGS = {
    "ergodicity": "[experiment]\nrecipe = ergodicity\n",
    "meanfield_decay": ("[experiment]\nrecipe = meanfield_decay\n"
                        "[numerics]\nnx = 64\nnv = 64\nT = 0.5\n"),
    "chaos_scaling": ("[experiment]\nrecipe = chaos_scaling\n"
                      "[numerics]\nn_mc = 4\nn_cloud = 2048\n"),
    "concentration": ("[experiment]\nrecipe = concentration\n"
                      "[potential]\nv_family = quadratic\n"
                      "v_curvature = 1.0\nw_family = mollified_coulomb\n"
                      "w_a = 0.2\nw_b = 1.0\nw_k = 2.0\n"
                      "[numerics]\nn_mc = 40\n"
                      "N_list = [8, 16, 32, 64, 128]\n"),
    "constants_table": "[experiment]\nrecipe = constants_table\n",
    "assumptions": "[experiment]\nrecipe = assumptions\n",
}

MANIFEST = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                        "csv_manifest.json")


def versions():
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__}


def digest(out_root):
    """{recipe: {"csv": {file: sha256}, "verdicts": {name: passed}}} of one
    run of each config, written under `out_root`; the outcomes are read
    from each run's report.json."""

    runs = {}
    for recipe, text in CONFIGS.items():
        out_dir = os.path.join(out_root, recipe)
        csv = {}
        for path in write_report(run_experiment(parse_config(text)),
                                 out_dir):
            if path.endswith(".csv"):
                with open(path, "rb") as fh:
                    csv[os.path.basename(path)] = hashlib.sha256(
                        fh.read()).hexdigest()
        with open(os.path.join(out_dir, "report.json"),
                  encoding="utf-8") as fh:
            verdicts = json.load(fh)["verdicts"]
        runs[recipe] = {"csv": csv, "verdicts": {v["name"]: v["passed"]
                                                 for v in verdicts}}
    return runs


def main():
    with tempfile.TemporaryDirectory() as tmp:
        manifest = {"versions": versions(), "runs": digest(tmp)}
    with open(MANIFEST, "w", encoding="utf-8", newline="") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"wrote {MANIFEST}")


if __name__ == "__main__":
    main()
