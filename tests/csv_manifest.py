"""The CSV manifest: the sha256 of every CSV that criterion 10's six configs
write, each run's verdict outcomes by name, the exit code and the sha256 of
the stdout of a fixed list of `kinchaos constants` and `kinchaos
check-assumptions` invocations, and the Python, numpy and scipy versions
that wrote them.

    PYTHONPATH=src python3 tests/csv_manifest.py

reruns the six configs once, at --threads 1, and the invocations, and
rewrites tests/csv_manifest.json.  tests/test_csv_manifest.py reruns them
and compares, so a CSV or stdout byte that moves fails Tier-1.  Rewriting
the manifest is a declared output change: it never makes a failing
comparison pass.
"""

import contextlib
import hashlib
import io
import json
import os
import platform
import tempfile

import numpy
import scipy

from kinchaos.cli import main as cli_main
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

# the documents that the invocations below name, by file name
CLI_DOCUMENTS = {
    "constants.ini": ("[experiment]\nrecipe = constants_table\n"
                      "[model]\ngamma = 2.0\nsigma = 0.5\n"
                      "[constants]\ntheta = 0.9\nrho_ls = 0.5\n"
                      "a_rule = proof\n"),
    "concentration.ini": CONFIGS["concentration"],
}

# each a command line split on spaces; a word that names a document of
# CLI_DOCUMENTS is that document's path
CLI_RUNS = (
    "constants",
    "constants --json-only",
    "constants --c-k 0.25 --c-v 1",
    "constants --config constants.ini",
    "check-assumptions",
    "check-assumptions --strict",
    "check-assumptions --v-family power_k --param v_k=6",
    "check-assumptions --v-family zero",
    "check-assumptions --w-family mollified_coulomb --param w_form=arctan "
    "--param w_r0=1",
    "check-assumptions --config concentration.ini",
)

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


def cli_digest(out_root):
    """{command line: {"exit": code, "stdout": sha256}} of each of CLI_RUNS,
    with its documents written under `out_root`."""

    paths = {}
    for name, text in CLI_DOCUMENTS.items():
        paths[name] = os.path.join(out_root, name)
        with open(paths[name], "w", encoding="utf-8") as fh:
            fh.write(text)
    runs = {}
    for line in CLI_RUNS:
        out = io.StringIO()
        with contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(io.StringIO()):
            code = cli_main([paths.get(word, word) for word in line.split()])
        runs[line] = {"exit": code, "stdout": hashlib.sha256(
            out.getvalue().encode("utf-8")).hexdigest()}
    return runs


def main():
    with tempfile.TemporaryDirectory() as tmp:
        manifest = {"versions": versions(), "runs": digest(tmp),
                    "cli": cli_digest(tmp)}
    with open(MANIFEST, "w", encoding="utf-8", newline="") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"wrote {MANIFEST}")


if __name__ == "__main__":
    main()
