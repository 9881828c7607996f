"""Criterion 10's six configs against tests/csv_manifest.json: every CSV
byte and every verdict outcome of the committed manifest, each recipe's
verdicts against the names it declares (harness._VERDICTS), and the exit
code and stdout bytes of the manifest's `constants` and `check-assumptions`
command lines."""

import json

import pytest

from csv_manifest import MANIFEST, cli_digest, digest, versions
from kinchaos.harness import _VERDICTS


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    return digest(str(tmp_path_factory.mktemp("manifest")))


def manifest_of_this_version():
    with open(MANIFEST, encoding="utf-8") as fh:
        manifest = json.load(fh)
    if manifest["versions"] != versions():
        pytest.skip(f"the manifest was made with {manifest['versions']}, "
                    f"this is {versions()}; output bytes are promised within "
                    f"one version")
    return manifest


def test_each_recipe_reports_its_declared_verdicts_in_order(runs):
    # digest reads report.json, which lists the verdicts as they were added
    assert {recipe: list(run["verdicts"]) for recipe, run in runs.items()} \
        == {recipe: list(names) for recipe, names in _VERDICTS.items()}


def test_csv_bytes_and_verdict_outcomes_match_the_manifest(runs):
    assert runs == manifest_of_this_version()["runs"]


def test_cli_exit_codes_and_stdout_bytes_match_the_manifest(tmp_path):
    assert cli_digest(str(tmp_path)) == manifest_of_this_version()["cli"]
