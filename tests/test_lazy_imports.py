"""The package loads its layers on first use: `import fuzzrel` imports no
submodule, and each CLI subcommand imports only the layers it runs."""

import json
import os
import subprocess
import sys
from importlib import import_module
from pathlib import Path

import pytest

import fuzzrel

SRC = str(Path(__file__).resolve().parents[1] / "src")

SUBMODULES = ("algebra", "approximation", "errors", "operators", "oracle", "report")

#: Prints, as JSON, the `fuzzrel.*` submodules loaded after `import
#: fuzzrel`, after `from fuzzrel import cli`, and the exit code and the
#: submodules loaded after each `cli.main(argv)` of the argv lists in
#: argv[1].
PROBE = r"""
import contextlib, io, json, sys

def loaded():
    return sorted(name[len("fuzzrel."):] for name in sys.modules if name.startswith("fuzzrel."))

import fuzzrel
steps = [loaded()]
from fuzzrel import cli
steps.append(loaded())
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        steps.append([cli.main(argv), loaded()])
print(json.dumps(steps))
"""

#: What `from fuzzrel import cli` loads, and all that `check` runs.
CLI = ["algebra", "cli", "errors", "operators"]


@pytest.fixture
def docs(tmp_path):
    """--input paths of a min-implication and a max-t document."""
    paths = {}
    for name, fields in (("system", ("gamma", "beta")), ("maxt", ("a", "b"))):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps({
            "implication": "godel",
            fields[0]: [[0.6, 0.49], [0.26, 0.9]],
            fields[1]: [0.1, 0.4],
        }), encoding="utf-8")
        paths[name] = str(path)
    return paths


def probe(*commands):
    done = subprocess.run(
        [sys.executable, "-c", PROBE, json.dumps(commands)],
        capture_output=True, text=True, timeout=60,
        env={**os.environ, "PYTHONPATH": SRC},
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout)


def test_check_distance_and_approx_load_their_layers(docs):
    system = ["--input", docs["system"]]
    steps = probe(["check", *system], ["distance", *system], ["approx", *system])
    assert steps == [
        [],
        CLI,
        [0, CLI],
        [0, sorted(CLI + ["report"])],
        [0, sorted(CLI + ["approximation", "report"])],
    ]


def test_verify_loads_the_oracle_not_the_approximation(docs):
    steps = probe(["verify", "--input", docs["system"]], ["verify", "--random", "2", "2", "1"])
    oracle = sorted(CLI + ["oracle", "report"])
    assert steps == [[], CLI, [0, oracle], [0, oracle]]


def test_maxt_distance_loads_the_oracle_not_the_approximation(docs):
    steps = probe(["maxt-distance", "--input", docs["maxt"]])
    assert steps == [[], CLI, [0, sorted(CLI + ["oracle", "report"])]]


def test_submodule_attributes_import_on_first_read():
    # each in a fresh process, where no import of another layer binds it
    code = "import fuzzrel, sys; name = sys.argv[1]; print(getattr(fuzzrel, name).__name__)"
    for name in SUBMODULES:
        done = subprocess.run(
            [sys.executable, "-c", code, name], capture_output=True, text=True, timeout=60,
            env={**os.environ, "PYTHONPATH": SRC},
        )
        assert (done.returncode, done.stdout, done.stderr) == (0, f"fuzzrel.{name}\n", "")


def test_submodules_resolve():
    for name in SUBMODULES:
        assert fuzzrel.__getattr__(name) is import_module(f"fuzzrel.{name}")
        assert getattr(fuzzrel, name) is import_module(f"fuzzrel.{name}")


def test_dir_lists_every_name():
    listed = set(dir(fuzzrel))
    assert set(fuzzrel.__all__) <= listed
    assert set(SUBMODULES) <= listed


def test_star_import_binds_the_defining_objects():
    namespace = {}
    exec("from fuzzrel import *", namespace)
    for name in fuzzrel.__all__:
        defining = import_module(f"fuzzrel.{fuzzrel._ORIGIN[name]}")
        assert namespace[name] is getattr(defining, name) is getattr(fuzzrel, name), name


def test_names_are_kept_after_first_read():
    fuzzrel.__getattr__("verify_lowest")
    assert vars(fuzzrel)["verify_lowest"] is import_module("fuzzrel.approximation").verify_lowest


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match=r"^module 'fuzzrel' has no attribute 'no_such_name'$"):
        fuzzrel.no_such_name
    with pytest.raises(ImportError, match="no_such_name"):
        from fuzzrel import no_such_name  # noqa: F401
