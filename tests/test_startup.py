"""What a ggt process loads at start-up, and the one source of the version.

Each command runs through ggt.cli.main in a fresh interpreter, which
reports the modules it ended up holding.  Nothing here is timed.
"""

import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

import ggt
import ggt.cli

ROOT = Path(__file__).resolve().parents[1]
SRC = Path(ggt.__file__).resolve().parents[1]
WATCHED = ("numpy", "ggt.weylenum", "importlib.metadata")

# the README commands that build no Weyl element
NO_MATRIX_COMMANDS = (
    "orbit --tau 1/43 --q 7",
    "primes --n 3 --ell 3 --t 3 --d 5",
    "param tame --q 7 --p 43 --n 3",
    "param real --a 1/2,1,3/2",
    "wild so --m 7",
    "wild g2",
    "group analyze --preset metacyclic --m 6 --p 7 --type-np 6,7 --ell 5",
    "eigs g2check --eigs 0,1/7,-1/7,2/7,-2/7,3/7,-3/7",
)

PROBE = f"""
import contextlib, io, json, sys
import ggt, ggt.cli
held = lambda: sorted(m for m in {WATCHED!r} if m in sys.modules)
imported, out, code = held(), io.StringIO(), None
if sys.argv[1:]:
    with contextlib.redirect_stdout(out):
        code = ggt.cli.main(sys.argv[1:])
print(json.dumps(dict(imported=imported, code=code, out=out.getvalue(),
                      loaded=held(), version=ggt.__version__)))
"""


def _fresh(command: str = "") -> dict:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-c", PROBE, *command.split()],
                          capture_output=True, text=True, env=env,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_importing_ggt_and_its_cli_loads_no_numpy_and_no_metadata():
    assert _fresh()["imported"] == []


@pytest.mark.parametrize("command", NO_MATRIX_COMMANDS)
def test_commands_without_weyl_matrices_never_load_numpy(command):
    assert f"ggt {command}\n" in (ROOT / "README.md").read_text()
    probe = _fresh(command)
    assert probe["code"] == 0, probe["out"]
    assert probe["loaded"] == [], command
    assert json.loads(probe["out"])["version"] == probe["version"]


def test_weyl_orders_loads_numpy_with_the_first_matrix():
    probe = _fresh("weyl orders --type A4+G2")
    assert probe["imported"] == [] and probe["code"] == 0
    assert probe["loaded"] == ["ggt.weylenum", "numpy"]


def test_report_version_is_the_package_version(capsys):
    assert ggt.cli.main(["param", "real", "--a", "1/2,1,3/2"]) == 0
    assert json.loads(capsys.readouterr().out)["version"] == \
        ggt.__version__ == ggt.cli.VERSION


def test_pyproject_reads_the_version_from_the_package():
    pyprojecttoml = pytest.importorskip("setuptools.config.pyprojecttoml")
    with warnings.catch_warnings():  # [tool.setuptools] is "beta" in 65
        warnings.simplefilter("ignore")
        config = pyprojecttoml.read_configuration(ROOT / "pyproject.toml")
    project = config["project"]
    assert project["dynamic"] == ["version"]
    assert config["tool"]["setuptools"]["dynamic"]["version"] == \
        {"attr": "ggt.__version__"}
    assert project["version"] == ggt.__version__
