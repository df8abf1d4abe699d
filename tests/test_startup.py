"""What a ggt process loads at start-up, and the one source of the version.

Each command runs through ggt.cli.main in a fresh interpreter, which
reports the modules it ended up holding.  Nothing here is timed.
"""

import importlib.util
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
# modules a command must load only when it needs them; dataclasses never,
# since ggt's records are plain classes that generate no code at import,
# numpy never, since no module of ggt imports it, and fractions (with
# decimal, 2 ms of import) only where a Fraction is made
WATCHED = ("numpy", "ggt.weylenum", "importlib.metadata", "dataclasses",
           "fractions")
# the commands that parse an exponent or a weight as a Fraction
FRACTIONS = ("orbit", "param real", "eigs")


def _readme_commands() -> list[str]:
    """The README's sub-second commands, read as tools/startup.py reads
    them."""
    spec = importlib.util.spec_from_file_location(
        "startup", ROOT / "tools" / "startup.py")
    startup = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(startup)
    return startup.readme_commands(ROOT)


README_COMMANDS = _readme_commands()

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


def test_the_readme_lists_eleven_sub_second_commands():
    assert len(README_COMMANDS) == 11


@pytest.mark.parametrize("command", README_COMMANDS)
def test_commands_without_weyl_matrices_never_load_numpy(command):
    # the Weyl commands tally and scan groups as permutations of their
    # roots, with no matrix
    weyl = command.split()[0] in ("weyl", "minuscule")
    fractions = command.startswith(FRACTIONS)
    probe = _fresh(command)
    assert probe["code"] == 0, probe["out"]
    assert probe["loaded"] == ["fractions"] * fractions + \
        ["ggt.weylenum"] * weyl, command
    assert json.loads(probe["out"])["version"] == probe["version"]


def test_weyl_orders_on_e7_loads_no_numpy():
    # the largest tally a sub-second command runs, on root permutations
    probe = _fresh("weyl orders --type E7")
    assert probe["imported"] == [] and probe["code"] == 0
    assert probe["loaded"] == ["ggt.weylenum"]


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
