"""Smoke test: the demos run to the end against the current API.

weyl_orders.py is left out; it builds the full table, E8 included.
"""

import runpy
from pathlib import Path

import pytest

DEMOS = Path(__file__).resolve().parents[1] / "demos"


@pytest.mark.parametrize("name", ["wild_images.py",
                                  "orbits_and_parameters.py",
                                  "group_criteria.py", "prime_pairs.py"])
def test_demo_runs(name, capsys):
    runpy.run_path(str(DEMOS / name), run_name="__main__")
    out = capsys.readouterr().out.strip()
    assert out
    if name == "group_criteria.py":
        # the depth-core spot check through the quotient's projection
        assert out.splitlines()[-1].endswith("True")
