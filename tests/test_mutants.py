"""The mutation gate's table (tools/mutants.py) still fits the code.

The gate itself runs outside the suite, one pytest process per mutant;
here each row is only checked to name a fragment that occurs exactly
once in its file, to leave that file parseable when applied, and to
list test files that exist.
"""

import ast
import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def _mutants():
    spec = importlib.util.spec_from_file_location(
        "mutants", ROOT / "tools" / "mutants.py")
    mutants = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mutants)
    return mutants


MUTANTS = _mutants()


@pytest.mark.parametrize("row", MUTANTS.MUTANTS, ids=lambda r: r[0])
def test_each_mutant_applies_once_and_parses(row):
    name, path, fragment, replacement, tests = row
    text = (ROOT / path).read_text(encoding="utf-8")
    assert text.count(fragment) == 1, name
    assert fragment != replacement
    ast.parse(MUTANTS.mutated(ROOT, row), filename=path)
    assert tests and all((ROOT / t).is_file() for t in tests)


def test_every_named_check_has_a_mutant():
    names = [r[0] for r in MUTANTS.MUTANTS]
    assert len(set(names)) == len(names)
    checks = {"wild so": ["order", "abelianization", "commutator",
                          "det_trivial", "irreducible", "g2_obstruction"],
              "param tame": ["det", "form", "conj_relation", "type_np"],
              "eigs g2check": ["admissible", "palindromic_shape"],
              "orbit": ["selfdual_halfway"]}
    for command, named in checks.items():
        for check in named:
            assert f"{command}: {check}" in names
    # the clauses read two ways, each way mutated on its own
    assert sum(n.startswith("wild so: dim V, ") for n in names) == 2
    assert sum(n.startswith("wild so: delta, ") for n in names) == 2
    # and the facts the small queries compute once
    for name in ("param tame: a block's inverse exponents",
                 "is_prime: the trial-division bound",
                 "orbit: selfdual, the inverse's negation"):
        assert name in names
    # and the two reads of the group engine that replaced a right table
    # and a power map
    for name in ("fingroup: a generator's powers, off its own table",
                 "fingroup: an exponent, off the power list"):
        assert name in names


def test_a_fragment_that_moved_is_refused(tmp_path):
    row = MUTANTS.MUTANTS[0]
    (tmp_path / "src" / "ggt").mkdir(parents=True)
    (tmp_path / row[1]).write_text(row[2] * 2, encoding="utf-8")
    with pytest.raises(ValueError, match="occurs 2 times"):
        MUTANTS.mutated(tmp_path, row)
