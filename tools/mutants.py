"""Mutation gate: the tests must see a break in what each named check of
`ggt wild so` and `ggt param tame` reads, in three facts the small
queries compute once and then trust: the bound below which is_prime
stops after its trial divisions, an orbit's selfdual, and the inverse
exponents of a tame block, and in two reads of the group engine: a
generator's powers off its own table, and the type (n, p) exponents off
a power list.

    python3 tools/mutants.py

Run it from the root of a ggt checkout; it needs pytest and hypothesis,
nothing else past the standard library.  Each row of MUTANTS names a
file under src/, an exact fragment of it, the fragment's replacement and
the test files that must catch the change.  First the union of those
test files is run once on an unmutated copy of the checkout, and must
pass (else exit 2), so a kill is the mutant's doing.  Then, for each
row, the script copies src/, tests/ and pyproject.toml into a fresh
temporary directory, applies the one replacement there, and runs the
row's test files with `-x -m "not slow" --hypothesis-seed=0`, one
process at a time; the checkout itself is never changed.  A mutant whose
tests all pass survives: the script names each survivor and exits 1,
and exits 0 when every mutant is killed.

A row breaks the computation a check reads, not the check itself, so
that a kill shows the check tied to something the tests pin.  Where a
clause is computed two ways and the two must agree (dim V, V's period
delta), each way has its own row.  The `wild so` rows show that each of
its checks can read False.  The `param tame` rows do not: a break in
what det, form, conj_relation or type_np reads is caught by the
builder's own assertions (build_tame_parameter's self-checks,
parameter_image's type check), which raise before the command builds
its checks, so those checks never read False in a report.
tests/test_mutants.py asserts that each fragment occurs exactly once in
its file and that each mutated file still parses, so a refactor that
moves the code fails fast and no mutant is "killed" by a syntax error.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

WILD = ("tests/test_wildtwo.py", "tests/test_cli.py")
TAME = ("tests/test_weilparams.py", "tests/test_cli.py")

# (name, file, fragment, replacement, test files)
MUTANTS = (
    ("wild so: order", "src/ggt/wildtwo.py",
     "order = 2 ** dim * m\n", "order = 2 ** (dim + 1) * m\n", WILD),
    ("wild so: abelianization", "src/ggt/wildtwo.py",
     "[2] * (len(basis) - len(comm)) + [m]",
     "[2] * (len(basis) - len(comm) + 1) + [m]", WILD),
    ("wild so: commutator", "src/ggt/wildtwo.py",
     "v ^ _rotate(v, m) for v in basis)",
     "v ^ _rotate(v, m) for v in basis[1:])", WILD),
    ("wild so: det_trivial", "src/ggt/wildtwo.py",
     "v.bit_count() % 2 == 0 for v in signs",
     "v.bit_count() % 4 == 0 for v in signs", WILD),
    ("wild so: irreducible", "src/ggt/wildtwo.py",
     "norm = 2 ** dim * m * m // delta\n", "norm = 2 ** dim * m * m\n",
     WILD),
    ("wild so: g2_obstruction", "src/ggt/wildtwo.py",
     "g2_admissible_eigenvalues([ONE] * (m - w) + [MINUS_ONE] * w)",
     "g2_admissible_eigenvalues([ONE] * m)", WILD),
    ("wild so: dim V, the rank of the shifts", "src/ggt/wildtwo.py",
     "return _xor_basis(u for v in signs for u in _rotations(v, m))",
     "return _xor_basis(signs)", WILD),
    ("wild so: dim V, the cyclic code's gcd", "src/ggt/wildtwo.py",
     "g = _poly_gcd(g, v)\n", "g = _poly_gcd(g, v >> 1)\n", WILD),
    ("wild so: delta, the rotation fixing the basis", "src/ggt/wildtwo.py",
     "all(_rotate(b, m, d) == b", "all(_rotate(b, m, d) != 0", WILD),
    ("wild so: delta, the check polynomial", "src/ggt/wildtwo.py",
     "not _poly_divmod(1 << d | 1, h)[1]",
     "not _poly_divmod(1 << d | 1, h)[0]", WILD),
    ("param tame: det", "src/ggt/weilparams.py",
     "(0,) * (dim - 1) + (len(taus) % 2,)", "(0,) * dim", TAME),
    ("param tame: form", "src/ggt/weilparams.py",
     "pairing[offset + j] = offset + (j + ni) % size\n",
     "pairing[offset + j] = offset + (size - 1 - j)\n", TAME),
    ("param tame: conj_relation", "src/ggt/weilparams.py",
     "perm[offset + j] = offset + (j - 1) % size\n",
     "perm[offset + j] = offset + (j + 1) % size\n", TAME),
    ("param tame: type_np", "src/ggt/fingroup.py",
     "if image == n:\n", "if image == 2 * n:\n", TAME),
    ("param tame: a block's inverse exponents", "src/ggt/weilparams.py",
     "[-e % big for e in half]", "[e % big for e in half]", TAME),
    ("is_prime: the trial-division bound", "src/ggt/numth.py",
     "_TRIAL_BOUND = 53 * 53\n", "_TRIAL_BOUND = 53 * 53 + 1\n",
     ("tests/test_numth.py",)),
    ("orbit: selfdual, the inverse's negation", "src/ggt/roots.py",
     "selfdual = -exponents[0] % ", "selfdual = exponents[0] % ",
     ("tests/test_roots.py",)),
    ("fingroup: a generator's powers, off its own table",
     "src/ggt/fingroup.py", "if t[0] == i), None)", "if t[0] != i), None)",
     ("tests/test_fingroup.py",)),
    ("fingroup: an exponent, off the power list", "src/ggt/fingroup.py",
     "[powers.index(x) + 1 for x in xs]", "[powers.index(x) for x in xs]",
     ("tests/test_fingroup.py",)),
)


def mutated(root: Path, row: tuple) -> str:
    """The row's file with its fragment replaced; the fragment must occur
    exactly once."""
    name, path, fragment, replacement, _ = row
    text = (root / path).read_text(encoding="utf-8")
    if text.count(fragment) != 1:
        raise ValueError(f"{name}: fragment occurs {text.count(fragment)} "
                         f"times in {path}")
    return text.replace(fragment, replacement)


def run_tests(root: Path, row: tuple | None, tests: tuple) -> bool:
    """Whether the tests pass on a fresh copy of the checkout with the
    row's mutant applied (no mutant for None)."""
    with tempfile.TemporaryDirectory(prefix="ggt-mutant-") as tmp:
        copy = Path(tmp)
        for part in ("src", "tests"):
            shutil.copytree(root / part, copy / part,
                            ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy2(root / "pyproject.toml", copy / "pyproject.toml")
        if row is not None:
            (copy / row[1]).write_text(mutated(root, row), encoding="utf-8")
        env = dict(os.environ, PYTHONPATH=str(copy / "src"),
                   PYTHONDONTWRITEBYTECODE="1")
        proc = subprocess.run(
            [sys.executable, "-m", "pytest", "-x", "-q", "-m", "not slow",
             "--hypothesis-seed=0", "-p", "no:cacheprovider", *tests],
            cwd=copy, env=env, stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL)
        return proc.returncode == 0


def main() -> int:
    root = Path.cwd()
    for row in MUTANTS:
        mutated(root, row)  # every fragment is found before anything runs
    start = time.perf_counter()
    tests = tuple(dict.fromkeys(t for r in MUTANTS for t in r[4]))
    if not run_tests(root, None, tests):
        print("the unmutated copy fails its tests", file=sys.stderr)
        return 2
    survivors = []
    for row in MUTANTS:
        killed = not run_tests(root, row, row[4])
        print(f"{'killed' if killed else 'SURVIVED'}: {row[0]}", flush=True)
        if not killed:
            survivors.append(row[0])
    print(f"{len(MUTANTS) - len(survivors)} of {len(MUTANTS)} mutants killed "
          f"in {time.perf_counter() - start:.0f} s")
    for name in survivors:
        print(f"survivor: {name}")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
