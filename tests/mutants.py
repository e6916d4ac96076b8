"""The mutant table: deliberate faults that the tests must catch, and the
known ones they do not (mutation testing: DeMillo, Lipton and Sayward
1978, *Hints on test data selection*).

Each mutant replaces one exact source snippet, which occurs once in its
file, and names the tests expected to kill it, or says "survives: item N"
for a known gap and the ROADMAP item that closes it.  A change that edits a
snippet updates its row here; `tests/test_mutants.py` checks in tier-1
that every snippet still occurs exactly once and that every named test
exists.

Run as a script from anywhere, `python tests/mutants.py [id ...]`: each
mutant is applied to a copy of the checkout in a temporary directory,
where its killers run first and, if none fails, the full tier-1; it prints
what killed each mutant, or that it survived, beside what the table
expects, and exits 1 when any disagrees.  Nothing is written in the
checkout.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


@dataclass(frozen=True)
class Mutant:
    id: str
    file: str  # relative to the root of the checkout
    snippet: str
    replacement: str
    killers: tuple  # pytest node ids, or () for a known survivor
    survives: str = ""  # "item N" for a known survivor


MUTANTS = (
    Mutant(
        "ppi-closed-form-without-distinct-rows",
        "src/stardecomp/engine.py",
        "crowded = (counts > 1) | (np.bincount(rows[counts == 1], minlength=ctx.dim) > 1)",
        "crowded = counts > 1",
        ("tests/test_chains.py::test_ppi_check_on_small_monomial_matrices[repeated row]",
         "tests/test_chains.py::test_ppi_split_matches_the_dense_check"),
    ),
    Mutant(
        "ppi-closed-form-without-modulus-term",
        "src/stardecomp/engine.py",
        "a2 * (a2 - 1) ** 2",
        "0 * a2",
        ("tests/test_chains.py::test_ppi_check_on_small_monomial_matrices[modulus 2]",
         "tests/test_chains.py::test_ppi_split_matches_the_dense_check"),
    ),
    Mutant(
        "ppi-split-without-dense-check",
        "src/stardecomp/engine.py",
        "part = ctx.domain.norm((rows @ p.conj().T) @ p[:, k] - rows[:, k])",
        "part = 0.0",
        ("tests/test_chains.py::test_ppi_check_on_small_monomial_matrices[repeated row]",
         "tests/test_chains.py::test_ppi_split_matches_the_dense_check"),
    ),
    Mutant(
        "masked-product-rows-for-columns",
        "src/stardecomp/projections.py",
        'keep = (m[:, None] if side == "left" else m[None, :] if side == "right"',
        'keep = (m[None, :] if side == "left" else m[:, None] if side == "right"',
        ("tests/test_projections.py::test_masked_lattice_matches_the_dense_one",),
    ),
    Mutant(
        "slocinski-us-su-swap",
        "src/stardecomp/engine.py",
        "p = seeds[label]",
        'p = seeds[{"us": "su", "su": "us"}.get(label, label)]',
        (),
        "items 1, 2",
    ),
    Mutant(
        "weak-bishift-us-su-swap",
        "src/stardecomp/engine.py",
        'ProjectionBasis((("uu", p_uu), ("us", p_us), ("su", p_su), ("ws", p_ws)))',
        'ProjectionBasis((("uu", p_uu), ("us", p_su), ("su", p_us), ("ws", p_ws)))',
        (),
        "items 1, 2",
    ),
)


def _pytest(cwd: Path, args: list) -> bool:
    """True when the tests pass in the mutated copy."""
    env = dict(os.environ, PYTHONPATH="src", PYTHONDONTWRITEBYTECODE="1")
    cmd = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *args]
    return subprocess.run(cmd, cwd=cwd, env=env, stdout=subprocess.DEVNULL,
                          stderr=subprocess.DEVNULL).returncode == 0


def run(mutant: Mutant) -> str:
    """What kills the mutant in a mutated copy of the checkout: "killers"
    when a named killer fails, "tier-1" when only the full tier-1 fails,
    "" when it survives."""
    with tempfile.TemporaryDirectory() as tmp:
        copy = Path(tmp) / "checkout"
        shutil.copytree(ROOT, copy, ignore=shutil.ignore_patterns(
            ".git", "__pycache__", ".pytest_cache", ".hypothesis"))
        path = copy / mutant.file
        text = path.read_text()
        if text.count(mutant.snippet) != 1:
            raise ValueError(f"{mutant.id}: the snippet does not occur exactly once")
        path.write_text(text.replace(mutant.snippet, mutant.replacement))
        if mutant.killers and not _pytest(copy, list(mutant.killers)):
            return "killers"
        # the liveness test of this table fails on every applied mutant
        return "" if _pytest(copy, ["--ignore=tests/test_mutants.py"]) else "tier-1"


def main(argv: list) -> int:
    chosen = [m for m in MUTANTS if not argv or m.id in argv]
    disagree = 0
    for mutant in chosen:
        by = run(mutant)
        expected = "killed by its killers" if mutant.killers else f"survives: {mutant.survives}"
        got = f"killed by {by}" if by else "survived"
        disagree += by != ("killers" if mutant.killers else "")
        print(f"{mutant.id}: {got} (table: {expected})", flush=True)
    return 1 if disagree else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
