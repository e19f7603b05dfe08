"""Mutation gate: every mutant in the table must fail the tests that claim to catch it.

Usage, from the root of a checkout::

    python tools/mutants.py            # every mutant
    python tools/mutants.py ID [ID]    # the named ones

Each row of :data:`MUTANTS` is ``(id, file, old, new, tests)``: ``old`` is
a piece of text of ``file`` that must occur exactly once there, ``new``
replaces it, and ``tests`` are the pytest selections that must fail on the
mutant.  The tree is copied once to a temporary directory.  For each row the
gate refuses an ``old`` that does not occur exactly once, requires the
unmutated copy to pass the row's tests, then applies the mutant, requires
the tests to fail, and restores the file.  The exit code is 0 only when
every mutant is caught.  A gate added to the tests adds the mutant it
claims to catch here.  Standard library only.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

MUTANTS = (
    ("chunk-seed", "src/povmdt/_kernels.py",
     "spawn_key=(c,)))", "spawn_key=(0,)))",
     ("tests/test_montecarlo.py",)),
    ("split-pair-swapped", "src/povmdt/_kernels.py",
     "return 2.0 * p_g / (1.0 + p_g - p_h + s), 2.0 * p_h / (1.0 - p_g + p_h + s)",
     "return 2.0 * p_h / (1.0 - p_g + p_h + s), 2.0 * p_g / (1.0 + p_g - p_h + s)",
     ("tests/test_montecarlo.py",)),
    ("rejected-bucket-first", "src/povmdt/montecarlo.py",
     "pvals[..., :4] = cells", "pvals[..., 1:] = cells",
     ("tests/test_montecarlo.py",)),
    ("positive-weights-only", "src/povmdt/_kernels.py",
     "if w:", "if w > 0:",
     ("tests/test_montecarlo.py",)),
    ("writer-dedupes-floats-by-value", "src/povmdt/reports.py",
     "column.view(np.int64) if bits else column", "column",
     ("tests/test_cli.py::TestArtifactWriters",)),
    ("rotation-as-array-multiply", "src/povmdt/noise.py",
     "    for m in elems:\n        m[j, k] *= factor\n        m[k, j] *= conjugate\n",
     "    elems[:, j, k] *= factor\n    elems[:, k, j] *= conjugate\n",
     ("tests/test_noise.py",)),
    ("scan-seed-through-float64", "src/povmdt/cli.py",
     "dtype=np.int64 if shot.seed < 2**63 else object",
     "dtype=np.int64 if shot.seed < 2**63 else float",
     ("tests/test_cli.py::TestScanCommand",)),
    ("sum-rule-unchecked", "src/povmdt/estimator.py",
     "    if not residual <= DEFAULT_TOL:  # also NaN\n", "    if False:\n",
     ("tests/test_cli.py::TestScanCommand", "tests/test_montecarlo.py::TestRefinementTrials")),
)


def stale(root: str, row: tuple) -> str | None:
    """Why a row cannot be applied to the tree at ``root``, or None: its
    ``old`` text must occur exactly once in its file."""
    mutant, path, old, _, _ = row
    with open(os.path.join(root, path)) as fh:
        count = fh.read().count(old)
    return None if count == 1 else f"{mutant}: its old text occurs {count} times in {path}"


def run_tests(copy: str, tests: tuple) -> int:
    """pytest's exit code for ``tests`` in the tree at ``copy``."""
    env = dict(os.environ, PYTHONPATH=os.path.join(copy, "src"))
    return subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *tests],
        cwd=copy, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
    ).returncode


def main(argv: list[str]) -> int:
    rows = [row for row in MUTANTS if not argv or row[0] in argv]
    unknown = sorted(set(argv) - {row[0] for row in MUTANTS})
    if unknown:
        print(f"no mutant named {', '.join(unknown)}", file=sys.stderr)
        return 2
    problems = [p for p in (stale(ROOT, row) for row in rows) if p]
    if problems:
        print("\n".join(problems), file=sys.stderr)
        return 1
    with tempfile.TemporaryDirectory() as tmp:
        copy = os.path.join(tmp, "tree")
        shutil.copytree(ROOT, copy, ignore=shutil.ignore_patterns(
            ".git", "__pycache__", ".pytest_cache", ".perfbench_out"))
        passing = {}
        escaped = 0
        for mutant, path, old, new, tests in rows:
            if tests not in passing:
                passing[tests] = run_tests(copy, tests) == 0
            if not passing[tests]:
                print(f"{mutant}: the unmutated tree fails {' '.join(tests)}")
                escaped += 1
                continue
            target = os.path.join(copy, path)
            with open(target) as fh:
                source = fh.read()
            with open(target, "w") as fh:
                fh.write(source.replace(old, new))
            try:
                code = run_tests(copy, tests)
            finally:
                with open(target, "w") as fh:
                    fh.write(source)
            # pytest exits 1 when tests fail; any other code is not a caught mutant
            print(f"{mutant}: {'caught' if code == 1 else f'NOT caught (pytest exit {code})'}")
            escaped += code != 1
    print(f"{len(rows) - escaped} of {len(rows)} mutants caught")
    return 0 if escaped == 0 else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
