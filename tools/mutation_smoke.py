"""Mutation smoke test: does the test suite kill a fixed list of source mutants?

Each mutant below is one exact textual replacement in one source file.  The
script copies the repository (without `.git`) to a temporary directory, runs
the mutant's covering test modules there once unmutated, then applies each
mutant in turn and runs those modules again in one pytest process, stopping
at the first failure, under a per-mutant timeout.  A mutant whose run fails,
or times out, is killed; one whose run passes survives.

    python3 tools/mutation_smoke.py

Exit status 0 when every mutant is killed, 1 when one survives or
the unmutated tests fail, 2 when a mutant's pattern does not occur exactly
once in its file.  Only the standard library is used to drive the runs;
pytest and hypothesis must be installed for the tests themselves.  The
whole list of 17 took 166-345 s on a shared 2-vCPU Xeon (Python 3.11, two
runs).
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
TIMEOUT_S = 300

SFM_TESTS = ("tests/test_sfm.py", "tests/test_par.py")
SEGMENT_TESTS = ("tests/test_partition.py", "tests/test_par.py")
VALUE_TESTS = ("tests/test_modelfile.py", "tests/test_model.py")
ACHIEVABLE_TESTS = ("tests/test_oracle.py", "tests/test_par.py", "tests/test_so.py")
PAR_TESTS = ("tests/test_par.py",)

# (name, file, pattern, replacement, covering test modules)
MUTANTS = [
    # The min cut: these three once passed the cut's first Hypothesis test.
    ("cut-no-augmenting-paths", "src/omnirate/sfm.py",
     "        if end < 0:\n            return left, reached, paths",
     "        if True:\n            return left, reached, paths", SFM_TESTS),
    # One search grows both the augmenting paths and the final residual
    # reachability, whose blocks are the minimal minimizer.
    ("cut-reachability-without-reverse-arcs", "src/omnirate/sfm.py",
     "fresh = carrying[g] & ~reached", "fresh = 0", SFM_TESTS),
    ("cut-bottleneck-ignores-reverse-arc-flow", "src/omnirate/sfm.py",
     "amount = min(room[end], left[j], *(flow[arc] for arc in backward))",
     "amount = min(room[end], left[j])", SFM_TESTS),
    # `Segmented`'s int comparisons.
    ("segment-construction-allows-equal-ends", "src/omnirate/partition.py",
     "p * ends[-1][1] <= ends[-1][0] * q", "p * ends[-1][1] < ends[-1][0] * q", SEGMENT_TESTS),
    ("segment-bisect-non-strict", "src/omnirate/partition.py",
     "if ends[mid][0] * q < p * ends[mid][1]:", "if ends[mid][0] * q <= p * ends[mid][1]:",
     SEGMENT_TESTS),
    ("segment-range-refuses-top", "src/omnirate/partition.py",
     "p * ends[-1][1] > ends[-1][0] * q", "p * ends[-1][1] >= ends[-1][0] * q", SEGMENT_TESTS),
    # The exponent guard of `model._parse_value`.
    ("value-exponent-cap-exclusive", "src/omnirate/model.py",
     'abs(int(m["exp"])) > MAX_EXPONENT', 'abs(int(m["exp"])) >= MAX_EXPONENT', VALUE_TESTS),
    ("value-exponent-guard-removed", "src/omnirate/model.py",
     '    if m and m["exp"] and abs(int(m["exp"])) > MAX_EXPONENT:\n'
     '        raise ValueError(f"exponent of {text!r} is past +-{MAX_EXPONENT}")\n',
     "", VALUE_TESTS),
    # `oracle.check_achievable`'s Gray-code walk.
    ("achievable-non-strict", "src/omnirate/oracle.py",
     "entropy(complement) * factor < bound", "entropy(complement) * factor <= bound",
     ACHIEVABLE_TESTS),
    ("achievable-whole-carrier-checked", "src/omnirate/oracle.py",
     "if complement and rate +", "if rate +", ACHIEVABLE_TESTS),
    # The chain search's forced probes, its progress check and its bracket
    # children.  A wrong forced answer makes a probe fuse to p_up, which the
    # progress check turns into InternalError instead of an endless search.
    ("par-forced-two-blocks", "src/omnirate/par.py",
     "if len(rest) == 1 and", "if len(rest) <= 2 and", PAR_TESTS),
    ("par-forced-ignores-p-up", "src/omnirate/par.py",
     "if len(rest) == 1 and len(partition) + 1 - len(anchor_blocks) - len(rest) == len(p_up):",
     "if len(rest) == 1:", PAR_TESTS),
    ("par-progress-check-removed", "src/omnirate/par.py",
     "if not len(p_up) < len(fused) < len(p_down):", "if False:", PAR_TESTS),
    ("par-chain-start-unchecked", "src/omnirate/par.py",
     "if masks[0] != 1 << state.carrier_size:", "if False:", PAR_TESTS),
    ("par-children-swapped", "src/omnirate/par.py",
     "        if found != outer:\n"
     "            pending.append((fused, p_up, found, outer, h_fused, h_up))\n"
     "        if found != inner:\n"
     "            pending.append((p_down, fused, inner, found, h_down, h_fused))\n",
     "        if found != inner:\n"
     "            pending.append((p_down, fused, inner, found, h_down, h_fused))\n"
     "        if found != outer:\n"
     "            pending.append((fused, p_up, found, outer, h_fused, h_up))\n",
     PAR_TESTS),
    # Coordinate saturation's fuse, and the plan's first nonsingleton block.
    ("dilworth-no-fuse", "src/omnirate/dilworth.py",
     "partition = partition.with_user(user).merge_mask(result.mask)",
     "partition = partition.with_user(user)", ("tests/test_dilworth.py",)),
    ("so-plan-takes-a-singleton", "src/omnirate/so.py",
     "for b in partition.masks if b & (b - 1)", "for b in partition.masks if b",
     ("tests/test_so.py",)),
]


def run_tests(root: Path, modules) -> str:
    """'passed', 'failed' or 'timeout' for one pytest process over `modules`."""
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    shutil.rmtree(root / ".hypothesis", ignore_errors=True)
    try:
        done = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *modules],
            cwd=root, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
            timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return "timeout"
    return "passed" if done.returncode == 0 else "failed"


def main() -> int:
    for name, path, pattern, _, _ in MUTANTS:
        count = (REPO / path).read_text(encoding="utf-8").count(pattern)
        if count != 1:
            print(f"{name}: pattern occurs {count} times in {path}, not once")
            return 2
    started = time.perf_counter()
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp) / "repo"
        shutil.copytree(REPO, root, ignore=shutil.ignore_patterns(
            ".git", "__pycache__", ".hypothesis", ".pytest_cache", ".work"))
        modules = sorted({m for *_, covering in MUTANTS for m in covering})
        if run_tests(root, modules) != "passed":
            print(f"the unmutated tests fail: {' '.join(modules)}")
            return 1
        survivors = []
        for name, path, pattern, replacement, covering in MUTANTS:
            source = root / path
            original = source.read_text(encoding="utf-8")
            source.write_text(original.replace(pattern, replacement), encoding="utf-8")
            outcome = run_tests(root, covering)
            source.write_text(original, encoding="utf-8")
            print(f"{name}: {'survived' if outcome == 'passed' else 'killed (' + outcome + ')'}",
                  flush=True)
            if outcome == "passed":
                survivors.append(name)
    print(f"{len(MUTANTS) - len(survivors)} of {len(MUTANTS)} killed "
          f"in {time.perf_counter() - started:.0f} s")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
