"""Planted defects, each of which named tests must catch.

    python tests/mutants.py

Each row of ROWS is (module, exact old text, new text, test ids). For every
row the script copies the tree (src/, tests/, perfbench/ and the top-level
files pytest and the tests read) into a temporary directory, replaces the
old text in src/univcert/<module>.py with the new and runs only the row's
tests there, so every test that reads a path next to itself reads the
copy. A row is

- killed when every named test fails (a parametrised test id also names
  each of its cases);
- a survivor when some named test still passes;
- stale when its old text is not found exactly once in the module.

The named tests are first run once on the unchanged tree: a test id that
pytest cannot find, or a test that fails there, stops the script before any
row runs. The exit status is 0 only when every row is killed. Pytest's
output for a survivor is printed after its line. Standard library only;
pytest does not collect this file.
"""

from __future__ import annotations

import os
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
COPIED = ("src", "tests", "perfbench", "pyproject.toml", "README.md")

ROWS = (
    # check_M certifies without asking the product kernel to equal the sum
    ("certify", "if _strictly_increasing(inters) and sums_match and coranks_zero:",
     "if _strictly_increasing(inters) and coranks_zero:",
     ["tests/test_certify.py::test_check_M_verdict_reads_the_rung_counts_alone"]),
    # the kernel sum forgets the intersection
    ("certify", ' - counts["intersection_dim"]', "",
     ["tests/test_certify.py::test_check_M_verdict_reads_the_rung_counts_alone",
      "tests/test_acceptance.py::test_criterion_03_multiplication_pair_dimensions"]),
    # the dense pair's intersection stacks U on V unscaled
    ("certify", "scaled = [m / (s.values[0] or 1.0) for m, s in ((u, s1), (v, s2))]",
     "scaled = [u, v]",
     ["tests/test_certify.py::test_dense_check_M_counts_agree_with_kernel_bases"]),
    # the HS corank keeps the rows that truncation loses
    ("certify", "numlin.Spectrum.of(b[:-d]).corank()", "numlin.Spectrum.of(b).corank()",
     ["tests/test_acceptance.py::test_criterion_03_multiplication_pair_dimensions"]),
    # cor34's remainders framed before the subtraction
    ("opbuild", "weighted_frame(OpMatrix(reference - p, w))",
     "weighted_frame(OpMatrix(reference, w)) - weighted_frame(OpMatrix(p, w))",
     ["tests/test_opbuild.py::test_heller_remainders_are_framed_after_subtracting"]),
    # a rung's corank read from the rows after the dropped band
    ("certify", "rung.square[:rows - rung.drop_rows]", "rung.square[rung.drop_rows:]",
     ["tests/test_certify.py::"
      "test_a_witnessed_rung_that_no_shift_proves_is_built_again_for_the_svd",
      "tests/test_certify.py::test_rank_one_bump_splits_C_from_Cplus"]),
    # thm32's witnesses divided by k, as in the unweighted coordinates
    ("certify", "trunc)[:, 1:]", "trunc)[:, 1:] / np.arange(1, trunc)",
     ["tests/test_acceptance.py::"
      "test_criterion_06_adjoint_certified_with_growing_witnesses"]),
    # a frame that adds + 0.0 and so turns -0.0 into 0.0
    ("opbuild", "return a.entries * (s[:, None] / s[None, :])",
     "return a.entries * (s[:, None] / s[None, :]) + 0.0",
     ["tests/test_opbuild.py::test_unit_weights_frame_to_the_same_bits"]),
    # ex46's numbers formatted without rounding the copy first
    ("cli", "mp.nstr(+x, n)", "mp.nstr(x, n)",
     ["tests/test_analytic.py::"
      "test_tiny_numbers_held_at_thousands_of_digits_format_to_their_leading_digits"]),
    # an allocation failure escapes main as a traceback
    ("cli", "except (ValueError, OSError, MemoryError) as exc:",
     "except (ValueError, OSError) as exc:",
     ["tests/test_cli.py::test_main_oversized_truncation_exits_2_with_one_line"]),
    # the Gram certificate proves corank 0 whenever its bound is positive,
    # without comparing it with the threshold tol ||B||_F
    ("numlin", "if lower_sq > tol_rel ** 2 * fro_sq:", "if lower_sq > 0.0:",
     ["tests/test_numlin.py::test_a_scaled_matrix_is_not_proven"]),
    # a witnessed rung reports corank 0 when no shift proves it
    ("certify", "if lower is not None:", "if True:",
     ["tests/test_certify.py::"
      "test_a_witnessed_rung_that_no_shift_proves_is_built_again_for_the_svd"]),
    # an unwritable --out or a missing config escapes main as a traceback
    ("cli", "except (ValueError, OSError, MemoryError) as exc:",
     "except (ValueError, MemoryError) as exc:",
     ["tests/test_cli.py::test_main_unwritable_out_exits_2_with_one_line",
      "tests/test_cli.py::test_main_bad_input_exits_2_with_one_line[argv17]"]),
    # main checks each scenario only when it runs, so a good scenario ahead
    # of a bad one writes its report before main exits 2
    ("cli", '        for _, problems in checked:\n'
            '            if problems:\n'
            '                raise ValueError("; ".join(problems))\n', "",
     ["tests/test_cli.py::test_main_bad_input_exits_2_with_one_line[argv6]"]),
    # the scan proves a cell at the smaller of its thresholds, so a cell with
    # a kernel at the larger one reads dim 0 there
    ("certify", "max(SCAN_TOLS)", "min(SCAN_TOLS)",
     ["tests/test_certify.py::test_a_cell_between_the_scan_thresholds_takes_the_svd"]),
    # the Gram certificate ignores its caller's threshold and proves at the
    # rank threshold 1e-8
    ("numlin", "if lower_sq > tol_rel ** 2 * fro_sq:",
     "if lower_sq > DEFAULT_TOL ** 2 * fro_sq:",
     ["tests/test_numlin.py::test_the_caller_sets_the_threshold",
      "tests/test_certify.py::test_a_cell_between_the_scan_thresholds_takes_the_svd"]),
)

# "FAILED tests/x.py::name[case] - message" and "ERROR tests/x.py - message"
# lines of pytest's -rfE summary
REPORTED = re.compile(r"^(?:FAILED|ERROR) (\S+)", re.M)


def copy_tree(dest: Path) -> None:
    ignore = shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache")
    for name in COPIED:
        src = ROOT / name
        if src.is_dir():
            shutil.copytree(src, dest / name, ignore=ignore)
        else:
            shutil.copy2(src, dest / name)


def run_tests(tree: Path, ids) -> tuple[int, set[str], str]:
    """(pytest's exit status, the failed or errored ids, its output) for ids
    run in tree at one BLAS thread."""
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "PYTHONDONTWRITEBYTECODE": "1"}
    env.pop("PYTHONPATH", None)
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-rfE", "-p", "no:cacheprovider", *ids],
        cwd=tree, env=env, capture_output=True, text=True)
    out = proc.stdout + proc.stderr
    return proc.returncode, set(REPORTED.findall(out)), out


def caught(test_id: str, failed: set[str]) -> bool:
    """Whether a failed or errored id is test_id, one of its parametrised
    cases, or the file that holds it."""
    return any(f == test_id or f.startswith(test_id + "[") or test_id.startswith(f + "::")
               for f in failed)


def main() -> int:
    ids = sorted({t for *_, tests in ROWS for t in tests})
    bad = 0
    with tempfile.TemporaryDirectory() as tmp:
        clean = Path(tmp) / "clean"
        copy_tree(clean)
        status, failed, out = run_tests(clean, ids)
        if status != 0:
            print(f"the named tests do not all pass on the unchanged tree "
                  f"(pytest exit {status}):\n{out}")
            return 1
        for n, (module, old, new, tests) in enumerate(ROWS):
            tree = Path(tmp) / f"row{n}"
            shutil.copytree(clean, tree)
            path = tree / "src" / "univcert" / f"{module}.py"
            text = path.read_text(encoding="utf-8")
            where = f"row {n} {module}: {old!r} -> {new!r}"
            if text.count(old) != 1:
                print(f"STALE    {where}: old text found {text.count(old)} times")
                bad += 1
                continue
            path.write_text(text.replace(old, new), encoding="utf-8")
            status, failed, out = run_tests(tree, tests)
            shutil.rmtree(tree)
            if all(caught(t, failed) for t in tests):
                print(f"killed   {where}")
            else:
                missed = [t for t in tests if not caught(t, failed)]
                print(f"SURVIVED {where}: still passing {missed}\n{out}")
                bad += 1
    print(f"{len(ROWS) - bad} of {len(ROWS)} rows killed")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
