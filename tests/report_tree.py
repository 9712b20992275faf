"""Write the report tree that two commits are compared on.

    PYTHONPATH=src python tests/report_tree.py OUT

runs every registered scenario at its defaults into OUT/defaults, and each
case of EXTRA_CASES, a smaller or a complex-valued run of a scenario whose
defaults leave part of its code unexercised, into OUT/<case>; every report
is written in both formats. The univcert on PYTHONPATH is the one run, so
the same script writes the tree of another checkout. Compare two trees with
`diff -r` for the same bytes, or with tests/report_parity.py for parity.
"""

from __future__ import annotations

import sys
from pathlib import Path

from univcert import cli

EXTRA_CASES = (
    ("thm44-2x2", "thm44-block-pair", {"ladder": "2x2,3x3,4x4"}),
    ("ex25-3", "ex25-notC", {"ladder": "3,4,5"}),
    ("ex26-trunc2", "ex26-perturbation", {"trunc": "2", "n_max": "3"}),
    ("thm32-complex", "thm32-adjoint-certify",
     {"lam": "1.2+0.3j", "ladder": "64,128,256", "index_max": "16"}),
    # near the unit circle: the Gram certificate's first shift fails on the
    # upper rungs, so the second one decides them
    ("thm32-near-circle", "thm32-adjoint-certify",
     {"lam": "1.01", "ladder": "64,128,256", "index_max": "16"}),
)


def cases() -> list[tuple[str, str, dict]]:
    """(directory, scenario, parameters) for every report of the tree."""
    return [("defaults", name, {}) for name in sorted(cli.REGISTRY)] + list(EXTRA_CASES)


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 1:
        print("usage: report_tree.py OUT", file=sys.stderr)
        return 2
    for directory, name, params in cases():
        cli.run_scenario(name, params, Path(args[0]) / directory)
    return 0


if __name__ == "__main__":
    sys.exit(main())
