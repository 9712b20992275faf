"""Compare two report trees under the rounding-noise parity rule.

Strings, booleans, integers and verdicts must be equal. Floats, as JSON
leaves or CSV cells, pass when |a - b| <= ABS_TOL + REL_TOL * |a|, with a
taken from the first (reference) tree. Files other than JSON and CSV must
be byte-identical.

    python tests/report_parity.py REFERENCE_DIR CANDIDATE_DIR

prints each float field that moved with its max abs and max rel drift,
then every violation, and exits 1 when parity fails.
"""

from __future__ import annotations

import csv
import json
import math
import re
import sys
from dataclasses import dataclass, field
from pathlib import Path

ABS_TOL = 1e-12
REL_TOL = 1e-9

_INT = re.compile(r"[+-]?\d+")


@dataclass
class Drift:
    """Moved floats of one field: how many and how far."""

    moved: int = 0
    max_abs: float = 0.0
    max_rel: float = 0.0

    def add(self, a: float, b: float):
        self.moved += 1
        diff = abs(a - b)
        self.max_abs = max(self.max_abs, diff)
        self.max_rel = max(self.max_rel, diff / abs(a) if a else math.inf)


@dataclass
class Parity:
    drift: dict[str, Drift] = field(default_factory=dict)
    violations: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations


def floats_agree(a: float, b: float) -> bool:
    return abs(a - b) <= ABS_TOL + REL_TOL * abs(a)


def _leaf(a, b, name: str, where: str, out: Parity):
    if isinstance(a, float) and isinstance(b, float):
        if a == b or (math.isnan(a) and math.isnan(b)):
            return
        if not math.isfinite(a) or not math.isfinite(b):
            out.violations.append(f"{where}: {a!r} != {b!r}")
            return
        out.drift.setdefault(name, Drift()).add(a, b)
        if not floats_agree(a, b):
            out.violations.append(f"{where}: {a!r} vs {b!r} beyond the float rule")
    elif type(a) is not type(b) or a != b:
        out.violations.append(f"{where}: {a!r} != {b!r}")


def _compare_json(a, b, name: str, where: str, out: Parity):
    if isinstance(a, dict) and isinstance(b, dict):
        if a.keys() != b.keys():
            out.violations.append(f"{where}: keys {sorted(a)} != {sorted(b)}")
            return
        for key in a:
            _compare_json(a[key], b[key], f"{name}.{key}", f"{where}.{key}", out)
    elif isinstance(a, list) and isinstance(b, list):
        if len(a) != len(b):
            out.violations.append(f"{where}: length {len(a)} != {len(b)}")
            return
        for i, (x, y) in enumerate(zip(a, b)):
            _compare_json(x, y, f"{name}[]", f"{where}[{i}]", out)
    else:
        _leaf(a, b, name, where, out)


def _cell(text: str):
    """An integer, a float or a string, by how the cell is written."""
    if _INT.fullmatch(text):
        return int(text)
    try:
        return float(text)
    except ValueError:
        return text


def _compare_csv(a_path: Path, b_path: Path, rel: str, out: Parity):
    with a_path.open(newline="", encoding="utf-8") as fa, \
            b_path.open(newline="", encoding="utf-8") as fb:
        a_rows, b_rows = list(csv.reader(fa)), list(csv.reader(fb))
    if len(a_rows) != len(b_rows) or not a_rows or a_rows[0] != b_rows[0]:
        out.violations.append(f"{rel}: header or row count differs")
        return
    header = a_rows[0]
    for i, (ra, rb) in enumerate(zip(a_rows[1:], b_rows[1:]), start=1):
        if len(ra) != len(header) or len(rb) != len(header):
            out.violations.append(f"{rel} row {i}: cell count differs from the header")
            continue
        for col, x, y in zip(header, ra, rb):
            _leaf(_cell(x), _cell(y), f"{rel}:{col}", f"{rel} row {i} {col}", out)


def compare_trees(reference: Path, candidate: Path) -> Parity:
    reference, candidate = Path(reference), Path(candidate)
    out = Parity()

    def files(root):
        return {p.relative_to(root).as_posix() for p in root.rglob("*") if p.is_file()}

    a_files, b_files = files(reference), files(candidate)
    for rel in sorted(a_files ^ b_files):
        out.violations.append(f"{rel}: present in only one tree")
    for rel in sorted(a_files & b_files):
        a_path, b_path = reference / rel, candidate / rel
        if a_path.read_bytes() == b_path.read_bytes():
            continue
        if rel.endswith(".json"):
            a = json.loads(a_path.read_text(encoding="utf-8"))
            b = json.loads(b_path.read_text(encoding="utf-8"))
            _compare_json(a, b, rel + ":$", rel + ":$", out)
        elif rel.endswith(".csv"):
            _compare_csv(a_path, b_path, rel, out)
        else:
            out.violations.append(f"{rel}: bytes differ")
    return out


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 2:
        print("usage: report_parity.py REFERENCE_DIR CANDIDATE_DIR", file=sys.stderr)
        return 2
    parity = compare_trees(Path(args[0]), Path(args[1]))
    print(f"{'field':<64} {'moved':>6} {'max abs':>10} {'max rel':>10}")
    for name, d in sorted(parity.drift.items()):
        print(f"{name:<64} {d.moved:>6} {d.max_abs:>10.2e} {d.max_rel:>10.2e}")
    for v in parity.violations:
        print(f"VIOLATION {v}")
    print("parity holds" if parity.ok else f"parity fails: {len(parity.violations)} violations")
    return 0 if parity.ok else 1


if __name__ == "__main__":
    sys.exit(main())
