"""Every univcert name that README.md quotes in backticks exists."""

import importlib
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"

# module.attr[.attr...] inside a code span; a path such as src/univcert/cli.py
# is not a name
NAME = re.compile(r"(?<![\w./])(analytic|certify|cli|numlin|opbuild|spaces)"
                  r"((?:\.[A-Za-z_]\w*)+)")


def _quoted_names():
    text = re.sub(r"^```.*?^```", "", README.read_text(encoding="utf-8"),
                  flags=re.M | re.S)
    spans = re.findall(r"`([^`]+)`", text)
    return sorted({m.group(0) for span in spans for m in NAME.finditer(span)})


def _resolves(dotted: str) -> bool:
    module, *attrs = dotted.split(".")
    obj = importlib.import_module(f"univcert.{module}")
    for attr in attrs:
        if not hasattr(obj, attr):
            return False
        obj = getattr(obj, attr)
    return True


def test_every_backticked_name_in_the_readme_resolves():
    names = _quoted_names()
    assert "cli.run_scenario" in names and "numlin.Spectrum" in names
    assert [name for name in names if not _resolves(name)] == []
