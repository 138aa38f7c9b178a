"""The README's "Public API" list is exactly what ``csres`` exports."""

import inspect
import re
from pathlib import Path

import csres
import csres.vqa

README = Path(__file__).resolve().parents[1] / "README.md"


def _public_api_section():
    text = README.read_text(encoding="utf-8")
    start = text.index("### Public API")
    return text[start:text.index("Every other name", start)]


def test_readme_lists_exactly_the_exports():
    section = _public_api_section()
    bullets = "\n".join(ln for ln in section.splitlines() if ln.startswith(("* ", "  ")))
    listed = re.findall(r"`([A-Za-z_][A-Za-z0-9_]*)`", bullets)
    exported = {name for name, value in vars(csres).items()
                if not name.startswith("_") and not inspect.ismodule(value)}
    assert len(listed) == len(set(listed)), "a name is listed twice"
    assert set(listed) == exported


def test_readme_names_variance_cost_beyond_the_exports():
    assert "`csres.vqa.VarianceCost`" in _public_api_section()
    assert inspect.isclass(csres.vqa.VarianceCost)
    assert "VarianceCost" not in vars(csres)
