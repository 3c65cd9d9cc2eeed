"""DESIGN.md §8 names exactly what ``tools/surface.py`` lists.

Every definition the tool prints (reachable from tests only) must have a
row in §8's table, and every name in that table must still be printed:
a PR that deletes a caller, or the last test-only entry, updates both.
Names are compared by their last dotted component, as the tool prints
them.
"""

import pathlib
import re
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent


def _surface_names():
    out = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "surface.py")],
        check=True,
        capture_output=True,
        text=True,
    ).stdout
    return {line.split()[1] for line in out.splitlines() if line.strip()}


def _design_names():
    text = (ROOT / "DESIGN.md").read_text()
    section = text.split("\n## 8. ", 1)[1].split("\n## ", 1)[0]
    names = set()
    for line in section.splitlines():
        if line.startswith("| `"):
            entry = line.split("|")[1]
            names.update(
                name.rsplit(".", 1)[-1] for name in re.findall(r"`([\w.]+)`", entry)
            )
    return names


def test_design_section_8_names_exactly_the_surface():
    listed = _surface_names()
    assert listed, "tools/surface.py printed nothing"
    named = _design_names()
    assert sorted(listed - named) == [], "listed but not in DESIGN.md §8"
    assert sorted(named - listed) == [], "in DESIGN.md §8 but no longer listed"
