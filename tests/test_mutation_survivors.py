"""The committed mutation survivor list still describes the source.

tests/mutation_sweep.py writes tests/mutation_survivors.txt.  The sweep takes
minutes, so tier-1 never runs it; this test reads the list alone.  Each
listed survivor quotes the line it mutated, and that line must still occur
in the named module.  The header's per-module counts must match the listed
survivors and add up to the listed total.  A survivor's optional third field
says why it is equivalent, or names the tier-1 test that kills it, and that
test must exist.  When a change to a swept module makes this fail, run the
sweep again and commit its list.
"""

import re
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SURVIVORS = ROOT / "tests" / "mutation_survivors.txt"
PACKAGE = ROOT / "src" / "descartes_folium"


def _entries():
    """(module file, quoted line, third field or None) for each listed survivor."""
    for line in SURVIVORS.read_text(encoding="utf-8").splitlines():
        if line and not line.startswith("#"):
            site, text, *note = line.split("  |  ")
            assert len(note) <= 1, line
            yield site.split(":")[0], text, note[0] if note else None


def test_every_survivor_quotes_a_line_of_its_module():
    entries = list(_entries())
    assert entries
    for module, text, _ in entries:
        lines = {line.strip() for line in (PACKAGE / module).read_text(encoding="utf-8").splitlines()}
        assert text in lines, f"{module} no longer has the line {text!r}; run tests/mutation_sweep.py again"


def test_the_header_counts_add_up():
    header = [line for line in SURVIVORS.read_text(encoding="utf-8").splitlines() if line.startswith("#")]
    per_module = {}
    for line in header:
        if match := re.fullmatch(r"# (\w+\.py): (\d+) of (\d+) survived", line):
            per_module[match[1]] = int(match[2])
    (total,) = [int(match[1]) for line in header if (match := re.fullmatch(r"# (\d+) survivors", line))]
    listed = Counter(module for module, _, _ in _entries())
    assert per_module and set(listed) <= set(per_module)
    assert {module: listed[module] for module in per_module} == per_module
    assert sum(per_module.values()) == total


def test_every_note_says_equivalent_or_names_a_tier1_test():
    notes = [note for _, _, note in _entries() if note is not None]
    for note in notes:
        kind, _, rest = note.partition(": ")
        assert kind in ("equivalent", "tier-1") and rest, note
        if kind == "tier-1":
            path, _, name = rest.partition("::")
            assert f"def {name}(" in (ROOT / path).read_text(encoding="utf-8"), note
