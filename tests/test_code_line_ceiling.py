"""A code-line ceiling: src/descartes_folium stays at or under a committed count of code lines.

tests/code_lines.py counts the lines that hold a token other than a comment,
a docstring or layout.  The ratchet works as the call budget's does: a change
that lowers the count lowers CEILING with it, and a change that raises it
says why in CHANGES.md.  Only real removals lower it: denser formatting is
not less code.
"""

from code_lines import PACKAGE, code_lines

CEILING = 2023


def test_the_package_stays_within_its_code_line_ceiling():
    count = sum(code_lines(path) for path in PACKAGE.glob("*.py"))
    assert count <= CEILING, f"src/ has {count:,} code lines, over the ceiling of {CEILING:,}"
