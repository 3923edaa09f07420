"""Total and code lines of each module of src/descartes_folium.

    python3 tests/code_lines.py

A code line holds at least one token that is neither a comment, a docstring
nor layout (newlines and indentation), so blank lines, comment lines and
docstring lines do not count; a line of code with a trailing comment does.
A docstring is a string literal that stands alone as a statement.  The count
uses the standard library's tokenize module only.  Its name keeps pytest from
collecting it.
"""

from __future__ import annotations

import tokenize
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "descartes_folium"
LAYOUT = {tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT, tokenize.ENDMARKER}
STATEMENT_START = {tokenize.ENCODING, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT}


def code_lines(path: Path) -> int:
    """The number of lines of `path` that hold a token other than a comment, a docstring or layout."""
    with path.open("rb") as source:
        tokens = [token for token in tokenize.tokenize(source.readline) if token.type not in (tokenize.COMMENT, tokenize.NL)]
    lines = set()
    for before, token, after in zip(tokens, tokens[1:], tokens[2:]):  # the last token is ENDMARKER
        if token.type in LAYOUT:
            continue
        if token.type == tokenize.STRING and before.type in STATEMENT_START and after.type == tokenize.NEWLINE:
            continue  # a docstring: a string that is a statement by itself
        lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines)


def main() -> None:
    total = code = 0
    for path in sorted(PACKAGE.glob("*.py")):
        lines, counted = len(path.read_text(encoding="utf-8").splitlines()), code_lines(path)
        total, code = total + lines, code + counted
        print(f"{path.name:20} {lines:5} {counted:5}")
    print(f"{'total':20} {total:5} {code:5}")


if __name__ == "__main__":
    main()
