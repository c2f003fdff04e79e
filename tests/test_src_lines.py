"""The line kinds that scripts/src_lines.py counts, on a made-up module."""

import importlib.util
from pathlib import Path

_PATH = Path(__file__).resolve().parent.parent / "scripts" / "src_lines.py"
_SPEC = importlib.util.spec_from_file_location("src_lines", _PATH)
src_lines = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(src_lines)

SOURCE = '''"""Module docstring,

over three lines."""

# a comment line
X = """a multi-line string
that is code"""  # a trailing comment: still code


def f(x):
    """One-line docstring."""
    # another comment

    return [
        x,
    ]


class C:
    """Class docstring
    on two lines."""
'''


def test_each_line_counts_as_one_kind():
    counts = src_lines.count(SOURCE)
    assert counts == {"total": 21, "docstring": 6, "comment": 2, "blank": 6, "code": 7}
    assert sum(counts[k] for k in src_lines.KINDS[1:]) == counts["total"]


def test_totals_are_the_line_counts_of_the_modules(capsys):
    src_lines.main([])
    rows = capsys.readouterr().out.splitlines()
    src = _PATH.parent.parent / "src"
    want = sum(len(p.read_text().splitlines()) for p in src.rglob("*.py"))
    assert rows[0].split() == ["module", *src_lines.KINDS]
    assert int(rows[-1].split()[1]) == want
