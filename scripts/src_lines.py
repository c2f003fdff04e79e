"""Print each source module's lines by kind: total, docstring, comment, blank, code.

    python scripts/src_lines.py
    python scripts/src_lines.py path/to/src

Every line of a module counts as exactly one kind.  A line inside a
docstring (the string that opens a module, class or function body, found by
``ast``) is docstring; any other line that holds a token of code (found by
``tokenize``; every line of a multi-line string counts) is code, even when a
comment follows on it; a line whose only token is a comment is comment; the
rest are blank.  So a change that deletes docstrings or comments shows as such,
where ``wc -l`` would count it as fewer lines of code.  The last row sums the
modules.
"""

from __future__ import annotations

import argparse
import ast
import io
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
KINDS = ("total", "docstring", "comment", "blank", "code")
#: tokens that hold no code of their own
_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
           tokenize.ENCODING, tokenize.ENDMARKER}


def docstring_lines(tree: ast.Module) -> set:
    """Line numbers of every module, class and function docstring in ``tree``."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def count(source: str) -> dict:
    """The lines of one module's ``source`` by kind, as a dict over :data:`KINDS`."""
    docs = docstring_lines(ast.parse(source))
    code, comments = set(), set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type == tokenize.COMMENT:
            comments.add(tok.start[0])
        elif tok.type not in _LAYOUT:
            code.update(range(tok.start[0], tok.end[0] + 1))
    total = len(source.splitlines())
    out = dict.fromkeys(KINDS, 0)
    out["total"] = total
    for line in range(1, total + 1):
        kind = ("docstring" if line in docs else "code" if line in code
                else "comment" if line in comments else "blank")
        out[kind] += 1
    return out


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("src", nargs="?", default=str(ROOT / "src"), help="directory of modules")
    src = Path(p.parse_args(argv).src)
    rows = [(str(path.relative_to(src)), count(path.read_text()))
            for path in sorted(src.rglob("*.py"))]
    rows.append(("total", {k: sum(row[k] for _, row in rows) for k in KINDS}))
    width = max(len(name) for name, _ in rows)
    print(f"{'module':<{width}}" + "".join(f"{k:>11}" for k in KINDS))
    for name, row in rows:
        print(f"{name:<{width}}" + "".join(f"{row[k]:>11}" for k in KINDS))


if __name__ == "__main__":
    main()
