"""Line and settable-value counts of each ``src/bitmotor`` module.

Run ``python3 tools/src_stats.py``. It reads the ``src/bitmotor`` next to
this file's parent directory, so a copy of the tool inside another checkout
counts that checkout. One row per module, then a total:

- lines: every line of the file;
- code: lines that hold code, that is not blank, comment-only or docstring;
- doc: lines of module, class and function docstrings;
- settable: parameters with defaults plus dataclass fields, the values a
  caller can set.

``--settable`` prints one ``module owner name`` line per settable value
instead, the owner being the dotted name of its function or class, so two
checkouts' settable values can be compared with ``diff``.
"""

from __future__ import annotations

import argparse
import ast
import io
import tokenize
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "bitmotor"
_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
             tokenize.DEDENT, tokenize.ENDMARKER}


def docstring_lines(tree):
    """Line numbers covered by the tree's docstrings."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def token_lines(text):
    """Line numbers that hold a token other than a comment or layout."""
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type not in _NOT_CODE:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return lines


def _is_dataclass(cls):
    for dec in cls.decorator_list:
        target = dec.func if isinstance(dec, ast.Call) else dec
        name = target.attr if isinstance(target, ast.Attribute) else getattr(target, "id", None)
        if name == "dataclass":
            return True
    return False


def settable_values(tree):
    """(owner, name) of each parameter with a default and each dataclass field."""
    found = []

    def visit(node, prefix):
        for child in ast.iter_child_nodes(node):
            inner = prefix
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                owner = prefix + getattr(child, "name", "<lambda>")
                a = child.args
                positional = a.posonlyargs + a.args
                found.extend((owner, p.arg) for p in positional[len(positional) - len(a.defaults):])
                found.extend((owner, p.arg) for p, d in zip(a.kwonlyargs, a.kw_defaults) if d is not None)
                inner = owner + "."
            elif isinstance(child, ast.ClassDef):
                owner = prefix + child.name
                if _is_dataclass(child):
                    found.extend((owner, ast.unparse(stmt.target)) for stmt in child.body
                                 if isinstance(stmt, ast.AnnAssign))
                inner = owner + "."
            visit(child, inner)

    visit(tree, "")
    return found


def module_stats(path):
    """(lines, code, doc, settable) of one source file."""
    text = path.read_text()
    tree = ast.parse(text)
    doc = docstring_lines(tree)
    code = token_lines(text) - doc
    return len(text.splitlines()), len(code), len(doc), len(settable_values(tree))


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--settable", action="store_true", help="list the settable values by name")
    args = ap.parse_args(argv)
    if args.settable:
        for p in sorted(SRC.glob("*.py")):
            for owner, name in settable_values(ast.parse(p.read_text())):
                print(p.name, owner, name)
        return
    rows = [(p.name, *module_stats(p)) for p in sorted(SRC.glob("*.py"))]
    rows.append(("total", *(sum(col) for col in list(zip(*rows))[1:])))
    print(f"{'module':<16}{'lines':>7}{'code':>7}{'doc':>7}{'settable':>10}")
    for name, lines, code, doc, settable in rows:
        print(f"{name:<16}{lines:>7}{code:>7}{doc:>7}{settable:>10}")


if __name__ == "__main__":
    main()
