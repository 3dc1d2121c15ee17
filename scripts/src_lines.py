"""Count the lines of hessqr's source in one or more checkouts.

    python scripts/src_lines.py CHECKOUT [CHECKOUT ...]

For each checkout, prints one row per module of ``src/hessqr`` and one for
all of them: the total lines and the code lines.  A code line is a line that
some token other than a comment covers (a string spanning several lines
covers each of them), and that is not part of a module, class or function
docstring; blank and comment-only lines are covered by no such token.  Uses
the standard library only.
"""

import argparse
import ast
import io
import tokenize
from pathlib import Path

# tokens that carry no code: comments, line ends, indentation, file bounds
LAYOUT = frozenset(
    {
        tokenize.COMMENT,
        tokenize.NL,
        tokenize.NEWLINE,
        tokenize.INDENT,
        tokenize.DEDENT,
        tokenize.ENCODING,
        tokenize.ENDMARKER,
    }
)
SCOPES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def docstring_lines(tree):
    """Line numbers of the module, class and function docstrings of tree."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, SCOPES) and node.body:
            first = node.body[0]
            if (
                isinstance(first, ast.Expr)
                and isinstance(first.value, ast.Constant)
                and isinstance(first.value.value, str)
            ):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def count(source):
    """(total lines, code lines) of one module's source text."""
    covered = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in LAYOUT:
            covered.update(range(tok.start[0], tok.end[0] + 1))
    return len(source.splitlines()), len(covered - docstring_lines(ast.parse(source)))


def checkout_counts(root):
    """{module file name: (total, code)} for src/hessqr of a checkout."""
    modules = sorted((Path(root) / "src" / "hessqr").glob("*.py"))
    if not modules:
        raise SystemExit(f"{root}: no src/hessqr/*.py")
    return {p.name: count(p.read_text(encoding="utf-8")) for p in modules}


def report(root, counts):
    rows = [f"{root}", f"  {'module':<16}{'total':>7}{'code':>7}"]
    rows += [f"  {name:<16}{total:>7}{code:>7}" for name, (total, code) in counts.items()]
    total = sum(t for t, _ in counts.values())
    code = sum(c for _, c in counts.values())
    rows.append(f"  {'all':<16}{total:>7}{code:>7}")
    return "\n".join(rows)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("checkouts", nargs="+", metavar="CHECKOUT")
    args = ap.parse_args(argv)
    print("\n\n".join(report(root, checkout_counts(root)) for root in args.checkouts))


if __name__ == "__main__":
    main()
