"""The statements of src/kinchaos that the test suite never runs.

    PYTHONPATH=src python3 tests/line_coverage.py [PYTEST_ARGS...]

runs the suite under tests/ in this process, through `pytest.main`, with
`sys.settrace` and `threading.settrace` on, and prints
`path:line: source` for each statement inside a src/kinchaos function
body that never ran.  A statement counts as run when any line of it that
holds bytecode ran; a function whose body only raises NotImplementedError
is an interface stub and is skipped.  pytest's own output goes to stderr,
so stdout holds the report alone.  It exits 1 when it printed a statement
or when the suite failed, and 0 otherwise.

Code that the suite runs in a subprocess is not traced.  The trace slows
the suite down (61 s against 44 s on a 2-core x86-64 machine), so this is
a manual check, not a test.
"""

import ast
import contextlib
import os
import sys
import threading

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = os.path.join(ROOT, "src", "kinchaos")
TESTS = os.path.join(ROOT, "tests")


def run_traced(root, call):
    """Run `call()` with every new thread traced as well; returns its result
    and {path: set of line numbers} of the lines that ran in files under the
    directory `root`."""

    root = os.path.realpath(root) + os.sep
    ran = {}
    wanted = {}  # code object -> its line set, or None outside `root`

    def local(frame, event, arg):
        if event == "line":
            wanted[frame.f_code].add(frame.f_lineno)
        return local

    def tracer(frame, event, arg):
        code = frame.f_code
        if code not in wanted:
            path = os.path.realpath(code.co_filename)
            wanted[code] = (ran.setdefault(path, set())
                            if path.startswith(root) else None)
        lines = wanted[code]
        if lines is None:
            return None
        lines.add(frame.f_lineno)
        return local

    previous = sys.gettrace(), threading.gettrace()
    threading.settrace(tracer)
    sys.settrace(tracer)
    try:
        result = call()
    finally:
        sys.settrace(previous[0])
        threading.settrace(previous[1])
    return result, ran


def _code_lines(code):
    """The line numbers that hold bytecode in `code` and the code objects
    nested in it."""

    lines = {line for *_, line in code.co_lines() if line is not None}
    for const in code.co_consts:
        if hasattr(const, "co_lines"):
            lines |= _code_lines(const)
    return lines


def _is_stub(func):
    body = func.body
    if body and isinstance(body[0], ast.Expr) \
            and isinstance(body[0].value, ast.Constant) \
            and isinstance(body[0].value.value, str):
        body = body[1:]
    if len(body) != 1 or not isinstance(body[0], ast.Raise):
        return False
    exc = body[0].exc
    if isinstance(exc, ast.Call):
        exc = exc.func
    return isinstance(exc, ast.Name) and exc.id == "NotImplementedError"


def function_statements(source, path):
    """{first line: own lines} of each statement inside a function body of
    the module text `source`, read from `path`, that holds bytecode.  A
    statement's own lines are its lines (decorators included) that no
    statement nested in it holds."""

    tree = ast.parse(source, path)
    owner = {}

    def claim(node, inside):
        # outer statements first, so that a nested statement takes its lines
        if isinstance(node, ast.stmt) and inside:
            start = min([node.lineno] + [d.lineno for d in
                                         getattr(node, "decorator_list", ())])
            for line in range(start, node.end_lineno + 1):
                owner[line] = node.lineno
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if _is_stub(node):
                return
            inside = True
        for child in ast.iter_child_nodes(node):
            claim(child, inside)

    claim(tree, False)
    executable = _code_lines(compile(source, path, "exec"))
    statements = {}
    for line, first in owner.items():
        if line in executable:
            statements.setdefault(first, set()).add(line)
    return statements


def report(root, ran, relative_to):
    """`path:line: source` for each statement inside a function body of the
    .py files under `root` none of whose lines is in `ran` ({path: set of
    line numbers}, as run_traced returns it), paths relative to
    `relative_to`."""

    out = []
    for folder, _, names in sorted(os.walk(root)):
        for name in sorted(n for n in names if n.endswith(".py")):
            path = os.path.realpath(os.path.join(folder, name))
            with open(path, encoding="utf-8") as fh:
                source = fh.read()
            text = source.splitlines()
            shown = os.path.relpath(path, relative_to)
            lines = ran.get(path, set())
            out.extend(f"{shown}:{first}: {text[first - 1].strip()}"
                       for first, own in sorted(
                           function_statements(source, path).items())
                       if not own & lines)
    return out


def main(argv=None):
    args = sys.argv[1:] if argv is None else argv
    sys.path.insert(0, ROOT)  # the tests import tests.conftest, as under -m
    with contextlib.redirect_stdout(sys.stderr):
        status, ran = run_traced(PACKAGE, lambda: pytest.main(
            ["-q", "-p", "no:cacheprovider", TESTS, *args]))
    lines = report(PACKAGE, ran, ROOT)
    for line in lines:
        print(line)
    return 1 if lines or status != 0 else 0


if __name__ == "__main__":
    sys.exit(main())
