#!/usr/bin/env python3
"""Print every src/holodyn statement that the program's own runs never execute.

The runs are the 11 ``reproduce-paper`` checks, one pass of each benchmark
workload of ``perfbench/workloads.py`` at seed 7 (every item and its gate,
warm-up included), every fast entry of ``scripts/output_digest.py`` (all
but the three slow ``cli:orbit-*`` entries) and ``scripts/holonomy_table.py``
on each of ``TABLE_RUNS``: thmB at order 4, and a linear field whose
eigenvalue ratio is irrational, so that its table prints a frequency off
the 2*pi*i*q lattice.  A ``sys.settrace`` line
trace records the lines they execute, and ``ast`` lists the statements
inside function bodies (docstrings left out); each statement of which no
line ran is printed as ``file: function: source``, in file order, with the
qualified name of its enclosing function (``Class.method``, ``outer.inner``)
and the first line of its source:

    PYTHONPATH=src python scripts/traffic_lines.py

A printed line is code that no input of those runs reaches: a candidate for
deletion, or for a run that exercises it.  No line number is printed, so an
edit elsewhere in a file moves no entry, and the listings of two trees can be
compared with ``diff``.  Module- and class-level statements run on import
and are not listed.  The whole run takes about 25 s on two cores.
"""
import ast
import contextlib
import io
import pathlib
import runpy
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "holodyn"
WORKLOAD_SEED = 7
TABLE_RUNS = (("thmB", "4"), ("linear(1,1.41421356,-2)", "2"))


def _code_lines(code) -> set:
    """Every line that holds bytecode in ``code`` and its nested code objects."""
    lines = {line for _, _, line in code.co_lines() if line is not None}
    for const in code.co_consts:
        if hasattr(const, "co_lines"):
            lines |= _code_lines(const)
    return lines


def _is_docstring(stmt) -> bool:
    return (isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Constant)
            and isinstance(stmt.value.value, str))


def _header(stmt) -> range:
    """The lines of ``stmt`` outside its nested statements (a compound
    statement's decorators and header, a simple statement's every line)."""
    start = min([stmt.lineno] + [d.lineno for d in getattr(stmt, "decorator_list", ())])
    nested = [s.lineno for s in ast.iter_child_nodes(stmt) if isinstance(s, ast.stmt)]
    nested += [h.lineno for h in getattr(stmt, "handlers", ())]
    return range(start, min(nested) if nested else stmt.end_lineno + 1)


def function_statements(path: pathlib.Path):
    """(line, qualified name of the enclosing scope, source, header lines)
    of each statement inside a function body of the module at ``path`` that
    compiles to bytecode, docstrings excluded."""
    source = path.read_text()
    code_lines = _code_lines(compile(source, str(path), "exec"))
    lines = source.splitlines()
    found = []

    def visit(node, scope, in_function):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.stmt) and in_function and not _is_docstring(child):
                header = _header(child)
                if code_lines.intersection(header):
                    found.append((child.lineno, scope, lines[child.lineno - 1].strip(), header))
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, f"{scope}.{child.name}" if scope else child.name,
                      in_function or not isinstance(child, ast.ClassDef))
            else:
                visit(child, scope, in_function)

    visit(ast.parse(source), "", False)
    return found


def executed_lines(runs) -> dict:
    """{file name: lines executed} of the package's files while each run in
    ``runs`` (callables of no argument) is called once under a line trace."""
    prefix = str(PACKAGE) + "/"
    executed = {}

    def local(frame, event, arg):
        if event == "line":
            executed[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def trace(frame, event, arg):
        name = frame.f_code.co_filename
        if not name.startswith(prefix):
            return None
        executed.setdefault(name, set())
        return local

    previous = sys.gettrace()
    sys.settrace(trace)
    try:
        for run in runs:
            run()
    finally:
        sys.settrace(previous)
    return executed


def missed_statements(runs):
    """(relative path, line, enclosing function, source) of every
    function-body statement of src/holodyn that ``runs`` never execute, in
    file and line order."""
    executed = executed_lines(runs)
    missed = []
    for path in sorted(PACKAGE.glob("*.py")):
        ran = executed.get(str(path), set())
        for line, function, source, header in function_statements(path):
            if not ran.intersection(header):
                missed.append((str(path.relative_to(ROOT)), line, function, source))
    return missed


def table_runs():
    """``scripts/holonomy_table.py`` on each argument list of ``TABLE_RUNS``,
    its output discarded, as callables of no argument."""
    script = str(ROOT / "scripts" / "holonomy_table.py")

    def run(argv):
        saved = sys.argv
        sys.argv = [script, *argv]
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                runpy.run_path(script, run_name="__main__")
        finally:
            sys.argv = saved

    return [lambda argv=argv: run(argv) for argv in TABLE_RUNS]


def program_runs():
    """The reproduce checks, one seeded pass of each benchmark workload, the
    fast digest entries and the table script runs, as callables of no argument."""
    from holodyn.reproduce import CHECKS

    runs = list(CHECKS.values())
    sys.path.insert(0, str(ROOT / "perfbench"))
    import workloads

    def one_pass(make):
        workload = make(WORKLOAD_SEED)
        for item in [workload.warmup] + workload.items:
            item.check(item.run())

    runs += [lambda make=make: one_pass(make) for make in workloads.WORKLOADS.values()]
    digest = runpy.run_path(str(ROOT / "scripts" / "output_digest.py"))
    runs += [thunk for name, thunk in digest["entries"]()
             if name not in digest["SLOW_DIGEST_ENTRIES"]]
    return runs + table_runs()


def main():
    for path, _, function, source in missed_statements(program_runs()):
        print(f"{path}: {function}: {source}")


if __name__ == "__main__":
    main()
