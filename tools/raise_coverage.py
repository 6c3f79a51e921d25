"""Print the raise sites, and other statements, of the package that never run.

    python3 tools/raise_coverage.py [--statements]

The script traces every line that runs in ``src/anabelomorph`` (through
``sys.settrace``, in this process only) under two runs: the tier-1 tests
(``pytest tests``, in process), and one pass of the items of each
benchmark workload, built by ``bench/gen.py`` for seed 1 and run through
``bench/workloads.py``.  It imports ``bench/`` read-only, writes no
bytecode, and gives the tower-build items a temporary file for their
output.  A statement ran when any line from its first (a decorator's) to
its last ran; function docstrings and ``global`` declarations run no
code and are left out.

It prints, for each module, the number of ``raise`` statements and how
many of them neither run reached, then each such site as ``file:line``,
marked ``(workloads)`` where the workload pass runs it and tier-1 does
not.  With ``--statements`` it does the same for every other statement.
Tracing makes tier-1 about three times slower (3.5-4.7 minutes against
1.2-1.3 on a 2-core x86 host, CPython 3.11).  Stdlib only, apart from pytest, which runs the tests;
run it by hand from a source checkout, not in CI.
"""

import argparse
import ast
import os
import sys
import tempfile
import threading
from pathlib import Path

sys.dont_write_bytecode = True

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "anabelomorph"
SEED = 1


def trace_lines(run):
    """{file name: set of lines} that ran in ``src/anabelomorph`` during
    run()."""
    prefix = str(SRC)
    seen = {}

    def local_for(lines):
        def local(frame, event, arg):
            if event == "line":
                lines.add(frame.f_lineno)
            return local
        return local

    tracers = {}

    def call(frame, event, arg):
        name = frame.f_code.co_filename
        tracer = tracers.get(name)
        if tracer is None:
            if not name.startswith(prefix):
                return None
            tracer = tracers[name] = local_for(seen.setdefault(name, set()))
        return tracer

    threading.settrace(call)
    sys.settrace(call)
    try:
        run()
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return seen


def run_tier1():
    import pytest
    code = pytest.main(["-q", "-p", "no:cacheprovider", str(ROOT / "tests")])
    print(f"tier-1 exit code {int(code)}", flush=True)


def run_workloads():
    sys.path.insert(0, str(ROOT / "bench"))
    import gen
    import run
    import workloads

    failed = 0
    with tempfile.TemporaryDirectory() as tmp:
        out_path = Path(tmp) / "disc.json"
        for name, make in gen.WORKLOADS.items():
            _, mods = run.load_program()
            inputs = make(SEED, ROOT, mods["fields"].closed_form_disc)
            if name == "tate-additive":
                towers = workloads.tate_setup(mods, inputs)
            for item in inputs["items"]:
                try:
                    if name == "tate-additive":
                        workloads.tate_item(mods, towers, item)
                    elif name == "tower-build":
                        workloads.disc_item(mods, out_path, item)
                    else:
                        workloads.invariant_item(mods, item)
                except Exception as exc:  # counted, as the benchmark does
                    failed += 1
                    print(f"{name} {item['id']}: {type(exc).__name__}: "
                          f"{exc}", flush=True)
    print(f"workload items failed: {failed}", flush=True)


def statements(path):
    """[(is raise, first line, last line)] of every statement of one
    source file that runs code."""
    tree = ast.parse(path.read_text())
    docstrings = set()
    for node in ast.walk(tree):
        body = getattr(node, "body", None)
        if (isinstance(body, list) and body
                and isinstance(body[0], ast.Expr)
                and isinstance(body[0].value, ast.Constant)
                and isinstance(body[0].value.value, str)):
            docstrings.add(body[0])
    out = []
    for node in ast.walk(tree):
        if (not isinstance(node, ast.stmt) or node in docstrings
                or isinstance(node, (ast.Global, ast.Nonlocal))):
            continue
        first = min([node.lineno] + [d.lineno for d in
                                     getattr(node, "decorator_list", [])])
        out.append((isinstance(node, ast.Raise), first, node.end_lineno))
    return sorted(out, key=lambda s: s[1])


def report(tier1, bench, raises):
    """Print the sites of one kind (raises or other statements) that
    tier-1 does not run."""
    kind = "raise sites" if raises else "other statements"
    total = unrun = 0
    rows, sites = [], []
    for path in sorted(SRC.glob("*.py")):
        t1, wl = tier1.get(str(path), set()), bench.get(str(path), set())
        count = not_t1 = not_either = 0
        for is_raise, first, last in statements(path):
            if is_raise != raises:
                continue
            span = set(range(first, last + 1))
            count += 1
            if span & t1:
                continue
            not_t1 += 1
            in_wl = bool(span & wl)
            not_either += not in_wl
            sites.append(f"  src/anabelomorph/{path.name}:{first}"
                         + ("  (workloads)" if in_wl else ""))
        rows.append(f"  {path.stem:15} {count:5} {not_t1:14} {not_either:14}")
        total += count
        unrun += not_either
    print(f"\n{kind}: {unrun} of {total} never run")
    print(f"  {'module':15} {'total':>5} {'not in tier-1':>14} "
          f"{'in neither':>14}")
    print("\n".join(rows))
    print("\n".join(sites))


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--statements", action="store_true",
                    help="also list the other statements that never run")
    args = ap.parse_args(argv)
    src = str(ROOT / "src")
    sys.path.insert(0, src)
    # the CLI tests' subprocesses find the package as tier-1 does, on
    # PYTHONPATH (they run untraced)
    os.environ["PYTHONPATH"] = os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))
    tier1 = trace_lines(run_tier1)
    bench = trace_lines(run_workloads)
    report(tier1, bench, raises=True)
    if args.statements:
        report(tier1, bench, raises=False)


if __name__ == "__main__":
    main()
