"""Print the memory peak of compiling each module of the package.

    python3 tools/compile_peak.py

``bench/run.py`` imports the package afresh from source at every set-up,
with no bytecode cache, so the largest ``compile()`` of a module is a
floor under the peak RSS that a benchmark run reports: code added to a
large module shows there before any of it runs.  For each ``.py`` file
under ``src/`` of the repository that holds this script, the script
prints the tracemalloc peak of compiling its source, in KB, largest
first, and the total of the source lines.  It compiles and runs nothing
else, writes nothing and leaves no bytecode.  Stdlib only.
"""

import sys
import tracemalloc
from pathlib import Path

sys.dont_write_bytecode = True
SRC = Path(__file__).resolve().parent.parent / "src"


def compile_peak(path):
    """(peak KB, lines) of compiling one source file, compiled once before
    the traced compile, so that no one-time set-up of the compiler (such
    as a first non-ASCII name) lands on one module."""
    source = path.read_text()
    compile(source, str(path), "exec")
    tracemalloc.start()
    try:
        compile(source, str(path), "exec")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak / 1024, source.count("\n")


def main():
    rows = sorted(((*compile_peak(path), path.relative_to(SRC))
                   for path in SRC.rglob("*.py")), reverse=True)
    for peak, lines, name in rows:
        print(f"{peak:8.0f} KB {lines:6d} lines  {name}")
    print(f"{'':11} {sum(lines for _, lines, _ in rows):6d} lines  total")


if __name__ == "__main__":
    main()
