"""The benchmark tracer's hook table names real program attributes.

``bench/spans.py`` wraps each ``LAYERS`` entry: a method through the
owning class's own ``__dict__`` and a module function through
``getattr``.  An entry that no longer resolves makes a traced run
(``python3 bench/run.py --trace 1``) fail with a KeyError, so every entry
is checked here.  The tracer module is loaded read-only from its file.
"""

import importlib
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_every_layer_entry_resolves():
    missing = []
    for layer, entries in _load_spans().LAYERS.items():
        for modname, owner, attrs in entries:
            mod = importlib.import_module(f"anabelomorph.{modname}")
            for attr in attrs:
                if owner is not None:
                    ok = attr in vars(getattr(mod, owner))
                else:
                    ok = callable(getattr(mod, attr, None))
                if not ok:
                    missing.append((layer, modname, owner, attr))
    assert missing == []
