"""Outside-in tracing: spans around calls into each layer of the program.

The tracer replaces public functions and methods of the ``anabelomorph``
modules with wrappers that record one span per call: layer name, start,
end, parent span and item id.  Spans live in flat arrays in memory and
are written out when the run ends.  Nothing in the program changes; the
wrappers are installed on the imported modules and classes and removed
again with ``uninstall``.

A module-level function is also replaced wherever another module bound
it by name (``cli.build_field``, the package re-exports), and an alias
such as ``FieldElement.__rmul__`` is wrapped under its own attribute.
"""

import gzip
import time
from array import array

# layer -> [(module, owner or None, attribute names)].  The owner is a
# class name inside the module; None means a module-level function.
LAYERS = {
    "fields.norm": [("fields", "LocalField", ["norm_tower", "norm_to_qp"]),
                    ("fields", "QpField", ["norm_tower"]),
                    ("fields", "CustomField", ["norm_tower"])],
    "fields.valuation": [("fields", "LocalField", ["val_or_bound"])],
    "fields.mul": [("fields", "FieldElement", ["__mul__", "__rmul__"])],
    "fields.invert": [("fields", "LocalField", ["invert"]),
                      ("fields", "CustomField", ["invert"])],
    "fields.residue": [("fields", "LocalField", ["residue"])],
    "fields.build": [("fields", None, ["build_field"])],
    "elliptic.tate": [("elliptic", None, ["tate_algorithm"])],
    "elliptic.invariants": [("elliptic", None, ["weierstrass_invariants"])],
    "elliptic.log": [("elliptic", None, ["l_invariant", "iwasawa_log"])],
    "galois.filtration": [("galois", None, ["ramification_filtration"])],
    "galois.automorphism": [("galois", None, ["apply_automorphism"])],
    "galois.conductor": [("galois", None, ["conductor_discriminant_check",
                                           "artin_conductor",
                                           "swan_conductor"])],
    "anabelomorphy.verdict": [("anabelomorphy", None, ["jarden_ritter"])],
    "padic.log": [("padic", None, ["padic_log"])],
    "padic.scalar_ops": [("padic", "PadicScalar",
                          ["__add__", "__radd__", "__sub__", "__rsub__",
                           "__mul__", "__rmul__", "__truediv__",
                           "__rtruediv__", "__neg__", "__pow__", "inv"])],
    "cli.main": [("cli", None, ["main"])],
}


class Tracer:
    """Span recorder; one instance per traced run."""

    def __init__(self, package):
        self.package = package
        self.names = list(LAYERS)
        self.name_ids = {n: i for i, n in enumerate(self.names)}
        self.name_of = array("H")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.item = array("i")
        self.stack = [-1]
        self.item_id = -1
        self.bounds = 0          # val_or_bound answers that are only a bound
        self.undecided = 0       # UNDECIDED verdicts
        self.max_digits = 0      # max working precision K.M of built towers
        self._patches = []

    # -- recording -------------------------------------------------------

    def _wrap(self, fn, layer):
        nid = self.name_ids[layer]
        name_of, start, end = self.name_of, self.start, self.end
        parent, item, stack = self.parent, self.item, self.stack
        clock = time.perf_counter
        inspect = {"fields.valuation": self._see_valuation,
                   "fields.build": self._see_build,
                   "anabelomorphy.verdict": self._see_verdict}.get(layer)

        def traced(*args, **kwargs):
            idx = len(start)
            name_of.append(nid)
            parent.append(stack[-1])
            item.append(self.item_id)
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                out = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
            if inspect is not None:
                inspect(out)
            return out

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", "traced")
        return traced

    def _see_valuation(self, out):
        if out[0] is None:
            self.bounds += 1

    def _see_build(self, field):
        self.max_digits = max(self.max_digits, field.M)

    def _see_verdict(self, verdict):
        if verdict.status == "UNDECIDED":
            self.undecided += 1

    # -- installing --------------------------------------------------------

    def install(self, modules):
        """Wrap every LAYERS entry; ``modules`` maps short name -> module."""
        for layer, entries in LAYERS.items():
            for modname, owner, attrs in entries:
                mod = modules[modname]
                for attr in attrs:
                    if owner is not None:
                        cls = getattr(mod, owner)
                        orig = cls.__dict__[attr]
                        self._set(cls, attr, orig, self._wrap(orig, layer))
                        continue
                    orig = getattr(mod, attr)
                    wrapped = self._wrap(orig, layer)
                    # every module of the package that bound the same object
                    for other in modules.values():
                        for key, val in list(vars(other).items()):
                            if val is orig:
                                self._set(other, key, orig, wrapped)
                    if self.package.__dict__.get(attr) is orig:
                        self._set(self.package, attr, orig, wrapped)

    def _set(self, owner, attr, orig, new):
        setattr(owner, attr, new)
        self._patches.append((owner, attr, orig))

    def uninstall(self):
        for owner, attr, orig in reversed(self._patches):
            setattr(owner, attr, orig)
        self._patches.clear()

    # -- results -----------------------------------------------------------

    def layer_totals(self):
        """{layer: (calls, self seconds, max span seconds)}."""
        n = len(self.start)
        child = [0.0] * n
        for i in range(n):
            par = self.parent[i]
            if par >= 0:
                child[par] += self.end[i] - self.start[i]
        out = {name: [0, 0.0, 0.0] for name in self.names}
        for i in range(n):
            dur = self.end[i] - self.start[i]
            acc = out[self.names[self.name_of[i]]]
            acc[0] += 1
            acc[1] += dur - child[i]
            acc[2] = max(acc[2], dur)
        return out

    def write(self, path):
        """Spans as gzip TSV: id, parent, item, layer, start, end."""
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("span\tparent\titem\tlayer\tstart_s\tend_s\n")
            t0 = self.start[0] if self.start else 0.0
            for i in range(len(self.start)):
                fh.write(f"{i}\t{self.parent[i]}\t{self.item[i]}\t"
                         f"{self.names[self.name_of[i]]}\t"
                         f"{self.start[i] - t0:.9f}\t{self.end[i] - t0:.9f}\n")
