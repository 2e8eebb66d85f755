"""Per-layer tracing for the torslat benchmark, from outside the library.

A ``Tracer`` used as a context manager wraps the entry points listed in
``SPANS`` for the duration of the ``with`` block.  A module that did ``from .linalg import
solve`` holds its own binding of the function, so every binding of a
wrapped function in every loaded module is replaced, and put back on exit.
Methods are wrapped on their class, which every importer of the class
shares.

Spans are aggregated in memory per name as they close: calls, self time
(span time minus the time of the spans it encloses) and, for some spans, a
count read off the result.  A call made while a span of the same name is
open (``decompose`` recursing, ``modp_nullspace`` calling
``modp_echelon``) is folded into the open span.  Nothing under ``src/``
knows about any of this; untraced runs never install a wrapper.
"""

import functools
import importlib
import sys
import types
from time import perf_counter

from torslat.errors import ConeNotTwoTerm

# span name -> entry points it covers, as "module.attribute" or
# "module.Class.method"
SPANS = {
    "algebras.build_algebra": ["algebras.build_algebra"],
    "algebras.mul_dicts": ["algebras.PathAlgebra.mul_dicts"],
    "algebras.cartan_matrix": ["algebras.cartan_matrix", "algebras.PathAlgebra.cartan_matrix"],
    "linalg.IntEchelon.insert": ["linalg.IntEchelon.insert"],
    "linalg.Echelon.insert": ["linalg.Echelon.insert"],
    "linalg.solve": ["linalg.solve"],
    "linalg.express_in_span": ["linalg.express_in_span"],
    "linalg.nullspace": ["linalg.nullspace"],
    "linalg.int_nullspace": ["linalg.int_nullspace"],
    "linalg.modp": [
        "linalg.modp_echelon", "linalg.modp_nullspace", "linalg.modp_rank", "linalg.modp_solve",
    ],
    "silting.enumerate_2silt": ["silting.enumerate_2silt"],
    "silting.tors_lattice": ["silting.tors_lattice"],
    "silting.hom_shift1_dim": ["silting.hom_shift1_dim"],
    "silting.mutate": ["silting.mutate"],
    "silting.decompose": ["silting.decompose"],
    "silting.complexes_isomorphic": ["silting.complexes_isomorphic"],
    "silting.hom_k_basis": ["silting.hom_k_basis"],
    "posets.FinitePoset": ["posets.FinitePoset.__init__"],
    "posets.build_poset": ["posets.build_poset"],
    "posets.hom_poset": ["posets.hom_poset"],
    "posets.poset_isomorphism": ["posets.poset_isomorphism"],
    "posets.product": ["posets.product"],
    "posets.down_sets": ["posets.down_sets"],
    "spectra.enumerate_compatible": ["spectra.enumerate_compatible"],
    "spectra.classify": [
        "spectra.classify_tors", "spectra.classify_torf", "spectra.classify_serre",
        "spectra.classify_local_fibers", "spectra.classify_tors_hom_form",
        "spectra.cambrian_classification",
    ],
    "oracle.enumerate_indecomposables": ["oracle.enumerate_indecomposables"],
    "oracle.hom_rep_basis": ["oracle.hom_rep_basis"],
    "oracle.ext_dim": ["oracle.ext_dim"],
    "oracle.brute": ["oracle.brute_torsion_classes", "oracle.brute_serre"],
}

# count name -> (span, size of one result)
RESULT_COUNTS = {
    "silting.objects": ("silting.enumerate_2silt", lambda result: len(result.poset)),
    "spectra.tuples": ("spectra.enumerate_compatible", len),
    "oracle.classes": ("oracle.enumerate_indecomposables", len),
}

# count name -> (span, exception type whose raising it counts)
REFUSALS = {"silting.mutate.refused": ("silting.mutate", ConeNotTwoTerm)}

MARK = "__benchtrace_span__"


def _resolve(target):
    """(owner, attribute) holding the entry point named by target."""
    module, _, rest = target.partition(".")
    owner = importlib.import_module(f"torslat.{module}")
    *classes, attr = rest.split(".")
    for name in classes:
        owner = getattr(owner, name)
    return owner, attr


class Tracer:
    """Span aggregates for one traced pass; entering it patches every
    binding of the traced entry points and leaving it restores them."""

    def __init__(self):
        self.calls = {name: 0 for name in SPANS}
        self.self_s = {name: 0.0 for name in SPANS}
        self.counts = {name: 0 for name in (*RESULT_COUNTS, *REFUSALS)}
        self._stack = []  # per open span: [time of the spans it encloses]
        self._open = set()
        self._measures = {}
        for count, (span, size) in RESULT_COUNTS.items():
            self._measures.setdefault(span, []).append((count, size))
        self._refusals = {span: (count, exc) for count, (span, exc) in REFUSALS.items()}
        self._undo = []

    def _wrap(self, span, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if span in self._open:
                return fn(*args, **kwargs)
            frame = [0.0]
            self._stack.append(frame)
            self._open.add(span)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                refusal = self._refusals.get(span)
                if refusal is not None and isinstance(exc, refusal[1]):
                    self.counts[refusal[0]] += 1
                raise
            finally:
                elapsed = perf_counter() - start
                self._stack.pop()
                self._open.discard(span)
                if self._stack:
                    self._stack[-1][0] += elapsed
                self.calls[span] += 1
                self.self_s[span] += elapsed - frame[0]
            for count, size in self._measures.get(span, ()):
                self.counts[count] += size(result)
            return result

        setattr(traced, MARK, span)
        return traced

    def __enter__(self):
        try:
            for span, targets in SPANS.items():
                for target in targets:
                    self._patch(span, target)
        except BaseException:
            self._restore()
            raise
        return self

    def __exit__(self, *exc_info):
        self._restore()
        return False

    def _patch(self, span, target):
        owner, attr = _resolve(target)
        if isinstance(owner, type):
            original = owner.__dict__[attr]
            self._set(owner, attr, original, self._wrap(span, original))
            return
        original = getattr(owner, attr)
        wrapped = self._wrap(span, original)
        for module in list(sys.modules.values()):
            namespace = getattr(module, "__dict__", None)
            if namespace is None:
                continue
            for name, value in list(namespace.items()):
                if value is original:
                    self._set(module, name, original, wrapped)

    def _set(self, owner, attr, original, wrapped):
        self._undo.append((owner, attr, original))
        setattr(owner, attr, wrapped)

    def _restore(self):
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)


def wrapped_bindings():
    """Every binding of a traced wrapper in a loaded module or a traced
    class; empty unless a tracer is entered."""
    found = []
    for span, targets in SPANS.items():
        for target in targets:
            owner, attr = _resolve(target)
            if isinstance(owner, type) and hasattr(owner.__dict__.get(attr), MARK):
                found.append(target)
    for name, module in list(sys.modules.items()):
        namespace = getattr(module, "__dict__", None)
        if namespace is None:
            continue
        for attr, value in list(namespace.items()):
            if isinstance(value, types.FunctionType) and hasattr(value, MARK):
                found.append(f"{name}.{attr}")
    return found
