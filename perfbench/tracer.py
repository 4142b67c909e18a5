"""Span tracer that times cmkostka's layers from outside the package.

A traced rep wraps each measured public function wherever it is bound: in
its defining module, in every cmkostka module (the package namespace too)
that imported it by name, and on the class for methods.  Spans are kept in
memory as (name, start, end, parent index) and turned into per-name call
counts and self times once the rep ends.  ``restore`` puts every original
attribute back; an untraced rep never builds a Tracer.
"""

import functools
import sys
import time

# (module, attribute, span name).  A dotted attribute is a method patched on
# its class.  Span names are the per-layer metric prefixes.
TARGETS = (
    ("cmkostka.partitions", "enumerate_partitions", "partitions.enumerate_partitions"),
    ("cmkostka.partitions", "enumerate_gamma_partitions", "partitions.enumerate_gamma_partitions"),
    ("cmkostka.partitions", "hook_lengths", "partitions.hook_lengths"),
    ("cmkostka.partitions", "syt_count", "partitions.syt_count"),
    ("cmkostka.partitions", "syt_enumerate", "partitions.syt_enumerate"),
    ("cmkostka.qpoly", "LaurentPoly.__mul__", "qpoly.mul"),
    ("cmkostka.qpoly", "exact_divide", "qpoly.exact_divide"),
    ("cmkostka.qpoly", "qfactorial_product", "qpoly.qfactorial_product"),
    ("cmkostka.qpoly", "qmultinomial", "qpoly.qmultinomial"),
    ("cmkostka.qpoly", "geometric_product_series", "qpoly.geometric_product_series"),
    ("cmkostka.qpoly", "substitute_inverse", "qpoly.substitute_inverse"),
    ("cmkostka.characters", "kostka", "characters.kostka"),
    ("cmkostka.characters", "kostka_wreath", "characters.kostka_wreath"),
    ("cmkostka.characters", "character", "characters.character"),
    ("cmkostka.characters", "tangent_weights", "characters.tangent_weights"),
    ("cmkostka.characters", "completion_character_check", "characters.completion_character_check"),
    ("cmkostka.schur", "expand_p1n", "schur.expand_p1n"),
    ("cmkostka.schur", "expand_p1n_wreath", "schur.expand_p1n_wreath"),
    ("cmkostka.schur", "multiplicity_identity_check", "schur.multiplicity_identity_check"),
    ("cmkostka.cm", "RationalMatrix.rank", "cm.rank"),
    ("cmkostka.cm", "RationalMatrix.charpoly", "cm.charpoly"),
    ("cmkostka.cm", "RationalMatrix.__matmul__", "cm.matmul"),
    ("cmkostka.cm", "verify_cm", "cm.verify_cm"),
    ("cmkostka.cm", "projections", "cm.projections"),
    ("cmkostka.cm", "wilson_representative", "cm.wilson_representative"),
    ("cmkostka.cm", "wilson_embed", "cm.wilson_embed"),
    ("cmkostka.cm", "component_line", "cm.component_line"),
    ("cmkostka.cm", "schubert_profile", "cm.schubert_profile"),
    ("cmkostka.cli", "main", "cli.main"),
)

# Spans whose first argument is kept for the work-sharing counters.
RECORD_FIRST_ARG = ("characters.kostka", "characters.kostka_wreath", "cm.charpoly")


class Tracer:
    """Collects nested spans from wrapped callables; single-threaded."""

    def __init__(self):
        self.spans = []  # (name, start, end, parent index or -1)
        self.first_args = {name: [] for name in RECORD_FIRST_ARG}
        self._stack = []
        self._patches = []  # (owner, attribute, original)

    def wrap(self, name, fn):
        """Return fn wrapped so that each call records one span named name."""
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        record = self.first_args.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if record is not None:
                record.append(args[0])
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent)

        return traced

    def patch(self, owner, attribute, replacement):
        self._patches.append((owner, attribute, getattr(owner, attribute)))
        setattr(owner, attribute, replacement)

    def install(self):
        """Wrap every target everywhere it is bound inside the cmkostka package."""
        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None and (name == "cmkostka" or name.startswith("cmkostka."))]
        for module_name, attribute, span_name in TARGETS:
            home = sys.modules[module_name]
            if "." in attribute:
                cls_name, method = attribute.split(".")
                cls = getattr(home, cls_name)
                self.patch(cls, method, self.wrap(span_name, cls.__dict__[method]))
                continue
            original = getattr(home, attribute)
            wrapper = self.wrap(span_name, original)
            for module in modules:
                for name, value in list(vars(module).items()):
                    if value is original:
                        self.patch(module, name, wrapper)

    def restore(self):
        """Undo every patch, newest first, so each attribute is its original again."""
        while self._patches:
            owner, attribute, original = self._patches.pop()
            setattr(owner, attribute, original)

    def patched(self):
        """(owner, attribute, original) for every patch currently installed."""
        return list(self._patches)


def self_times(spans):
    """Per-name call count and self time: span duration minus its children's durations."""
    child = [0.0] * len(spans)
    for _, start, end, parent in spans:
        if parent >= 0:
            child[parent] += end - start
    out = {}
    for index, (name, start, end, _) in enumerate(spans):
        calls, self_s = out.get(name, (0, 0.0))
        out[name] = (calls + 1, self_s + (end - start) - child[index])
    return out
