"""Counters and spans installed around phi8's public functions from outside.

Nothing in phi8 knows about this module.  ``Tracer.install`` replaces
functions and methods with wrappers: counters for the field operations,
which run hundreds of thousands of times per command, and timed spans
for the coarser calls of every other module.  A span's busy time counts
only the outermost span of its group, so nested calls are not counted
twice; its self time is its duration minus that of its direct child
spans.  Hooks that the current phi8 lacks are listed as missing instead
of failing.
"""
from __future__ import annotations

import sys
import time
from collections import defaultdict
from math import comb

# class or function -> counter key, for the field layer
FIELD_COUNTERS = {
    ("GoldenExt", "__mul__"): "field.ext_mul",
    ("GoldenExt", "__rmul__"): "field.ext_mul",
    ("GoldenExt", "__add__"): "field.ext_add",
    ("GoldenExt", "__radd__"): "field.ext_add",
    ("GoldenExt", "__sub__"): "field.ext_add",
    ("GoldenExt", "__rsub__"): "field.ext_add",
    ("GoldenExt", "inverse"): "field.ext_inverse",
    ("GoldenExt", "sign"): "field.sign",
    ("GoldenExt", "__hash__"): "field.hash",
    ("GoldenExt", "__eq__"): "field.eq",
    ("GoldenExt", "to_float"): "field.to_float",
    ("GoldenExt", "__str__"): "field.render",
    ("GoldenScalar", "__init__"): "field.scalar_new",
    (None, "parse_scalar"): "field.parse",
    (None, "sqrt5_form"): "field.render",
}

CONSTANT_BUILDERS = (
    "build_U", "build_U_inv", "build_cmU", "build_J", "build_hadamard",
    "build_srE8", "build_cmE8", "bracket_plus", "bracket_minus",
)

IDENTITY_GROUPS = {
    "verify_product_identities": "products",
    "verify_golden_cartan": "golden-cartan",
    "verify_identity_sum": "golden-cartan",
    "verify_row_reversed_swap": "row-reversed",
    "verify_power_pattern": "powers",
    "verify_odd_power_forms": "odd-powers",
    "verify_bracket_properties": "brackets",
    "verify_char_polys": "char-polys",
    "schlafli_probe": "schlafli-probe",
}

# lattice functions by the `phi8 lattice --check` name they serve
LATTICE_CHECKS = {
    "gen_e8_roots": "roots",
    "norm_sq": "roots",
    "count_contact_pairs": "roots",
    "hamming84": "hamming",
    "construction_a": "construction-a",
    "hadamard_code_correspondence": "hadamard-map",
    "check_vertex_coords": "vertex-coords",
    "e8_vertex_coords": "vertex-coords",
    "inner_product_histogram": "vertex-coords",
}
HAMMING_METHODS = ("weight_enumerator", "min_distance", "is_self_dual", "is_doubly_even")


class Tracer:
    def __init__(self) -> None:
        self.counts: dict[str, int] = defaultdict(int)
        self.busy: dict[str, float] = defaultdict(float)
        self.self_time: dict[str, float] = defaultdict(float)
        self._depth: dict[str, int] = defaultdict(int)
        self._children: list[float] = []  # child span time of each open span
        self.missing: list[str] = []

    # ------------------------------------------------------------ wrappers
    def counter(self, key: str, fn):
        counts = self.counts

        def counted(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return counted

    def span(self, key: str, fn, group: str | None = None, after=None):
        group = group or key
        counts, busy, self_time = self.counts, self.busy, self.self_time
        depth, children = self._depth, self._children
        clock = time.perf_counter

        def spanned(*args, **kwargs):
            counts[key] += 1
            outermost = not depth[group]
            depth[group] += 1
            children.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                inner = children.pop()
                depth[group] -= 1
                if children:
                    children[-1] += elapsed
                if outermost:
                    busy[key] += elapsed
                self_time[key] += elapsed - inner
            if after is not None:
                after(args, kwargs, result)
            return result

        return spanned

    # ------------------------------------------------------------ patching
    def _patch_function(self, module, name: str, make) -> None:
        """Rebind module.name everywhere phi8 holds a reference to it."""
        orig = getattr(module, name, None)
        if orig is None:
            self.missing.append(f"{module.__name__}.{name}")
            return
        new = make(orig)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "phi8" or mod_name.startswith("phi8.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is orig:
                    setattr(mod, attr, new)
                elif isinstance(value, dict):
                    for k, v in list(value.items()):
                        if v is orig:
                            value[k] = new

    def _patch_method(self, cls, name: str, make) -> None:
        orig = cls.__dict__.get(name) if cls is not None else None
        if orig is None:
            self.missing.append(f"{getattr(cls, '__name__', '?')}.{name}")
            return
        setattr(cls, name, make(orig))

    def install(self) -> None:
        import phi8.cli  # noqa: F401  (loads every phi8 module)
        from phi8 import constants, field, hulls, identities, lattice, matrix, roots

        for (cls_name, name), key in FIELD_COUNTERS.items():
            make = lambda f, key=key: self.counter(key, f)
            if cls_name is None:
                self._patch_function(field, name, make)
            else:
                self._patch_method(getattr(field, cls_name, None), name, make)

        exact = getattr(matrix, "ExactMatrix", None)
        for name in ("inverse", "char_poly", "det"):
            self._patch_method(exact, name, lambda f, name=name: self.span(f"matrix.{name}", f))
        self._patch_method(exact, "__mul__", self._matmul)

        for name in CONSTANT_BUILDERS:
            self._patch_function(constants, name, lambda f: self.span("constants.build", f, "constants"))

        for name, group in IDENTITY_GROUPS.items():
            self._patch_function(
                identities, name,
                lambda f, group=group: self.span(f"identities.{group}", f, "identities"))
        self._patch_method(getattr(identities, "IdentityReport", None), "__init__",
                           lambda f: self.counter("identities.reports", f))

        self._patch_function(roots, "enumerate_roots",
                             lambda f: self.span("roots.enumerate", f, after=self._after_enumerate))
        self._patch_function(roots, "summarize", lambda f: self.span("roots.summarize", f))
        for name in ("emit_csv", "emit_hasse_dot"):
            self._patch_function(roots, name, lambda f: self.span("roots.emit", f))

        pairs = lambda args, kwargs, result: self._add("lattice.pair_comparisons", comb(len(args[0]), 2))
        for name, check in LATTICE_CHECKS.items():
            after = pairs if name in ("count_contact_pairs", "inner_product_histogram") else None
            self._patch_function(
                lattice, name,
                lambda f, check=check, after=after: self.span(f"lattice.{check}", f, "lattice", after))
        for name in HAMMING_METHODS:
            self._patch_method(getattr(lattice, "Hamming84", None), name,
                               lambda f: self.span("lattice.hamming", f, "lattice"))

        self._patch_function(hulls, "build_vertices", lambda f: self.span("hulls.build_vertices", f))
        self._patch_function(hulls, "project", lambda f: self.span("hulls.project", f))
        self._patch_function(
            hulls, "peel_hulls",
            lambda f: self.span("hulls.peel", f,
                                after=lambda a, k, layers: self._add("hulls.layers", len(layers))))
        self._patch_function(hulls, "ConvexHull", lambda f: self.counter("hulls.qhull_calls", f))

    def _matmul(self, mul):
        exact = sys.modules["phi8.matrix"].ExactMatrix
        spanned = self.span("matrix.matmul", mul)

        def dispatch(a, b):
            # scalar products share the operator but are not matmuls
            return spanned(a, b) if isinstance(b, exact) else mul(a, b)

        return dispatch

    def _add(self, key: str, amount: int) -> None:
        self.counts[key] += amount

    def _after_enumerate(self, args, kwargs, records) -> None:
        """Candidates and acceptances, derived from the returned records.

        The enumeration extends every root below the height cap by each
        of the n simple roots, and every acceptance event appears as one
        parent pair of its record.
        """
        rule = args[1] if len(args) > 1 else kwargs["rule"]
        n = len(records[0].coeffs) if records else 0
        distinct = {r.coeffs: r.height for r in records}
        self._add("roots.candidates_tried",
                  n * sum(1 for h in distinct.values() if h < rule.max_height))
        self._add("roots.accept_events", sum(len(r.parents) for r in records))
        self._add("roots.roots_found", len(distinct))

    def snapshot(self) -> dict:
        return {
            "counts": dict(self.counts),
            "busy": dict(self.busy),
            "self": dict(self.self_time),
            "missing": sorted(set(self.missing)),
        }
