"""In-memory spans around siegel2's public functions, installed from outside.

``install`` replaces each traced function at every place the package
binds it (``from`` imports copy the function object, so patching only the
defining module would miss those call sites).  Each call records one span:
its name, its parent span, and its start and end in integer nanoseconds.
Time the tracer's own counter hooks take is recorded as gaps, to which
the worker adds its reference-loop timings (calibrate.py); gaps are kept
out of every span.  Self time is a span's time minus its direct children's,
so nested calls (``__pow__`` and ``_det4`` calling ``__mul__``) are
charged to the innermost span.

Spans stay in memory; the traced process writes them out when it ends.
``summarise`` turns the spans of one or more processes into the per-layer
metrics listed in ``BENCHMARK.json``.  This module imports siegel2 only
inside ``install``, so the harness (run.py) can summarise spans without
loading the program.
"""

from __future__ import annotations

import functools
from bisect import bisect_right
from collections import Counter
from fractions import Fraction
from time import perf_counter_ns

# Span record fields.
NAME, PARENT, START, END, COUNTS = range(5)


class Tracer:
    def __init__(self):
        self.spans = []
        self.stack = []
        # (start, end) of time spent in the counter hooks.
        self.gaps = []

    def wrap(self, name, fn, pre=None, post=None):
        """``fn`` recording a span per call.

        ``name`` is a string or a function of the call's arguments.
        ``pre(*args)`` and ``post(result, counts, *args)`` compute size
        counters; their time is kept out of every span's self time.
        """
        spans, stack, gaps = self.spans, self.stack, self.gaps
        fixed = name if isinstance(name, str) else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            counts = None
            if pre is not None:
                t = perf_counter_ns()
                counts = pre(*args)
                gaps.append((t, perf_counter_ns()))
            span = [fixed or name(*args), stack[-1] if stack else -1, 0, 0, counts]
            stack.append(len(spans))
            spans.append(span)
            span[START] = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = perf_counter_ns()
                stack.pop()
            if post is not None:
                t = perf_counter_ns()
                span[COUNTS] = post(result, counts, *args)
                gaps.append((t, perf_counter_ns()))
            return result

        return traced


def _patch(tracer, name, owners, attr, pre=None, post=None):
    """Wrap ``attr`` once and rebind the wrapper in every owner.

    Every owner must still bind the same function object; a binding that
    moved or disappeared fails loudly instead of silently losing spans.
    """
    original = getattr(owners[0], attr)
    for owner in owners[1:]:
        if getattr(owner, attr, None) is not original:
            raise RuntimeError(f"{owner.__name__}.{attr} is not {owners[0].__name__}.{attr}")
    wrapped = tracer.wrap(name, original, pre, post)
    for owner in owners:
        setattr(owner, attr, wrapped)


def _bits(c) -> int:
    if isinstance(c, Fraction):
        return max(c.numerator.bit_length(), c.denominator.bit_length())
    return int(c).bit_length()


def install(tracer: Tracer) -> None:
    """Wrap the public functions of every traced siegel2 layer."""
    from siegel2 import cli, expansion, generators, jacobi, qexp1, qformat, rationals, verify

    S = expansion.SiegelExpansion

    def mul_kind(self, other):
        return "expansion.mul" if isinstance(other, S) else "expansion.scalar_mul"

    def mul_pre(self, other):
        if not isinstance(other, S):
            return None
        # Exact coefficient multiplications of the block product: every pair
        # of (m, n) blocks whose sum stays in the result's box.
        box = self.scale * min(self.precision, other.precision)
        a = Counter((m, n) for m, _, n in self.coeffs)
        b = Counter((m, n) for m, _, n in other.coeffs)
        products = 0
        for (m1, n1), k1 in a.items():
            for (m2, n2), k2 in b.items():
                if m1 + m2 <= box and n1 + n2 <= box:
                    products += k1 * k2
        return {"coeff_products": products}

    def mul_post(result, counts, self, other):
        if counts is None or not isinstance(result, S):
            return None
        counts["terms_out"] = len(result.coeffs)
        counts["max_coeff_bits"] = max(map(_bits, result.coeffs.values()), default=0)
        return counts

    def monomial_pre(registry, spec, precision):
        return {"hit": int((spec, precision) in registry._monomials)}

    def text_bytes(result, counts, *args):
        text = result if isinstance(result, str) else args[0]
        return {"bytes": len(text.encode("utf-8"))}

    def cells(result, counts, matrix, p=None):
        return {"cells": len(matrix.entries) * len(matrix.columns)}

    # SiegelExpansion.__rmul__ is its own alias of __mul__, so each is wrapped.
    _patch(tracer, mul_kind, [S], "__mul__", mul_pre, mul_post)
    _patch(tracer, mul_kind, [S], "__rmul__", mul_pre, mul_post)
    _patch(tracer, "expansion.reduce_mod", [S], "reduce_mod")
    _patch(tracer, "expansion.truncate", [S], "truncate")
    _patch(tracer, "expansion.wronskian35", [expansion, generators], "wronskian35")

    _patch(tracer, "rationals.bernoulli_polynomial", [rationals, jacobi], "bernoulli_polynomial")
    _patch(tracer, "jacobi.cohen_h", [jacobi], "cohen_h")
    _patch(tracer, "jacobi.jacobi_eisenstein", [jacobi, generators], "jacobi_eisenstein")
    _patch(tracer, "jacobi.jacobi_combine", [jacobi, generators], "jacobi_combine")
    _patch(tracer, "jacobi.maass_lift", [jacobi, generators], "maass_lift")

    _patch(tracer, "qexp1.diag_builder", [qexp1, generators, verify], "diag_builder")
    _patch(tracer, "qexp1.eisenstein1", [qexp1, generators, verify], "eisenstein1")

    R = generators.GeneratorRegistry
    _patch(tracer, "generators.generator", [R], "generator")
    _patch(tracer, "generators.monomial", [R], "monomial", pre=monomial_pre)

    _patch(tracer, "qformat.parse_siegel", [qformat, cli], "parse_siegel", post=text_bytes)
    _patch(tracer, "qformat.dump_siegel", [qformat, cli], "dump_siegel", post=text_bytes)
    _patch(tracer, "qformat.save_atomic", [qformat], "save_atomic")

    _patch(tracer, "verify.fp_rank", [verify], "fp_rank", post=cells)
    _patch(tracer, "verify.span_canonical", [verify], "span_canonical")
    _patch(tracer, "verify.matrix_from_forms", [verify], "matrix_from_forms")
    _patch(tracer, "verify.box_indices", [verify], "box_indices")
    _patch(tracer, "verify.verify_theorem1_rank", [verify], "verify_theorem1_rank")
    _patch(tracer, "verify.sharpness_witness", [verify, cli], "sharpness_witness")
    _patch(tracer, "verify.verify_identities", [verify, cli], "verify_identities")


# -- summaries -----------------------------------------------------------------

# Layers whose self time is reported, and those whose call count is.
SELF_TIMED = (
    "rationals.bernoulli_polynomial",
    "jacobi.cohen_h",
    "jacobi.jacobi_eisenstein",
    "jacobi.jacobi_combine",
    "jacobi.maass_lift",
    "qexp1.diag_builder",
    "qexp1.eisenstein1",
    "expansion.mul",
    "expansion.scalar_mul",
    "expansion.wronskian35",
    "expansion.reduce_mod",
    "expansion.truncate",
    "generators.generator",
    "qformat.parse_siegel",
    "qformat.dump_siegel",
    "qformat.save_atomic",
    "verify.fp_rank",
    "verify.span_canonical",
    "verify.matrix_from_forms",
    "verify.box_indices",
    "verify.verify_theorem1_rank",
    "verify.sharpness_witness",
    "verify.verify_identities",
    "cli.main",
)
COUNTED = (
    "rationals.bernoulli_polynomial",
    "jacobi.cohen_h",
    "jacobi.jacobi_eisenstein",
    "jacobi.maass_lift",
    "qexp1.diag_builder",
    "expansion.mul",
    "expansion.scalar_mul",
    "expansion.reduce_mod",
    "expansion.truncate",
    "generators.generator",
    "generators.monomial",
    "qformat.parse_siegel",
    "qformat.dump_siegel",
    "qformat.save_atomic",
    "verify.fp_rank",
)
# Counts that must repeat exactly when the same inputs are traced twice.
EXACT = (
    "expansion.mul.coeff_products",
    "verify.fp_rank.cells",
    "jacobi.jacobi_eisenstein.calls",
    "generators.generator.calls",
    "generators.generator.built",
    "generators.generator.disk_loads",
    "generators.generator.memory_hits",
    "generators.monomial.calls",
    "generators.monomial.hit_ratio",
)


def _merged(gaps):
    """Disjoint sorted gaps and the running total of their lengths."""
    merged = []
    for start, end in sorted(gaps):
        if merged and start <= merged[-1][1]:
            merged[-1][1] = max(merged[-1][1], end)
        else:
            merged.append([start, end])
    starts = [start for start, _ in merged]
    total = [0]
    for start, end in merged:
        total.append(total[-1] + end - start)
    return merged, starts, total


def _gap_ns_before(point, merged, starts, total):
    """Gap time before ``point``."""
    i = bisect_right(starts, point)
    if i == 0:
        return 0
    start, end = merged[i - 1]
    return total[i - 1] + min(end, point) - start


def summarise(processes):
    """Per-layer totals over traced processes.

    ``processes`` holds ``(spans, gaps)`` pairs, one per traced process.
    Returns ``(totals, accounted_ns)``: totals maps metric names to numbers
    (self times in seconds, counts as integers), and accounted_ns lists, per
    process, the time its top-level spans cover plus all its gaps, so that
    the rest of the process's time is what no span and no gap took.  A
    span's time is its interval minus the gaps inside it, so a child's time
    never exceeds the share of its parent's interval it sits in, and self
    times are never negative.
    """
    self_ns = Counter()
    totals = Counter()
    max_bits = 0
    accounted = []
    for spans, gaps in processes:
        index = _merged(gaps)
        eff = [
            s[END] - s[START] - (_gap_ns_before(s[END], *index) - _gap_ns_before(s[START], *index))
            for s in spans
        ]
        child_ns = [0] * len(spans)
        kids = {}
        top = 0
        for i, s in enumerate(spans):
            parent = s[PARENT]
            if parent < 0:
                top += eff[i]
            else:
                child_ns[parent] += eff[i]
                kids.setdefault(parent, set()).add(s[NAME])
        accounted.append(top + index[2][-1])
        for i, s in enumerate(spans):
            name, counts = s[NAME], s[COUNTS]
            self_ns[name] += eff[i] - child_ns[i]
            totals[name + ".calls"] += 1
            if counts:
                if name == "generators.monomial":
                    totals[name + ".hits"] += counts["hit"]
                    continue
                for key, value in counts.items():
                    if key == "max_coeff_bits":
                        max_bits = max(max_bits, value)
                    else:
                        totals[f"{name}.{key}"] += value
            if name == "generators.generator":
                # A parse child is a disk load, any other child but the final
                # truncation is a build, and no such child is a memory hit.
                names = kids.get(i, set()) - {"expansion.truncate"}
                if "qformat.parse_siegel" in names:
                    totals[name + ".disk_loads"] += 1
                elif names:
                    totals[name + ".built"] += 1
                else:
                    totals[name + ".memory_hits"] += 1
    out = {}
    for name in SELF_TIMED:
        out[name + ".self_s"] = self_ns[name] / 1e9
    for name in COUNTED:
        out[name + ".calls"] = totals[name + ".calls"]
    for key in (
        "expansion.mul.coeff_products",
        "expansion.mul.terms_out",
        "generators.generator.built",
        "generators.generator.disk_loads",
        "generators.generator.memory_hits",
        "qformat.parse_siegel.bytes",
        "qformat.dump_siegel.bytes",
        "verify.fp_rank.cells",
    ):
        out[key] = totals[key]
    out["expansion.mul.max_coeff_bits"] = max_bits
    calls = totals["generators.monomial.calls"]
    out["generators.monomial.calls"] = calls
    out["generators.monomial.hit_ratio"] = totals["generators.monomial.hits"] / calls if calls else 0.0
    return out, accounted
