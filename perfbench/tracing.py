"""Spans around the public functions of each virtualk module, for traced runs.

``install`` replaces each function named in ``TARGETS`` by a wrapper in every
``virtualk`` module namespace that binds it (the package uses
``from .x import y``), wraps the ``Cyc`` operators on the class and the verify
suites in ``verify.SUITES``.  Spans nest: a span's self time is its duration
minus the time covered by the spans it encloses.  Every span is counted in
``Tracer.stats``; only request-level spans (``cli.main`` and the verify
suites) are also kept individually, because the scalar operations run
millions of times.  Nothing is written until the caller serializes the tracer.
"""

from __future__ import annotations

import sys
import time

#: module -> attributes to wrap; "Class.attr" wraps a method on the class.
TARGETS = {
    "cyclotomic": ["Cyc.__mul__", "Cyc.__add__", "Cyc.inv", "CycPoly.divmod_by"],
    "sector_ring": ["sector_mul", "reduce_coeffs", "sector_adams", "sector_monomial"],
    "virtual_ring": ["virtual_mul", "virtual_adams", "lambda_from_adams"],
    "localization": ["gamma", "gamma_inverse", "loc_mul", "loc_adams", "u_mul", "u_adams",
                     "to_u_basis", "from_u_basis"],
    "line_elements": ["is_line_element", "line_realize", "span_rank"],
    "presentation": ["verify_presentation", "verify_resolution_isomorphism"],
    "linalg": ["rank", "inverse"],
    "expr": ["parse", "evaluate", "format_value", "value_to_json"],
    "verify": ["Report.to_json", "Report.text_summary"],
    "cli": ["main"],
}

#: The verify suites, in ``verify.SUITES`` order.
SUITES = ("product-oracle", "adams-oracle", "psi-ring", "line-elements", "span",
          "presentation", "resolution")

#: Span names that differ from "<module>.<attribute>".
RENAMED = {
    "cyclotomic.Cyc.__mul__": "cyclotomic.Cyc.mul",
    "cyclotomic.Cyc.__add__": "cyclotomic.Cyc.add",
    "verify.Report.to_json": "verify.report_emit",
    "verify.Report.text_summary": "verify.report_emit",
}


class Tracer:
    """Span statistics: name -> [calls, self_ns, total_ns]."""

    def __init__(self) -> None:
        self.stats: dict[str, list[int]] = {}
        self.suite_checks: dict[str, int] = {}
        self.mul_zero_operand = 0
        self.mul_irrational = 0
        self.spans: list[list] = []  # [name, start_ns, end_ns, parent index]
        self._covered = [0]
        self._open = [-1]

    def wrap(self, name: str, fn, on_call=None, on_return=None, keep: bool = False):
        stat = self.stats.setdefault(name, [0, 0, 0])
        covered, opened, spans = self._covered, self._open, self.spans
        clock = time.perf_counter_ns

        def span(*args, **kwargs):
            if on_call is not None:
                on_call(*args)
            if keep:
                index = len(spans)
                spans.append([name, 0, 0, opened[-1]])
                opened.append(index)
            covered.append(0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                took = clock() - start
                stat[0] += 1
                stat[1] += took - covered.pop()
                stat[2] += took
                covered[-1] += took
                if keep:
                    spans[opened.pop()][1:3] = [start, start + took]
            if on_return is not None:
                on_return(result)
            return result

        span.__wrapped__ = fn
        span.__name__ = getattr(fn, "__name__", name)
        return span

    def _count_mul(self, a, b) -> None:
        b_num = getattr(b, "num", None)  # None for an int or Fraction operand
        if not any(a.num) or (b == 0 if b_num is None else not any(b_num)):
            self.mul_zero_operand += 1
        elif b_num is not None and any(a.num[1:]) and any(b_num[1:]):
            self.mul_irrational += 1

    def install(self) -> None:
        """Wrap every target in the already-imported ``virtualk`` package."""
        import virtualk.cli  # noqa: F401  (imports every module)
        from virtualk import verify

        modules = [m for k, m in sys.modules.items() if k == "virtualk" or k.startswith("virtualk.")]
        for module_name, attrs in TARGETS.items():
            module = sys.modules["virtualk." + module_name]
            for attr in attrs:
                name = RENAMED.get("%s.%s" % (module_name, attr), "%s.%s" % (module_name, attr))
                if "." in attr:
                    cls_name, meth = attr.split(".")
                    cls = getattr(module, cls_name)
                    original = cls.__dict__[meth]
                    on_call = self._count_mul if name == "cyclotomic.Cyc.mul" else None
                    wrapper = self.wrap(name, original, on_call=on_call)
                    for key, value in list(cls.__dict__.items()):
                        if value is original:
                            setattr(cls, key, wrapper)
                    continue
                original = getattr(module, attr)
                wrapper = self.wrap(name, original, keep=name == "cli.main")
                for mod in modules:
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, key, wrapper)
        for suite, fn in list(verify.SUITES.items()):
            def record(checks, suite=suite):
                self.suite_checks[suite] = self.suite_checks.get(suite, 0) + len(checks)
            verify.SUITES[suite] = self.wrap("verify.%s" % suite, fn, on_return=record, keep=True)

    def to_json(self) -> dict:
        return {
            "stats": self.stats,
            "suite_checks": self.suite_checks,
            "mul_zero_operand": self.mul_zero_operand,
            "mul_irrational": self.mul_irrational,
            "spans": self.spans,
        }
