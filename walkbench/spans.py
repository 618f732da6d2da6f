"""Span recording around the calls into each hyperwalks layer.

`install` replaces a public function at every module attribute that binds it
(for example `oracle.recognize`, `bijection.recognize` and `hyperwalks.recognize`
all point to one function), so a call reaches the wrapper whichever name the
caller uses.  Each call appends one span (name, start, end, parent, operation)
to in-memory lists; `dump` writes them out once the pass is over.  Counts of
work are taken from what the program returns or reads: report cells, census
memory, enumerated members, and the steps recognize reads from its words.

`layer_metrics` turns a dumped trace into the per-layer metrics named in
BENCHMARK.json.  A span's self time is its duration minus the durations of its
direct children: calls are nested and single-threaded, so the children never
overlap.
"""

from __future__ import annotations

import functools
import json
import sys
import time
import tracemalloc

# (module, function) pairs whose calls are spans.  cross_ratio_check and
# count_E_double_prime are routes the check harness calls; they are spans so
# that their time is not counted as harness self time, but no metric names them.
TRACED = (
    ("cli", "main"),
    ("checks", "run_check"),
    ("formulas", "closed_form"),
    ("formulas", "recurrence_seq"),
    ("formulas", "hyper_form"),
    ("formulas", "cross_ratio_check"),
    ("series", "gf_series"),
    ("series", "asymptotic_ratio"),
    ("oracle", "count_dp"),
    ("oracle", "count_dp_first_step"),
    ("oracle", "naive_census"),
    ("oracle", "enumerate_words"),
    ("automata", "recognize"),
    ("bijection", "verify_bijection"),
    ("bijection", "phi"),
    ("bijection", "count_E_double_prime"),
    ("core", "parse_word"),
    ("bfile", "bfile_emit"),
)


# Layers whose span has another name than the layer.
SPAN_OF_LAYER = {"checks": "checks.run_check"}

# Work counters the recorder keeps; each starts at 0 in every pass.
COUNTERS = (
    "checks.cells", "oracle.naive_census.candidates", "oracle.naive_census.peak_mb",
    "oracle.enumerate_words.members", "automata.recognize.steps",
)


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


class Recorder:
    """In-memory spans and counters of one pass."""

    def __init__(self):
        self.names: list[str] = []
        self.spans: list[list] = []  # [name index, start, end, parent, op]
        self.stack: list[int] = []
        self.op = -1
        self.steps = 0
        self.counters: dict[str, float] = dict.fromkeys(COUNTERS, 0)

    def add(self, key: str, amount: float) -> None:
        self.counters[key] += amount

    def peak(self, key: str, value: float) -> None:
        self.counters[key] = max(self.counters[key], value)

    def wrap(self, name: str, fn):
        name_index = len(self.names)
        self.names.append(name)
        measure = getattr(self, "_measure_" + name.replace(".", "_"), self._timed)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = self.stack
            span = [name_index, 0.0, 0.0, stack[-1] if stack else -1, self.op]
            stack.append(len(self.spans))
            self.spans.append(span)
            return measure(fn, span, args, kwargs)

        return wrapper

    def _timed(self, fn, span, args, kwargs):
        span[1] = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            span[2] = time.perf_counter()
            self.stack.pop()

    def _measure_checks_run_check(self, fn, span, args, kwargs):
        report = self._timed(fn, span, args, kwargs)
        self.add("checks.cells", len(report.cells))
        return report

    def _measure_oracle_naive_census(self, fn, span, args, kwargs):
        r, n = _arg(args, kwargs, 0, "r"), _arg(args, kwargs, 1, "n")
        tracemalloc.start()
        try:
            result = self._timed(fn, span, args, kwargs)
            self.peak("oracle.naive_census.peak_mb", tracemalloc.get_traced_memory()[1] / 1e6)
        finally:
            tracemalloc.stop()
        # The census scans every candidate by design, so this is fixed by (r, n).
        if n > 0:
            self.add("oracle.naive_census.candidates", (1 << (r + 1)) ** (2 * n))
        return result

    def _measure_oracle_enumerate_words(self, fn, span, args, kwargs):
        words = self._timed(fn, span, args, kwargs)
        self.add("oracle.enumerate_words.members", len(words))
        return words

    def _count_recognize_steps(self) -> None:
        """Count every step read from a Word while recognize is the innermost
        open span: the steps its machine and pattern check consumed."""
        word = sys.modules["hyperwalks.core"].Word
        original = word.__iter__
        recognize = self.names.index("automata.recognize")
        spans, stack = self.spans, self.stack

        def counted(steps):
            for step in steps:
                self.steps += 1
                yield step

        def __iter__(w):
            steps = original(w)
            return counted(steps) if stack and spans[stack[-1]][0] == recognize else steps

        word.__iter__ = __iter__

    def install(self) -> None:
        """Wrap every TRACED function at each hyperwalks module attribute bound to it."""
        modules = [m for key, m in sys.modules.items()
                   if m is not None and (key == "hyperwalks" or key.startswith("hyperwalks."))]
        for module_name, function_name in TRACED:
            original = getattr(sys.modules["hyperwalks." + module_name], function_name)
            wrapper = self.wrap(f"{module_name}.{function_name}", original)
            for module in modules:
                for attribute, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attribute, wrapper)
        self._count_recognize_steps()

    def dump(self, path: str) -> None:
        self.counters["automata.recognize.steps"] = self.steps
        with open(path, "w") as fh:
            json.dump({"names": self.names, "spans": self.spans, "counters": self.counters}, fh)


def layer_metrics(trace: dict, names: list[str]) -> dict[str, float]:
    """The per-layer metrics `names` of one dumped trace.

    A name is "<layer>.<measure>".  The measures self_s and calls come from the
    spans of the layer (the harness layer "checks" is the span of
    checks.run_check); any other measure is a work count.
    """
    span_names, spans = trace["names"], trace["spans"]
    self_time = [0.0] * len(span_names)
    calls = [0] * len(span_names)
    for name_index, start, end, parent, _op in spans:
        duration = end - start
        self_time[name_index] += duration
        calls[name_index] += 1
        if parent >= 0:
            self_time[spans[parent][0]] -= duration
    by_name = {name: i for i, name in enumerate(span_names)}
    counts = dict(trace["counters"])
    # enumerate_words's candidates are the recognize calls it made.
    recognize, enumerate_words = by_name["automata.recognize"], by_name["oracle.enumerate_words"]
    candidates = sum(1 for name_index, _s, _e, parent, _op in spans
                     if name_index == recognize and parent >= 0 and spans[parent][0] == enumerate_words)
    counts["oracle.enumerate_words.candidates"] = candidates
    counts["oracle.enumerate_words.hit_ratio"] = (
        counts["oracle.enumerate_words.members"] / candidates if candidates else 0.0
    )
    metrics: dict[str, float] = {}
    for name in names:
        layer, _, measure = name.rpartition(".")
        if measure == "self_s":
            metrics[name] = self_time[by_name[SPAN_OF_LAYER.get(layer, layer)]]
        elif measure == "calls":
            metrics[name] = calls[by_name[layer]]
        else:
            metrics[name] = counts[name]
    return metrics
