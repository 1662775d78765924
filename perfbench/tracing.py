"""Per-layer spans and counters, recorded from outside the program.

The tracer replaces public functions of cqcalab with timing wrappers while
it is installed.  A module-level function is replaced under every name its
callers look it up by (``laurent.gcd`` is also ``automaton.gcd`` and
``stabilizer.gcd``); a method is replaced on its class.  Spans are kept as
per-job sums rather than one record per call, because ``letter_at`` alone
runs millions of times per diagram.  Self time is a span's duration minus
the time covered by the wrapped calls it made.
"""

from __future__ import annotations

import functools
from time import perf_counter


def _mul_bits(stats, args, result):
    key = "laurent.mul.max_bits"
    stats[key] = max(stats.get(key, 0), result.mask.bit_length())


def _rank_rows(stats, args, result):
    # Both callers in finite_chain pass a list.
    stats["finite_chain.f2_rank.rows"] = stats.get("finite_chain.f2_rank.rows", 0) + len(args[0])


def _diagram_cells(stats, args, result):
    stats["render.cells"] = stats.get("render.cells", 0) + result.width * result.height


def _emitted_bytes(stats, args, result):
    stats["render.bytes"] = stats.get("render.bytes", 0) + len(result)


# (span name, module, class or None, attribute, counter hook or None)
SPANS = [
    ("cli.main", "cli", None, "main", None),
    ("automaton.validate", "automaton", None, "validate", None),
    ("automaton.apply", "automaton", "ValidatedCqca", "apply", None),
    ("automaton.power", "automaton", "ValidatedCqca", "power", None),
    ("automaton.matmul", "automaton", "ValidatedCqca", "__matmul__", None),
    ("laurent.mul", "laurent", "LaurentPoly", "__mul__", _mul_bits),
    ("laurent.gcd", "laurent", None, "gcd", None),
    ("stabilizer.validate_state", "stabilizer", None, "validate_state", None),
    ("stabilizer.evolve", "stabilizer", None, "evolve", None),
    ("finite_chain.truncate_rule", "finite_chain", None, "truncate_rule", None),
    ("finite_chain.step", "finite_chain", None, "step", None),
    ("finite_chain.ring_state_entropy", "finite_chain", None, "ring_state_entropy", None),
    ("finite_chain.f2_rank", "finite_chain", None, "f2_rank", _rank_rows),
    ("phase_space.letter_at", "phase_space", "PhaseVector", "letter_at", None),
    ("render.build_diagram", "render", None, "build_diagram", _diagram_cells),
    ("render.emit", "render", None, "emit", _emitted_bytes),
]

COUNTERS = [
    "laurent.mul.max_bits",
    "finite_chain.f2_rank.rows",
    "render.cells",
    "render.bytes",
]

METRICS = [f"{name}.{kind}" for name, *_ in SPANS for kind in ("calls", "self_s")] + COUNTERS


def merge(totals: dict, stats: dict) -> None:
    """Add one job's stats into a round's totals; max_bits keeps the maximum."""
    for key, value in stats.items():
        if key.endswith(".max_bits"):
            totals[key] = max(totals.get(key, 0), value)
        else:
            totals[key] = totals.get(key, 0) + value


class Tracer:
    """Wraps the SPANS of one imported cqcalab while installed."""

    def __init__(self, modules: dict):
        self._modules = modules
        self._saved = []
        self._open = [0.0]  # time covered by children, one entry per open span
        self.stats: dict = {}

    def _wrap(self, name, fn, hook):
        calls, self_s = f"{name}.calls", f"{name}.self_s"
        open_spans = self._open

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            open_spans.append(0.0)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                children = open_spans.pop()
                open_spans[-1] += elapsed
                stats = self.stats
                stats[calls] = stats.get(calls, 0) + 1
                stats[self_s] = stats.get(self_s, 0.0) + elapsed - children
            if hook is not None:
                hook(self.stats, args, result)
            return result

        return traced

    def install(self) -> None:
        for name, module, cls, attr, hook in SPANS:
            if cls is not None:
                owners = [getattr(self._modules[module], cls)]
                original = owners[0].__dict__[attr]
            else:
                original = getattr(self._modules[module], attr)
                owners = [m for m in self._modules.values() if getattr(m, attr, None) is original]
            wrapper = self._wrap(name, original, hook)
            for owner in owners:
                self._saved.append((owner, attr, original))
                setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)
