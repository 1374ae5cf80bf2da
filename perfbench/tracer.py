"""Span tracer that wraps lcpq's public functions from outside the package.

``from .matrices import determinant`` copies the name into every importing
module, so wrapping only the defining module would miss most calls.  Tracer
rebinds the name in every loaded ``lcpq`` module whose attribute is the
original function object, and ``uninstall`` puts every original back.

Each call records one span (id, parent id, input id, function, start, end).
Spans stay in memory in flat arrays until ``write_spans``; per-function call
counts and self time (span time minus the time of child spans) accumulate as
the spans close.
"""

from __future__ import annotations

import functools
import importlib
import sys
from array import array
from time import perf_counter

PACKAGE = "lcpq"

# (module under lcpq, function); the metric prefix is "<module>.<function>".
TRACED = (
    ("cli", "main"),
    ("classifier", "classify"),
    ("structure", "detect_structure"),
    ("classes", "q_oracle"),
    ("classes", "is_R0"),
    ("classes", "is_S"),
    ("classes", "is_Rstar"),
    ("lcp", "solve_lcp"),
    ("lcp", "degree"),
    ("simplex", "solve_feasibility"),
    ("matrices", "determinant"),
    ("matrices", "solve_linear"),
    ("matrices", "parse_matrix"),
    ("jordan.checks", "identity_residuals"),
    ("jordan.transforms", "peirce_decompose"),
    ("jordan.transforms", "mult_operator"),
    ("jordan.transforms", "hat_transform"),
    ("jordan.sclcp", "embed_solve"),
    ("jordan.sclcp", "sample_positivity_violation"),
    ("jordan.algebra", "spectral_decomposition"),
    ("jordan.algebra", "jordan_product"),
)

NAMES = tuple("%s.%s" % pair for pair in TRACED)
_INDEX = {name: i for i, name in enumerate(NAMES)}
_CLASSIFY = _INDEX["classifier.classify"]
_Q_ORACLE = _INDEX["classes.q_oracle"]
_SOLVE_LCP = _INDEX["lcp.solve_lcp"]
_FEASIBILITY = _INDEX["simplex.solve_feasibility"]
_DETERMINANT = _INDEX["matrices.determinant"]


def _share(part: int, whole: int) -> float:
    return part / whole if whole else 0.0


class Tracer:
    """Wraps the TRACED functions while installed; see the module docstring."""

    def __init__(self):
        self.input_id = -1  # set by the caller before each input
        self.calls = [0] * len(NAMES)
        self.self_s = [0.0] * len(NAMES)
        self.fallbacks = 0
        self.witness_tries = 0
        self.solvable = 0
        self.feasible = 0
        self.det_repeats = 0
        self._det_seen = set()
        self._det_input = None
        self._oracle_depth = 0
        self._stack = []
        self._next_id = 0
        self._sites = []  # (module, attribute, original, wrapper)
        self._span_id = array("q")
        self._span_parent = array("q")
        self._span_input = array("q")
        self._span_func = array("H")
        self._span_start = array("d")
        self._span_end = array("d")

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        """Rebind every traced name; uninstall() undoes it, and install()
        may be called again afterwards."""
        if not self._sites:
            self._sites = self._find_sites()
        for module, attr, _, wrapper in self._sites:
            setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, original, _ in reversed(self._sites):
            setattr(module, attr, original)

    def sites(self) -> list:
        """(module name, attribute) of every rebound name."""
        return [(module.__name__, attr) for module, attr, _, _ in self._sites]

    def _find_sites(self) -> list:
        originals = []
        for module_name, func_name in TRACED:
            module = importlib.import_module("%s.%s" % (PACKAGE, module_name))
            originals.append(getattr(module, func_name))
        wrappers = {id(fn): self._wrap(i, fn) for i, fn in enumerate(originals)}
        sites = []
        for name, module in sorted(sys.modules.items()):
            if module is None or not (name == PACKAGE or name.startswith(PACKAGE + ".")):
                continue
            for attr, value in vars(module).items():
                wrapper = wrappers.get(id(value))
                if wrapper is not None and value is wrapper.__wrapped__:
                    sites.append((module, attr, value, wrapper))
        return sites

    def _wrap(self, index: int, fn):
        def wrapper(*args, **kwargs):
            return self._span(index, fn, args, kwargs)

        return functools.update_wrapper(wrapper, fn)

    # -- recording ----------------------------------------------------------

    def _span(self, index, fn, args, kwargs):
        stack = self._stack
        parent = stack[-1] if stack else None
        if index == _Q_ORACLE:
            if parent is not None and parent[0] == _CLASSIFY:
                self.fallbacks += 1
            self._oracle_depth += 1
        elif index == _SOLVE_LCP and self._oracle_depth:
            self.witness_tries += 1
        elif index == _DETERMINANT:
            self._note_determinant(args[0] if args else kwargs["matrix"])
        span_id = self._next_id
        self._next_id += 1
        frame = [index, 0.0, span_id]  # function, child time, span id
        stack.append(frame)
        start = perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = perf_counter()
            stack.pop()
            elapsed = end - start
            self.calls[index] += 1
            self.self_s[index] += elapsed - frame[1]
            if parent is not None:
                parent[1] += elapsed
            if index == _Q_ORACLE:
                self._oracle_depth -= 1
            self._span_id.append(span_id)
            self._span_parent.append(parent[2] if parent is not None else -1)
            self._span_input.append(self.input_id)
            self._span_func.append(index)
            self._span_start.append(start)
            self._span_end.append(end)
        if index == _SOLVE_LCP and result:
            self.solvable += 1
        elif index == _FEASIBILITY and result is not None:
            self.feasible += 1
        return result

    def _note_determinant(self, matrix) -> None:
        if self._det_input != self.input_id:
            self._det_input = self.input_id
            self._det_seen = set()
        key = matrix.rows
        if key in self._det_seen:
            self.det_repeats += 1
        else:
            self._det_seen.add(key)

    # -- results ------------------------------------------------------------

    def metrics(self) -> dict:
        """Per-layer values keyed "<module>.<function>.<stat>"."""
        out = {}
        for i, name in enumerate(NAMES):
            out[name + ".calls"] = self.calls[i]
            out[name + ".self_s"] = self.self_s[i]
        out["classifier.classify.fallback_share"] = _share(self.fallbacks, self.calls[_CLASSIFY])
        out["classes.q_oracle.witness_tries"] = self.witness_tries
        out["lcp.solve_lcp.solvable_share"] = _share(self.solvable, self.calls[_SOLVE_LCP])
        out["simplex.solve_feasibility.feasible_share"] = _share(
            self.feasible, self.calls[_FEASIBILITY]
        )
        out["matrices.determinant.repeat_share"] = _share(
            self.det_repeats, self.calls[_DETERMINANT]
        )
        return out

    def write_spans(self, path: str) -> int:
        """Write the spans as tab-separated rows ordered by span id."""
        order = sorted(range(len(self._span_id)), key=self._span_id.__getitem__)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("span\tparent\tinput\tfunction\tstart_s\tend_s\n")
            for k in order:
                fh.write(
                    "%d\t%d\t%d\t%s\t%.9f\t%.9f\n"
                    % (
                        self._span_id[k],
                        self._span_parent[k],
                        self._span_input[k],
                        NAMES[self._span_func[k]],
                        self._span_start[k],
                        self._span_end[k],
                    )
                )
        return len(order)
