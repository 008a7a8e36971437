"""Spans around the library's public functions, installed from outside it.

``Tracer.install`` wraps each function in ``LAYERS`` and rebinds the wrapper
under every name that refers to the original in every loaded ``rigidity_lab``
module, so calls between modules go through it; methods are rebound on their
class.  The library's files are not touched.

Each span carries its op id and parent span.  Spans are folded into totals
when they close (calls and self time per function, self time per op), so
memory grows with the number of ops, not with the number of calls.  Self time is a span's
duration minus the time its child spans cover.  Branch and repeat counters
are observed at the same boundaries; observing is charged to no span.
"""

from __future__ import annotations

import functools
import sys
from time import perf_counter_ns

import arith

LAYERS = {
    "exact_linalg": (
        "centralizer_dimension", "invariant_factors", "similar", "matrix_rank",
        "rref_decompose", "coordinates_in_basis", "restrict_to_image", "split_unit_part",
        "unit_block_partition", "fixed_space_dim", "QMatrix.matmul", "QMatrix.inverse",
        "QMatrix.is_invertible",
    ),
    "local_systems": (
        "validate", "is_irreducible", "rigidity_index", "rigidity_report", "random_tuple",
        "monodromy_tuple", "tuple_from_json",
    ),
    "fourier": ("stationary_phase", "rig_fourier", "preservation_details", "fourier_data_to_json"),
    "catalog": ("load_catalog",),
    "cli": ("main", "run_campaign"),
}

# (name, unit) of the metrics derived from counters rather than from one
# function's span totals.
DERIVED = (
    ("exact_linalg.centralizer_dimension.repeat_frac", "ratio"),
    ("exact_linalg.centralizer_dimension.calls_large", "count"),
    ("local_systems.validate.calls_per_op", "calls/op"),
    ("local_systems.is_irreducible.calls_per_op", "calls/op"),
    ("local_systems.random_tuple.accept_frac", "ratio"),
    ("fourier.stationary_phase.unit_block_frac", "ratio"),
    ("fourier.stationary_phase.padding_frac", "ratio"),
    ("fourier.stationary_phase.defect_point_frac", "ratio"),
    ("trace.overhead_frac", "ratio"),
)

_METHOD_NAMES = {"matmul": "__matmul__"}


def span_names() -> list[str]:
    return [f"{module}.{name}" for module, names in LAYERS.items() for name in names]


def per_layer_units() -> dict[str, str]:
    """Unit of every per-layer metric, in print order."""
    out = {}
    for span in span_names():
        out[f"{span}.calls"] = "count"
        out[f"{span}.self_s"] = "s"
    return out | dict(DERIVED)


class _Span:
    """An open call: its op, its parent span, and the time its children took."""

    __slots__ = ("op_id", "parent", "child_ns")

    def __init__(self, op_id: int, parent: _Span | None):
        self.op_id = op_id
        self.parent = parent
        self.child_ns = 0


class Tracer:
    def __init__(self, clock=perf_counter_ns) -> None:
        self._clock = clock  # nanoseconds
        self.calls = {name: 0 for name in span_names()}
        self.self_ns = {name: 0 for name in span_names()}
        self.op_self_ns: dict[int, dict[str, int]] = {}
        self.missing: list[str] = []
        self.observer_errors: list[str] = []
        self.op_id = -1
        self._stack: list[_Span] = []
        self._seen_centralizer: set = set()
        self.centralizer_repeats = 0
        self.centralizer_large = 0
        self.trials_accepted = 0
        self.finite_points = 0
        self.defect_points = 0
        self.unit_block_calls = 0
        self.padding_calls = 0
        self._observers = {
            "exact_linalg.centralizer_dimension": self._observe_centralizer,
            "cli.run_campaign": self._observe_campaign,
            "fourier.stationary_phase": self._observe_stationary_phase,
        }

    def install(self) -> None:
        modules = [m for name, m in sorted(sys.modules.items())
                   if name == "rigidity_lab" or name.startswith("rigidity_lab.")]
        for module_name, names in LAYERS.items():
            home = sys.modules.get(f"rigidity_lab.{module_name}")
            for name in names:
                span = f"{module_name}.{name}"
                owner_name, _, attr = name.rpartition(".")
                owner = getattr(home, owner_name, None) if owner_name else home
                attr = _METHOD_NAMES.get(attr, attr)
                original = getattr(owner, attr, None)
                if not callable(original):
                    self.missing.append(span)
                    continue
                wrapper = self._wrap(span, original)
                if owner_name:
                    setattr(owner, attr, wrapper)
                    continue
                for module in modules:
                    for key, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, key, wrapper)

    def _wrap(self, span_name: str, fn):
        stack = self._stack
        clock = self._clock
        calls, self_ns = self.calls, self.self_ns
        observe = self._observers.get(span_name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = _Span(self.op_id, stack[-1] if stack else None)
            stack.append(span)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                own = end - start - span.child_ns
                calls[span_name] += 1
                self_ns[span_name] += own
                per_op = self.op_self_ns.setdefault(span.op_id, {})
                per_op[span_name] = per_op.get(span_name, 0) + own
                if span.parent is not None:
                    span.parent.child_ns += end - start
            if observe is not None:
                try:
                    observe(args, result)
                except (AttributeError, TypeError) as exc:
                    self.observer_errors.append(f"{span_name}: {exc!r}")
                if span.parent is not None:
                    span.parent.child_ns += clock() - end
            return result

        return wrapper

    def _observe_centralizer(self, args, result) -> None:
        matrix = args[0]
        if matrix in self._seen_centralizer:
            self.centralizer_repeats += 1
        else:
            self._seen_centralizer.add(matrix)
        if matrix.rows > 8:
            self.centralizer_large += 1

    def _observe_campaign(self, args, result) -> None:
        self.trials_accepted += getattr(result, "trials_run", 0)

    def _observe_stationary_phase(self, args, result) -> None:
        t = args[0]
        n = t.rank
        self.finite_points += len(result.components)
        self.defect_points += sum(1 for c in result.components if c.dimension < n)
        a_inf = [list(t.infinity_matrix.entries[i * n:(i + 1) * n]) for i in range(n)]
        unit_blocks = n - arith.rank(arith.sub_identity(a_inf))
        self.unit_block_calls += unit_blocks > 0
        self.padding_calls += result.rank_hat - n - unit_blocks > 0

    def metrics(self, ops: int) -> dict[str, float]:
        """Per-layer values except ``trace.overhead_frac``, which needs the
        untraced run and is filled in by the caller."""
        out: dict[str, float] = {}
        for span in span_names():
            out[f"{span}.calls"] = self.calls[span]
            out[f"{span}.self_s"] = self.self_ns[span] / 1e9
        central = self.calls["exact_linalg.centralizer_dimension"]
        sp_calls = self.calls["fourier.stationary_phase"]
        out.update({
            "exact_linalg.centralizer_dimension.repeat_frac": _ratio(self.centralizer_repeats, central),
            "exact_linalg.centralizer_dimension.calls_large": self.centralizer_large,
            "local_systems.validate.calls_per_op": _ratio(self.calls["local_systems.validate"], ops),
            "local_systems.is_irreducible.calls_per_op":
                _ratio(self.calls["local_systems.is_irreducible"], ops),
            "local_systems.random_tuple.accept_frac":
                _ratio(self.trials_accepted, self.calls["local_systems.random_tuple"]),
            "fourier.stationary_phase.unit_block_frac": _ratio(self.unit_block_calls, sp_calls),
            "fourier.stationary_phase.padding_frac": _ratio(self.padding_calls, sp_calls),
            "fourier.stationary_phase.defect_point_frac":
                _ratio(self.defect_points, self.finite_points),
        })
        return out


def _ratio(num: float, den: float) -> float:
    """num / den, or 0.0 when nothing was counted."""
    return num / den if den else 0.0
