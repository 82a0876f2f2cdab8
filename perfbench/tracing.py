"""Span recording around bandflow's public calls, for the traced benchmark run.

Spans are taken from the benchmark's side of each call.  While an item runs
traced, the module attributes that the workloads call through, and that
bandflow's own modules look up at call time, are swapped for timing
wrappers; they are restored as soon as the item returns.  Nothing inside
bandflow is edited, so the traced run executes the same code as the
untraced one, plus the wrappers.

A span is a name, its parent span (-1 for an item's root span), the item it
belongs to, and its start and end times.  Spans live in compact in-memory
arrays and are written out once, when the run ends.
"""

from __future__ import annotations

import contextlib
from array import array
from time import perf_counter

import numpy as np

from bandflow import analytics, flow, models, oracle

ITEM = "item"
INTEGRATE = "flow.integrate_flow"
RHS = "flow.rhs"  # the stencil: the fun that flow hands to ode.Dopri54
STEP = "ode.step"
CERTIFY = "models.certify_truncation"
TRIDIAG = "oracle.eigenvalues_tridiag"
STURM = "oracle.sturm_count"
ASYM = "analytics.spinboson_eps_asym"
SPAN_NAMES = (ITEM, INTEGRATE, RHS, STEP, CERTIFY, TRIDIAG, STURM, ASYM)
_ID = {name: i for i, name in enumerate(SPAN_NAMES)}

# Per-layer metrics of the traced run and their units.
LAYER_METRICS = {
    "flow.integrate_s": "s",
    "flow.self_s": "s",
    "flow.tasks": "count",
    "flow.rhs_calls": "count",
    "flow.rhs_s": "s",
    "flow.rhs_us": "us",
    "ode.accepted": "count",
    "ode.rejected": "count",
    "ode.accept_frac": "ratio",
    "ode.self_s": "s",
    "ode.self_us_per_step": "us",
    "models.certify_s": "s",
    "models.certify_rounds": "count",
    "oracle.tridiag_s": "s",
    "oracle.sturm_calls": "count",
    "oracle.eig_useful_frac": "ratio",
    "analytics.asym_s": "s",
    "trace.overhead_frac": "ratio",
}


class Tracer:
    """In-memory span store plus the counters read off the stepper."""

    def __init__(self):
        self.name = array("b")
        self.parent = array("q")
        self.item = array("q")
        self.t0 = array("d")
        self.t1 = array("d")
        self.tasks = 0
        self.accepted = 0
        self.rejected = 0
        self.eig_computed = 0  # eigenvalues the oracle solved for certify_truncation
        self.eig_compared = 0  # of those, the ones certify_truncation compares
        self._stack = [-1]
        self._item = -1
        self._n_report: int | None = None
        self._patches = self._build_patches()

    # -- spans ----------------------------------------------------------------

    def begin(self, name_id: int) -> int:
        sid = len(self.t0)
        self.name.append(name_id)
        self.parent.append(self._stack[-1])
        self.item.append(self._item)
        self.t1.append(0.0)
        self._stack.append(sid)
        self.t0.append(perf_counter())
        return sid

    def end(self, sid: int) -> None:
        self.t1[sid] = perf_counter()
        self._stack.pop()

    def wrap(self, name: str, fn):
        name_id = _ID[name]

        def traced(*args, **kwargs):
            sid = self.begin(name_id)
            try:
                return fn(*args, **kwargs)
            finally:
                self.end(sid)

        return traced

    @contextlib.contextmanager
    def item_span(self, index: int):
        """Trace one item: install the wrappers, open its root span."""
        saved = [(mod, attr, getattr(mod, attr)) for mod, attr, _ in self._patches]
        for mod, attr, fn in self._patches:
            setattr(mod, attr, fn)
        self._item = index
        sid = self.begin(_ID[ITEM])
        try:
            yield
        finally:
            self.end(sid)
            self._item = -1
            for mod, attr, fn in saved:
                setattr(mod, attr, fn)

    # -- wrappers ---------------------------------------------------------------

    def _build_patches(self):
        tracer = self
        step_id = _ID[STEP]

        class TracedDopri54(flow.Dopri54):
            def __init__(self, fun, *args, **kwargs):
                tracer.tasks += 1
                super().__init__(tracer.wrap(RHS, fun), *args, **kwargs)

            def step(self, t_cap):
                rejected = self.n_rejected
                sid = tracer.begin(step_id)
                try:
                    super().step(t_cap)
                finally:
                    tracer.end(sid)
                    tracer.rejected += self.n_rejected - rejected
                tracer.accepted += 1

        certify = models.certify_truncation
        tridiag = models.eigenvalues_tridiag
        certify_id, tridiag_id = _ID[CERTIFY], _ID[TRIDIAG]

        def traced_certify(params, n_report, *args, **kwargs):
            sid = tracer.begin(certify_id)
            tracer._n_report = n_report
            try:
                return certify(params, n_report, *args, **kwargs)
            finally:
                tracer._n_report = None
                tracer.end(sid)

        def traced_tridiag(diag, offdiag):
            sid = tracer.begin(tridiag_id)
            try:
                result = tridiag(diag, offdiag)
            finally:
                tracer.end(sid)
            if tracer._n_report is not None:
                tracer.eig_computed += len(result.eigenvalues)
                tracer.eig_compared += min(tracer._n_report + 1, len(result.eigenvalues))
            return result

        return [
            (flow, "integrate_flow", self.wrap(INTEGRATE, flow.integrate_flow)),
            (flow, "Dopri54", TracedDopri54),
            (models, "certify_truncation", traced_certify),
            (models, "eigenvalues_tridiag", traced_tridiag),
            (oracle, "sturm_count", self.wrap(STURM, oracle.sturm_count)),
            (analytics, "spinboson_eps_asym", self.wrap(ASYM, analytics.spinboson_eps_asym)),
        ]

    # -- results ----------------------------------------------------------------

    def spans(self) -> dict[str, np.ndarray]:
        return {
            "name": np.frombuffer(self.name, dtype=np.int8).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int64).copy(),
            "item": np.frombuffer(self.item, dtype=np.int64).copy(),
            "t0": np.frombuffer(self.t0, dtype=np.float64).copy(),
            "t1": np.frombuffer(self.t1, dtype=np.float64).copy(),
        }

    def save(self, path) -> None:
        np.savez_compressed(path, names=np.array(SPAN_NAMES), **self.spans())

    def layer_metrics(self, overhead_frac: float) -> dict[str, float]:
        """Per-layer totals over every traced item.

        A span's self time is its duration minus the durations of its
        direct children.  Ratios whose base is zero (a layer the workload
        never calls) are reported as 0.
        """
        s = self.spans()
        name, parent = s["name"], s["parent"]
        dur = s["t1"] - s["t0"]
        child = parent >= 0
        self_time = dur - np.bincount(parent[child], weights=dur[child], minlength=dur.size)

        def mask(n):
            return name == _ID[n]

        def ratio(num, den):
            return num / den if den else 0.0

        rhs_calls = int(mask(RHS).sum())
        rhs_s = float(dur[mask(RHS)].sum())
        step_self = float(self_time[mask(STEP)].sum())
        certify_ids = np.nonzero(mask(CERTIFY))[0]
        certify_solves = int(np.isin(parent[mask(TRIDIAG)], certify_ids).sum())
        return {
            "flow.integrate_s": float(dur[mask(INTEGRATE)].sum()),
            "flow.self_s": float(self_time[mask(INTEGRATE)].sum()),
            "flow.tasks": self.tasks,
            "flow.rhs_calls": rhs_calls,
            "flow.rhs_s": rhs_s,
            "flow.rhs_us": 1e6 * ratio(rhs_s, rhs_calls),
            "ode.accepted": self.accepted,
            "ode.rejected": self.rejected,
            "ode.accept_frac": ratio(self.accepted, self.accepted + self.rejected),
            "ode.self_s": step_self,
            "ode.self_us_per_step": 1e6 * ratio(step_self, self.accepted),
            "models.certify_s": float(dur[mask(CERTIFY)].sum()),
            # each doubling round solves the N and the 2N chain
            "models.certify_rounds": certify_solves // 2,
            "oracle.tridiag_s": float(dur[mask(TRIDIAG)].sum()),
            "oracle.sturm_calls": int(mask(STURM).sum()),
            "oracle.eig_useful_frac": ratio(self.eig_compared, self.eig_computed),
            "analytics.asym_s": float(dur[mask(ASYM)].sum()),
            "trace.overhead_frac": overhead_frac,
        }
