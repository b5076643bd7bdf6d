"""In-memory spans around the public functions of each lingermort layer.

The tracer rebinds module attributes (``estimation.mixture_loglik``,
``projection.export_ensemble``, ...) to wrappers, so every call the
package makes through those names opens a span: name, start, end, parent,
whether it raised, and a few facts read off the result.  Spans stay in
memory; ``write`` dumps them once at the end of a run.
"""

import json
import os
import time
from contextlib import contextmanager

from lingermort import actuarial, baselines, estimation, panel, projection

LAYERS = ("panel", "model", "estimation", "baselines", "projection",
          "actuarial", "cli")


def _bfgs_name(args, kwargs):
    # the special-case prefit is the only BFGS call with an analytic gradient
    return "estimation.prefit" if kwargs.get("grad") is not None else "estimation.main"


def _bfgs_facts(out, args, kwargs):
    return {"iters": out.n_iter, "evals": out.n_eval, "converged": out.converged}


def _export_facts(out, args, kwargs):
    path = args[1] if len(args) > 1 else kwargs["path"]
    return {"bytes": os.path.getsize(path)}


def _project_facts(out, args, kwargs):
    return {"paths": out.n_paths}


# (module, attribute, span name or name function, facts function)
_POINTS = (
    (panel, "load_canonical_csv", "panel.load_canonical_csv", None),
    # estimation resolves the model functions through its own globals
    (estimation, "mixture_loglik", "model.mixture_loglik", None),
    (estimation, "special_case_loglik", "model.special_case_loglik", None),
    (estimation, "special_case_gradient", "model.special_case_gradient", None),
    (estimation, "fit", "estimation.fit", None),
    (estimation, "initialize", "estimation.initialize", None),
    (estimation, "bfgs_maximize", _bfgs_name, _bfgs_facts),
    (estimation, "standard_errors", "estimation.standard_errors", None),
    (baselines, "fit_cc", "baselines.fit_cc", None),
    (baselines, "fit_j1", "baselines.fit_j1", None),
    (projection, "project", "projection.project", _project_facts),
    (projection, "survival_curves", "projection.survival_curves", None),
    (projection, "export_ensemble", "projection.export_ensemble", _export_facts),
    (projection, "load_ensemble", "projection.load_ensemble", None),
    (actuarial, "value_product", "actuarial.value", None),
    (actuarial, "value_annuity", "actuarial.value", None),
    (actuarial, "value_insurance", "actuarial.value", None),
    (actuarial, "optimal_hedge", "actuarial.optimal_hedge", None),
    (actuarial, "whatif_report", "actuarial.whatif_report", None),
)


class Span:
    __slots__ = ("name", "start", "end", "parent", "raised", "facts")

    def __init__(self, name, parent):
        self.name = name
        self.parent = parent
        self.start = time.perf_counter()
        self.end = None
        self.raised = False
        self.facts = None

    @property
    def duration(self):
        return self.end - self.start


class Tracer:
    """Records spans while installed; ``paused`` lets the benchmark's own
    checks call through the wrappers without being recorded."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self._saved = []
        self.paused = False

    def install(self):
        """Wrap every trace point."""
        for module, attr, name, facts in _POINTS:
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(original, name, facts))

    def uninstall(self):
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()

    @contextmanager
    def span(self, name):
        """A span around a call site in the benchmark itself."""
        if self.paused:
            yield None
            return
        sp = self._open(name)
        try:
            yield sp
        except BaseException:
            sp.raised = True
            raise
        finally:
            self._close(sp)

    def _open(self, name):
        sp = Span(name, self._stack[-1] if self._stack else None)
        self.spans.append(sp)
        self._stack.append(len(self.spans) - 1)
        return sp

    def _close(self, sp):
        sp.end = time.perf_counter()
        self._stack.pop()

    def _wrap(self, fn, name, facts):
        def traced(*args, **kwargs):
            if self.paused:
                return fn(*args, **kwargs)
            nm = name(args, kwargs) if callable(name) else name
            # value_annuity calls value_product: one span per outer call
            if self._stack and self.spans[self._stack[-1]].name == nm:
                return fn(*args, **kwargs)
            sp = self._open(nm)
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                sp.raised = True
                raise
            finally:
                self._close(sp)
            if facts is not None:
                sp.facts = facts(out, args, kwargs)
            return out

        traced.__wrapped__ = fn
        return traced

    def write(self, path, setup_spans=()):
        """One JSON line per span; ids and parents index within a phase."""
        with open(path, "w", encoding="utf-8") as fh:
            for phase, spans in (("setup", setup_spans), ("ops", self.spans)):
                for i, sp in enumerate(spans):
                    fh.write(json.dumps({"phase": phase, "id": i, "name": sp.name,
                                         "start": sp.start, "end": sp.end,
                                         "parent": sp.parent, "raised": sp.raised,
                                         "facts": sp.facts}))
                    fh.write("\n")


def per_span_cost(n=20000):
    """Seconds one traced call adds over a direct call, measured on a no-op
    function with a scratch tracer."""
    noop = lambda: None  # noqa: E731
    wrapped = Tracer()._wrap(noop, "probe", None)
    t0 = time.perf_counter()
    for _ in range(n):
        noop()
    t1 = time.perf_counter()
    for _ in range(n):
        wrapped()
    t2 = time.perf_counter()
    return max((t2 - t1) - (t1 - t0), 0.0) / n


def self_times(spans):
    """Each span's duration minus the time its direct children cover."""
    child = [0.0] * len(spans)
    for sp in spans:
        if sp.parent is not None:
            child[sp.parent] += sp.duration
    return [sp.duration - c for sp, c in zip(spans, child)]


def layer_of(name):
    return name.split(".", 1)[0]


def layer_metrics(spans, n_ops, wall_s, span_cost):
    """Per-layer metrics of the timed operations of one traced run.

    Seconds and counts are per operation; ``.ms`` is per call; shares are
    of ``wall_s``, the summed wall time of the operations."""
    selfs = self_times(spans)
    by_name = {}
    for sp, st in zip(spans, selfs):
        rec = by_name.setdefault(sp.name, {"calls": 0, "s": 0.0, "raised": 0,
                                           "facts": []})
        rec["calls"] += 1
        rec["s"] += sp.duration
        rec["raised"] += sp.raised
        if sp.facts:
            rec["facts"].append(sp.facts)

    def total(name, key="s"):
        return by_name.get(name, {}).get(key, 0)

    def fact_sum(name, key):
        return sum(f[key] for f in by_name.get(name, {}).get("facts", []))

    def ratio(a, b):
        return a / b if b else 0.0

    per_op = 1.0 / n_ops
    m = {}
    for layer in LAYERS:
        # busy: spans of this layer not nested in another span of the layer
        busy = 0.0
        for sp in spans:
            if layer_of(sp.name) != layer:
                continue
            p = sp.parent
            while p is not None and layer_of(spans[p].name) != layer:
                p = spans[p].parent
            if p is None:
                busy += sp.duration
        m[f"{layer}.busy_s"] = busy * per_op
        m[f"{layer}.self_s"] = per_op * sum(
            st for sp, st in zip(spans, selfs) if layer_of(sp.name) == layer)

    for nm in ("model.mixture_loglik", "model.special_case_loglik",
               "model.special_case_gradient"):
        m[f"{nm}.calls"] = total(nm, "calls") * per_op
        m[f"{nm}.ms"] = 1e3 * ratio(total(nm), total(nm, "calls"))
    m["model.mixture_loglik.share"] = ratio(total("model.mixture_loglik"), wall_s)
    m["model.mixture_loglik.raised"] = total("model.mixture_loglik", "raised") * per_op

    iters = fact_sum("estimation.main", "iters")
    for nm in ("initialize", "prefit", "main", "standard_errors"):
        m[f"estimation.{nm}.s"] = total(f"estimation.{nm}") * per_op
    m["estimation.main.iters"] = iters * per_op
    m["estimation.main.evals_per_iter"] = ratio(fact_sum("estimation.main", "evals"),
                                                iters)
    m["estimation.converged_share"] = ratio(fact_sum("estimation.main", "converged"),
                                            total("estimation.main", "calls"))
    for nm in ("baselines.fit_cc", "baselines.fit_j1", "projection.project",
               "projection.survival_curves", "projection.export_ensemble",
               "projection.load_ensemble", "cli.simulate", "cli.value",
               "cli.hedge", "cli.whatif", "actuarial.value",
               "actuarial.optimal_hedge", "actuarial.whatif_report"):
        m[f"{nm}.s"] = total(nm) * per_op
    ex = "projection.export_ensemble"
    m[f"{ex}.MB_per_s"] = ratio(fact_sum(ex, "bytes") / 1e6, total(ex))
    m["projection.load_ensemble.calls"] = total("projection.load_ensemble", "calls") * per_op
    pj = "projection.project"
    m[f"{pj}.paths_per_s"] = ratio(fact_sum(pj, "paths"), total(pj))

    m["trace.spans"] = len(spans) * per_op
    m["trace.overhead_share"] = ratio(len(spans) * span_cost, wall_s)
    return m
