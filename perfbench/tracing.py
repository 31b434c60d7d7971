"""Outside-in tracing of the ``jflow`` layers.

``Tracer.install()`` replaces, from outside the library, the attributes the
library calls through:

* every public function of each layer module (``torus``, ``split``, ``flow``,
  ``ma``, ``functionals``, ``diagnostics``, ``presets``, ``cohomology``), in
  every ``jflow`` namespace that holds it, plus ``ma._newton_direction`` so
  that Newton directions and line-search trials can be told apart;
* the methods of each backend kernel ``make_state`` builds (through
  ``flow._make_kernel``);
* ``ma.gmres``, with the operator and preconditioner it receives;
* each module's ``sfft`` reference, with a proxy that turns every transform
  into a span and counts the bytes it reads and writes.

Each call becomes a span (name, start, end, parent) in flat in-memory
arrays; results the library returns feed a few counters (steps, Newton
iterations, GMRES ``info``, the dt ``adaptive_dt`` chose).  Self times and
the per-layer metrics are derived from the spans after the run.
"""

import functools
import inspect
import time
from array import array
from collections import defaultdict

import numpy as np
import scipy.fft
from scipy.sparse.linalg import LinearOperator

import jflow
from jflow import cohomology, diagnostics, flow, functionals, ma, presets, split, torus

LAYERS = (torus, split, flow, ma, functionals, diagnostics, presets, cohomology)
FFT_MODULES = (torus, split, flow, ma)
TRANSFORMS = ("rfftn", "irfftn", "fftn", "ifftn")
ROOTS = ("setup", "unit")


def _short(module):
    return module.__name__.rsplit(".", 1)[-1]


class _FFTProxy:
    """Stands in for one module's ``sfft``: transforms are traced, every other
    attribute is scipy.fft's own."""

    def __init__(self, tracer, layer):
        key = f"{layer}.fft_bytes"

        def count_bytes(out, args, kwargs):
            tracer.add(key, args[0].nbytes + out.nbytes)

        for fn in TRANSFORMS:
            setattr(self, fn, tracer.wrap(getattr(scipy.fft, fn), f"{layer}.sfft.{fn}",
                                          count_bytes))

    def __getattr__(self, name):
        return getattr(scipy.fft, name)


class Tracer:
    def __init__(self):
        self.names = []
        self._name_ids = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("q")
        self.end = array("q")
        self._stack = []
        self.phase = None
        self.counters = {p: defaultdict(float) for p in ROOTS}
        self.dts = {p: [] for p in ROOTS}
        self._restore = []

    # -- recording ---------------------------------------------------------

    def _intern(self, name):
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def wrap(self, fn, name, observe=None):
        """``fn`` recording one span per call; ``observe(result, args, kwargs)``
        runs after a call that returned."""
        nid = self._intern(name)
        ids, parents, starts, ends, stack = (self.name_id, self.parent, self.start,
                                             self.end, self._stack)
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(ids)
            ids.append(nid)
            parents.append(stack[-1] if stack else -1)
            ends.append(0)
            stack.append(i)
            starts.append(clock())
            try:
                out = fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                stack.pop()
            if observe is not None:
                observe(out, args, kwargs)
            return out

        return traced

    def add(self, key, value):
        self.counters[self.phase][key] += value

    def root(self, phase, fn, *args):
        """Run ``fn(*args)`` as a root span of ``phase`` ("setup" or "unit")."""
        self.phase = phase
        return self.wrap(fn, phase)(*args)

    # -- installation --------------------------------------------------------

    def _patch(self, namespace, key, value):
        self._restore.append((namespace, key, getattr(namespace, key)))
        setattr(namespace, key, value)

    def install(self):
        namespaces = [jflow] + list(LAYERS)
        for mod in LAYERS:
            layer = _short(mod)
            for name, fn in list(vars(mod).items()):
                if not (inspect.isfunction(fn) and fn.__module__ == mod.__name__):
                    continue
                if name.startswith("_") and name != "_newton_direction":
                    continue
                traced = self.wrap(fn, f"{layer}.{name}", self._observer(name))
                for ns in namespaces:
                    if vars(ns).get(name) is fn:
                        self._patch(ns, name, traced)
        for mod in FFT_MODULES:
            self._patch(mod, "sfft", _FFTProxy(self, _short(mod)))
        self._patch(flow, "_make_kernel", self._kernel_factory(flow._make_kernel))
        self._patch(ma, "gmres", self.wrap(self._gmres(ma.gmres), "ma.gmres"))

    def uninstall(self):
        while self._restore:
            ns, key, value = self._restore.pop()
            setattr(ns, key, value)

    def _observer(self, name):
        if name == "evolve":
            def steps(traj, args, kwargs):
                self.add("flow.steps", traj.steps)
                self.add("flow.rejections", traj.rejections)
            return steps
        if name in ("solve_ma", "solve_ma_split"):
            return lambda sol, args, kwargs: self.add("ma.newton_iters",
                                                      sol.newton_iterations)
        return None

    def _kernel_factory(self, make_kernel):
        def record_dt(dt, args, kwargs):
            self.dts[self.phase].append(dt)

        def make(*args, **kwargs):
            kernel = make_kernel(*args, **kwargs)
            for name, fn in vars(type(kernel)).items():
                if inspect.isfunction(fn) and not name.startswith("_"):
                    observe = record_dt if name == "adaptive_dt" else None
                    setattr(kernel, name, self.wrap(getattr(kernel, name),
                                                    f"flow.kernel.{name}", observe))
            return kernel

        return make

    def _gmres(self, gmres):
        def traced_op(op, name):
            return LinearOperator(op.shape, matvec=self.wrap(op.matvec, name),
                                  dtype=op.dtype)

        def run(A, b, *args, M=None, **kwargs):
            A = traced_op(A, "ma.gmres.matvec")
            if M is not None:
                M = traced_op(M, "ma.gmres.precond")
            x, info = gmres(A, b, *args, M=M, **kwargs)
            if info != 0:
                self.add("ma.gmres_unconverged", 1)
            return x, info

        return run

    # -- output ----------------------------------------------------------------

    def arrays(self):
        return {
            "names": np.array(self.names),
            "name_id": np.frombuffer(self.name_id, dtype=np.int32),
            "parent": np.frombuffer(self.parent, dtype=np.int32),
            "start_ns": np.frombuffer(self.start, dtype=np.int64),
            "end_ns": np.frombuffer(self.end, dtype=np.int64),
        }

    def save(self, path):
        np.savez(path, **self.arrays())


def layer_metrics(tracer, n_units):
    """Per-layer metrics: one traced set-up plus the mean traced unit.

    Times include child spans unless the name ends in ``_self_s``; a layer's
    ``.s`` time counts only its outermost spans, so calls inside the same
    layer are not counted twice.  A layer the workload never enters reads 0,
    ratios included.
    """
    a = tracer.arrays()
    names = [str(n) for n in a["names"]]
    nid, parent = a["name_id"], a["parent"]
    dur = (a["end_ns"] - a["start_ns"]) * 1e-9
    has_parent = parent >= 0
    child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(dur))
    self_t = dur - child

    root = np.where(has_parent, parent, np.arange(len(parent)))
    while True:  # pointer jumping until every span points at its root
        nxt = root[root]
        if np.array_equal(nxt, root):
            break
        root = nxt
    is_unit = np.array([n == "unit" for n in names], dtype=bool)
    weight = np.where(is_unit[nid[root]], 1.0 / max(n_units, 1), 1.0)
    parent_nid = np.where(has_parent, nid[np.maximum(parent, 0)], -1)

    def ids(pred):
        return np.array([i for i, n in enumerate(names) if pred(n)], dtype=np.int32)

    def sel(*exact):
        return np.isin(nid, ids(lambda n: n in exact))

    def count(mask):
        return float(weight[mask].sum())

    def total(mask, t=dur):
        return float((weight * t)[mask].sum())

    def counter(key):
        c = tracer.counters
        return float(c["setup"][key] + c["unit"][key] / max(n_units, 1))

    def ratio(num, den):
        return num / den if den else 0.0

    out = {}
    rhs = sel("flow.kernel.rhs_only", "flow.kernel.metrics")
    steps, rejections = counter("flow.steps"), counter("flow.rejections")
    dts = np.asarray(tracer.dts["unit"])
    out["flow.rhs_evals"] = (count(rhs), "count")
    out["flow.steps"] = (steps, "count")
    out["flow.rejections"] = (rejections, "count")
    out["flow.accept_ratio"] = (ratio(steps, steps + rejections), "ratio")
    out["flow.dt_p50"] = (float(np.median(dts)) if dts.size else 0.0, "flow_time")
    out["flow.dt_min"] = (float(dts.min()) if dts.size else 0.0, "flow_time")
    out["flow.rhs_s"] = (total(rhs), "s")
    out["flow.rhs_self_s"] = (total(rhs, self_t), "s")
    out["flow.us_per_rhs"] = (1e6 * ratio(total(rhs), count(rhs)), "us")
    out["flow.adaptive_dt_s"] = (total(sel("flow.kernel.adaptive_dt")), "s")
    out["flow.row_functionals_s"] = (total(sel("flow.kernel.row_functionals")), "s")
    out["flow.monitor_s"] = (total(sel("flow.max_principle_monitor")), "s")
    out["flow.loop_self_s"] = (total(sel("flow.evolve"), self_t), "s")

    newton = counter("ma.newton_iters")
    # A-field evaluations solve_ma makes itself; its first one is not a trial
    in_solve = np.isin(parent_nid, ids(lambda n: n == "ma.solve_ma"))
    trials = count(sel("ma.sfft.rfftn") & in_solve) - count(sel("ma.solve_ma"))
    out["ma.newton_iters"] = (newton, "count")
    out["ma.gmres_calls"] = (count(sel("ma.gmres")), "count")
    out["ma.matvecs"] = (count(sel("ma.gmres.matvec")), "count")
    out["ma.precond_applies"] = (count(sel("ma.gmres.precond")), "count")
    out["ma.gmres_unconverged"] = (counter("ma.gmres_unconverged"), "count")
    out["ma.matvec_s"] = (total(sel("ma.gmres.matvec")), "s")
    out["ma.precond_s"] = (total(sel("ma.gmres.precond")), "s")
    out["ma.gmres_self_s"] = (total(sel("ma.gmres"), self_t), "s")
    out["ma.line_search_trials"] = (trials, "count")
    out["ma.accept_ratio"] = (ratio(newton, trials), "ratio")

    for layer in ("flow", "ma", "torus", "split"):
        fft = np.isin(nid, ids(lambda n: n.startswith(f"{layer}.sfft.")))
        out[f"{layer}.fft_calls"] = (count(fft), "count")
        out[f"{layer}.fft_s"] = (total(fft), "s")
    out["flow.fft_bytes"] = (counter("flow.fft_bytes"), "B")
    out["ma.fft_bytes"] = (counter("ma.fft_bytes"), "B")
    hess = sel("torus.complex_hessian")
    out["torus.complex_hessian_calls"] = (count(hess), "count")
    out["torus.complex_hessian_s"] = (total(hess), "s")

    # the trailing "" is the layer of parent id -1 (a root span has no parent)
    layer_of = np.array([n.split(".", 1)[0] for n in names] + [""], dtype=object)
    span_layer, parent_layer = layer_of[nid], layer_of[parent_nid]
    for layer in ("functionals", "diagnostics", "presets", "cohomology"):
        outer = (span_layer == layer) & (parent_layer != layer)
        out[f"{layer}.s"] = (total(outer), "s")
    return out
