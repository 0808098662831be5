"""Per-layer tracing installed from outside tlmkit.

Wrappers replace each traced function in the module that defines it and
in every tlmkit module that imported it by name, so calls are seen
whichever binding the caller looks up.  Most wrappers record one span
per call (name, op id, parent, start, end); spans stay in memory and are
written when the run ends.  ``numpy.fft.fftn``/``ifftn`` and
``GridFunction.__post_init__`` fire hundreds of thousands of times per
``verify`` pass, so they keep a call counter and summed time instead.
Time spent in those counted calls is charged to the enclosing span as
child time, so a span's self time excludes it.  Time the speed probe
(probe.py) runs inside a span is taken out of the span altogether.
"""

from __future__ import annotations

import contextlib
import functools
import json
import os
import sys
import time
from array import array
from collections import Counter, defaultdict

import numpy as np

TLMKIT_MODULES = ("tlmkit", "tlmkit.cli", "tlmkit.grid", "tlmkit.interp",
                  "tlmkit.lpaley", "tlmkit.maximal", "tlmkit.morrey",
                  "tlmkit.report", "tlmkit.scalars", "tlmkit.spaces",
                  "tlmkit.suites")

SUITES = ("run_partition_suite", "run_morrey_suite", "run_scalar_exact_suite",
          "run_scalar_empirical_suite", "run_holder_suite", "run_interp_suite",
          "run_maximal_suite", "run_diamond_suite")

# (defining module, function) traced with one span per call
SPAN_FUNCTIONS = (
    [("suites", name) for name in SUITES]
    + [("interp", name) for name in (
        "family_F", "segment_integral", "build_analytic_family",
        "boundary_lipschitz_check", "global_growth_check", "sum_space_proxy",
        "holomorphy_residual")]
    + [("scalars", "psi_kappa"), ("scalars", "phi_kappa")]
    + [("spaces", name) for name in (
        "tlm_norm", "diamond_criterion", "truncated_square_function",
        "square_function")]
    + [("lpaley", name) for name in ("project_all", "build_family", "reconstruct")]
    + [("morrey", "window_sum")]
    + [("maximal", name) for name in (
        "hl_maximal", "vector_maximal_check", "projection_stability_check",
        "multiplier_maximal_ratio")]
    + [("grid", name) for name in (
        "read_csv", "write_csv", "read_binary", "write_binary",
        "random_bandlimited")]
    + [("report", "write_json"), ("cli", "main")]
)

WINDOW_KINDS = [(shape, dim) for shape in ("cube", "ball") for dim in (1, 2, 3)]


def _window_sum_name(args, kwargs) -> str:
    spec = args[0] if args else kwargs["spec"]
    shape = args[2] if len(args) > 2 else kwargs["window_shape"]
    return f"morrey.window_sum.{shape}.{spec.dim}d"


def _path_arg(position: int):
    def get(args, kwargs):
        return args[position] if len(args) > position else kwargs["path"]
    return get


def span_metric_names() -> list:
    """Span names whose calls, inclusive and self time are reported."""
    names = []
    for module, func in SPAN_FUNCTIONS:
        if (module, func) == ("morrey", "window_sum"):
            names += [f"morrey.window_sum.{s}.{d}d" for s, d in WINDOW_KINDS]
        else:
            names.append(f"{module}.{func}")
    names.append("report.BaselineStore.bundled")
    return names


class Tracer:
    """Spans and counters for one run; ``install`` patches, ``uninstall`` restores."""

    def __init__(self) -> None:
        self.names = []          # span name table
        self._name_ids = {}
        # one row per span, stored by column: flat arrays keep hundreds of
        # thousands of spans out of the garbage collector's way
        self.col_name, self.col_op, self.col_parent = array("i"), array("i"), array("i")
        self.col_start, self.col_end = array("d"), array("d")
        self.col_net, self.col_self = array("d"), array("d")  # inclusive and self seconds
        self._stack = []         # [span index, child seconds, excluded seconds at open]
        self._excluded = 0.0     # seconds the benchmark spent on itself (speed probe)
        self.op = -1             # id of the operation being run, -1 in set-up
        self.active = False
        self.counters = {"fft": [0, 0.0], "grid.GridFunction.init": [0, 0.0]}
        self.counter_s_by_op = {key: Counter() for key in self.counters}
        self.fft_sizes = Counter()
        self.totals = Counter()  # bytes read/written, useful quadrature evaluations
        self.fired = set()       # "module:binding" of every wrapper that ran
        self._patches = []       # (owner, attribute, original)

    # ---------------------------------------------------------------- recording

    def _name_id(self, name: str) -> int:
        idx = self._name_ids.get(name)
        if idx is None:
            idx = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return idx

    def _open(self, name: str) -> None:
        idx = len(self.col_name)
        self.col_name.append(self._name_id(name))
        self.col_op.append(self.op)
        self.col_parent.append(self._stack[-1][0] if self._stack else -1)
        self.col_end.append(-1.0)
        self.col_net.append(0.0)
        self.col_self.append(0.0)
        # Read the clock before the probe total and after it on closing, so
        # a probe run between the two reads is never taken out of a span
        # that does not hold it.
        self.col_start.append(time.perf_counter())
        self._stack.append([idx, 0.0, self._excluded])

    def _close(self) -> None:
        excluded_now = self._excluded
        end = time.perf_counter()
        idx, child, excluded = self._stack.pop()
        net = end - self.col_start[idx] - (excluded_now - excluded)
        self.col_end[idx] = end
        self.col_net[idx] = net
        self.col_self[idx] = net - child
        if self._stack:
            self._stack[-1][1] += net

    def exclude(self, seconds: float) -> None:
        """Take time the benchmark spends on itself out of the open spans."""
        self._excluded += seconds

    def _span_wrapper(self, orig, binding: str, name, after=None):
        tracer = self

        @functools.wraps(orig)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return orig(*args, **kwargs)
            tracer.fired.add(binding)
            tracer._open(name(args, kwargs) if callable(name) else name)
            try:
                result = orig(*args, **kwargs)
            finally:
                tracer._close()
            if after is not None:
                after(args, kwargs)
            return result
        return wrapper

    def _counter_wrapper(self, orig, binding: str, key: str, on_call=None):
        tracer = self
        counter = self.counters[key]
        by_op = self.counter_s_by_op[key]

        @functools.wraps(orig)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return orig(*args, **kwargs)
            tracer.fired.add(binding)
            if on_call is not None:
                on_call(args)
            t0 = time.perf_counter()
            excluded = tracer._excluded
            try:
                return orig(*args, **kwargs)
            finally:
                excluded_now = tracer._excluded
                dt = time.perf_counter() - t0 - (excluded_now - excluded)
                counter[0] += 1
                counter[1] += dt
                by_op[tracer.op] += dt
                if tracer._stack:
                    tracer._stack[-1][1] += dt
        return wrapper

    # ------------------------------------------------------------- installation

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self) -> None:
        """Patch every binding of every traced function; start recording."""
        modules = {name: sys.modules[name] for name in TLMKIT_MODULES}
        for module_name, func_name in SPAN_FUNCTIONS:
            orig = getattr(modules[f"tlmkit.{module_name}"], func_name)
            after = None
            name = f"{module_name}.{func_name}"
            if func_name == "window_sum":
                name = _window_sum_name
            elif func_name == "segment_integral":
                after = self._count_useful_evaluations
            elif func_name in ("read_csv", "read_binary"):
                after = self._count_bytes("grid.bytes_read", _path_arg(0))
            elif func_name in ("write_csv", "write_binary"):
                after = self._count_bytes("grid.bytes_written", _path_arg(1))
            for mod_name, module in modules.items():
                for attr, value in list(vars(module).items()):
                    if value is orig:
                        binding = f"{mod_name.rpartition('.')[2] or mod_name}:{attr}"
                        self._patch(module, attr,
                                    self._span_wrapper(orig, binding, name, after))

        store = modules["tlmkit.report"].BaselineStore
        bundled = store.__dict__["bundled"].__func__
        self._patch(store, "bundled", classmethod(self._span_wrapper(
            bundled, "report:BaselineStore.bundled", "report.BaselineStore.bundled")))

        grid_function = modules["tlmkit.grid"].GridFunction
        self._patch(grid_function, "__post_init__", self._counter_wrapper(
            grid_function.__post_init__, "grid:GridFunction.__post_init__",
            "grid.GridFunction.init"))

        def fft_size(args):
            self.fft_sizes[str(tuple(getattr(args[0], "shape", ())))] += 1

        for attr in ("fftn", "ifftn"):
            self._patch(np.fft, attr, self._counter_wrapper(
                getattr(np.fft, attr), f"numpy.fft:{attr}", "fft", fft_size))
        self.active = True

    def uninstall(self) -> None:
        self.active = False
        for owner, attr, orig in reversed(self._patches):
            setattr(owner, attr, orig)
        self._patches.clear()

    @contextlib.contextmanager
    def pause(self):
        """Calls inside run untraced (the benchmark's own checks)."""
        was, self.active = self.active, False
        try:
            yield
        finally:
            self.active = was

    # --------------------------------------------------------------- call hooks

    def _count_useful_evaluations(self, args, kwargs) -> None:
        """family_F evaluations that enter segment_integral's returned value."""
        z_from = complex(args[1] if len(args) > 1 else kwargs["z_from"])
        z_to = complex(args[2] if len(args) > 2 else kwargs["z_to"])
        n_nodes = args[3] if len(args) > 3 else kwargs.get("n_nodes", 32)
        check = args[4] if len(args) > 4 else kwargs.get("check", True)
        if z_to == z_from:
            return
        n_chunks = max(1, int(np.ceil(abs(z_to - z_from))))
        self.totals["interp.quad_useful"] += n_chunks * (2 * n_nodes if check else n_nodes)

    def _count_bytes(self, key: str, get_path):
        def after(args, kwargs):
            self.totals[key] += os.path.getsize(get_path(args, kwargs))
        return after

    # ------------------------------------------------------------------ results

    def _calls_under(self, child: str, ancestor: str) -> int:
        """Number of ``child`` spans that have an ``ancestor`` span above them."""
        child_id = self._name_ids.get(child)
        ancestor_id = self._name_ids.get(ancestor)
        if child_id is None or ancestor_id is None:
            return 0
        names, parents = self.col_name, self.col_parent
        count = 0
        for idx, name_id in enumerate(names):
            if name_id != child_id:
                continue
            parent = parents[idx]
            while parent >= 0:
                if names[parent] == ancestor_id:
                    count += 1
                    break
                parent = parents[parent]
        return count

    def layer_metrics(self, ball_cache_info) -> dict:
        """The per-layer metrics, name -> (value, unit)."""
        calls = Counter()
        inclusive = Counter()
        self_time = Counter()
        for name_id, net, self_s in zip(self.col_name, self.col_net, self.col_self):
            name = self.names[name_id]
            calls[name] += 1
            inclusive[name] += net
            self_time[name] += self_s

        out = {}
        for name in span_metric_names():
            if name.startswith("suites."):
                out[f"{name}.s"] = (float(inclusive[name]), "s")
                continue
            out[f"{name}.calls"] = (calls[name], "count")
            out[f"{name}.s"] = (float(inclusive[name]), "s")
            out[f"{name}.self_s"] = (float(self_time[name]), "s")
        n_init, t_init = self.counters["grid.GridFunction.init"]
        out["grid.GridFunction.init.calls"] = (n_init, "count")
        out["grid.GridFunction.init.s"] = (t_init, "s")
        out["grid.GridFunction.init.self_s"] = (t_init, "s")  # a leaf: no children
        out["fft.calls"] = (self.counters["fft"][0], "count")
        out["fft.s"] = (self.counters["fft"][1], "s")
        out["grid.bytes_read"] = (self.totals["grid.bytes_read"], "bytes")
        out["grid.bytes_written"] = (self.totals["grid.bytes_written"], "bytes")

        quad_evals = self._calls_under("interp.family_F", "interp.segment_integral")
        out["interp.quad_useful_ratio"] = (
            self.totals["interp.quad_useful"] / quad_evals if quad_evals else 0.0, "ratio")
        n_diamond = calls["spaces.diamond_criterion"]
        projections = self._calls_under("lpaley.project_all", "spaces.diamond_criterion")
        out["spaces.diamond_criterion.projections_per_call"] = (
            projections / n_diamond if n_diamond else 0.0, "count/call")
        lookups = ball_cache_info.hits + ball_cache_info.misses
        out["morrey.ball_stencil.hit_ratio"] = (
            ball_cache_info.hits / lookups if lookups else 0.0, "ratio")
        return out

    def class_shares(self, op_class: dict, op_seconds: dict) -> dict:
        """Per op class: share of its timed seconds in each traced function
        (inclusive) and in each layer (self time; fft and GridFunction.init
        are layers of their own), over the timed operations only."""
        total = Counter()
        for op, cls in op_class.items():
            total[cls] += op_seconds[op]
        inclusive = defaultdict(Counter)
        layer = defaultdict(Counter)
        for name_id, op, net, self_s in zip(self.col_name, self.col_op,
                                            self.col_net, self.col_self):
            if op not in op_class:
                continue
            name = self.names[name_id]
            inclusive[op_class[op]][name] += net
            layer[op_class[op]][name.split(".")[0]] += self_s
        for key, by_op in self.counter_s_by_op.items():
            for op, seconds in by_op.items():
                if op in op_class:
                    layer[op_class[op]][key] += seconds
        out = {}
        for cls, seconds in total.items():
            untraced = seconds - sum(layer[cls].values())
            out[cls] = {
                "seconds": seconds,
                "inclusive": {k: v / seconds for k, v in inclusive[cls].most_common()},
                "self_by_layer": {**{k: v / seconds for k, v in layer[cls].most_common()},
                                  "(untraced)": untraced / seconds},
            }
        return out

    def write_spans(self, path) -> None:
        """All spans as JSON: a name table and rows [name, op, parent, start, end]."""
        rows = [[n, op, parent, round(start, 9), round(end, 9)]
                for n, op, parent, start, end in zip(self.col_name, self.col_op,
                                                     self.col_parent, self.col_start,
                                                     self.col_end)]
        with open(path, "w") as fh:
            json.dump({"names": self.names,
                       "columns": ["name", "op", "parent", "start", "end"],
                       "spans": rows}, fh, separators=(",", ":"))
