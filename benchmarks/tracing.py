"""Spans around the package's layer functions, installed only for a traced run.

Each wrapped function is patched under every name a ``demonscatter`` module
bound it to (``optimize.solve_local``, ``cli.sweep_demon``,
``local_solver.splu``, ...), so a call is recorded whichever module makes
it.  A name that no longer exists in its home module is reported as absent
and skipped, so the benchmark keeps running after the function is replaced.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
import tracemalloc
import weakref

#: (layer, home module, attribute) of every traced function.  A dotted
#: attribute is a classmethod on a class of that module.
TRACED = (
    ("local_solver", "demonscatter.local_solver", "build_two_level_model"),
    ("local_solver", "demonscatter.local_solver", "solve_local"),
    ("local_solver", "demonscatter.local_solver", "_assemble"),
    ("local_solver", "demonscatter.local_solver", "splu"),
    ("units", "demonscatter.units", "rabi_eval"),
    ("channels", "demonscatter.channels", "unitarity_defect"),
    ("channels", "demonscatter.channels", "extract_channel"),
    ("kernels", "demonscatter.kernels", "build_kernel"),
    ("nonlocal_solver", "demonscatter.nonlocal_solver", "solve_nonlocal"),
    ("nonlocal_solver", "demonscatter.nonlocal_solver", "lu_factor"),
    ("nonlocal_solver", "demonscatter.nonlocal_solver", "lu_solve"),
    ("symmetry", "demonscatter.symmetry", "classify"),
    ("symmetry", "demonscatter.symmetry", "verify_predictions"),
    ("demon", "demonscatter.demon", "sweep_demon"),
    ("demon", "demonscatter.demon", "DemonReport.from_amplitudes"),
    ("optimize", "demonscatter.optimize", "optimize"),
    ("optimize", "demonscatter.optimize", "refine_paper_point"),
    ("optimize", "demonscatter.optimize", "cost"),
    ("serialize", "demonscatter.serialize", "write_sweep_csv"),
    ("cli", "demonscatter.cli", "main"),
)

#: Traced functions whose peak allocation (tracemalloc) is also recorded.
PEAK_MEMORY = ("kernels.build_kernel", "nonlocal_solver.solve_nonlocal")

MB = float(1 << 20)


def span_name(layer: str, attr: str) -> str:
    return f"{layer}.{attr}"


class Tracer:
    """In-memory spans plus the counters measured at the same boundaries."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.op = ""
        self.spans = []           # [name, start, end, parent, run, op]
        self._stack = []
        self._patches = []        # (owner, attribute, original)
        self.absent = []
        self.peak_bytes = {name: 0 for name in PEAK_MEMORY}
        self.models_seen = 0
        self._last_model = None

    # ------------------------------------------------------------ install

    def install(self):
        for layer, home, attr in TRACED:
            name = span_name(layer, attr)
            try:
                module = importlib.import_module(home)
            except ImportError:
                module = None
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name, None)
                original = vars(cls).get(meth) if cls is not None else None
                if not isinstance(original, classmethod):
                    self.absent.append(name)
                    continue
                self._patch(cls, meth, original,
                            classmethod(self._wrap(name, original.__func__)))
                continue
            original = getattr(module, attr, None)
            if original is None or not callable(original):
                self.absent.append(name)
                continue
            wrapper = self._wrap(name, original)
            for mod_name, mod in list(sys.modules.items()):
                if mod is None or not (mod_name == "demonscatter"
                                       or mod_name.startswith("demonscatter.")):
                    continue
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, key, value, wrapper)

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def _patch(self, owner, attr, original, replacement):
        self._patches.append((owner, attr, original))
        setattr(owner, attr, replacement)

    def _wrap(self, name, fn):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter
        measure_peak = name in self.peak_bytes
        count_models = name == "local_solver.solve_local"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if count_models:
                self._note_model(args[0] if args else kwargs.get("model"))
            own_trace = measure_peak and not tracemalloc.is_tracing()
            if own_trace:
                tracemalloc.start()
            span = [name, clock(), None, stack[-1] if stack else -1,
                    self.run_id, self.op]
            stack.append(len(spans))
            spans.append(span)
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
                if own_trace:
                    peak = tracemalloc.get_traced_memory()[1]
                    tracemalloc.stop()
                    self.peak_bytes[name] = max(self.peak_bytes[name], peak)

        return wrapper

    def _note_model(self, model):
        """Count a model each time solve_local is handed a different one."""
        last = self._last_model() if self._last_model is not None else None
        if last is not model:
            self.models_seen += 1
            try:
                self._last_model = weakref.ref(model)
            except TypeError:
                self._last_model = None

    # ------------------------------------------------------------ results

    def per_function(self):
        """{name: (calls, self seconds)}; self time excludes traced children."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _run, _op in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out = {span_name(layer, attr): [0, 0.0] for layer, _h, attr in TRACED}
        for i, (name, start, end, _p, _r, _o) in enumerate(self.spans):
            entry = out[name]
            entry[0] += 1
            entry[1] += (end - start) - child_time[i]
        return out

    def write(self, path):
        """Write the spans as JSON lines: name, start, end, parent, run, op."""
        keys = ("name", "start", "end", "parent", "run", "op")
        with open(path, "w") as fh:
            for i, span in enumerate(self.spans):
                doc = dict(zip(keys, span))
                doc["id"] = i
                fh.write(json.dumps(doc))
                fh.write("\n")
