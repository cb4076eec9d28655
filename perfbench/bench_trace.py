"""Outside-in tracer for the traced benchmark run.

The tracer replaces selected public functions of the epsensor package by
timing wrappers, from outside the package: every epsensor module that binds
one of them (for example `gaussian`, `metrology` and `scenarios` each hold
their own `from .spectral import eigensolve`) gets the wrapper, so calls
across modules are all seen. `uninstall` puts the original objects back,
so the untraced run executes the program exactly as shipped.

A span records (name, start, end, parent span, operation id) on
`time.perf_counter`, the cheapest clock to read (the process CPU clock
costs about five times as much per call and tripled the tracing overhead
on `spectra`). Spans stay in memory and are written out when the run ends;
a function's self time is its span duration minus the durations of its
direct child spans and minus the time the observers of those children took
(observers count call statistics; they run after a child's span has closed
but while its caller's span is still open).
"""

import functools
import json
import sys
import time
from collections import defaultdict

WRAPPED = {
    "model": ("build_system",),
    "spectral": ("char_poly", "aberth_roots", "collapse_multiple_roots",
                 "cardano_eigenvalues", "eigensolve", "puiseux_fit",
                 "cubic_discriminant", "match_branches"),
    "gaussian": ("propagator", "evolve", "evolve_lossy", "evolve_lossy_trace",
                 "drift_and_diffusion"),
    "metrology": ("susceptibility", "noise_variance", "qfi_parts",
                  "peak_total_excitation", "sensitivity", "scaling_fit",
                  "qfi_chi_scaling"),
    "scenarios": ("parse_scenario", "run_scenario", "render_csv", "atomic_write"),
}

SPAN_FIELDS = ("name", "start", "end", "parent", "op", "observer_s")


def traced_names():
    return [f"{module}.{fn}" for module, fns in WRAPPED.items() for fn in fns]


class Tracer:
    """Collects spans; `observers[name](args, kwargs, result)` runs after
    each successful call of the wrapped function `name`, and its time is
    charged to the caller's span as observer_s."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans = []          # [name, start, end, parent index or -1, op, observer_s]
        self.op = -1
        self.observers = {}
        self._stack = []
        self._saved = []

    def wrap(self, name, fn):
        spans, stack, clock = self.spans, self._stack, self.clock

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [name, clock(), 0.0, stack[-1] if stack else -1, self.op, 0.0]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            observer = self.observers.get(name)
            if observer is not None:
                start = clock()
                observer(args, kwargs, result)
                if stack:
                    spans[stack[-1]][5] += clock() - start
            return result

        return wrapper

    def install(self):
        """Wrap each function in WRAPPED in every loaded epsensor module
        that binds it."""
        if self._saved:
            raise RuntimeError("tracer already installed")
        targets = {}
        for module, names in WRAPPED.items():
            mod = sys.modules[f"epsensor.{module}"]
            for fn_name in names:
                fn = getattr(mod, fn_name)
                targets[id(fn)] = (fn, self.wrap(f"{module}.{fn_name}", fn))
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "epsensor" or mod_name.startswith("epsensor.")):
                continue
            for attr, value in list(vars(mod).items()):
                hit = targets.get(id(value))
                if hit is not None and hit[0] is value:
                    self._saved.append((mod, attr, value))
                    setattr(mod, attr, hit[1])

    def uninstall(self):
        for mod, attr, value in reversed(self._saved):
            setattr(mod, attr, value)
        self._saved = []

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(dict(zip(SPAN_FIELDS, span))) + "\n")


def self_times(spans):
    """{name: (calls, self seconds)}: each span's duration minus the
    durations of its direct children and the time of their observers."""
    child = [0.0] * len(spans)
    for name, start, end, parent, _, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    out = defaultdict(lambda: [0, 0.0])
    for i, (name, start, end, _, _, observer_s) in enumerate(spans):
        entry = out[name]
        entry[0] += 1
        entry[1] += (end - start) - child[i] - observer_s
    return {name: (calls, s) for name, (calls, s) in out.items()}
