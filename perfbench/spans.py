"""Outside-in span recording for the parityqec layers.

The recorder never edits the package. It replaces each public function of the
layer modules at every module attribute that refers to it, so a call made
through the name the caller looks up (``cli.mle``, ``tomo.setting_projector``,
``measure.setting_projector``, ``codec.noisy_cnot``, ...) passes through a
span. ``DensityMatrix.__post_init__`` is replaced on the class, which is where
the generated ``__init__`` looks it up. Spans are kept in flat arrays in
memory and saved once, when the run ends.

A span carries its name, start, end, parent span and request id. A layer's
self time is its span's duration minus the time its direct child spans cover;
spans nest strictly because the program is single-threaded.
"""

from __future__ import annotations

import functools
import inspect
import statistics
from array import array
from time import perf_counter

import numpy as np

# The package modules that are layers. teleport is left out on purpose: no
# workload runs it (see README.md).
LAYER_MODULES = ("optics", "qcore", "cnotgate", "codec", "measure", "tomo", "cli")

# The harness opens the request span around cli.main itself.
NOT_WRAPPED = {"cli.main"}

VALIDATION_SPAN = "qcore.DensityMatrix.__post_init__"
REQUEST_SPAN = "cli.request"


class Tracer:
    """Span store plus the work counters read from layer results."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.request = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack: list[int] = []
        self.request_id = -1
        # per call: (request id, iterations, converged, reached the cap)
        self.mle_calls: list[tuple[int, int, bool, bool]] = []
        # per call: (request id, objective evaluations)
        self.calibrations: list[tuple[int, int]] = []

    def intern(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def open(self, nid: int) -> int:
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.request.append(self.request_id)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(perf_counter())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = perf_counter()
        self._stack.pop()

    def begin_request(self, request_id: int) -> None:
        self.request_id = request_id
        self._root = self.open(self.intern(REQUEST_SPAN))

    def end_request(self) -> None:
        self.close(self._root)
        self.request_id = -1

    def save(self, path) -> None:
        np.savez(
            path,
            names=np.array(self.names),
            name_id=np.frombuffer(self.name_id, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            request=np.frombuffer(self.request, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
        )


def _wrap(tracer: Tracer, fn, name: str, hook=None):
    nid = tracer.intern(name)

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        idx = tracer.open(nid)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(idx)
        if hook is not None:
            hook(args, kwargs, result)
        return result

    return traced


class Instrumentation:
    """The attribute replacements, applied around traced requests only.

    Untraced requests run the package exactly as imported, so the paired
    untraced/traced timings give the tracing overhead.
    """

    def __init__(self, tracer: Tracer, package):
        modules = {short: getattr(package, short) for short in LAYER_MODULES}
        tomo = modules["tomo"]

        def record_mle(args, kwargs, result):
            default_cap = getattr(tomo, "DEFAULT_MAX_ITER", None)
            cap = kwargs.get("max_iter", args[2] if len(args) > 2 else default_cap)
            reached = cap is not None and result.iterations >= cap
            tracer.mle_calls.append((tracer.request_id, int(result.iterations), bool(result.converged), reached))

        def record_calibration(args, kwargs, result):
            tracer.calibrations.append((tracer.request_id, int(result.evaluations)))

        hooks = {"tomo.mle": record_mle, "cli.calibrate_noise": record_calibration}
        wrappers: dict[int, object] = {}
        for short, module in modules.items():
            for attr, value in vars(module).items():
                name = f"{short}.{attr}"
                if attr.startswith("_") or name in NOT_WRAPPED:
                    continue
                if inspect.isfunction(value) and value.__module__ == module.__name__:
                    wrappers[id(value)] = _wrap(tracer, value, name, hooks.get(name))
        self._patches = []
        for module in (package, *modules.values()):
            for attr, value in vars(module).items():
                wrapper = wrappers.get(id(value))
                if wrapper is not None and wrapper.__wrapped__ is value:
                    self._patches.append((module, attr, value, wrapper))
        dm = modules["qcore"].DensityMatrix
        original = dm.__dict__["__post_init__"]
        self._patches.append((dm, "__post_init__", original, _wrap(tracer, original, VALIDATION_SPAN)))

    def install(self) -> None:
        for owner, attr, _, wrapper in self._patches:
            setattr(owner, attr, wrapper)

    def remove(self) -> None:
        for owner, attr, original, _ in self._patches:
            setattr(owner, attr, original)


def _times(tracer: Tracer, requests: set[int]) -> dict[str, tuple[int, float, float]]:
    """Per span name over the given requests: (calls, busy seconds, self seconds)."""
    name_id = np.frombuffer(tracer.name_id, dtype=np.int32)
    parent = np.frombuffer(tracer.parent, dtype=np.int32)
    request = np.frombuffer(tracer.request, dtype=np.int32)
    duration = np.frombuffer(tracer.end, dtype=np.float64) - np.frombuffer(tracer.start, dtype=np.float64)
    has_parent = parent >= 0
    covered = np.bincount(parent[has_parent], weights=duration[has_parent], minlength=len(duration))
    own = duration - covered
    keep = np.isin(request, np.fromiter(requests, dtype=np.int32))
    out = {}
    for nid, name in enumerate(tracer.names):
        sel = keep & (name_id == nid)
        out[name] = (int(sel.sum()), float(duration[sel].sum()), float(own[sel].sum()))
    return out


def layer_metrics(tracer: Tracer, requests: list[int], overhead_share: float, reports: dict) -> dict:
    """The per-layer metrics, as means per traced request where they add up.

    reports holds the output-tree totals over the same requests:
    {"files": n, "bytes": n}.
    """
    count = len(requests)
    wanted = set(requests)
    times = _times(tracer, wanted)

    def calls(name):
        return times.get(name, (0, 0.0, 0.0))[0] / count

    def busy(name):
        return times.get(name, (0, 0.0, 0.0))[1] / count

    def own(name):
        return times.get(name, (0, 0.0, 0.0))[2] / count

    mle = [c for c in tracer.mle_calls if c[0] in wanted]
    iterations = [c[1] for c in mle]
    total_iterations = sum(iterations)
    evaluations = sum(e for r, e in tracer.calibrations if r in wanted)

    m = {
        "tomo.mle.calls": (calls("tomo.mle"), "count/request"),
        "tomo.mle.self_s": (own("tomo.mle"), "s/request"),
        "tomo.mle.iterations": (total_iterations / count, "count/request"),
        "tomo.mle.iterations_p50": (float(statistics.median(iterations)) if mle else 0.0, "count"),
        "tomo.mle.iterations_max": (float(max(iterations)) if mle else 0.0, "count"),
        "tomo.mle.cap_hits": (sum(c[3] for c in mle) / count, "count/request"),
        "tomo.mle.converged_share": (sum(c[2] for c in mle) / len(mle) if mle else 0.0, "ratio"),
        "tomo.mle.us_per_iteration": (
            1e6 * own("tomo.mle") * count / total_iterations if total_iterations else 0.0,
            "us",
        ),
    }
    fields = {"calls": (calls, "count/request"), "busy_s": (busy, "s/request"), "self_s": (own, "s/request")}
    for name, kinds in (
        ("tomo.linear_inversion", ("calls", "busy_s", "self_s")),
        ("measure.setting_projector", ("calls", "busy_s")),
        ("optics.analyzer_projector", ("calls", "busy_s")),
        ("measure.expected_counts", ("calls", "busy_s", "self_s")),
        ("measure.simulate_counts", ("calls", "busy_s", "self_s")),
        ("codec.encode", ("calls", "busy_s", "self_s")),
        ("codec.decode", ("calls", "busy_s")),
        ("cnotgate.noisy_cnot", ("calls", "busy_s")),
        ("qcore.fidelity", ("calls", "busy_s")),
        ("cli.exact_pipeline_means", ("calls", "busy_s", "self_s")),
    ):
        for field in kinds:
            measure, unit = fields[field]
            m[f"{name}.{field}"] = (measure(name), unit)
    m["qcore.DensityMatrix.validations"] = (calls(VALIDATION_SPAN), "count/request")
    m["qcore.DensityMatrix.validate_s"] = (busy(VALIDATION_SPAN), "s/request")
    m["cli.calibrate_noise.evaluations"] = (evaluations / count, "count/request")
    # the search's own time: calibrate_noise minus its objective evaluations
    m["cli.calibrate_noise.search_self_s"] = (own("cli.calibrate_noise"), "s/request")
    m["qcore.save_density_matrix.busy_s"] = (busy("qcore.save_density_matrix"), "s/request")
    m["measure.write_count_records.busy_s"] = (busy("measure.write_count_records"), "s/request")
    m["cli.report.files"] = (reports["files"] / count, "count/request")
    m["cli.report.bytes_written"] = (reports["bytes"] / count, "B/request")
    m["cli.request.busy_s"] = (busy(REQUEST_SPAN), "s/request")
    m["trace.overhead_share"] = (overhead_share, "ratio")
    return {name: {"value": value, "unit": unit} for name, (value, unit) in m.items()}


def work_counters(tracer: Tracer, request: int) -> dict:
    """The deterministic work counters of one traced request."""
    mle = [c for c in tracer.mle_calls if c[0] == request]
    return {
        "tomo.mle.iterations": [c[1] for c in mle],
        "tomo.mle.cap_hits": sum(c[3] for c in mle),
        "cli.calibrate_noise.evaluations": [e for r, e in tracer.calibrations if r == request],
    }
