"""Timers and spans around dilocsim's public functions, installed from outside.

The benchmark never edits the program. It replaces module attributes with
wrappers for the length of a run, so calls the program makes internally
(``cli.run_experiment`` calling ``deployment.triangulate_all``, say) pass
through the wrappers too. A function imported by name into a second module
is patched in both places.

Untraced runs wrap only the set-up and iteration calls named below, with
plain timers: a few calls per run, so their cost does not show. Traced runs
wrap every entry of ``WRAPPED`` and record one span per call.
"""

from __future__ import annotations

import itertools
import resource
import threading
import time
from dataclasses import dataclass

# kind: "setup" calls make up setup_s and "iter" calls sensor_steps_per_s;
# "capture" calls are wrapped in every run so that their results can be
# checked; "span" calls are wrapped in traced runs only.
WRAPPED = (
    # (layer, function, modules holding a reference to it, kind)
    ("geometry", "batch_strict_inclusion", ("geometry", "deployment"), "span"),
    ("geometry", "barycentric_coordinates", ("geometry", "deployment"), "span"),
    ("deployment", "generate_poisson_field", ("deployment",), "setup"),
    ("deployment", "load_field", ("deployment",), "setup"),
    ("deployment", "triangulate_all", ("deployment",), "setup"),
    ("deployment", "triangulate_sensor", ("deployment",), "span"),
    ("deployment", "save_field", ("deployment",), "span"),
    ("system", "build_system_matrices", ("system",), "setup"),
    ("system", "spectral_radius", ("system",), "setup"),
    ("system", "exact_locations_oracle", ("system", "random_env"), "span"),
    ("engine", "run_to_convergence", ("engine",), "iter"),
    ("random_env", "random_link_bias", ("random_env",), "setup"),
    ("random_env", "NoiseModel", ("random_env",), "setup"),
    ("random_env", "run_dlre", ("random_env",), "iter"),
    ("random_env", "sample_environment", ("random_env",), "span"),
    ("random_env", "dlre_limit", ("random_env",), "capture"),
    ("cli", "run_experiment", ("cli",), "span"),
    ("cli", "run_replicas", ("cli",), "span"),
    ("cli", "emit_trace", ("cli",), "span"),
    ("cli", "emit_summary", ("cli",), "span"),
    ("cli", "emit_plot_data", ("cli",), "span"),
)


@dataclass
class Span:
    id: int
    parent: int | None
    name: str  # "<layer>.<function>"
    thread: int
    op: str | None  # the benchmark operation that was running
    t0: float
    t1: float
    info: dict | None  # sizes read from arguments and results; None if it raised

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def seconds(self) -> float:
        return self.t1 - self.t0


def peak_rss_mb() -> float:
    """Peak resident memory of this process (ru_maxrss is in KiB on Linux)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _info(name: str, args, kwargs, result) -> dict:
    """Work counts of one call, read from its arguments and its result."""
    if name == "batch_strict_inclusion":
        return {"subsets": len(args[2])}
    if name == "triangulate_sensor":
        # triangulate_all passes the start radius and growth factor explicitly
        return {"radius": result.radius, "r0": kwargs["r0"], "growth": kwargs["growth"]}
    if name in ("run_to_convergence", "run_dlre"):
        model = args[3] if len(args) > 3 else kwargs.get("model")
        biased = name == "run_dlre" and (model.bias_B is not None or model.bias_P is not None)
        return {
            "mode": result.mode,
            "M": result.n_sensors,
            "iterations": result.iterations,
            "biased": biased,
        }
    return {}


class Meter:
    """Set-up and iteration timers (untraced) or spans (traced) for one run.

    ``capturing`` makes every wrapped call also keep its arguments and result
    in ``captured`` so that the benchmark can check outputs of calls that the
    program makes internally. Counters are updated under a lock because
    ``cli.run_replicas`` calls the program from a thread pool.
    """

    def __init__(self, modules: dict, traced: bool):
        self.traced = traced
        self.spans: list[Span] = []
        # Seconds in which at least one set-up (iteration) call runs. Replica
        # threads overlap, and each of their calls also holds the time it
        # waits for the GIL, so overlapping calls of a kind count once.
        self.setup_s = 0.0
        self.iter_s = 0.0
        self._open = {"setup": 0, "iter": 0}
        self._since = {"setup": 0.0, "iter": 0.0}
        self.sensor_steps = 0
        # ru_maxrss when the first iteration call starts: the high-water mark
        # of the first set-up phase
        self.rss_after_setup_mb = 0.0
        self.op: str | None = None
        self.recording = False  # on only inside the benchmark's timed windows
        self.capturing = False
        self.captured: list[tuple[str, tuple, dict, object]] = []
        self._modules = modules
        self._lock = threading.Lock()
        self._local = threading.local()
        self._main_thread = threading.get_ident()
        self._main_stack = self._stack()
        self._ids = itertools.count()
        self._saved: list[tuple[object, str, object]] = []

    def install(self):
        for layer, fname, holders, kind in WRAPPED:
            if not self.traced and kind == "span":
                continue
            fn = getattr(self._modules[layer], fname)
            wrapper = self._wrap(layer, fname, kind, fn)
            for holder in holders:
                mod = self._modules[holder]
                self._saved.append((mod, fname, getattr(mod, fname)))
                setattr(mod, fname, wrapper)

    def uninstall(self):
        for mod, fname, original in reversed(self._saved):
            setattr(mod, fname, original)
        self._saved.clear()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _foreign_parent(self):
        """For an outermost call in a pool thread: the open span of the main thread."""
        if threading.get_ident() == self._main_thread or not self._main_stack:
            return None
        return self._main_stack[-1]

    def _wrap(self, layer, fname, kind, fn):
        name = f"{layer}.{fname}"
        perf = time.perf_counter

        def wrapper(*args, **kwargs):
            if not self.recording:
                return fn(*args, **kwargs)
            stack = self._stack()
            sid = next(self._ids)
            parent = stack[-1] if stack else self._foreign_parent()
            stack.append(sid)
            if kind == "iter" and not self.rss_after_setup_mb:
                self.rss_after_setup_mb = peak_rss_mb()
            t0 = perf()
            if kind in self._open:
                with self._lock:
                    if not self._open[kind]:
                        self._since[kind] = t0
                    self._open[kind] += 1
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                t1 = perf()
                stack.pop()
                self._record(sid, parent, name, kind, t0, t1, None)
                raise
            t1 = perf()
            stack.pop()
            self._record(sid, parent, name, kind, t0, t1, _info(fname, args, kwargs, result))
            if self.capturing:
                self.captured.append((fname, args, kwargs, result))
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _record(self, sid, parent, name, kind, t0, t1, info):
        with self._lock:
            if kind in self._open:
                self._open[kind] -= 1
                if not self._open[kind]:
                    elapsed = t1 - self._since[kind]
                    if kind == "setup":
                        self.setup_s += elapsed
                    else:
                        self.iter_s += elapsed
            if kind == "iter" and info is not None:
                self.sensor_steps += info["M"] * info["iterations"]
            if self.traced:
                self.spans.append(
                    Span(sid, parent, name, threading.get_ident(), self.op, t0, t1, info)
                )

    def span_cost_s(self, calls: int = 20000) -> float:
        """Seconds one traced call adds: a wrapped no-op against the bare no-op."""
        probe = Meter({}, traced=True)
        probe.recording = True

        def noop():
            return None

        wrapped = probe._wrap("probe", "noop", "span", noop)
        t0 = time.perf_counter()
        for _ in range(calls):
            wrapped()
        t1 = time.perf_counter()
        for _ in range(calls):
            noop()
        t2 = time.perf_counter()
        return max(0.0, (t1 - t0) - (t2 - t1)) / calls

    def take(self, fname: str) -> list:
        """Captured (args, kwargs, result) triples of one wrapped function."""
        return [(a, k, r) for f, a, k, r in self.captured if f == fname]
