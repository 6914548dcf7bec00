"""Per-layer host-time spans installed from outside the simulator.

Nothing in ``src/`` knows about this module. :class:`Tracer` wraps the
public calls at each layer boundary with a span that measures wall time,
and charges each span's *self* time (its duration minus the spans nested
inside it) to the layer that owns the wrapped code. Every moment of the
traced region therefore lands in exactly one layer bucket, so the buckets
sum to the traced wall time.

Fine-grained spans (millions per run) are aggregated in memory per call
site as ``[count, self seconds]``; the few coarse spans (build_traces,
run_app, sim.run, check_coherence, map_runs) are also kept one by one with
their start, end and parent so the run's outline can be written out at the
end. Wrappers only observe: arguments and return values pass through
unchanged, so traced results are digest-identical to untraced ones (the
benchmark checks this on every traced run).
"""

from __future__ import annotations

import time
from typing import Callable, Dict, List, Optional

#: Host-time buckets. Packages of ``repro`` on the ``run_app`` path map to
#: themselves; the rest are phases of ``run_app`` or of the benchmark.
LAYERS = (
    "workloads",  # build_traces (synthesis, or a memo hit inside run_app)
    "system",     # run_app before sim.run: Manycore + Core construction
    "engine",     # sim.run minus callbacks, plus schedule/schedule_at
    "cpu",
    "mem",
    "coherence",
    "check",      # machine.check_coherence
    "noc",
    "wireless",
    "stats",      # run_app after sim.run, minus the check: the result fold
    "harness",    # Executor.map_runs minus the run_app spans inside it
    "bench",      # the traced region outside every span (benchmark code)
)

#: Callback code living in a package outside LAYERS is charged here.
_CALLBACK_FALLBACK = "bench"


def callback_layer(callback: Callable) -> str:
    """The layer a scheduled callback belongs to: its code's package."""
    module = getattr(callback, "__module__", None) or ""
    parts = module.split(".")
    if len(parts) > 1 and parts[0] == "repro" and parts[1] in LAYERS:
        return parts[1]
    return _CALLBACK_FALLBACK


class Tracer:
    """Span accounting for one traced pass."""

    def __init__(self) -> None:
        self.clock = time.perf_counter
        #: site name -> [calls, self seconds, layer]
        self.sites: Dict[str, list] = {}
        #: child-time accumulators of the open spans; [0] is the root frame
        self._stack: List[float] = [0.0]
        #: coarse spans: (name, start, end, parent index or -1)
        self.spans: List[tuple] = []
        self._open_coarse: List[int] = []
        self.started: Optional[float] = None
        self.stopped: Optional[float] = None

    # ------------------------------------------------------------ region

    def start(self) -> None:
        self.started = self.clock()

    def stop(self) -> None:
        self.stopped = self.clock()

    @property
    def wall_s(self) -> float:
        return self.stopped - self.started

    # ------------------------------------------------------------- sites

    def site(self, name: str, layer: str) -> list:
        entry = self.sites.get(name)
        if entry is None:
            entry = self.sites[name] = [0, 0.0, layer]
        return entry

    def _span(self, site: list, fn: Callable):
        """``fn`` timed into ``site``; nested spans' time is subtracted."""
        stack = self._stack
        clock = self.clock

        def span(*args, **kwargs):
            start = clock()
            stack.append(0.0)
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                site[0] += 1
                site[1] += elapsed - stack.pop()
                stack[-1] += elapsed

        return span

    def wrap(self, name: str, layer: str, fn: Callable, coarse: bool = False):
        """Return ``fn`` wrapped in a span charged to ``layer``. A coarse
        span is also recorded one by one, with its parent coarse span."""
        inner = self._span(self.site(name, layer), fn)
        if not coarse:
            return inner
        spans = self.spans
        open_coarse = self._open_coarse
        clock = self.clock

        def span(*args, **kwargs):
            parent = open_coarse[-1] if open_coarse else -1
            index = len(spans)
            spans.append(None)
            open_coarse.append(index)
            start = clock()
            try:
                return inner(*args, **kwargs)
            finally:
                open_coarse.pop()
                spans[index] = (name, start, clock(), parent)

        return span

    def wrap_run_app(self, fn: Callable):
        """A coarse ``run_app`` span whose self time is split in two.

        Before ``sim.run`` starts, ``run_app`` builds the machine and the
        cores ('system'); after ``sim.run`` returns it runs the coherence
        check (its own span) and folds the statistics into the result
        ('stats').
        """
        inner = self.wrap("run_app", "system", fn, coarse=True)
        fold = self.site("run_app.fold", "stats")
        build = self.sites["run_app"]
        spans = self.spans

        def run_app(*args, **kwargs):
            first = len(spans)
            try:
                return inner(*args, **kwargs)
            finally:
                own = spans[first]
                end = own[2]
                run_end = end
                check_s = 0.0
                for name, start, stop, parent in spans[first + 1:]:
                    if parent != first:
                        continue
                    if name == "sim.run":
                        run_end = stop
                    elif name == "machine.check_coherence":
                        check_s += stop - start
                folded = max(0.0, end - run_end - check_s)
                fold[0] += 1
                fold[1] += folded
                build[1] -= folded

        return run_app

    def wrap_probe(self, name: str, fn: Callable):
        """A coherence span around an L1 probe that also counts hits.

        ``load_probe`` returns None on a miss; ``store_probe`` returns False.
        """
        hits = self.site(name + ".hit", "coherence")
        inner = self.wrap(name, "coherence", fn)

        def probe(*args):
            result = inner(*args)
            if result is not None and result is not False:
                hits[0] += 1
            return result

        return probe

    def wrap_scheduler(self, name: str, fn: Callable):
        """An engine span around ``schedule``/``schedule_at`` that wraps the
        scheduled callback in a span of the package its code lives in."""
        inner = self.wrap(name, "engine", fn)
        span = self._span
        site = self.site

        def schedule(when, callback):
            layer = callback_layer(callback)
            return inner(when, span(site("callback." + layer, layer), callback))

        return schedule

    # ----------------------------------------------------------- results

    def count(self, name: str) -> int:
        entry = self.sites.get(name)
        return entry[0] if entry else 0

    def layer_self_s(self) -> Dict[str, float]:
        """Self seconds per layer; the remainder of the region is 'bench'."""
        totals = {layer: 0.0 for layer in LAYERS}
        for _calls, seconds, layer in self.sites.values():
            totals[layer] += seconds
        totals["bench"] += self.wall_s - self._stack[0]
        return totals

    def callbacks(self, layer: Optional[str] = None) -> int:
        return sum(
            calls
            for name, (calls, _s, site_layer) in self.sites.items()
            if name.startswith("callback.") and (layer is None or site_layer == layer)
        )

    def outline(self) -> Dict:
        """JSON-ready dump: per-site aggregates plus the coarse spans."""
        origin = self.started
        return {
            "wall_s": self.wall_s,
            "sites": {
                name: {"calls": calls, "self_s": seconds, "layer": layer}
                for name, (calls, seconds, layer) in sorted(self.sites.items())
            },
            "spans": [
                {"name": n, "start": s - origin, "end": e - origin, "parent": p}
                for n, s, e, p in self.spans
            ],
        }


# ---------------------------------------------------------------- installers


def install_machine(tracer: Tracer, machine) -> None:
    """Wrap one freshly built ``Manycore``'s layer entry points.

    Called from ``run_app``'s ``machine_sink`` hook, i.e. after the machine
    is built and before any ``Core`` binds its cache probes, so the cores
    bind the wrapped instance attributes.
    """
    wrap = tracer.wrap
    sim = machine.sim
    sim.run = wrap("sim.run", "engine", sim.run, coarse=True)
    sim.schedule = tracer.wrap_scheduler("sim.schedule", sim.schedule)
    sim.schedule_at = tracer.wrap_scheduler("sim.schedule_at", sim.schedule_at)
    machine.check_coherence = wrap(
        "machine.check_coherence", "check", machine.check_coherence, coarse=True
    )
    mesh = machine.mesh
    mesh.send = wrap("mesh.send", "noc", mesh.send)
    mesh.send_multicast = wrap("mesh.send_multicast", "noc", mesh.send_multicast)
    if machine.wireless is not None:
        machine.wireless.transmit = wrap(
            "wireless.transmit", "wireless", machine.wireless.transmit
        )
    if machine.tone is not None:
        machine.tone.begin = wrap("tone.begin", "wireless", machine.tone.begin)
    for cache in machine.caches:
        cache.load_probe = tracer.wrap_probe("cache.load_probe", cache.load_probe)
        cache.store_probe = tracer.wrap_probe("cache.store_probe", cache.store_probe)
        for method in ("load_miss", "store_miss", "rmw", "handle_message", "handle_frame"):
            setattr(cache, method, wrap(f"cache.{method}", "coherence", getattr(cache, method)))
        cache.array.lookup = wrap("cache.array.lookup", "mem", cache.array.lookup)
    for directory in machine.directories:
        for method in ("handle_message", "handle_frame"):
            setattr(
                directory, method,
                wrap(f"directory.{method}", "coherence", getattr(directory, method)),
            )
    for controller in machine.memory_controllers:
        controller.fetch_line = wrap("memctl.fetch_line", "mem", controller.fetch_line)
        controller.writeback_line = wrap(
            "memctl.writeback_line", "mem", controller.writeback_line
        )


class MachineSink(list):
    """A ``run_app`` ``machine_sink`` that records each machine's event
    kernel and, given a tracer, instruments the machine. It keeps no
    reference to the machine itself."""

    def __init__(self, tracer: Optional[Tracer] = None) -> None:
        super().__init__()
        self.tracer = tracer
        self.kernels: List[bool] = []

    def append(self, machine) -> None:
        self.kernels.append(machine.sim.batched)
        if self.tracer is not None:
            install_machine(self.tracer, machine)
