"""Span tracing of the chronokey package from the outside.

Spans are recorded by wrappers installed on every module attribute that
binds a public function of the package, so a call counts wherever it is
made: ``chronokey.cli.joint_outcome_distribution`` and
``chronokey.detection.joint_outcome_distribution`` are separate attributes
holding the same function and both get a wrapper.  The package's own code is
never edited; uninstalling restores the original attributes, so untraced
iterations run the plain package.

Each span records its name, start, end, parent span (per thread), the
benchmark iteration it belongs to, the benchmark phase (``work`` or
``probe``), and a few facts read off the returned object.  Spans stay in
memory until the benchmark writes them out at exit.
"""

from __future__ import annotations

import functools
import inspect
import json
import statistics
import threading
import time
from collections import defaultdict
from pathlib import Path

LAYERS = (
    "chronocyclic",
    "detection",
    "security",
    "noise",
    "montecarlo",
    "feasibility",
    "config",
    "cli",
)


class Span:
    __slots__ = ("name", "start", "end", "parent", "iteration", "phase", "attrs")

    def __init__(self, name, parent, iteration, phase):
        self.name = name
        self.parent = parent
        self.iteration = iteration
        self.phase = phase
        self.attrs = {}


class Tracer:
    """Installs span wrappers on a package and collects the spans."""

    def __init__(self, package):
        self.spans: list[Span] = []
        self.iteration = -1
        self.phase = "work"
        self._local = threading.local()
        self._patches: list[tuple[object, str, object]] = []
        self._package = package

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _describe(self, result) -> dict:
        """Counts read off a returned object, keyed by what the object is."""
        pkg = self._package
        if isinstance(result, pkg.OutcomeDistribution):
            return {"basis": result.basis, "out_of_window": float(result.out_of_window)}
        if isinstance(result, pkg.JointSpectralAmplitude):
            return {"bytes": int(result.amplitudes.nbytes)}
        if isinstance(result, pkg.RoundLedger):
            return {
                "m": int(result.m),
                "rounds": int(result.rounds),
                "coincidences": int(result.coincidences),
                "bytes": int(
                    result.joint_counts_frequency.nbytes + result.joint_counts_time.nbytes
                ),
            }
        return {}

    def _wrap(self, name: str, func):
        tracer = self
        signature = inspect.signature(func)
        # simulate_rounds: the thread count splits its rounds/s by threads.
        wants_threads = "threads" in signature.parameters

        @functools.wraps(func)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            span = Span(name, stack[-1] if stack else None, tracer.iteration, tracer.phase)
            if wants_threads:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                span.attrs["threads"] = bound.arguments["threads"]
            stack.append(span)
            span.start = time.perf_counter()
            try:
                result = func(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
                tracer.spans.append(span)
            span.attrs.update(tracer._describe(result))
            return result

        return traced

    def install(self) -> None:
        modules = [getattr(self._package, layer) for layer in LAYERS]
        wrappers = {}  # every public function defined in a layer -> its wrapper
        for layer, module in zip(LAYERS, modules):
            for attr, value in vars(module).items():
                if (
                    not attr.startswith("_")
                    and inspect.isfunction(value)
                    and value.__module__ == module.__name__
                ):
                    wrappers[value] = self._wrap(f"{layer}.{value.__qualname__}", value)
        for owner in [self._package] + modules:
            for attr, value in list(vars(owner).items()):
                if inspect.isfunction(value) and value in wrappers:
                    self._patches.append((owner, attr, value))
                    setattr(owner, attr, wrappers[value])
        # RunConfig.from_dict is how every CLI command (and each sweep point)
        # parses its configuration, so the config layer needs it traced.
        run_config = self._package.config.RunConfig
        original = run_config.__dict__["from_dict"]
        self._patches.append((run_config, "from_dict", original))
        run_config.from_dict = classmethod(
            self._wrap("config.RunConfig.from_dict", original.__func__)
        )

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._patches):
            setattr(owner, attr, value)
        self._patches.clear()

    def write(self, path: Path) -> None:
        index = {id(span): i for i, span in enumerate(self.spans)}
        records = [
            {
                "id": index[id(span)],
                "name": span.name,
                "start": span.start,
                "end": span.end,
                "parent": None if span.parent is None else index.get(id(span.parent)),
                "iteration": span.iteration,
                "phase": span.phase,
                "attrs": span.attrs,
            }
            for span in self.spans
        ]
        path.write_text(json.dumps(records) + "\n")


def self_times(spans: list[Span]) -> dict[int, float]:
    """Duration of each span minus the part of it its child spans cover."""
    children = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[id(span.parent)].append((span.start, span.end))
    result = {}
    for span in spans:
        covered = 0.0
        reach = span.start
        for start, end in sorted(children[id(span)]):
            start = max(start, reach)
            end = min(end, span.end)
            if end > start:
                covered += end - start
                reach = end
        result[id(span)] = (span.end - span.start) - covered
    return result


# Per-layer time metrics and the spans whose self time they add up.  A span
# that matches no entry (a helper such as bin_overlap_weights) is charged to
# its nearest matching ancestor, so the helper's cost stays with the call
# that needed it.
_TIME_METRICS = {
    "chronocyclic.make_gaussian_jsa": "chronocyclic.make_gaussian_jsa_s",
    "chronocyclic.schmidt_decompose": "chronocyclic.schmidt_decompose_s",
    "chronocyclic.to_temporal": "chronocyclic.to_temporal_s",
    "detection.binned_spectrum": "detection.binned_single_s",
    "detection.binned_arrival_times": "detection.binned_single_s",
    "security.overlap_kernel_sigma_max": "security.overlap_kernel_s",
    "security.entropy_report": "security.entropy_s",
    "security.conditional_entropy": "security.entropy_s",
    "security.mutual_information": "security.entropy_s",
    "security.binary_entropy": "security.entropy_s",
    "security.secret_key_bound": "security.key_bound_s",
    "security.simplified_key_rate": "security.key_bound_s",
    "security.entropic_bound": "security.key_bound_s",
    "security.binning_deficit": "security.key_bound_s",
    "montecarlo.simulate_rounds": "montecarlo.simulate_rounds_s",
    "cli.main": "cli.self_s",
}
_LAYER_TIME_METRICS = {
    "noise": "noise.closed_form_s",
    "feasibility": "feasibility.check_s",
    "config": "config.load_s",
}
TIME_METRICS = tuple(
    sorted(
        set(_TIME_METRICS.values())
        | set(_LAYER_TIME_METRICS.values())
        | {"detection.joint_frequency_s", "detection.joint_time_s"}
    )
)


def _time_metric(span: Span) -> str | None:
    if span.name == "detection.joint_outcome_distribution":
        return f"detection.joint_{span.attrs.get('basis', 'frequency')}_s"
    if span.name in _TIME_METRICS:
        return _TIME_METRICS[span.name]
    return _LAYER_TIME_METRICS.get(span.name.split(".", 1)[0])


def _charged_metric(span: Span) -> str | None:
    while span is not None:
        metric = _time_metric(span)
        if metric is not None:
            return metric
        span = span.parent
    return None


def layer_metrics(spans: list[Span], iterations: list[int], mc_threads: int) -> dict[str, float]:
    """Per-layer metrics of a traced run.

    Times are the median over ``iterations`` of each metric's self time per
    iteration.  Ratios and byte counts come from the objects the package
    returned, preferring the workload's own calls over the shared probe.
    """
    own = self_times(spans)
    per_iteration = {it: defaultdict(float) for it in iterations}
    for span in spans:
        metric = _charged_metric(span)
        if metric is not None and span.iteration in per_iteration:
            per_iteration[span.iteration][metric] += own[id(span)]
    metrics = {
        name: statistics.median(per_iteration[it][name] for it in iterations)
        for name in TIME_METRICS
    }

    def results(name: str) -> list[Span]:
        found = [s for s in spans if s.name == name]
        work = [s for s in found if s.phase == "work"]
        return work or found

    for basis in ("frequency", "time"):
        values = [
            s.attrs["out_of_window"]
            for s in results("detection.joint_outcome_distribution")
            if s.attrs.get("basis") == basis
        ]
        metrics[f"detection.out_of_window_{basis}"] = statistics.mean(values)
    metrics["chronocyclic.jsa_bytes"] = max(
        s.attrs["bytes"] for s in results("chronocyclic.make_gaussian_jsa")
    )

    ledgers = results("montecarlo.simulate_rounds")
    totals = defaultdict(lambda: [0, 0.0])  # (threads, m) -> [rounds, seconds]
    for s in ledgers:
        total = totals[(s.attrs["threads"], s.attrs["m"])]
        total[0] += s.attrs["rounds"]
        total[1] += s.end - s.start
    single = {m: r / t for (threads, m), (r, t) in totals.items() if threads == 1}
    multi = {m: r / t for (threads, m), (r, t) in totals.items() if threads == mc_threads}
    one_thread = [v for (threads, _), v in totals.items() if threads == 1]
    metrics["montecarlo.rounds_per_s_1t"] = sum(r for r, _ in one_thread) / sum(
        t for _, t in one_thread
    )
    metrics["montecarlo.scaling_eff"] = statistics.median(
        multi[m] / (mc_threads * single[m]) for m in single if m in multi
    )
    metrics["montecarlo.coincidence_frac"] = sum(s.attrs["coincidences"] for s in ledgers) / sum(
        s.attrs["rounds"] for s in ledgers
    )
    metrics["montecarlo.ledger_bytes"] = max(s.attrs["bytes"] for s in ledgers)
    return metrics
