"""The benchmark's workloads and the loop that measures them.

Every workload drives the program only through its public entry points:
:class:`~repro.dvfs.simulation.DvfsSimulation`,
:class:`~repro.service.server.DecisionService` with
:class:`~repro.service.client.DecisionClient`, and
:class:`~repro.runtime.executor.SweepExecutor`. Telemetry, ``obs`` and
``learn`` stay off, as users run.

A workload is set up (timed as ``setup_s``), then runs *passes* - fixed
units of work - until the measuring time is spent. Each operation in a
pass (a simulation run, a decision, a sweep cell) is checked against an
expected output; a wrong output counts as a failed operation.

Inputs come from ``--seed``: ``seed % N_VARIANTS`` selects one of the
generated program variants of each app (the suite's kernel specs with
re-drawn jitter). Expected outputs for every variant are stored under
``perfbench/expected/``.
"""

from __future__ import annotations

import asyncio
import bisect
import gc
import heapq
import json
import math
import resource
import statistics
import threading
import time
from contextlib import nullcontext
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.config import SimConfig, small_config
from repro.dvfs.designs import make_controller
from repro.dvfs.simulation import DvfsSimulation, RunResult
from repro.runtime.executor import FailedCell, SweepExecutor, SweepTask
from repro.runtime.wire import recv_frame, send_frame
from repro.service import DecisionClient, DecisionService, ServiceConfig
from repro.service import protocol as proto
from repro.telemetry.schema import epoch_result_to_wire, sim_config_to_wire
from repro.workloads import build_workload, workload, workload_names

from perfbench.spans import (
    CALIBRATE_SPAN,
    FORK_SPAN,
    OP_SPAN,
    SpanTracer,
    call_counts,
    self_times,
)

EXPECTED_DIR = Path(__file__).resolve().parent / "expected"

#: Generated input sets; ``--seed`` picks one by ``seed % N_VARIANTS``.
N_VARIANTS = 8
#: Relative jitter of the re-drawn program variants (trip counts, mixes).
JITTER = 0.03
STATIC = "STATIC@1.7"
#: High enough that every cell completes; a truncated run fails its check.
MAX_EPOCHS = 5_000
#: Fewest passes in a timed run, so medians never rest on one pass.
MIN_PASSES = 2
#: Seconds one reference loop takes at the host speed all reported host
#: times are scaled to; about its time on the 2-core container the bounds
#: were set on, when that host ran fast.
REFERENCE_S = 0.0025
#: Host seconds between two timings of the reference loop.
SEGMENT_S = 0.3


def variant_of(seed: int) -> int:
    return seed % N_VARIANTS


def generated_kernels(app: str, variant: int, scale: float):
    """The app's kernels with program variants re-drawn for ``variant``.

    Compiles every program here, in set-up, so the first timed run does
    not pay for it.
    """
    spec = workload(app)
    kernels = tuple(
        replace(
            k,
            seed=k.seed + 7919 * (variant + 1),
            variant_jitter=max(k.variant_jitter, JITTER),
        )
        for k in spec.kernels
    )
    built = build_workload(replace(spec, kernels=kernels), scale=scale)
    for kernel in built:
        for program in kernel.variants:
            program.compiled
    return built


class _Particle:
    __slots__ = ("t", "hits")

    def __init__(self, t: float) -> None:
        self.t = t
        self.hits = 0

    def step(self, dt: float) -> int:
        self.t += dt
        if self.t > 1.0:
            self.t -= 1.0
            self.hits += 1
        return self.hits


def _reference_work() -> int:
    """A fixed slice of interpreter work shaped like the simulator's:
    method calls and attribute updates on slotted objects, plus a heap."""
    particles = [_Particle(i * 0.01) for i in range(64)]
    heap: List[Tuple[int, int]] = []
    total = 0
    for i in range(1500):
        for particle in particles[i & 7::8]:
            total += particle.step(0.37)
        heapq.heappush(heap, (total & 1023, i))
        if len(heap) > 32:
            heapq.heappop(heap)
    return total


class HostClock:
    """Converts host times to seconds at the reference host speed.

    The container's host speed drifts by up to 1.6x within a minute
    (neighbouring load; no steal time shows), and the simulator slows
    nearly in step with the reference loop. The clock splits time into
    segments of about :data:`SEGMENT_S` and times the reference loop
    between them, outside every segment. A segment's host seconds are
    divided by the mean slowdown of its two brackets against
    :data:`REFERENCE_S`. A change to the program cannot move the
    reference loop, so a slower program still reads slower.
    """

    def __init__(self, tracer: Optional[SpanTracer] = None) -> None:
        self.tracer = tracer
        self.factors: List[float] = []
        self._slowdown_now = self._slowdown()
        self._starts = [time.perf_counter()]
        self._ref_before = [0.0]

    @staticmethod
    def _slowdown() -> float:
        # About 50 ms: shorter samples track the simulator's slowdown
        # worse (measured across-run spread 6.5% with 5 runs, 2.2% with 20).
        t0 = time.perf_counter()
        for _ in range(20):
            _reference_work()
        return (time.perf_counter() - t0) / 20 / REFERENCE_S

    def due(self) -> bool:
        return time.perf_counter() - self._starts[-1] >= SEGMENT_S

    def recalibrate(self) -> None:
        """End the current segment and start the next one."""
        end = time.perf_counter()
        with self.tracer.span(CALIBRATE_SPAN) if self.tracer is not None else nullcontext():
            slowdown = self._slowdown()
        factor = (self._slowdown_now + slowdown) / 2
        self._slowdown_now = slowdown
        self.factors.append(factor)
        self._ref_before.append(self._ref_before[-1] + (end - self._starts[-1]) / factor)
        self._starts.append(time.perf_counter())

    def ref(self, t: float) -> float:
        """Reference seconds from the clock's start to host time ``t``,
        which lies in a segment that has ended."""
        i = bisect.bisect_right(self._starts, t) - 1
        return self._ref_before[i] + (t - self._starts[i]) / self.factors[i]


def fingerprint(result: RunResult) -> Dict[str, Any]:
    """The parts of a run the checks compare exactly."""
    return {
        "completed": result.completed,
        "epochs": result.epochs,
        "delay_ns": result.delay_ns,
        "energy": result.energy.total,
        "ed2p": result.ed2p,
        "committed": result.total_committed,
        "transitions": result.total_transitions,
        "prediction_accuracy": result.prediction_accuracy,
        "pc_hit_ratio": result.pc_hit_ratio,
        "hotpath": result.hotpath,
    }


def load_expected(name: str) -> Dict[str, Any]:
    path = EXPECTED_DIR / f"{name}.json"
    if not path.is_file():
        return {}
    return json.loads(path.read_text(encoding="utf-8"))


def geomean(values: Sequence[float]) -> float:
    return math.exp(sum(math.log(v) for v in values) / len(values))


@dataclass
class PassResult:
    """One pass: its timed host seconds and what it did.

    All times are at the reference host speed (see :class:`HostClock`).
    """

    seconds: float = 0.0
    ops: int = 0
    failed: int = 0
    #: Simulated instructions the pass covered.
    committed: int = 0
    #: step -> host seconds of each time this pass ran it. A step is an
    #: epoch of a simulation run, a sweep cell, or a decision on one
    #: epoch of a replayed stream.
    steps: Dict[str, List[float]] = field(default_factory=dict)
    #: label -> fingerprint; the traced run must reproduce these exactly.
    results: Dict[str, Any] = field(default_factory=dict)
    #: label -> RunResult, for the derived simulated metrics.
    runs: Dict[str, RunResult] = field(default_factory=dict)
    #: label -> host seconds of that operation, when every pass repeats
    #: the same operations (the simulation workloads).
    op_seconds: Dict[str, float] = field(default_factory=dict)
    #: Workload-specific layer counts (sweep instrumentation).
    counts: Dict[str, float] = field(default_factory=dict)
    #: Host slowdown against the reference speed, per clock segment.
    slowdowns: List[float] = field(default_factory=list)


class EpochClock:
    """Stands in for a power manager and only timestamps epoch ends.

    ``DvfsSimulation`` calls ``observe_epoch`` once per epoch, after the
    epoch ran and its energy was accounted; consecutive stamps give the
    host time of one turn of the decision loop. Between epochs it lets
    the host clock time the reference loop.
    """

    def __init__(self, clock: HostClock) -> None:
        self.clock = clock
        self.stamps: List[float] = []

    def observe_epoch(self, power: float, duration_ns: float) -> None:
        self.stamps.append(time.perf_counter())
        if self.clock.due():
            self.clock.recalibrate()


def _op_span(tracer: Optional[SpanTracer]):
    return tracer.span(OP_SPAN) if tracer is not None else nullcontext()


def _hotpath_layers(runs: Sequence[RunResult], design: str) -> Dict[str, float]:
    hot: Dict[str, int] = {}
    for r in runs:
        for k, v in (r.hotpath or {}).items():
            hot[k] = hot.get(k, 0) + v
    committed = sum(r.total_committed for r in runs)
    hits = [r.pc_hit_ratio for r in runs if r.design == design and r.pc_hit_ratio is not None]
    return {
        "gpu.cycles": hot.get("cycles", 0),
        "gpu.waves_scanned": hot.get("waves_scanned", 0),
        "gpu.batched_issue_ratio": hot.get("batched_instructions", 0) / max(committed, 1),
        "gpu.completions_delivered": hot.get("completions_delivered", 0),
        "dvfs.oracle.samples": hot.get("oracle_samples", 0),
        "dvfs.oracle.oracle_cycles": hot.get("oracle_cycles", 0),
        "dvfs.oracle.snapshot_bytes": hot.get("snapshot_bytes", 0),
        "dvfs.oracle.restores": hot.get("restores", 0),
        "core.pc_table.hit_ratio": statistics.fmean(hits) if hits else 0.0,
    }


def _simulated(runs: Dict[str, RunResult], apps: Sequence[str], design: str) -> Dict[str, float]:
    """ED2P of ``design`` relative to STATIC@1.7, and its accuracy."""
    return {
        "ed2p_vs_static": geomean(
            [runs[f"{a}/{design}"].ed2p / runs[f"{a}/{STATIC}"].ed2p for a in apps]
        ),
        "prediction_accuracy": statistics.fmean(
            runs[f"{a}/{design}"].prediction_accuracy for a in apps
        ),
    }


# ----------------------------------------------------------------------
# sim_designs / sim_oracle


@dataclass
class SimState:
    config: SimConfig
    kernels: Dict[str, list]
    expected: Dict[str, Any]
    controllers: Optional[list]


@dataclass(frozen=True)
class SimWorkload:
    """Serial, in-process ``DvfsSimulation`` runs: apps x (STATIC, design)."""

    name: str
    why: str
    apps: Tuple[str, ...]
    design: str
    scale: float
    oracle_sample_freqs: Optional[int] = None
    setup_repeats: int = 5

    @property
    def cells(self) -> List[Tuple[str, str]]:
        return [(a, d) for a in self.apps for d in (STATIC, self.design)]

    def setup(self, seed: int) -> SimState:
        cfg = small_config()
        variant = variant_of(seed)
        kernels = {a: generated_kernels(a, variant, self.scale) for a in self.apps}
        stored = load_expected(self.name)
        expected = (
            stored.get("variants", {}).get(str(variant), {})
            if stored.get("scale") == self.scale
            else {}
        )
        controllers = [make_controller(d, cfg) for _, d in self.cells]
        return SimState(cfg, kernels, expected, controllers)

    def run_pass(self, state: SimState, tracer: Optional[SpanTracer] = None) -> PassResult:
        controllers = state.controllers or [make_controller(d, state.config) for _, d in self.cells]
        state.controllers = None
        out = PassResult()
        host = HostClock(tracer)
        stamps = []
        for (app, design), ctrl in zip(self.cells, controllers):
            clock = EpochClock(host)
            sim = DvfsSimulation(
                state.kernels[app],
                ctrl,
                state.config,
                design_name=design,
                workload_name=app,
                max_epochs=MAX_EPOCHS,
                oracle_sample_freqs=self.oracle_sample_freqs,
                power_manager=clock,
            )
            with _op_span(tracer):
                t0 = time.perf_counter()
                result = sim.run()
                t1 = time.perf_counter()
            host.recalibrate()
            label = f"{app}/{design}"
            stamps.append((label, [t0] + clock.stamps + [t1]))
            out.ops += 1
            out.committed += result.total_committed
            fp = fingerprint(result)
            if not result.completed or fp != state.expected.get(label):
                out.failed += 1
            out.results[label] = fp
            out.runs[label] = result
        for label, times in stamps:
            ref = [host.ref(t) for t in times]
            out.op_seconds[label] = ref[-1] - ref[0]
            out.seconds += ref[-1] - ref[0]
            for k, (a, b) in enumerate(zip(ref, ref[1:-1])):
                out.steps[f"{label}#{k}"] = [b - a]
        out.slowdowns = host.factors
        return out

    def simulated(self, state: SimState, passes: List[PassResult]) -> Dict[str, float]:
        return _simulated(passes[0].runs, self.apps, self.design)

    def layers(
        self, state: SimState, passes: List[PassResult], traced: "TraceSummary"
    ) -> Dict[str, float]:
        return _hotpath_layers(list(passes[0].runs.values()), self.design)

    def close(self, state: SimState) -> None:
        pass


# ----------------------------------------------------------------------
# serve_closed_loop


class ServiceThread:
    """An in-process ``DecisionService`` whose event loop owns one thread."""

    def __init__(self) -> None:
        self.loop = asyncio.new_event_loop()
        self.service: Optional[DecisionService] = None
        self._ready = threading.Event()
        self._error: Optional[BaseException] = None
        self._thread = threading.Thread(target=self._main, name="decision-service")

    def _main(self) -> None:
        asyncio.set_event_loop(self.loop)
        try:
            self.service = DecisionService(ServiceConfig(port=0, health_port=None))
            self.loop.run_until_complete(self.service.start())
        except Exception as exc:  # reported to the starting thread
            self._error = exc
            self._ready.set()
            self.loop.close()
            return
        self._ready.set()
        try:
            self.loop.run_until_complete(self.service.wait_closed())
        finally:
            self.loop.close()

    def start(self) -> "ServiceThread":
        self._thread.start()
        if not self._ready.wait(30.0):
            raise RuntimeError("decision service did not start within 30 s")
        if self._error is not None:
            self._thread.join(30.0)
            raise RuntimeError(f"decision service failed to start: {self._error}")
        return self

    @property
    def port(self) -> int:
        assert self.service is not None
        return self.service.port

    def call(self, fn):
        """Run ``fn()`` on the service's loop thread and return its value."""

        async def invoke():
            return fn()

        return asyncio.run_coroutine_threadsafe(invoke(), self.loop).result(30.0)

    def stop(self) -> None:
        if self.service is not None and self._thread.is_alive():
            asyncio.run_coroutine_threadsafe(self.service.shutdown(), self.loop).result(30.0)
        self._thread.join(30.0)
        if self._thread.is_alive():
            raise RuntimeError("decision service thread did not stop")


@dataclass
class Stream:
    """One recorded epoch stream and the decisions it must produce."""

    app: str
    #: Wire-form EpochResult per epoch, as the GPU side reports it.
    observations: List[Dict[str, Any]]
    #: decisions[e] = the frequencies for epoch e (e = 0 is the open).
    decisions: List[List[float]]
    committed: List[int]


def record_stream(kernels, cfg: SimConfig, app: str, design: str) -> Tuple[Stream, RunResult]:
    """Run ``design`` offline, keeping every observation it was fed.

    The expected decisions come from a fresh controller fed the
    wire-decoded stream - the ``repro replay`` contract - and must match
    the decisions the recording run took.
    """
    ctrl = make_controller(design, cfg)
    observations: List[Dict[str, Any]] = []
    observe = ctrl.observe

    def recording_observe(result, true_domain_lines=None):
        observations.append(epoch_result_to_wire(result))
        observe(result, true_domain_lines=true_domain_lines)

    ctrl.observe = recording_observe
    run = DvfsSimulation(
        kernels, ctrl, cfg, design_name=design, workload_name=app, max_epochs=MAX_EPOCHS
    ).run()

    offline = make_controller(design, cfg)
    decisions = [offline.decide()]
    committed = []
    for wire in observations:
        result = proto.epoch_result_from_wire(wire)
        committed.append(result.total_committed())
        offline.observe(result)
        decisions.append(offline.decide())
    if decisions[: len(ctrl.log.chosen_freqs)] != ctrl.log.chosen_freqs:
        raise RuntimeError(f"{app}: offline replay diverges from the recorded run")
    return Stream(app, observations, decisions, committed), run


class Connection:
    """One client connection replaying one stream, session after session."""

    def __init__(self, stream: Stream) -> None:
        self.stream = stream
        self.client: Optional[DecisionClient] = None
        self.epoch = 0
        self.seq = 0

    def close(self) -> None:
        if self.client is not None:
            self.client.close()
            self.client = None


@dataclass
class ServeState:
    config: SimConfig
    streams: List[Stream]
    #: The recorded runs the streams came from, and their STATIC bases.
    runs: Dict[str, RunResult]
    server: ServiceThread
    connections: List[Connection] = field(default_factory=list)


@dataclass(frozen=True)
class ServeWorkload:
    """Closed loop: one load-generator thread, one connection per stream.

    Each step sends the next observation on every connection, then waits
    for every decision: each simulated GPU waits for its decision before
    it reports the next epoch.
    """

    name: str
    why: str
    apps: Tuple[str, ...]
    design: str
    scale: float
    setup_repeats: int = 3

    def setup(self, seed: int) -> ServeState:
        cfg = small_config()
        variant = variant_of(seed)
        streams, runs = [], {}
        for app in self.apps:
            kernels = generated_kernels(app, variant, self.scale)
            stream, runs[f"{app}/{self.design}"] = record_stream(kernels, cfg, app, self.design)
            runs[f"{app}/{STATIC}"] = DvfsSimulation(
                kernels, make_controller(STATIC, cfg), cfg, max_epochs=MAX_EPOCHS
            ).run()
            streams.append(stream)
        server = ServiceThread().start()
        state = ServeState(cfg, streams, runs, server)
        state.connections = [Connection(s) for s in streams]
        return state

    def _open(self, state: ServeState, conn: Connection, out: PassResult) -> None:
        conn.close()
        conn.client = DecisionClient(port=state.server.port).connect()
        decision = conn.client.open_session(self.design, sim_config_to_wire(state.config))
        conn.epoch = 0
        out.ops += 1
        if decision != conn.stream.decisions[0]:
            out.failed += 1

    def run_pass(self, state: ServeState, tracer: Optional[SpanTracer] = None) -> PassResult:
        out = PassResult()
        conns = state.connections
        latencies = []
        host = HostClock()
        with _op_span(tracer):
            t_start = time.perf_counter()
            while time.perf_counter() - t_start < SEGMENT_S:
                for conn in conns:
                    if conn.client is None or conn.epoch == len(conn.stream.observations):
                        self._open(state, conn, out)
                sent = []
                for conn in conns:
                    conn.seq += 1
                    frame = {
                        "type": proto.MSG_OBSERVE,
                        "seq": conn.seq,
                        "epoch": conn.epoch,
                        "result": conn.stream.observations[conn.epoch],
                        "truth": None,
                    }
                    sent.append(time.perf_counter())
                    send_frame(conn.client._sock, frame)
                for conn, t_sent in zip(conns, sent):
                    reply = recv_frame(conn.client._sock)
                    step = f"{conn.stream.app}#{conn.epoch}"
                    latencies.append((step, time.perf_counter() - t_sent))
                    out.ops += 1
                    out.committed += conn.stream.committed[conn.epoch]
                    conn.epoch += 1
                    ok = (
                        reply is not None
                        and reply.get("type") == proto.MSG_DECISION
                        and reply.get("decision") == conn.stream.decisions[conn.epoch]
                    )
                    if not ok:
                        out.failed += 1
                        conn.close()  # resynchronise with a fresh session
            wall = time.perf_counter() - t_start
        host.recalibrate()
        factor = host.factors[0]
        out.seconds = wall / factor
        for step, latency in latencies:
            out.steps.setdefault(step, []).append(latency / factor)
        out.slowdowns = host.factors
        return out

    def simulated(self, state: ServeState, passes: List[PassResult]) -> Dict[str, float]:
        return _simulated(state.runs, self.apps, self.design)

    def layers(
        self, state: ServeState, passes: List[PassResult], traced: "TraceSummary"
    ) -> Dict[str, float]:
        registry = state.server.call(state.server.service.registry.to_dict)
        counters = registry["counters"]
        batch = registry["histograms"].get("service_batch_size", {"sum": 0.0, "total": 0})
        # Server-side controller time per decision: one observe and one
        # decide (opens add decides, hence per-call means).
        server_s = sum(
            traced.self_s[name] / traced.calls[name]
            for name in ("core.controller.observe", "core.controller.decide")
        )
        # Served decisions are bit-identical to the recorded runs', so the
        # sessions' PC tables hit as often as those runs' tables did.
        hits = [state.runs[f"{a}/{self.design}"].pc_hit_ratio for a in self.apps]
        return {
            "core.pc_table.hit_ratio": statistics.fmean(hits),
            "service.overhead_ms": (statistics.fmean(traced.latencies) - server_s) * 1e3,
            "service.batch_size_mean": batch["sum"] / batch["total"] if batch["total"] else 0.0,
            "service.shed": counters.get("service_shed", 0),
            "service.out_of_order": counters.get("service_out_of_order", 0),
        }

    def close(self, state: ServeState) -> None:
        try:
            for conn in state.connections:
                conn.close()
        finally:
            state.server.stop()


# ----------------------------------------------------------------------
# sweep_grid


@dataclass
class SweepState:
    tasks: List[SweepTask]
    expected: Dict[str, Any]


@dataclass(frozen=True)
class SweepWorkload:
    """``SweepExecutor`` over apps x (STATIC, design), cache off."""

    name: str
    why: str
    apps: Tuple[str, ...]
    design: str
    scale: float
    workers: int = 2
    setup_repeats: int = 20

    def tasks(self) -> List[SweepTask]:
        """The grid in ``repro figure`` order. A cell carries only names,
        so the seed cannot vary its programs, and reordering the grid
        moved the pool's load balance (cells/s spread across seeds 17%,
        against 7% in this fixed order)."""
        cfg = small_config()
        return [
            SweepTask(a, d, cfg, scale=self.scale, max_epochs=MAX_EPOCHS)
            for a in self.apps
            for d in (STATIC, self.design)
        ]

    def setup(self, seed: int) -> SweepState:
        stored = load_expected(self.name)
        expected = stored.get("cells", {}) if stored.get("scale") == self.scale else {}
        return SweepState(self.tasks(), expected)

    def run_pass(self, state: SweepState, tracer: Optional[SpanTracer] = None) -> PassResult:
        out = PassResult()
        executor = SweepExecutor(max_workers=self.workers)
        host = HostClock()
        with _op_span(tracer):
            t0 = time.perf_counter()
            try:
                results = executor.run(state.tasks)
            except Exception:  # an exhausted cell fails the sweep
                results = [None] * len(state.tasks)
            wall = time.perf_counter() - t0
        host.recalibrate()
        factor = host.factors[0]
        out.seconds = wall / factor
        out.slowdowns = host.factors
        for task, result in zip(state.tasks, results):
            out.ops += 1
            if result is None or isinstance(result, FailedCell):
                out.failed += 1
                continue
            fp = fingerprint(result)
            if not result.completed or fp != state.expected.get(task.label):
                out.failed += 1
            out.committed += result.total_committed
            out.results[task.label] = fp
            out.runs[task.label] = result
        cells = executor.progress.cells
        out.steps = {c.label: [c.wall_s / factor] for c in cells}
        busy = sum(c.wall_s for c in cells)
        out.counts = {
            "runtime.overhead_frac": 1.0 - busy / (wall * self.workers),
            "runtime.attempts": sum(c.attempts for c in cells),
        }
        return out

    def simulated(self, state: SweepState, passes: List[PassResult]) -> Dict[str, float]:
        return _simulated(passes[0].runs, self.apps, self.design)

    def layers(
        self, state: SweepState, passes: List[PassResult], traced: "TraceSummary"
    ) -> Dict[str, float]:
        layers = _hotpath_layers(list(passes[0].runs.values()), self.design)
        layers["runtime.overhead_frac"] = statistics.median(
            p.counts["runtime.overhead_frac"] for p in passes
        )
        layers["runtime.attempts"] = passes[0].counts["runtime.attempts"]
        return layers

    def close(self, state: SweepState) -> None:
        pass


WORKLOADS = {
    w.name: w
    for w in (
        SimWorkload(
            name="sim_designs",
            why="per-cell work of repro run/figure: STATIC@1.7 and PCSTALL over "
            "batched-issue compute, memory latency and L2 thrash apps; no oracle",
            apps=("comd", "xsbench", "hacc", "BwdBN", "FwdSoft"),
            design="PCSTALL",
            scale=0.4,
        ),
        SimWorkload(
            name="sim_oracle",
            why="the paper's fork-and-pre-execute oracle: forks restore into a "
            "scratch GPU, so engine changes that only help committed epochs show",
            apps=("comd", "xsbench"),
            design="ORACLE",
            scale=0.4,
            oracle_sample_freqs=4,
        ),
        ServeWorkload(
            name="serve_closed_loop",
            why="the user-facing decision service, closed loop over loopback; "
            "no engine in the loop, so core and service are the whole cost",
            apps=("comd", "xsbench"),
            design="PCSTALL",
            scale=0.4,
        ),
        SweepWorkload(
            name="sweep_grid",
            why="small sweep cells over a 2-worker pool, cache off: per-cell pool, "
            "pickling and collection overhead that sim_designs never pays",
            apps=tuple(workload_names()),
            design="PCSTALL",
            scale=0.1,
        ),
    )
}


# ----------------------------------------------------------------------
# Measuring


@dataclass
class Report:
    attempted: int
    failed: int
    metrics: Dict[str, float]
    #: Human-readable sample counts, printed beside the metrics.
    samples: Dict[str, str]

    @property
    def correct(self) -> bool:
        return self.failed == 0 and self.attempted > 0


@dataclass
class TraceSummary:
    """What the traced passes measured, at the reference host speed."""

    #: Self seconds per span name (see :func:`perfbench.spans.self_times`).
    self_s: Dict[str, float]
    calls: Dict[str, int]
    latencies: List[float]


def _run_passes(wl, state, seconds: float, min_passes: int) -> List[PassResult]:
    passes: List[PassResult] = []
    deadline = time.perf_counter() + seconds
    while len(passes) < min_passes or time.perf_counter() < deadline:
        gc.collect()
        passes.append(wl.run_pass(state))
    return passes


def _percentile(sorted_values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile; ``q`` in (0, 1]."""
    rank = max(1, math.ceil(q * len(sorted_values)))
    return sorted_values[rank - 1]


def measure(
    wl, seed: int, seconds: float, trace: bool, spans_path: Optional[Path] = None
) -> Report:
    """Set up, run and check one workload; return its metrics."""
    setup_times: List[float] = []
    state = None
    try:
        for _ in range(1 if trace else wl.setup_repeats):
            if state is not None:
                wl.close(state)
                state = None
            gc.collect()
            host = HostClock()
            t0 = time.perf_counter()
            state = wl.setup(seed)
            t1 = time.perf_counter()
            host.recalibrate()
            setup_times.append(host.ref(t1) - host.ref(t0))
        if trace:
            return _traced(wl, state, seconds, spans_path)
        passes = _run_passes(wl, state, seconds, MIN_PASSES)
        return _end_to_end(wl, state, passes, setup_times)
    finally:
        if state is not None:
            wl.close(state)


def _rates(passes: List[PassResult]) -> Tuple[float, float]:
    """(simulated instructions, operations) per host second.

    Where every pass repeats the same operations, each operation's time
    is its median over the passes, so a burst of host noise during one
    run moves one sample, not the sum. Otherwise, the median pass rate.
    """
    if passes[0].op_seconds:
        seconds = sum(
            statistics.median(p.op_seconds[label] for p in passes)
            for label in passes[0].op_seconds
        )
        return passes[0].committed / seconds, passes[0].ops / seconds
    return (
        statistics.median(p.committed / p.seconds for p in passes),
        statistics.median(p.ops / p.seconds for p in passes),
    )


def _latency_percentiles(passes: List[PassResult]) -> Tuple[float, float, int]:
    """(p50, p99) in seconds over the run's steps, and the step count.

    Every step repeats within a run - an epoch of a simulation run, a
    sweep cell, a decision on one epoch of a replayed stream - so each
    step contributes the median of its repetitions. A host hiccup then
    moves one repetition, not the tail; a slow step shows every time.
    """
    samples: Dict[str, List[float]] = {}
    for p in passes:
        for step, xs in p.steps.items():
            samples.setdefault(step, []).extend(xs)
    values = sorted(statistics.median(xs) for xs in samples.values())
    return _percentile(values, 0.50), _percentile(values, 0.99), len(values)


def _end_to_end(wl, state, passes: List[PassResult], setup_times: List[float]) -> Report:
    attempted = sum(p.ops for p in passes)
    failed = sum(p.failed for p in passes)
    p50, p99, n_steps = _latency_percentiles(passes)
    latency_note = f"{n_steps} steps, each the median of its repetitions"
    instr_rate, op_rate = _rates(passes)
    metrics = {
        "setup_s": statistics.median(setup_times),
        "sim_instr_per_s": instr_rate,
        "ops_per_s": op_rate,
        "latency_p50_ms": p50 * 1e3,
        "latency_p99_ms": p99 * 1e3,
        "ok_ops_frac": 1.0 - failed / attempted,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    metrics.update(wl.simulated(state, passes))
    speed = 1.0 / statistics.fmean(x for p in passes for x in p.slowdowns)
    samples = {
        "setup_s": f"median of {len(setup_times)} set-ups",
        "sim_instr_per_s": f"{len(passes)} passes; host ran at {speed:.2f}x reference speed",
        "ops_per_s": f"{len(passes)} passes",
        "latency_p50_ms": latency_note,
        "latency_p99_ms": latency_note,
        "ok_ops_frac": f"{attempted - failed} of {attempted} ops",
    }
    return Report(attempted, failed, metrics, samples)


def _traced(wl, state, seconds: float, spans_path: Optional[Path]) -> Report:
    """Half the time untraced, then as many passes traced; compare."""
    untraced = _run_passes(wl, state, seconds / 2, 1)
    tracer = SpanTracer()
    with tracer.installed():
        traced = []
        for _ in untraced:
            gc.collect()
            traced.append(wl.run_pass(state, tracer))
    if spans_path is not None:
        spans_path.parent.mkdir(parents=True, exist_ok=True)
        tracer.write(str(spans_path))

    attempted = sum(p.ops for p in untraced + traced)
    failed = sum(p.failed for p in untraced + traced)
    for u, t in zip(untraced, traced):
        if u.results != t.results:  # tracing must never change a result
            failed += sum(1 for k in u.results if t.results.get(k) != u.results[k])

    n = len(traced)
    # Span times are host seconds; scale them like the pass times.
    slowdown = statistics.fmean(x for p in traced for x in p.slowdowns)
    st = {k: v / slowdown for k, v in self_times(tracer.spans).items()}
    summary = TraceSummary(
        st, call_counts(tracer.spans), [x for p in traced for xs in p.steps.values() for x in xs]
    )
    per_op = lambda ps: sum(p.seconds for p in ps) / sum(p.ops for p in ps)  # noqa: E731
    layer_self = {
        "gpu.run_epoch.self_s": st.get("gpu.run_epoch", 0.0),
        "gpu.run_epoch.fork_s": st.get(FORK_SPAN, 0.0),
        "dvfs.oracle.sample.self_s": st.get("dvfs.oracle.sample", 0.0),
        "core.controller.decide_s": st.get("core.controller.decide", 0.0),
        "core.controller.observe_s": st.get("core.controller.observe", 0.0),
        "power.add_epoch_s": st.get("power.add_epoch", 0.0),
        "other.self_s": st.get(OP_SPAN, 0.0),
    }
    metrics: Dict[str, float] = {
        "gpu.cycles": 0, "gpu.waves_scanned": 0, "gpu.batched_issue_ratio": 0.0,
        "gpu.completions_delivered": 0, "dvfs.oracle.samples": 0,
        "dvfs.oracle.oracle_cycles": 0, "dvfs.oracle.snapshot_bytes": 0,
        "dvfs.oracle.restores": 0, "core.pc_table.hit_ratio": 0.0,
        "service.overhead_ms": 0.0, "service.batch_size_mean": 0.0,
        "service.shed": 0, "service.out_of_order": 0,
        "runtime.overhead_frac": 0.0, "runtime.attempts": 0,
    }
    metrics.update({k: v / n for k, v in layer_self.items()})
    metrics["trace.wall_s"] = st.get("wall", 0.0) / n
    metrics["trace.overhead_frac"] = per_op(traced) / per_op(untraced) - 1.0
    metrics.update(wl.layers(state, untraced, summary))
    samples = {
        "trace.wall_s": f"per pass, {n} traced passes",
        "trace.overhead_frac": f"{n} traced vs {len(untraced)} untraced passes",
        "other.self_s": "wall minus the self times above" if isinstance(wl, SimWorkload)
        else "op span self time; service spans run on another thread",
    }
    return Report(attempted, failed, metrics, samples)


__all__ = ["WORKLOADS", "Report", "measure", "fingerprint", "generated_kernels", "N_VARIANTS"]
