"""The sweep scheduler: one broker, local and remote workers, one grid.

Every parallel :class:`~repro.runtime.executor.SweepExecutor` sweep runs
through a :class:`SweepBroker`: it binds a listener, starts the
executor's ``max_workers`` local :class:`SweepWorker` processes, and
leases cells to them and to any remote ``repro worker`` hosts that
connect. One implementation of these guarantees serves both:

* **Bit-identical results.** Workers execute the exact same
  :func:`~repro.runtime.executor.run_task` path as a serial run and ship
  the :class:`~repro.dvfs.simulation.RunResult` back losslessly (pickled
  inside the JSON frame) *together with* its
  :func:`~repro.analysis.trace_io.run_result_to_dict` payload; the
  broker re-derives the dict from the unpickled result and rejects the
  cell as corrupt when the two disagree. ``run(tasks)[i]`` still belongs
  to ``tasks[i]``, whatever order workers finished in. A cell whose task
  does not survive the wire with its cache key intact (e.g. an
  objective carrying state the wire form drops) is never leased: it
  runs in-process on the executor thread, and the sweep notes why.
* **Exactly-once cells.** Every cell is leased to at most one worker at
  a time; a result is accepted only from the current leaseholder at the
  current attempt, so a reassigned-then-late-arriving result (the dead
  worker turned out to be merely slow) is acknowledged and discarded.
  Accepted cells dedupe again through the content-hash
  :class:`~repro.runtime.cache.ResultCache` key and the
  :class:`~repro.runtime.checkpoint.SweepCheckpoint` manifest, whose
  ``record`` is idempotent - the manifest can never hold a key twice.
* **Fault tolerance under the RetryPolicy accounting.** Leases carry
  deadlines; workers renew them with heartbeats while computing. A
  dead worker (connection drops - e.g. SIGKILL) or a silent one (lease
  deadline passes) has its cell *reclaimed* as :class:`LeaseExpired`;
  an attempt still running ``task_timeout_s`` after its lease was
  granted is reclaimed as
  :class:`~repro.runtime.executor.SweepTimeoutError`, heartbeats or
  not. A reclaimed local worker process is terminated and replaced.
  Each failed attempt is charged against ``RetryPolicy.max_attempts``,
  the jitterless backoff schedule gates when the cell may be leased
  again, ``serial_final_attempt`` runs the last attempt in-process
  when this host has local workers, and exhaustion follows
  ``on_exhausted``. Reclaims are counted as ``sweep_cells_reclaimed``
  in the sweep's :class:`~repro.runtime.progress.SweepInstrumentation`
  registry.
* **Cross-host spans.** The broker opens the usual ``cell`` span per
  attempt and ships its :class:`~repro.obs.trace.SpanContext` in the
  task frame; the worker joins the trace with
  :meth:`~repro.obs.trace.Tracer.from_context` and returns its span
  records with the result, so run/epoch/oracle_sample spans from any
  worker nest under the executor's sweep span.

Wire protocol
-------------
The same 4-byte big-endian length-prefixed JSON frames as the decision
service (:mod:`repro.runtime.wire`), over one TCP connection per
worker. Worker to broker::

    hello      {protocol, worker}
    ready      {}                          lease the next runnable cell
    heartbeat  {index}                     renew the held lease (no reply)
    result     {index, attempt, key, wall_s, result, dict, spans}
    fail       {index, attempt, error_type, error}
    goodbye    {}

Broker to worker: ``hello_ok {lease_s, heartbeat_s, n_tasks}``,
``task {index, attempt, key, task, lease_s, span}``,
``idle {retry_after_s}`` (nothing became runnable while the broker held
the ``ready``), ``done`` (sweep complete), ``ack {accepted}``, ``bye``,
``error {error}``.

Tasks cross the wire in JSON (config via the telemetry schema's
canonical form, objectives via their canonical class + state); the
worker rebuilds the :class:`~repro.runtime.executor.SweepTask` and
refuses to run it unless the rebuilt task's content-hash key matches
the one the broker sent - any wire infidelity (or version skew between
hosts) fails loudly before a single wrong number is computed.
"""

from __future__ import annotations

import base64
import multiprocessing
import os
import pickle
import socket
import threading
import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Dict, List, Mapping, Optional, Sequence, Set

from repro.obs.log import get_logger
from repro.runtime.faults import CorruptResult, CorruptResultError, InjectedFaultError
from repro.runtime.progress import SOURCE_PARALLEL, SOURCE_REMOTE, SOURCE_SERIAL
from repro.runtime.wire import (
    FrameReceiver,
    ProtocolError,
    ReceiveTimeout,
    recv_frame,
    send_frame,
)

if TYPE_CHECKING:
    from repro.obs.trace import Span
    from repro.runtime.executor import SweepExecutor, SweepTask

_log = get_logger("distributed")

#: Default broker port (the decision service owns 8472/8473).
DEFAULT_BROKER_PORT = 8474

#: Broker protocol revision; a ``hello`` carrying a different one is
#: rejected before any task crosses the wire.
BROKER_PROTOCOL_VERSION = 1

# Worker -> broker message types.
MSG_HELLO = "hello"
MSG_READY = "ready"
MSG_HEARTBEAT = "heartbeat"
MSG_RESULT = "result"
MSG_FAIL = "fail"
MSG_GOODBYE = "goodbye"

# Broker -> worker message types.
MSG_HELLO_OK = "hello_ok"
MSG_TASK = "task"
MSG_IDLE = "idle"
MSG_DONE = "done"
MSG_ACK = "ack"
MSG_BYE = "bye"
MSG_ERROR = "error"


class LeaseExpired(RuntimeError):
    """A leased cell's worker died or stopped heartbeating; the cell was
    reclaimed. Charged against the retry budget like any failed attempt."""


class RemoteCellError(RuntimeError):
    """A worker-side failure whose type has no local reconstruction."""

    def __init__(self, remote_type: str, message: str) -> None:
        super().__init__(f"{remote_type}: {message}")
        self.remote_type = remote_type


class WorkerError(RuntimeError):
    """The worker agent loop cannot continue (broker gone, protocol
    violation, task key mismatch...)."""


# ----------------------------------------------------------------------
# Task + result wire codecs

#: Worker-side failure types the broker rebuilds as their real classes,
#: so retryability and the fault counters behave as in a serial sweep.
def _error_registry() -> Dict[str, type]:
    from repro.runtime.executor import SweepTimeoutError

    return {
        "InjectedFaultError": InjectedFaultError,
        "CorruptResultError": CorruptResultError,
        "SweepTimeoutError": SweepTimeoutError,
    }


def error_from_wire(remote_type: str, message: str) -> BaseException:
    cls = _error_registry().get(remote_type)
    if cls is not None:
        return cls(message)
    return RemoteCellError(remote_type, message)


#: Objective reconstruction from the canonical ``describe_objective``
#: form ({"__class__": name, ...public state}).
def objective_from_wire(wire: Any) -> Optional[Any]:
    if wire is None:
        return None
    from repro.core.objectives import (
        EDnPObjective,
        PerformanceCapObjective,
        QoSDeadlineObjective,
        StaticObjective,
    )

    try:
        name = wire["__class__"]
        if name == "StaticObjective":
            return StaticObjective(float(wire["f_ghz"]))
        if name == "EDnPObjective":
            return EDnPObjective(int(wire["n"]), float(wire["price_scale"]))
        if name == "PerformanceCapObjective":
            return PerformanceCapObjective(float(wire["max_degradation"]))
        if name == "QoSDeadlineObjective":
            return QoSDeadlineObjective(float(wire["target"]))
    except (KeyError, TypeError, ValueError) as exc:
        raise ProtocolError(f"malformed objective: {exc}") from None
    raise ProtocolError(f"unknown objective class {name!r}")


def sweep_task_to_wire(task: "SweepTask") -> Dict[str, object]:
    """JSON form of a sweep cell (config in its canonical wire shape)."""
    from repro.runtime.cache import describe_objective
    from repro.telemetry.schema import sim_config_to_wire

    return {
        "workload": task.workload,
        "design": task.design,
        "config": sim_config_to_wire(task.config),
        "scale": task.scale,
        "max_epochs": task.max_epochs,
        "oracle_sample_freqs": task.oracle_sample_freqs,
        "collect_accuracy": task.collect_accuracy,
        "objective": describe_objective(task.objective),
    }


def sweep_task_from_wire(wire: Mapping[str, Any]) -> "SweepTask":
    """Rebuild a :class:`SweepTask`; raises :class:`ProtocolError` on a
    malformed payload. Callers should verify the rebuilt task's
    ``key()`` against the broker's expected key."""
    from repro.runtime.executor import SweepTask
    from repro.service.protocol import sim_config_from_wire

    try:
        freqs = wire["oracle_sample_freqs"]
        return SweepTask(
            workload=str(wire["workload"]),
            design=str(wire["design"]),
            config=sim_config_from_wire(wire["config"]),
            scale=float(wire["scale"]),
            max_epochs=int(wire["max_epochs"]),
            oracle_sample_freqs=None if freqs is None else int(freqs),
            collect_accuracy=bool(wire["collect_accuracy"]),
            objective=objective_from_wire(wire["objective"]),
        )
    except ProtocolError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise ProtocolError(f"malformed sweep task: {exc}") from None


def result_to_wire(result: Any) -> str:
    """Lossless transport form of a RunResult (pickle, base64)."""
    return base64.b64encode(
        pickle.dumps(result, protocol=pickle.HIGHEST_PROTOCOL)
    ).decode("ascii")


def result_from_wire(blob: Any) -> Any:
    try:
        return pickle.loads(base64.b64decode(blob))
    except Exception as exc:  # noqa: BLE001 - any unpickle failure is corrupt
        raise CorruptResultError(f"undecodable remote result: {exc!r}") from None


# ----------------------------------------------------------------------
# Broker


@dataclass
class _Lease:
    """One outstanding grant of one cell to one worker connection."""

    index: int
    worker: str
    attempt: int
    deadline: float  # monotonic; renewed by heartbeats
    timeout_at: Optional[float]  # monotonic; grant + task_timeout_s
    span: Optional["Span"] = None

    def renew(self, lease_s: float) -> None:
        self.deadline = time.monotonic() + lease_s

    @property
    def due(self) -> float:
        """When the reaper must next look at this lease."""
        if self.timeout_at is None:
            return self.deadline
        return min(self.deadline, self.timeout_at)


def _wire_form(task: "SweepTask", key: str) -> Optional[Dict[str, object]]:
    """``task``'s wire form, or None when the task does not survive the
    wire with its cache ``key`` intact."""
    try:
        wire = sweep_task_to_wire(task)
        if sweep_task_from_wire(wire).key() == key:
            return wire
    except (ProtocolError, AttributeError, TypeError, ValueError):
        pass
    return None


def _local_worker(host: str, port: int, name: str) -> None:
    """Entry point of a local worker process.

    The listener is up before any local worker starts, so a failed
    connect means the sweep is already over: give up at once.
    """
    try:
        SweepWorker(host=host, port=port, name=name, connect_timeout_s=0.0).run()
    except WorkerError:
        pass  # the broker is gone; it reaps and, if needed, replaces us


class SweepBroker:
    """Serves one sweep's task grid to worker processes over TCP.

    :meth:`~repro.runtime.executor.SweepExecutor.run` builds a private
    broker on ``127.0.0.1:0`` for a parallel sweep; attach one
    (``SweepExecutor(broker=SweepBroker(host, port))``) to let remote
    workers join. The executor's ``run()`` blocks in :meth:`serve` until
    every pending cell has been computed by some worker (or exhausted
    its retry budget). The broker owns no policy of its own - retries,
    timeouts, caching, checkpointing, instrumentation and spans all flow
    through the executor it serves, so a remote sweep is governed by
    exactly the knobs a local one is.
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = DEFAULT_BROKER_PORT,
        lease_s: float = 15.0,
        poll_s: float = 0.2,
        idle_retry_s: float = 0.5,
    ) -> None:
        if lease_s <= 0:
            raise ValueError("lease_s must be positive")
        self.host = host
        self.port = port
        self.lease_s = lease_s
        self.poll_s = poll_s
        self.idle_retry_s = idle_retry_s
        #: Actual bound port (useful with ``port=0``), set by serve().
        self.bound_port: Optional[int] = None
        self._lock = threading.Lock()
        self._cond = threading.Condition(self._lock)
        self._reset_sweep_state()

    def _reset_sweep_state(self) -> None:
        self._executor: Optional["SweepExecutor"] = None
        self._tasks: Sequence["SweepTask"] = ()
        self._results: Optional[List] = None
        self._pending: Set[int] = set()       # leasable (not leased, not done)
        self._inline: Set[int] = set()        # next attempt runs in-process
        self._keys: Dict[int, str] = {}
        self._wire: Dict[int, Optional[Dict[str, object]]] = {}  # None: in-process
        self._leases: Dict[int, _Lease] = {}
        self._done: Set[int] = set()
        self._attempts: Dict[int, int] = {}
        self._earliest: Dict[int, float] = {}  # backoff gate, monotonic
        self._fatal: Optional[BaseException] = None
        self._finished = False
        self._conns: List[socket.socket] = []
        self._handler_threads: List[threading.Thread] = []
        #: Local worker processes by worker name, how many to keep, how
        #: many were ever started, and which peer addresses they hold.
        self._local: Dict[str, multiprocessing.process.BaseProcess] = {}
        self._local_target = 0
        self._local_starts = 0
        self._local_peers: Dict[str, str] = {}

    # ------------------------------------------------------------------
    # Main entry point (runs on the executor's thread)

    def serve(
        self,
        executor: "SweepExecutor",
        tasks: Sequence["SweepTask"],
        pending: Sequence[int],
        results: List,
    ) -> None:
        """Serve ``tasks[pending]`` to workers; fills ``results`` in place.

        With ``executor.max_workers > 1`` the broker keeps that many local
        worker processes (never more than there are cells); otherwise
        only remote workers compute. The listener is bound before any
        broker thread or local worker starts, so local workers fork from
        one thread and connect at once; the grid is checked for wire
        fidelity while they start up.
        """
        # Loaded before any local worker forks, so none of them pays for
        # the imports of the wire codecs.
        from repro.analysis.trace_io import run_result_to_dict  # noqa: F401
        from repro.service.protocol import sim_config_from_wire  # noqa: F401

        with self._lock:
            if self._executor is not None:
                raise RuntimeError("broker is already serving a sweep")
            self._reset_sweep_state()
            self._executor = executor
            self._tasks = tasks
            self._results = results
            self._attempts = {i: 0 for i in pending}
            self._earliest = {i: 0.0 for i in pending}
            if executor.max_workers > 1:
                self._local_target = min(executor.max_workers, len(pending))

        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        accept_thread = threading.Thread(
            target=self._accept_loop, args=(listener,),
            name="sweep-broker-accept", daemon=True,
        )
        try:
            listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
            listener.bind((self.host, self.port))
            listener.listen()
            listener.settimeout(self.poll_s)
            self.bound_port = listener.getsockname()[1]
            executor.progress.note(
                f"broker listening on {self.host}:{self.bound_port} "
                f"({len(pending)} cell(s), {self._local_target} local worker(s))"
            )
            with self._lock:
                for _ in range(self._local_target):
                    self._start_worker_locked()
                self._keys = {i: tasks[i].key() for i in pending}
                self._wire = {i: _wire_form(tasks[i], self._keys[i]) for i in pending}
                for i in pending:
                    self._queue_locked(i)
            for i in pending:
                if self._wire[i] is None:
                    executor.progress.note(
                        f"{tasks[i].label}: task does not survive the wire "
                        f"with its cache key intact; running it in-process"
                    )
            accept_thread.start()
            self._run_loop()
        finally:
            with self._lock:
                self._finished = True
                self._cond.notify_all()
                fatal = self._fatal
                clean = fatal is None and len(self._done) >= len(self._attempts)
                conns = list(self._conns)
                procs = list(self._local.values())
            try:
                listener.shutdown(socket.SHUT_RDWR)  # wakes accept()
            except OSError:
                pass
            listener.close()
            self._reap_workers(procs, clean)
            if accept_thread.is_alive():
                accept_thread.join(timeout=5.0)
            for thread in list(self._handler_threads):
                thread.join(timeout=5.0)
            for conn in conns:
                try:
                    conn.close()
                except OSError:
                    pass
            with self._lock:
                self._reset_sweep_state()
                self._finished = True
        if fatal is not None:
            raise fatal

    def _run_loop(self) -> None:
        """Reap expired leases, keep local workers up, and run in-process
        attempts, until every cell is done or the sweep failed."""
        ex = self._executor
        assert ex is not None
        while True:
            with self._lock:
                self._reap_expired_locked()
                self._replace_workers_locked()
                if self._fatal is not None or len(self._done) >= len(self._attempts):
                    return
                now = time.monotonic()
                ready = [i for i in self._inline if self._earliest[i] <= now]
                if not ready:
                    dues = [ls.due for ls in self._leases.values()]
                    dues += [self._earliest[i] for i in self._inline]
                    self._cond.wait(max(0.0, min([self.poll_s] + [d - now for d in dues])))
                    continue
                i = min(ready)
                self._inline.discard(i)
                self._attempts[i] += 1
                attempt = self._attempts[i]
                task = self._tasks[i]
                if self._wire[i] is not None:
                    ex.progress.note(
                        f"final attempt {attempt} for {task.label}: running in-process"
                    )
                span, ctx = ex._start_cell(task, attempt)
            self._run_inline(ex, i, attempt, span, ctx)

    def _run_inline(self, ex: "SweepExecutor", i: int, attempt: int, span, ctx) -> None:
        """One attempt of cell ``i`` on the executor thread."""
        from repro.runtime.executor import _run_task_timed

        task = self._tasks[i]
        try:
            result, elapsed, spans = _run_task_timed(task, attempt, ctx)
            if isinstance(result, CorruptResult):
                raise CorruptResultError(
                    f"corrupt result for {task.label} (attempt {attempt})"
                )
        except Exception as exc:  # noqa: BLE001 - classified by the policy
            with self._lock:
                ex._end_cell(span, "retry")
                self._fail_or_requeue_locked(i, exc)
            return
        with self._lock:
            ex._end_cell(span, "ok", spans)
            self._complete_locked(i, result, elapsed, SOURCE_SERIAL, attempt)

    # ------------------------------------------------------------------
    # Local worker processes

    def _start_worker_locked(self) -> None:
        self._local_starts += 1
        name = f"local-{self._local_starts}"
        host = "127.0.0.1" if self.host in ("", "0.0.0.0") else self.host
        proc = multiprocessing.Process(
            target=_local_worker, args=(host, self.bound_port, name),
            name=f"repro-sweep-{name}", daemon=True,
        )
        proc.start()
        self._local[name] = proc

    def _replace_workers_locked(self) -> None:
        """Reap exited local workers; start replacements while cells wait."""
        for name, proc in list(self._local.items()):
            if not proc.is_alive():
                proc.join()
                del self._local[name]
        if not self._pending or len(self._local) >= self._local_target:
            return
        # Each failed attempt can take down at most one worker; more
        # exits than that means workers cannot start at all.
        assert self._executor is not None
        budget = self._local_target + len(self._attempts) * self._executor.retry.max_attempts
        if self._local_starts >= budget:
            self._fatal = RuntimeError(
                f"local sweep workers exited {self._local_starts} times; giving up"
            )
            return
        while len(self._local) < self._local_target:
            self._start_worker_locked()

    @staticmethod
    def _reap_workers(procs, clean: bool) -> None:
        """Join local workers (they leave on ``done``); terminate any
        still running when the sweep failed or a worker lingers."""
        if not clean:
            for proc in procs:
                proc.terminate()
        for proc in procs:
            proc.join(timeout=5.0)
            if proc.is_alive():
                proc.terminate()
                proc.join()

    # ------------------------------------------------------------------
    # Accept + per-connection handler threads

    def _accept_loop(self, listener: socket.socket) -> None:
        while True:
            with self._lock:
                if self._finished:
                    return
            try:
                conn, addr = listener.accept()
            except socket.timeout:
                continue
            except OSError:
                return  # listener closed by serve()
            with self._lock:
                if self._finished:
                    conn.close()
                    return
                self._conns.append(conn)
                thread = threading.Thread(
                    target=self._handle,
                    args=(conn, f"{addr[0]}:{addr[1]}"),
                    name=f"sweep-broker-{addr[0]}:{addr[1]}",
                    daemon=True,
                )
                self._handler_threads.append(thread)
            thread.start()

    def _handle(self, conn: socket.socket, peer: str) -> None:
        receiver = FrameReceiver(conn, strict=True)
        worker = peer
        held: Optional[int] = None
        try:
            while True:
                with self._lock:
                    finished = self._finished
                if finished:
                    self._send_quiet(conn, {"type": MSG_DONE})
                    return
                try:
                    msg = receiver.recv(self.poll_s)
                except ReceiveTimeout:
                    continue
                if msg is None:
                    return  # clean close; `finally` reclaims any held lease
                held = self._dispatch(conn, worker, msg, held)
                if held is _CLOSE:
                    return
        except ProtocolError as exc:
            self._note(f"worker {worker}: protocol violation: {exc}")
            self._send_quiet(conn, {"type": MSG_ERROR, "error": str(exc)})
        except OSError as exc:
            self._note(f"worker {worker}: connection error: {exc}")
        finally:
            if held is not None and held is not _CLOSE:
                self._reclaim(held, worker, "worker disconnected")
            try:
                conn.close()
            except OSError:
                pass
            with self._lock:
                if conn in self._conns:
                    self._conns.remove(conn)

    def _dispatch(
        self,
        conn: socket.socket,
        worker: str,
        msg: Dict[str, object],
        held: Optional[int],
    ) -> Optional[int]:
        """Process one worker frame; returns the (possibly changed) held
        cell index, or :data:`_CLOSE` to end the connection."""
        mtype = msg.get("type")
        if mtype == MSG_HELLO:
            if msg.get("protocol") != BROKER_PROTOCOL_VERSION:
                raise ProtocolError(
                    f"protocol version mismatch: broker speaks "
                    f"{BROKER_PROTOCOL_VERSION}, worker sent "
                    f"{msg.get('protocol')!r}"
                )
            name = str(msg.get("worker", "?"))
            with self._lock:
                registry = self._registry()
                if registry is not None:
                    registry.inc("sweep_workers_connected")
                n_tasks = len(self._attempts)
                local = name in self._local
                if local:
                    self._local_peers[worker] = name
            send_frame(conn, {
                "type": MSG_HELLO_OK,
                "protocol": BROKER_PROTOCOL_VERSION,
                "lease_s": self.lease_s,
                "heartbeat_s": min(self.lease_s / 3.0, 5.0),
                "n_tasks": n_tasks,
            })
            if not local:
                self._note(f"worker {worker} connected ({name})")
            return held
        if mtype == MSG_READY:
            grant = self._grant(worker)
            if grant is None:
                with self._lock:
                    done = self._finished or len(self._done) >= len(self._attempts)
                if done:
                    send_frame(conn, {"type": MSG_DONE})
                    return _CLOSE
                send_frame(conn, {"type": MSG_IDLE, "retry_after_s": 0.0})
                return held
            send_frame(conn, grant)
            return int(grant["index"])  # type: ignore[arg-type]
        if mtype == MSG_HEARTBEAT:
            self._renew(msg.get("index"), worker)
            return held  # heartbeats are one-way
        if mtype == MSG_RESULT:
            accepted = self._accept_result(worker, msg)
            self._send_quiet(conn, {"type": MSG_ACK, "accepted": accepted})
            return None
        if mtype == MSG_FAIL:
            self._accept_failure(worker, msg)
            self._send_quiet(conn, {"type": MSG_ACK, "accepted": True})
            return None
        if mtype == MSG_GOODBYE:
            self._send_quiet(conn, {"type": MSG_BYE})
            return _CLOSE
        raise ProtocolError(f"unknown message type {mtype!r}")

    # ------------------------------------------------------------------
    # Grid state transitions (all under the lock)

    def _registry(self):
        if self._executor is None:
            return None
        return self._executor.progress.registry

    def _note(self, message: str) -> None:
        with self._lock:
            if self._executor is not None:
                self._executor.progress.note(message)
            else:
                _log.info(message)

    @staticmethod
    def _send_quiet(conn: socket.socket, message: Dict[str, object]) -> None:
        try:
            send_frame(conn, message)
        except OSError:
            pass

    def _grant(self, worker: str) -> Optional[Dict[str, object]]:
        """Lease the lowest runnable cell to ``worker``, waiting up to
        ``idle_retry_s`` for one to become runnable (None = nothing)."""
        with self._lock:
            give_up = time.monotonic() + self.idle_retry_s
            while True:
                ex = self._executor
                if (
                    ex is None or self._finished or self._fatal is not None
                    or len(self._done) >= len(self._attempts)
                ):
                    return None
                now = time.monotonic()
                runnable = [i for i in self._pending if self._earliest[i] <= now]
                if runnable:
                    break
                if now >= give_up:
                    return None
                gates = [self._earliest[i] for i in self._pending]
                self._cond.wait(min([give_up] + gates) - now)
            i = min(runnable)
            self._pending.discard(i)
            self._attempts[i] += 1
            attempt = self._attempts[i]
            task = self._tasks[i]
            span, ctx = ex._start_cell(task, attempt)
            if span is not None:
                span.attrs["worker"] = worker
            timeout_at = None
            if ex.task_timeout_s is not None:
                timeout_at = now + ex.task_timeout_s
            lease = _Lease(
                index=i, worker=worker, attempt=attempt,
                deadline=0.0, timeout_at=timeout_at, span=span,
            )
            lease.renew(self.lease_s)
            self._leases[i] = lease
            if timeout_at is not None:
                self._cond.notify_all()  # the reaper waits for it
            return {
                "type": MSG_TASK,
                "index": i,
                "attempt": attempt,
                "key": self._keys[i],
                "task": self._wire[i],
                "lease_s": self.lease_s,
                "span": ctx,
            }

    def _renew(self, index: object, worker: str) -> None:
        with self._lock:
            try:
                lease = self._leases.get(int(index))  # type: ignore[arg-type]
            except (TypeError, ValueError):
                return
            if lease is not None and lease.worker == worker:
                lease.renew(self.lease_s)

    def _accept_result(self, worker: str, msg: Dict[str, object]) -> bool:
        """Record a completed cell; False when the result is late or
        duplicate (its lease was reclaimed and possibly reassigned)."""
        try:
            i = int(msg["index"])  # type: ignore[arg-type]
            attempt = int(msg["attempt"])  # type: ignore[arg-type]
            wall_s = float(msg.get("wall_s", 0.0))  # type: ignore[arg-type]
        except (KeyError, TypeError, ValueError) as exc:
            raise ProtocolError(f"malformed result frame: {exc}") from None
        with self._lock:
            self._reap_expired_locked()  # a result past its timeout is late
            ex = self._executor
            lease = self._leases.get(i)
            if (
                ex is None
                or self._finished
                or i in self._done
                or lease is None
                or lease.worker != worker
                or lease.attempt != attempt
            ):
                registry = self._registry()
                if registry is not None:
                    registry.inc("sweep_results_duplicate")
                return False
            task = self._tasks[i]
            self._leases.pop(i, None)
            try:
                result = result_from_wire(msg.get("result"))
                self._verify_result(task, self._keys[i], result, msg)
            except CorruptResultError as exc:
                ex._end_cell(lease.span, "corrupt")
                self._fail_or_requeue_locked(i, exc)
                return False
            ex._end_cell(lease.span, "ok", msg.get("spans") or None)
            source = SOURCE_PARALLEL if worker in self._local_peers else SOURCE_REMOTE
            self._complete_locked(i, result, wall_s, source, attempt)
            return True

    def _complete_locked(
        self, i: int, result: Any, wall_s: float, source: str, attempt: int
    ) -> None:
        assert self._executor is not None and self._results is not None
        self._results[i] = result
        self._executor._finish_cell(
            self._tasks[i], result, wall_s, source, attempts=attempt
        )
        self._done.add(i)
        self._cond.notify_all()

    def _verify_result(
        self, task: "SweepTask", key: str, result: Any, msg: Dict[str, object]
    ) -> None:
        """Integrity checks on a shipped result (raises CorruptResultError)."""
        from repro.analysis.trace_io import run_result_to_dict

        if msg.get("key") != key:
            raise CorruptResultError(
                f"result for {task.label} carries key {msg.get('key')!r}, "
                f"expected {key!r}"
            )
        shipped = msg.get("dict")
        if shipped is not None and run_result_to_dict(result) != shipped:
            raise CorruptResultError(
                f"result for {task.label}: pickled payload disagrees with "
                f"its run_result_to_dict form"
            )

    def _accept_failure(self, worker: str, msg: Dict[str, object]) -> None:
        try:
            i = int(msg["index"])  # type: ignore[arg-type]
            attempt = int(msg["attempt"])  # type: ignore[arg-type]
        except (KeyError, TypeError, ValueError) as exc:
            raise ProtocolError(f"malformed fail frame: {exc}") from None
        exc = error_from_wire(
            str(msg.get("error_type", "RemoteCellError")),
            str(msg.get("error", "")),
        )
        with self._lock:
            lease = self._leases.get(i)
            if (
                self._finished
                or i in self._done
                or lease is None
                or lease.worker != worker
                or lease.attempt != attempt
            ):
                return  # late failure report for a reclaimed lease
            self._leases.pop(i, None)
            if self._executor is not None:
                self._executor._end_cell(lease.span, "retry")
            self._fail_or_requeue_locked(i, exc)

    def _queue_locked(self, i: int) -> None:
        """Queue cell ``i``'s next attempt: for a worker, or in-process
        when the task cannot ship or this is a final attempt that
        ``serial_final_attempt`` keeps on this host."""
        assert self._executor is not None
        policy = self._executor.retry
        nxt = self._attempts[i] + 1
        final = 1 < nxt >= policy.max_attempts and policy.serial_final_attempt
        if self._wire[i] is None or (final and self._local_target > 0):
            self._inline.add(i)
        else:
            self._pending.add(i)

    def _fail_or_requeue_locked(self, i: int, exc: BaseException) -> None:
        """Retry accounting for a failed attempt; caller holds the lock."""
        ex = self._executor
        assert ex is not None
        task = self._tasks[i]
        attempts = self._attempts[i]
        retryable = ex.retry.is_retryable(exc) or isinstance(exc, LeaseExpired)
        if retryable and attempts < ex.retry.max_attempts:
            delay = ex.retry.delay_for(attempts + 1)
            ex.progress.record_retry(task.label, attempts, exc, delay)
            self._earliest[i] = time.monotonic() + delay
            self._queue_locked(i)
            self._cond.notify_all()
            return
        try:
            assert self._results is not None
            self._results[i] = ex._exhausted(task, attempts, exc)
        except BaseException as fatal:  # on_exhausted="raise"
            self._fatal = fatal
        self._done.add(i)
        self._cond.notify_all()

    # ------------------------------------------------------------------
    # Lease reclamation (dead, silent and timed-out workers)

    def _reap_expired_locked(self) -> None:
        """Reclaim every lease past a deadline; caller holds the lock."""
        from repro.runtime.executor import SweepTimeoutError

        if self._finished or self._executor is None:
            return
        now = time.monotonic()
        for i, lease in list(self._leases.items()):
            if lease.timeout_at is not None and now > lease.timeout_at:
                timeout = self._executor.task_timeout_s
                cause = f"exceeded task_timeout_s={timeout:g}"
                error: RuntimeError = SweepTimeoutError(
                    f"sweep cell {self._tasks[i].label} {cause} "
                    f"(attempt {lease.attempt})"
                )
                self._reclaim_locked(i, lease.worker, cause, error)
            elif now > lease.deadline:
                self._reclaim_locked(i, lease.worker, "lease expired")

    def _reclaim(self, i: int, worker: str, cause: str) -> None:
        with self._lock:
            lease = self._leases.get(i)
            if self._finished or lease is None or lease.worker != worker:
                return  # already reclaimed (or completed)
            self._reclaim_locked(i, worker, cause)

    def _reclaim_locked(
        self, i: int, worker: str, cause: str,
        error: Optional[RuntimeError] = None,
    ) -> None:
        lease = self._leases.pop(i)
        ex = self._executor
        assert ex is not None
        task = self._tasks[i]
        ex.progress.record_reclaim(task.label, worker, lease.attempt, cause)
        ex._end_cell(lease.span, "reclaimed")
        # A local worker that lost its lease is dead or wedged: stop it
        # (the main loop starts a replacement).
        proc = self._local.get(self._local_peers.get(worker, ""))
        if proc is not None:
            proc.terminate()
        self._fail_or_requeue_locked(
            i,
            error or LeaseExpired(
                f"cell {task.label} attempt {lease.attempt} on {worker}: {cause}"
            ),
        )


#: Sentinel returned by ``_dispatch`` to end a worker connection.
_CLOSE: int = -1


# ----------------------------------------------------------------------
# Worker agent


@dataclass
class WorkerSummary:
    """What one worker session did (printed by ``repro worker``)."""

    completed: int = 0
    failed: int = 0
    rejected: int = 0  # results the broker discarded as late/duplicate
    events: List[str] = field(default_factory=list)


class SweepWorker:
    """Agent loop of one worker host: lease, compute, stream back.

    Connects to a :class:`SweepBroker`, then repeats
    ``ready -> task -> result`` until the broker reports the sweep done
    (or ``max_tasks`` cells were computed). While a cell runs, a
    background thread heartbeats the held lease so the broker can tell
    "slow" from "dead". Cells execute through the exact code path the
    serial executor uses (:func:`~repro.runtime.executor._run_task_timed`,
    including the worker host's own ``REPRO_FAULT_PLAN``), so results
    are bit-identical to a local run by construction.
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = DEFAULT_BROKER_PORT,
        name: Optional[str] = None,
        timeout_s: float = 60.0,
        connect_timeout_s: float = 30.0,
        max_tasks: Optional[int] = None,
    ) -> None:
        self.host = host
        self.port = port
        self.name = name or f"{socket.gethostname()}:{os.getpid()}"
        self.timeout_s = timeout_s
        self.connect_timeout_s = connect_timeout_s
        self.max_tasks = max_tasks
        self._sock: Optional[socket.socket] = None
        self._send_lock = threading.Lock()
        self._heartbeat_s = 5.0
        self._held: Optional[int] = None  # index of the cell being computed
        self.summary = WorkerSummary()

    # -- plumbing -------------------------------------------------------

    def _send(self, message: Dict[str, object]) -> None:
        assert self._sock is not None
        with self._send_lock:
            send_frame(self._sock, message)

    def _recv(self) -> Dict[str, object]:
        """One broker reply; raises WorkerError on silence or close."""
        assert self._sock is not None
        self._sock.settimeout(self.timeout_s)
        try:
            msg = recv_frame(self._sock, strict=True)
        except socket.timeout:
            raise WorkerError(
                f"broker sent no reply within {self.timeout_s}s"
            ) from None
        except ProtocolError as exc:
            raise WorkerError(f"protocol violation from broker: {exc}") from None
        except ConnectionError as exc:
            raise WorkerError(f"broker connection lost: {exc}") from None
        if msg is None:
            raise WorkerError("broker closed the connection")
        if msg.get("type") == MSG_ERROR:
            raise WorkerError(f"broker error: {msg.get('error')}")
        return msg

    def _connect(self) -> None:
        deadline = time.monotonic() + self.connect_timeout_s
        attempt = 0
        while True:
            attempt += 1
            try:
                self._sock = socket.create_connection(
                    (self.host, self.port), timeout=self.timeout_s
                )
                return
            except OSError as exc:
                if time.monotonic() >= deadline:
                    raise WorkerError(
                        f"no broker on {self.host}:{self.port} after "
                        f"{self.connect_timeout_s:.0f}s: {exc}"
                    ) from None
                time.sleep(min(0.2 * attempt, 1.0))

    # -- the agent loop -------------------------------------------------

    def run(self) -> WorkerSummary:
        """Work the sweep to completion; returns the session summary."""
        self._connect()
        log = get_logger("worker")
        stop = threading.Event()
        beat = threading.Thread(
            target=self._heartbeat_loop, args=(stop,),
            name="sweep-worker-heartbeat", daemon=True,
        )
        try:
            self._send({
                "type": MSG_HELLO,
                "protocol": BROKER_PROTOCOL_VERSION,
                "worker": self.name,
            })
            hello = self._recv()
            if hello.get("type") != MSG_HELLO_OK:
                raise WorkerError(f"unexpected hello reply: {hello!r}")
            self._heartbeat_s = float(hello.get("heartbeat_s", 5.0))  # type: ignore[arg-type]
            log.info(
                f"connected to broker {self.host}:{self.port} "
                f"({hello.get('n_tasks')} task(s) in the sweep)"
            )
            beat.start()
            while True:
                self._send({"type": MSG_READY})
                msg = self._recv()
                mtype = msg.get("type")
                if mtype == MSG_DONE:
                    self.summary.events.append("sweep complete")
                    return self.summary
                if mtype == MSG_IDLE:
                    time.sleep(float(msg.get("retry_after_s", 0.5)))  # type: ignore[arg-type]
                    continue
                if mtype != MSG_TASK:
                    raise WorkerError(f"unexpected reply to ready: {msg!r}")
                self._run_cell(msg, log)
                if (
                    self.max_tasks is not None
                    and self.summary.completed >= self.max_tasks
                ):
                    self._send({"type": MSG_GOODBYE})
                    self.summary.events.append(
                        f"reached max_tasks={self.max_tasks}"
                    )
                    return self.summary
        finally:
            stop.set()
            if beat.is_alive():
                beat.join()
            if self._sock is not None:
                try:
                    self._sock.close()
                except OSError:
                    pass
                self._sock = None

    def _run_cell(self, msg: Dict[str, object], log) -> None:
        from repro.runtime.executor import _run_task_timed

        try:
            index = int(msg["index"])  # type: ignore[arg-type]
            attempt = int(msg["attempt"])  # type: ignore[arg-type]
            expected_key = str(msg["key"])
            task = sweep_task_from_wire(msg["task"])  # type: ignore[arg-type]
        except (KeyError, TypeError, ValueError, ProtocolError) as exc:
            raise WorkerError(f"malformed task frame: {exc}") from None
        if task.key() != expected_key:
            # Version skew or wire infidelity: refuse to compute a cell
            # whose identity does not match what the broker asked for.
            self._send({
                "type": MSG_FAIL, "index": index, "attempt": attempt,
                "error_type": "TaskKeyMismatch",
                "error": (
                    f"rebuilt task key {task.key()[:12]}... does not match "
                    f"broker key {expected_key[:12]}... "
                    f"(mismatched repro versions?)"
                ),
            })
            self._await_ack()
            self.summary.failed += 1
            return
        span_ctx = msg.get("span")
        log.info(f"leased {task.label} (attempt {attempt})")
        self._held = index
        try:
            payload, elapsed, spans = _run_task_timed(
                task, attempt, span_ctx,  # type: ignore[arg-type]
            )
        except Exception as exc:  # noqa: BLE001 - every failure crosses the wire
            self._held = None
            self._send({
                "type": MSG_FAIL, "index": index, "attempt": attempt,
                "error_type": type(exc).__name__, "error": str(exc),
            })
            self._await_ack()
            self.summary.failed += 1
            log.warning(f"{task.label} failed: {type(exc).__name__}: {exc}")
            return
        self._held = None
        if isinstance(payload, CorruptResult):
            self._send({
                "type": MSG_FAIL, "index": index, "attempt": attempt,
                "error_type": "CorruptResultError",
                "error": f"corrupt result for {task.label} (attempt {attempt})",
            })
            self._await_ack()
            self.summary.failed += 1
            return
        from repro.analysis.trace_io import run_result_to_dict

        self._send({
            "type": MSG_RESULT,
            "index": index,
            "attempt": attempt,
            "key": expected_key,
            "wall_s": elapsed,
            "result": result_to_wire(payload),
            "dict": run_result_to_dict(payload),
            "spans": spans or [],
        })
        if self._await_ack():
            self.summary.completed += 1
            log.info(f"{task.label} done in {elapsed:.2f}s")
        else:
            self.summary.rejected += 1
            log.info(f"{task.label} result discarded by broker (late?)")

    def _await_ack(self) -> bool:
        msg = self._recv()
        if msg.get("type") != MSG_ACK:
            raise WorkerError(f"expected ack, got {msg!r}")
        return bool(msg.get("accepted"))

    def _heartbeat_loop(self, stop: threading.Event) -> None:
        """Renew the held lease every ``heartbeat_s`` while a cell runs."""
        while not stop.wait(self._heartbeat_s):
            index = self._held
            if index is None:
                continue
            try:
                self._send({"type": MSG_HEARTBEAT, "index": index})
            except OSError:
                return  # broker gone; the main loop will notice


__all__ = [
    "BROKER_PROTOCOL_VERSION",
    "DEFAULT_BROKER_PORT",
    "LeaseExpired",
    "RemoteCellError",
    "SweepBroker",
    "SweepWorker",
    "WorkerError",
    "WorkerSummary",
    "error_from_wire",
    "objective_from_wire",
    "result_from_wire",
    "result_to_wire",
    "sweep_task_from_wire",
    "sweep_task_to_wire",
]
