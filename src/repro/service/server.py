"""The asyncio decision server: per-session controllers, micro-batched.

One :class:`DecisionService` owns:

* **Sessions** - each ``open`` builds a fresh controller via
  :func:`~repro.dvfs.designs.make_controller` from the client-supplied
  design + config, so session state (PC tables, objective feedback,
  current frequencies) is exactly the state an offline
  :class:`~repro.dvfs.simulation.DvfsSimulation` would hold. Designs
  needing *future* oracle truth (ORACLE) are rejected at open: an
  online service cannot pre-execute its clients' next epoch.
* **Micro-batching** - observations from all sessions funnel into one
  queue drained by a single batch worker, up to ``batch_max`` per
  pass. One worker means predictor updates never need locks, and a
  pass over N sessions amortises scheduling the way the paper's DVFS
  manager amortises per-domain decisions within an epoch boundary.
* **Admission control & backpressure** - at most ``max_sessions``
  concurrent sessions; per session at most ``max_inflight`` queued
  observations, beyond which (or when the client stops reading its
  responses, detected via the transport write buffer) the reader
  answers ``shed`` immediately *without touching predictor state*, so
  a shed epoch can simply be resent. Responses are written without
  awaiting drain - a slow consumer can therefore never deadlock the
  batch worker; memory stays bounded because overflowing sessions are
  shed, not buffered.
* **Graceful shutdown** - :meth:`DecisionService.shutdown` stops
  accepting, lets the batch worker finish everything already admitted
  (bounded by ``drain_timeout_s``), notifies every session with a
  ``shutdown`` frame and closes. ``repro serve`` wires SIGTERM/SIGINT
  to it.
* **Observability** - ``/healthz`` (200 serving / 503 draining) and
  ``/metrics`` (a :class:`~repro.telemetry.metrics.MetricsRegistry`
  snapshot with build meta + config hash as JSON, or Prometheus text
  exposition via ``?format=prometheus`` / ``Accept: text/plain``) over
  minimal hand-rolled HTTP on a second listener. An optional
  :class:`~repro.obs.trace.Tracer` spans every connect -> session ->
  request -> decision, and an optional
  :class:`~repro.obs.drift.DriftMonitor` watches the shed rate - both
  strictly observational: decisions are bit-identical with or without
  them (``repro replay`` against a traced server pins this down).

Epoch ordering is enforced per session: an ``observe`` whose epoch
index is not the next expected one gets an ``error`` reply and changes
nothing, which is what makes SHED-and-resend sound - a resent epoch is
either the expected one (applied once) or stale (rejected).
"""

from __future__ import annotations

import asyncio
import json
import time
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, Optional, Tuple

from repro.dvfs.designs import make_controller
from repro.obs.log import get_logger
from repro.runtime.wire import ProtocolError, encode_frame, read_frame
from repro.service import protocol as proto
from repro.telemetry.metrics import BATCH_BUCKETS, MetricsRegistry

if TYPE_CHECKING:
    from repro.obs.drift import DriftMonitor
    from repro.obs.trace import Span, Tracer

_log = get_logger("service")

_HTTP_STATUS_TEXT = {
    200: "OK",
    404: "Not Found",
    405: "Method Not Allowed",
    503: "Service Unavailable",
}


@dataclass(frozen=True)
class ServiceConfig:
    """Deployment knobs of one :class:`DecisionService`."""

    host: str = "127.0.0.1"
    #: Decision port; 0 binds an ephemeral port (tests).
    port: int = proto.DEFAULT_PORT
    #: Health/metrics HTTP port; 0 = ephemeral, None = disabled.
    health_port: Optional[int] = proto.DEFAULT_HEALTH_PORT
    #: Admission cap: concurrent sessions beyond this are rejected.
    max_sessions: int = 64
    #: Per-session cap on admitted-but-unanswered observations; the
    #: overflow is shed (backpressure to the client, not memory growth).
    max_inflight: int = 8
    #: Most observations one batch-worker pass decides.
    batch_max: int = 32
    #: Transport write-buffer bytes beyond which a session counts as a
    #: slow consumer and its observations are shed.
    write_buffer_limit: int = 1 << 20
    #: How long shutdown waits for admitted work to finish.
    drain_timeout_s: float = 10.0
    #: Default model-registry reference served to sessions opening the
    #: bare ``LEARNED`` design (``repro serve --model``). Sessions that
    #: pin a model via ``LEARNED@<ref>`` override this per open.
    model_ref: Optional[str] = None

    def __post_init__(self) -> None:
        if self.max_sessions < 1:
            raise ValueError("max_sessions must be >= 1")
        if self.max_inflight < 1:
            raise ValueError("max_inflight must be >= 1")
        if self.batch_max < 1:
            raise ValueError("batch_max must be >= 1")


class _Session:
    """Server-side state of one client connection."""

    __slots__ = ("sid", "writer", "controller", "design", "inflight",
                 "expected_epoch", "closed", "span")

    def __init__(self, sid: int, writer: asyncio.StreamWriter, controller, design: str):
        self.sid = sid
        self.writer = writer
        self.controller = controller
        self.design = design
        #: Observations admitted to the batch queue, not yet answered.
        self.inflight = 0
        #: The only epoch index the next observe may carry.
        self.expected_epoch = 0
        self.closed = False
        #: The session's tracing span, when the service has a tracer.
        self.span: Optional["Span"] = None


class DecisionService:
    """The serving loop. ``await start()``, then ``await wait_closed()``."""

    def __init__(
        self,
        config: ServiceConfig = ServiceConfig(),
        registry: Optional[MetricsRegistry] = None,
        tracer: Optional["Tracer"] = None,
        drift: Optional["DriftMonitor"] = None,
    ) -> None:
        self.config = config
        self.registry = registry or MetricsRegistry()
        #: Optional span tracer: connect -> session -> request ->
        #: decision. Spans only observe; decisions are bit-identical
        #: with or without one (``repro replay`` pins this down).
        self.tracer = tracer
        #: Optional drift monitor; fed one shed_rate observation per
        #: observe frame (shed=1, admitted=0).
        self.drift = drift
        self._sessions: Dict[int, _Session] = {}
        self._next_sid = 0
        self._queue: "asyncio.Queue[tuple]" = asyncio.Queue()
        self._server: Optional[asyncio.AbstractServer] = None
        self._health_server: Optional[asyncio.AbstractServer] = None
        self._batch_task: Optional[asyncio.Task] = None
        self._draining = False
        self._closed = asyncio.Event()
        self._started_at = 0.0

    # ------------------------------------------------------------------
    # Lifecycle

    async def start(self) -> None:
        self._started_at = time.monotonic()
        self._server = await asyncio.start_server(
            self._handle_client, self.config.host, self.config.port
        )
        if self.config.health_port is not None:
            self._health_server = await asyncio.start_server(
                self._handle_health, self.config.host, self.config.health_port
            )
        self._batch_task = asyncio.get_running_loop().create_task(self._batch_loop())

    @property
    def port(self) -> int:
        """The bound decision port (resolves ephemeral port 0)."""
        assert self._server is not None, "service not started"
        return self._server.sockets[0].getsockname()[1]

    @property
    def health_port(self) -> Optional[int]:
        if self._health_server is None:
            return None
        return self._health_server.sockets[0].getsockname()[1]

    @property
    def draining(self) -> bool:
        return self._draining

    async def wait_closed(self) -> None:
        await self._closed.wait()

    async def shutdown(self) -> None:
        """Graceful drain: stop accepting, finish admitted work, notify.

        Idempotent; a second call awaits the first one's completion.
        """
        if self._draining:
            await self._closed.wait()
            return
        self._draining = True
        if self._server is not None:
            self._server.close()

        deadline = time.monotonic() + self.config.drain_timeout_s
        while time.monotonic() < deadline:
            if self._queue.empty() and not any(
                s.inflight for s in self._sessions.values()
            ):
                break
            await asyncio.sleep(0.01)
        drained = self._queue.empty() and not any(
            s.inflight for s in self._sessions.values()
        )
        self.registry.inc(
            "service_drain_clean" if drained else "service_drain_timeout"
        )

        for session in list(self._sessions.values()):
            self._write(session, {"type": proto.MSG_SHUTDOWN, "drained": drained})
            session.closed = True
        for session in list(self._sessions.values()):
            try:
                # Bounded flush: the notify frame should reach clients,
                # but one wedged consumer must not stall the shutdown.
                await asyncio.wait_for(session.writer.drain(), timeout=1.0)
            except (asyncio.TimeoutError, ConnectionError):
                pass
            session.writer.close()

        if self._batch_task is not None:
            self._batch_task.cancel()
            try:
                await self._batch_task
            except asyncio.CancelledError:
                pass
        if self._health_server is not None:
            self._health_server.close()
            await self._health_server.wait_closed()
        if self._server is not None:
            await self._server.wait_closed()
        self._closed.set()

    # ------------------------------------------------------------------
    # Decision protocol

    async def _handle_client(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        reg = self.registry
        tr = self.tracer
        conn_span = tr.start("connect") if tr is not None else None
        session: Optional[_Session] = None
        try:
            try:
                msg = await read_frame(reader)
            except ProtocolError as exc:
                self._reply(writer, {"type": proto.MSG_ERROR,
                                     "code": "protocol", "error": str(exc)})
                return
            if msg is None:
                return
            session = self._open_session(msg, writer)
            if session is None:
                return
            if tr is not None:
                session.span = tr.start(
                    "session", parent=conn_span,
                    session=session.sid, design=session.design,
                )

            while True:
                try:
                    msg = await read_frame(reader)
                except ProtocolError as exc:
                    self._write(session, {"type": proto.MSG_ERROR,
                                          "code": "protocol", "error": str(exc)})
                    break
                if msg is None:
                    # EOF without a close frame: an abrupt disconnect
                    # (unless we closed the transport ourselves to drain).
                    if not self._draining:
                        reg.inc("service_disconnects")
                    break
                mtype = msg.get("type")
                if mtype == proto.MSG_OBSERVE:
                    self._admit(session, msg)
                elif mtype == proto.MSG_PING:
                    self._write(session, {"type": proto.MSG_PONG})
                elif mtype == proto.MSG_CLOSE:
                    self._write(session, {"type": proto.MSG_BYE})
                    break
                else:
                    self._write(session, {
                        "type": proto.MSG_ERROR, "code": "unknown_type",
                        "error": f"unknown message type {mtype!r}",
                    })
        finally:
            if session is not None:
                session.closed = True
                self._sessions.pop(session.sid, None)
                reg.inc("service_sessions_closed")
                _log.info(
                    "session closed",
                    extra={"session": session.sid,
                           "epochs": session.expected_epoch},
                )
                if session.span is not None:
                    tr.finish(session.span, epochs=session.expected_epoch)
            if conn_span is not None:
                tr.finish(conn_span)
            writer.close()

    def _open_session(self, msg, writer: asyncio.StreamWriter) -> Optional[_Session]:
        """Admission + controller construction for an ``open`` frame."""
        reg = self.registry

        def reject(code: str, error: str) -> None:
            reg.inc("service_rejects")
            _log.warning(f"open rejected: {error}", extra={"code": code})
            self._reply(writer, {"type": proto.MSG_ERROR, "code": code,
                                 "error": error})

        if msg.get("type") != proto.MSG_OPEN:
            reject("expected_open",
                   f"first frame must be {proto.MSG_OPEN!r}, got {msg.get('type')!r}")
            return None
        version = msg.get("protocol", proto.PROTOCOL_VERSION)
        if version != proto.PROTOCOL_VERSION:
            reject("protocol_version",
                   f"server speaks protocol {proto.PROTOCOL_VERSION}, "
                   f"client sent {version!r}")
            return None
        if self._draining:
            reject("draining", "server is shutting down")
            return None
        if len(self._sessions) >= self.config.max_sessions:
            reject("capacity",
                   f"session cap reached ({self.config.max_sessions})")
            return None

        design = str(msg.get("design", ""))
        try:
            sim_config = proto.sim_config_from_wire(msg["config"])
            objective = proto.objective_from_name(str(msg.get("objective", "")))
            # Unknown designs and unresolvable LEARNED model references
            # both surface as ValueError and reject as bad opens.
            controller = make_controller(
                design, sim_config, objective,
                model_ref=self.config.model_ref,
            )
        except (ProtocolError, KeyError, ValueError) as exc:
            reject("bad_open", str(exc))
            return None
        if controller.predictor.needs_future_truth:
            # ORACLE samples the *upcoming* epoch by forking the GPU;
            # a server only ever sees epochs that already happened.
            reject("unservable_design",
                   f"design {design!r} needs future oracle truth and "
                   f"cannot be served online")
            return None

        self._next_sid += 1
        session = _Session(self._next_sid, writer, controller, design)
        self._sessions[session.sid] = session
        reg.inc("service_sessions_opened")
        gauge = reg.gauge("service_sessions_peak")
        gauge.set(max(gauge.value, len(self._sessions)))
        _log.info(
            "session opened",
            extra={"session": session.sid, "design": design},
        )

        # Mirror the offline loop: decide() runs before the first epoch.
        decision = controller.decide()
        self._write(session, {
            "type": proto.MSG_OPEN_OK,
            "session": session.sid,
            "protocol": proto.PROTOCOL_VERSION,
            "design": design,
            "n_domains": sim_config.gpu.n_domains,
            "epoch": 0,
            "decision": list(decision),
        })
        return session

    def _admit(self, session: _Session, msg) -> None:
        """Queue an observation, or shed it when the session is over cap."""
        reg = self.registry
        tr = self.tracer
        reg.inc("service_requests")
        transport = session.writer.transport
        slow = (
            transport is not None
            and transport.get_write_buffer_size() > self.config.write_buffer_limit
        )
        if self._draining or session.inflight >= self.config.max_inflight or slow:
            reg.inc("service_shed")
            reason = ("draining" if self._draining
                      else "slow_consumer" if slow else "inflight_cap")
            if self.drift is not None:
                self.drift.observe_shed(True)
            if tr is not None:
                tr.event(
                    "shed", parent=session.span,
                    session=session.sid, reason=reason,
                    epoch=msg.get("epoch"),
                )
            _log.warning(
                "observation shed",
                extra={"session": session.sid, "reason": reason,
                       "epoch": msg.get("epoch")},
            )
            self._write(session, {
                "type": proto.MSG_SHED,
                "seq": msg.get("seq"),
                "epoch": msg.get("epoch"),
                "reason": reason,
            })
            return
        if self.drift is not None:
            self.drift.observe_shed(False)
        req_span = None
        if tr is not None:
            req_span = tr.start(
                "request", parent=session.span,
                session=session.sid, epoch=msg.get("epoch"),
            )
        session.inflight += 1
        self._queue.put_nowait((session, msg, req_span))

    async def _batch_loop(self) -> None:
        """Single consumer of the observation queue.

        Waits for one item, then opportunistically drains up to
        ``batch_max`` - one pass decides for every session that had
        work pending, which is the micro-batching: under concurrent
        load the per-wakeup cost is shared across sessions.
        """
        reg = self.registry
        tr = self.tracer
        while True:
            batch = [await self._queue.get()]
            while len(batch) < self.config.batch_max:
                try:
                    batch.append(self._queue.get_nowait())
                except asyncio.QueueEmpty:
                    break
            reg.inc("service_batches")
            reg.histogram("service_batch_size", BATCH_BUCKETS).observe(len(batch))
            for session, msg, req_span in batch:
                dec_span = (
                    tr.start("decision", parent=req_span)
                    if tr is not None and req_span is not None
                    else None
                )
                try:
                    reply = self._decide(session, msg)
                except Exception as exc:  # never let one request kill the loop
                    reg.inc("service_internal_errors")
                    _log.error(
                        f"internal error deciding for session {session.sid}: {exc}",
                        extra={"session": session.sid},
                    )
                    reply = {"type": proto.MSG_ERROR, "code": "internal",
                             "seq": msg.get("seq"), "error": str(exc)}
                if dec_span is not None:
                    tr.finish(dec_span)
                session.inflight -= 1
                self._write(session, reply)
                if req_span is not None:
                    tr.finish(
                        req_span,
                        status=(reply or {}).get("type", "none"),
                    )

    def _decide(self, session: _Session, msg) -> Optional[Dict[str, object]]:
        """observe() + decide() for one admitted observation."""
        reg = self.registry
        if session.closed:
            return None
        seq = msg.get("seq")
        epoch = msg.get("epoch")
        if epoch != session.expected_epoch:
            # No state change: stale or out-of-order epochs (e.g. a
            # client retrying an epoch that was actually applied) are
            # rejected, never double-applied.
            reg.inc("service_out_of_order")
            return {
                "type": proto.MSG_ERROR, "code": "out_of_order", "seq": seq,
                "expected_epoch": session.expected_epoch,
                "error": f"expected epoch {session.expected_epoch}, got {epoch!r}",
            }
        controller = session.controller
        try:
            result = proto.epoch_result_from_wire(msg["result"])
            if len(result.cu_stats) != controller.config.gpu.n_cus:
                raise ProtocolError(
                    f"observation has {len(result.cu_stats)} CUs, "
                    f"session platform has {controller.config.gpu.n_cus}"
                )
            truth = None
            if controller.predictor.needs_elapsed_truth:
                if msg.get("truth") is None:
                    raise ProtocolError(
                        f"design {session.design!r} requires oracle truth "
                        f"lines with every observation"
                    )
                truth = proto.lines_from_wire(msg["truth"])
        except (ProtocolError, KeyError) as exc:
            reg.inc("service_bad_requests")
            return {"type": proto.MSG_ERROR, "code": "bad_observation",
                    "seq": seq, "error": str(exc)}

        controller.observe(result, true_domain_lines=truth)
        decision = controller.decide()
        session.expected_epoch = int(epoch) + 1
        reg.inc("service_decisions")
        return {
            "type": proto.MSG_DECISION,
            "seq": seq,
            "epoch": session.expected_epoch,
            "decision": list(decision),
        }

    # ------------------------------------------------------------------
    # Writing

    def _write(self, session: _Session, message: Optional[Dict[str, object]]) -> None:
        """Fire-and-forget frame write.

        Deliberately no ``await drain()``: the batch worker must never
        block on one slow client. Memory stays bounded because a
        session whose write buffer grows past ``write_buffer_limit``
        has its further observations shed rather than answered.
        """
        if message is None or session.closed:
            return
        try:
            session.writer.write(encode_frame(message))
        except (ConnectionError, RuntimeError):
            session.closed = True

    @staticmethod
    def _reply(writer: asyncio.StreamWriter, message: Dict[str, object]) -> None:
        """Pre-session write (open rejections, protocol errors)."""
        try:
            writer.write(encode_frame(message))
        except (ConnectionError, RuntimeError):
            pass

    # ------------------------------------------------------------------
    # Health / metrics HTTP

    async def _handle_health(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            request_line = await asyncio.wait_for(reader.readline(), timeout=5.0)
            accept = ""
            while True:  # consume headers up to the blank line
                line = await asyncio.wait_for(reader.readline(), timeout=5.0)
                if line in (b"\r\n", b"\n", b""):
                    break
                header = line.decode("latin-1", "replace")
                if header.lower().startswith("accept:"):
                    accept = header.split(":", 1)[1].strip()
            parts = request_line.decode("latin-1").split()
            method = parts[0] if parts else ""
            path = parts[1] if len(parts) > 1 else ""
            status, payload, content_type = self._route(method, path, accept)
            head = (
                f"HTTP/1.1 {status} {_HTTP_STATUS_TEXT.get(status, 'OK')}\r\n"
                f"Content-Type: {content_type}\r\n"
                f"Content-Length: {len(payload)}\r\n"
                f"Connection: close\r\n\r\n"
            )
            writer.write(head.encode("latin-1") + payload)
            await writer.drain()
        except (asyncio.TimeoutError, ConnectionError):
            pass
        finally:
            writer.close()

    @staticmethod
    def _wants_prometheus(query: str, accept: str) -> bool:
        """Scrape-format negotiation: explicit ``?format=`` wins, then
        an Accept header asking for text/plain (what Prometheus sends)."""
        params = dict(
            part.split("=", 1) for part in query.split("&") if "=" in part
        )
        fmt = params.get("format", "")
        if fmt:
            return fmt == "prometheus"
        return "text/plain" in accept or "openmetrics" in accept

    def _meta(self) -> Dict[str, object]:
        """Build provenance: what produced these numbers, exactly."""
        from repro.runtime.cache import config_hash
        from repro.telemetry.schema import build_meta

        return build_meta(config_hash=config_hash(self.config))

    def _route(
        self, method: str, path: str, accept: str = ""
    ) -> Tuple[int, bytes, str]:
        from repro import __version__

        def as_json(status: int, body: Dict[str, object]) -> Tuple[int, bytes, str]:
            return (
                status,
                json.dumps(body, sort_keys=True).encode("utf-8"),
                "application/json",
            )

        path, _, query = path.partition("?")
        if method != "GET":
            return as_json(405, {"error": "only GET is served"})
        if path == "/healthz":
            status = 503 if self._draining else 200
            return as_json(status, {
                "status": "draining" if self._draining else "ok",
                "version": __version__,
                "sessions": len(self._sessions),
                "uptime_s": round(time.monotonic() - self._started_at, 3),
            })
        if path == "/metrics":
            meta = self._meta()
            if self._wants_prometheus(query, accept):
                from repro.obs.prom import CONTENT_TYPE, render_prometheus

                reg = self.registry
                reg.gauge("service_sessions").set(len(self._sessions))
                text = render_prometheus(
                    reg,
                    labels={
                        "repro_version": str(meta["repro_version"]),
                        "config_hash": str(meta["config_hash"])[:12],
                    },
                )
                return 200, text.encode("utf-8"), CONTENT_TYPE
            snapshot = self.registry.to_dict()
            snapshot["sessions"] = len(self._sessions)
            snapshot["meta"] = meta
            snapshot["config_hash"] = meta["config_hash"]
            return as_json(200, snapshot)
        return as_json(
            404, {"error": f"no route {path!r} (try /healthz or /metrics)"}
        )


__all__ = ["DecisionService", "ServiceConfig"]
