"""The online decision service: protocol, server, client, replay.

The heart of this suite is the bit-identical contract: a live
``DecisionService`` fed a recorded epoch trace must return exactly the
decisions the offline ``DvfsSimulation`` made - across designs, after
shed-and-resend, and with other sessions misbehaving around it.

Servers run on a private event loop in a daemon thread, bound to
ephemeral ports, so tests neither collide nor leak.
"""

from __future__ import annotations

import asyncio
import socket
import struct
import threading
import time

import pytest

from repro.config import small_config
from repro.runtime.cache import config_hash
from repro.runtime.wire import (
    ProtocolError,
    decode_payload,
    encode_frame,
    recv_frame,
    send_frame,
)
from repro.runtime.executor import RetryPolicy, SweepTask, run_task
from repro.service import protocol as proto
from repro.service.client import (
    DecisionClient,
    ServiceError,
    ServiceShutdown,
    SessionRejected,
    check_health,
)
from repro.service.replay import load_replay_trace, replay_trace
from repro.service.server import DecisionService, ServiceConfig
from repro.obs import Tracer
from repro.telemetry import span_attrs, validate_trace_file


# ----------------------------------------------------------------------
# Harness

class ServerHandle:
    """A DecisionService running on its own loop in a daemon thread."""

    def __init__(self, config: ServiceConfig) -> None:
        self.service = DecisionService(config)
        self.loop = asyncio.new_event_loop()
        started = threading.Event()

        def runner() -> None:
            asyncio.set_event_loop(self.loop)
            self.loop.run_until_complete(self.service.start())
            started.set()
            self.loop.run_forever()

        self.thread = threading.Thread(target=runner, daemon=True)
        self.thread.start()
        assert started.wait(10), "server failed to start"

    @property
    def port(self) -> int:
        return self.service.port

    @property
    def health_port(self) -> int:
        port = self.service.health_port
        assert port is not None
        return port

    def counter(self, name: str) -> float:
        return self.service.registry.counter(name).value

    def shutdown(self) -> None:
        asyncio.run_coroutine_threadsafe(
            self.service.shutdown(), self.loop
        ).result(timeout=30)

    def stop(self) -> None:
        if not self.service._closed.is_set():
            self.shutdown()
        self.loop.call_soon_threadsafe(self.loop.stop)
        self.thread.join(timeout=10)
        self.loop.close()


@pytest.fixture
def server():
    handle = ServerHandle(ServiceConfig(port=0, health_port=0))
    yield handle
    handle.stop()


def record_trace(path, design="PCSTALL", workload="dgemm", max_epochs=40):
    """Record a small replayable trace; returns (path, offline RunResult)."""
    config = small_config(n_cus=2, waves_per_cu=4)
    task = SweepTask(workload, design, config, scale=0.15,
                     max_epochs=max_epochs, oracle_sample_freqs=3,
                     collect_accuracy=True)
    with Tracer(jsonl_path=str(path), observations=True) as tracer:
        result = run_task(task, tracer=tracer)
    return str(path), result


@pytest.fixture(scope="module")
def pcstall_trace(tmp_path_factory):
    path = tmp_path_factory.mktemp("traces") / "pcstall.jsonl"
    return record_trace(path)


def open_raw_session(port, trace):
    """A raw socket session (bypasses DecisionClient's conveniences)."""
    sock = socket.create_connection(("127.0.0.1", port), timeout=30)
    sock.settimeout(30)
    send_frame(sock, {
        "type": "open",
        "protocol": proto.PROTOCOL_VERSION,
        "design": trace.design,
        "config": trace.sim_config_wire,
        "objective": trace.objective,
    })
    reply = recv_frame(sock)
    assert reply is not None and reply["type"] == "open_ok", reply
    return sock, reply


# ----------------------------------------------------------------------
# Protocol unit tests

def test_frame_round_trip():
    message = {"type": "ping", "x": [1.5, -2.25e-17], "s": "επω"}
    frame = encode_frame(message)
    (length,) = struct.unpack(">I", frame[:4])
    assert length == len(frame) - 4
    assert decode_payload(frame[4:]) == message


def test_frame_rejects_non_object_payload():
    with pytest.raises(ProtocolError):
        decode_payload(b"[1, 2, 3]")
    with pytest.raises(ProtocolError):
        decode_payload(b"not json")


def test_epoch_result_wire_round_trip(pcstall_trace):
    import json

    path, _ = pcstall_trace
    trace = load_replay_trace(path)
    for obs in trace.observations[:5]:
        result = proto.epoch_result_from_wire(obs["result"])
        # Re-encoding a decoded result reproduces the wire form exactly
        # (floats round-trip bit-for-bit through JSON repr).
        from repro.telemetry.schema import epoch_result_to_wire

        again = json.loads(json.dumps(epoch_result_to_wire(result)))
        assert again == obs["result"]


def _bad_captures(result_wire, json_safe=False):
    """(label, wire) pairs whose one CU or wave capture is malformed.

    ``json_safe`` drops the tuple case, which JSON turns into a list.
    """
    import copy

    mutations = [
        ("short", lambda cap: cap[:-1]),
        ("long", lambda cap: cap + [0]),
        ("str", lambda cap: "x" * len(cap)),
        ("dict", lambda cap: {str(i): v for i, v in enumerate(cap)}),
        # One element of a wrong type: index 3 is a CU's `issued` and a
        # wave's `stall_ns`, which the controller reads.
        ("str-element", lambda cap: cap[:3] + ["1e9"] + cap[4:]),
        ("none-element", lambda cap: cap[:3] + [None] + cap[4:]),
        ("bool-element", lambda cap: cap[:3] + [True] + cap[4:]),
    ]
    if not json_safe:
        mutations.append(("tuple", tuple))
    out = []
    for where in ("cu", "wave"):
        for label, mutate in mutations:
            bad = copy.deepcopy(result_wire)
            if where == "cu":
                bad["cu_stats"][0] = mutate(bad["cu_stats"][0])
            else:
                record = bad["wave_records"][0][0]
                record[4] = mutate(record[4])
            out.append((f"{where}-{label}", bad))
    return out


def test_epoch_result_from_wire_rejects_malformed_captures(pcstall_trace):
    path, _ = pcstall_trace
    trace = load_replay_trace(path)
    for label, bad in _bad_captures(trace.observations[0]["result"]):
        with pytest.raises(ProtocolError, match="capture"):
            proto.epoch_result_from_wire(bad)
            pytest.fail(label)


def _pc_table_state(controller):
    from dataclasses import astuple

    return [
        (t.lookups, t.hits, t.updates, t.evictions, [astuple(e) for e in t._entries])
        for t in controller.predictor.tables
    ]


def test_malformed_observation_is_rejected_without_state_change(server, pcstall_trace):
    path, _ = pcstall_trace
    trace = load_replay_trace(path)
    with DecisionClient(port=server.port).connect() as client:
        client.open_session(trace.design, trace.sim_config_wire,
                            objective=trace.objective)
        obs = trace.observations
        assert client.observe(0, obs[0]["result"], truth_lines=obs[0]["truth"]) \
            == trace.chosen[1]
        (session,) = server.service._sessions.values()
        before = _pc_table_state(session.controller)
        bad_wires = _bad_captures(obs[1]["result"], json_safe=True)
        for label, bad in bad_wires:
            with pytest.raises(ServiceError, match="bad_observation"):
                client.observe(1, bad, truth_lines=obs[1]["truth"])
            assert session.expected_epoch == 1, label
            assert _pc_table_state(session.controller) == before, label
        # The session is intact: the next well-formed observation still
        # gets the offline run's decision.
        assert client.observe(1, obs[1]["result"], truth_lines=obs[1]["truth"]) \
            == trace.chosen[2]
    assert server.counter("service_bad_requests") == len(bad_wires)


def test_sim_config_wire_round_trip():
    from repro.telemetry.schema import sim_config_to_wire

    config = small_config(n_cus=4, waves_per_cu=8, cus_per_domain=2)
    rebuilt = proto.sim_config_from_wire(sim_config_to_wire(config))
    assert rebuilt == config
    assert config_hash(rebuilt) == config_hash(config)


def test_sim_config_from_wire_rejects_unknown_fields():
    from repro.telemetry.schema import sim_config_to_wire

    wire = sim_config_to_wire(small_config(n_cus=2, waves_per_cu=4))
    wire["gpu"]["from_the_future"] = 1
    with pytest.raises(ProtocolError):
        proto.sim_config_from_wire(wire)


@pytest.mark.parametrize("name,expect", [
    ("", type(None)),
    ("EDP", "EDP"),
    ("ED2P", "ED2P"),
    ("ed2p", "ED2P"),
    ("ENERGY@5%", "ENERGY@5%"),
    ("cap5", "ENERGY@5%"),
    ("QOS@1000", "QOS@1000"),
    ("STATIC@1.7GHz", "STATIC@1.7GHz"),
])
def test_objective_from_name(name, expect):
    objective = proto.objective_from_name(name)
    if expect is type(None):
        assert objective is None
    else:
        assert objective.name == expect


def test_objective_from_name_rejects_garbage():
    with pytest.raises(ProtocolError):
        proto.objective_from_name("MAXIMIZE_VIBES")


# ----------------------------------------------------------------------
# Trace recording (the telemetry side of the contract)

def test_observation_attrs_validate(tmp_path):
    path = tmp_path / "obs.jsonl"
    config = small_config(n_cus=2, waves_per_cu=4)
    task = SweepTask("dgemm", "PCSTALL", config, scale=0.15, max_epochs=40,
                     oracle_sample_freqs=3, collect_accuracy=True)
    with Tracer(ring_size=4096, jsonl_path=str(path), observations=True) as tracer:
        result = run_task(task, tracer=tracer)

    counts = validate_trace_file(path)
    assert counts["trace"] == 1
    epochs = span_attrs(tracer.records, "epoch")
    assert len(epochs) == result.epochs
    assert all(attrs["observation"]["truth"] for attrs in epochs)
    (run,) = span_attrs(tracer.records, "run")
    assert run["sim_config"]
    assert tracer.dropped == 0


def test_record_observations_requires_jsonl():
    from repro.cli import main

    with pytest.raises(SystemExit, match="--jsonl"):
        main(["trace", "dgemm", "--cus", "2", "--waves", "4",
              "--scale", "0.15", "--observations"])


def test_load_replay_trace_needs_observations(tmp_path):
    path = tmp_path / "plain.jsonl"
    config = small_config(n_cus=2, waves_per_cu=4)
    task = SweepTask("dgemm", "PCSTALL", config, scale=0.15, max_epochs=40,
                     oracle_sample_freqs=3, collect_accuracy=True)
    with Tracer(jsonl_path=str(path)) as tracer:
        run_task(task, tracer=tracer)
    with pytest.raises(ValueError, match="--observations"):
        load_replay_trace(str(path))


# ----------------------------------------------------------------------
# The correctness anchor: bit-identical online replay

@pytest.mark.parametrize("design", ["PCSTALL", "CRISP", "ACCREAC", "STATIC@1.7"])
def test_replay_bit_identical(tmp_path, server, design):
    path, _ = record_trace(tmp_path / f"{design.replace('@', '_')}.jsonl",
                           design=design, max_epochs=30)
    report = replay_trace(path, port=server.port)
    assert report.bit_identical, report.render()
    assert report.decisions_compared == report.epochs_streamed > 0


def test_replay_cli_exit_codes(server, pcstall_trace):
    from repro.cli import main

    path, _ = pcstall_trace
    assert main(["replay", path, "--port", str(server.port)]) == 0


def test_open_mirrors_offline_first_decision(server, pcstall_trace):
    path, _ = pcstall_trace
    trace = load_replay_trace(path)
    with DecisionClient(port=server.port).connect() as client:
        decision = client.open_session(trace.design, trace.sim_config_wire,
                                       objective=trace.objective)
        assert decision == trace.chosen[0]
        assert client.n_domains == trace.n_domains


# ----------------------------------------------------------------------
# Session and error semantics

def test_oracle_design_rejected(server):
    with DecisionClient(port=server.port).connect() as client:
        with pytest.raises(SessionRejected) as excinfo:
            client.open_session("ORACLE", small_config(n_cus=2, waves_per_cu=4))
        assert excinfo.value.code == "unservable_design"


def test_unknown_design_rejected(server):
    with DecisionClient(port=server.port).connect() as client:
        with pytest.raises(SessionRejected) as excinfo:
            client.open_session("NOPE", small_config(n_cus=2, waves_per_cu=4))
        assert excinfo.value.code == "bad_open"


def test_out_of_order_epoch_rejected_without_state_change(server, pcstall_trace):
    path, _ = pcstall_trace
    trace = load_replay_trace(path)
    with DecisionClient(port=server.port).connect() as client:
        client.open_session(trace.design, trace.sim_config_wire,
                            objective=trace.objective)
        with pytest.raises(ServiceError, match="out_of_order"):
            client.observe(7, trace.observations[7]["result"],
                           truth_lines=trace.observations[7]["truth"])
        # The rejection changed nothing: the expected epoch still works
        # and the decision still matches the offline run.
        decision = client.observe(0, trace.observations[0]["result"],
                                  truth_lines=trace.observations[0]["truth"])
        assert decision == trace.chosen[1]
    assert server.counter("service_out_of_order") == 1


def test_session_cap_rejects_then_recovers(pcstall_trace):
    handle = ServerHandle(ServiceConfig(port=0, health_port=None, max_sessions=1))
    try:
        path, _ = pcstall_trace
        trace = load_replay_trace(path)
        with DecisionClient(port=handle.port).connect() as first:
            first.open_session(trace.design, trace.sim_config_wire,
                               objective=trace.objective)
            with DecisionClient(port=handle.port).connect() as second:
                with pytest.raises(SessionRejected) as excinfo:
                    second.open_session(trace.design, trace.sim_config_wire,
                                        objective=trace.objective)
                assert excinfo.value.code == "capacity"
        # First session closed; capacity is available again.
        deadline = time.monotonic() + 5
        while time.monotonic() < deadline:
            try:
                with DecisionClient(port=handle.port).connect() as third:
                    third.open_session(trace.design, trace.sim_config_wire,
                                       objective=trace.objective)
                break
            except SessionRejected:
                time.sleep(0.02)
        else:
            pytest.fail("capacity never freed after session close")
        assert handle.counter("service_rejects") >= 1
    finally:
        handle.stop()


def test_ping_and_orderly_close(server, pcstall_trace):
    path, _ = pcstall_trace
    trace = load_replay_trace(path)
    client = DecisionClient(port=server.port).connect()
    client.open_session(trace.design, trace.sim_config_wire,
                        objective=trace.objective)
    client.ping()
    client.close()
    deadline = time.monotonic() + 5
    while time.monotonic() < deadline:
        if server.counter("service_sessions_closed") >= 1:
            break
        time.sleep(0.02)
    assert server.counter("service_sessions_closed") >= 1
    assert server.counter("service_disconnects") == 0


# ----------------------------------------------------------------------
# Fault injection: disconnects and slow consumers

def test_abrupt_disconnect_leaves_server_serving(server, pcstall_trace):
    path, _ = pcstall_trace
    trace = load_replay_trace(path)

    sock, _ = open_raw_session(server.port, trace)
    for epoch in range(3):
        obs = trace.observations[epoch]
        send_frame(sock, {"type": "observe", "seq": epoch, "epoch": epoch,
                                "result": obs["result"], "truth": obs["truth"]})
        reply = recv_frame(sock)
        assert reply is not None and reply["type"] == "decision"
    sock.close()  # vanish mid-session, no goodbye

    deadline = time.monotonic() + 5
    while time.monotonic() < deadline:
        if server.counter("service_disconnects") >= 1:
            break
        time.sleep(0.02)
    assert server.counter("service_disconnects") >= 1

    # The server is unharmed: a full replay is still bit-identical.
    report = replay_trace(path, port=server.port)
    assert report.bit_identical, report.render()


def test_slow_consumer_is_shed_then_recovers_bit_identical(pcstall_trace):
    handle = ServerHandle(ServiceConfig(port=0, health_port=None, max_inflight=2))
    try:
        path, _ = pcstall_trace
        trace = load_replay_trace(path)
        n_epochs = len(trace.observations)
        sock, open_reply = open_raw_session(handle.port, trace)
        decisions = {0: open_reply["decision"]}

        # One sendall of every observation at once: the reader drains
        # them from its buffer without yielding to the batch worker, so
        # everything past the inflight cap is deterministically shed.
        burst = b"".join(
            encode_frame({
                "type": "observe", "seq": epoch, "epoch": epoch,
                "result": trace.observations[epoch]["result"],
                "truth": trace.observations[epoch]["truth"],
            })
            for epoch in range(n_epochs)
        )
        sock.sendall(burst)

        # Each burst frame earns exactly one reply: a decision (admitted
        # in order), a shed (over the inflight cap), or an out_of_order
        # error (admitted after earlier frames were shed - the epoch
        # guard rejects it without touching state). Shed and errored
        # epochs both just need an in-order resend.
        shed, resend, decided = set(), set(), set()
        for _ in range(n_epochs):
            reply = recv_frame(sock)
            assert reply is not None
            if reply["type"] == "shed":
                shed.add(reply["seq"])
                resend.add(reply["seq"])
            elif reply["type"] == "error":
                assert reply["code"] == "out_of_order", reply
                resend.add(reply["seq"])
            else:
                assert reply["type"] == "decision", reply
                decisions[reply["epoch"]] = reply["decision"]
                decided.add(reply["seq"])
        assert shed, "burst past the inflight cap must shed something"
        assert decided, "admitted observations must still be decided"

        # Recovery: resend every undecided epoch in order, lock-step.
        # The server's expected-epoch guard makes the resends exact.
        for epoch in sorted(resend):
            for attempt in range(50):
                obs = trace.observations[epoch]
                send_frame(sock, {
                    "type": "observe", "seq": 1000 + epoch, "epoch": epoch,
                    "result": obs["result"], "truth": obs["truth"],
                })
                reply = recv_frame(sock)
                assert reply is not None
                if reply["type"] == "shed":
                    time.sleep(0.01)
                    continue
                assert reply["type"] == "decision", reply
                decisions[reply["epoch"]] = reply["decision"]
                break
            else:
                pytest.fail(f"epoch {epoch} still shed after 50 resends")
        sock.close()

        assert handle.counter("service_shed") >= len(shed)
        # Every offline decision was reproduced despite the shedding.
        for epoch in range(n_epochs):
            assert decisions[epoch] == trace.chosen[epoch], f"epoch {epoch}"
    finally:
        handle.stop()


# ----------------------------------------------------------------------
# Graceful shutdown

def test_graceful_shutdown_drains_and_notifies(pcstall_trace):
    handle = ServerHandle(ServiceConfig(port=0, health_port=None))
    try:
        path, _ = pcstall_trace
        trace = load_replay_trace(path)
        sock, _ = open_raw_session(handle.port, trace)
        for epoch in range(3):
            obs = trace.observations[epoch]
            send_frame(sock, {"type": "observe", "seq": epoch,
                                    "epoch": epoch, "result": obs["result"],
                                    "truth": obs["truth"]})
            reply = recv_frame(sock)
            assert reply is not None and reply["type"] == "decision"

        # One more observation in flight while shutdown runs: depending
        # on timing it is decided (drained), shed as draining, or beaten
        # by the shutdown notice - all legal; a hang is not.
        obs = trace.observations[3]
        send_frame(sock, {"type": "observe", "seq": 3, "epoch": 3,
                                "result": obs["result"], "truth": obs["truth"]})
        handle.shutdown()

        saw_shutdown = False
        while True:
            reply = recv_frame(sock)
            if reply is None:
                break
            if reply["type"] == "decision":
                assert reply["decision"] == trace.chosen[4]
            elif reply["type"] == "shutdown":
                saw_shutdown = True
            else:
                assert reply["type"] == "shed", reply
        sock.close()
        assert saw_shutdown, "clients must be told the server is going away"
        assert handle.counter("service_drain_clean") == 1
        assert handle.counter("service_drain_timeout") == 0
    finally:
        handle.stop()


def test_open_rejected_while_draining(server):
    port = server.port  # the listener closes on shutdown; resolve first
    server.shutdown()
    with pytest.raises((SessionRejected, ServiceShutdown, OSError)):
        client = DecisionClient(
            port=port,
            retry=RetryPolicy(max_attempts=1),
        ).connect()
        client.open_session("PCSTALL", small_config(n_cus=2, waves_per_cu=4))


# ----------------------------------------------------------------------
# Health and metrics endpoints

def test_healthz_and_metrics(server, pcstall_trace):
    body = check_health(port=server.health_port)
    assert body["http_status"] == 200
    assert body["status"] == "ok"

    path, _ = pcstall_trace
    replay_trace(path, port=server.port)

    import http.client
    import json

    conn = http.client.HTTPConnection("127.0.0.1", server.health_port, timeout=5)
    try:
        conn.request("GET", "/metrics")
        response = conn.getresponse()
        assert response.status == 200
        snapshot = json.loads(response.read().decode("utf-8"))
    finally:
        conn.close()
    assert snapshot["counters"]["service_decisions"] > 0
    assert snapshot["counters"]["service_sessions_opened"] >= 1
    assert "service_batch_size" in snapshot["histograms"]
    hists = snapshot["histograms"]
    # One decision-time sample per decision, one queue wait per admitted
    # observation (every observation here was admitted and decided).
    decided = snapshot["counters"]["service_decisions"]
    assert hists["service_decision_seconds"]["total"] == decided
    assert hists["service_queue_wait_seconds"]["total"] == decided
    assert hists["service_decision_seconds"]["bounds"][0] < 1e-3
    assert 0.0 < hists["service_decision_seconds"]["sum"] < 30.0

    conn = http.client.HTTPConnection("127.0.0.1", server.health_port, timeout=5)
    try:
        conn.request("GET", "/nope")
        assert conn.getresponse().status == 404
    finally:
        conn.close()


# ----------------------------------------------------------------------
# The CLI entry points, end to end (subprocess + signals)

def test_serve_subprocess_sigterm_drains(tmp_path, pcstall_trace):
    import os
    import re
    import signal
    import subprocess
    import sys

    path, _ = pcstall_trace
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(os.path.dirname(__file__), "..", "src")
    process = subprocess.Popen(
        [sys.executable, "-m", "repro.cli", "serve",
         "--port", "0", "--health-port", "0"],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
        text=True, env=env,
    )
    try:
        assert process.stdout is not None
        banner = process.stdout.readline()
        match = re.search(r"listening on 127\.0\.0\.1:(\d+), health on :(\d+)",
                          banner)
        assert match, f"unexpected banner: {banner!r}"
        port, health_port = int(match.group(1)), int(match.group(2))

        from repro.service.client import wait_until_healthy

        wait_until_healthy(port=health_port, timeout_s=15.0)
        report = replay_trace(path, port=port)
        assert report.bit_identical, report.render()

        process.send_signal(signal.SIGTERM)
        out, _ = process.communicate(timeout=30)
        assert process.returncode == 0, out
        assert "drained:" in out
    finally:
        if process.poll() is None:
            process.kill()
            process.communicate(timeout=10)
