"""Trace record schema: self-describing metadata plus validation.

Every archived telemetry artifact - the trace JSONL stream, the Perfetto
trace, ``repro profile --json`` output, ``repro run --json`` summaries -
embeds a ``meta`` block built by :func:`build_meta`:

* ``schema_version`` - bumped whenever a record field changes meaning,
* ``repro_version`` - the package that produced the artifact,
* ``engine`` / ``config_hash`` - which timing engine and exactly which
  platform configuration (the same canonical content hash the result
  cache keys on), so archived traces are attributable long after the
  defaults move.

:func:`check_meta` is the read-side counterpart; :func:`validate_records`
/ :func:`validate_trace_file` gate a whole stream (CI runs the
file-level check on the bench-smoke artifact).

One stream, written by :class:`repro.obs.trace.Tracer`, one JSON
object per line:

``trace``
    Stream header: the meta block plus the trace id.
``span``
    One finished wall-clock span: name, tracer-scoped monotonic span id,
    parent span id (empty string at the root), start/end wall
    nanoseconds, free-form ``attrs``. Two span names carry a fixed
    attribute schema (:data:`SPAN_ATTR_FIELDS`), written by
    :class:`repro.telemetry.digest.RunDigest`:

    ``run``
        Start attrs: run identity (workload, design, objective, domain
        count, epoch length, frequency grid, engine, config hash).
        Finish attrs: the :class:`~repro.dvfs.simulation.RunResult`
        digest (epochs, delay, energy, conservation totals, accuracy)
        and ``pc``, the per-PC prediction-error attribution, worst
        first (:data:`PC_FIELDS`). The run span finishes after its
        epochs, so it follows them in the stream.
    ``epoch``
        One per executed epoch: sim-clock window, epoch energy, V/f
        transitions, total commits, PC-table deltas (lookups / hits /
        updates / evictions over that epoch), and ``domains``: one
        entry per V/f domain (:data:`DOMAIN_FIELDS`) with the chosen
        frequency, predicted sensitivity line and commit count, actual
        commits, relative error, oracle truth (fitted line, r^2, the
        frequency the objective would have chosen given the truth) when
        sampling ran, and the stall/busy split. The span's own duration
        is the epoch's wall time.

    With ``Tracer(observations=True)`` the ``run`` span also embeds the
    full ``sim_config`` and every ``epoch`` span an ``observation``:
    the *complete* predictor input of that epoch - the
    :class:`~repro.gpu.gpu.EpochResult` in wire form
    (:func:`epoch_result_to_wire`) plus the oracle truth lines when
    sampling ran. With these, ``repro replay`` can re-drive a live
    decision service through the exact offline epoch sequence.
``alert``
    A drift monitor threshold crossing or recovery
    (``repro.obs.drift.DriftAlert.as_record``), interleaved with the
    spans that surround it.
"""

from __future__ import annotations

import json
import pathlib
from typing import Any, Dict, Iterable, List, Mapping, Optional, Tuple, Union

PathLike = Union[str, pathlib.Path]

#: Bump when a record field is added/removed or changes meaning.
TRACE_SCHEMA_VERSION = 2

#: Fields every record of a type must carry.
REQUIRED_FIELDS: Dict[str, Tuple[str, ...]] = {
    "trace": ("type", "trace_id", "schema_version", "repro_version"),
    "span": ("type", "trace_id", "span_id", "parent_id", "name",
             "t_start_ns", "t_end_ns"),
    "alert": ("type", "signal", "kind", "value", "threshold",
              "window_count", "at_index"),
}

#: Attributes the simulation's ``run`` and ``epoch`` spans must carry
#: (value may be null where the quantity is undefined, e.g. no
#: prediction yet).
SPAN_ATTR_FIELDS: Dict[str, Tuple[str, ...]] = {
    "run": ("workload", "design", "n_domains", "epoch_ns", "frequencies_ghz",
            "epochs", "delay_ns", "energy_total", "pc"),
    "epoch": ("epoch", "t_start_ns", "t_end_ns", "energy", "transitions",
              "committed", "domains"),
}

#: Fields of each entry of an ``epoch`` span's ``domains`` list.
DOMAIN_FIELDS: Tuple[str, ...] = (
    "epoch", "domain", "freq_ghz", "pred_commits", "actual_commits",
    "rel_error", "oracle_freq_ghz", "mispredicted", "busy_ns", "stall_ns",
    "committed",
)

#: Fields of each entry of a ``run`` span's ``pc`` list.
PC_FIELDS: Tuple[str, ...] = ("pc_idx", "samples", "committed", "weighted_error")


def epoch_result_to_wire(result: Any) -> Dict[str, object]:
    """JSON-encodable form of an :class:`~repro.gpu.gpu.EpochResult`.

    Uses the same flat ``capture()`` tuples the GPU snapshot machinery
    defined for per-CU and per-wavefront stats, so the wire format stays
    in lock-step with the simulator's own notion of "complete state".
    Python's ``json`` emits shortest-repr floats, which round-trip IEEE
    binary64 exactly - decoding the wire form reconstructs a result
    whose every float is bit-identical to the original
    (``repro.service.protocol.epoch_result_from_wire`` is the inverse).
    """
    return {
        "t_start": result.t_start,
        "t_end": result.t_end,
        "frequencies_ghz": list(result.frequencies_ghz),
        "transitions": result.transitions,
        "cu_stats": [list(s.capture()) for s in result.cu_stats],
        "wave_records": [
            [
                [r.wf_id, r.age_rank, r.start_pc_idx, r.next_pc_idx,
                 list(r.stats.capture())]
                for r in cu_records
            ]
            for cu_records in result.wave_records
        ],
    }


def sim_config_to_wire(config: Any) -> Dict[str, object]:
    """JSON-encodable form of a :class:`~repro.config.SimConfig`.

    The exact canonical structure the result cache hashes (see
    :func:`repro.runtime.cache.config_hash`), so a trace's embedded
    config and its ``config_hash`` meta field always agree.
    """
    from repro.runtime.cache import canonicalize

    wire = canonicalize(config)
    if not isinstance(wire, dict):  # pragma: no cover - SimConfig is a dataclass
        raise TypeError(f"config did not canonicalise to a mapping: {config!r}")
    return wire


def build_meta(config=None, **extra) -> Dict[str, object]:
    """Self-describing metadata block for a telemetry artifact.

    ``config`` is a :class:`~repro.config.SimConfig`; when given, the
    engine name and the canonical config hash are embedded. ``extra``
    key/values (workload, design, ...) are passed through.
    """
    from repro import __version__
    meta: Dict[str, object] = {
        "schema_version": TRACE_SCHEMA_VERSION,
        "repro_version": __version__,
    }
    if config is not None:
        from repro.runtime.cache import config_hash

        meta["engine"] = config.gpu.engine
        meta["config_hash"] = config_hash(config)
    meta.update(extra)
    return meta


def check_meta(meta: Mapping[str, object]) -> Dict[str, object]:
    """Validate a meta block; returns it, raises ``ValueError`` if bad."""
    if not isinstance(meta, Mapping):
        raise ValueError(f"meta must be a mapping, got {type(meta).__name__}")
    version = meta.get("schema_version")
    if version != TRACE_SCHEMA_VERSION:
        raise ValueError(
            f"unsupported telemetry schema version {version!r} "
            f"(this build reads version {TRACE_SCHEMA_VERSION})"
        )
    if not meta.get("repro_version"):
        raise ValueError("meta lacks repro_version")
    return dict(meta)


def _as_mapping(value: object) -> Mapping[str, Any]:
    return value if isinstance(value, Mapping) else {}


def attrs_of(record: Mapping[str, object]) -> Mapping[str, Any]:
    """A span record's ``attrs`` (empty for anything else)."""
    return _as_mapping(record.get("attrs"))


def _validate_span_attrs(record: Mapping[str, object]) -> None:
    """Check a ``run``/``epoch`` span's attrs (other spans are free-form)."""
    name = str(record.get("name"))
    required = SPAN_ATTR_FIELDS.get(name)
    if required is None:
        return
    attrs = attrs_of(record)
    missing = [f for f in required if f not in attrs]
    if missing:
        raise ValueError(f"{name} span attrs missing fields: {missing}")
    key, fields = ("domains", DOMAIN_FIELDS) if name == "epoch" else ("pc", PC_FIELDS)
    entries = attrs[key]
    if not isinstance(entries, list):
        raise ValueError(f"{name} span {key} is not a list")
    for entry in entries:
        missing = [f for f in fields if f not in _as_mapping(entry)]
        if missing:
            raise ValueError(f"{name} span {key} entry missing fields: {missing}")
    if "observation" in attrs and "result" not in _as_mapping(attrs["observation"]):
        raise ValueError("epoch span observation lacks its result")


def validate_record(record: Mapping[str, object]) -> str:
    """Validate one record; returns its type, raises ``ValueError``."""
    rtype = record.get("type")
    required = REQUIRED_FIELDS.get(str(rtype))
    if required is None:
        raise ValueError(f"unknown record type {rtype!r}")
    missing = [f for f in required if f not in record]
    if missing:
        raise ValueError(f"{rtype} record missing fields: {missing}")
    if rtype == "trace":
        check_meta(record)
    elif rtype == "span":
        _validate_span_attrs(record)
    return str(rtype)


def validate_records(records: Iterable[Mapping[str, object]]) -> Dict[str, int]:
    """Validate a record stream; returns per-type counts.

    The stream must start with its ``trace`` header and hold no other.
    """
    counts: Dict[str, int] = {}
    first = True
    for record in records:
        rtype = validate_record(record)
        if first and rtype != "trace":
            raise ValueError(
                f"stream must start with a trace header record, got {rtype!r}"
            )
        if not first and rtype == "trace":
            raise ValueError("stream holds a second trace header record")
        first = False
        counts[rtype] = counts.get(rtype, 0) + 1
    if first:
        raise ValueError("empty record stream")
    return counts


def load_trace_jsonl(path: PathLike) -> List[Dict[str, object]]:
    """Read a trace JSONL stream back as a list of record dicts."""
    records: List[Dict[str, object]] = []
    with open(path, "r", encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, 1):
            line = line.strip()
            if not line:
                continue
            try:
                records.append(json.loads(line))
            except json.JSONDecodeError as exc:
                raise ValueError(f"{path}:{line_no}: not valid JSON ({exc})") from None
    return records


def validate_trace_file(path: PathLike) -> Dict[str, int]:
    """Load and validate a JSONL trace; returns per-type record counts."""
    return validate_records(load_trace_jsonl(path))


def span_attrs(
    records: Iterable[Mapping[str, object]], name: str
) -> List[Mapping[str, Any]]:
    """The attrs of every ``name`` span in the stream, in stream order."""
    return [
        attrs_of(r)
        for r in records
        if r.get("type") == "span" and r.get("name") == name
    ]


def trace_meta(records: Iterable[Mapping[str, object]]) -> Optional[Dict[str, object]]:
    """The stream's meta: its ``trace`` header plus its first ``run``
    span's attrs (run identity and summary, without the ``pc`` list).

    None when the stream has no header.
    """
    records = list(records)
    header = next((r for r in records if r.get("type") == "trace"), None)
    if header is None:
        return None
    meta = check_meta(header)
    runs = span_attrs(records, "run")
    if runs:
        meta.update((k, v) for k, v in runs[0].items() if k != "pc")
    return meta


__all__ = [
    "DOMAIN_FIELDS",
    "PC_FIELDS",
    "SPAN_ATTR_FIELDS",
    "TRACE_SCHEMA_VERSION",
    "REQUIRED_FIELDS",
    "attrs_of",
    "build_meta",
    "epoch_result_to_wire",
    "sim_config_to_wire",
    "check_meta",
    "span_attrs",
    "validate_record",
    "validate_records",
    "validate_trace_file",
    "load_trace_jsonl",
    "trace_meta",
]
