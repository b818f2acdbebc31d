"""Check a ``repro trace --jsonl`` file: schema, provenance, decisions.

Usage::

    PYTHONPATH=src python scripts/check_trace.py TRACE.jsonl [--observations]

Fails (exit 1) unless the stream validates against the trace schema
with exactly one header carrying a ``config_hash``, holds at least one
``epoch`` span, every epoch span carries its per-domain decisions, and
``oracle_sample`` spans are present. With ``--observations`` every epoch
span must also carry its observation (the input ``repro replay`` and
``repro learn extract`` need). Prints the per-type record counts.
"""

from __future__ import annotations

import argparse
import sys

from repro.telemetry import load_trace_jsonl, span_attrs, trace_meta, validate_records


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("trace")
    parser.add_argument("--observations", action="store_true",
                        help="require every epoch span to carry an observation")
    args = parser.parse_args(argv)

    records = load_trace_jsonl(args.trace)
    counts = validate_records(records)
    print(f"{args.trace}: record counts {counts}")
    problems = []
    if counts.get("trace") != 1:
        problems.append(f"expected exactly one trace header, got {counts.get('trace')}")
    meta = trace_meta(records) or {}
    if not meta.get("config_hash"):
        problems.append("header and run span carry no config_hash")
    epochs = span_attrs(records, "epoch")
    if not epochs:
        problems.append("no epoch spans")
    if not all(attrs["domains"] for attrs in epochs):
        problems.append("an epoch span has no per-domain decisions")
    if not span_attrs(records, "oracle_sample"):
        problems.append("no oracle_sample spans")
    if args.observations and not all("observation" in attrs for attrs in epochs):
        problems.append("an epoch span lacks its observation")
    for problem in problems:
        print(f"FAIL: {problem}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
