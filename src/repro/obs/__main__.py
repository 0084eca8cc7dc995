"""CLI for the observability layer: ``python -m repro.obs <command>``.

Two subcommands analyse a Chrome trace without leaving the terminal,
mirroring how the paper instruments one transfer at a time (§IV's
microbenchmarks, Fig 3's analyzer capture):

* ``summary trace.json`` — per-component span statistics, latency
  histograms and queue-occupancy counter extrema;
* ``diff a.json b.json`` — per-pipeline-stage comparison of two traces
  (P2P vs staged, clean vs faulty, before vs after a change).

``python -m repro.bench EXPERIMENT... --trace trace.json`` writes the
trace (open it in https://ui.perfetto.dev).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .chrome import validate_chrome_trace
from .report import diff_traces, summarize_trace


def _load(path: str) -> dict:
    with Path(path).open(encoding="utf-8") as fh:
        return json.load(fh)


def _cmd_summary(args: argparse.Namespace) -> int:
    doc = _load(args.trace)
    problems = validate_chrome_trace(doc)
    if problems:
        print(f"note: {len(problems)} schema problem(s); first: {problems[0]}")
    print(summarize_trace(doc))
    return 0


def _cmd_diff(args: argparse.Namespace) -> int:
    print(
        diff_traces(
            _load(args.trace_a),
            _load(args.trace_b),
            label_a=Path(args.trace_a).stem,
            label_b=Path(args.trace_b).stem,
        )
    )
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs",
        description="Inspect simulation traces (Chrome trace_event JSON).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_summary = sub.add_parser("summary", help="per-component span/counter statistics")
    p_summary.add_argument("trace", help="exported trace JSON file")
    p_summary.set_defaults(fn=_cmd_summary)

    p_diff = sub.add_parser("diff", help="compare two exported traces")
    p_diff.add_argument("trace_a")
    p_diff.add_argument("trace_b")
    p_diff.set_defaults(fn=_cmd_diff)

    args = parser.parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    try:
        code = main()
        sys.stdout.flush()
    except BrokenPipeError:
        # Downstream pager/head closed the pipe: normal CLI termination,
        # not an error worth a traceback.
        import os

        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 0
    raise SystemExit(code)
