"""Benchmark-owned daemon launcher for the ``service-mixed`` workload.

Builds a :class:`repro.service.server.ServiceServer` through its public
constructor (memory cache, TCP on an ephemeral loopback port), prints
its address to ``--address-out`` once it listens, and serves until a
``shutdown`` op (or SIGTERM) stops it.  It then writes ``--stats-out``:
its peak RSS and, with ``--trace``, the per-layer spans of
:mod:`tracer` summarised into metrics.  Traced and untraced daemons run
in the same process layout; only the wrappers differ.

Usage::

    python3 perfbench/daemon.py --queue-dir DIR --address-out FILE \\
        --stats-out FILE [--trace]
"""

from __future__ import annotations

import argparse
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

from repro.service.server import ServiceServer  # noqa: E402

from measure import peak_rss_mb  # noqa: E402
from tracer import Tracer, layer_metrics  # noqa: E402

#: Worker threads of the daemon under test (``repro serve --workers 2``).
WORKERS = 2


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--queue-dir", required=True)
    parser.add_argument("--address-out", required=True)
    parser.add_argument("--stats-out", required=True)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args()
    tracer = Tracer()
    if args.trace:
        tracer.install_engine()
        tracer.install_service()
    server = ServiceServer(
        args.queue_dir, "127.0.0.1:0", cache="memory",
        workers=WORKERS,
    )
    server.start()
    _write_atomic(args.address_out, server.address)
    server.wait_stopped()
    stats = {"peak_rss_mb": peak_rss_mb()}
    if args.trace:
        tracer.uninstall()
        jobs = [s for s in tracer.spans if s[0] == "worker.job"]
        first_submit = min(
            s[1] for s in tracer.spans if s[0] == "queue.submit"
        )
        window = max(s[2] for s in jobs) - first_submit
        layers = layer_metrics(tracer)
        layers["queue.records"] = sum(server.queue.counts().values())
        layers["worker.busy_frac"] = (
            sum(tracer.values["worker.busy"]) / (WORKERS * window)
        )
        # Share of the workers' engine.run time its traced children
        # (cache, deserialise, fidelity, keying, circuits) cover.
        layers["trace.coverage_frac"] = 1.0 - (
            sum(s[3] for s in jobs) / sum(s[2] - s[1] for s in jobs)
        )
        stats["layers"] = layers
    _write_atomic(args.stats_out, json.dumps(stats))
    return 0


def _write_atomic(path: str, text: str) -> None:
    """Write ``text`` so a reader polling ``path`` never sees half."""
    with open(path + ".tmp", "w", encoding="utf-8") as handle:
        handle.write(text)
    os.replace(path + ".tmp", path)


if __name__ == "__main__":
    sys.exit(main())
