"""Benchmark entry point.

Run from the repository root::

    python3 perfbench/run.py --workload compile-cold --seed 0 \\
        --seconds 20 --trace 0

Workloads: ``compile-cold``, ``cache-warm`` and ``service-mixed`` (see
``perfbench/NOTES.md``).  ``--trace 0`` prints the end-to-end metrics,
``--trace 1`` the per-layer ones.  The last stdout line is the result
object ``{"correct", "attempted", "failed", "metrics"}``; the line
before it is a report with machine facts, input digests and sample
counts.  ``--write-reference`` recompiles the default seed's batch and
rewrites ``perfbench/reference_digests.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
#: Scratch space for caches, queues and daemon output (git-ignored).
WORK_ROOT = os.path.join(ROOT, ".bench_build", "perfbench")

WORKLOADS = ("compile-cold", "cache-warm", "service-mixed")

#: End-to-end metrics and their units, printed by every --trace 0 run.
END_TO_END = {
    "setup_s": "s",
    "batch_s": "s",
    "texe_us_geomean": "us",
    "fid_neglog10": "log10",
    "peak_rss_mb": "MB",
    "ok_frac": "ratio",
}


def machine_facts() -> dict:
    try:
        import numpy

        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = "absent"
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10, check=True,
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        commit = "unknown (not a git checkout)"
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "commit": commit,
    }


def write_reference() -> None:
    from repro.engine import CompilationEngine
    from repro.schedule.serialize import program_digest

    import corpus

    inputs = corpus.batch_inputs(corpus.DEFAULT_SEED)
    results = CompilationEngine().run(corpus.batch_jobs(inputs))
    doc = {
        "seed": corpus.DEFAULT_SEED,
        "inputs": corpus.input_digests(inputs),
        "programs": {
            corpus.job_id(r.job): program_digest(r.program)
            for r in results
        },
    }
    path = os.path.join(HERE, "reference_digests.json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(doc, handle, indent=1, sort_keys=True)
        handle.write("\n")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-reference", action="store_true")
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"error: no repro sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    if args.write_reference:
        write_reference()
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    os.makedirs(WORK_ROOT, exist_ok=True)
    workdir = tempfile.mkdtemp(dir=WORK_ROOT, prefix=f"{args.workload}-")
    try:
        if args.workload == "service-mixed":
            import service as workload
        else:
            import batch as workload
        outcome = workload.run(
            args.workload, args.seed, args.seconds, bool(args.trace),
            workdir,
        )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    failed = len(outcome.failures)
    attempted = max(outcome.attempted, 1)
    if not args.trace:
        outcome.metrics["ok_frac"] = 1.0 - failed / attempted
        units = END_TO_END
    else:
        from tracer import PER_LAYER as units
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "machine": machine_facts(),
        **outcome.report,
        "failures": outcome.failures[:20],
    }
    print(json.dumps({"report": report}, sort_keys=True))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": outcome.metrics[name], "unit": unit}
            for name, unit in units.items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
