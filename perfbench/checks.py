"""Output checks: every failed check counts one failed job.

The checks never trust the compiler under test alone: programs are
re-validated, compared against digests committed with the benchmark
(for the default seed) and against the cold compile of the same job,
and small rows are simulated by an independent state-vector
interpreter.
"""

from __future__ import annotations

import json
import math
import os

from repro.engine.engine import JobResult
from repro.schedule.serialize import program_digest
from repro.schedule.validator import validate_program
from repro.verify.statevector import MAX_SIM_QUBITS, verify_program_semantics

from corpus import DEFAULT_SEED, job_id

REFERENCE_PATH = os.path.join(
    os.path.dirname(os.path.abspath(__file__)), "reference_digests.json"
)


def load_reference(seed: int) -> dict[str, str] | None:
    """Committed program digests, for the default seed only."""
    if seed != DEFAULT_SEED:
        return None
    with open(REFERENCE_PATH, encoding="utf-8") as handle:
        return json.load(handle)["programs"]


def check_result(
    result: JobResult,
    reference: dict[str, str] | None,
    expected: dict[str, str] | None = None,
) -> tuple[str | None, str | None]:
    """``(program digest, failure reason)`` of one engine result.

    ``expected`` maps job ids to the digest an earlier (cold) compile of
    the same job produced in this run.
    """
    if not result.ok:
        return None, f"job failed: {result.error.describe()}"
    name = job_id(result.job)
    try:
        validate_program(result.program)
    except Exception as exc:  # any validator complaint is a wrong output
        return None, f"{name}: invalid program: {exc}"
    digest = program_digest(result.program)
    if reference is not None and reference.get(name) != digest:
        return digest, f"{name}: digest differs from the committed one"
    if expected is not None and expected.get(name, digest) != digest:
        return digest, f"{name}: digest differs from the cold compile"
    circuit = result.job.circuit
    if circuit is not None and circuit.num_qubits <= MAX_SIM_QUBITS:
        try:
            verify_program_semantics(result.program, circuit)
        except Exception as exc:
            return digest, f"{name}: not equivalent to its circuit: {exc}"
    return digest, None


def quality(results: list[JobResult]) -> tuple[float, float]:
    """``(T_exe geomean in us over all programs, -mean log10 of the
    Eq. (1) fidelity over the Table-2 rows)``."""
    texe = [r.fidelity.execution_time_us for r in results if r.ok]
    fids = [
        r.fidelity.total
        for r in results
        if r.ok and not r.job.workload_name.startswith("R3-")
    ]
    return geomean(texe), neg_log10_mean(fids)


def geomean(values: list[float]) -> float:
    if not values:
        return 0.0
    return math.exp(sum(math.log(v) for v in values) / len(values))


def neg_log10_mean(fidelities: list[float]) -> float:
    """``-mean(log10 F)``: the mean log10 fidelity negated, so the
    metric is positive and lower is better."""
    if not fidelities:
        return 0.0
    return -sum(math.log10(f) for f in fidelities) / len(fidelities)
