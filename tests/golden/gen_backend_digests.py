"""Regenerate ``backend_digests_v1.json`` — the 37-digest reference pin.

Run from the repo root against a tree whose default compilation path is
*known good* (historically: the pre-strategy-registry code):

    PYTHONPATH=src python tests/golden/gen_backend_digests.py

The fixture freezes one program digest per (backend, workload, seed)
cell so refactors of the pipeline internals (strategy registries,
architecture catalog, ...) can prove the default path is bit-identical.
Never regenerate it to paper over a digest change — that is the failure
the pin exists to catch.  Regenerate only when an intentional
algorithm change ships (and bump CACHE_SCHEMA_VERSION alongside).
"""

from __future__ import annotations

import json
import os

from repro.baselines import AtomiqueConfig, EnolaConfig
from repro.circuits.generators import (
    bernstein_vazirani,
    qaoa_regular,
    qft,
    vqe_linear_entanglement,
)
from repro.pipeline import REGISTRY, create_compiler, get_backend
from repro.schedule import NAProgram
from repro.schedule.serialize import program_digest

#: Cheap knobs per config family so the whole matrix compiles in
#: seconds.  These are *explicit overrides*: they enter the digest's
#: identity, so the pin is reproducible regardless of default changes.
FAST_OVERRIDES = {
    "enola": EnolaConfig(seed=0, mis_restarts=2, sa_iterations_per_qubit=10),
    "enola-naive-storage": EnolaConfig(
        seed=0, mis_restarts=2, sa_iterations_per_qubit=10
    ),
    "enola-windowed": EnolaConfig(
        seed=0, mis_restarts=2, sa_iterations_per_qubit=10, window_size=4
    ),
    "atomique": AtomiqueConfig(seed=0, sa_iterations_per_qubit=10),
}

WORKLOADS = {
    "qaoa8": lambda: qaoa_regular(8, degree=3, seed=1),
    "bv8": lambda: bernstein_vazirani(8, seed=0),
    "qft6": lambda: qft(6),
    "vqe8": lambda: vqe_linear_entanglement(8, seed=2),
}

#: The 9 pre-refactor backends; pinned explicitly (not REGISTRY.names())
#: so later registry additions cannot silently grow the fixture.
BACKENDS = (
    "powermove",
    "powermove-nonstorage",
    "powermove-noreorder",
    "powermove-fifo-grouping",
    "powermove-nointra",
    "enola",
    "enola-naive-storage",
    "enola-windowed",
    "atomique",
)

#: 9 backends x 4 workloads = 36 cells, plus one seed-1 cell = 37.
EXTRA_CELLS = (("powermove", "qaoa8", 1),)


def cells():
    for backend in BACKENDS:
        for workload in WORKLOADS:
            yield backend, workload, 0
    yield from EXTRA_CELLS


def compile_cell(backend: str, workload: str, seed: int) -> NAProgram:
    """Compile one (backend, workload, seed) cell of the pin."""
    spec = get_backend(backend)
    override = FAST_OVERRIDES.get(backend)
    if override is not None and seed != override.seed:
        from dataclasses import replace

        override = replace(override, seed=seed)
    config = spec.effective_config(override, seed, 1)
    compiler = create_compiler(backend, config)
    return compiler.compile(WORKLOADS[workload]()).program


def digest_for(backend: str, workload: str, seed: int) -> str:
    return program_digest(compile_cell(backend, workload, seed))


def main() -> None:
    entries = [
        {
            "backend": backend,
            "workload": workload,
            "seed": seed,
            "digest": digest_for(backend, workload, seed),
        }
        for backend, workload, seed in cells()
    ]
    assert len(entries) == 37, len(entries)
    out = os.path.join(os.path.dirname(__file__), "backend_digests_v1.json")
    with open(out, "w") as handle:
        json.dump({"version": 1, "digests": entries}, handle, indent=1)
        handle.write("\n")
    print(f"wrote {len(entries)} digests to {out}")
    assert REGISTRY is not None


if __name__ == "__main__":
    main()
