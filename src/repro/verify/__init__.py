"""Independent semantic verification (dense state-vector simulation).

The simulator needs numpy, which nothing else in the package does, so
:mod:`.statevector` loads on the first use of one of the names below:
``import repro`` works without numpy, and only a verification raises
``ImportError`` there.
"""

from importlib import import_module

__all__ = [
    "MAX_SIM_QUBITS",
    "SimulationError",
    "StateVector",
    "simulate_circuit",
    "simulate_program_gates",
    "verify_program_semantics",
]


def __getattr__(name: str):
    if name in __all__:
        return getattr(import_module(".statevector", __name__), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
