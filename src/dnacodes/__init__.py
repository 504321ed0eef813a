"""Constrained codes for DNA data storage.

Exact and asymptotic enumeration of homopolymer-run-limited and
AT/GC-balanced quaternary sequences, plus working encoders and decoders
for translating byte payloads into constrained strands.

The names below load their module on first access, so importing one
submodule, such as `dnacodes.cli` for `encode`, loads only what that
submodule needs.
"""

from importlib import import_module

# Each submodule, and the names this package exports from it.
_EXPORTS = {
    "asymptotics": (
        "CapacityResult", "capacity", "combined_redundancy", "efficiency_eta", "gamma",
        "leading_coefficient", "q_function", "rll_count_approx", "rll_redundancy",
    ),
    "counting": (
        "WeightProfile", "balance_redundancy", "near_balanced_count", "rll_count", "rll_count_gf",
        "weight_profile",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)

__version__ = "0.1.0"


def __getattr__(name: str):
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{_MODULE_OF[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_MODULE_OF})
