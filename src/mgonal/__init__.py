"""Representability of integers by weighted m-gonal forms.

Public surface: exact polygonal arithmetic (`forms`), global sieves and the
auxiliary quadratic/linear system (`represent`), p-adic decision kernels
(`local`), the reduced-form / k-window machinery (`reduction`), escalator
trees and regularity audits (`escalator`), and a batch CLI (`cli`).

Importing the package loads none of these modules.  Each export and each
submodule is imported on first access (PEP 562) and then kept in the package
namespace, so a program pays only for what it uses: numpy, for one, loads
with `represent`, the sieve module.
"""

from importlib import import_module

_EXPORTS = {
    "forms": (
        "Domain",
        "MgonalForm",
        "Decomposition",
        "polygonal_number",
        "is_polygonal",
        "decompose",
        "polygonal_values",
    ),
    "represent": (
        "RepresentedSet",
        "SystemInstance",
        "represented_set",
        "represents",
        "solve_system",
        "truant_up_to",
    ),
    "local": (
        "LocalReason",
        "LocalVerdict",
        "LocalProfile",
        "quad_diag_represents_zp",
        "mgonal_represents_zp",
        "relevant_primes",
        "locally_represented",
        "local_exceptions",
    ),
    "reduction": (
        "ReducedForm",
        "SqrtVal",
        "KWindow",
        "build_reduced_form",
        "reduced_rhs",
        "nonneg_certificate",
        "k_window",
        "feasible_k",
    ),
    "escalator": (
        "EscalatorNode",
        "ExceptionReport",
        "GammaEstimate",
        "GrowthProbe",
        "node_truant",
        "build_tree",
        "t_d5",
        "local_universal_quad",
        "gamma_estimate",
        "exceptions",
        "growth_probe",
    ),
}
_SUBMODULES = frozenset(_EXPORTS) | {"cli", "errors"}
_OWNER = {name: module for module, names in _EXPORTS.items() for name in names}

__version__ = "0.1.0"

__all__ = [*_OWNER, "__version__"]


def __getattr__(name: str):
    if name in _OWNER:
        value = getattr(import_module(f".{_OWNER[name]}", __name__), name)
    elif name in _SUBMODULES:
        value = import_module(f".{name}", __name__)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_OWNER, *_SUBMODULES})
