"""Representability of integers by weighted m-gonal forms.

Public surface: exact polygonal arithmetic (`forms`), global sieves and the
auxiliary quadratic/linear system (`represent`), p-adic decision kernels
(`local`), the reduced-form / k-window machinery (`reduction`), escalator
trees and regularity audits (`escalator`), and a batch CLI (`cli`).
"""

from .forms import (
    Decomposition,
    Domain,
    MgonalForm,
    decompose,
    is_polygonal,
    polygonal_number,
    polygonal_values,
)
from .represent import (
    RepresentedSet,
    SystemInstance,
    represented_set,
    represents,
    solve_system,
    truant_up_to,
)
from .local import (
    LocalProfile,
    LocalReason,
    LocalVerdict,
    local_exceptions,
    locally_represented,
    mgonal_represents_zp,
    quad_diag_represents_zp,
    relevant_primes,
)
from .reduction import (
    KWindow,
    ReducedForm,
    SqrtVal,
    build_reduced_form,
    feasible_k,
    k_window,
    nonneg_certificate,
    reduced_rhs,
)
from .escalator import (
    EscalatorNode,
    ExceptionReport,
    GammaEstimate,
    GrowthProbe,
    build_tree,
    exceptions,
    gamma_estimate,
    growth_probe,
    local_universal_quad,
    node_truant,
    t_d5,
)

__version__ = "0.1.0"

__all__ = [
    "Domain",
    "MgonalForm",
    "Decomposition",
    "polygonal_number",
    "is_polygonal",
    "decompose",
    "polygonal_values",
    "RepresentedSet",
    "SystemInstance",
    "represented_set",
    "represents",
    "solve_system",
    "truant_up_to",
    "LocalReason",
    "LocalVerdict",
    "LocalProfile",
    "quad_diag_represents_zp",
    "mgonal_represents_zp",
    "relevant_primes",
    "locally_represented",
    "local_exceptions",
    "ReducedForm",
    "SqrtVal",
    "KWindow",
    "build_reduced_form",
    "reduced_rhs",
    "nonneg_certificate",
    "k_window",
    "feasible_k",
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
    "__version__",
]
