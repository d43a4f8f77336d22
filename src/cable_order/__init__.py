"""Certified non-left-orderability for surgeries on cables of torus knots.

The package builds the group presentations involved, replays rewriting
derivations through a checked proof verifier, and emits self-contained JSON
certificates refuting every generator sign assignment.
"""

from .derivations import (
    Axiom,
    Context,
    DerivationScript,
    Equation,
    Step,
    StepError,
    check_script,
)
from .normal_form import NonEliminable, TorusNormalForm, eliminate_t, equal_in_torus_group, normal_form
from .obstruction import (
    Inconclusive,
    ObstructionCertificate,
    SignAssignment,
    UnsupportedParameters,
    certificate_from_json_dict,
    certify_beta,
    certify_slope,
    evaluate_sign,
    refute_all,
    replay,
)
from .presentations import (
    GroupPresentation,
    ParameterError,
    bezout_torus,
    cable_presentation,
    surgery_relator,
    torus_presentation,
)
from .slopes import CramerTriple, Slope, beta_slope, cramer, genus, lspace_window_check
from .words import Word, abelianize, concat, invert, power



def __getattr__(name: str):
    # from the CLI on first use: `python -m cable_order.cli` warns if the package loaded it
    if name == "peripheral_invariance_check":
        from .cli import peripheral_invariance_check

        return peripheral_invariance_check
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "Axiom",
    "Context",
    "CramerTriple",
    "DerivationScript",
    "Equation",
    "GroupPresentation",
    "Inconclusive",
    "NonEliminable",
    "ObstructionCertificate",
    "ParameterError",
    "SignAssignment",
    "Slope",
    "Step",
    "StepError",
    "TorusNormalForm",
    "UnsupportedParameters",
    "Word",
    "abelianize",
    "beta_slope",
    "bezout_torus",
    "cable_presentation",
    "certificate_from_json_dict",
    "certify_beta",
    "certify_slope",
    "check_script",
    "concat",
    "cramer",
    "eliminate_t",
    "equal_in_torus_group",
    "evaluate_sign",
    "genus",
    "invert",
    "lspace_window_check",
    "normal_form",
    "peripheral_invariance_check",
    "power",
    "refute_all",
    "replay",
    "surgery_relator",
    "torus_presentation",
]
