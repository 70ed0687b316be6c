from .core import (
    DomainStrip,
    ImmersionReport,
    NoImmersion,
    SecondFundamentalForm,
    codazzi_residuals,
    gauss_residual,
    sample_strip_points,
    strip_contains,
    universal_form,
    verify_immersion,
)
from .obstruction import (
    IMMERSION_KEYS,
    ObstructionVerdict,
    Outcome,
    TraceStep,
    closed_form,
    finite_jet_obstruction,
)

__all__ = [
    "IMMERSION_KEYS",
    "DomainStrip",
    "ImmersionReport",
    "NoImmersion",
    "ObstructionVerdict",
    "Outcome",
    "SecondFundamentalForm",
    "closed_form",
    "codazzi_residuals",
    "finite_jet_obstruction",
    "gauss_residual",
    "sample_strip_points",
    "TraceStep",
    "strip_contains",
    "universal_form",
    "verify_immersion",
]
