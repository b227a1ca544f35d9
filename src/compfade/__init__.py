"""compfade: alpha-eta-F and alpha-kappa-F composite fading distributions.

Analytical envelope/SNR densities, CDF series with a truncation bound for
both families, closed-form CDF expressions, outage probability with high-SNR
asymptotics (diversity and coding gains), special-case reductions, and an
independent physical-model Monte-Carlo sampler for validation.

Every series takes its termination policy from a SeriesControl argument,
SeriesControl() where it is left out; compfade reads no environment
variable.
"""
from .aef import AefDist, AefEnvelope
from .akf import CLOSED_FORM_GUARD, AkfDist, AkfEnvelope
from .cases import CaseId, LatticeCheck, LatticeReport, check_lattice, reduce
from .mc import (
    EmpiricalDist,
    PhysAef,
    PhysAkf,
    ks_distance,
    ks_threshold,
    make_phys,
    sample_aef_envelope,
    sample_akf_envelope,
    sample_inv_nakagami_sq,
)
from .outage import GainPair, asymptotic_outage_aef, asymptotic_outage_akf, gains, outage
from .params import (
    AefParams,
    AkfParams,
    Format,
    Geometry,
    convert_format,
    geometry,
    omega,
    upsilon,
)
from .series import (
    ConvergenceError,
    DomainError,
    LaneResult,
    SeriesControl,
    SeriesResult,
)
from .specfun import (
    beta,
    gauss_2f1,
    humbert_psi1,
    kdf_2_1,
    kummer_1f1,
    ln_gamma,
    pochhammer,
)

__version__ = "0.1.0"

__all__ = [
    "AefDist",
    "AefEnvelope",
    "AkfDist",
    "AkfEnvelope",
    "AefParams",
    "AkfParams",
    "CLOSED_FORM_GUARD",
    "CaseId",
    "ConvergenceError",
    "DomainError",
    "EmpiricalDist",
    "Format",
    "GainPair",
    "Geometry",
    "LaneResult",
    "LatticeCheck",
    "LatticeReport",
    "PhysAef",
    "PhysAkf",
    "SeriesControl",
    "SeriesResult",
    "asymptotic_outage_aef",
    "asymptotic_outage_akf",
    "beta",
    "check_lattice",
    "convert_format",
    "gains",
    "gauss_2f1",
    "geometry",
    "humbert_psi1",
    "kdf_2_1",
    "ks_distance",
    "ks_threshold",
    "kummer_1f1",
    "ln_gamma",
    "make_phys",
    "omega",
    "outage",
    "pochhammer",
    "reduce",
    "sample_aef_envelope",
    "sample_akf_envelope",
    "sample_inv_nakagami_sq",
    "upsilon",
    "__version__",
]
