"""Final incidence of indirect taxes propagated through input-output accounts.

Workflow: load a bundle of accounts, redistribute trade/transport margins,
build the coefficient system, propagate first-stage taxes through the
production network until everything lands on final demand, then express the
result as tax-exclusive effective rates per demand component.
"""

from .accounts import (
    Activity,
    BALANCE_RTOL,
    BundleError,
    BundleMetadata,
    COMPONENT_ORDER,
    CheckResult,
    DEFAULT_REPORT_COMPONENTS,
    DemandComponent,
    IOAccounts,
    N_COMPONENTS,
    TaxDestinationTable,
    ValidationReport,
    load_bundle,
    save_bundle,
    validate,
)
from .engine import (
    CONDITION_LIMIT,
    CONSERVATION_RTOL,
    CoefficientSystem,
    IncidenceResult,
    SingularSystemError,
    TRUNCATION_TOL,
    Truncation,
    apply_scenario,
    build_system,
    propagate_closed_form,
    propagate_truncated,
)
from .margins import MarginAdjustment, MarginError, redistribute_margins
from .rates import (
    DISPLAY_THRESHOLD,
    RateReport,
    component_shares,
    effective_rates,
    first_stage_intermediate_share,
    single_rate_equivalent,
)

__version__ = "0.1.0"

__all__ = [
    "Activity",
    "BALANCE_RTOL",
    "BundleError",
    "BundleMetadata",
    "COMPONENT_ORDER",
    "CheckResult",
    "CONDITION_LIMIT",
    "CONSERVATION_RTOL",
    "CoefficientSystem",
    "DEFAULT_REPORT_COMPONENTS",
    "DISPLAY_THRESHOLD",
    "DemandComponent",
    "IOAccounts",
    "IncidenceResult",
    "MarginAdjustment",
    "MarginError",
    "N_COMPONENTS",
    "RateReport",
    "SingularSystemError",
    "TRUNCATION_TOL",
    "TaxDestinationTable",
    "Truncation",
    "ValidationReport",
    "apply_scenario",
    "build_system",
    "component_shares",
    "effective_rates",
    "first_stage_intermediate_share",
    "load_bundle",
    "propagate_closed_form",
    "propagate_truncated",
    "redistribute_margins",
    "save_bundle",
    "single_rate_equivalent",
    "validate",
]
