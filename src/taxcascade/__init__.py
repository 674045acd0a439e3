"""Final incidence of indirect taxes propagated through input-output accounts.

Workflow: load a bundle of accounts, redistribute trade/transport margins,
build the coefficient system, propagate first-stage taxes through the
production network until everything lands on final demand, then express the
result as tax-exclusive effective rates per demand component.

The public names load on first use, so that importing the package (as the
command line does) loads numpy only when a name that needs it is used.
"""

from importlib import import_module

__version__ = "0.1.0"

#: Public names by the module that defines them.
_EXPORTS = {
    "accounts": (
        "Activity",
        "BALANCE_RTOL",
        "BundleError",
        "BundleMetadata",
        "CheckResult",
        "IOAccounts",
        "TaxDestinationTable",
        "ValidationReport",
        "load_bundle",
        "save_bundle",
        "validate",
    ),
    "engine": (
        "CONDITION_LIMIT",
        "CONSERVATION_RTOL",
        "CoefficientSystem",
        "IncidenceResult",
        "SingularSystemError",
        "TRUNCATION_TOL",
        "Truncation",
        "apply_scenario",
        "build_system",
        "propagate_closed_form",
        "propagate_truncated",
    ),
    "margins": ("MarginAdjustment", "MarginError", "redistribute_margins"),
    "rates": (
        "RateReport",
        "component_shares",
        "effective_rates",
        "first_stage_intermediate_share",
        "single_rate_equivalent",
    ),
    "tables": (
        "COMPONENT_ORDER",
        "DEFAULT_REPORT_COMPONENTS",
        "DISPLAY_THRESHOLD",
        "DemandComponent",
        "N_COMPONENTS",
    ),
}
_MODULE = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE)


def __getattr__(name: str):
    if name not in _MODULE:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{_MODULE[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
