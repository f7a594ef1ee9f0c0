"""Tax/benefit rules engine and rule-set schema."""

from .engine import (
    FLOW_COLUMNS,
    AdultColumns,
    AdultSnapshot,
    CashFlows,
    HouseholdSnapshot,
    emtr,
    entitlement_days,
    er_daily_level,
    grading_multiplier,
    net_income,
    price_unit,
    price_units,
    ptr,
    unemployment_benefit,
)
from .ruleset import (
    BENEFIT_DAYS_PER_QUARTER,
    MONTHS_PER_QUARTER,
    RuleSet,
    load_ruleset,
    ruleset_from_mapping,
    validate_ruleset,
)

__all__ = [
    "FLOW_COLUMNS",
    "AdultColumns",
    "AdultSnapshot",
    "CashFlows",
    "HouseholdSnapshot",
    "RuleSet",
    "BENEFIT_DAYS_PER_QUARTER",
    "MONTHS_PER_QUARTER",
    "emtr",
    "entitlement_days",
    "er_daily_level",
    "grading_multiplier",
    "load_ruleset",
    "net_income",
    "price_unit",
    "price_units",
    "ptr",
    "ruleset_from_mapping",
    "unemployment_benefit",
    "validate_ruleset",
]
