"""Tax/benefit rules engine and rule-set schema."""

from .engine import (
    AdultSnapshot,
    CashFlows,
    HouseholdSnapshot,
    emtr,
    entitlement_days,
    er_daily_level,
    grading_multiplier,
    housing_benefit,
    net_income,
    pension_benefit,
    ptr,
    social_assistance,
    taxes_and_contributions,
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
    "housing_benefit",
    "load_ruleset",
    "net_income",
    "pension_benefit",
    "ptr",
    "ruleset_from_mapping",
    "social_assistance",
    "taxes_and_contributions",
    "unemployment_benefit",
    "validate_ruleset",
]
