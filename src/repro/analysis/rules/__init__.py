"""Rule registry for repro-lint.

``ALL_RULES`` is the canonical ordered tuple of rule instances; the engine
runs them all unless the caller selects a subset by id via
:func:`get_rules`.
"""

from __future__ import annotations

from repro.analysis.rules.base import ProjectRule, Rule
from repro.analysis.rules.determinism import (
    UnorderedIterationFlow,
    UnorderedReduction,
)
from repro.analysis.rules.errors import SwallowedError
from repro.analysis.rules.layering import (
    PruneBypassesSession,
    StageBypassesSession,
)
from repro.analysis.rules.mutation import FrozenGraphMutation
from repro.analysis.rules.probability import (
    LogLinearMixing,
    RawThresholdCompare,
    UnvalidatedProbabilityStore,
)
from repro.analysis.rules.purity import ImpureStage
from repro.analysis.rules.randomness import UnseededRandom
from repro.analysis.rules.versioning import (
    ComponentEpochDiscipline,
    UnversionedCacheKey,
)

__all__ = [
    "ALL_RULES",
    "RULES_BY_ID",
    "ProjectRule",
    "Rule",
    "get_rules",
    "ComponentEpochDiscipline",
    "FrozenGraphMutation",
    "ImpureStage",
    "LogLinearMixing",
    "PruneBypassesSession",
    "RawThresholdCompare",
    "StageBypassesSession",
    "SwallowedError",
    "UnorderedIterationFlow",
    "UnorderedReduction",
    "UnseededRandom",
    "UnvalidatedProbabilityStore",
    "UnversionedCacheKey",
]

ALL_RULES: tuple[Rule, ...] = (
    RawThresholdCompare(),
    UnvalidatedProbabilityStore(),
    UnseededRandom(),
    FrozenGraphMutation(),
    LogLinearMixing(),
    SwallowedError(),
    StageBypassesSession(),
    PruneBypassesSession(),
    UnorderedIterationFlow(),
    UnorderedReduction(),
    ImpureStage(),
    UnversionedCacheKey(),
    ComponentEpochDiscipline(),
)

RULES_BY_ID: dict[str, Rule] = {rule.rule_id: rule for rule in ALL_RULES}


def get_rules(ids: list[str] | None = None) -> tuple[Rule, ...]:
    """Resolve a list of rule ids (case-insensitive) to rule instances.

    ``None`` selects every rule.  Unknown ids raise ``ValueError`` with the
    known ids listed, so a typo in ``--select`` fails loudly.
    """
    if ids is None:
        return ALL_RULES
    selected: list[Rule] = []
    for raw in ids:
        rule_id = raw.strip().upper()
        if rule_id not in RULES_BY_ID:
            known = ", ".join(sorted(RULES_BY_ID))
            raise ValueError(f"unknown rule id {raw!r}; known rules: {known}")
        selected.append(RULES_BY_ID[rule_id])
    return tuple(selected)
