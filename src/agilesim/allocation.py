"""Per-agent task-acceptance planning and the competence-greedy baseline.

The planner scores each task type with an availability score

    psi * utility * competence * mood - recent_service_rate

and visits types in descending score order, accepting as many offered
tasks of each strictly positive type as the remaining daily effort
budget allows. NOTE on the ordering key: the greedy visit order is the
availability score itself. The acceptance counts being computed cannot
order their own computation, and the score is the quantity the plan
maximizes per unit of accepted work, so it is the only coherent key.
Ties are broken by type id so plans are deterministic.

A score of exactly zero is rejected: acceptance requires a strictly
positive score. Tasks not accepted are reported as rejected and return
to the common queue for later days.

The baseline (``awr_assign``) models accept-when-requested behavior:
every task is taken, on arrival, by the most competent team member,
regardless of queue length.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

from .core import AgentState


class UnknownTaskTypeError(KeyError):
    """An incoming task type has no economics entry."""


def expected_utility(utility: float, competence: float, mood: float) -> float:
    """Utility expected from one task: reward discounted by the worker's
    competence and mood."""
    return utility * competence * mood


@dataclass(frozen=True)
class TypeEconomics:
    """Per-type inputs to the acceptance plan.

    ``expected_utility`` is the utility * competence * mood product for
    the planning agent, ``recent_service_rate`` its trailing completion
    rate for the type (tasks/day), and ``effort`` the per-task effort.
    """

    type_id: str
    expected_utility: float
    recent_service_rate: float
    effort: float

    def __post_init__(self):
        # Written so that NaN fails every check.
        if not 0 <= self.expected_utility < math.inf:
            raise ValueError(
                f"expected_utility must be in [0, inf) (got {self.expected_utility})"
            )
        if not 0 <= self.recent_service_rate < math.inf:
            raise ValueError(
                "recent_service_rate must be in [0, inf) "
                f"(got {self.recent_service_rate})"
            )
        if not 0 < self.effort < math.inf:
            raise ValueError(f"effort must be in (0, inf) (got {self.effort})")

    def availability_score(self, psi: float) -> float:
        """Acceptance key for the type: weighted expected utility minus
        the recent service rate."""
        return psi * self.expected_utility - self.recent_service_rate


@dataclass(frozen=True, slots=True)
class AllocationPlan:
    """Outcome of one agent's daily acceptance decision.

    Always satisfies: sum(accepted[t] * effort[t]) <= max_effort up to
    rounding (the products are rounded as the budget is debited, so
    ``leftover_effort`` can end an ulp below 0) and 0 <= accepted[t] <=
    offered[t]; ``leftover_effort`` is the unspent budget and
    ``rejected`` the offers returned to the common queue.
    """

    accepted: dict[str, int]
    leftover_effort: float
    rejected: dict[str, int]


def visit_order(
    economics: Mapping[str, TypeEconomics], psi: float, type_ids: Iterable[str]
) -> list[str]:
    """Type visit order: descending availability score, then type id."""
    return sorted(
        type_ids,
        key=lambda tid: (-economics[tid].availability_score(psi), tid),
    )


def smart_plan(
    agent: AgentState,
    incoming: Mapping[str, int],
    economics: Mapping[str, TypeEconomics],
    psi: float,
) -> AllocationPlan:
    """Greedy daily acceptance plan for one agent.

    ``incoming`` maps type id to the number of tasks offered today; an
    offered type without ``economics`` raises ``UnknownTaskTypeError``,
    and economics for types not offered are ignored. Types are visited
    in ``visit_order``, descending availability score; each strictly
    positive type accepts ``min(offered, floor(budget / effort))``
    tasks, none once rounding has left the budget below 0, and debits
    the budget, starting from the agent's full daily effort.
    """
    if not 0 < agent.max_effort < math.inf:
        raise ValueError(f"max_effort must be in (0, inf) (got {agent.max_effort})")
    unknown = sorted(set(incoming).difference(economics))
    if unknown:
        raise UnknownTaskTypeError(f"no economics for type(s): {', '.join(unknown)}")
    if min(incoming.values(), default=0) < 0:
        tid, count = min(incoming.items(), key=lambda item: item[1])
        raise ValueError(f"incoming count for {tid!r} must be >= 0 (got {count})")

    budget = agent.max_effort
    accepted: dict[str, int] = {}
    rejected = dict(incoming)
    for tid in visit_order(economics, psi, incoming):
        offered = incoming[tid]
        entry = economics[tid]
        count = 0
        if entry.availability_score(psi) > 0:
            effort = entry.effort
            if offered * effort <= budget:
                count = offered
            else:
                # A budget overspent by rounding floors to -1.
                count = max(math.floor(budget / effort), 0)
            budget -= count * effort
            rejected[tid] = offered - count
        accepted[tid] = count
    return AllocationPlan(accepted=accepted, leftover_effort=budget, rejected=rejected)


def awr_assign(agents: Sequence[AgentState]) -> str:
    """Pick the assignee under accept-when-requested: the most competent
    agent, ties broken by lowest agent id."""
    if not agents:
        raise ValueError("awr_assign requires at least one agent")
    best = min(agents, key=lambda a: (-a.competence, a.agent_id))
    return best.agent_id
