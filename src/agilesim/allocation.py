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

``plan_order`` compiles the visit order, checking that every type has
economics, and ``smart_plan`` plans the offers by it; a caller that
plans the same offered types many times compiles their order once.

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
from typing import Collection, Iterable, Mapping, Sequence

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


@dataclass(frozen=True, slots=True, init=False)
class AllocationPlan:
    """Outcome of one agent's daily acceptance decision.

    Always satisfies: sum(accepted[t] * effort[t]) <= max_effort up to
    rounding (the products are rounded as the budget is debited, so
    ``leftover_effort`` can end an ulp below 0) and 0 <= accepted[t] <=
    offered[t]; ``leftover_effort`` is the unspent budget and
    ``rejected`` the offers returned to the common queue.

    ``__init__`` is written by hand: it takes the arguments of the
    generated one, but sets each slot through its own setter, cheaper
    than the frozen class's ``object.__setattr__`` per field.
    """

    accepted: dict[str, int]
    leftover_effort: float
    rejected: dict[str, int]

    def __init__(
        self, accepted: dict[str, int], leftover_effort: float, rejected: dict[str, int]
    ):
        _set_accepted(self, accepted)
        _set_leftover_effort(self, leftover_effort)
        _set_rejected(self, rejected)


_set_accepted, _set_leftover_effort, _set_rejected = (
    getattr(AllocationPlan, name).__set__ for name in AllocationPlan.__slots__
)


def visit_order(
    economics: Mapping[str, TypeEconomics], psi: float, type_ids: Iterable[str]
) -> list[str]:
    """Type visit order: descending availability score, then type id."""
    return sorted(
        type_ids,
        key=lambda tid: (-economics[tid].availability_score(psi), tid),
    )


def plan_order(
    economics: Mapping[str, TypeEconomics], psi: float, type_ids: Collection[str]
) -> list[tuple[str, float, bool]]:
    """The visit order ``smart_plan`` plans by: one ``(type_id, effort,
    score > 0)`` triple per type, in ``visit_order``'s order. A type
    without economics raises ``UnknownTaskTypeError``."""
    unknown = sorted(set(type_ids).difference(economics))
    if unknown:
        raise UnknownTaskTypeError(f"no economics for type(s): {', '.join(unknown)}")
    return [
        (tid, economics[tid].effort, economics[tid].availability_score(psi) > 0)
        for tid in visit_order(economics, psi, type_ids)
    ]


def smart_plan(
    agent: AgentState,
    incoming: Mapping[str, int],
    order: Sequence[tuple[str, float, bool]],
) -> AllocationPlan:
    """Greedy daily acceptance plan for one agent.

    ``incoming`` maps type id to the number of tasks offered today, and
    ``order`` is ``plan_order(economics, psi, incoming)``; an order that
    does not list each offered type exactly once raises ``ValueError``.
    Types are visited in that order, descending availability score; each
    strictly positive type accepts ``min(offered, floor(budget / effort))``
    tasks, none once rounding has left the budget below 0, and debits
    the budget, starting from the agent's full daily effort.
    """
    if not 0 < agent.max_effort < math.inf:
        raise ValueError(f"max_effort must be in (0, inf) (got {agent.max_effort})")
    if min(incoming.values(), default=0) < 0:
        tid, count = min(incoming.items(), key=lambda item: item[1])
        raise ValueError(f"incoming count for {tid!r} must be >= 0 (got {count})")

    budget = agent.max_effort
    accepted: dict[str, int] = {}
    rejected = dict(incoming)
    for tid, effort, positive in order:
        offered = incoming.get(tid)
        if offered is None:
            break
        count = 0
        if positive:
            if offered * effort <= budget:
                count = offered
            else:
                # A budget overspent by rounding floors to -1.
                count = max(math.floor(budget / effort), 0)
            budget -= count * effort
            rejected[tid] = offered - count
        accepted[tid] = count
    if not len(accepted) == len(order) == len(incoming):
        listed = [tid for tid, _, _ in order]
        raise ValueError(
            f"order must list each offered type once: offered {sorted(incoming)}, "
            f"order lists {listed}"
        )
    return AllocationPlan(accepted=accepted, leftover_effort=budget, rejected=rejected)


def awr_assign(agents: Sequence[AgentState]) -> str:
    """Pick the assignee under accept-when-requested: the most competent
    agent, ties broken by lowest agent id."""
    if not agents:
        raise ValueError("awr_assign requires at least one agent")
    best = min(agents, key=lambda a: (-a.competence, a.agent_id))
    return best.agent_id
