import dataclasses
import math
import random

import pytest

import agilesim
from agilesim import allocation, core
from agilesim.allocation import AllocationPlan, TypeEconomics


def agent(max_effort=10.0, competence=0.9, mood=1.0, agent_id="a1"):
    return core.AgentState(
        agent_id=agent_id,
        category=core.Category.HCA,
        competence=competence,
        mood=mood,
        max_effort=max_effort,
    )


def econ(type_id, score, effort, psi=1.0, eu=None, mu=None):
    """Economics entry with a chosen availability score at the given psi.

    score = psi * eu - mu; pick mu = 0 and eu = score / psi when the
    score is positive, otherwise eu = 0 and mu = -score.
    """
    if eu is None or mu is None:
        if score > 0:
            eu, mu = score / psi, 0.0
        else:
            eu, mu = 0.0, -score
    return TypeEconomics(
        type_id=type_id, expected_utility=eu, recent_service_rate=mu, effort=effort
    )


def test_planner_is_exported():
    assert agilesim.smart_plan is allocation.smart_plan
    assert not hasattr(agilesim, "plan_order")


class TestScalarOps:
    def test_expected_utility(self):
        assert allocation.expected_utility(10, 0.9, 1.0) == pytest.approx(9.0)
        assert allocation.expected_utility(10, 0.9, 0.5) == pytest.approx(4.5)
        assert allocation.expected_utility(123.0, 0.0, 0.7) == 0.0

    def test_availability_score(self):
        eu = allocation.expected_utility(10, 0.9, 1.0)
        assert econ("T1", 0, 1, eu=eu, mu=2).availability_score(1) == pytest.approx(7.0)
        assert econ("T1", 0, 1, eu=eu, mu=9).availability_score(1) == pytest.approx(0.0)
        assert econ("T1", 0, 1, eu=eu, mu=2).availability_score(2) == pytest.approx(16.0)


class TestTypeEconomicsBounds:
    @pytest.mark.parametrize(
        "field,value",
        [
            ("expected_utility", -1.0),
            ("expected_utility", math.nan),
            ("expected_utility", math.inf),
            ("recent_service_rate", -1.0),
            ("recent_service_rate", math.nan),
            ("recent_service_rate", math.inf),
            ("effort", 0.0),
            ("effort", -1.0),
            ("effort", math.nan),
            ("effort", math.inf),
        ],
    )
    def test_out_of_range_rejected(self, field, value):
        fields = dict(expected_utility=1.0, recent_service_rate=0.0, effort=1.0)
        fields[field] = value
        with pytest.raises(ValueError, match=field):
            TypeEconomics("T1", **fields)

    def test_closed_bounds_accepted(self):
        for zero in (0.0, -0.0):
            entry = TypeEconomics("T1", zero, zero, 5e-324)
            assert entry.availability_score(1.0) == 0.0


class TestAllocationPlan:
    """The generated ``__init__`` of the frozen, slotted dataclass
    against a plan set field by field."""

    def field_by_field(self, accepted, leftover_effort, rejected):
        plan = object.__new__(AllocationPlan)
        object.__setattr__(plan, "accepted", accepted)
        object.__setattr__(plan, "leftover_effort", leftover_effort)
        object.__setattr__(plan, "rejected", rejected)
        return plan

    def test_built_by_keyword_and_by_position(self):
        accepted, rejected = {"A": 2, "B": 0}, {"A": 1, "B": 4}
        by_keyword = AllocationPlan(
            rejected=rejected, leftover_effort=0.5, accepted=accepted
        )
        by_position = AllocationPlan(accepted, 0.5, rejected)
        reference = self.field_by_field(accepted, 0.5, rejected)
        assert by_keyword == by_position == reference
        assert by_keyword.accepted is accepted and by_keyword.rejected is rejected
        assert by_keyword.leftover_effort == 0.5
        assert by_keyword != self.field_by_field(accepted, 0.25, rejected)
        assert repr(by_position) == (
            "AllocationPlan(accepted={'A': 2, 'B': 0}, leftover_effort=0.5, "
            "rejected={'A': 1, 'B': 4})"
        )

    def test_missing_or_extra_arguments_rejected(self):
        with pytest.raises(TypeError):
            AllocationPlan({}, 1.0)
        with pytest.raises(TypeError):
            AllocationPlan({}, 1.0, {}, {})
        with pytest.raises(TypeError):
            AllocationPlan(accepted={}, leftover_effort=1.0, rejected={}, extra=1)

    @pytest.mark.parametrize("name", ["accepted", "leftover_effort", "rejected"])
    def test_fields_are_frozen(self, name):
        plan = AllocationPlan({}, 1.0, {})
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(plan, name, None)
        with pytest.raises((AttributeError, TypeError)):
            plan.other = None


class TestSmartPlan:
    def test_capacity_limited_acceptance(self):
        economics = {
            "A": econ("A", score=7.0, effort=3.0),
            "B": econ("B", score=-1.0, effort=1.0),
        }
        got = allocation.smart_plan(
            agent(max_effort=10.0), {"A": 5, "B": 2}, economics, psi=1.0
        )
        assert got.accepted == {"A": 3, "B": 0}
        assert got.leftover_effort == pytest.approx(1.0)
        assert got.rejected == {"A": 2, "B": 2}

    def test_all_scores_nonpositive(self):
        economics = {
            "A": econ("A", score=0.0, effort=2.0),
            "B": econ("B", score=-3.0, effort=1.0),
        }
        got = allocation.smart_plan(
            agent(max_effort=10.0), {"A": 4, "B": 4}, economics, psi=1.0
        )
        assert got.accepted == {"A": 0, "B": 0}
        assert got.leftover_effort == pytest.approx(10.0)

    def test_full_offer_accepted_when_it_fits(self):
        economics = {"A": econ("A", score=2.0, effort=2.0)}
        got = allocation.smart_plan(agent(max_effort=10.0), {"A": 3}, economics, 1.0)
        assert got.accepted == {"A": 3}
        assert got.leftover_effort == pytest.approx(4.0)

    def test_budget_overspent_by_rounding_accepts_none(self):
        # 17 * 0.1 is 1.7000000000000002: the first type leaves the budget
        # an ulp below 0, and the next must take none of its offer, not -1.
        economics = {
            "T1": econ("T1", score=2.0, effort=0.1),
            "T2": econ("T2", score=1.0, effort=0.5),
        }
        got = allocation.smart_plan(
            agent(max_effort=1.7), {"T1": 20, "T2": 3}, economics, 1.0
        )
        assert got.accepted == {"T1": 17, "T2": 0}
        assert got.rejected == {"T1": 3, "T2": 3}
        assert -1e-15 < got.leftover_effort < 0

    def test_unknown_type_rejected(self):
        with pytest.raises(allocation.UnknownTaskTypeError, match="Z"):
            allocation.smart_plan(
                agent(), {"A": 1, "Z": 1}, {"A": econ("A", 1.0, 1.0)}, 1.0
            )

    def test_economics_for_types_not_offered_ignored(self):
        # The types a random subset leaves out score above, between and
        # below those it offers.
        rng = random.Random(3)
        extras = 0
        for _ in range(200):
            planner, offers, economics, psi = random_instance(rng)
            kept = rng.sample(list(offers), rng.randint(1, len(offers)))
            offers = {tid: offers[tid] for tid in sorted(kept)}
            extras += len(economics) - len(offers)
            got = allocation.smart_plan(planner, offers, economics, psi)
            trimmed = {tid: economics[tid] for tid in offers}
            want = allocation.smart_plan(planner, offers, trimmed, psi)
            assert got == want
            assert list(got.accepted) == list(want.accepted)
            assert repr(got.leftover_effort) == repr(want.leftover_effort)
        assert extras > 200

    def test_negative_offer_rejected(self):
        # The count is checked whether or not the plan visits its type:
        # A's score is positive, zero, then negative.
        for incoming, score in [
            ({"A": -1}, 1.0),
            ({"B": 2, "A": -1}, 0.0),
            ({"B": 2, "A": -3}, -1.0),
        ]:
            economics = {"A": econ("A", score, 1.0), "B": econ("B", 1.0, 1.0)}
            with pytest.raises(ValueError, match="count for 'A' must be >= 0"):
                allocation.smart_plan(agent(), incoming, economics, 1.0)

    @pytest.mark.parametrize("max_effort", [0.0, -1.0, math.nan, math.inf])
    def test_max_effort_outside_open_range_rejected(self, max_effort):
        with pytest.raises(ValueError, match="max_effort must be in"):
            allocation.smart_plan(
                agent(max_effort), {"A": 1}, {"A": econ("A", 1.0, 1.0)}, 1.0
            )

    def test_zero_mood_accepts_nothing(self):
        rng = random.Random(5)
        for _ in range(50):
            economics = {
                f"T{i}": TypeEconomics(
                    type_id=f"T{i}",
                    expected_utility=0.0,  # mood 0 zeroes the product
                    recent_service_rate=rng.choice([0.0, rng.uniform(0, 4)]),
                    effort=rng.uniform(0.5, 5),
                )
                for i in range(rng.randint(1, 5))
            }
            offers = {tid: rng.randint(0, 6) for tid in economics}
            got = allocation.smart_plan(agent(), offers, economics, psi=1.0)
            assert all(count == 0 for count in got.accepted.values())


def random_instance(rng):
    n_types = rng.randint(1, 6)
    economics = {}
    offers = {}
    for i in range(n_types):
        tid = f"T{i}"
        economics[tid] = TypeEconomics(
            type_id=tid,
            expected_utility=rng.uniform(0, 12),
            recent_service_rate=rng.choice([0.0, rng.uniform(0, 8)]),
            effort=rng.uniform(0.5, 8.0),
        )
        offers[tid] = rng.randint(0, 10)
    planner = agent(max_effort=rng.uniform(1.0, 30.0))
    psi = rng.choice([0.25, 0.5, 1.0, 2.0, 4.0])
    return planner, offers, economics, psi


def retrace(max_effort, rows):
    """Straight-line transcription of the acceptance loop, kept separate
    from the library implementation on purpose.

    ``rows`` are (type_id, score, effort, offered).
    """
    budget = max_effort
    out = {}
    for tid, score, effort, offered in sorted(rows, key=lambda r: (-r[1], r[0])):
        if score > 0:
            if offered * effort <= budget:
                accepted = offered
            else:
                accepted = max(math.floor(budget / effort), 0)
            budget -= accepted * effort
        else:
            accepted = 0
        out[tid] = accepted
    return out, budget


class TestPlanProperties:
    def test_feasibility_fuzz(self):
        rng = random.Random(42)
        for _ in range(300):
            planner, offers, economics, psi = random_instance(rng)
            got = allocation.smart_plan(planner, offers, economics, psi)
            spent = sum(
                got.accepted[tid] * economics[tid].effort for tid in offers
            )
            assert spent <= planner.max_effort + 1e-9
            for tid in offers:
                assert 0 <= got.accepted[tid] <= offers[tid]
                assert got.rejected[tid] == offers[tid] - got.accepted[tid]
            assert got.leftover_effort == pytest.approx(planner.max_effort - spent)

    def test_oracle_equivalence(self):
        rng = random.Random(99)
        for _ in range(100):
            planner, offers, economics, psi = random_instance(rng)
            got = allocation.smart_plan(planner, offers, economics, psi)
            rows = [
                (
                    tid,
                    economics[tid].availability_score(psi),
                    economics[tid].effort,
                    offers[tid],
                )
                for tid in offers
            ]
            expected, leftover = retrace(planner.max_effort, rows)
            assert got.accepted == expected
            assert got.leftover_effort == pytest.approx(leftover)

    def test_monotone_in_score(self):
        rng = random.Random(7)
        for _ in range(200):
            planner, offers, economics, psi = random_instance(rng)
            target = rng.choice(list(offers))
            before = allocation.smart_plan(planner, offers, economics, psi)
            boosted = dict(economics)
            raised = economics[target]
            boosted[target] = TypeEconomics(
                type_id=target,
                expected_utility=raised.expected_utility + rng.uniform(0.1, 5.0),
                recent_service_rate=raised.recent_service_rate,
                effort=raised.effort,
            )
            after = allocation.smart_plan(planner, offers, boosted, psi)
            assert after.accepted[target] >= before.accepted[target]

    def test_psi_scaling_keeps_order_when_rates_zero(self):
        rng = random.Random(13)
        for _ in range(50):
            n = rng.randint(2, 6)
            economics = {
                f"T{i}": TypeEconomics(
                    type_id=f"T{i}",
                    expected_utility=rng.uniform(0.1, 10.0),
                    recent_service_rate=0.0,
                    effort=rng.uniform(0.5, 4.0),
                )
                for i in range(n)
            }
            type_ids = list(economics)
            orders = {
                psi: allocation.visit_order(economics, psi, type_ids)
                for psi in (0.5, 1.0, 2.0, 10.0)
            }
            base = orders[1.0]
            assert all(order == base for order in orders.values())


def reference_smart_plan(agent, incoming, economics, psi):
    """``smart_plan`` written out on its own: checks, a sort by a lambda,
    and the score computed again in the loop."""
    unknown = [tid for tid in incoming if tid not in economics]
    if unknown:
        raise allocation.UnknownTaskTypeError(", ".join(sorted(unknown)))
    for tid, count in incoming.items():
        if count < 0:
            raise ValueError(tid)
    budget = agent.max_effort
    accepted = {}
    order = sorted(
        incoming, key=lambda tid: (-economics[tid].availability_score(psi), tid)
    )
    for tid in order:
        econ = economics[tid]
        offered = incoming[tid]
        if econ.availability_score(psi) > 0:
            if offered * econ.effort <= budget:
                count = offered
            else:
                count = max(math.floor(budget / econ.effort), 0)
            budget -= count * econ.effort
        else:
            count = 0
        accepted[tid] = count
    rejected = {tid: incoming[tid] - accepted[tid] for tid in incoming}
    return AllocationPlan(accepted=accepted, leftover_effort=budget, rejected=rejected)


class TestReferencePlan:
    """``smart_plan`` against ``reference_smart_plan``, bit for bit."""

    def case(self, rng):
        # Few distinct utilities, competences and counts make score ties
        # and exact zeros common; mood 0 zeroes every expected utility.
        mood = rng.choice([0.0, 0.5, 1.0, rng.uniform(0.0, 1.0)])
        psi = rng.choice([0.25, 0.5, 1.0, 2.0])
        planner = agent(max_effort=rng.choice([rng.uniform(1.0, 30.0), 8.0]), mood=mood)
        economics, offers = {}, {}
        for i in rng.sample(range(8), rng.randint(1, 6)):
            tid = f"T{i}"
            economics[tid] = TypeEconomics(
                type_id=tid,
                expected_utility=allocation.expected_utility(
                    rng.choice([1.0, 2.0, 3.0, rng.uniform(0.0, 12.0)]),
                    rng.choice([0.5, 1.0, rng.random()]),
                    mood,
                ),
                recent_service_rate=float(rng.randint(0, 3)),
                effort=rng.choice([1.0, 2.0, 3.0, rng.uniform(0.5, 8.0)]),
            )
            offers[tid] = rng.randint(0, 10)
        return planner, offers, economics, psi

    def test_equivalent_to_reference(self):
        rng = random.Random(2024)
        seen = set()
        for case in range(2000):
            planner, offers, economics, psi = self.case(rng)
            got = allocation.smart_plan(planner, offers, economics, psi)
            want = reference_smart_plan(planner, offers, economics, psi)
            # Accepted in visit order (the claim order), rejected in offer
            # order, every float bit for bit.
            assert list(got.accepted.items()) == list(want.accepted.items()), case
            assert list(got.rejected.items()) == list(want.rejected.items()), case
            assert got.leftover_effort == want.leftover_effort, case
            assert repr(got.leftover_effort) == repr(want.leftover_effort), case
            scores = [economics[tid].availability_score(psi) for tid in offers]
            if len(set(scores)) < len(scores):
                seen.add("tie")
            if any(score <= 0 for score in scores):
                seen.add("non-positive")
            if 0.0 in scores:
                seen.add("zero")
            if planner.mood == 0.0:
                seen.add("zero mood")
            if any(
                score > 0 and want.accepted[tid] < offers[tid]
                for tid, score in zip(offers, scores)
            ):
                seen.add("floor")
        assert seen == {"tie", "non-positive", "zero", "zero mood", "floor"}

    def test_budget_overspent_by_rounding(self):
        # 17 * 0.1 leaves a budget of 1.7 an ulp below 0 after T1, so the
        # floor for T2 is -1 unless clamped at 0.
        economics = {
            "T1": econ("T1", score=2.0, effort=0.1),
            "T2": econ("T2", score=1.0, effort=0.5),
        }
        planner, offers = agent(max_effort=1.7), {"T1": 20, "T2": 3}
        got = allocation.smart_plan(planner, offers, economics, 1.0)
        want = reference_smart_plan(planner, offers, economics, 1.0)
        assert want.leftover_effort < 0
        assert list(got.accepted.items()) == list(want.accepted.items())
        assert list(got.rejected.items()) == list(want.rejected.items())
        assert repr(got.leftover_effort) == repr(want.leftover_effort)


class TestAwrAssign:
    def agents(self, *rows):
        return [
            agent(agent_id=aid, competence=comp, max_effort=10.0)
            for aid, comp in rows
        ]

    def test_most_competent_wins(self):
        team = self.agents(("a1", 0.9), ("a2", 0.3))
        assert allocation.awr_assign(team) == "a1"

    def test_tie_breaks_to_lowest_id(self):
        team = self.agents(("a2", 0.7), ("a1", 0.7))
        assert allocation.awr_assign(team) == "a1"

    def test_single_agent(self):
        team = self.agents(("solo", 0.1))
        assert allocation.awr_assign(team) == "solo"

    def test_empty_team(self):
        with pytest.raises(ValueError):
            allocation.awr_assign([])
