"""Agile-team decision support: allocation planning, a discrete-time
team simulator, concept-map mood dynamics, sprint metrics, and
goal-net requirements modeling."""

__version__ = "0.1.0"

from .core import (
    AgentState,
    Allocator,
    Category,
    CategorySpec,
    InputError,
    MoodMode,
    PRESET_NAMES,
    ScenarioConfig,
    ScenarioValidationError,
    TaskTypeSpec,
    TeamConfig,
    UnknownPresetError,
    load_scenario,
    preset,
    save_scenario,
    validate,
)
from .allocation import (
    AllocationPlan,
    TypeEconomics,
    awr_assign,
    expected_utility,
    smart_plan,
)
from .fcm import ConceptMap, StateVector, Trajectory
from .simulation import (
    Outcome,
    RepeatedResult,
    RunResult,
    SimState,
    SimulationInvariantError,
    generate_arrivals,
    initial_state,
    run,
    run_repeated,
    tick,
)
from .metrics import (
    LogSchemaError,
    LogSummary,
    MetricsError,
    SprintRecord,
    allocation_proportion,
    competence,
    congestion,
    delay_percentage,
    ingest_log,
    pearson,
    summarize_log,
    technical_productivity,
)
from .goalnet import (
    GetCard,
    GoalNet,
    GoalNode,
    Transition,
    UserStory,
    build_goal_net,
    parse_story,
    render_story,
    validate_net,
)
