"""Hierarchical goal model built from user stories.

The builder lifts a story corpus into a four-level goal graph: a single
root, user-supplied high-level goals, the goals of top-level stories,
and the goals of their sub-stories. Hierarchy is containment (composite
states contain children); transitions order sibling goals. By default,
middle-level siblings are chained with sequence transitions, while leaf
sibling groups fan out through a concurrency transition and join back
through a synchronization; explicit transitions, when supplied, replace
the inferred ones entirely.
"""

from __future__ import annotations

import json
import re
from collections import deque
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Mapping, Sequence

from .core import DocumentReader, InputError, boolean, integer, list_of, load_input
from .core import text, write_json

SEQUENCE = "sequence"
CONCURRENCY = "concurrency"
SYNCHRONIZATION = "synchronization"

ATOMIC = "atomic"
COMPOSITE = "composite"


class StoryParseError(InputError):
    """Story text does not match the template; carries the position."""

    def __init__(self, message: str, position: int):
        self.position = position
        super().__init__(f"{message} (at position {position})")


class GoalNetError(InputError):
    """Structural problem while building or importing a goal net."""


@dataclass(frozen=True)
class UserStory:
    """A story in the canonical "As a <role>, I want to <goal>
    [so that <benefit>]" form, with optional hierarchy and task data."""

    id: str
    role: str
    goal: str
    benefit: str | None = None
    parent: str | None = None
    tasks: tuple[str, ...] = ()
    environment: tuple[tuple[str, str], ...] = ()
    cut_across: bool = False


@dataclass(frozen=True)
class GoalNode:
    id: str
    label: str
    kind: str  # ATOMIC | COMPOSITE
    level: int
    cut_across: bool = False


@dataclass(frozen=True)
class Transition:
    id: str
    kind: str  # SEQUENCE | CONCURRENCY | SYNCHRONIZATION
    inputs: tuple[str, ...]
    outputs: tuple[str, ...]
    tasks: tuple[str, ...] = ()


@dataclass(frozen=True)
class GetCard:
    """Goal / environment-variables / tasks index card for one goal."""

    goal_id: str
    environment_variables: tuple[tuple[str, str], ...]
    tasks: tuple[str, ...]


@dataclass(frozen=True)
class GoalNet:
    root_id: str
    nodes: dict[str, GoalNode]
    children: dict[str, tuple[str, ...]]
    transitions: tuple[Transition, ...]
    cards: tuple[GetCard, ...] = ()

    def levels(self) -> int:
        """Number of distinct levels (a four-level net reports 4)."""
        return len({node.level for node in self.nodes.values()})


# A story is "As a(n) <role>, I want to <goal>[ so that <benefit>][.]":
# the role runs to the first comma, the goal to the first " so that "
# with text after it, and one trailing "." or " ." ends the sentence.
_STORY_PREFIX = re.compile(
    r"as\s+an?\s+(?P<role>[^,]+?)\s*,\s*i\s+want\s+to\s+(?=.)", re.IGNORECASE
)
_SO_THAT = re.compile(r"\s+so\s+that\s+(?=.)", re.IGNORECASE)


def _without_full_stop(clause: str) -> str:
    """``clause`` (normalized, non-empty) less one trailing ``" ."`` or
    ``"."``, unless that would leave it empty."""
    if len(clause) > 2 and clause.endswith(" ."):
        return clause[:-2]
    if len(clause) > 1 and clause.endswith("."):
        return clause[:-1]
    return clause


def parse_story(
    text: str,
    story_id: str = "1",
    parent: str | None = None,
    tasks: Sequence[str] = (),
    environment: Sequence[tuple[str, str]] = (),
    cut_across: bool = False,
) -> UserStory:
    """Parse one story sentence into its role / goal / benefit parts.

    Template keywords are matched case-insensitively and surrounding
    whitespace is normalized. A text that does not match reports where
    matching failed.
    """
    normalized = " ".join(text.split())
    match = _STORY_PREFIX.match(normalized)
    if match is None:
        if not re.match(r"as\s+an?\s+", normalized, re.IGNORECASE):
            raise StoryParseError("expected role clause 'As a <role>,'", 0)
        comma = normalized.find(",")
        if comma < 0:
            raise StoryParseError("expected ',' after the role", len(normalized))
        rest = normalized[comma + 1 :]
        if not re.match(r"\s*i\s+want\s+to\s+", rest, re.IGNORECASE):
            raise StoryParseError(
                "expected 'I want to <goal>' after the role", comma + 1
            )
        raise StoryParseError("text does not match the story template", 0)
    start = match.end()
    # The goal holds at least one character.
    so_that = _SO_THAT.search(normalized, start + 1)
    if so_that is None:
        goal, benefit = _without_full_stop(normalized[start:]), None
    else:
        goal = normalized[start : so_that.start()]
        benefit = _without_full_stop(normalized[so_that.end() :])
    return UserStory(
        id=story_id,
        role=match.group("role"),
        goal=goal,
        benefit=benefit,
        parent=parent,
        tasks=tuple(tasks),
        environment=tuple((str(n), str(v)) for n, v in environment),
        cut_across=cut_across,
    )


def render_story(story: UserStory) -> str:
    """Render the canonical template form (inverse of parse_story)."""
    article = "an" if story.role[:1].lower() in "aeiou" else "a"
    text = f"As {article} {story.role}, I want to {story.goal}"
    if story.benefit:
        text += f" so that {story.benefit}"
    return text


def _story_level(story_id: str) -> int:
    # Top stories sit one level under the high-level goals.
    return story_id.count(".") + 2


def _story_order(story_id: str) -> tuple:
    # Dotted ids sort numerically segment by segment ("2" before "10"),
    # falling back to text for non-numeric segments.
    key = []
    for part in story_id.split("."):
        key.append((0, int(part), "") if part.isdigit() else (1, 0, part))
    return tuple(key)


def _check_parents(
    stories: Sequence[UserStory], places: Sequence[str] | None = None
) -> None:
    """Check that story ids are unique and that each parent is a known
    proper prefix of its child's id: the id less its last segment, unless
    the child is ``cut_across`` and may name any ancestor. A parent id is
    strictly shorter than its child's, so no chain of parents can come
    back to a story.

    Every problem is raised together in one :class:`GoalNetError`, in
    story order, each prefixed by its story's entry in ``places`` when
    given (``line <n>`` or ``stories[i]``)."""
    problems: list[tuple[int, str]] = []
    ids: set[str] = set()
    for index, story in enumerate(stories):
        if story.id in ids:
            problems.append(
                (index, f"story ids must be unique (repeated id {story.id!r})")
            )
        ids.add(story.id)
    for index, story in enumerate(stories):
        parent = story.parent
        if parent is None:
            continue
        direct = story.id.rsplit(".", 1)[0]  # the parent one level up
        if parent not in ids:
            problems.append(
                (index, f"story {story.id!r} references unknown parent {parent!r}")
            )
        elif not story.id.startswith(parent + "."):
            problems.append(
                (
                    index,
                    f"story {story.id!r}: parent {parent!r} is not a proper "
                    "prefix of the id",
                )
            )
        elif parent != direct and not story.cut_across:
            problems.append(
                (
                    index,
                    f"story {story.id!r}: parent {parent!r} skips a level "
                    f"(expected {direct!r}; only a cut_across story may skip)",
                )
            )
    if problems:
        problems.sort(key=lambda problem: problem[0])
        raise GoalNetError(
            [
                problem if places is None else f"{places[index]}: {problem}"
                for index, problem in problems
            ]
        )


def build_goal_net(
    stories: Sequence[UserStory],
    high_level_goals: Sequence[str],
    assignment: Mapping[str, str],
    root_label: str = "Top goal",
    explicit_transitions: Sequence[Transition] | None = None,
) -> GoalNet:
    """Assemble the goal net from stories and their goal clustering.

    ``assignment`` maps each top-level story id to one of the
    high-level goal labels (sub-stories follow their parents); a key that
    names no top-level story is rejected, as is every top-level story
    left out, each named ``assignment.<id>``. When ``explicit_transitions``
    is given it replaces the inferred sibling transitions entirely.
    """
    _check_parents(stories)
    story_index = {story.id: story for story in stories}
    label_set = set(high_level_goals)
    for story_id, label in assignment.items():
        story = story_index.get(story_id)
        if story is None or story.parent is not None:
            raise GoalNetError(f"assignment.{story_id}: names no top-level story")
        if label not in label_set:
            raise GoalNetError(f"assignment.{story_id}: unknown goal {label!r}")
    ordered = sorted(stories, key=lambda s: _story_order(s.id))
    unassigned = [
        f"assignment.{story.id}: unassigned top-level story"
        for story in ordered
        if story.parent is None and story.id not in assignment
    ]
    if unassigned:
        raise GoalNetError(unassigned)

    nodes: dict[str, GoalNode] = {}
    children: dict[str, list[str]] = {"root": []}
    nodes["root"] = GoalNode(id="root", label=root_label, kind=ATOMIC, level=0)

    goal_node_ids: dict[str, str] = {}
    for index, label in enumerate(high_level_goals, start=1):
        node_id = f"hl-{index}"
        goal_node_ids[label] = node_id
        nodes[node_id] = GoalNode(id=node_id, label=label, kind=ATOMIC, level=1)
        children["root"].append(node_id)
        children[node_id] = []

    for story in ordered:
        node_id = f"story-{story.id}"
        nodes[node_id] = GoalNode(
            id=node_id,
            label=story.goal,
            kind=ATOMIC,
            level=_story_level(story.id),
            cut_across=story.cut_across,
        )
        children[node_id] = []
        if story.parent is not None:
            children[f"story-{story.parent}"].append(node_id)
        else:
            children[goal_node_ids[assignment[story.id]]].append(node_id)

    for node_id, kids in children.items():
        if kids:
            nodes[node_id] = replace(nodes[node_id], kind=COMPOSITE)

    if explicit_transitions is not None:
        transitions = tuple(explicit_transitions)
    else:
        transitions = _infer_transitions(nodes, children, story_index)

    cards = tuple(
        GetCard(
            goal_id=f"story-{story.id}",
            environment_variables=story.environment,
            tasks=story.tasks,
        )
        for story in ordered if story.tasks
    )
    return GoalNet(
        root_id="root",
        nodes=nodes,
        children={nid: tuple(kids) for nid, kids in children.items()},
        transitions=transitions,
        cards=cards,
    )


def _infer_transitions(
    nodes: Mapping[str, GoalNode],
    children: Mapping[str, Sequence[str]],
    story_index: Mapping[str, UserStory],
) -> tuple[Transition, ...]:
    transitions: list[Transition] = []
    counter = 0

    def next_id() -> str:
        nonlocal counter
        counter += 1
        return f"tr-{counter:03d}"

    def story_for(node_id: str) -> UserStory:
        # Children of stories and of high-level goals are always stories.
        return story_index[node_id[len("story-") :]]

    # Breadth-first over composites keeps transition ids deterministic.
    queue = deque(["root"])
    while queue:
        parent_id = queue.popleft()
        kids = [k for k in children.get(parent_id, ()) if not nodes[k].cut_across]
        queue.extend(children.get(parent_id, ()))
        if not kids:
            continue
        parent_is_story = parent_id.startswith("story-")
        if parent_is_story:
            # Leaf group: concurrent sub-goals joined back to the parent.
            if len(kids) == 1:
                transitions.append(
                    Transition(
                        id=next_id(),
                        kind=SEQUENCE,
                        inputs=(kids[0],),
                        outputs=(parent_id,),
                        tasks=story_for(kids[0]).tasks,
                    )
                )
            else:
                transitions.append(
                    Transition(
                        id=next_id(),
                        kind=CONCURRENCY,
                        inputs=(parent_id,),
                        outputs=tuple(kids),
                    )
                )
                transitions.append(
                    Transition(
                        id=next_id(),
                        kind=SYNCHRONIZATION,
                        inputs=tuple(kids),
                        outputs=(parent_id,),
                        tasks=tuple(
                            task for kid in kids for task in story_for(kid).tasks
                        ),
                    )
                )
        else:
            # Root or high-level goal: chain the siblings in order.
            for left, right in zip(kids, kids[1:]):
                transitions.append(
                    Transition(
                        id=next_id(),
                        kind=SEQUENCE,
                        inputs=(left,),
                        outputs=(right,),
                    )
                )
            # A single childless story under a goal still needs its
            # implementing step back to the goal.
            if parent_id != "root" and len(kids) == 1:
                only = kids[0]
                if not children.get(only):
                    transitions.append(
                        Transition(
                            id=next_id(),
                            kind=SEQUENCE,
                            inputs=(only,),
                            outputs=(parent_id,),
                            tasks=story_for(only).tasks,
                        )
                    )
    return tuple(transitions)


def validate_net(net: GoalNet) -> list[str]:
    """Check structural rules; an empty list means the net is valid."""
    violations: list[str] = []
    if net.root_id not in net.nodes:
        return [f"root node {net.root_id!r} missing"]
    if net.nodes[net.root_id].level != 0:
        violations.append(f"node {net.root_id}: root must be level 0")

    for parent_id, kids in net.children.items():
        if parent_id not in net.nodes:
            violations.append(f"hierarchy entry {parent_id}: unknown node")
            continue
        parent = net.nodes[parent_id]
        for kid_id in kids:
            if kid_id not in net.nodes:
                violations.append(
                    f"node {parent_id}: unknown node {kid_id!r} among its children"
                )
                continue
            kid = net.nodes[kid_id]
            if kid.cut_across:
                if kid.level <= parent.level:
                    violations.append(
                        f"node {kid_id}: cut-across level {kid.level} must be "
                        f"below ancestor level {parent.level}"
                    )
            elif kid.level != parent.level + 1:
                violations.append(
                    f"node {kid_id}: level {kid.level} skips from parent "
                    f"level {parent.level}"
                )

    for node in net.nodes.values():
        kids = net.children.get(node.id, ())
        if node.kind == COMPOSITE and not kids:
            violations.append(f"node {node.id}: composite node without children")
        if node.kind == ATOMIC and kids:
            violations.append(f"node {node.id}: atomic node with children")
        if node.kind not in (ATOMIC, COMPOSITE):
            violations.append(f"node {node.id}: unknown kind {node.kind!r}")

    for transition in net.transitions:
        for endpoint in (*transition.inputs, *transition.outputs):
            if endpoint not in net.nodes:
                violations.append(
                    f"transition {transition.id}: unknown node {endpoint!r}"
                )
        if transition.kind == SEQUENCE:
            if len(transition.inputs) != 1 or len(transition.outputs) != 1:
                violations.append(
                    f"transition {transition.id}: sequence must have exactly "
                    "1 input and 1 output"
                )
        elif transition.kind == SYNCHRONIZATION:
            if len(transition.inputs) < 2:
                violations.append(
                    f"transition {transition.id}: synchronization needs >= 2 inputs"
                )
            if not transition.outputs:
                violations.append(
                    f"transition {transition.id}: synchronization needs an output"
                )
        elif transition.kind == CONCURRENCY:
            if len(transition.outputs) < 2:
                violations.append(
                    f"transition {transition.id}: concurrency needs >= 2 outputs"
                )
            if not transition.inputs:
                violations.append(
                    f"transition {transition.id}: concurrency needs an input"
                )
        else:
            violations.append(
                f"transition {transition.id}: unknown kind {transition.kind!r}"
            )

    # A node is reached through the hierarchy or as the output of a
    # transition with a reached input.
    successors: dict[str, list[str]] = {}
    for transition in net.transitions:
        for origin in transition.inputs:
            successors.setdefault(origin, []).extend(transition.outputs)
    reachable = {net.root_id}
    frontier = [net.root_id]
    while frontier:
        current = frontier.pop()
        for nxt in (*net.children.get(current, ()), *successors.get(current, ())):
            if nxt in net.nodes and nxt not in reachable:
                reachable.add(nxt)
                frontier.append(nxt)
    for node_id in net.nodes:
        if node_id not in reachable:
            violations.append(f"node {node_id}: unreachable from root")

    for card in net.cards:
        if card.goal_id not in net.nodes:
            violations.append(f"card for {card.goal_id!r}: goal not in the net")
        if not card.tasks:
            violations.append(f"card for {card.goal_id!r}: tasks must be non-empty")
    return violations


# --- documents and graph export ---------------------------------------------

def to_document(net: GoalNet) -> dict:
    return {
        "root": net.root_id,
        "nodes": [
            {
                "id": node.id,
                "label": node.label,
                "kind": node.kind,
                "level": node.level,
                "cut_across": node.cut_across,
            }
            for node in net.nodes.values()
        ],
        "hierarchy": {parent: list(kids) for parent, kids in net.children.items()},
        "transitions": [
            {
                "id": t.id,
                "kind": t.kind,
                "inputs": list(t.inputs),
                "outputs": list(t.outputs),
                "tasks": list(t.tasks),
            }
            for t in net.transitions
        ],
        "cards": [
            {
                "goal_id": card.goal_id,
                "environment_variables": [list(pair) for pair in card.environment_variables],
                "tasks": list(card.tasks),
            }
            for card in net.cards
        ],
    }


def _name_value(value) -> tuple[str, str]:
    name, setting = list_of(text)(value)
    return name, setting


def from_document(doc: dict) -> GoalNet:
    """Read a net document; a net that :func:`validate_net` faults is
    rejected with every violation."""
    reader = DocumentReader(doc, GoalNetError)
    read = reader.field
    strings = list_of(text)
    nodes = {}
    for at, entry in reader.objects(doc, "nodes"):
        node = GoalNode(
            id=read(entry, "id", text, at),
            label=read(entry, "label", text, at),
            kind=read(entry, "kind", text, at),
            level=read(entry, "level", integer, at),
            cut_across=read(entry, "cut_across", boolean, at, False),
        )
        nodes[node.id] = node
    hierarchy = read(doc, "hierarchy", dict) or {}
    children = {
        parent: read(hierarchy, parent, strings, "hierarchy") for parent in hierarchy
    }
    transitions = tuple(
        Transition(
            id=read(entry, "id", text, at),
            kind=read(entry, "kind", text, at),
            inputs=read(entry, "inputs", strings, at),
            outputs=read(entry, "outputs", strings, at),
            tasks=read(entry, "tasks", strings, at, ()),
        )
        for at, entry in reader.objects(doc, "transitions")
    )
    cards = tuple(
        GetCard(
            goal_id=read(entry, "goal_id", text, at),
            environment_variables=read(
                entry, "environment_variables", list_of(_name_value), at, ()
            ),
            tasks=read(entry, "tasks", strings, at, ()),
        )
        for at, entry in reader.objects(doc, "cards", default=())
    )
    root_id = read(doc, "root", text)
    reader.check()
    net = GoalNet(
        root_id=root_id,
        nodes=nodes,
        children=children,
        transitions=transitions,
        cards=cards,
    )
    violations = validate_net(net)
    if violations:
        raise GoalNetError(violations)
    return net


def save_net(net: GoalNet, path: str | Path) -> None:
    write_json(path, to_document(net))


def load_net(path: str | Path) -> GoalNet:
    return load_input(path, "net", lambda handle: from_document(json.load(handle)))


def _dot_escape(text: str) -> str:
    return text.replace("\\", "\\\\").replace('"', '\\"')


_TRANSITION_STYLE = {
    SEQUENCE: "shape=rect, width=0.15, height=0.15, style=filled, fillcolor=gray80",
    CONCURRENCY: "shape=rect, width=0.15, height=0.15, style=filled, fillcolor=lightblue",
    SYNCHRONIZATION: "shape=rect, width=0.15, height=0.15, style=filled, fillcolor=lightsalmon",
}


def export_dot(net: GoalNet) -> str:
    """Render the net as a DOT digraph.

    Composite goals draw as boxes, atomic goals as ellipses, cut-across
    goals dashed; transitions are small squares colored by kind, linked
    from their inputs and to their outputs.
    """
    lines = ["digraph goalnet {", "  rankdir=TB;"]
    for node in net.nodes.values():
        shape = "box" if node.kind == COMPOSITE else "ellipse"
        style = ', style="dashed"' if node.cut_across else ""
        lines.append(
            f'  "{_dot_escape(node.id)}" [label="{_dot_escape(node.label)}", '
            f"shape={shape}{style}];"
        )
    for parent, kids in net.children.items():
        for kid in kids:
            lines.append(
                f'  "{_dot_escape(parent)}" -> "{_dot_escape(kid)}" '
                "[style=dotted, arrowhead=empty];"
            )
    for transition in net.transitions:
        style = _TRANSITION_STYLE.get(transition.kind, _TRANSITION_STYLE[SEQUENCE])
        lines.append(
            f'  "{_dot_escape(transition.id)}" '
            f'[label="{_dot_escape(transition.kind)}", {style}];'
        )
        for origin in transition.inputs:
            lines.append(
                f'  "{_dot_escape(origin)}" -> "{_dot_escape(transition.id)}";'
            )
        for target in transition.outputs:
            lines.append(
                f'  "{_dot_escape(transition.id)}" -> "{_dot_escape(target)}";'
            )
    lines.append("}")
    return "\n".join(lines) + "\n"


# --- story corpus files ------------------------------------------------------


def _document_entries(doc, errors: list[str]):
    """Yield ``(stories[i], id, text, parent, tasks, environment,
    cut_across)`` for each entry of a JSON corpus, recording each field
    problem in ``errors`` and skipping the entry it leaves unreadable."""
    reader = DocumentReader(doc, GoalNetError)
    reader.errors = errors
    read = reader.field
    for at, entry in reader.objects(doc, "stories"):
        story_id = read(entry, "id", text, at)
        body = read(entry, "text", text, at)
        parent = read(entry, "parent", text, at, None)
        tasks = read(entry, "tasks", list_of(text), at, ())
        env = read(entry, "environment", list_of(_name_value), at, ())
        cut_across = read(entry, "cut_across", boolean, at, False)
        if None not in (story_id, body, tasks, env):
            yield at, story_id, body, parent, tasks, env, cut_across


def _text_entries(corpus: str):
    """Yield ``(line <n>, id, text, None)`` for each story line of a
    plain-text corpus; an unnumbered line takes the next unused number.
    Lines end at ``\\n``, ``\\r\\n`` or ``\\r``, as in a text file, so
    ``<n>`` is the file line; a form feed is whitespace."""
    used: set[str] = set()
    auto_id = 0
    for number, line in enumerate(re.split(r"\r\n?|\n", corpus), 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        match = re.match(r"^(?P<id>\d+(?:\.\d+)*)\s*:\s*(?P<text>.+)$", line)
        if match:
            story_id, body = match.group("id", "text")
        else:
            auto_id += 1
            while str(auto_id) in used:
                auto_id += 1
            story_id, body = str(auto_id), line
        used.add(story_id)
        yield f"line {number}", story_id, body, None


def _read_corpus(handle) -> list[UserStory]:
    corpus = handle.read()
    errors: list[str] = []
    if corpus.lstrip().startswith("{"):
        entries = _document_entries(json.loads(corpus), errors)
        text_field = ".text"
    else:
        entries = _text_entries(corpus)
        text_field = ""
    stories = []
    places = []
    for where, story_id, body, parent, *details in entries:
        if parent is None and "." in story_id:
            parent = story_id.rsplit(".", 1)[0]
        try:
            stories.append(parse_story(body, story_id, parent, *details))
            places.append(where)
        except StoryParseError as exc:
            errors.append(f"{where}{text_field}: {exc}")
    if errors:
        raise GoalNetError(errors)
    _check_parents(stories, places)
    return stories


def load_stories(path: str | Path) -> list[UserStory]:
    """Load a story corpus.

    JSON documents carry {"stories": [{id, text, tasks?, parent?,
    environment?, cut_across?}]}. Plain-text files carry one story per
    line, optionally prefixed with a dotted id and a colon
    ("1.2: As a ..."); unprefixed lines are numbered consecutively.
    Every malformed entry, repeated id and bad parent is named
    (``stories[i]`` or ``line <n>``) and raised together as a
    :class:`GoalNetError`.
    """
    return load_input(path, "stories", _read_corpus)


def load_goals(path: str | Path) -> tuple[list[str], dict[str, str], str]:
    """Load the goal clustering document: high-level goal labels, each
    used once, the story-to-goal assignment, and the root label."""

    def build(handle) -> tuple[list[str], dict[str, str], str]:
        doc = json.load(handle)
        reader = DocumentReader(doc, GoalNetError)
        goals = reader.field(doc, "goals", list_of(text))
        first: dict[str, int] = {}
        for index, label in enumerate(goals or ()):
            if first.setdefault(label, index) != index:
                reader.errors.append(f"goals[{index}]: duplicate goal label {label!r}")
        assignment = reader.field(doc, "assignment", dict) or {}
        assignment = {
            key: reader.field(assignment, key, text, "assignment") for key in assignment
        }
        root_label = reader.field(doc, "root", text, default="Top goal")
        reader.check()
        return list(goals), assignment, root_label

    return load_input(path, "goals", build)
