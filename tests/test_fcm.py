import copy
import dataclasses
import json
import math
import pickle
import random
from importlib import resources

import pytest

from agilesim import fcm
from agilesim.core import InputError
from conftest import reference_step

MICHAEL1 = fcm.ConceptMap(
    labels=("Mood", "Progress", "Quality"),
    weights=((0, 0.2, 0.1), (0.3, 0, 0.2), (0.3, 0.2, 0)),
)
GRACE1 = fcm.ConceptMap(
    labels=("Mood", "Progress", "Quality"),
    weights=((0, 0.7, 0.3), (0.5, 0, 0.2), (0.6, 0.2, 0)),
)


def reference_run(cmap, initial, max_iter, tol):
    """Iterate with the O(k^2) scan of every earlier state."""
    states = [initial]
    current = initial
    for _ in range(max_iter):
        nxt = reference_step(cmap, current)
        states.append(nxt)
        if max(abs(a - b) for a, b in zip(nxt, current)) < tol:
            return states, fcm.FIXED_POINT
        for earlier in states[:-2]:
            if max(abs(a - b) for a, b in zip(nxt, earlier)) < tol:
                return states, fcm.LIMIT_CYCLE
        current = nxt
    return states, fcm.MAX_ITERATIONS


def random_map(rng, n, kind, c=5.0, drive_first=True):
    """Half the off-diagonal weights nonzero; node 0 gets no inputs
    unless ``drive_first``."""
    weights = tuple(
        tuple(
            round(rng.uniform(-1, 1), 3)
            if i != j and (j or drive_first) and rng.random() < 0.5
            else 0.0
            for j in range(n)
        )
        for i in range(n)
    )
    return fcm.ConceptMap(
        labels=tuple(f"n{i}" for i in range(n)), weights=weights, transform=kind, c=c
    )


def reference_series():
    payload = resources.files("agilesim.data").joinpath(
        "reference_trajectories.json"
    ).read_text(encoding="utf-8")
    return json.loads(payload)["series"]


class TestTransform:
    def test_sigmoid_reference_point(self):
        assert fcm.transform(fcm.SIGMOID, 0.1, c=5) == pytest.approx(
            0.622459, abs=1e-6
        )

    def test_sigmoid_symmetry(self):
        assert fcm.transform(fcm.SIGMOID, 0.0, c=5) == 0.5

    def test_discrete_boundaries(self):
        assert fcm.transform(fcm.TRIVALENT, 0.5) == 1
        assert fcm.transform(fcm.TRIVALENT, -0.5) == -1
        assert fcm.transform(fcm.TRIVALENT, 0.49) == 0
        assert fcm.transform(fcm.TRIVALENT, -0.49) == 0
        assert fcm.transform(fcm.BIVALENT, 0.0) == 0
        assert fcm.transform(fcm.BIVALENT, 1e-9) == 1

    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown transformation"):
            fcm.transform("soft", 0.0)

    def test_bad_steepness(self):
        for c in (0, -1.0, math.inf, -math.inf, math.nan):
            with pytest.raises(ValueError, match=r"steepness must be in \(0, inf\)"):
                fcm.transform(fcm.SIGMOID, 0.1, c=c)

    def test_sigmoid_formula_where_exp_is_finite(self):
        for c in (0.5, 5.0, 8.0):
            for n in (-709.0 / c, -3.7, -0.1, 0.0, 0.1, 3.7, 1e300):
                assert fcm.transform(fcm.SIGMOID, n, c) == 1.0 / (1.0 + math.exp(-c * n))

    def test_sigmoid_where_exp_overflows(self):
        # exp(720) overflows; the value is exp(-720) / (1 + exp(-720)).
        tiny = fcm.transform(fcm.SIGMOID, -144.0, c=5)
        assert tiny == math.exp(-720) and tiny > 0
        assert fcm.transform(fcm.SIGMOID, -1e300, c=5) == 0.0
        assert fcm.transform(fcm.SIGMOID, -0.5, c=1e300) == 0.0
        assert fcm.transform(fcm.SIGMOID, 0.5, c=1e300) == 1.0


class TestStep:
    def test_grace_first_step(self):
        nxt = fcm.step(GRACE1, (0.5, 0.0, 0.0))
        assert nxt == pytest.approx((0.5, 0.851953, 0.679179), abs=1e-5)
        assert type(nxt) is tuple

    def test_michael_first_step(self):
        nxt = fcm.step(MICHAEL1, (0.5, 0.0, 0.0))
        assert nxt == pytest.approx((0.5, 0.622459, 0.562177), abs=1e-5)

    def test_zero_matrix_maps_to_half(self):
        cmap = fcm.ConceptMap(
            labels=("a", "b", "c"),
            weights=((0, 0, 0), (0, 0, 0), (0, 0, 0)),
        )
        assert fcm.step(cmap, (0.9, 0.1, 0.4)) == (0.5, 0.5, 0.5)

    def test_dimension_mismatch(self):
        with pytest.raises(fcm.DimensionMismatchError):
            fcm.step(MICHAEL1, (0.5, 0.0))


class TestRun:
    def test_michael_equilibrium(self):
        traj = fcm.run(MICHAEL1, fcm.StateVector(values=(0.5, 0.0, 0.0)), tol=1e-6)
        assert traj.terminal == fcm.FIXED_POINT
        assert traj.final.iteration <= 14
        assert traj.final.values == pytest.approx(
            (0.920580, 0.846519, 0.786979), abs=1e-5
        )

    def test_grace_equilibrium(self):
        traj = fcm.run(GRACE1, fcm.StateVector(values=(0.5, 0.0, 0.0)), tol=1e-6)
        assert traj.terminal == fcm.FIXED_POINT
        assert traj.final.iteration <= 9
        assert traj.final.values == pytest.approx(
            (0.994717, 0.987922, 0.922728), abs=1e-5
        )

    def test_michael_second_model(self):
        cmap = fcm.bundled_map("michael_scenario2")
        traj = fcm.run(
            cmap,
            fcm.StateVector(values=(0.920580, 0.846519, 0.786979, 1.0)),
            tol=1e-6,
        )
        assert traj.terminal == fcm.FIXED_POINT
        assert traj.final.values == pytest.approx(
            (0.843095, 0.700016, 0.754279, 0.5), abs=1e-5
        )

    def test_trajectory_includes_initial(self):
        traj = fcm.run(MICHAEL1, fcm.StateVector(values=(0.5, 0.0, 0.0)))
        assert traj.states[0].values == (0.5, 0.0, 0.0)
        assert [s.iteration for s in traj.states] == list(range(len(traj.states)))

    def test_states_numbered_from_the_initial_iteration(self):
        initial = fcm.StateVector((0.5, 0.0, 0.0), 7)
        traj = fcm.run(MICHAEL1, initial)
        assert traj.states[0] is initial
        assert [s.iteration for s in traj.states] == list(range(7, 7 + len(traj.states)))
        for before, after in zip(traj.states, traj.states[1:]):
            assert after.values == reference_step(MICHAEL1, before.values)

    def test_limit_cycle_detected(self):
        flipflop = fcm.ConceptMap(
            labels=("a", "b"),
            weights=((0, -1), (-1, 0)),
            transform=fcm.TRIVALENT,
        )
        traj = fcm.run(flipflop, fcm.StateVector(values=(1.0, 1.0)))
        assert traj.terminal == fcm.LIMIT_CYCLE

    def test_max_iterations_terminal(self):
        traj = fcm.run(
            GRACE1, fcm.StateVector(values=(0.5, 0.0, 0.0)), max_iter=2, tol=1e-12
        )
        assert traj.terminal == fcm.MAX_ITERATIONS
        assert len(traj.states) == 3

    def test_max_iter_cap(self, monkeypatch):
        initial = fcm.StateVector(values=(0.5, 0.0, 0.0))
        # The cap itself is accepted; this map settles in a few steps.
        traj = fcm.run(MICHAEL1, initial, max_iter=fcm.MAX_ITERATIONS_CAP)
        assert traj.terminal == fcm.FIXED_POINT

        def no_step(cmap, values):
            raise AssertionError("stepped past a rejected max_iter")

        monkeypatch.setattr(fcm, "step", no_step)
        for max_iter in (fcm.MAX_ITERATIONS_CAP + 1, 10**8):
            with pytest.raises(InputError, match=rf"max_iter must be <= 100000 \(got {max_iter}\)"):
                fcm.run(GRACE1, initial, max_iter=max_iter)

    def test_bad_arguments(self):
        state = fcm.StateVector(values=(0.5, 0.0, 0.0))
        with pytest.raises(ValueError):
            fcm.run(MICHAEL1, state, max_iter=0)
        with pytest.raises(ValueError):
            fcm.run(MICHAEL1, state, tol=0.0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_initial_rejected(self, bad):
        with pytest.raises(InputError, match="initial: values must be finite"):
            fcm.run(MICHAEL1, fcm.StateVector(values=(0.5, bad, 0.0)))

    def test_subnormal_tolerance(self):
        initial = (0.5, 0.0, 0.0)
        traj = fcm.run(MICHAEL1, fcm.StateVector(values=initial), tol=1e-320)
        states, terminal = reference_run(MICHAEL1, initial, 200, 1e-320)
        assert terminal == traj.terminal == fcm.FIXED_POINT
        assert [s.values for s in traj.states] == states

    def test_infinite_tolerance_rejected(self):
        with pytest.raises(InputError, match=r"tol must be > 0 and finite \(got inf\)"):
            fcm.run(MICHAEL1, fcm.StateVector(values=(0.5, 0.0, 0.0)), tol=math.inf)


class TestCompiledEquivalence:
    """``step`` and ``run`` against the plain n x n update and full scan."""

    KINDS = (fcm.BIVALENT, fcm.TRIVALENT, fcm.SIGMOID)
    TOLS = (1e-12, 1e-9, 1e-6, 1e-3, 0.1, 0.5)

    def test_step_is_bit_identical(self):
        rng = random.Random(5)
        for case in range(60):
            n = 3 + case % 10
            cmap = random_map(
                rng, n, self.KINDS[case % 3], rng.choice((1.0, 5.0, 8.0)), case % 4 > 0
            )
            for _ in range(5):
                values = tuple(rng.uniform(-1, 1) for _ in range(n))
                assert fcm.step(cmap, values) == reference_step(cmap, values)

    def test_run_is_bit_identical(self):
        rng = random.Random(3)
        outcomes = set()
        for case in range(72):
            kind = self.KINDS[case % 3]
            n = 12 if case % 6 == 2 else rng.randint(3, 12)
            c = 8.0 if case % 6 == 2 else rng.choice((1.0, 5.0))
            cmap = random_map(rng, n, kind, c, drive_first=case % 5 > 0)
            initial = tuple(rng.random() for _ in range(n))
            tol = self.TOLS[(case // 3) % len(self.TOLS)]
            traj = fcm.run(cmap, fcm.StateVector(values=initial), max_iter=300, tol=tol)
            states, terminal = reference_run(cmap, initial, 300, tol)
            assert traj.terminal == terminal, case
            assert [s.values for s in traj.states] == states, case
            assert [s.iteration for s in traj.states] == list(range(len(states)))
            outcomes.add((kind, terminal))
        assert {(fcm.BIVALENT, fcm.LIMIT_CYCLE), (fcm.TRIVALENT, fcm.LIMIT_CYCLE),
                (fcm.SIGMOID, fcm.LIMIT_CYCLE), (fcm.SIGMOID, fcm.MAX_ITERATIONS),
                (fcm.SIGMOID, fcm.FIXED_POINT)} <= outcomes


def hexes(values):
    return [float.hex(float(v)) for v in values]


class TestStepMemo:
    """``step`` answers a repeated input from the map's last-step memo;
    every answer must be the plain update's, bit for bit."""

    KINDS = (fcm.BIVALENT, fcm.TRIVALENT, fcm.SIGMOID)

    def check(self, cmap, values):
        got = fcm.step(cmap, values)
        assert hexes(got) == hexes(reference_step(cmap, values)), values
        return got

    def test_revisited_states(self):
        rng = random.Random(17)
        repeats = 0
        for case in range(30):
            n = 3 + case % 6
            cmap = random_map(
                rng, n, self.KINDS[case % 3], rng.choice((1.0, 5.0, 8.0)), case % 4 > 0
            )
            pool = [tuple(rng.uniform(-1, 1) for _ in range(n)) for _ in range(3)]
            previous = None
            for _ in range(30):
                # An equal tuple, not the same object.
                values = tuple(list(rng.choice(pool)))
                self.check(cmap, values)
                repeats += values == previous
                previous = values
        assert repeats > 200

    def test_repeat_is_served_from_the_memo(self):
        values = (0.5, 0.5, 0.5)
        first = fcm.step(MICHAEL1, values)
        again = fcm.step(MICHAEL1, tuple(list(values)))
        assert again is first

    def test_two_maps_in_turn(self):
        rng = random.Random(23)
        for case in range(12):
            kind = self.KINDS[case % 3]
            first, second = random_map(rng, 4, kind), random_map(rng, 4, kind)
            pool = [tuple(rng.uniform(-1, 1) for _ in range(4)) for _ in range(2)]
            for k in range(20):
                values = pool[k // 4 % 2]
                self.check(first, values)
                self.check(second, values)

    def test_signed_zeros(self):
        rng = random.Random(29)
        for case in range(12):
            cmap = random_map(rng, 3, self.KINDS[case % 3])
            a, b = rng.uniform(-1, 1), rng.uniform(-1, 1)
            for values in ((0.0, a, b), (-0.0, a, b), (0.0, a, b), (-0.0, -0.0, -0.0),
                           (0.0, 0.0, 0.0), (-0.0, 0.0, -0.0)):
                self.check(cmap, values)

    def test_special_and_integral_inputs(self):
        nan = math.nan
        inputs = [
            (nan, 0.25, 0.5), (nan, 0.25, 0.5), (float("nan"), 0.25, 0.5),
            (math.inf, 0.25, -0.5), (math.inf, 0.25, -0.5), (-math.inf, 0.25, -0.5),
            (math.inf, -math.inf, 0.0),
            (1.0, 0.0, 1.0), (1, 0, 1), (True, False, True), (1, 0, 1),
            (0, 1, 0.5), (False, True, 0.5),
        ]
        rng = random.Random(31)
        for case in range(9):
            cmap = random_map(rng, 3, self.KINDS[case % 3], drive_first=True)
            for values in inputs:
                self.check(cmap, values)

    def test_list_input_cannot_change_the_memo(self):
        values = [0.5, 0.5, 0.5]
        self.check(MICHAEL1, values)
        values[0] = 0.9
        self.check(MICHAEL1, values)

    @pytest.mark.parametrize("kind", KINDS)
    def test_stepped_map_keeps_its_value_semantics(self, kind):
        cmap = random_map(random.Random(2), 4, kind)
        before = (hash(cmap), repr(cmap))
        values = (0.1, 0.2, 0.3, 0.4)
        fcm.step(cmap, values)
        assert cmap == random_map(random.Random(2), 4, kind)
        assert (hash(cmap), repr(cmap)) == before
        clones = (pickle.loads(pickle.dumps(cmap)), copy.copy(cmap), copy.deepcopy(cmap))
        for clone in clones:
            assert clone == cmap
            assert (hash(clone), repr(clone)) == before
            self.check(clone, values)
            self.check(clone, (0.4, 0.3, 0.2, 0.1))
        steeper = dataclasses.replace(cmap, c=8.0)
        assert steeper.c == 8.0 and steeper.weights == cmap.weights
        self.check(steeper, values)
        self.check(cmap, values)


class TestStateVector:
    def test_fields_are_frozen(self):
        state = fcm.StateVector((0.5, 0.0))
        with pytest.raises(dataclasses.FrozenInstanceError):
            state.values = (1.0, 1.0)
        with pytest.raises(dataclasses.FrozenInstanceError):
            state.iteration = 1
        assert not hasattr(state, "__dict__")

    def test_construction(self):
        assert fcm.StateVector((0.5,), 3) == fcm.StateVector(values=(0.5,), iteration=3)
        state = fcm.StateVector(values=(0.5, 0.25))
        assert state.values == (0.5, 0.25)
        assert state.iteration == 0
        with pytest.raises(TypeError):
            fcm.StateVector()
        with pytest.raises(TypeError):
            fcm.StateVector((0.5,), 1, 2)

    def test_equality_and_hash(self):
        state = fcm.StateVector((0.5, 0.25), 2)
        assert state == fcm.StateVector((0.5, 0.25), 2)
        assert hash(state) == hash(fcm.StateVector((0.5, 0.25), 2))
        assert state != fcm.StateVector((0.5, 0.25), 3)
        assert state != fcm.StateVector((0.5, 0.5), 2)
        assert repr(state) == "StateVector(values=(0.5, 0.25), iteration=2)"

    def test_pickle_copy_and_replace(self):
        original = fcm.StateVector((0.5, -0.0), 4)
        for clone in (
            pickle.loads(pickle.dumps(original)),
            copy.copy(original),
            copy.deepcopy(original),
        ):
            assert type(clone) is fcm.StateVector
            assert clone == original
            assert hexes(clone.values) == hexes(original.values)
            assert clone.iteration == 4
        assert dataclasses.replace(original, iteration=5) == fcm.StateVector(
            (0.5, -0.0), 5
        )
        assert dataclasses.replace(original, values=(1.0,)) == fcm.StateVector(
            (1.0,), 4
        )


class TestProperties:
    def test_permutation_invariance(self):
        rng = random.Random(11)
        for _ in range(25):
            n = rng.randint(2, 6)
            weights = [
                [0.0 if i == j else rng.uniform(-1, 1) for j in range(n)]
                for i in range(n)
            ]
            labels = tuple(f"n{i}" for i in range(n))
            cmap = fcm.ConceptMap(
                labels=labels, weights=tuple(tuple(r) for r in weights)
            )
            initial = tuple(rng.random() for _ in range(n))
            perm = list(range(n))
            rng.shuffle(perm)
            permuted = fcm.ConceptMap(
                labels=tuple(labels[p] for p in perm),
                weights=tuple(
                    tuple(weights[perm[i]][perm[j]] for j in range(n))
                    for i in range(n)
                ),
            )
            a = fcm.run(cmap, fcm.StateVector(values=initial), max_iter=30, tol=1e-12)
            b = fcm.run(
                permuted,
                fcm.StateVector(values=tuple(initial[p] for p in perm)),
                max_iter=30,
                tol=1e-12,
            )
            assert len(a.states) == len(b.states)
            for sa, sb in zip(a.states, b.states):
                for j in range(n):
                    assert sa.values[perm[j]] == pytest.approx(
                        sb.values[j], abs=1e-12
                    )

    def test_node_without_inputs_settles_at_half(self):
        cmap = fcm.bundled_map("michael_scenario2")
        traj = fcm.run(
            cmap, fcm.StateVector(values=(0.9, 0.8, 0.7, 1.0)), max_iter=20, tol=1e-12
        )
        for state in traj.states[1:]:
            assert state.values[3] == 0.5

    def test_sigmoid_values_strictly_inside_unit_interval(self):
        rng = random.Random(7)
        for _ in range(20):
            n = rng.randint(2, 5)
            cmap = fcm.ConceptMap(
                labels=tuple(f"n{i}" for i in range(n)),
                weights=tuple(
                    tuple(0.0 if i == j else rng.uniform(-1, 1) for j in range(n))
                    for i in range(n)
                ),
            )
            traj = fcm.run(
                cmap,
                fcm.StateVector(values=tuple(rng.random() for _ in range(n))),
                max_iter=15,
                tol=1e-15,
            )
            for state in traj.states[1:]:
                assert all(0.0 < v < 1.0 for v in state.values)


class TestGoldenReplay:
    @pytest.mark.parametrize(
        "name",
        [
            "michael_scenario1",
            "grace_scenario1",
            "michael_scenario2",
            "grace_scenario2",
        ],
    )
    def test_reference_trajectories(self, name):
        series = reference_series()[name]
        cmap = fcm.bundled_map(series["map"])
        values = tuple(series["initial"])
        for iteration, expected in enumerate(series["iterations"]):
            if iteration > 0:
                values = fcm.step(cmap, values)
            assert values == pytest.approx(tuple(expected), abs=1e-5), (
                f"{name} iteration {iteration}"
            )


class TestElicitWeights:
    LABELS = ("Mood", "Progress", "Quality", "Difficulty")

    def test_level_grid(self):
        levels = ["Not at all", "A little", "Moderately", "Mostly", "Completely"]
        expected = [0.0, 0.25, 0.5, 0.75, 1.0]
        for level, weight in zip(levels, expected):
            matrix = fcm.elicit_weights(
                self.LABELS, [("Mood", "Quality", "+", level)]
            )
            assert matrix[0][2] == weight
        # the grid is monotone in the level ordering
        weights = [
            fcm.elicit_weights(self.LABELS, [("Mood", "Quality", "+", level)])[0][2]
            for level in levels
        ]
        assert weights == sorted(weights)

    def test_positive_answer(self):
        matrix = fcm.elicit_weights(
            self.LABELS, [("Mood", "Quality", "+", "A little")]
        )
        assert matrix[0][2] == 0.25

    def test_negative_endpoint(self):
        matrix = fcm.elicit_weights(
            self.LABELS, [("Difficulty", "Mood", "-", "Completely")]
        )
        assert matrix[3][0] == -1.0

    def test_unanswered_pairs_are_zero(self):
        matrix = fcm.elicit_weights(self.LABELS, [])
        assert all(w == 0.0 for row in matrix for w in row)

    def test_duplicate_pair_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            fcm.elicit_weights(
                self.LABELS,
                [
                    ("Mood", "Quality", "+", "A little"),
                    ("Mood", "Quality", "+", "Mostly"),
                ],
            )

    def test_matrix_feeds_concept_map(self):
        matrix = fcm.elicit_weights(
            self.LABELS,
            [
                ("Mood", "Progress", "+", "A little"),
                ("Difficulty", "Mood", "-", "Moderately"),
            ],
        )
        cmap = fcm.ConceptMap(labels=self.LABELS, weights=matrix)
        assert cmap.weights[3][0] == -0.5

    def test_bad_inputs(self):
        with pytest.raises(ValueError, match="unknown node"):
            fcm.elicit_weights(self.LABELS, [("Moon", "Quality", "+", "Mostly")])
        with pytest.raises(ValueError, match="level"):
            fcm.elicit_weights(self.LABELS, [("Mood", "Quality", "+", "Loads")])
        with pytest.raises(ValueError, match="sign"):
            fcm.elicit_weights(self.LABELS, [("Mood", "Quality", "~", "Mostly")])
        with pytest.raises(ValueError, match="self"):
            fcm.elicit_weights(self.LABELS, [("Mood", "Mood", "+", "Mostly")])


class TestMapValidationAndFiles:
    def test_diagonal_must_be_zero(self):
        with pytest.raises(ValueError, match="self-feedback"):
            fcm.ConceptMap(labels=("a", "b"), weights=((0.5, 0), (0, 0)))

    def test_labels_non_empty_and_unique(self):
        with pytest.raises(InputError) as err:
            fcm.ConceptMap(labels=(), weights=())
        assert err.value.errors == ["labels: must name at least one node"]
        with pytest.raises(InputError) as err:
            fcm.ConceptMap(labels=("a", "b", "a", "b", "a"), weights=((0,) * 5,) * 5)
        assert err.value.errors == [
            "labels[2]: duplicate label 'a'",
            "labels[3]: duplicate label 'b'",
            "labels[4]: duplicate label 'a'",
        ]

    def test_weight_range(self):
        with pytest.raises(ValueError, match="outside"):
            fcm.ConceptMap(labels=("a", "b"), weights=((0, 1.5), (0, 0)))

    def test_shape_checked(self):
        with pytest.raises(ValueError, match="matrix"):
            fcm.ConceptMap(labels=("a", "b"), weights=((0, 0),))

    def test_map_file_round_trip(self, tmp_path):
        path = tmp_path / "map.json"
        fcm.save_map(GRACE1, path)
        assert fcm.load_map(path) == GRACE1

    @pytest.mark.parametrize("key", ["weights", "c"])
    def test_map_file_rejects_bool_number(self, key, tmp_path):
        # float(True) is 1.0: a boolean weight or steepness must not load.
        doc = fcm.map_to_document(GRACE1)
        if key == "weights":
            doc["weights"][0][1] = True
        else:
            doc["c"] = True
        path = tmp_path / "map.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        with pytest.raises(InputError) as err:
            fcm.load_map(path)
        assert err.value.errors == [
            f"invalid map file {path}: {key}: invalid value {doc[key]!r}"
        ]

    def test_map_file_rejects_non_string_label(self, tmp_path):
        doc = fcm.map_to_document(GRACE1)
        doc["labels"] = [1, None, [2]]
        path = tmp_path / "map.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        with pytest.raises(InputError) as err:
            fcm.load_map(path)
        assert err.value.errors == [
            f"invalid map file {path}: labels: invalid value [1, None, [2]]"
        ]

    def test_map_file_with_byte_order_mark(self, tmp_path):
        path = tmp_path / "map.json"
        fcm.save_map(GRACE1, path)
        path.write_bytes(b"\xef\xbb\xbf" + path.read_bytes())
        assert fcm.load_map(path) == GRACE1

    def test_bundled_names(self):
        for name in fcm.bundled_map_names():
            cmap = fcm.bundled_map(name)
            assert cmap.transform == fcm.SIGMOID
            assert cmap.c == 5.0
        with pytest.raises(KeyError):
            fcm.bundled_map("nobody_scenario9")

    def test_bundled_map_read_once(self):
        for name in fcm.bundled_map_names():
            assert fcm.bundled_map(name) is fcm.bundled_map(name)
