"""Unit tests for observers and mechanisms (section 7.3)."""

import random

import pytest

from repro.analysis.random_systems import random_system
from repro.core.constraints import Constraint
from repro.core.dependency import transmits
from repro.core.system import History, Operation
from repro.lang.builders import SystemBuilder
from repro.lang.expr import var
from repro.systems.mechanism import (
    added_paths,
    history_observer,
    observed_transmits,
    observed_transmits_ever,
    restrict_operations,
    timed_observer,
    trace_observer,
    value_observer,
)
from repro.systems.program import (
    AssignNode,
    Flowchart,
    TestNode,
    build_program_system,
)


@pytest.fixture
def copy_system():
    b = SystemBuilder().booleans("a", "bb")
    b.op_assign("copy", "bb", var("a"))
    return b.build()


class TestObservers:
    def test_value_observer_sees_final_values(self, copy_system):
        obs = value_observer("bb")
        h = History.of(copy_system.operation("copy"))
        s = copy_system.space.state(a=True, bb=False)
        assert obs(s, h) == (True,)

    def test_history_observer_matches_strong_dependency(self, copy_system):
        """For any fixed history, the history observer and Def 2-10 agree
        — the identification section 6.5 makes."""
        obs = history_observer("bb")
        for h in copy_system.histories(2):
            direct = bool(transmits(copy_system, {"a"}, "bb", h))
            observed = (
                observed_transmits(copy_system, {"a"}, obs, h) is not None
            )
            assert direct == observed, h

    @pytest.mark.parametrize("seed", range(12))
    def test_foreign_history_observer_matches_generic_scan(self, seed):
        """Over a history with foreign operations (a composite and a
        lambda), a history observer decided on the engine's tables gives
        the verdict and witness pair of the generic scan, which runs the
        same observer without its ``final_value_names``."""
        rng = random.Random(seed)
        system = random_system(rng, n_objects=3, domain_size=2, n_operations=2)
        ops = system.operations
        names = list(system.space.names)
        t = rng.choice(names)
        flip = Operation("flip", lambda s: s.replace(**{t: 1 - s[t]}))
        history = History.of(ops[0].then(ops[-1]), flip, rng.choice(ops))
        for target in names:
            observer = history_observer(target)

            def scanned(state, h, observer=observer):
                return observer(state, h)

            for source in names:
                fast = observed_transmits(system, {source}, observer, history)
                slow = observed_transmits(system, {source}, scanned, history)
                assert (fast is None) == (slow is None), (source, target)
                if fast is not None:
                    assert (fast.sigma1, fast.sigma2) == (slow.sigma1, slow.sigma2)
                    assert fast.observation1 != fast.observation2

    def test_trace_observer_strictly_stronger(self):
        """An overwrite hides a's value from the final-value observer but
        not from the trace observer."""
        b = SystemBuilder().booleans("a", "bb")
        b.op_assign("copy", "bb", var("a"))
        b.op_assign("wipe", "bb", False)
        system = b.build()
        h = system.history("copy", "wipe")
        final = value_observer("bb")
        trace = trace_observer("bb")
        assert observed_transmits(system, {"a"}, final, h) is None
        assert observed_transmits(system, {"a"}, trace, h) is not None

    def test_observed_transmits_constraint(self, copy_system):
        obs = value_observer("bb")
        h = History.of(copy_system.operation("copy"))
        frozen = Constraint.equals(copy_system.space, "a", False)
        assert observed_transmits(copy_system, {"a"}, obs, h, frozen) is None

    def test_observed_transmits_ever_bounded(self, copy_system):
        obs = value_observer("bb")
        witness = observed_transmits_ever(copy_system, {"a"}, obs, 2)
        assert witness is not None
        assert witness.observation1 != witness.observation2


class TestSection65Observers:
    """The paper's deferred claim, discharged: the two-branch program is
    leaky for the history observer, safe for the timed observer."""

    @pytest.fixture(scope="class")
    def branchy(self):
        fc = Flowchart(
            [
                TestNode(1, var("alpha"), 2, 3),
                AssignNode(2, "beta", 0, 4),
                AssignNode(3, "beta", 0, 4),
            ],
            entry=1,
            halt=4,
        )
        return build_program_system(
            fc, {"alpha": (False, True), "beta": (0, 37)}
        )

    def test_history_observer_leaks(self, branchy):
        obs = history_observer("beta")
        witness = observed_transmits_ever(
            branchy.system, {"alpha"}, obs, 2, branchy.entry_constraint()
        )
        assert witness is not None

    def test_timed_observer_on_step_system_is_safe(self, branchy):
        """The paper's claim made formal: under the sequential control
        mechanism (a single 'step' operation — program runs, not
        arbitrary node subsequences), an observer of beta who sees only
        the passage of time learns nothing about alpha."""
        step_system = branchy.flowchart.to_step_system(
            {"alpha": (False, True), "beta": (0, 37)}
        )
        obs = timed_observer("beta")
        witness = observed_transmits_ever(
            step_system,
            {"alpha"},
            obs,
            4,
            branchy.entry_constraint(),
        )
        assert witness is None

    def test_step_system_still_transmits_to_pc(self, branchy):
        """Sanity: the mechanism hides the branch from beta, not from an
        observer of the pc itself."""
        step_system = branchy.flowchart.to_step_system(
            {"alpha": (False, True), "beta": (0, 37)}
        )
        obs = timed_observer("pc")
        witness = observed_transmits_ever(
            step_system, {"alpha"}, obs, 1, branchy.entry_constraint()
        )
        assert witness is not None  # pc = 2 vs 3 after one step

    def test_raw_node_system_leaks_even_timed(self, branchy):
        """Without the mechanism, 'time' does not protect beta: the
        history delta1 delta2 writes beta in one run only."""
        obs = timed_observer("beta")
        witness = observed_transmits_ever(
            branchy.system, {"alpha"}, obs, 2, branchy.entry_constraint()
        )
        assert witness is not None


class TestMechanisms:
    def test_restrict_operations(self):
        b = SystemBuilder().booleans("a", "bb")
        b.op_assign("copy", "bb", var("a"))
        b.op_assign("wipe", "bb", False)
        system = b.build()
        reduced = restrict_operations(system, ["wipe"])
        assert reduced.operation_names == ("wipe",)

    def test_added_paths_detects_rotenberg(self):
        """Adding a grant-like operation opens a path absent in the base
        system."""
        base_b = SystemBuilder().booleans("gate", "secret", "out")
        base_b.op_cmd(
            "guarded",
            __import__(
                "repro.lang.cmd", fromlist=["when"]
            ).when(var("gate"), __import__(
                "repro.lang.cmd", fromlist=["assign"]
            ).assign("out", var("secret"))),
        )
        base = base_b.build()

        aug_b = SystemBuilder().booleans("gate", "secret", "out")
        from repro.lang.cmd import assign, when

        aug_b.op_cmd("guarded", when(var("gate"), assign("out", var("secret"))))
        aug_b.op_cmd("open", assign("gate", True))
        augmented = aug_b.build()

        closed = Constraint(
            base.space, lambda s: not s["gate"], name="~gate"
        )
        new_paths = added_paths(base, augmented, closed)
        assert ("secret", "out") in new_paths

    def test_added_paths_requires_same_space(self):
        b1 = SystemBuilder().booleans("x").op_assign("id", "x", var("x")).build()
        b2 = SystemBuilder().booleans("y").op_assign("id", "y", var("y")).build()
        with pytest.raises(ValueError):
            added_paths(b1, b2)
