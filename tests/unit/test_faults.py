"""The fault-injection layer: plans, determinism, gating, the no-op fast path."""

import pytest

from repro import faults
from repro.faults import (
    FAULT_POINTS,
    SCHEDULES,
    FaultInjector,
    FaultPlan,
    InjectedFault,
    InjectedIOError,
)


@pytest.fixture(autouse=True)
def _no_leaked_injector():
    """Every test starts and ends with injection off."""
    faults.uninstall()
    yield
    faults.uninstall()


class TestFaultPlan:
    def test_parse_schedule_name(self):
        plan = FaultPlan.parse("mixed")
        assert plan.rates == SCHEDULES["mixed"]
        assert plan.name == "mixed"

    def test_parse_explicit_rates_and_fields(self):
        plan = FaultPlan.parse("solver=0.5,seed=9,delay_ms=2")
        assert plan.rates == {"solver": 0.5}
        assert plan.seed == 9
        assert plan.delay_ms == 2.0

    def test_parse_merges_schedule_and_overrides(self):
        plan = FaultPlan.parse("drops,daemon.drop=0.5")
        assert plan.rates["daemon.drop"] == 0.5
        assert plan.rates["daemon.partial"] == SCHEDULES["drops"]["daemon.partial"]

    def test_seed_argument_wins_over_token(self):
        assert FaultPlan.parse("mixed,seed=3", seed=11).seed == 11

    def test_unknown_point_rejected(self):
        with pytest.raises(ValueError, match="unknown fault point"):
            FaultPlan(rates={"bogus": 0.1})

    def test_unknown_schedule_rejected(self):
        with pytest.raises(ValueError, match="unknown fault schedule"):
            FaultPlan.parse("chaotic")

    def test_every_schedule_names_only_known_points(self):
        for name, rates in SCHEDULES.items():
            for point in rates:
                assert point in FAULT_POINTS, (name, point)


class TestFaultInjector:
    def test_same_seed_same_decisions(self):
        plan = FaultPlan(rates={"solver": 0.3}, seed=42)
        injector_a = FaultInjector(plan)
        injector_b = FaultInjector(plan)
        decisions_a = [injector_a.should_fire("solver") for _ in range(50)]
        decisions_b = [injector_b.should_fire("solver") for _ in range(50)]
        assert decisions_a == decisions_b
        assert any(decisions_a), "a 0.3 rate should fire within 50 draws"

    def test_rate_one_always_fires_rate_zero_never(self):
        injector = FaultInjector(FaultPlan(rates={"solver": 1.0}, seed=1))
        assert all(injector.should_fire("solver") for _ in range(10))
        assert not any(injector.should_fire("executor") for _ in range(10))

    def test_stats_tally_checked_and_fired(self):
        injector = FaultInjector(FaultPlan(rates={"solver": 1.0}, seed=1))
        injector.should_fire("solver")
        injector.should_fire("executor")
        stats = injector.stats()
        assert stats["fired"] == {"solver": 1}
        assert stats["checked"] == {"solver": 1, "executor": 1}
        assert injector.fired_total() == 1

    def test_maybe_fail_raises_the_point_flavour(self):
        injector = FaultInjector(
            FaultPlan(rates={"solver": 1.0, "persist.io": 1.0}, seed=1)
        )
        with pytest.raises(InjectedFault) as info:
            injector.maybe_fail("solver")
        assert info.value.point == "solver"
        assert not isinstance(info.value, OSError)
        with pytest.raises(InjectedIOError) as info:
            injector.maybe_fail("persist.io")
        assert isinstance(info.value, OSError)


class TestModuleGating:
    def test_noop_fast_path_when_uninstalled(self):
        assert faults.active() is None
        assert faults.should_fire("solver") is False
        faults.maybe_fail("solver")  # must not raise
        assert faults.stats() == {"fired": {}, "checked": {}}
        assert faults.delay_seconds() == 0.0
        assert faults.plan_summary() is None

    def test_install_and_uninstall_round_trip(self):
        injector = faults.install("compute", seed=5)
        assert faults.active() is injector
        assert faults.plan_summary() == ("compute", 5)
        assert faults.uninstall() is injector
        assert faults.active() is None

    def test_install_accepts_plan_with_seed_override(self):
        plan = FaultPlan(rates={"solver": 0.2}, seed=1, name="x")
        injector = faults.install(plan, seed=7)
        assert injector.plan.seed == 7
        assert injector.plan.rates == {"solver": 0.2}

    def test_env_gating(self, monkeypatch):
        monkeypatch.setenv("REPRO_FAULTS", "solver=1.0,seed=2")
        state = faults._State()
        assert state.injector is not None
        assert state.injector.plan.rates == {"solver": 1.0}
        monkeypatch.setenv("REPRO_FAULTS", "off")
        assert faults._State().injector is None
        monkeypatch.delenv("REPRO_FAULTS")
        assert faults._State().injector is None


class TestInjectionPoints:
    def test_solver_point_fires_inside_solve(self):
        from repro.presburger.formula import const, eq
        from repro.presburger.solver import is_satisfiable

        faults.install("solver=1.0", seed=0)
        with pytest.raises(InjectedFault):
            is_satisfiable(eq(const(3), const(3)))

    def test_executor_point_surfaces_through_run_batch(self):
        from repro.engine.validation import ValidationEngine
        from repro.workloads.bugtracker import bug_tracker_graph, bug_tracker_schema

        engine = ValidationEngine(backend="serial", cache_size=8)
        faults.install("executor=1.0", seed=0)
        try:
            engine.submit(bug_tracker_graph(), bug_tracker_schema())
            with pytest.raises(InjectedFault):
                engine.run_batch()
            faults.uninstall()
            # The failed job was never cached: a retry recomputes and succeeds.
            engine.submit(bug_tracker_graph(), bug_tracker_schema())
            report = engine.run_batch()
            assert report.results[0].verdict == "valid"
            assert not report.results[0].cached
        finally:
            engine.close()
