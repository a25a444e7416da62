"""The soak harness: determinism, oracle checks, failure shrinking, the CLI."""

import json

import pytest

from repro import faults
from repro.cli import main as cli_main
from repro.workloads.soak import (
    InProcessTarget,
    SoakError,
    SoakFailure,
    SoakRunner,
    SoakSpec,
    family_turtle,
    run_soak,
)

SPEC_KEYS = {
    "batch", "check_every", "churn", "compressed", "containment_chain",
    "duration", "family", "fault", "hotspot", "max_shrink_replays", "seed",
    "size", "steps", "weights",
}

REPORT_KEYS = {
    "invariant_checks_passed", "modes", "ops",
    "ops_per_second", "seconds", "spec", "steps", "faults",
}


@pytest.fixture(autouse=True)
def _no_leaked_injector():
    faults.uninstall()
    yield
    faults.uninstall()


def _short_spec(**overrides) -> SoakSpec:
    defaults = dict(steps=20, seed=7, size=2, check_every=4, batch=2,
                    containment_chain=1)
    defaults.update(overrides)
    return SoakSpec(**defaults)


class TestSpec:
    def test_to_json_shape(self):
        payload = SoakSpec().to_json()
        assert set(payload) == SPEC_KEYS
        assert payload["steps"] == 250
        assert payload["seed"] == 1234
        assert payload["weights"] == {
            "contains": 0.1, "revalidate": 0.25, "update": 0.5, "validate": 0.15,
        }

    def test_unknown_family_rejected(self):
        with pytest.raises(SoakError, match="unknown workload family"):
            SoakRunner(SoakSpec(family="webshop"), InProcessTarget())

    def test_family_turtle_copies_are_disjoint(self):
        text = family_turtle(3)
        assert "ex:c0_bug1" in text and "ex:c2_bug1" in text
        assert '"Boom!0"' in text and '"Boom!2"' in text


class TestRuns:
    def test_short_in_process_run_checks_invariants(self):
        report = run_soak(_short_spec(), InProcessTarget())
        assert set(report) == REPORT_KEYS
        assert report["steps"] == 20
        assert report["invariant_checks_passed"] > 0
        assert report["faults"]["unrecovered"] == 0
        assert sum(report["ops"].values()) == 20

    def test_same_seed_same_tallies(self):
        first = run_soak(_short_spec(), InProcessTarget())
        second = run_soak(_short_spec(), InProcessTarget())
        assert first["ops"] == second["ops"]
        assert first["invariant_checks_passed"] == second["invariant_checks_passed"]

    def test_different_seed_different_schedule(self):
        first = run_soak(_short_spec(steps=40), InProcessTarget())
        second = run_soak(_short_spec(steps=40, seed=8), InProcessTarget())
        assert first["ops"] != second["ops"]

    def test_compressed_pinning_still_passes_oracles(self):
        # The periodic full check always compares uncompressed typings, so
        # pinning the semantics must not break verdict parity.
        report = run_soak(_short_spec(compressed=True), InProcessTarget())
        assert report["spec"]["compressed"] is True
        assert report["invariant_checks_passed"] > 0

    def test_faulted_in_process_run_recovers(self):
        faults.install("compute", seed=3)
        report = run_soak(_short_spec(steps=30, fault="compute"), InProcessTarget())
        assert report["faults"]["unrecovered"] == 0
        # Recovery accounting only counts when something actually fired.
        if report["faults"]["injected"]:
            assert report["faults"]["op_retries"] >= 1


class _LyingTarget(InProcessTarget):
    """Answers revalidations with an inverted verdict after a few updates."""

    def __init__(self):
        super().__init__()
        self.updates = 0

    def update(self, delta_json, expect_version):
        self.updates += 1
        return super().update(delta_json, expect_version)

    def revalidate(self, schema_key, compressed):
        answer = super().revalidate(schema_key, compressed)
        if self.updates >= 3:
            answer["verdict"] = (
                "invalid" if answer["verdict"] == "valid" else "valid"
            )
            answer["untyped_nodes"] = ["lie"]
        return answer


class TestFailurePath:
    def test_lying_target_raises_soak_failure_with_report(self):
        spec = _short_spec(steps=40, max_shrink_replays=10)
        runner = SoakRunner(spec, _LyingTarget())
        with pytest.raises(SoakFailure) as info:
            runner.run()
        failure = info.value
        assert set(failure.report) == REPORT_KEYS
        # The target lied but the engines are sound: the failure does not
        # reproduce in-process, so shrinking reports an empty sequence
        # after spending at least the probe replay.
        assert failure.shrunk == []
        assert runner.shrink_replays >= 1
        assert runner.shrink_replays <= spec.max_shrink_replays

    def test_replay_budget_is_respected(self):
        spec = _short_spec(steps=40, max_shrink_replays=0)
        runner = SoakRunner(spec, _LyingTarget())
        with pytest.raises(SoakFailure):
            runner.run()
        assert runner.shrink_replays <= 1  # the reproducibility probe only

    def test_shrink_suspends_fault_injection(self):
        faults.install("mixed", seed=1)
        runner = SoakRunner(_short_spec(steps=40), _LyingTarget())
        with pytest.raises(SoakFailure):
            runner.run()
        # The injector survives the shrink (suspended, then restored).
        assert faults.active() is not None


class TestCli:
    def test_soak_subcommand_in_process(self, tmp_path, capsys):
        output = tmp_path / "report.json"
        code = cli_main([
            "soak", "--steps", "12", "--seed", "5", "--in-process",
            "--fault", "none", "--size", "2", "--chain", "1",
            "--output", str(output),
        ])
        assert code == 0
        report = json.loads(output.read_text())
        assert set(report) == REPORT_KEYS
        assert report["spec"]["fault"] is None
        assert "soak OK" in capsys.readouterr().out

    def test_soak_subcommand_rejects_conflicting_targets(self, tmp_path):
        code = cli_main([
            "soak", "--steps", "1", "--in-process", "--connect", "nowhere",
        ])
        assert code == 2
