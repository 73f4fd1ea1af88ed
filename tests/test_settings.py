"""The consolidated :class:`SynthesisSettings` API and its shims.

One frozen settings object now carries every loop-tuning knob through
``integrate`` / ``IntegrationSynthesizer`` / ``MultiLegacySynthesizer``;
the old per-call keywords still work but warn.  The regression tests at
the bottom pin the ``integrate`` → multi-legacy forwarding bug: the
joint branch used to drop ``universes`` and the counterexample batch
size on the floor.
"""

from __future__ import annotations

import inspect

import pytest

from repro import railcab
from repro.errors import SynthesisError
from repro.integration import SynthesisSettings, integrate
from repro.automata.interning import DENSE_STATE_FLOOR
from repro.legacy import interface_of
from repro.synthesis import IntegrationSynthesizer, Verdict
from repro.synthesis.multi import MultiLegacySynthesizer
from tests.test_integration_facade import convoy_architecture, two_legacy_architecture


# ------------------------------------------------------------------ the object


class TestSynthesisSettings:
    def test_defaults(self):
        settings = SynthesisSettings()
        assert settings.max_iterations is None
        assert settings.counterexamples_per_iteration == 1
        assert settings.incremental is True
        assert settings.parallelism is None
        assert settings.checker_parallelism is None
        assert settings.iterations_or(500) == 500
        assert SynthesisSettings(max_iterations=7).iterations_or(500) == 7

    def test_frozen(self):
        with pytest.raises(AttributeError):
            SynthesisSettings().max_iterations = 3  # type: ignore[misc]

    def test_validation(self):
        with pytest.raises(SynthesisError, match="counterexamples_per_iteration"):
            SynthesisSettings(counterexamples_per_iteration=0)
        with pytest.raises(SynthesisError, match="max_iterations"):
            SynthesisSettings(max_iterations=0)

    def test_checker_parallelism_falls_back_to_parallelism(self, monkeypatch):
        from repro.automata import CHECKER_PARALLELISM_ENV, PARALLELISM_ENV

        monkeypatch.delenv(PARALLELISM_ENV, raising=False)
        monkeypatch.delenv(CHECKER_PARALLELISM_ENV, raising=False)
        assert SynthesisSettings().resolved_checker_parallelism() == 1
        assert SynthesisSettings(parallelism=4).resolved_checker_parallelism() == 4
        assert (
            SynthesisSettings(parallelism=4, checker_parallelism=2)
            .resolved_checker_parallelism()
            == 2
        )
        monkeypatch.setenv(CHECKER_PARALLELISM_ENV, "8")
        assert SynthesisSettings(parallelism=4).resolved_checker_parallelism() == 8


# ------------------------------------------------------------ deprecated shims


class TestDeprecatedKeywords:
    def test_synthesizer_legacy_keywords_warn_but_work(self):
        with pytest.deprecated_call(match="IntegrationSynthesizer"):
            synthesizer = IntegrationSynthesizer(
                railcab.front_role_automaton(),
                railcab.correct_rear_shuttle(convoy_ticks=1),
                railcab.PATTERN_CONSTRAINT,
                labeler=railcab.rear_state_labeler,
                port="rearRole",
                max_iterations=50,
                parallelism=2,
            )
        assert synthesizer.max_iterations == 50
        assert synthesizer.parallelism == 2
        assert synthesizer.settings == SynthesisSettings(
            max_iterations=50, parallelism=2
        )
        assert synthesizer.run().verdict is Verdict.PROVEN

    def test_legacy_keywords_override_settings(self):
        with pytest.deprecated_call():
            synthesizer = IntegrationSynthesizer(
                railcab.front_role_automaton(),
                railcab.correct_rear_shuttle(convoy_ticks=1),
                railcab.PATTERN_CONSTRAINT,
                labeler=railcab.rear_state_labeler,
                port="rearRole",
                settings=SynthesisSettings(max_iterations=9, parallelism=2),
                max_iterations=50,
            )
        assert synthesizer.settings.max_iterations == 50
        assert synthesizer.settings.parallelism == 2  # untouched

    def test_settings_alone_do_not_warn(self, recwarn):
        IntegrationSynthesizer(
            railcab.front_role_automaton(),
            railcab.correct_rear_shuttle(convoy_ticks=1),
            railcab.PATTERN_CONSTRAINT,
            labeler=railcab.rear_state_labeler,
            port="rearRole",
            settings=SynthesisSettings(max_iterations=50),
        )
        assert not [w for w in recwarn if w.category is DeprecationWarning]

    def test_multi_legacy_keywords_warn_but_work(self):
        with pytest.deprecated_call(match="MultiLegacySynthesizer"):
            synthesizer = MultiLegacySynthesizer(
                None,
                [railcab.correct_front_shuttle(), railcab.correct_rear_shuttle()],
                railcab.PATTERN_CONSTRAINT,
                labelers={
                    "frontShuttle": railcab.front_state_labeler,
                    "rearShuttle": railcab.rear_state_labeler,
                },
                max_iterations=77,
                counterexamples_per_iteration=2,
            )
        assert synthesizer.max_iterations == 77
        assert synthesizer.counterexamples_per_iteration == 2

    def test_integrate_legacy_keywords_warn_but_work(self):
        with pytest.deprecated_call(match="integrate"):
            report = integrate(
                convoy_architecture(),
                {"follower": railcab.correct_rear_shuttle(convoy_ticks=1)},
                labelers={"follower": railcab.rear_state_labeler},
                max_iterations=50,
            )
        assert report.ok


def _here() -> int:
    return inspect.currentframe().f_back.f_lineno  # type: ignore[union-attr]


class TestWarningLocations:
    """The shims must blame the *caller* of the deprecated API.

    ``warnings.warn(..., stacklevel=...)`` is easy to get wrong by one
    frame — the warning then points inside the library and a
    ``-W error`` user cannot find the call to fix.  These tests pin the
    reported filename (this file, not settings.py / iterate.py) and the
    line number range of the deprecated call itself.
    """

    def test_synthesizer_keyword_warning_blames_this_file(self):
        begin = _here()
        with pytest.warns(DeprecationWarning, match="IntegrationSynthesizer") as captured:
            IntegrationSynthesizer(
                railcab.front_role_automaton(),
                railcab.correct_rear_shuttle(convoy_ticks=1),
                railcab.PATTERN_CONSTRAINT,
                labeler=railcab.rear_state_labeler,
                port="rearRole",
                max_iterations=50,
            )
        end = _here()
        warning = captured.pop(DeprecationWarning)
        assert warning.filename == __file__
        assert begin < warning.lineno < end

    def test_multi_keyword_warning_blames_this_file(self):
        begin = _here()
        with pytest.warns(DeprecationWarning, match="MultiLegacySynthesizer") as captured:
            MultiLegacySynthesizer(
                None,
                [railcab.correct_front_shuttle(), railcab.correct_rear_shuttle()],
                railcab.PATTERN_CONSTRAINT,
                labelers={
                    "frontShuttle": railcab.front_state_labeler,
                    "rearShuttle": railcab.rear_state_labeler,
                },
                max_iterations=77,
            )
        end = _here()
        warning = captured.pop(DeprecationWarning)
        assert warning.filename == __file__
        assert begin < warning.lineno < end

    def test_integrate_keyword_warning_blames_this_file(self):
        begin = _here()
        with pytest.warns(DeprecationWarning, match="integrate") as captured:
            integrate(
                convoy_architecture(),
                {"follower": railcab.correct_rear_shuttle(convoy_ticks=1)},
                labelers={"follower": railcab.rear_state_labeler},
                max_iterations=50,
            )
        end = _here()
        warning = captured.pop(DeprecationWarning)
        assert warning.filename == __file__
        assert begin < warning.lineno < end

    def test_renamed_counter_warning_blames_this_file(self):
        from repro.synthesis import IterationRecord
        from repro.synthesis.multi import MultiIterationRecord

        record = IterationRecord(
            0, 1, 0, 0, 1, 0, 1, True, True, None, None, False, None, 0, 0, None, 0
        )
        with pytest.warns(DeprecationWarning, match="shard_handoffs") as captured:
            _ = record.shard_handoffs
        warning = captured.pop(DeprecationWarning)
        assert warning.filename == __file__
        assert "product_shard_handoffs" in str(warning.message)

        multi_record = MultiIterationRecord(
            0, (), 1, True, True, None, None, False, 0, (), 0
        )
        with pytest.warns(DeprecationWarning, match="MultiIterationRecord") as captured:
            _ = multi_record.shard_states_explored
        warning = captured.pop(DeprecationWarning)
        assert warning.filename == __file__


# ----------------------------------------------- integrate forwarding (bugfix)


class _Recorder(MultiLegacySynthesizer):
    """Real multi-synthesizer that also records its constructor kwargs."""

    captured: dict = {}

    def __init__(self, *args, **kwargs):
        type(self).captured = dict(kwargs)
        super().__init__(*args, **kwargs)


class TestIntegrateForwarding:
    def test_multi_branch_forwards_universes_and_settings(self, monkeypatch):
        monkeypatch.setattr(
            "repro.integration.MultiLegacySynthesizer", _Recorder
        )
        front = railcab.correct_front_shuttle()
        rear = railcab.correct_rear_shuttle(convoy_ticks=1)
        settings = SynthesisSettings(counterexamples_per_iteration=2)
        report = integrate(
            two_legacy_architecture(),
            {"leader": front, "follower": rear},
            labelers={
                "leader": railcab.front_state_labeler,
                "follower": railcab.rear_state_labeler,
            },
            universes={"follower": interface_of(rear).universe()},
            settings=settings,
        )
        assert report.ok
        captured = _Recorder.captured
        # The bug: both of these used to be dropped on the multi branch.
        assert captured["universes"] == {
            rear.name: interface_of(rear).universe()
        }
        assert captured["settings"] == settings
        assert captured["settings"].counterexamples_per_iteration == 2

    def test_single_branch_forwards_settings(self):
        report = integrate(
            convoy_architecture(),
            {"follower": railcab.correct_rear_shuttle(convoy_ticks=1)},
            labelers={"follower": railcab.rear_state_labeler},
            settings=SynthesisSettings(parallelism=2, checker_parallelism=2),
        )
        assert report.ok
        result = report.placements["follower"]
        assert all(r.product_shards == 2 for r in result.iterations)
        assert all(r.checker_shards == 2 for r in result.iterations)


# ------------------------------------------------------- dense resolution


class TestResolvedDense:
    """``resolved_dense`` at the exact adaptive boundary and under env."""

    def test_adaptive_boundary_is_exactly_the_floor(self, monkeypatch):
        monkeypatch.delenv("REPRO_DENSE", raising=False)
        settings = SynthesisSettings()  # dense=None: adaptive
        assert DENSE_STATE_FLOOR == 2048  # the documented contract
        assert settings.resolved_dense(DENSE_STATE_FLOOR - 1) is False
        assert settings.resolved_dense(DENSE_STATE_FLOOR) is True
        assert settings.resolved_dense(DENSE_STATE_FLOOR + 1) is True

    def test_unknown_state_count_defaults_dense(self, monkeypatch):
        monkeypatch.delenv("REPRO_DENSE", raising=False)
        # No size estimate: the dense core is the safe default.
        assert SynthesisSettings().resolved_dense(None) is True

    def test_env_overrides_adaptive_default(self, monkeypatch):
        settings = SynthesisSettings()
        monkeypatch.setenv("REPRO_DENSE", "1")
        assert settings.resolved_dense(DENSE_STATE_FLOOR - 1) is True
        assert settings.resolved_dense(1) is True
        monkeypatch.setenv("REPRO_DENSE", "0")
        assert settings.resolved_dense(DENSE_STATE_FLOOR) is False
        assert settings.resolved_dense(10**6) is False

    def test_explicit_setting_beats_env_and_size(self, monkeypatch):
        monkeypatch.setenv("REPRO_DENSE", "0")
        assert SynthesisSettings(dense=True).resolved_dense(1) is True
        monkeypatch.setenv("REPRO_DENSE", "1")
        assert SynthesisSettings(dense=False).resolved_dense(10**6) is False


class TestResolvedDenseProduct:
    """``resolved_dense_product`` / ``resolved_product_strategy`` knobs."""

    def test_defaults_and_validation(self):
        settings = SynthesisSettings()
        assert settings.dense_product is None
        assert settings.product_strategy is None
        with pytest.raises(SynthesisError):
            SynthesisSettings(dense_product="yes")  # type: ignore[arg-type]
        with pytest.raises(SynthesisError, match="strategy"):
            SynthesisSettings(product_strategy="fibers")

    def test_adaptive_boundary_is_exactly_the_floor(self, monkeypatch):
        monkeypatch.delenv("REPRO_DENSE_PRODUCT", raising=False)
        settings = SynthesisSettings()  # dense_product=None: adaptive
        assert settings.resolved_dense_product(DENSE_STATE_FLOOR - 1) is False
        assert settings.resolved_dense_product(DENSE_STATE_FLOOR) is True
        assert settings.resolved_dense_product(None) is True  # dense default

    def test_env_overrides_adaptive_default(self, monkeypatch):
        settings = SynthesisSettings()
        monkeypatch.setenv("REPRO_DENSE_PRODUCT", "1")
        assert settings.resolved_dense_product(1) is True
        monkeypatch.setenv("REPRO_DENSE_PRODUCT", "0")
        assert settings.resolved_dense_product(10**6) is False

    def test_explicit_setting_beats_env_and_size(self, monkeypatch):
        monkeypatch.setenv("REPRO_DENSE_PRODUCT", "0")
        assert SynthesisSettings(dense_product=True).resolved_dense_product(1) is True
        monkeypatch.setenv("REPRO_DENSE_PRODUCT", "1")
        assert (
            SynthesisSettings(dense_product=False).resolved_dense_product(10**6)
            is False
        )

    def test_product_strategy_resolution(self, monkeypatch):
        monkeypatch.delenv("REPRO_PRODUCT_STRATEGY", raising=False)
        assert SynthesisSettings().resolved_product_strategy() is None
        assert (
            SynthesisSettings(product_strategy="thread").resolved_product_strategy()
            == "thread"
        )
        monkeypatch.setenv("REPRO_PRODUCT_STRATEGY", "process")
        assert SynthesisSettings().resolved_product_strategy() == "process"
        assert (
            SynthesisSettings(product_strategy="sequential")
            .resolved_product_strategy()
            == "sequential"
        )

    def test_loop_results_are_knob_independent(self):
        def build(**knobs):
            return IntegrationSynthesizer(
                railcab.front_role_automaton(),
                railcab.correct_rear_shuttle(convoy_ticks=1),
                railcab.PATTERN_CONSTRAINT,
                labeler=railcab.rear_state_labeler,
                port="rearRole",
                settings=SynthesisSettings(**knobs),
            ).run()

        reference = build()
        for knobs in (
            {"dense_product": True},
            {"dense_product": False},
            {"dense_product": True, "parallelism": 4, "product_strategy": "thread"},
        ):
            result = build(**knobs)
            assert result.verdict is reference.verdict is Verdict.PROVEN
            assert result.final_model == reference.final_model
            assert result.iteration_count == reference.iteration_count
