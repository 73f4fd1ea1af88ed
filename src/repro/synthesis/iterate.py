"""Iterative behavior synthesis: the paper's core loop (§4, Figure 2).

Each iteration performs the three steps of the scheme:

1. **Verify** (§4.1): model-check ``M_a^c ∥ chaos(M_l^i) ⊨ φ_weak ∧ ¬δ``
   where ``φ_weak`` is the §2.7 chaos weakening of the required
   property.  Success proves ``M_r^c ∥ M_r ⊨ φ`` (Lemma 5) — done.
2. **Test** (§4.2): otherwise the counterexample, projected onto the
   legacy component, is executed against the real component.  A
   counterexample whose legacy projection never visits the chaotic
   states is a *conflict in the synthesized part* and proves a real
   integration error without any test ("fast conflict detection",
   Listing 1.4).  A confirmed test of a chaos-visiting property
   counterexample is *not* yet proof (§4.2: such a run "is not really a
   possible run of ``M_r^c ∥ M_r``" because the concrete system has no
   chaos states) — it is learning material.  Deadlock counterexamples
   are confirmed by *probing*: after driving the component down the
   prefix, every interaction the context offers in the deadlocked
   configuration is attempted; only if none is served is the deadlock
   real.
3. **Learn** (§4.3): observed behavior — reactions, divergences,
   refusals — is merged into ``M_l^{i+1}`` via Definitions 11/12 (plus
   the deterministic refusal extension), and the loop repeats.

Termination (§4.4): every non-final iteration strictly increases
``|T| + |T̄|``, which is bounded for a finite deterministic component,
so the loop always ends in ``PROVEN`` or ``REAL_VIOLATION`` (the
``max_iterations`` budget is a safety net, not a semantic limit).
"""

from __future__ import annotations

import time
from collections.abc import Callable
from dataclasses import dataclass
from enum import Enum

from ..automata.automaton import Automaton, State
from ..automata.chaos import chaotic_closure, is_chaos_state
from ..automata.composition import Semantics, compose
from ..automata.incomplete import IncompleteAutomaton
from ..automata.incremental import IncrementalVerifier
from ..automata.interaction import Interaction, InteractionUniverse
from ..automata.runs import Run
from ..automata.sharding import get_pool
from ..errors import (
    FaultInjectionError,
    LearningError,
    RemoteComponentError,
    SynthesisError,
    TestTimeoutError,
)
from ..legacy.component import LegacyComponent
from ..legacy.interface import InterfaceDescription, interface_of
from ..logic.checker import ModelChecker
from ..logic.compositional import assert_compositional, weaken_for_chaos
from ..logic.counterexample import counterexample, counterexamples
from ..logic.formulas import AF, AU, DEADLOCK_FREE, Deadlock, Formula
from ..obs.metrics import publish_record
from ..obs.progress import ProgressEmitter
from ..obs.tracer import resolve_tracer
from ..testing.executor import TestExecution, TestVerdict
from ..testing.faults import FaultyComponent
from ..testing.replay import ReplayResult
from ..testing.robust import Quarantine, RobustExecution, RobustExecutor
from ..testing.testcase import TestCase, TestStep, test_case_from_counterexample
from .initial import StateLabeler, initial_model
from .learning import RefusalMode, learn_blocked, learn_regular, refuse
from .settings import SynthesisSettings, _UNSET, merge_legacy_settings

__all__ = [
    "Verdict",
    "IterationRecord",
    "SynthesisResult",
    "IntegrationSynthesizer",
    "CounterexampleStrategy",
    "SynthesisSettings",
]

#: Default iteration budget of :class:`IntegrationSynthesizer`.
DEFAULT_MAX_ITERATIONS = 500

#: Hook for custom counterexample selection (the paper's conclusion notes
#: that counterexample strategies are a tuning point).  Receives the
#: composed automaton, the violated formula, and a ready checker; must
#: return a violating run of the composition.
CounterexampleStrategy = Callable[[Automaton, Formula, ModelChecker], Run]


def _warn_renamed_counter(old: str, new: str, record: str = "IterationRecord") -> None:
    import warnings

    warnings.warn(
        f"{record}.{old} is deprecated and will be removed in repro 2.0; "
        f"read {new} instead",
        DeprecationWarning,
        stacklevel=3,
    )


class Verdict(Enum):
    """How a synthesis run ended."""

    PROVEN = "proven"
    REAL_VIOLATION = "real-violation"
    BUDGET_EXCEEDED = "budget-exceeded"


@dataclass(frozen=True)
class IterationRecord:
    """Everything observed during one iteration of the loop."""

    index: int
    model_states: int
    model_transitions: int
    model_refusals: int
    closure_states: int
    closure_transitions: int
    composed_states: int
    property_holds: bool
    deadlock_free: bool
    violated: str | None  # "property" | "deadlock" | None
    counterexample: Run | None
    fast_conflict: bool
    test_verdict: TestVerdict | None
    tests_executed: int
    replays_executed: int
    observed_run: Run | None
    knowledge_gained: int
    # Incremental-engine counters (all zero when ``incremental=False``).
    closure_groups_reused: int = 0
    closure_groups_rebuilt: int = 0
    product_hits: int = 0
    product_misses: int = 0
    dirty_states: int = 0
    affected_states: int = 0
    #: Worklist operations the checker spent on this iteration's fixpoints
    #: (populated on both paths; warm starts should show less work).
    checker_fixpoint_work: int = 0
    # Sharded-exploration counters, split into the ``product_*`` and
    # ``checker_*`` namespaces (matching ``CheckerStats.as_dict()``).
    # Product counters are zero/empty when no product ran or when
    # ``incremental=False``.  Per-shard breakdowns depend on the shard
    # count, but their sums are scheduling-independent:
    # ``sum(product_shard_states_explored) == product_hits + product_misses``
    # and ``sum(checker_shard_fixpoint_work) == checker_fixpoint_work``.
    product_shards: int = 0
    product_shard_states_explored: tuple[int, ...] = ()
    product_shard_handoffs: int = 0
    product_shard_merge_conflicts: int = 0
    # Dense product-BFS sizes (zero on the legacy dict-cache path).
    # K-independent by construction: the interner's content is the
    # reachable set plus previously interned states, regardless of how
    # the exploration was sharded or scheduled.
    product_dense_states: int = 0
    product_bitset_words: int = 0
    checker_shards: int = 1
    checker_shard_fixpoint_work: tuple[int, ...] = ()
    checker_shard_handoffs: int = 0
    # Robust-execution counters (all zero on a fault-free run with the
    # default retry policy).  ``tests_executed`` counts live attempts,
    # so ``tests_executed - test_retries`` is the number of supervised
    # executions this iteration.
    test_retries: int = 0
    test_timeouts: int = 0
    tests_inconclusive: int = 0
    quarantine_size: int = 0

    # Pre-redesign names of the product shard counters, kept as
    # deprecated read-only views.
    @property
    def shard_states_explored(self) -> tuple[int, ...]:
        _warn_renamed_counter("shard_states_explored", "product_shard_states_explored")
        return self.product_shard_states_explored

    @property
    def shard_handoffs(self) -> int:
        _warn_renamed_counter("shard_handoffs", "product_shard_handoffs")
        return self.product_shard_handoffs

    @property
    def shard_merge_conflicts(self) -> int:
        _warn_renamed_counter("shard_merge_conflicts", "product_shard_merge_conflicts")
        return self.product_shard_merge_conflicts


@dataclass(frozen=True)
class SynthesisResult:
    """Outcome of a full synthesis run."""

    verdict: Verdict
    property: Formula
    iterations: tuple[IterationRecord, ...]
    final_model: IncompleteAutomaton
    final_closure: Automaton | None
    violation_witness: Run | None
    violation_kind: str | None
    #: Counterexamples whose tests never completed fault-free within the
    #: retry budget (see :mod:`repro.testing.robust`).  Empty on every
    #: fault-free run.  They were *not* merged into the model and were
    #: *not* confirmed as real errors (Lemma 6 requires a validated
    #: fault-free run) — they are reported here instead of being
    #: silently dropped.
    quarantined: tuple[Run, ...] = ()

    @property
    def proven(self) -> bool:
        return self.verdict is Verdict.PROVEN

    def require_proven(self) -> "SynthesisResult":
        """Raise unless the verdict is ``PROVEN`` (for CI-style use).

        ``BudgetExceededError`` for an exhausted iteration budget,
        ``SynthesisError`` carrying the violation kind otherwise;
        returns ``self`` so it chains: ``synthesizer.run().require_proven()``.
        """
        from ..errors import BudgetExceededError

        if self.verdict is Verdict.PROVEN:
            return self
        if self.verdict is Verdict.BUDGET_EXCEEDED:
            raise BudgetExceededError(
                f"synthesis exhausted its iteration budget after "
                f"{self.iteration_count} iterations"
            )
        raise SynthesisError(
            f"integration violates the requirements ({self.violation_kind}); "
            f"witness: {self.violation_witness}"
        )

    @property
    def iteration_count(self) -> int:
        return len(self.iterations)

    @property
    def total_tests(self) -> int:
        return sum(record.tests_executed for record in self.iterations)

    @property
    def total_replays(self) -> int:
        return sum(record.replays_executed for record in self.iterations)

    @property
    def total_test_retries(self) -> int:
        return sum(record.test_retries for record in self.iterations)

    @property
    def total_test_timeouts(self) -> int:
        return sum(record.test_timeouts for record in self.iterations)

    @property
    def total_inconclusive(self) -> int:
        return sum(record.tests_inconclusive for record in self.iterations)

    @property
    def learned_states(self) -> int:
        return self.final_model.automaton.states.__len__()

    @property
    def learned_transitions(self) -> int:
        return self.final_model.automaton.transition_count

    @property
    def learned_refusals(self) -> int:
        return len(self.final_model.refusals)


@dataclass
class _IterationScratch:
    """Mutable per-iteration counters the helpers update."""

    tests: int = 0
    replays: int = 0
    retries: int = 0
    timeouts: int = 0
    inconclusive: int = 0
    observed: Run | None = None
    test_verdict: TestVerdict | None = None
    real_violation: bool = False
    violation: Run | None = None


class IntegrationSynthesizer:
    """Drives the verify → test → learn loop for one legacy placement.

    Parameters
    ----------
    context:
        The context abstraction ``M_a^c`` (typically produced by
        :meth:`repro.muml.Architecture.context_for` or by unfolding the
        partner role's statechart).
    component:
        The executable legacy component (``M_r`` behind the harness).
    property:
        The required compositional constraint ``φ``.  Deadlock freedom
        ``¬δ`` is always checked in addition, per §4.1.
    universe:
        The interaction alphabet of the legacy interface; defaults to
        the message-passing alphabet induced by the interface.
    labeler:
        Maps observed legacy state identifiers to atomic propositions
        so learned states participate in ``φ``.
    refusal_mode:
        ``"deterministic"`` (default) exploits strong determinism to
        refuse wholesale; ``"conservative"`` follows Definition 12
        literally.
    fast_conflict:
        Enable §4.2's shortcut: a property counterexample confined to
        the synthesized (non-chaotic) part proves a real conflict
        without testing.
    settings:
        The consolidated loop-tuning knobs
        (:class:`~repro.synthesis.settings.SynthesisSettings`):
        iteration budget, counterexample batching, incrementality, and
        the product/checker shard counts.  The individual keyword
        arguments below still work but are deprecated shims that
        forward into it.
    initial_knowledge:
        Warm-start the series from a previously learned model instead of
        the trivial ``M_l^0`` — e.g. the ``final_model`` of an earlier
        run against another property, or a model loaded via
        :mod:`repro.persistence`.  With ``validate_knowledge`` (default)
        the provided model is first checked against the live component:
        every transition is re-executed and every refusal re-attempted,
        so a stale model (the component was updated) is rejected instead
        of silently breaking the safe-abstraction invariant.
    max_iterations, counterexamples_per_iteration, incremental, parallelism:
        Deprecated: pass these through ``settings=`` instead.  They
        keep working (forwarded with a :class:`DeprecationWarning`) so
        existing call sites survive the redesign.
    """

    def __init__(
        self,
        context: Automaton,
        component: LegacyComponent,
        property: Formula,
        *,
        universe: InteractionUniverse | None = None,
        labeler: StateLabeler | None = None,
        refusal_mode: RefusalMode = "deterministic",
        fast_conflict: bool = True,
        settings: SynthesisSettings | None = None,
        max_iterations: int = _UNSET,  # type: ignore[assignment]
        composition_semantics: Semantics = "strict",
        counterexample_strategy: CounterexampleStrategy | None = None,
        counterexamples_per_iteration: int = _UNSET,  # type: ignore[assignment]
        initial_knowledge: IncompleteAutomaton | None = None,
        validate_knowledge: bool = True,
        port: str = "port",
        incremental: bool = _UNSET,  # type: ignore[assignment]
        parallelism: int | None = _UNSET,  # type: ignore[assignment]
    ):
        assert_compositional(property)
        settings = merge_legacy_settings(
            settings,
            "IntegrationSynthesizer",
            max_iterations=max_iterations,
            counterexamples_per_iteration=counterexamples_per_iteration,
            incremental=incremental,
            parallelism=parallelism,
        )
        self.settings = settings
        self.tracer = resolve_tracer(settings.tracer)
        self.context = context
        self.flight = settings.resolved_flight_recorder()
        self.flight.bind(settings=settings)
        self._events = ProgressEmitter(settings.progress, self.flight)
        fault_profile = settings.resolved_fault_profile()
        self._chaos = fault_profile is not None and fault_profile.active
        remote_policy = settings.resolved_remote()
        # Imported lazily so spawned component hosts (which import the
        # ``repro`` package) do not load ``legacy.remote`` twice.
        from ..legacy.remote import RemoteComponent, rehost

        if remote_policy is not None and not isinstance(component, RemoteComponent):
            # Out-of-process rehosting: the component — and, under chaos,
            # its fault schedule — moves into a supervised subprocess.
            # Fault-free verdicts stay bit-identical to in-process runs;
            # real crashes and hangs surface as retryable faults.
            component = rehost(
                component,
                remote_policy,
                fault_profile=fault_profile if self._chaos else None,
                tracer=self.tracer,
                flight=self.flight,
                events=self._events.emit if self._events else None,
            )
        elif self._chaos and not isinstance(component, RemoteComponent):
            # Chaos harness: wrap the component so the robust executor can
            # arm seed-driven fault injection around each supervised test.
            # Transparent everywhere else (knowledge validation, probing,
            # direct callers) — faults only fire inside armed scopes.
            component = FaultyComponent.wrap(component, fault_profile, tracer=self.tracer)
        self.component = component
        self.retry_policy = settings.resolved_retry_policy()
        self.robust = RobustExecutor(
            self.retry_policy,
            tracer=self.tracer,
            flight=self.flight,
            events=self._events.emit if self._events else None,
        )
        self.quarantine = Quarantine()
        self.property = property
        self.weakened_property = weaken_for_chaos(property)
        self.interface: InterfaceDescription = interface_of(component)
        self.universe = universe if universe is not None else self.interface.universe()
        self.labeler = labeler
        self.refusal_mode: RefusalMode = refusal_mode
        self.fast_conflict = fast_conflict
        self.max_iterations = settings.iterations_or(DEFAULT_MAX_ITERATIONS)
        self.composition_semantics: Semantics = composition_semantics
        self.counterexample_strategy = counterexample_strategy
        self.counterexamples_per_iteration = settings.counterexamples_per_iteration
        self.port = port
        self.incremental = settings.incremental
        self.parallelism = settings.resolved_parallelism()
        self.checker_parallelism = settings.resolved_checker_parallelism()
        self.dense = settings.dense
        self.dense_product = settings.dense_product
        self.product_strategy = settings.resolved_product_strategy()
        # Violations of properties mentioning the deadlock atom or an
        # eventuality (AF/AU) can hinge on the closure's *pessimistic
        # refusals* — a path that merely might end.  Only those need the
        # probe treatment when their counterexample ends in a composed
        # deadlock state; violations of boolean-state properties rest on
        # labels alone.
        self._refusal_sensitive = any(
            isinstance(node, (Deadlock, AF, AU)) for node in property.walk()
        )
        if context.inputs & self.interface.inputs or context.outputs & self.interface.outputs:
            raise SynthesisError(
                "context and legacy interface are not composable: they share "
                f"inputs {sorted(context.inputs & self.interface.inputs)} / "
                f"outputs {sorted(context.outputs & self.interface.outputs)}"
            )
        self.initial_knowledge = initial_knowledge
        if initial_knowledge is not None:
            self._check_knowledge_shape(initial_knowledge)
            if validate_knowledge:
                self._validate_knowledge(initial_knowledge)

    # -------------------------------------------------------- prior knowledge

    def _check_knowledge_shape(self, knowledge: IncompleteAutomaton) -> None:
        if (
            knowledge.inputs != self.interface.inputs
            or knowledge.outputs != self.interface.outputs
        ):
            raise SynthesisError(
                f"initial knowledge has signals I={sorted(knowledge.inputs)}/"
                f"O={sorted(knowledge.outputs)} but the component's interface is "
                f"I={sorted(self.interface.inputs)}/O={sorted(self.interface.outputs)}"
            )
        if knowledge.initial != frozenset({self.interface.initial_state}):
            raise SynthesisError(
                f"initial knowledge starts in {sorted(map(repr, knowledge.initial))} but the "
                f"component's initial state is {self.interface.initial_state!r}"
            )
        if not knowledge.is_deterministic():
            raise SynthesisError("initial knowledge must be deterministic (§2.6)")

    def _validate_knowledge(self, knowledge: IncompleteAutomaton) -> None:
        """Re-execute the knowledge against the live component.

        Every transition is driven via a covering run and every refusal
        re-attempted, so the model is observation-conforming when this
        returns — the precondition of Theorem 1.
        """
        from ..automata.analysis import transition_cover_runs

        for run in transition_cover_runs(knowledge.automaton):
            self.component.reset()
            current_expected = run.start
            for interaction, target in run.steps:
                outcome = self.component.step(interaction.inputs)
                if outcome.blocked or outcome.outputs != interaction.outputs:
                    raise SynthesisError(
                        f"stale initial knowledge: transition "
                        f"{current_expected!r} --{interaction}--> {target!r} is not "
                        "reproducible on the component"
                    )
                current_expected = target
        for refusal in sorted(
            knowledge.refusals, key=lambda r: (repr(r.state), r.interaction.sort_key())
        ):
            prefix = self._run_to_state(knowledge, refusal.state)
            if prefix is None:
                continue  # unreachable knowledge state: harmless
            self.component.reset()
            for interaction, _ in prefix.steps:
                self.component.step(interaction.inputs)
            outcome = self.component.step(refusal.interaction.inputs)
            if not outcome.blocked and outcome.outputs == refusal.interaction.outputs:
                raise SynthesisError(
                    f"stale initial knowledge: refusal of {refusal.interaction} at "
                    f"{refusal.state!r} contradicts the component's actual reaction"
                )

    @staticmethod
    def _run_to_state(knowledge: IncompleteAutomaton, state):
        from ..automata.analysis import shortest_run_to

        return shortest_run_to(knowledge.automaton, lambda s: s == state)

    # ----------------------------------------------------------------- loop

    def run(self) -> SynthesisResult:
        """Execute the loop until proof, real violation, or budget."""
        tracer = self.tracer
        # Tests resume from the live component within the run; on the way
        # out the component is reset, whether the loop returns or raises.
        with tracer.span("loop.run", synthesizer="IntegrationSynthesizer"):
            with self.robust.resumable():
                result = self._run()
        if tracer.enabled:
            get_pool().publish_to(tracer.metrics)
            tracer.metrics.set_gauge("loop_iteration_count", result.iteration_count)
            fault_counts = getattr(self.component, "fault_counts", None)
            if fault_counts:
                tracer.metrics.absorb(fault_counts, prefix="fault_injected_")
            remote_stats = getattr(self.component, "remote_stats", None)
            if remote_stats:
                tracer.metrics.absorb(remote_stats, prefix="remote_")
        return result

    def _finish(self, result: SynthesisResult) -> SynthesisResult:
        """Emit the final verdict event (and dump degraded verdicts)."""
        if self._events:
            self._events.emit(
                "verdict.reached",
                verdict=result.verdict.value,
                iterations=result.iteration_count,
                quarantined=len(result.quarantined),
            )
        if result.verdict is Verdict.BUDGET_EXCEEDED:
            self.flight.anomaly(
                "budget_exceeded",
                iterations=result.iteration_count,
                quarantined=len(result.quarantined),
            )
        return result

    def _quarantine_push(self, run: Run, *, probe: bool) -> bool:
        """Quarantine a counterexample; an admission is a recorded anomaly."""
        admitted = self.quarantine.push(run, probe=probe)
        if admitted:
            if self._events:
                self._events.emit(
                    "quarantine.admitted",
                    quarantine_size=len(self.quarantine),
                    probe=probe,
                )
            self.flight.anomaly(
                "quarantine_admission",
                counterexample=repr(run),
                quarantine_size=len(self.quarantine),
            )
        return admitted

    def _run(self) -> SynthesisResult:
        tracer = self.tracer
        if self.initial_knowledge is not None:
            model = self.initial_knowledge
        else:
            model = initial_model(self.interface, labeler=self.labeler)
        records: list[IterationRecord] = []
        self.flight.bind(settings=self.settings, records=lambda: records)
        self._events.emit(
            "loop.started",
            synthesizer="IntegrationSynthesizer",
            max_iterations=self.max_iterations,
            incremental=self.incremental,
            parallelism=self.parallelism,
            checker_parallelism=self.checker_parallelism,
        )

        def note(rec: IterationRecord) -> None:
            records.append(rec)
            if tracer.enabled:
                publish_record(tracer.metrics, rec)
                checker.stats.publish_to(tracer.metrics)
            if self._events:
                self._events.emit(
                    "iteration.finished",
                    iteration=rec.index,
                    property_holds=rec.property_holds,
                    deadlock_free=rec.deadlock_free,
                    violated=rec.violated,
                    fast_conflict=rec.fast_conflict,
                    tests_executed=rec.tests_executed,
                    knowledge_gained=rec.knowledge_gained,
                    test_retries=rec.test_retries,
                    test_timeouts=rec.test_timeouts,
                    tests_inconclusive=rec.tests_inconclusive,
                    quarantine_size=rec.quarantine_size,
                )

        closure: Automaton | None = None
        engine = (
            IncrementalVerifier(
                context=self.context,
                universes=[self.universe],
                semantics=self.composition_semantics,
                deterministic_implementation=True,
                parallelism=self.parallelism,
                checker_parallelism=self.checker_parallelism,
                dense=self.dense,
                dense_product=self.dense_product,
                product_strategy=self.product_strategy,
                tracer=tracer,
            )
            if self.incremental
            else None
        )

        for index in range(self.max_iterations):
            with tracer.span("loop.iteration", index=index):
                if self._events:
                    self._events.emit("iteration.started", iteration=index)
                if engine is not None:
                    step = engine.step([model], closure_names=[f"M_a^{index}"])
                    closure = step.closures[0]
                    composed = step.composed
                    checker = step.checker
                    step_stats = step.stats
                else:
                    with tracer.span("verify.step", models=1):
                        closure = chaotic_closure(
                            model,
                            self.universe,
                            deterministic_implementation=True,
                            name=f"M_a^{index}",
                        )
                        composed = compose(
                            self.context,
                            closure,
                            semantics=self.composition_semantics,
                            parallelism=self.parallelism,
                        )
                        checker = ModelChecker(
                            composed,
                            parallelism=self.checker_parallelism,
                            dense=self.dense,
                            tracer=tracer,
                        )
                    step_stats = None
                with tracer.span("checker.check", kind="property"):
                    property_result = checker.check(self.weakened_property)
                with tracer.span("checker.check", kind="deadlock"):
                    deadlock_result = checker.check(DEADLOCK_FREE)
                if self._events:
                    self._events.emit(
                        "phase.finished",
                        iteration=index,
                        phase="verify",
                        property_holds=property_result.holds,
                        deadlock_free=deadlock_result.holds,
                        composed_states=len(composed.states),
                        checker_fixpoint_work=checker.stats.fixpoint_work,
                        checker_shards=checker.stats.shards,
                        checker_shard_handoffs=checker.stats.shard_handoffs,
                        product_hits=step_stats.product_hits if step_stats else 0,
                        product_misses=step_stats.product_misses if step_stats else 0,
                        product_shards=step_stats.product_shards if step_stats else 0,
                        dirty_states=step_stats.dirty_states if step_stats else 0,
                        affected_states=step_stats.affected_states if step_stats else 0,
                    )

                def record(
                    *,
                    violated: str | None,
                    cex: Run | None,
                    fast: bool,
                    scratch: _IterationScratch | None,
                    gained: int,
                ) -> IterationRecord:
                    return IterationRecord(
                        index=index,
                        model_states=len(model.states),
                        model_transitions=model.automaton.transition_count,
                        model_refusals=len(model.refusals),
                        closure_states=len(closure.states),
                        closure_transitions=closure.transition_count,
                        composed_states=len(composed.states),
                        property_holds=property_result.holds,
                        deadlock_free=deadlock_result.holds,
                        violated=violated,
                        counterexample=cex,
                        fast_conflict=fast,
                        test_verdict=scratch.test_verdict if scratch else None,
                        tests_executed=scratch.tests if scratch else 0,
                        replays_executed=scratch.replays if scratch else 0,
                        observed_run=scratch.observed if scratch else None,
                        knowledge_gained=gained,
                        closure_groups_reused=step_stats.closure_groups_reused if step_stats else 0,
                        closure_groups_rebuilt=step_stats.closure_groups_rebuilt if step_stats else 0,
                        product_hits=step_stats.product_hits if step_stats else 0,
                        product_misses=step_stats.product_misses if step_stats else 0,
                        dirty_states=step_stats.dirty_states if step_stats else 0,
                        affected_states=step_stats.affected_states if step_stats else 0,
                        checker_fixpoint_work=checker.stats.fixpoint_work,
                        product_shards=step_stats.product_shards if step_stats else 0,
                        product_shard_states_explored=(
                            step_stats.shard_states_explored if step_stats else ()
                        ),
                        product_shard_handoffs=(
                            step_stats.shard_handoffs if step_stats else 0
                        ),
                        product_shard_merge_conflicts=(
                            step_stats.shard_merge_conflicts if step_stats else 0
                        ),
                        product_dense_states=(
                            step_stats.product_dense_states if step_stats else 0
                        ),
                        product_bitset_words=(
                            step_stats.product_bitset_words if step_stats else 0
                        ),
                        checker_shards=checker.stats.shards,
                        checker_shard_fixpoint_work=checker.stats.shard_fixpoint_work,
                        checker_shard_handoffs=checker.stats.shard_handoffs,
                        test_retries=scratch.retries if scratch else 0,
                        test_timeouts=scratch.timeouts if scratch else 0,
                        tests_inconclusive=scratch.inconclusive if scratch else 0,
                        quarantine_size=len(self.quarantine),
                    )

                if property_result.holds and deadlock_result.holds:
                    note(record(violated=None, cex=None, fast=False, scratch=None, gained=0))
                    return self._finish(
                        SynthesisResult(
                            verdict=Verdict.PROVEN,
                            property=self.property,
                            iterations=tuple(records),
                            final_model=model,
                            final_closure=closure,
                            violation_witness=None,
                            violation_kind=None,
                            quarantined=self.quarantine.unresolved(),
                        )
                    )

                if not property_result.holds:
                    violated = "property"
                    batch = self._counterexample_batch(composed, self.weakened_property, checker)
                else:
                    violated = "deadlock"
                    batch = self._counterexample_batch(composed, DEADLOCK_FREE, checker)
                cex = batch[0]

                def needs_probing_for(candidate: Run) -> bool:
                    # A property counterexample that *ends in a composed
                    # deadlock state* may owe its violation to the pessimistic
                    # refusals of the closure (the deadlock atom, or a bounded
                    # obligation cut short) rather than to real labels: such
                    # runs are confirmed or refuted exactly like deadlock
                    # counterexamples, by probing what the context offers in
                    # the final configuration.  A confirmed probe-failure then
                    # witnesses a genuine ¬δ violation of φ ∧ ¬δ.
                    return (
                        violated == "property"
                        and self._refusal_sensitive
                        and composed.is_deadlock(candidate.last_state)
                    )

                if self.fast_conflict and violated == "property":
                    fast_candidate = next(
                        (
                            candidate
                            for candidate in batch
                            if not needs_probing_for(candidate)
                            and not any(is_chaos_state(state[1]) for state in candidate.states)
                        ),
                        None,
                    )
                    if fast_candidate is not None:
                        note(
                            record(violated=violated, cex=fast_candidate, fast=True, scratch=None, gained=0)
                        )
                        return self._finish(
                            SynthesisResult(
                                verdict=Verdict.REAL_VIOLATION,
                                property=self.property,
                                iterations=tuple(records),
                                final_model=model,
                                final_closure=closure,
                                violation_witness=fast_candidate,
                                violation_kind=violated,
                                quarantined=self.quarantine.unresolved(),
                            )
                        )

                scratch = _IterationScratch()
                before = model.knowledge_size()
                # The work list is the checker's batch plus every
                # quarantined counterexample from earlier iterations (an
                # inconclusive test is retried here, not forgotten).  Each
                # entry carries its probing route: quarantined runs keep the
                # route they were pushed with — they may reference stale
                # composed states, and the probing decision only needs
                # ``cex.last_state`` on the context side.
                work: list[tuple[Run, bool]] = [
                    (candidate, violated != "property" or needs_probing_for(candidate))
                    for candidate in batch
                ]
                drained = self.quarantine.drain()
                if drained:
                    # Dedupe by rendering only when something was
                    # quarantined: the repr of a run is as long as the run.
                    fresh = {repr(candidate) for candidate in batch}
                    work.extend(entry for entry in drained if repr(entry[0]) not in fresh)
                position = 0
                while position < len(work):
                    candidate, probing = work[position]
                    group = [candidate]
                    if self.fast_conflict and violated == "property" and not probing:
                        # Maximal run of plain property counterexamples: safe
                        # to execute all live first and batch the monitor
                        # replays (none of them can confirm a real violation
                        # here — fast conflict detection already returned for
                        # chaos-free candidates, so all of these visit chaos
                        # and are pure learning material).
                        while position + len(group) < len(work) and not work[position + len(group)][1]:
                            group.append(work[position + len(group)][0])
                    try:
                        if len(group) > 1:
                            model = self._handle_property_batch(
                                model, group, scratch, offset=position
                            )
                        elif not probing:
                            model = self._handle_property_counterexample(model, candidate, scratch)
                        else:
                            model = self._handle_deadlock_counterexample(
                                model, composed, candidate, scratch
                            )
                    except LearningError:
                        if self._absorb_learning_error(candidate, scratch, probe=probing):
                            position += len(group)
                            continue
                        if position == 0:
                            raise
                        position += len(group)
                        continue  # a later counterexample went stale mid-batch
                    except (FaultInjectionError, TestTimeoutError, RemoteComponentError):
                        # A real out-of-process failure (crash, hang kill,
                        # protocol violation) escaped the supervised test
                        # window — e.g. during probing or a learning
                        # replay, where in-process fault injection cannot
                        # fire.  Sound degradation, exactly as for an
                        # inconclusive test: quarantine the counterexample
                        # for a later retry against a fresh host, never
                        # abort the loop or report a violation.
                        scratch.inconclusive += 1
                        self._quarantine_push(candidate, probe=probing)
                        position += len(group)
                        continue
                    if scratch.real_violation:
                        cex = scratch.violation if scratch.violation is not None else candidate
                        break
                    position += len(group)
                gained = model.knowledge_size() - before

                note(
                    record(violated=violated, cex=cex, fast=False, scratch=scratch, gained=gained)
                )
                if scratch.real_violation:
                    return self._finish(
                        SynthesisResult(
                            verdict=Verdict.REAL_VIOLATION,
                            property=self.property,
                            iterations=tuple(records),
                            final_model=model,
                            final_closure=closure,
                            violation_witness=cex,
                            violation_kind=violated,
                            quarantined=self.quarantine.unresolved(),
                        )
                    )
                if gained <= 0 and scratch.inconclusive == 0:
                    # An iteration that learned nothing *and* completed all
                    # its tests fault-free contradicts §4.4's termination
                    # argument.  Inconclusive-only iterations are allowed to
                    # continue — the retry happens under the iteration
                    # budget, so degradation stays bounded.
                    if self._chaos:
                        # Under fault injection §4.4's premises fail: a
                        # silent crash-reset inside a long output-free run
                        # is observationally clean (nothing to contradict)
                        # yet erases the progress the counterexample needed,
                        # so the iteration legitimately learns nothing.  The
                        # sound degraded answer is inconclusive, never a
                        # crash — found by the randomized conformance
                        # campaign on dense-floor scenarios.
                        self.flight.anomaly(
                            "chaos_zero_progress",
                            iteration=index,
                            counterexample=repr(cex),
                        )
                        return self._finish(
                            SynthesisResult(
                                verdict=Verdict.BUDGET_EXCEEDED,
                                property=self.property,
                                iterations=tuple(records),
                                final_model=model,
                                final_closure=closure,
                                violation_witness=None,
                                violation_kind=None,
                                quarantined=self.quarantine.unresolved(),
                            )
                        )
                    message = (
                        f"iteration {index} made no learning progress on {cex} — "
                        "this contradicts §4.4's termination argument and indicates "
                        "a non-deterministic component or an inconsistent universe"
                    )
                    self.flight.anomaly("synthesis_error", iteration=index, error=message)
                    raise SynthesisError(message)

        return self._finish(
            SynthesisResult(
                verdict=Verdict.BUDGET_EXCEEDED,
                property=self.property,
                iterations=tuple(records),
                final_model=model,
                final_closure=closure,
                violation_witness=None,
                violation_kind=None,
                quarantined=self.quarantine.unresolved(),
            )
        )

    # -------------------------------------------------------------- helpers

    def _counterexample_batch(
        self, composed: Automaton, formula: Formula, checker: ModelChecker
    ) -> list[Run]:
        with self.tracer.span(
            "counterexample.derive", limit=self.counterexamples_per_iteration
        ):
            return self._counterexample_batch_inner(composed, formula, checker)

    def _counterexample_batch_inner(
        self, composed: Automaton, formula: Formula, checker: ModelChecker
    ) -> list[Run]:
        if self.counterexample_strategy is not None:
            return [self.counterexample_strategy(composed, formula, checker)]
        if self.counterexamples_per_iteration > 1:
            batch = counterexamples(
                composed, formula, checker=checker, limit=self.counterexamples_per_iteration
            )
            if batch:
                return batch
        run = counterexample(composed, formula, checker=checker)
        if run is None:
            raise SynthesisError(f"{formula} was violated but no counterexample was produced")
        return [run]

    def _testcase(self, cex: Run) -> TestCase:
        return test_case_from_counterexample(
            cex,
            component_index=1,
            inputs=self.interface.inputs,
            outputs=self.interface.outputs,
        )

    def _execute(self, testcase: TestCase, scratch: _IterationScratch) -> RobustExecution:
        """One supervised execution (retries, deadlines, validation)."""
        begin = time.perf_counter()
        with self.tracer.span("test.execute", steps=len(testcase.steps)):
            outcome = self.robust.execute(self.component, testcase, port=self.port)
        self.tracer.metrics.observe("test_execute_seconds", time.perf_counter() - begin)
        scratch.tests += outcome.attempts
        scratch.retries += outcome.retries
        scratch.timeouts += outcome.timeouts
        scratch.replays += outcome.replays_performed
        return outcome

    def _execute_supervised(
        self,
        testcase: TestCase,
        scratch: _IterationScratch,
        *,
        quarantine_run: Run | None,
        probe: bool,
    ) -> RobustExecution | None:
        """Execute a test; quarantine its counterexample when inconclusive.

        Returns ``None`` when the execution could not be completed
        fault-free — the caller must then treat the counterexample as
        *undecided*: no learning, no verdict (Lemma 6).
        """
        outcome = self._execute(testcase, scratch)
        scratch.test_verdict = outcome.verdict
        if outcome.inconclusive:
            scratch.inconclusive += 1
            if quarantine_run is not None:
                self._quarantine_push(quarantine_run, probe=probe)
            return None
        return outcome

    def _trusted(self, outcome: RobustExecution) -> bool:
        """May this outcome witness a real violation?  (Lemma 6.)

        A validated outcome always may; an unvalidated one only when the
        component cannot inject faults at all.
        """
        return outcome.validated or not getattr(
            self.component, "fault_injection_active", False
        )

    def _absorb_learning_error(
        self, candidate: Run, scratch: _IterationScratch, *, probe: bool
    ) -> bool:
        """Downgrade a learning contradiction to *inconclusive* under chaos.

        Validation is probabilistic: a corrupted recording can survive
        its replays when the replay faults happen to reproduce the
        corruption.  When that poisoned knowledge later contradicts an
        observation, the contradiction is chaos-induced, not genuine
        component non-determinism — quarantine the counterexample
        instead of aborting the run.  Without fault injection the
        contradiction is real and must keep raising.
        """
        if not getattr(self.component, "fault_injection_active", False):
            return False
        scratch.inconclusive += 1
        self._quarantine_push(candidate, probe=probe)
        return True

    def _replay(self, execution: TestExecution, scratch: _IterationScratch) -> ReplayResult:
        scratch.replays += 1
        return self.robust.replay_once(
            self.component, execution.recording, port=self.port, armed=False
        )

    def _outcome_replay(
        self, outcome: RobustExecution, scratch: _IterationScratch
    ) -> ReplayResult:
        """The outcome's validation replay, or a fresh one when absent."""
        if outcome.replay is not None:
            return outcome.replay
        assert outcome.execution is not None
        return self._replay(outcome.execution, scratch)

    def _learn_execution(
        self,
        model: IncompleteAutomaton,
        outcome: RobustExecution,
        scratch: _IterationScratch,
        replay_result: ReplayResult | None = None,
    ) -> IncompleteAutomaton:
        """Replay a finished test execution and merge what was observed."""
        execution = outcome.execution
        assert execution is not None
        result = (
            replay_result if replay_result is not None else self._outcome_replay(outcome, scratch)
        )
        observed = result.observed_run
        scratch.observed = observed
        with self.tracer.span("learn.merge", verdict=execution.verdict.value):
            if execution.verdict is TestVerdict.BLOCKED:
                # No reaction at all: Definition 12 (+ wholesale refusal).
                return learn_blocked(
                    model,
                    observed,
                    labeler=self.labeler,
                    mode=self.refusal_mode,
                    universe=self.universe,
                    observed_outputs=None,
                )
            model = learn_regular(model, observed, labeler=self.labeler)
            if execution.verdict is TestVerdict.DIVERGED:
                assert execution.divergence_index is not None
                diverged = execution.recording.steps[execution.divergence_index]
                source = observed.states[execution.divergence_index]
                if self.refusal_mode == "deterministic":
                    impossible = [
                        interaction
                        for interaction in self.universe
                        if interaction.inputs == diverged.inputs
                        and interaction.outputs != diverged.observed_outputs
                    ]
                else:
                    impossible = [Interaction(diverged.inputs, diverged.expected_outputs)]
                model = refuse(model, source, impossible, allow_no_progress=True)
            return model

    # ------------------------------------------------- property counterexamples

    def _handle_property_counterexample(
        self, model: IncompleteAutomaton, cex: Run, scratch: _IterationScratch
    ) -> IncompleteAutomaton:
        outcome = self._execute_supervised(
            self._testcase(cex), scratch, quarantine_run=cex, probe=False
        )
        if outcome is None:
            return model  # inconclusive: quarantined, nothing merged
        return self._merge_property_outcome(model, cex, outcome, scratch)

    def _merge_property_outcome(
        self,
        model: IncompleteAutomaton,
        cex: Run,
        outcome: RobustExecution,
        scratch: _IterationScratch,
        replay_result: ReplayResult | None = None,
    ) -> IncompleteAutomaton:
        execution = outcome.execution
        assert execution is not None
        if execution.verdict is TestVerdict.CONFIRMED:
            legacy_states = [state[1] for state in cex.states]
            if not any(is_chaos_state(state) for state in legacy_states):
                # Only reachable with fast_conflict disabled: the violation
                # lives entirely in the synthesized part — a real conflict.
                if not self._trusted(outcome):
                    # Lemma 6: no CONFIRMED verdict without a validated
                    # fault-free run.  Retry later instead of reporting.
                    self._quarantine_push(cex, probe=False)
                    return model
                scratch.real_violation = True
                scratch.violation = cex
                return model
            # §4.2: a chaos-visiting run is never a run of the concrete
            # system; the confirmed behavior is learning material instead.
            return self._learn_execution(model, outcome, scratch, replay_result)
        return self._learn_execution(model, outcome, scratch, replay_result)

    def _handle_property_batch(
        self,
        model: IncompleteAutomaton,
        group: list[Run],
        scratch: _IterationScratch,
        *,
        offset: int,
    ) -> IncompleteAutomaton:
        """Test a run of plain property counterexamples with batched replays.

        Closes the roadmap's batching item: all candidates are executed
        live first, their monitor replays then go through the worker
        pool as one :meth:`RobustExecutor.replay_batch` submission
        (chunked per component — a single
        synthesizer has a single component, so its chunk replays in
        recorded order and determinism is untouched; the multi-legacy
        loop shares the helper across slots, where chunks genuinely run
        in parallel), and the observations are merged in the original
        candidate order.
        """
        outcomes: list[tuple[int, Run, RobustExecution]] = []
        for index, cex in enumerate(group):
            outcome = self._execute_supervised(
                self._testcase(cex), scratch, quarantine_run=cex, probe=False
            )
            if outcome is not None:
                outcomes.append((offset + index, cex, outcome))
        replayed = self.robust.replay_batch(
            [
                (position, self.component, outcome.execution.recording)
                for position, _, outcome in outcomes
                if outcome.replay is None
            ],
            port=self.port,
        )
        scratch.replays += len(replayed)
        for position, cex, outcome in outcomes:
            try:
                model = self._merge_property_outcome(
                    model, cex, outcome, scratch, replayed.get(position, outcome.replay)
                )
            except LearningError:
                if self._absorb_learning_error(cex, scratch, probe=False):
                    continue
                if position == 0:
                    raise
                continue  # a later counterexample went stale mid-batch
            if scratch.real_violation:  # unreachable with fast_conflict on
                break
        return model

    # ------------------------------------------------- deadlock counterexamples

    def _context_offers(self, composed_state: State) -> list[tuple[frozenset[str], frozenset[str]]]:
        """The legacy-side interactions the context offers at a state.

        For each context transition ``(A_c, B_c)`` enabled in the
        deadlocked configuration, the legacy component would have to
        consume ``B_c ∩ I`` and produce ``A_c ∩ O`` to synchronize
        (Definition 3's matching condition, two-party case).
        """
        context_state = composed_state[0]
        offers: list[tuple[frozenset[str], frozenset[str]]] = []
        for transition in self.context.transitions_from(context_state):
            probe_inputs = transition.outputs & self.interface.inputs
            expected = transition.inputs & self.interface.outputs
            offers.append((probe_inputs, expected))
        return offers

    def _handle_deadlock_counterexample(
        self,
        model: IncompleteAutomaton,
        composed: Automaton,
        cex: Run,
        scratch: _IterationScratch,
    ) -> IncompleteAutomaton:
        """Confirm or refute a composed deadlock by testing and probing."""
        testcase = self._testcase(cex)
        outcome = self._execute_supervised(testcase, scratch, quarantine_run=cex, probe=True)
        if outcome is None:
            return model  # inconclusive: quarantined, nothing merged
        execution = outcome.execution
        assert execution is not None
        if execution.verdict is not TestVerdict.CONFIRMED:
            # The component already left the predicted path: pure learning.
            return self._learn_execution(model, outcome, scratch)

        # The prefix is real.  The composition deadlocks in the final
        # configuration; whether the *system* deadlocks depends on whether
        # the real component serves any interaction the context offers.
        prefix_replay = self._outcome_replay(outcome, scratch)
        observed_prefix = prefix_replay.observed_run
        scratch.observed = observed_prefix
        with self.tracer.span("learn.merge", verdict="confirmed-prefix"):
            model = learn_regular(model, observed_prefix, labeler=self.labeler)
        legacy_state = observed_prefix.last_state

        offers = self._context_offers(cex.last_state)
        if not offers:
            # The context itself is stuck: nothing the legacy component
            # does can unblock the system.
            if not self._trusted(outcome):
                self._quarantine_push(cex, probe=True)
                return model
            scratch.real_violation = True
            scratch.violation = cex
            return model

        # Group offers by the inputs the legacy component would see.
        by_inputs: dict[frozenset[str], set[frozenset[str]]] = {}
        for probe_inputs, expected in offers:
            by_inputs.setdefault(probe_inputs, set()).add(expected)

        known = {t.interaction: t for t in model.automaton.transitions_from(legacy_state)}
        refused = model.refused(legacy_state)
        any_served = False
        for probe_inputs in sorted(by_inputs, key=sorted):
            expected_set = by_inputs[probe_inputs]
            known_reaction = next(
                (t for i, t in known.items() if i.inputs == probe_inputs), None
            )
            if known_reaction is not None:
                if known_reaction.interaction.outputs in expected_set:
                    # The deadlock was an artifact of the chaotic s_δ
                    # pessimism: the real component (whose state after the
                    # prefix is known by determinism) serves this offer.
                    any_served = True
                    break
                continue  # the known reaction cannot match: nothing to probe
            if self.refusal_mode == "deterministic" and any(
                refusal.inputs == probe_inputs for refusal in refused
            ):
                continue  # wholesale refusal already recorded for these inputs
            if self.refusal_mode == "conservative" and all(
                Interaction(probe_inputs, expected) in refused for expected in expected_set
            ):
                continue

            representative = sorted(expected_set, key=sorted)[0]
            probe_case = TestCase(
                name=f"{testcase.name}+probe",
                steps=(*testcase.steps, TestStep(probe_inputs, representative)),
                source_run=cex,
            )
            probe_outcome = self._execute_supervised(
                probe_case, scratch, quarantine_run=None, probe=True
            )
            if probe_outcome is None:
                # This offer could not be decided fault-free: park the whole
                # counterexample (undecided, not confirmed) and retry the
                # probing in a later iteration.
                self._quarantine_push(cex, probe=True)
                return model
            model = self._learn_execution(model, probe_outcome, scratch)
            assert probe_outcome.execution is not None
            if probe_outcome.execution.verdict is TestVerdict.BLOCKED:
                continue
            observed = scratch.observed
            assert observed is not None and observed.steps
            reaction_outputs = observed.steps[-1][0].outputs
            if reaction_outputs in expected_set:
                any_served = True
                break  # the system does not deadlock here; re-verify

        if not any_served:
            undecided = False
            refreshed = model.refused(legacy_state)
            known_now = {t.interaction for t in model.automaton.transitions_from(legacy_state)}
            for probe_inputs, expected_set in by_inputs.items():
                has_known = any(i.inputs == probe_inputs for i in known_now)
                fully_refused = (
                    any(r.inputs == probe_inputs for r in refreshed)
                    if self.refusal_mode == "deterministic"
                    else all(
                        Interaction(probe_inputs, expected) in refreshed
                        for expected in expected_set
                    )
                )
                if not has_known and not fully_refused:
                    undecided = True
                    break
            if not undecided:
                matched = any(
                    interaction.inputs == probe_inputs
                    and interaction.outputs in expected_set
                    for probe_inputs, expected_set in by_inputs.items()
                    for interaction in known_now
                )
                if not matched:
                    scratch.real_violation = True
                    scratch.violation = cex
        return model
