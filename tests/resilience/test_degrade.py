"""Deadline budgets and degraded-mode linking."""

import dataclasses
import json

import pytest

from repro.core.batch import BatchedLinker
from repro.core.linker import AliasLinker, Match
from repro.errors import ConfigurationError, DeadlineExceededError
from repro.obs.metrics import get_registry
from repro.resilience.degrade import DeadlineBudget


class ManualClock:
    def __init__(self, now=0.0):
        self.now = now

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


def _metric(name):
    return get_registry().snapshot().get(name, {}).get("value", 0.0)


class TestDeadlineBudget:
    def test_accounting(self):
        clock = ManualClock()
        budget = DeadlineBudget(100, clock=clock)
        assert budget.remaining_ms() == 100.0
        clock.advance(0.04)
        assert budget.elapsed_ms() == pytest.approx(40.0)
        assert budget.remaining_ms() == pytest.approx(60.0)
        assert not budget.expired()
        clock.advance(0.07)
        assert budget.expired()
        assert budget.remaining_ms() < 0

    def test_expiry_counted_once(self):
        clock = ManualClock()
        budget = DeadlineBudget(10, clock=clock)
        before = _metric("deadline_expired_total")
        clock.advance(1.0)
        assert budget.expired() and budget.expired()
        assert _metric("deadline_expired_total") == before + 1

    def test_strict_check_raises_with_stage(self):
        clock = ManualClock()
        budget = DeadlineBudget(10, degraded_ok=False, clock=clock)
        budget.check("restage")  # not expired: no-op
        clock.advance(1.0)
        with pytest.raises(DeadlineExceededError) as exc:
            budget.check("restage")
        assert exc.value.stage == "restage"

    def test_degraded_ok_check_never_raises(self):
        clock = ManualClock()
        budget = DeadlineBudget(10, clock=clock)
        clock.advance(1.0)
        budget.check("restage")

    def test_activity_reserve(self):
        clock = ManualClock()
        budget = DeadlineBudget(100, activity_reserve_ms=30,
                                clock=clock)
        assert not budget.activity_low()
        clock.advance(0.075)
        assert budget.activity_low()
        assert not budget.expired()

    @pytest.mark.parametrize("kwargs", [
        {"deadline_ms": 0}, {"deadline_ms": -5},
        {"deadline_ms": 10, "activity_reserve_ms": -1},
    ])
    def test_invalid_configuration_rejected(self, kwargs):
        with pytest.raises(ConfigurationError):
            DeadlineBudget(**kwargs)


class TestMatchSerialization:
    def test_full_fidelity_match_has_no_degraded_keys(self):
        match = Match(unknown_id="u", candidate_id="c", score=0.5,
                      accepted=True, first_stage_score=0.4)
        data = match.to_dict()
        assert "degraded" not in data
        assert "degraded_reasons" not in data
        assert Match.from_dict(data) == match

    def test_degraded_match_roundtrips(self):
        match = Match(unknown_id="u", candidate_id="c", score=0.5,
                      accepted=True, first_stage_score=0.5,
                      degraded=True,
                      degraded_reasons=("stage1_only",))
        data = json.loads(json.dumps(match.to_dict()))
        assert data["degraded"] is True
        assert data["degraded_reasons"] == ["stage1_only"]
        assert Match.from_dict(data) == match


@pytest.fixture(scope="module")
def corpus(reddit_alter_egos):
    return (reddit_alter_egos.originals,
            reddit_alter_egos.alter_egos[:6])


def _result_json(result):
    return json.dumps(result.to_dict(), sort_keys=True)


class TestDegradedLinking:
    def test_no_budget_is_byte_identical(self, corpus):
        known, unknowns = corpus
        plain = AliasLinker(threshold=0.0).fit(known).link(unknowns)
        with_kwarg = AliasLinker(threshold=0.0).fit(known).link(
            unknowns, budget=None)
        assert _result_json(plain) == _result_json(with_kwarg)

    def test_generous_budget_is_byte_identical(self, corpus):
        """A budget that never runs out changes nothing — also for an
        unknown without an activity profile: the missing profile is a
        property of the input, not something the budget cut."""
        known, unknowns = corpus
        activity_less = list(unknowns)
        activity_less[1] = dataclasses.replace(unknowns[1], activity=None)
        for batch in (unknowns, activity_less):
            plain = AliasLinker(threshold=0.0).fit(known).link(batch)
            rich = AliasLinker(threshold=0.0).fit(known).link(
                batch, budget=DeadlineBudget(600_000))
            assert _result_json(plain) == _result_json(rich)
            assert rich.degraded() == []

    def test_expired_before_linking_quarantines(self, corpus):
        known, unknowns = corpus
        clock = ManualClock()
        budget = DeadlineBudget(10, clock=clock)
        clock.advance(1.0)
        result = AliasLinker(threshold=0.0).fit(known).link(
            unknowns, budget=budget)
        assert result.matches == []
        assert len(result.skipped) == len(unknowns)
        assert all(s.stage == "deadline" for s in result.skipped)

    def test_stage1_only_degradation(self, corpus):
        """Budget spent between the stages: every unknown still gets a
        match, scored from stage-1 evidence and flagged degraded."""
        known, unknowns = corpus
        clock = ManualClock()
        budget = DeadlineBudget(10, clock=clock)
        linker = AliasLinker(threshold=0.0).fit(known)
        inner = linker._reduce_isolated

        def expire_after_stage1(pending, skipped, store):
            out = inner(pending, skipped, store)
            clock.advance(1.0)
            return out

        linker._reduce_isolated = expire_after_stage1
        result = linker.link(unknowns, budget=budget)
        assert len(result.matches) == len(unknowns)
        assert all(m.degraded for m in result.matches)
        assert all(m.degraded_reasons == ("stage1_only",)
                   for m in result.matches)
        # Degraded scores ARE the stage-1 scores — honest accounting.
        for match in result.matches:
            assert match.score == match.first_stage_score

    def test_degraded_counter_incremented(self, corpus):
        known, unknowns = corpus
        clock = ManualClock()
        budget = DeadlineBudget(10, clock=clock)
        linker = AliasLinker(threshold=0.0).fit(known)
        inner = linker._reduce_isolated

        def expire_after_stage1(pending, skipped, store):
            out = inner(pending, skipped, store)
            clock.advance(1.0)
            return out

        linker._reduce_isolated = expire_after_stage1
        before = _metric("attribution_degraded_total")
        linker.link(unknowns, budget=budget)
        assert _metric("attribution_degraded_total") \
            == before + len(unknowns)

    def test_stylometry_only_shedding(self, corpus):
        """An exhausted activity reserve sheds the activity block but
        still runs the restage."""
        known, unknowns = corpus
        budget = DeadlineBudget(600_000,
                                activity_reserve_ms=600_000)
        result = AliasLinker(threshold=0.0).fit(known).link(
            unknowns, budget=budget)
        assert len(result.matches) == len(unknowns)
        assert all(m.degraded_reasons == ("stylometry_only",)
                   for m in result.matches)
        # The restage really ran: stylometry-only second-stage scores
        # differ from the stage-1 scores.
        assert any(m.score != m.first_stage_score
                   for m in result.matches)

    def test_strict_budget_raises(self, corpus):
        known, unknowns = corpus
        clock = ManualClock()
        budget = DeadlineBudget(10, degraded_ok=False, clock=clock)
        clock.advance(1.0)
        with pytest.raises(DeadlineExceededError):
            AliasLinker(threshold=0.0).fit(known).link(
                unknowns, budget=budget)

    def test_strict_budget_raises_after_stage1(self, corpus):
        """Expiry between the stages raises at the restage: the
        per-unknown error isolation must not swallow it."""
        known, unknowns = corpus
        clock = ManualClock()
        budget = DeadlineBudget(10, degraded_ok=False, clock=clock)
        linker = AliasLinker(threshold=0.0).fit(known)
        inner = linker._reduce_isolated

        def expire_after_stage1(pending, skipped, store):
            out = inner(pending, skipped, store)
            clock.advance(1.0)
            return out

        linker._reduce_isolated = expire_after_stage1
        with pytest.raises(DeadlineExceededError) as exc:
            linker.link(unknowns, budget=budget)
        assert exc.value.stage == "restage"


class TestBatchedDegradedLinking:
    def test_no_budget_is_byte_identical(self, corpus):
        known, unknowns = corpus
        plain = BatchedLinker(batch_size=20, k=5,
                              threshold=0.0).fit(known).link(unknowns)
        with_kwarg = BatchedLinker(batch_size=20, k=5,
                                   threshold=0.0).fit(known).link(
            unknowns, budget=None)
        assert _result_json(plain) == _result_json(with_kwarg)

    def test_expired_before_linking_quarantines(self, corpus):
        known, unknowns = corpus
        clock = ManualClock()
        budget = DeadlineBudget(10, clock=clock)
        clock.advance(1.0)
        result = BatchedLinker(batch_size=20, k=5,
                               threshold=0.0).fit(known).link(
            unknowns, budget=budget)
        assert result.matches == []
        assert all(s.stage == "deadline" for s in result.skipped)
        assert len(result.skipped) == len(unknowns)

    def test_mid_flight_expiry_mixes_degraded_and_deadline(
            self, corpus, monkeypatch):
        """The deadline lands right after stage 1: the batched unknowns
        degrade to their stage-1 scores, as AliasLinker's do."""
        known, unknowns = corpus
        clock = ManualClock()
        budget = DeadlineBudget(10, clock=clock)
        inner = AliasLinker._reduce_isolated

        def expire_after_stage1(self, pending, skipped, store):
            out = inner(self, pending, skipped, store)
            clock.advance(1.0)
            return out

        monkeypatch.setattr(AliasLinker, "_reduce_isolated",
                            expire_after_stage1)
        result = BatchedLinker(batch_size=20, k=5,
                               threshold=0.0).fit(known).link(
            unknowns, budget=budget)
        assert len(result.matches) + len(result.skipped) \
            == len(unknowns)
        degraded = result.degraded()
        assert degraded
        assert all(m.degraded_reasons == ("stage1_only",)
                   for m in degraded)
        assert all(s.stage == "deadline" for s in result.skipped)

    def test_strict_budget_raises(self, corpus):
        known, unknowns = corpus
        clock = ManualClock()
        budget = DeadlineBudget(10, degraded_ok=False, clock=clock)
        clock.advance(1.0)
        with pytest.raises(DeadlineExceededError):
            BatchedLinker(batch_size=20, k=5,
                          threshold=0.0).fit(known).link(
                unknowns, budget=budget)

    def test_strict_budget_raises_after_stage1(self, corpus):
        known, unknowns = corpus
        clock = ManualClock()
        budget = DeadlineBudget(10, degraded_ok=False, clock=clock)
        linker = BatchedLinker(batch_size=20, k=5,
                               threshold=0.0).fit(known)
        inner = linker._reduce_isolated

        def expire_after_stage1(pending, skipped, store):
            out = inner(pending, skipped, store)
            clock.advance(1.0)
            return out

        linker._reduce_isolated = expire_after_stage1
        with pytest.raises(DeadlineExceededError) as exc:
            linker.link(unknowns, budget=budget)
        assert exc.value.stage == "restage"


class TestEpisodeDegradedAccounting:
    """Deadline budgets inside the episode harness: degraded and
    quarantined episodes must surface as honest per-cell counts, never
    as silently polluted quality metrics."""

    def test_tight_budget_reports_degraded_episodes(
            self, episode_suite, monkeypatch):
        """The budget expires between the stages of every episode:
        each one degrades to stage-1 evidence and says so."""
        from repro.eval.episodes import run_episodes

        episodes, config = episode_suite
        clock = ManualClock()
        inner = AliasLinker._reduce_isolated

        def expire_after_stage1(self, pending, skipped, store):
            out = inner(self, pending, skipped, store)
            clock.advance(1.0)
            return out

        monkeypatch.setattr(AliasLinker, "_reduce_isolated",
                            expire_after_stage1)

        def budget_factory():
            clock.now = 0.0
            return DeadlineBudget(10, clock=clock)

        before = _metric("episodes_degraded_total")
        report = run_episodes(episodes, features=config.features,
                              budget_factory=budget_factory)
        assert report.n_degraded == len(episodes)
        assert report.n_skipped == 0
        assert _metric("episodes_degraded_total") \
            == before + len(episodes)
        for outcome in report.outcomes:
            assert outcome.degraded
            assert outcome.degraded_reasons == ("stage1_only",)
            assert outcome.rank is None
        for metrics in report.cells.values():
            assert metrics["n_degraded"] == metrics["n_episodes"]
            assert metrics["n_full"] == 0.0
            # No full-fidelity episodes -> no quality numbers, rather
            # than numbers quietly computed from degraded evidence.
            assert metrics["auc"] == 0.0
            assert metrics["brier"] == 0.0

    def test_expired_budget_quarantines_episodes(self, episode_suite):
        from repro.eval.episodes import run_episodes

        episodes, config = episode_suite
        clock = ManualClock()

        def budget_factory():
            clock.now = 0.0
            budget = DeadlineBudget(10, clock=clock)
            clock.advance(1.0)  # already past the 10 ms deadline
            return budget

        report = run_episodes(episodes, features=config.features,
                              budget_factory=budget_factory)
        assert report.n_skipped == len(episodes)
        assert report.n_degraded == 0
        for outcome in report.outcomes:
            assert outcome.skipped
            assert outcome.reason.startswith("deadline")
        for metrics in report.cells.values():
            assert metrics["n_skipped"] == metrics["n_episodes"]

    def test_generous_budget_is_invisible(self, episode_suite):
        from repro.eval.episodes import run_episodes

        episodes, config = episode_suite
        plain = run_episodes(episodes, features=config.features)
        rich = run_episodes(
            episodes, features=config.features,
            budget_factory=lambda: DeadlineBudget(600_000))
        assert json.dumps(plain.to_dict(), sort_keys=True) \
            == json.dumps(rich.to_dict(), sort_keys=True)
