"""SLO tracker tests: compliance, error budget, burn rates."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.telemetry import MetricsRegistry, SloConfig, SloTracker


def make_tracker(**overrides) -> SloTracker:
    config = SloConfig(
        latency_objective_seconds=0.1,
        target=0.9,
        burn_windows_seconds=(10.0, 100.0),
    ).with_overrides(**overrides)
    return SloTracker(config)


class TestSloConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            SloConfig(latency_objective_seconds=0).validate()
        with pytest.raises(ValueError):
            SloConfig(target=1.0).validate()
        with pytest.raises(ValueError):
            SloConfig(burn_windows_seconds=()).validate()
        with pytest.raises(ValueError):
            SloConfig(burn_windows_seconds=(0.0,)).validate()


class TestSloTracker:
    def test_empty_tracker_is_compliant(self):
        tracker = make_tracker()
        assert tracker.compliance() == 1.0
        assert tracker.error_budget_consumed() == 0.0
        report = tracker.report(now=0.0)
        assert report.met

    def test_compliance_counts_latency_and_errors(self):
        tracker = make_tracker()
        tracker.observe(0.05, now=1.0)           # good
        tracker.observe(0.5, now=2.0)            # too slow
        tracker.observe(0.05, now=3.0, ok=False) # failed
        tracker.observe(0.05, now=4.0)           # good
        assert tracker.total == 4
        assert tracker.good == 2
        assert tracker.compliance() == pytest.approx(0.5)

    def test_error_budget(self):
        tracker = make_tracker()  # target 0.9 -> budget 10% of requests
        for i in range(9):
            tracker.observe(0.05, now=float(i))
        tracker.observe(0.5, now=9.0)
        # 1 bad out of a 1-request budget: exactly spent.
        assert tracker.error_budget_consumed() == pytest.approx(1.0)

    def test_burn_rate_windows_evict(self):
        tracker = make_tracker()
        tracker.observe(0.5, now=50.0)  # bad, will age out of the 10s window
        for t in range(95, 105):
            tracker.observe(0.05, now=float(t))
        # 10s window holds only good events; 100s window still sees the bad one.
        assert tracker.burn_rate(10.0, now=105.0) == 0.0
        assert tracker.burn_rate(100.0, now=105.0) > 0.0

    def test_burn_rate_of_all_bad_traffic(self):
        tracker = make_tracker()
        for t in range(5):
            tracker.observe(0.5, now=float(t))
        # Bad fraction 1.0 against a 10% budget: burning 10x.
        assert tracker.burn_rate(10.0, now=5.0) == pytest.approx(10.0)

    def test_unknown_window_raises(self):
        with pytest.raises(KeyError):
            make_tracker().burn_rate(42.0, now=0.0)

    def test_report_structure(self):
        tracker = make_tracker()
        for t in range(10):
            tracker.observe(0.05 if t % 2 else 0.5, now=float(t))
        report = tracker.report(now=10.0)
        assert report.total == 10
        assert report.bad == 5
        assert not report.met
        assert [w.window_seconds for w in report.windows] == [100.0, 10.0]
        payload = report.as_dict()
        assert payload["compliance"] == pytest.approx(0.5)
        assert len(payload["windows"]) == 2

    def test_register_metrics_views(self):
        registry = MetricsRegistry()
        tracker = make_tracker()
        tracker.register_metrics(registry)
        tracker.observe(0.5, now=1.0)
        snap = registry.snapshot()
        assert snap.metric("repro_slo_requests_total")["samples"][0]["value"] == 1
        assert snap.metric("repro_slo_bad_requests_total")["samples"][0]["value"] == 1
        assert snap.metric("repro_slo_compliance_ratio")["samples"][0]["value"] == 0.0


#: One step of a tracker's life: ("observe", dt, latency, ok),
#: ("report", dt) or ("burn", dt, window index).  ``dt`` advances the
#: clock, so time never runs backwards (as in a simulation).
_steps = st.lists(
    st.one_of(
        st.tuples(st.just("observe"), st.floats(0.0, 4.0),
                  st.floats(0.0, 0.2), st.booleans()),
        st.tuples(st.just("report"), st.floats(0.0, 30.0)),
        st.tuples(st.just("burn"), st.floats(0.0, 30.0), st.integers(0, 1)),
    ),
    max_size=120,
)


@given(steps=_steps)
@settings(max_examples=150, deadline=None)
def test_window_counts_match_a_brute_force_recount(steps):
    """The running bad counts equal a recount of every event still in
    each window, and the burn rates are the ones the recount gives."""
    target = 0.9
    tracker = make_tracker()
    history = []  # (time, is_bad) of every observed event
    now = 0.0
    for step in steps:
        now += step[1]
        if step[0] == "observe":
            _, _, latency, ok = step
            tracker.observe(latency, now=now, ok=ok)
            history.append((now, not (ok and latency <= 0.1)))
            continue
        windows = (100.0, 10.0) if step[0] == "report" else ((100.0, 10.0)[step[2]],)
        recount = []
        for w in windows:
            kept = [is_bad for t, is_bad in history if t >= now - w]
            recount.append((len(kept), sum(kept)))
        expected = [(bad / total) / (1.0 - target) if total else 0.0 for total, bad in recount]
        if step[0] == "burn":
            assert [tracker.burn_rate(w, now=now) for w in windows] == expected
        else:
            report = tracker.report(now=now)
            assert [(w.total, w.bad) for w in report.windows] == recount
            assert [w.burn_rate for w in report.windows] == expected
    for window in tracker._windows:
        assert window.bad == sum(1 for _, is_bad in window.events if is_bad)
