"""Self-time arithmetic and the tracer's attribute substitution."""

import pytest

import spans


def span(span_id, parent, start, end, name="x"):
    return [span_id, parent, name, start, end, False, None]


def test_self_time_subtracts_children():
    # root 0..10 with children 1..3 and 4..8; the second child has a
    # grandchild 5..6 that must not be subtracted from the root again
    trace = [
        span(0, None, 0.0, 10.0),
        span(1, 0, 1.0, 3.0),
        span(2, 0, 4.0, 8.0),
        span(3, 2, 5.0, 6.0),
    ]
    own = spans.self_times(trace)
    assert own[0] == pytest.approx(4.0)
    assert own[1] == pytest.approx(2.0)
    assert own[2] == pytest.approx(3.0)
    assert own[3] == pytest.approx(1.0)


def test_self_time_counts_overlapping_children_once():
    # children from two threads overlap; one sticks out past the parent
    trace = [
        span(0, None, 0.0, 10.0),
        span(1, 0, 2.0, 6.0),
        span(2, 0, 4.0, 7.0),
        span(3, 0, 9.0, 12.0),
    ]
    assert spans.self_times(trace)[0] == pytest.approx(10.0 - 5.0 - 1.0)


def test_tracer_records_nesting_errors_and_restores():
    class Owner:
        @staticmethod
        def inner(x):
            if x < 0:
                raise ValueError("negative")
            return x * 2

    def outer(x):
        return Owner.inner(x) + 1

    tracer = spans.Tracer()
    original = Owner.inner
    tracer.patch(Owner, "inner", "inner", describe=lambda a, k, r: {"arg": a[0]})
    assert tracer.span("outer", outer, 3) == 7
    with pytest.raises(ValueError):
        tracer.span("outer", outer, -1)
    tracer.restore()
    assert Owner.inner is original

    (o1, i1, o2, i2) = tracer.spans
    assert (o1[2], i1[2], i1[1]) == ("outer", "inner", o1[0])
    assert i1[6] == {"arg": 3} and not i1[5]
    assert i2[5] and o2[5], "both spans of the failed call are marked"
    assert all(s[3] <= s[4] for s in tracer.spans)


def test_layer_metrics_covers_every_layer_metric():
    metrics = spans.layer_metrics([span(0, None, 0.0, 1.0, "cli.run")])
    assert set(metrics) == set(spans.LAYER_METRICS)
    assert metrics["cli.self_ms"] == pytest.approx(1000.0)


def test_stage_metrics_keep_stages_apart():
    trace = [
        span(0, None, 0.0, 3.0, "stage.evaluate_sine"),
        span(1, 0, 0.5, 2.5, "cli.run"),
        span(2, 1, 1.0, 2.0, "arima.fit"),
        span(3, None, 3.0, 4.0, "stage.arima_css"),
        span(4, 3, 3.0, 3.5, "arima.fit"),
    ]
    metrics = spans.stage_metrics(trace)
    assert metrics["evaluate_sine.arima.fit.ms_p50"] == pytest.approx(1000.0)
    assert metrics["evaluate_sine.cli.self_ms"] == pytest.approx(1000.0)
    assert metrics["arima_css.arima.fit.ms_p50"] == pytest.approx(500.0)
    assert "ingest.polls" not in metrics  # a stage this sample did not run
    assert set(metrics) <= {name for name, _, _ in spans.PER_LAYER}
