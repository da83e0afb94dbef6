"""Property-based tests for the observability math.

Pins the invariants the metrics layer is built on:

* merging histograms == histogramming the concatenation (exact on bucket
  counts and observation counts; float-close on sums);
* percentiles are monotone in q and always land inside the bucket bounds;
* the snapshot-monotone counter publish (``Counter.set_to``) never loses
  increments, whatever order snapshots arrive in.
"""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.observability import Counter, Histogram, MetricsRegistry

SETTINGS = settings(max_examples=40, deadline=None)

boundaries = (
    st.lists(
        st.floats(min_value=1e-3, max_value=1e3, allow_nan=False, allow_infinity=False),
        min_size=1,
        max_size=6,
        unique=True,
    )
    .map(sorted)
    .map(tuple)
)
observations = st.lists(
    st.floats(min_value=0.0, max_value=2e3, allow_nan=False, allow_infinity=False),
    max_size=50,
)


class TestHistogramProperties:
    @SETTINGS
    @given(bounds=boundaries, xs=observations, ys=observations)
    def test_merge_equals_histogram_of_concatenation(self, bounds, xs, ys):
        a = Histogram("h", boundaries=bounds)
        b = Histogram("h", boundaries=bounds)
        c = Histogram("h", boundaries=bounds)
        for x in xs:
            a.observe(x)
            c.observe(x)
        for y in ys:
            b.observe(y)
            c.observe(y)
        a.merge(b)
        assert a.bucket_counts == c.bucket_counts
        assert a.count == c.count
        assert math.isclose(a.sum, c.sum, rel_tol=1e-9, abs_tol=1e-9)

    @SETTINGS
    @given(bounds=boundaries, xs=observations.filter(bool))
    def test_percentiles_monotone_and_within_bucket_bounds(self, bounds, xs):
        h = Histogram("h", boundaries=bounds)
        for x in xs:
            h.observe(x)
        p50, p95, p99 = (h.percentile(q) for q in (0.50, 0.95, 0.99))
        assert p50 <= p95 <= p99
        for p in (p50, p95, p99):
            assert 0.0 <= p <= bounds[-1]

    @SETTINGS
    @given(bounds=boundaries, xs=observations)
    def test_bucket_counts_conserve_observations(self, bounds, xs):
        h = Histogram("h", boundaries=bounds)
        for x in xs:
            h.observe(x)
        assert sum(h.bucket_counts) == h.count == len(xs)

    @SETTINGS
    @given(bounds=boundaries, xs=observations.filter(bool), q=st.floats(min_value=0, max_value=1))
    def test_percentile_bracketed_by_observed_bucket(self, bounds, xs, q):
        """percentile(q) never exceeds the upper bound of the bucket holding
        the q-th observation (overflow clamps to the last finite bound)."""
        h = Histogram("h", boundaries=bounds)
        for x in xs:
            h.observe(x)
        assert 0.0 <= h.percentile(q) <= bounds[-1]


class TestCounterSetTo:
    @SETTINGS
    @given(incs=st.lists(st.integers(min_value=0, max_value=50), min_size=1, max_size=20), data=st.data())
    def test_set_to_never_loses_increments(self, incs, data):
        """A source that keeps its own count (the cache's stats) only ever
        increments; its exports may reach the registry out of order (a
        manifest build racing a live scrape).  Monotone-max ``set_to`` must
        converge on the true total regardless."""
        snapshots, total = [], 0
        for inc in incs:
            total += inc
            snapshots.append(total)
        counter = Counter("repro_x_total")
        for snap in data.draw(st.permutations(snapshots)):
            counter.set_to(snap)
            assert counter.value <= total  # never overshoots
        assert counter.value == total  # never loses

    @SETTINGS
    @given(
        incs=st.lists(st.integers(min_value=0, max_value=50), min_size=1, max_size=20),
        export_points=st.sets(st.integers(min_value=0, max_value=20)),
    )
    def test_interleaved_inc_and_set_to_monotone(self, incs, export_points):
        """Direct .inc() traffic interleaved with stale-snapshot exports:
        the counter is monotone throughout and ends >= both sources."""
        source_total = 0
        counter = Counter("repro_x_total")
        direct_total = 0
        last = 0.0
        for i, inc in enumerate(incs):
            source_total += inc
            if i in export_points:
                counter.set_to(source_total)
            else:
                counter.inc(inc)
                direct_total += inc
            assert counter.value >= last
            last = counter.value
        counter.set_to(source_total)
        assert counter.value >= max(source_total, direct_total)


class TestRegistryProperties:
    @SETTINGS
    @given(
        labels=st.lists(
            st.tuples(st.sampled_from("abcd"), st.sampled_from(("x", "y", "z"))),
            min_size=1,
            max_size=4,
            unique_by=lambda kv: kv[0],
        )
    )
    def test_label_order_is_irrelevant(self, labels):
        reg = MetricsRegistry()
        fwd = reg.counter("repro_t_total", **dict(labels))
        rev = reg.counter("repro_t_total", **dict(reversed(labels)))
        assert fwd is rev

    @SETTINGS
    @given(xs=observations)
    def test_prometheus_inf_bucket_equals_count(self, xs):
        reg = MetricsRegistry()
        h = reg.histogram("repro_t_seconds", boundaries=(0.1, 1.0))
        for x in xs:
            h.observe(x)
        text = reg.render_prometheus()
        inf_line = next(l for l in text.splitlines() if 'le="+Inf"' in l)
        assert float(inf_line.rsplit(" ", 1)[1]) == len(xs)
