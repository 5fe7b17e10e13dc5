"""Tests for the reuse-theory cache model, including the differential
property against the simulated cache: for a fully-associative LRU with
GPU write semantics, *hit iff stack distance < capacity* must hold on
arbitrary traces."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.cache_model import (
    hit_rate_curve,
    profile_stack_distances,
    recommend_l1_size,
    stack_distances,
)
from repro.analysis.reuse_distance import INFINITE
from repro.gpu.cache import SetAssociativeCache


class TestStackDistances:
    def test_simple_reuse(self):
        events = [(1, False), (2, False), (1, False)]
        assert stack_distances(events) == [INFINITE, INFINITE, 1]

    def test_write_evicts(self):
        events = [(1, False), (1, True), (1, False)]
        assert stack_distances(events) == [INFINITE, INFINITE]

    def test_write_to_other_line_leaves_hole(self):
        # read A, read B, WRITE B (evicts B), read A: the write frees a
        # way but a capacity-1 cache already evicted A when B was read,
        # so B's slot must still count -- distance 1, not 0.
        events = [(1, False), (2, False), (2, True), (1, False)]
        assert stack_distances(events)[-1] == 1

    def test_write_no_allocate(self):
        events = [(7, True), (7, False)]
        assert stack_distances(events) == [INFINITE]


class TestTheoremDifferential:
    @given(
        trace=st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=20), st.booleans()
            ),
            min_size=1,
            max_size=300,
        ),
        capacity=st.sampled_from([1, 2, 4, 8, 16]),
    )
    @settings(max_examples=80, deadline=None)
    def test_hit_iff_stack_distance_below_capacity(self, trace, capacity):
        """The model and the cache simulator must agree access by
        access, for any interleaving of reads and write-evicts."""
        cache = SetAssociativeCache(capacity * 64, 64, capacity)
        assert cache.num_sets == 1  # fully associative
        distances = iter(stack_distances(trace))
        for line, is_write in trace:
            missed = cache.access_lines([line], is_write)
            if not is_write:
                hit = not missed
                d = next(distances)
                expected = d != INFINITE and d < capacity
                assert hit == expected

    @given(
        trace=st.lists(
            st.integers(min_value=0, max_value=30), min_size=1, max_size=200
        )
    )
    @settings(max_examples=40, deadline=None)
    def test_curve_matches_simulated_hit_rates(self, trace):
        events = [(line, False) for line in trace]
        distances = stack_distances(events)
        curve = hit_rate_curve(distances, [1, 4, 16, 64], line_size=64)
        for capacity, predicted in zip(curve.capacities, curve.hit_rates):
            cache = SetAssociativeCache(capacity * 64, 64, capacity)
            for line in trace:
                cache.access_lines([line], False)
            simulated = cache.stats.read_hit_rate
            assert predicted == pytest.approx(simulated, abs=1e-12)


class TestCurveProperties:
    def test_monotone_in_capacity(self):
        rng = np.random.default_rng(3)
        events = [(int(x), False) for x in rng.integers(0, 50, 500)]
        curve = hit_rate_curve(stack_distances(events), [1, 2, 4, 8, 16, 64])
        assert all(
            a <= b + 1e-12
            for a, b in zip(curve.hit_rates, curve.hit_rates[1:])
        )

    def test_rate_at_interpolates_conservatively(self):
        curve = hit_rate_curve([0, 1, 5, INFINITE], [2, 8])
        assert curve.rate_at(1) == 0.0  # below the smallest capacity
        assert curve.rate_at(4) == curve.hit_rates[0]
        assert curve.rate_at(100) == curve.hit_rates[1]

    def test_render(self):
        curve = hit_rate_curve([0, INFINITE], [16], line_size=128)
        text = curve.render("(syrk)")
        assert "2.0 KB" in text
        assert "50.0%" in text


class TestRecommendation:
    def _profile(self, app_name, **kwargs):
        from repro.apps import build_app
        from repro.frontend.dsl import compile_kernels
        from repro.gpu import Device, KEPLER_K40C
        from repro.host import CudaRuntime
        from repro.passes import (
            instrumentation_pipeline,
            optimization_pipeline,
        )
        from repro.profiler import ProfilingSession

        app = build_app(app_name, **kwargs)
        module = compile_kernels(list(app.kernels), app_name)
        optimization_pipeline().run(module)
        instrumentation_pipeline(["memory"]).run(module)
        session = ProfilingSession()
        dev = Device(KEPLER_K40C)
        rt = CudaRuntime(dev, profiler=session)
        image = dev.load_module(module)
        state = app.prepare(rt)
        app.run(rt, image, state)
        return session.profiles[0]

    def test_flat_curve_recommends_smallest_capacity(self):
        """nn's only locality is intra-warp spatial reuse (lanes sharing
        a line), which the tiniest cache already captures: the curve is
        flat, so the smallest candidate capacity suffices -- the
        "insensitive to L1 sizing" verdict."""
        profile = self._profile("nn", num_records=1024)
        rec = recommend_l1_size(profile)
        assert rec.recommended_lines == rec.curve.capacities[0]
        spread = rec.curve.max_rate - rec.curve.hit_rates[0]
        assert spread < 0.01

    def test_reusing_kernel_wants_capacity(self):
        profile = self._profile("syrk", n=32, m=32)
        rec = recommend_l1_size(profile)
        assert rec.curve.max_rate > 0.5
        assert rec.recommended_lines > rec.curve.capacities[0]
        assert "KB" in rec.render()
