"""Property-based tests of the infrastructure simulator."""

import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.sched import (
    ClusterModel,
    ClusterScheduler,
    EC2CostModel,
    EC2_INSTANCE_TYPES,
    JobSpec,
    JobState,
    Node,
    NodeSpec,
    SGEPolicy,
    Simulator,
)
from repro.sched.iomodel import IOConfiguration, SharedBandwidth


class TestSimulatorProperties:
    @given(st.lists(st.floats(0.0, 1e5), min_size=1, max_size=40))
    @settings(max_examples=60, deadline=None)
    def test_events_fire_in_nondecreasing_time(self, delays):
        sim = Simulator()
        fired = []
        for d in delays:
            sim.schedule(d, lambda: fired.append(sim.now))
        sim.run()
        assert fired == sorted(fired)
        assert len(fired) == len(delays)

    @given(
        st.lists(st.floats(0.0, 100.0), min_size=2, max_size=20),
        st.data(),
    )
    @settings(max_examples=40, deadline=None)
    def test_cancelled_events_never_fire(self, delays, data):
        sim = Simulator()
        fired = []
        handles = [
            sim.schedule(d, lambda k=k: fired.append(k))
            for k, d in enumerate(delays)
        ]
        to_cancel = data.draw(
            st.sets(st.integers(0, len(delays) - 1), max_size=len(delays))
        )
        for k in to_cancel:
            sim.cancel(handles[k])
        sim.run()
        assert set(fired) == set(range(len(delays))) - to_cancel


class TestBandwidthProperties:
    @given(
        st.lists(st.floats(1.0, 500.0), min_size=1, max_size=15),
        st.floats(5.0, 200.0),
    )
    @settings(max_examples=40, deadline=None)
    def test_saturated_makespan_equals_volume_over_capacity(
        self, sizes, capacity
    ):
        """All transfers started at t=0: last finishes at sum/capacity."""
        sim = Simulator()
        bw = SharedBandwidth(sim, capacity)
        finish = []
        for size in sizes:
            bw.transfer(size, lambda: finish.append(sim.now))
        sim.run()
        assert max(finish) == pytest.approx(sum(sizes) / capacity, rel=1e-6)
        assert len(finish) == len(sizes)

    @given(
        st.lists(
            st.tuples(st.floats(0.0, 50.0), st.floats(1.0, 100.0)),
            min_size=1,
            max_size=12,
        ),
        st.floats(5.0, 100.0),
    )
    @settings(max_examples=40, deadline=None)
    def test_every_transfer_completes_no_earlier_than_unshared(
        self, starts_sizes, capacity
    ):
        """Sharing can only slow a transfer down, never speed it up."""
        sim = Simulator()
        bw = SharedBandwidth(sim, capacity)
        done = {}
        for k, (start, size) in enumerate(starts_sizes):
            def launch(k=k, start=start, size=size):
                bw.transfer(size, lambda: done.__setitem__(k, sim.now))

            sim.schedule(start, launch)
        sim.run()
        for k, (start, size) in enumerate(starts_sizes):
            assert done[k] >= start + size / capacity - 1e-9


class TestSchedulerProperties:
    @given(
        st.integers(1, 12),  # jobs
        st.integers(1, 6),  # cores
        st.floats(1.0, 500.0),  # cpu seconds
    )
    @settings(max_examples=30, deadline=None)
    def test_makespan_at_least_ideal(self, n_jobs, cores, cpu):
        sim = Simulator()
        cluster = ClusterModel(
            nodes=[Node(NodeSpec(name="n", cores=cores, local_disk_mbps=250.0))]
        )
        io = IOConfiguration(
            pert_input_mb=0.0, pemodel_input_mb=0.0, output_mb=0.0,
            prestage_cost_s=0.0,
        )
        sched = ClusterScheduler(sim, cluster, SGEPolicy(), io)
        jobs = sched.submit(
            [JobSpec(kind="pemodel", index=i, cpu_seconds=cpu) for i in range(n_jobs)]
        )
        sim.run()
        assert all(j.state is JobState.DONE for j in jobs)
        ideal = math.ceil(n_jobs / cores) * cpu
        makespan = max(j.end_time for j in jobs)
        assert makespan >= ideal - 1e-6
        # and overhead is bounded by dispatch latencies
        assert makespan <= ideal + n_jobs * 2.0 + 10.0

    @given(st.integers(1, 10), st.integers(1, 4))
    @settings(max_examples=30, deadline=None)
    def test_no_node_ever_oversubscribed(self, n_jobs, cores):
        """Instrumented invariant: busy cores never exceed capacity."""
        sim = Simulator()
        node = Node(NodeSpec(name="n", cores=cores, local_disk_mbps=250.0))
        cluster = ClusterModel(nodes=[node])
        io = IOConfiguration(
            pert_input_mb=0.0, pemodel_input_mb=0.0, output_mb=0.0,
            prestage_cost_s=0.0,
        )
        sched = ClusterScheduler(sim, cluster, SGEPolicy(), io)
        sched.submit(
            [JobSpec(kind="pert", index=i, cpu_seconds=5.0) for i in range(n_jobs)]
        )
        violations = []

        def watch():
            if node.busy_cores > node.spec.cores or node.busy_cores < 0:
                violations.append(sim.now)
            if any(j.state is not JobState.DONE for j in sched.jobs.values()):
                sim.schedule(0.5, watch)

        sim.schedule(0.0, watch)
        sim.run()
        assert violations == []


class TestBillingProperties:
    @given(
        st.sampled_from(sorted(EC2_INSTANCE_TYPES)),
        st.integers(1, 50),
        st.floats(0.01, 100.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_cost_monotone_in_instances_and_hours(self, name, n, hours):
        model = EC2CostModel()
        itype = EC2_INSTANCE_TYPES[name]
        base = model.compute_cost(itype, n, hours)
        assert model.compute_cost(itype, n + 1, hours) > base
        assert model.compute_cost(itype, n, hours + 1.0) > base
        # reserved never costs more
        assert model.compute_cost(itype, n, hours, reserved=True) <= base

    @given(st.floats(0.01, 100.0))
    @settings(max_examples=60, deadline=None)
    def test_billed_hours_are_ceiling(self, hours):
        model = EC2CostModel()
        itype = EC2_INSTANCE_TYPES["m1.small"]
        cost = model.compute_cost(itype, 1, hours)
        assert cost == pytest.approx(
            math.ceil(hours - 1e-12) * itype.hourly_usd
        )
