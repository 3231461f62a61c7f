"""Unit tests for the processor-sharing bandwidth model."""

import pytest

from repro.sched.engine import Simulator
from repro.sched.iomodel import IOConfiguration, IOMode, SharedBandwidth


class TestSharedBandwidth:
    def test_single_transfer_full_rate(self):
        sim = Simulator()
        bw = SharedBandwidth(sim, capacity_mbps=100.0)
        done = []
        bw.transfer(500.0, lambda: done.append(sim.now))
        sim.run()
        assert done == [pytest.approx(5.0)]

    def test_two_equal_transfers_share(self):
        sim = Simulator()
        bw = SharedBandwidth(sim, capacity_mbps=100.0)
        done = []
        bw.transfer(500.0, lambda: done.append(("a", sim.now)))
        bw.transfer(500.0, lambda: done.append(("b", sim.now)))
        sim.run()
        # both run at 50 MB/s -> finish together at t = 10
        assert done[0][1] == pytest.approx(10.0)
        assert done[1][1] == pytest.approx(10.0)

    def test_late_joiner_slows_first(self):
        sim = Simulator()
        bw = SharedBandwidth(sim, capacity_mbps=100.0)
        done = {}
        bw.transfer(500.0, lambda: done.__setitem__("a", sim.now))
        sim.schedule(2.5, lambda: bw.transfer(500.0, lambda: done.__setitem__("b", sim.now)))
        sim.run()
        # a: 250 MB at full rate, then shares; a finishes at 2.5 + 250/50 = 7.5
        assert done["a"] == pytest.approx(7.5)
        # b: shares until 7.5 (250 MB done), then full rate: 7.5 + 2.5 = 10
        assert done["b"] == pytest.approx(10.0)

    def test_conservation_of_volume(self):
        """Total transfer time equals volume / capacity when saturated."""
        sim = Simulator()
        bw = SharedBandwidth(sim, capacity_mbps=50.0)
        finish = []
        for _ in range(7):
            bw.transfer(100.0, lambda: finish.append(sim.now))
        sim.run()
        assert max(finish) == pytest.approx(700.0 / 50.0)

    def test_zero_size_completes_immediately(self):
        sim = Simulator()
        bw = SharedBandwidth(sim, capacity_mbps=10.0)
        done = []
        bw.transfer(0.0, lambda: done.append(sim.now))
        sim.run()
        assert done == [0.0]

    def test_validation(self):
        sim = Simulator()
        with pytest.raises(ValueError, match="capacity"):
            SharedBandwidth(sim, 0.0)
        bw = SharedBandwidth(sim, 10.0)
        with pytest.raises(ValueError, match="size"):
            bw.transfer(-1.0, lambda: None)

    def test_active_count_and_rate(self):
        sim = Simulator()
        bw = SharedBandwidth(sim, capacity_mbps=100.0)
        done = []
        bw.transfer(1000.0, lambda: done.append(sim.now))
        bw.transfer(1000.0, lambda: done.append(sim.now))
        assert bw.active_count == 2
        sim.run()
        # two streams share 100 MB/s: 50 MB/s each, 20 s for 1000 MB
        assert done == pytest.approx([20.0, 20.0])
        assert bw.active_count == 0


class TestIOConfiguration:
    def test_input_by_kind(self):
        io = IOConfiguration(pert_input_mb=10.0, pemodel_input_mb=20.0)
        assert io.input_mb("pert") == 10.0
        assert io.input_mb("pemodel") == 20.0
        assert io.input_mb("acoustic") == 0.0

    def test_output_pert_is_local(self):
        io = IOConfiguration(output_mb=11.0)
        assert io.output_mb_for("pert") == 0.0
        assert io.output_mb_for("pemodel") == 11.0

    def test_validation(self):
        with pytest.raises(ValueError, match="pert_input_mb"):
            IOConfiguration(pert_input_mb=-1.0)

    def test_modes(self):
        assert IOConfiguration(mode=IOMode.NFS).mode is IOMode.NFS
