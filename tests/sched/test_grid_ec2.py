"""Tests for the TeraGrid site models (Table 1) and EC2 (Table 2, costs)."""

import numpy as np
import pytest

from repro.sched.ec2 import (
    EC2_INSTANCE_TYPES,
    EC2CostModel,
    EC2InstanceType,
    ec2_virtual_cluster,
)
from repro.sched.gridsites import TERAGRID_SITES, GridSite, run_site_benchmark


class TestTable1Calibration:
    """Reproduce Table 1: pert/pemodel time-to-completion per site."""

    @pytest.mark.parametrize(
        "site,pert,pemodel",
        [
            ("ORNL", 67.83, 1823.99),
            ("Purdue", 6.25, 1107.40),
            ("local", 6.21, 1531.33),
        ],
    )
    def test_site_times(self, site, pert, pemodel):
        result = run_site_benchmark(TERAGRID_SITES[site])
        assert result["pert"] == pytest.approx(pert, rel=1e-3)
        assert result["pemodel"] == pytest.approx(pemodel, rel=1e-3)

    def test_ornl_penalty_is_filesystem(self):
        """ORNL's slow pert is mostly an I/O penalty, not CPU speed."""
        ornl = TERAGRID_SITES["ORNL"]
        assert ornl.pert_io_penalty_s > 50.0

    def test_ordering_matches_paper(self):
        """Purdue beats local on pemodel; ORNL is slowest."""
        times = {k: run_site_benchmark(s)["pemodel"] for k, s in TERAGRID_SITES.items()}
        assert times["Purdue"] < times["local"] < times["ORNL"]

    def test_queue_wait_sampling(self):
        rng = np.random.default_rng(0)
        site = TERAGRID_SITES["ORNL"]
        waits = [site.sample_queue_wait(rng) for _ in range(2000)]
        assert np.mean(waits) == pytest.approx(site.queue_wait_mean_s, rel=0.1)
        assert TERAGRID_SITES["local"].sample_queue_wait(rng) == 0.0

    def test_site_cluster_respects_job_cap(self):
        site = GridSite(
            name="x", processor="p", speed_factor=1.0, cores=100, max_user_jobs=10
        )
        assert site.cluster().total_cores == 10

    def test_validation(self):
        with pytest.raises(ValueError):
            GridSite(name="x", processor="p", speed_factor=0.0)


class TestTable2Calibration:
    """Reproduce Table 2: EC2 instance pert/pemodel times."""

    @pytest.mark.parametrize(
        "name,pert,pemodel,cores",
        [
            ("m1.small", 13.53, 2850.14, 0.5),
            ("m1.large", 9.33, 1817.13, 2),
            ("m1.xlarge", 9.14, 1860.81, 4),
            ("c1.medium", 9.80, 1008.11, 2),
            ("c1.xlarge", 6.67, 1030.42, 8),
        ],
    )
    def test_catalogue(self, name, pert, pemodel, cores):
        itype = EC2_INSTANCE_TYPES[name]
        assert itype.pert_seconds == pert
        assert itype.pemodel_seconds == pemodel
        assert itype.effective_cores == cores

    def test_c1_instances_beat_local_on_compute(self):
        assert EC2_INSTANCE_TYPES["c1.xlarge"].speed_factor > 1.0
        assert EC2_INSTANCE_TYPES["m1.small"].speed_factor < 1.0

    def test_half_core_schedulable_as_one(self):
        assert EC2_INSTANCE_TYPES["m1.small"].schedulable_cores == 1

    def test_validation(self):
        with pytest.raises(ValueError):
            EC2InstanceType("x", "p", 0.0, 1.0, 1.0, 0.1)
        with pytest.raises(ValueError):
            EC2InstanceType("x", "p", 1.0, 1.0, 1.0, 0.0)


class TestCostModel:
    def test_paper_example_exact(self):
        """Sec 5.4.2: 1.5 GB in + 960 x 11 MB out + 2 h x 20 x $0.8 = $33.95."""
        assert EC2CostModel().paper_example() == pytest.approx(33.95, abs=0.01)

    def test_reserved_discount(self):
        cm = EC2CostModel()
        on_demand = cm.paper_example()
        reserved = cm.paper_example(reserved=True)
        # compute share drops by >3x; transfers unchanged
        assert reserved < on_demand
        compute_od = 2 * 20 * 0.8
        compute_res = on_demand - reserved
        assert compute_res > compute_od * (1 - 1 / 3.0)

    def test_hour_rounding_like_cellphone(self):
        """1 h 1 s bills as 2 hours."""
        cm = EC2CostModel()
        itype = EC2_INSTANCE_TYPES["m1.small"]
        one = cm.compute_cost(itype, 1, 1.0)
        just_over = cm.compute_cost(itype, 1, 1.0 + 1.0 / 3600.0)
        assert just_over == pytest.approx(2 * one)

    def test_transfer_cost(self):
        cm = EC2CostModel()
        assert cm.transfer_cost(1.5, 10.56) == pytest.approx(
            1.5 * 0.10 + 10.56 * 0.17
        )

    def test_validation(self):
        cm = EC2CostModel()
        itype = EC2_INSTANCE_TYPES["m1.small"]
        with pytest.raises(ValueError):
            cm.compute_cost(itype, 0, 1.0)
        with pytest.raises(ValueError):
            cm.compute_cost(itype, 1, 0.0)
        with pytest.raises(ValueError):
            cm.transfer_cost(-1.0, 0.0)


class TestVirtualCluster:
    def test_shape(self):
        cluster = ec2_virtual_cluster("c1.xlarge", 20)
        assert cluster.total_cores == 160  # the paper's 20-instance cap
        assert cluster.name == "ec2-c1.xlarge"

    def test_m1_small_gets_one_slow_core(self):
        cluster = ec2_virtual_cluster("m1.small", 2)
        assert cluster.total_cores == 2
        assert cluster.nodes[0].spec.speed_factor < 0.6

    def test_unknown_type(self):
        with pytest.raises(KeyError, match="unknown instance"):
            ec2_virtual_cluster("m7.turbo", 1)

    def test_validation(self):
        with pytest.raises(ValueError):
            ec2_virtual_cluster("m1.small", 0)
