"""Amazon EC2 instance catalogue, cost model and virtual clusters.

Paper Table 2 measures pert/pemodel on 2009-era EC2 instance types with
every instance fully packed ("8 copies of pert/pemodel were run
concurrently on a c1.xlarge", worst-of-batch reported), and Sec 5.4.2
prices an ESSE campaign: "1.5(GB) x 0.1 + 10.56(GB) x 0.17 + 2(hr) * 20 *
0.8 = $33.95", with reserved instances dropping CPU pricing "by more than
a factor of 3", and hour-granular billing ("usage of 1 hour 1 sec counts
as 2 hours").
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.core.taskmodel import REFERENCE_PEMODEL_SECONDS
from repro.sched.resources import ClusterModel, Node, NodeSpec


@dataclass(frozen=True)
class EC2InstanceType:
    """One 2009 EC2 instance type, calibrated to Table 2.

    Parameters
    ----------
    name, processor:
        Table 2 identification columns.
    effective_cores:
        Usable cores; 0.5 for m1.small ("limited to a maximum of 50% cpu
        utilization, hence appearing as a half-core").
    pert_seconds / pemodel_seconds:
        Measured worst-of-batch time to completion under full packing.
    hourly_usd:
        2009 on-demand price per instance-hour.
    """

    name: str
    processor: str
    effective_cores: float
    pert_seconds: float
    pemodel_seconds: float
    hourly_usd: float

    def __post_init__(self):
        if self.effective_cores <= 0:
            raise ValueError("effective_cores must be positive")
        if self.pert_seconds <= 0 or self.pemodel_seconds <= 0:
            raise ValueError("task times must be positive")
        if self.hourly_usd <= 0:
            raise ValueError("hourly price must be positive")

    @property
    def speed_factor(self) -> float:
        """Per-core compute speed relative to the local Opteron 250."""
        return REFERENCE_PEMODEL_SECONDS / self.pemodel_seconds

    @property
    def schedulable_cores(self) -> int:
        """Whole cores a scheduler can use (>= 1)."""
        return max(int(self.effective_cores), 1)


#: Table 2, plus the 2009 on-demand price book.
EC2_INSTANCE_TYPES: dict[str, EC2InstanceType] = {
    "m1.small": EC2InstanceType(
        "m1.small", "Opt DC 2.6GHz", 0.5, 13.53, 2850.14, 0.10
    ),
    "m1.large": EC2InstanceType(
        "m1.large", "Opt DC 2.0GHz", 2.0, 9.33, 1817.13, 0.40
    ),
    "m1.xlarge": EC2InstanceType(
        "m1.xlarge", "Opt DC 2.0GHz", 4.0, 9.14, 1860.81, 0.80
    ),
    "c1.medium": EC2InstanceType(
        "c1.medium", "Core2 2.33GHz", 2.0, 9.80, 1008.11, 0.20
    ),
    "c1.xlarge": EC2InstanceType(
        "c1.xlarge", "Core2 2.33GHz", 8.0, 6.67, 1030.42, 0.80
    ),
}


#: 2009 EC2 data-movement prices (USD per GB in and out).
TRANSFER_IN_USD_PER_GB = 0.10
TRANSFER_OUT_USD_PER_GB = 0.17
#: Reserved-instance CPU price cut: "more than a factor of 3".
RESERVED_DISCOUNT_FACTOR = 3.2


class EC2CostModel:
    """Dollar cost of an ESSE campaign on EC2 (Sec 5.4.2)."""

    def compute_cost(
        self,
        instance: EC2InstanceType,
        n_instances: int,
        wall_hours: float,
        reserved: bool = False,
    ) -> float:
        """Instance-hours cost with EC2's cell-phone-style hour rounding."""
        if n_instances < 1:
            raise ValueError("n_instances must be >= 1")
        if wall_hours <= 0:
            raise ValueError("wall_hours must be positive")
        billed_hours = math.ceil(wall_hours - 1e-12)
        rate = instance.hourly_usd
        if reserved:
            rate /= RESERVED_DISCOUNT_FACTOR
        return billed_hours * n_instances * rate

    def transfer_cost(self, in_gb: float, out_gb: float) -> float:
        """Data-movement cost in and out of EC2."""
        if in_gb < 0 or out_gb < 0:
            raise ValueError("transfer volumes must be >= 0")
        return (
            in_gb * TRANSFER_IN_USD_PER_GB
            + out_gb * TRANSFER_OUT_USD_PER_GB
        )

    def campaign_cost(
        self,
        instance: EC2InstanceType,
        n_instances: int,
        wall_hours: float,
        input_gb: float,
        output_gb: float,
        reserved: bool = False,
    ) -> float:
        """Total campaign cost: compute + data movement."""
        return self.compute_cost(
            instance, n_instances, wall_hours, reserved=reserved
        ) + self.transfer_cost(input_gb, output_gb)

    def paper_example(self, reserved: bool = False) -> float:
        """The Sec 5.4.2 example: 1.5 GB in, 960 members x 11 MB out,
        20 instances at $0.80 for 2 hours -> $33.95 on demand."""
        output_gb = 960 * 11.0 / 1000.0  # the paper uses decimal GB
        instance = EC2_INSTANCE_TYPES["c1.xlarge"]
        return self.campaign_cost(
            instance,
            n_instances=20,
            wall_hours=2.0,
            input_gb=1.5,
            output_gb=output_gb,
            reserved=reserved,
        )


#: Intra-EC2 shared-filesystem bandwidth: Gigabit Ethernet, ~125 MB/s.
EC2_NFS_BANDWIDTH_MBPS = 125.0


def ec2_virtual_cluster(instance_name: str, n_instances: int) -> ClusterModel:
    """A virtual EC2 cluster as a :class:`ClusterModel`.

    The intra-EC2 shared filesystem runs over Gigabit Ethernet
    (``EC2_NFS_BANDWIDTH_MBPS``) -- "the Gigabit Ethernet connectivity used throughout
    Amazon EC2 ... mean[s] that parallel performance of the filesystem is
    not up to par" (Sec 5.4.3).
    """
    if n_instances < 1:
        raise ValueError("n_instances must be >= 1")
    try:
        itype = EC2_INSTANCE_TYPES[instance_name]
    except KeyError:
        raise KeyError(
            f"unknown instance type {instance_name!r}; "
            f"have {sorted(EC2_INSTANCE_TYPES)}"
        ) from None
    nodes = [
        Node(
            NodeSpec(
                name=f"{instance_name}-{k}",
                cores=itype.schedulable_cores,
                speed_factor=itype.speed_factor,
                local_disk_mbps=40.0,  # virtualized disk penalty
            )
        )
        for k in range(n_instances)
    ]
    return ClusterModel(
        nodes=nodes,
        nfs_bandwidth_mbps=EC2_NFS_BANDWIDTH_MBPS,
        name=f"ec2-{instance_name}",
    )
