"""Discrete-event simulation of the paper's execution infrastructure.

The paper's evaluation (Sec 5, Tables 1-2) is about queueing, scheduling
and I/O phenomena on hardware we do not have: a 240-core Opteron cluster
under SGE and Condor with an NFS file server, TeraGrid sites, and Amazon
EC2 instance types with 2009 pricing.  This package simulates those
substrates with a processor-sharing I/O model and pluggable scheduler
policies, *calibrated* to the paper's measured single-task times; the
composite results (600-member campaign makespans, CPU utilizations,
SGE-vs-Condor gaps, dollar costs) are then emergent.

- :mod:`~repro.sched.engine` -- the event queue,
- :mod:`~repro.sched.iomodel` -- shared-bandwidth (NFS) and local-disk I/O,
- :mod:`~repro.sched.resources` -- nodes and clusters,
- :mod:`~repro.sched.jobs` -- pert/pemodel/acoustic job specs,
- :mod:`~repro.sched.schedulers` -- SGE-like and Condor-like policies,
- :mod:`~repro.sched.cluster` -- the paper's local cluster,
- :mod:`~repro.sched.campaign` -- ESSE/acoustic campaign builders + stats,
- :mod:`~repro.sched.gridsites` -- Table 1 TeraGrid platforms,
- :mod:`~repro.sched.ec2` -- Table 2 EC2 instances and the cost model,
- :mod:`~repro.sched.transfer` -- Sec 5.3.2 output-return strategies.
"""

from repro.sched.engine import Simulator
from repro.sched.iomodel import SharedBandwidth, IOConfiguration, IOMode
from repro.sched.resources import NodeSpec, Node, ClusterModel
from repro.sched.jobs import JobSpec, Job, JobState
from repro.sched.schedulers import ClusterScheduler, CondorPolicy, SGEPolicy
from repro.sched.cluster import mseas_cluster, reference_task_times
from repro.sched.campaign import EnsembleCampaign, CampaignStats
from repro.sched.gridsites import GridSite, TERAGRID_SITES, run_site_benchmark
from repro.sched.transfer import (
    OutputReturnPlan,
    TransferReport,
    WANModel,
    simulate_output_return,
)
from repro.sched.ec2 import (
    EC2InstanceType,
    EC2_INSTANCE_TYPES,
    EC2PriceBook,
    EC2CostModel,
    ec2_virtual_cluster,
)

__all__ = [
    "Simulator",
    "SharedBandwidth",
    "IOConfiguration",
    "IOMode",
    "NodeSpec",
    "Node",
    "ClusterModel",
    "JobSpec",
    "Job",
    "JobState",
    "SGEPolicy",
    "CondorPolicy",
    "ClusterScheduler",
    "mseas_cluster",
    "reference_task_times",
    "EnsembleCampaign",
    "CampaignStats",
    "GridSite",
    "TERAGRID_SITES",
    "run_site_benchmark",
    "OutputReturnPlan",
    "TransferReport",
    "WANModel",
    "simulate_output_return",
    "EC2InstanceType",
    "EC2_INSTANCE_TYPES",
    "EC2PriceBook",
    "EC2CostModel",
    "ec2_virtual_cluster",
]
