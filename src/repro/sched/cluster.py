"""The paper's local cluster (Sec 5.2) and reference task times.

"Our local cluster is composed of 114 dual socket Opteron 250 (2.4GHz)
nodes ..., 3 dual socket Opteron 285 (dual core 2.6GHz) nodes ..., and a
dual socket Opteron 2380 (Shanghai ... quad core 2.5GHz) head node ...
The fileserver serves over 18TB of shared disk over NFS, using a 10Gbit/s
connection ... For the timings discussed below about 210 of the 240 cores
were available."
"""

from __future__ import annotations

from repro.sched.resources import ClusterModel, Node, NodeSpec


#: Cores usable for the campaign (the rest "were in use by other users").
MSEAS_AVAILABLE_CORES = 210
#: File-server bandwidth (10 Gbit/s link ~ 1250 MB/s).
MSEAS_NFS_BANDWIDTH_MBPS = 1250.0


def mseas_cluster() -> ClusterModel:
    """The MIT MSEAS-like local cluster, reduced to its available cores.

    The fast Opteron 285 replacement nodes are included first, then
    Opteron 250 nodes until ``MSEAS_AVAILABLE_CORES`` are spent.
    """
    nodes: list[Node] = []
    remaining = MSEAS_AVAILABLE_CORES
    # 3 dual-socket dual-core Opteron 285 nodes: 4 cores each, ~8% faster.
    for k in range(3):
        if remaining <= 0:
            break
        cores = min(4, remaining)
        nodes.append(
            Node(NodeSpec(name=f"opt285-{k}", cores=cores, speed_factor=1.08,
                          local_disk_mbps=250.0))
        )
        remaining -= cores
    # 114 dual-socket single-core Opteron 250 nodes: 2 cores each (ref speed).
    k = 0
    while remaining > 0 and k < 114:
        cores = min(2, remaining)
        nodes.append(
            Node(NodeSpec(name=f"opt250-{k}", cores=cores, speed_factor=1.0,
                          local_disk_mbps=250.0))
        )
        remaining -= cores
        k += 1
    return ClusterModel(
        nodes=nodes, nfs_bandwidth_mbps=MSEAS_NFS_BANDWIDTH_MBPS, name="mseas"
    )
