"""Compute nodes and cluster models."""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class NodeSpec:
    """Static description of one node type.

    Parameters
    ----------
    name:
        Node (group) name.
    cores:
        Usable cores.
    speed_factor:
        Compute speed relative to the reference host (local Opteron 250 =
        1.0); a job's compute time on this node is
        ``cpu_seconds / speed_factor``.
    local_disk_mbps:
        Local-disk streaming rate for prestaged input reads.
    """

    name: str
    cores: int
    speed_factor: float = 1.0
    local_disk_mbps: float = 60.0

    def __post_init__(self):
        if self.cores < 1:
            raise ValueError("cores must be >= 1")
        if self.speed_factor <= 0:
            raise ValueError("speed_factor must be positive")
        if self.local_disk_mbps <= 0:
            raise ValueError("local_disk_mbps must be positive")


@dataclass
class Node:
    """Runtime core-occupancy state of one node."""

    spec: NodeSpec
    busy_cores: int = 0

    @property
    def free_cores(self) -> int:
        """Cores currently idle."""
        return self.spec.cores - self.busy_cores

    def acquire(self) -> None:
        """Claim one core on this node."""
        if self.free_cores < 1:
            raise RuntimeError(f"node {self.spec.name} oversubscribed")
        self.busy_cores += 1

    def release(self) -> None:
        """Release one core."""
        if self.busy_cores < 1:
            raise RuntimeError(f"node {self.spec.name} released too many cores")
        self.busy_cores -= 1


@dataclass
class ClusterModel:
    """A set of nodes plus the shared file-server bandwidth.

    Parameters
    ----------
    nodes:
        Node list (runtime state lives in each :class:`Node`).
    nfs_bandwidth_mbps:
        Aggregate NFS server bandwidth (10 Gbit/s ~ 1250 MB/s for the
        paper's cluster).
    name:
        Cluster label for reports.
    """

    nodes: list[Node]
    nfs_bandwidth_mbps: float = 1250.0
    name: str = "cluster"

    def __post_init__(self):
        if not self.nodes:
            raise ValueError("cluster needs at least one node")
        if self.nfs_bandwidth_mbps <= 0:
            raise ValueError("nfs bandwidth must be positive")

    @property
    def total_cores(self) -> int:
        """All cores across nodes."""
        return sum(n.spec.cores for n in self.nodes)

    def find_free_node(self) -> Node | None:
        """Fastest node with a free core (None if every core is busy)."""
        candidates = [n for n in self.nodes if n.free_cores >= 1]
        if not candidates:
            return None
        return max(candidates, key=lambda n: n.spec.speed_factor)
