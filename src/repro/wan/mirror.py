"""A software-distribution mirror workload on the dynamic-sets FS.

The paper generalizes beyond its three queries: weak sets suit any
"loose collections of reference objects (e.g., encyclopedias or papers
in archival journals) that are stored across many organizations."  A
mirror network is the canonical 1990s example: a package tree whose
files live on volunteer servers, some of which are down at any moment.

The workload builds ``/pub/<category>/<package>/`` trees scattered over
mirror sites and exposes the two queries users actually run: list a
category (``weak_ls``) and find packages by predicate (``weak_find``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..dynsets.filesystem import FileSystem
from ..net.fabric import Network
from ..net.failures import FaultInjector, FaultPlan
from ..net.link import FixedLatency
from ..net.topology import wan_clusters
from ..sim.kernel import Kernel
from ..store.world import World

__all__ = ["MirrorWorkload", "build_mirror", "CATEGORIES"]

CATEGORIES = ["editors", "compilers", "games", "networking"]


@dataclass
class MirrorWorkload:
    kernel: Kernel
    net: Network
    world: World
    fs: FileSystem
    packages: list[str]              # package directory paths
    injector: Optional[FaultInjector] = None

    @property
    def client(self) -> str:
        return "client"


def build_mirror(seed: int = 0, *, n_sites: int = 4, site_size: int = 2,
                 packages_per_category: int = 3, files_per_package: int = 3,
                 fault_plan: Optional[FaultPlan] = None) -> MirrorWorkload:
    """Build the mirror network and its package tree."""
    kernel = Kernel(seed=seed)
    # 500 kB/s on every link: object transfers are charged on the wire.
    topo = wan_clusters([site_size] * n_sites,
                        intra_latency=FixedLatency(0.003),
                        inter_latency=FixedLatency(0.070),
                        intra_bandwidth=500_000.0,
                        inter_bandwidth=500_000.0)
    topo.add_node("client")
    topo.add_link("client", "n0.0", FixedLatency(0.003),
                  bandwidth=500_000.0)
    net = Network(kernel, topo)
    world = World(net)
    fs = FileSystem(world, root_node="n0.0")
    stream = kernel.stream("mirror.seed")

    def any_site_node() -> str:
        site = stream.zipf_index(n_sites, 0.7)
        return f"n{site}.{stream.randint(0, site_size - 1)}"

    fs.mkdir("/pub", node="n0.0")
    packages: list[str] = []
    for category in CATEGORIES:
        fs.mkdir(f"/pub/{category}", node=any_site_node())
        for p in range(packages_per_category):
            pkg = f"{category[:4]}-pkg{p}"
            pkg_path = f"/pub/{category}/{pkg}"
            pkg_node = any_site_node()
            fs.mkdir(pkg_path, node=pkg_node)
            packages.append(pkg_path)
            for f in range(files_per_package):
                size = stream.randint(10_000, 200_000)
                fs.create_file(
                    f"{pkg_path}/{pkg}-{f}.tar.gz",
                    content=f"tarball {pkg}/{f}",
                    home=any_site_node(),
                    size=size,
                )
            fs.create_file(f"{pkg_path}/README", content=f"{pkg} readme",
                           home=pkg_node, size=512)
    workload = MirrorWorkload(kernel=kernel, net=net, world=world, fs=fs,
                              packages=packages)
    if fault_plan is not None:
        workload.injector = FaultInjector(net, fault_plan)
        workload.injector.start()
    return workload
