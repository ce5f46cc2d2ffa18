"""Shared fixtures for weak-set tests: standard worlds and drivers."""

from __future__ import annotations

from typing import Optional

from repro.net import FixedLatency, Network, full_mesh
from repro.sim import Kernel
from repro.store import World
from repro.weaksets import install_lock_service

CLIENT = "client"
PRIMARY = "s0"


def standard_world(n_servers: int = 4, policy: str = "any", seed: int = 0,
                   latency: float = 0.01, members: int = 0,
                   replicas: int = 0, with_locks: bool = False,
                   replica_lag: float = 0.5, coll_id: str = "coll",
                   bandwidth: float = 0.0, **world_kwargs):
    """A client plus ``n_servers`` object servers in a full mesh.

    Members are spread round-robin over the servers.  ``bandwidth``
    (bytes/s, 0 = free) is set on every link.  Returns
    (kernel, net, world, elements) where elements is the seeded list.
    """
    nodes = [CLIENT] + [f"s{i}" for i in range(n_servers)]
    kernel = Kernel(seed=seed)
    net = Network(kernel, full_mesh(nodes, FixedLatency(latency),
                                    bandwidth=bandwidth))
    world = World(net, replica_lag=replica_lag, **world_kwargs)
    replica_nodes = [f"s{i}" for i in range(1, 1 + replicas)]
    world.create_collection(coll_id, primary=PRIMARY, replicas=replica_nodes,
                            policy=policy)
    elements = []
    for i in range(members):
        home = f"s{i % n_servers}"
        elements.append(world.seed_member(coll_id, f"m{i:03d}", value=f"v{i}", home=home))
    if with_locks:
        install_lock_service(world, PRIMARY)
    return kernel, net, world, elements


def sharded_world(n_shards: int = 3, mirrors: int = 0, policy: str = "any",
                  seed: int = 0, latency: float = 0.01, members: int = 0,
                  replica_lag: float = 0.5, coll_id: str = "coll",
                  spare: int = 1, **world_kwargs):
    """A client, ``n_shards`` shard servers, ``mirrors`` mirror nodes,
    and ``spare`` idle servers (rebalance targets) in a full mesh.

    Shards are ``s0..``, mirrors ``m0..``, spares ``x0..``.  Members are
    seeded with homes round-robin over the shard servers; their registry
    row lands wherever the ring says.  Returns (kernel, net, world,
    elements).
    """
    shard_nodes = tuple(f"s{i}" for i in range(n_shards))
    mirror_nodes = tuple(f"m{i}" for i in range(mirrors))
    spare_nodes = tuple(f"x{i}" for i in range(spare))
    nodes = [CLIENT, *shard_nodes, *mirror_nodes, *spare_nodes]
    kernel = Kernel(seed=seed)
    net = Network(kernel, full_mesh(nodes, FixedLatency(latency)))
    world = World(net, replica_lag=replica_lag, **world_kwargs)
    world.create_collection(coll_id, replicas=mirror_nodes, policy=policy,
                            shards=shard_nodes)
    elements = []
    for i in range(members):
        home = f"s{i % n_shards}"
        elements.append(world.seed_member(coll_id, f"m{i:03d}",
                                          value=f"v{i}", home=home))
    return kernel, net, world, elements


def drain_all(kernel, weakset, max_yields: Optional[int] = None):
    """Run one full iteration of ``weakset`` and return its DrainResult."""
    iterator = weakset.elements()

    def proc():
        return (yield from iterator.drain(max_yields=max_yields))

    return kernel.run_process(proc())


def spy_sends(net) -> list:
    """Record every message handed to ``net.transport.send`` from now on.

    Messages dropped at send time are recorded too, so the list says
    what went toward each node: ``sum(m.dst.node == "b" for m in sent)``.
    """
    sent: list = []
    send = net.transport.send

    def spy(msg):
        sent.append(msg)
        return send(msg)

    net.transport.send = spy
    return sent
