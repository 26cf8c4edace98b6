"""Collective communication schedules over either network fabric.

These implement, at the transfer level, the communication patterns whose
closed-form time complexities live in :mod:`repro.core.communication`:

* :func:`linear_gather` — everyone sends to one sink (serialises there).
* :func:`tree_reduce` — binary combining tree, ``ceil(log2 n)`` rounds.
* :func:`binomial_broadcast` — the torrent-like pattern Spark uses: every
  node that already holds the payload serves one new node per round, so
  holders double each round.
* :func:`two_wave_aggregate` — Spark's ``treeAggregate`` with
  ``ceil(sqrt(n))`` first-wave groups (Figure 2 of the paper).
* :func:`ring_allreduce` — bandwidth-optimal MPI-style all-reduce.
* :func:`all_to_all_shuffle` — the Hadoop/Spark repartitioning pattern.

Each function takes node *ready times* (when the payload became available
on each node), issues the schedule one dependency round at a time through
the batch contract (:class:`~repro.simulate.network.Fabric`: one
``batch`` of transfer requests per round, outcomes back in request
order), and returns completion times.
The schedule is written once and runs over either fabric: the endpoint
:class:`~repro.simulate.network.Network` serialises a round's transfers
per NIC port in request order, the flow-level
:class:`~repro.net.flows.FlowNetwork` shares the links among them
max-min.  Within every round senders and receivers are disjoint, so a
round never depends on its own outcomes.
"""

from __future__ import annotations

import math
from collections.abc import Mapping, Sequence

from repro.core.errors import SimulationError
from repro.simulate.network import Fabric


def _validate_nodes(nodes: Sequence[int]) -> list[int]:
    node_list = list(nodes)
    if not node_list:
        raise SimulationError("a collective needs at least one node")
    if len(set(node_list)) != len(node_list):
        raise SimulationError(f"duplicate nodes in collective: {node_list}")
    return node_list


def _round(
    network: Fabric,
    pairs: Sequence[tuple[int, int]],
    bits: float,
    ready: Mapping[int, float],
    tag: str,
) -> list[float]:
    """Issue one round of ``(sender, receiver)`` transfers as one batch.

    Each transfer starts no earlier than its sender's ``ready`` time;
    returns the delivery times in ``pairs`` order.
    """
    # Plain ``Request`` tuples: the per-transfer hot path of every engine.
    requests = [(sender, receiver, bits, ready[sender], tag) for sender, receiver in pairs]
    return [outcome.end for outcome in network.batch(requests)]


def linear_gather(
    network: Fabric,
    ready: Mapping[int, float],
    sink: int,
    bits: float,
    tag: str = "gather",
) -> float:
    """All sources send their payload to ``sink``; returns the finish time.

    One round.  Sources are issued in ready-time order (earliest data
    first), which is both fair and the conservative discrete-event order:
    the endpoint network serialises them on the sink's downlink, the flow
    network shares the sink's ingress among them.
    """
    sources = sorted(_validate_nodes(list(ready)), key=lambda node: (ready[node], node))
    pairs = [(source, sink) for source in sources if source != sink]
    finish = max(ready[sink], 0.0) if sink in ready else 0.0
    return max([finish, *_round(network, pairs, bits, ready, tag)])


def tree_reduce(
    network: Fabric,
    ready: Mapping[int, float],
    bits: float,
    tag: str = "tree-reduce",
) -> tuple[int, float]:
    """Binary combining tree; returns ``(root, finish_time)``.

    Pairs at distance 1, 2, 4, ... combine, one round per distance; the
    partial aggregate always flows to the lower-indexed member, so the
    first node ends up with the result after ``ceil(log2 n)`` rounds.
    """
    nodes = sorted(_validate_nodes(list(ready)))
    current_ready = {node: ready[node] for node in nodes}
    distance = 1
    while distance < len(nodes):
        pairs = [
            (nodes[index + distance], nodes[index])
            for index in range(0, len(nodes) - distance, 2 * distance)
        ]
        ends = _round(network, pairs, bits, current_ready, tag)
        for (_sender, receiver), end in zip(pairs, ends):
            current_ready[receiver] = max(current_ready[receiver], end)
        distance *= 2
    root = nodes[0]
    return root, current_ready[root]


def binomial_broadcast(
    network: Fabric,
    root: int,
    root_ready: float,
    targets: Sequence[int],
    bits: float,
    tag: str = "broadcast",
) -> dict[int, float]:
    """Torrent-like broadcast: holders double each round.

    Returns the time each target (and the root) holds the full payload.
    This is the store-and-forward binomial tree — the schedule Spark's
    TorrentBroadcast approximates — and completes in ``ceil(log2 n)``
    rounds for ``n`` total participants.
    """
    if root_ready < 0:
        raise SimulationError(f"root_ready must be non-negative, got {root_ready}")
    target_list = _validate_nodes(list(targets))
    if root in target_list:
        raise SimulationError(f"root {root} must not appear among broadcast targets")
    holds_at = {root: root_ready}
    waiting = list(target_list)
    while waiting:
        # One round: every current holder serves one waiting node.  Holders
        # with earlier payload availability are matched first.
        holders = sorted(holds_at, key=lambda node: (holds_at[node], node))
        pairs = [(holder, waiting.pop(0)) for holder in holders[: len(waiting)]]
        ends = _round(network, pairs, bits, holds_at, tag)
        for (_holder, receiver), end in zip(pairs, ends):
            holds_at[receiver] = end
    return holds_at


def two_wave_aggregate(
    network: Fabric,
    ready: Mapping[int, float],
    driver: int,
    bits: float,
    tag: str = "two-wave",
) -> float:
    """Spark ``treeAggregate`` with two waves; returns the driver finish time.

    Workers are split into ``ceil(sqrt(n))`` groups.  Wave 1 (one round):
    members of each group send to the group leader — groups proceed in
    parallel, each leader's ingress is its own group's bottleneck.  Wave 2
    (one round): leaders send the partial aggregates to the driver, whose
    ingress they share.  Matches the paper's ``2 * (64W/B) * ceil(sqrt(n))``
    shape.
    """
    workers = sorted(_validate_nodes(list(ready)))
    if driver in workers:
        raise SimulationError(f"driver {driver} must not appear among the workers")
    group_count = max(1, math.ceil(math.sqrt(len(workers))))
    groups = [workers[start::group_count] for start in range(group_count)]
    groups = [group for group in groups if group]

    wave_one = [
        (member, group[0])
        for group in groups
        for member in sorted(group[1:], key=lambda node: (ready[node], node))
    ]
    leader_ready = {group[0]: ready[group[0]] for group in groups}
    for (_member, leader), end in zip(wave_one, _round(network, wave_one, bits, ready, tag)):
        leader_ready[leader] = max(leader_ready[leader], end)

    leaders = sorted(leader_ready, key=lambda node: (leader_ready[node], node))
    wave_two = [(leader, driver) for leader in leaders]
    return max([0.0, *_round(network, wave_two, bits, leader_ready, tag)])


def ring_allreduce(
    network: Fabric,
    ready: Mapping[int, float],
    bits: float,
    tag: str = "ring",
) -> dict[int, float]:
    """Ring all-reduce: reduce-scatter then all-gather, chunked payloads.

    Each of the ``2 * (n - 1)`` rounds moves one ``bits / n`` chunk from
    every node to its ring successor; a node forwards a chunk only after
    it has received (and combined) it in the previous round.  Returns the
    time each node holds the fully reduced payload.
    """
    nodes = sorted(_validate_nodes(list(ready)))
    count = len(nodes)
    current_ready = {node: ready[node] for node in nodes}
    if count == 1:
        return current_ready
    chunk = bits / count
    pairs = list(zip(nodes, nodes[1:] + nodes[:1]))
    for _step in range(2 * (count - 1)):
        ends = _round(network, pairs, chunk, current_ready, tag)
        for (_node, successor), end in zip(pairs, ends):
            current_ready[successor] = max(current_ready[successor], end)
    return current_ready


def all_to_all_shuffle(
    network: Fabric,
    ready: Mapping[int, float],
    total_bits: float,
    tag: str = "shuffle",
) -> dict[int, float]:
    """Shuffle ``total_bits`` evenly across all nodes; returns finish times.

    Every ordered pair exchanges ``total_bits / n^2``.  Rounds are perfect
    matchings (node ``i`` sends to ``i + offset``), so disjoint pairs
    proceed in parallel and each port is used once per round.
    """
    if total_bits < 0:
        raise SimulationError(f"total_bits must be non-negative, got {total_bits}")
    nodes = sorted(_validate_nodes(list(ready)))
    count = len(nodes)
    finish = {node: ready[node] for node in nodes}
    if count == 1:
        return finish
    pair_bits = total_bits / (count * count)
    for offset in range(1, count):
        pairs = list(zip(nodes, nodes[offset:] + nodes[:offset]))
        for (_node, receiver), end in zip(pairs, _round(network, pairs, pair_bits, ready, tag)):
            finish[receiver] = max(finish[receiver], end)
    return finish
