"""Communication protocol simulation over streaming algorithms.

Section 5.1's reduction template: the players partition the gadget graph's
vertices, each inserts the adjacency lists of its vertices, and the
algorithm's state crosses a player boundary as a message.  A ``p``-pass
streaming algorithm with space ``s`` therefore yields a protocol with
``O(p)`` rounds of ``O(s)``-size messages — so a communication lower bound
for the problem translates into a space lower bound for the algorithm.

This module runs that simulation for real: it feeds a streaming algorithm
the per-player list segments in order, records the state size (in words,
and in serialized bytes when the algorithm is picklable) at every boundary
crossing, and decodes the final estimate into the problem's 0/1 answer.
"""

from __future__ import annotations

import pickle
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.graph.graph import Graph, Vertex
from repro.streaming.algorithm import StreamingAlgorithm
from repro.streaming.runner import PassDriver
from repro.streaming.stream import AdjacencyListStream


@dataclass(frozen=True)
class Gadget:
    """A reduction's output: graph, player partition, and ground truth.

    Attributes
    ----------
    graph:
        The constructed gadget graph.
    cycle_length:
        The ℓ of the cycles being counted.
    promised_cycles:
        The ``T`` of the reduction: 1-instances embed at least this many
        ℓ-cycles, 0-instances embed none.
    answer:
        Ground truth of the embedded communication instance.
    player_lists:
        Ordered mapping player name → the vertices whose adjacency lists
        that player inserts, in insertion order.  Players partition the
        vertex set.
    """

    graph: Graph
    cycle_length: int
    promised_cycles: int
    answer: int
    player_lists: Tuple[Tuple[str, Tuple[Vertex, ...]], ...]

    @property
    def players(self) -> List[str]:
        """Player names in speaking order."""
        return [name for name, _ in self.player_lists]

    def list_order(self) -> List[Vertex]:
        """The gadget's full adjacency-list order (players concatenated)."""
        order: List[Vertex] = []
        for _, vertices in self.player_lists:
            order.extend(vertices)
        return order

    def stream(self, seed=None) -> AdjacencyListStream:
        """Build the adjacency-list stream the protocol replays each round."""
        return AdjacencyListStream(self.graph, list_order=self.list_order(), seed=seed)


@dataclass(frozen=True)
class Message:
    """One state handoff between players."""

    round_index: int
    sender: str
    receiver: str
    state_words: int
    state_bytes: Optional[int]


@dataclass(frozen=True)
class ProtocolResult:
    """Outcome of simulating a streaming algorithm as a protocol."""

    output: int
    estimate: float
    messages: Tuple[Message, ...]
    rounds: int

    @property
    def total_words(self) -> int:
        """Total communication in machine words."""
        return sum(msg.state_words for msg in self.messages)

    @property
    def max_message_words(self) -> int:
        """Largest single message in words."""
        return max((msg.state_words for msg in self.messages), default=0)

    @property
    def total_bytes(self) -> Optional[int]:
        """Total serialized communication, when measurable."""
        sizes = [msg.state_bytes for msg in self.messages]
        if any(s is None for s in sizes):
            return None
        return sum(sizes)


def _try_pickle_size(algorithm: StreamingAlgorithm) -> Optional[int]:
    try:
        return len(pickle.dumps(algorithm))
    except Exception:
        return None


def run_protocol(
    algorithm: StreamingAlgorithm,
    gadget: Gadget,
    decision_threshold: Optional[float] = None,
    stream_seed=None,
) -> ProtocolResult:
    """Simulate ``algorithm`` as a communication protocol over ``gadget``.

    Each of the algorithm's passes is one round: the players speak in
    order, each feeding its own adjacency lists, and the state crossing to
    the next player (or back to the first player for the next round) is
    recorded as a message.  The final estimate is decoded as answer 1 iff
    it exceeds ``decision_threshold`` (default: half the promised cycle
    count).
    """
    if decision_threshold is None:
        decision_threshold = gadget.promised_cycles / 2.0
    stream = gadget.stream(seed=stream_seed)
    lists_by_vertex = dict(stream.iter_lists())
    segments: List[Tuple[str, List[Vertex]]] = [
        (name, list(vertices)) for name, vertices in gadget.player_lists
    ]
    messages: List[Message] = []
    n_players = len(segments)
    driver = PassDriver(algorithm)
    for round_index in range(algorithm.n_passes):
        driver.begin_pass(round_index)
        for seg_idx, (player, vertices) in enumerate(segments):
            for vertex in vertices:
                driver.feed_list(vertex, lists_by_vertex[vertex])
            is_final_boundary = (
                round_index == algorithm.n_passes - 1 and seg_idx == n_players - 1
            )
            if not is_final_boundary:
                receiver = (
                    segments[(seg_idx + 1) % n_players][0]
                    if seg_idx + 1 < n_players
                    else segments[0][0]
                )
                messages.append(
                    Message(
                        round_index=round_index,
                        sender=player,
                        receiver=receiver,
                        state_words=algorithm.space_words(),
                        state_bytes=_try_pickle_size(algorithm),
                    )
                )
        driver.end_pass()
    estimate = algorithm.result()
    output = int(estimate > decision_threshold)
    return ProtocolResult(
        output=output,
        estimate=estimate,
        messages=tuple(messages),
        rounds=algorithm.n_passes,
    )


def partition_is_valid(gadget: Gadget) -> bool:
    """Check that the players partition the gadget's vertex set exactly."""
    seen: Dict[Vertex, str] = {}
    for player, vertices in gadget.player_lists:
        for v in vertices:
            if v in seen:
                return False
            seen[v] = player
    return set(seen) == set(gadget.graph.vertices())
