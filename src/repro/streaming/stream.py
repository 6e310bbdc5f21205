"""Adjacency-list streams: the paper's input model.

A stream is a sequence of ordered pairs ``(x, y)``; for every edge
``{x, y}`` both ``xy`` and ``yx`` appear, and all pairs with the same first
vertex — that vertex's adjacency list — appear consecutively.  The order of
the lists and the order within each list are arbitrary (adversarial).

:class:`AdjacencyListStream` wraps a graph plus a concrete ordering and is
replayable: iterating it twice yields the identical sequence, which is the
"pass 2 has the same ordering as pass 1" requirement of the triangle
algorithm (Section 3.2).  :func:`validate_pair_sequence` checks an arbitrary
pair sequence against the model's promise; :class:`PairSequenceValidator`
checks a stream incrementally in O(lists) state.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Dict, Hashable, Iterable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.graph.graph import Graph, Vertex
from repro.util.hashing import _MASK64, _splitmix64, _to_int_key
from repro.util.rng import SeedLike, resolve_rng
from repro.util.vectorized import encode_pair_keys, splitmix64_array

Pair = Tuple[Vertex, Vertex]


class StreamFormatError(ValueError):
    """Raised when a pair sequence violates the adjacency-list promise."""


class AdjacencyListStream:
    """A replayable adjacency-list-order stream over a graph.

    Parameters
    ----------
    graph:
        The underlying undirected simple graph.
    list_order:
        The order in which adjacency lists appear; defaults to a uniformly
        random permutation of all vertices (seeded).  Vertices with empty
        adjacency lists are included (they emit no pairs).
    neighbor_orders:
        Optional per-vertex neighbour orderings; unspecified lists are
        shuffled with the stream's seed.
    seed:
        Randomness for the default orderings.
    """

    def __init__(
        self,
        graph: Graph,
        list_order: Optional[Sequence[Vertex]] = None,
        neighbor_orders: Optional[Dict[Vertex, Sequence[Vertex]]] = None,
        seed: SeedLike = None,
    ):
        self.graph = graph
        rng = resolve_rng(seed)
        if list_order is None:
            order = list(graph.vertices())
            rng.shuffle(order)
        else:
            order = list(list_order)
            if len(order) != graph.n or set(order) != set(graph.vertices()):
                raise ValueError("list_order must be a permutation of the vertices")
        self._order = order
        self._position = {v: i for i, v in enumerate(order)}
        self._lists: Dict[Vertex, Tuple[Vertex, ...]] = {}
        neighbor_orders = neighbor_orders or {}
        for v in order:
            if v in neighbor_orders:
                nbrs = list(neighbor_orders[v])
                if set(nbrs) != set(graph.neighbors(v)) or len(nbrs) != graph.degree(v):
                    raise ValueError(f"neighbour order for {v!r} does not match the graph")
            else:
                # neighbor_list is memoized on the graph, so per-trial stream
                # construction reuses the materialized tuples instead of
                # re-walking adjacency sets; the pre-shuffle order (and hence
                # the shuffled result) is bit-identical to list(neighbors(v)).
                nbrs = list(graph.neighbor_list(v))
                rng.shuffle(nbrs)
            self._lists[v] = tuple(nbrs)
        # vertex -> (neighbours tuple, uint64 column or None); see columns_for.
        self._column_cache: Dict[Vertex, Tuple] = {}

    # -- basic facts --------------------------------------------------------

    @property
    def n(self) -> int:
        """Number of vertices (adjacency lists) in the stream."""
        return self.graph.n

    @property
    def m(self) -> int:
        """Number of edges; the stream contains ``2m`` pairs."""
        return self.graph.m

    @property
    def list_order(self) -> List[Vertex]:
        """The vertices in the order their adjacency lists appear."""
        return list(self._order)

    def position(self, v: Vertex) -> int:
        """Return the index of ``v``'s adjacency list in the stream."""
        return self._position[v]

    def neighbors_in_order(self, v: Vertex) -> Tuple[Vertex, ...]:
        """Return ``v``'s adjacency list in stream order."""
        return self._lists[v]

    def columns_for(self, vertex: Vertex, neighbors: Sequence[Vertex]):
        """Columnar (uint64) view of ``vertex``'s adjacency list, memoised.

        The stream's lists are fixed tuples, so every pass replays the
        identical objects; converting each list to a vertex-id column once
        and reusing it across passes (and across the per-list hooks of a
        single pass) removes the dominant fixed cost of the counters'
        vectorized fast path.  Returns ``None`` for lists the columnar
        kernels cannot represent (non-int labels) — callers fall back to
        their scalar paths, exactly as with a direct conversion.

        The cache lives on the *stream*, which already owns the input
        data, so algorithm space accounting is untouched.  ``neighbors``
        is identity-checked against the cached entry: a caller replaying
        a different ordering of the same vertex misses and re-converts.
        """
        entry = self._column_cache.get(vertex)
        if entry is None or entry[0] is not neighbors:
            from repro.util.vectorized import as_vertex_array

            entry = (neighbors, as_vertex_array(neighbors))
            self._column_cache[vertex] = entry
        return entry[1]

    # -- iteration ------------------------------------------------------------

    def iter_lists(self) -> Iterator[Tuple[Vertex, Tuple[Vertex, ...]]]:
        """Yield ``(vertex, neighbours)`` for each adjacency list in order."""
        for v in self._order:
            yield v, self._lists[v]

    def iter_pairs(self) -> Iterator[Pair]:
        """Yield the raw ``(source, neighbour)`` pair sequence."""
        for v, nbrs in self.iter_lists():
            for u in nbrs:
                yield (v, u)

    def __iter__(self) -> Iterator[Pair]:
        return self.iter_pairs()

    def __len__(self) -> int:
        """Number of pairs in the stream (``2m``)."""
        return 2 * self.m

    def reordered(self, seed: SeedLike = None) -> "AdjacencyListStream":
        """Return a new stream over the same graph with fresh random orders.

        This is cheap: the default constructor path performs no validation
        and draws its lists from the graph's memoized neighbour tuples
        (:meth:`Graph.neighbor_list`), so only the shuffles are paid per
        trial.
        """
        return AdjacencyListStream(self.graph, seed=seed)

    @classmethod
    def from_pairs(cls, pairs: Sequence[Pair]) -> "AdjacencyListStream":
        """Reconstruct a stream (graph + ordering) from a raw pair sequence.

        The sequence is validated against the adjacency-list promise first.
        """
        validate_pair_sequence(pairs)
        graph = Graph()
        order: List[Vertex] = []
        lists: Dict[Vertex, List[Vertex]] = {}
        for src, dst in pairs:
            if src not in lists:
                order.append(src)
                lists[src] = []
            lists[src].append(dst)
            graph.add_edge(src, dst)
        return cls(graph, list_order=order, neighbor_orders=lists)


@dataclass(frozen=True)
class PairSequenceSummary:
    """What a validated pair sequence contained."""

    pairs: int  # total (source, neighbour) pairs, i.e. 2m
    lists: int  # adjacency lists, including the final (implicitly closed) one
    edges: int  # undirected edges, i.e. m (always pairs // 2)
    max_list_length: int = 0  # longest adjacency list, i.e. the max degree


def _pair_label(vertex: Vertex) -> Hashable:
    """``vertex`` as the fingerprint keys it.

    ``_to_int_key`` reduces ints mod 2^64, so ``-1`` and ``2**64 - 1``
    would hash alike and ``(5, -1)`` would cancel ``(2**64 - 1, 5)``.
    Ints outside ``[0, 2^64)`` therefore get a type-tagged key; ints in
    range keep the key the columnar kernels compute.
    """
    if isinstance(vertex, int) and not 0 <= vertex <= _MASK64:
        return ("bigint", str(vertex))
    return vertex


def _pair_hash(src: Vertex, dst: Vertex) -> int:
    """The fingerprint's 64-bit hash of the directed pair ``(src, dst)``."""
    return _splitmix64(_to_int_key((_pair_label(src), _pair_label(dst))))


def _pair_hashes(srcs: np.ndarray, dsts: np.ndarray) -> np.ndarray:
    """:func:`_pair_hash` over two ``uint64`` columns, forwards then reversed.

    Entry ``i < n`` is ``h(srcs[i], dsts[i])`` and entry ``n + i`` is
    ``h(dsts[i], srcs[i])``, bit-identical to the scalar hash: the
    :func:`encode_pair_keys` / :func:`splitmix64_array` kernels are its
    twins, and every ``uint64`` label is in range.
    """
    return splitmix64_array(
        encode_pair_keys(np.concatenate((srcs, dsts)), np.concatenate((dsts, srcs)))
    )


class PairSequenceValidator:
    """Incremental checker of the adjacency-list promise.

    The streaming service feeds chunks of pairs as they arrive; the batch
    entry point :func:`validate_pair_sequence` feeds everything at once.
    Both share this one implementation, so the server validates with
    exactly the rules (and error messages) of ``repro-cycles validate``:
    lists must be contiguous, each edge must appear exactly once per
    direction, self loops and within-list duplicates are forbidden.

    Per-pair violations raise :class:`StreamFormatError` from
    :meth:`feed` as soon as the offending pair arrives, with its absolute
    position in the overall sequence.  The reverse-pair completeness check
    can only run once the stream ends, so it lives in :meth:`finish`,
    which also closes the final list and returns the
    :class:`PairSequenceSummary`.  ``check_reverse=False`` skips that
    final check — required when validating one *shard slice* of a stream,
    whose reverse pairs legitimately live in other shards.

    The reverse check keeps no pair set.  Contiguity and within-list
    distinctness already make every directed pair occur at most once, so
    the stream is complete exactly when the pairs cancel in reverse
    couples: the validator folds ``h(s, d) − h(d, s) mod 2^64`` over every
    pair (``h`` = splitmix64 of the pair key) and :meth:`finish` accepts
    iff that fingerprint is 0 and the pair count is even.  A stream with
    an unpaired edge is falsely accepted with probability about 2^-64
    unless it was built against the fixed hash: the fingerprint is a
    checksum against faulty clients, not a defence against adversarial
    ones.
    :func:`find_unpaired_pair` is the exact (Θ(pairs)-memory) check;
    :func:`validate_pair_sequence`, which holds the pairs anyway, uses it
    and names the offending edge.

    State is exposed via :meth:`state_dict` / :meth:`load_state_dict` so a
    serve session snapshot can freeze validation mid-stream and resume it
    bit-exactly.  It is O(lists + longest list): the closed list heads,
    the open list's neighbours, the fingerprint and a few counters.
    """

    def __init__(self, check_reverse: bool = True):
        self.check_reverse = check_reverse
        self._seen_lists: set = set()
        self._current: Optional[Vertex] = None
        self._current_neighbors: set = set()
        self._fingerprint = 0
        self._max_list_length = 0
        self._pairs = 0
        self._finished = False

    # -- feeding -------------------------------------------------------------

    @property
    def pairs_seen(self) -> int:
        """Pairs accepted so far."""
        return self._pairs

    @property
    def current_list(self) -> Optional[Vertex]:
        """The source vertex of the currently open adjacency list."""
        return self._current

    def _accept(self, src: Vertex, dst: Vertex) -> None:
        """The per-pair checks and list bookkeeping (no fingerprint)."""
        if self._finished:
            raise StreamFormatError("validator already finished")
        index = self._pairs
        if src == dst:
            raise StreamFormatError(
                f"self loop {src!r} in stream (pair #{index}, "
                f"{len(self._seen_lists)} lists closed)"
            )
        if src != self._current:
            if src in self._seen_lists:
                raise StreamFormatError(
                    f"adjacency list of {src!r} is not contiguous: reopened at "
                    f"pair #{index} after {len(self._seen_lists)} closed lists"
                )
            if self._current is not None:
                self._seen_lists.add(self._current)
            self._current = src
            self._current_neighbors = set()
        if dst in self._current_neighbors:
            raise StreamFormatError(
                f"duplicate pair ({src!r}, {dst!r}) at pair #{index}: "
                f"{len(self._current_neighbors)} neighbours already seen in this list"
            )
        self._current_neighbors.add(dst)
        if len(self._current_neighbors) > self._max_list_length:
            self._max_list_length = len(self._current_neighbors)
        self._pairs = index + 1

    def _fold(self, src: Vertex, dst: Vertex) -> None:
        """Add one accepted pair to the fingerprint (strict mode only)."""
        if self.check_reverse:
            self._fingerprint = (
                self._fingerprint + _pair_hash(src, dst) - _pair_hash(dst, src)
            ) & _MASK64

    def feed_pair(self, src: Vertex, dst: Vertex) -> None:
        """Validate and account one pair; raises on a model violation."""
        self._accept(src, dst)
        self._fold(src, dst)

    def feed(self, pairs: Iterable[Pair]) -> None:
        """Validate a chunk of pairs (any chunking, including one at a time).

        On a violation the pairs before the offending one stay accepted.
        """
        for src, dst in pairs:
            self._accept(src, dst)
            self._fold(src, dst)

    def feed_array(self, srcs, dsts) -> None:
        """Validate a columnar chunk (two equal-length ``uint64`` arrays).

        The vectorized counterpart of :meth:`feed` for binary pair-batch
        frames.  The happy path runs whole-chunk checks — no self loops,
        list heads fresh and mutually distinct, no pair repeated within
        the chunk (one sort of the fingerprint's pair hashes), none of the
        first segment's neighbours shared with the continued open list —
        and then commits the chunk's bookkeeping in bulk, identical end
        state to the per-pair loop.  Only the heads and the open list's
        neighbours are materialised as Python objects.  Any other dtype,
        and *any* suspected violation, goes to :meth:`feed`, whose
        per-pair replay raises the canonical error with the canonical
        partial state, so a conservative (false-positive) suspicion only
        costs speed.
        """
        n = int(len(srcs))
        if n == 0:
            return
        if srcs.dtype != np.uint64 or self._finished or bool((srcs == dsts).any()):
            self.feed(zip(srcs.tolist(), dsts.tolist()))
            return
        cuts = np.flatnonzero(srcs[1:] != srcs[:-1]) + 1  # segment starts
        heads = np.concatenate((srcs[:1], srcs[cuts])).tolist()
        head_set = set(heads)
        continuing = heads[0] == self._current
        suspect = (
            len(head_set) != len(heads)
            or (not continuing and self._current in head_set)
            or not self._seen_lists.isdisjoint(head_set)
        )
        hashes = _pair_hashes(srcs, dsts)
        if not suspect and len(heads) < n:
            # Heads are distinct, so a within-list duplicate is a pair
            # repeated in the chunk: equal hashes after one sort.  Equal
            # hashes of distinct pairs only cost an exact replay.
            forward = np.sort(hashes[:n])
            suspect = bool((forward[1:] == forward[:-1]).any())
        bounds = [0, *cuts.tolist(), n]  # segment i is bounds[i]:bounds[i + 1]
        tail = set(dsts[bounds[-2] :].tolist())  # the list left open
        if not suspect and continuing:
            first = tail if len(heads) == 1 else dsts[: bounds[1]].tolist()
            suspect = not self._current_neighbors.isdisjoint(first)
        if suspect:
            self.feed(zip(srcs.tolist(), dsts.tolist()))
            return
        # Commit: identical end state to feeding the pairs one at a time.
        if self.check_reverse:
            self._fingerprint = (
                self._fingerprint + int(hashes[:n].sum()) - int(hashes[n:].sum())
            ) & _MASK64
        longest = max(map(operator.sub, bounds[1:], bounds))
        if continuing:
            longest = max(longest, bounds[1] + len(self._current_neighbors))
        elif self._current is not None:
            self._seen_lists.add(self._current)
        self._seen_lists.update(heads[:-1])
        if continuing and len(heads) == 1:
            self._current_neighbors |= tail
        else:
            self._current_neighbors = tail
        self._current = heads[-1]
        self._max_list_length = max(self._max_list_length, longest)
        self._pairs += n

    # -- summaries -----------------------------------------------------------

    def partial_summary(self) -> PairSequenceSummary:
        """What has streamed so far (the open list counted, reverse unchecked).

        ``edges`` is ``pairs // 2``, as in every summary: the number of
        undirected edges the pairs so far would form if every reverse
        arrives.
        """
        lists = len(self._seen_lists) + (1 if self._current is not None else 0)
        return PairSequenceSummary(
            pairs=self._pairs,
            lists=lists,
            edges=self._pairs // 2,
            max_list_length=self._max_list_length,
        )

    def finish(self) -> PairSequenceSummary:
        """Close the final list, run the end-of-stream checks, summarise.

        O(1): the reverse check compares the fingerprint with 0.
        Idempotent: calling again returns the same summary.  The final
        adjacency list — which no transition ever closes — is counted too.
        """
        if not self._finished:
            if self._current is not None:
                self._seen_lists.add(self._current)
                self._current = None
                self._current_neighbors = set()
            if self.check_reverse and (self._fingerprint or self._pairs % 2):
                raise StreamFormatError(
                    f"some edge lacks its reverse pair (reverse-pair "
                    f"fingerprint {self._fingerprint:#018x} over {self._pairs} "
                    f"pairs in {len(self._seen_lists)} lists)"
                )
            self._finished = True
        return self.partial_summary()

    # -- snapshot ------------------------------------------------------------

    def state_dict(self) -> dict:
        """JSON-safe-ish state (sets/tuples; sketch-state encodable)."""
        return {
            "check_reverse": self.check_reverse,
            "seen_lists": set(self._seen_lists),
            "current": self._current,
            "current_neighbors": set(self._current_neighbors),
            "fingerprint": self._fingerprint,
            "max_list_length": self._max_list_length,
            "pairs": self._pairs,
            "finished": self._finished,
        }

    def load_state_dict(self, state: dict) -> None:
        """Restore from :meth:`state_dict` output.

        A state written before the fingerprint existed carries the
        directed-pair set ``directed_seen`` instead; it is folded into the
        fingerprint here.
        """
        self.check_reverse = bool(state["check_reverse"])
        self._seen_lists = set(state["seen_lists"])
        self._current = state["current"]
        self._current_neighbors = set(state["current_neighbors"])
        if "directed_seen" in state:
            self._fingerprint = 0
            for src, dst in state["directed_seen"]:
                self._fold(src, dst)
        else:
            self._fingerprint = int(state["fingerprint"])
        self._max_list_length = int(state["max_list_length"])
        self._pairs = int(state["pairs"])
        self._finished = bool(state["finished"])


def find_unpaired_pair(pairs: Iterable[Pair]) -> Optional[Pair]:
    """The exact reverse-pair check: the first pair whose reverse is absent.

    Returns ``(x, y)`` such that ``(y, x)`` never occurs, or ``None`` when
    every pair has its reverse.  Holds the whole directed-pair set, so it
    is the offline oracle for :class:`PairSequenceValidator`'s fingerprint
    (used by :func:`validate_pair_sequence` to name the offending edge),
    never streaming state.
    """
    pairs = list(pairs)
    directed = set(pairs)
    for src, dst in pairs:
        if (dst, src) not in directed:
            return (src, dst)
    return None


def validate_pair_sequence(pairs: Sequence[Pair]) -> PairSequenceSummary:
    """Check a raw pair sequence against the adjacency-list model.

    One-shot wrapper over :class:`PairSequenceValidator` for the per-pair
    rules, then :func:`find_unpaired_pair` for the reverse check.  Raises
    :class:`StreamFormatError` if any of the model's promises fail; error
    messages carry positional context (pair index, lists closed so far)
    so an offending file can be located without bisection, and a missing
    reverse names the edge.  The reverse check is exact rather than the
    streaming fingerprint, since this caller holds the pairs anyway.
    Returns a :class:`PairSequenceSummary`.
    """
    validator = PairSequenceValidator(check_reverse=False)
    validator.feed(pairs)
    summary = validator.finish()
    unpaired = find_unpaired_pair(pairs)
    if unpaired is not None:
        src, dst = unpaired
        raise StreamFormatError(
            f"edge ({src!r}, {dst!r}) lacks its reverse pair "
            f"({summary.pairs} pairs in {summary.lists} lists)"
        )
    return summary
