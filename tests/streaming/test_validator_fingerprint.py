"""The fingerprint validator against the exact model.

:class:`PairSequenceValidator` checks reverse-pair completeness with an
order-independent 64-bit fingerprint instead of a directed-pair set.
These properties pin it to an exact scalar model of the adjacency-list
promise (per-pair checks plus :func:`find_unpaired_pair`): on valid
random streams and on mutated ones it must accept exactly when the model
does, whatever the chunking, column dtype or snapshot cut, and per-pair
violations must keep their ``pair #i`` positions.
"""

from __future__ import annotations

import re
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph.generators import gnm_random_graph
from repro.graph.graph import Graph
from repro.sketch.state import SketchState
from repro.util.hashing import _splitmix64, _to_int_key
from repro.streaming.stream import (
    AdjacencyListStream,
    PairSequenceValidator,
    StreamFormatError,
    find_unpaired_pair,
    validate_pair_sequence,
)

MUTATIONS = (
    "none",
    "drop",
    "swap",
    "one_direction",
    "reopen_duplicate",
    "within_duplicate",
    "self_loop",
    "odd",
)
CHUNKS = (1, 7, 1024)
DTYPES = ("uint64", "object", "mixed")


def model(pairs):
    """Exact scalar model: ``(kind, position)`` of the first violation, or None.

    ``kind`` is the phrase the validator's message carries; ``position``
    is the offending pair's index (``None`` for the end-of-stream check).
    """
    closed, current, neighbors = set(), None, set()
    for index, (src, dst) in enumerate(pairs):
        if src == dst:
            return "self loop", index
        if src != current:
            if src in closed:
                return "not contiguous", index
            if current is not None:
                closed.add(current)
            current, neighbors = src, set()
        if dst in neighbors:
            return "duplicate", index
        neighbors.add(dst)
    if find_unpaired_pair(pairs) is not None:
        return "reverse", None
    return None


@st.composite
def streams(draw, wide=False):
    """A valid adjacency-list stream, then one mutation of kind ``MUTATIONS``.

    Labels are distinct uint64 values (small or full-width).  ``wide``
    labels are Python ints ``r + k * 2**64`` with small residues ``r`` and
    ``k`` in {-1, 0, 1}, so distinct labels often agree mod 2^64, and the
    ``alias`` mutation adds ``(src, a)`` and ``(a ± 2**64, src)``: two pairs
    that are no reverses of each other although their labels agree mod 2^64.
    """
    n = draw(st.integers(2, 9))
    if wide:
        label = st.builds(lambda r, k: r + k * 2**64, st.integers(0, n), st.sampled_from((-1, 0, 1)))
    else:
        label = st.integers(0, draw(st.sampled_from((2 * n, 2**64 - 1))))
    labels = draw(st.lists(label, min_size=n + 1, max_size=n + 1, unique=True))
    fresh = labels.pop()
    candidates = [(u, v) for i, u in enumerate(labels) for v in labels[i + 1 :]]
    edges = draw(st.lists(st.sampled_from(candidates), unique=True, max_size=len(candidates)))
    stream = AdjacencyListStream(Graph(labels, edges), seed=draw(st.integers(0, 2**32)))
    pairs = list(stream.iter_pairs())
    kind = draw(st.sampled_from(MUTATIONS + ("alias",) * wide)) if pairs else "none"
    if kind == "none":
        return pairs, kind
    i = draw(st.integers(0, len(pairs) - 1))
    src, dst = pairs[i]
    if kind == "drop":
        del pairs[i]
    elif kind == "swap":
        pairs[i] = (dst, src)
    elif kind == "one_direction":
        adjacent = {d for s, d in pairs if s == src}
        strangers = [v for v in labels if v != src and v not in adjacent]
        other = draw(st.sampled_from(strangers + [fresh]))
        pairs.insert(i, (src, other))
    elif kind == "reopen_duplicate":
        pairs.append((src, dst))
    elif kind == "within_duplicate":  # anywhere later in the same list
        end = i + 1
        while end < len(pairs) and pairs[end][0] == src:
            end += 1
        pairs.insert(draw(st.integers(i + 1, end)), (src, dst))
    elif kind == "self_loop":
        pairs.insert(i, (src, src))
    elif kind == "odd":  # one extra list whose pair has no reverse
        pairs.append((fresh, src))
    else:  # alias: residue 10 * n is used by no label
        alias = 10 * n + draw(st.sampled_from((-1, 0, 1))) * 2**64
        pairs.insert(i, (src, alias))
        pairs.append((alias + draw(st.sampled_from((-1, 1))) * 2**64, src))
    return pairs, kind


def _columns(chunk, dtype):
    srcs, dsts = zip(*chunk)
    return np.array(srcs, dtype=dtype), np.array(dsts, dtype=dtype)


def _round_trip(validator):
    """A fresh validator restored from ``validator`` through the JSON codec."""
    state = SketchState("validator", 1, validator.state_dict())
    restored = PairSequenceValidator()
    restored.load_state_dict(SketchState.from_json(state.to_json()).payload)
    return restored


def feed_chunks(validator, pairs, chunk, dtype):
    """Feed ``pairs`` as ``feed_array`` chunks of ``chunk`` pairs.

    ``dtype="mixed"`` alternates ``uint64`` chunks with chunks fed pair by
    pair through the scalar hash, so a pair and its reverse are folded by
    different paths.
    """
    for k, i in enumerate(range(0, len(pairs), chunk)):
        if dtype == "mixed" and k % 2:
            for src, dst in pairs[i : i + chunk]:
                validator.feed_pair(src, dst)
            continue
        kind = "uint64" if dtype == "mixed" else dtype
        validator.feed_array(*_columns(pairs[i : i + chunk], np.dtype(kind)))
    return validator


def definition(pairs):
    """The fingerprint by its definition: sum of h(s, d) - h(d, s) mod 2^64,
    where ``h`` hashes the pair key and an int label outside [0, 2^64) is
    keyed by its decimal string under a type tag."""

    def label(v):
        return ("bigint", str(v)) if isinstance(v, int) and not 0 <= v < 2**64 else v

    h = lambda s, d: _splitmix64(_to_int_key((label(s), label(d))))  # noqa: E731
    return sum(h(s, d) - h(d, s) for s, d in pairs) % 2**64


def run_validator(pairs, chunk, dtype, cut):
    """Feed ``pairs`` in chunks, restore at pair ``cut``, finish.

    Returns the summary and fingerprint on acceptance, else the error
    message.
    """
    try:
        validator = _round_trip(feed_chunks(PairSequenceValidator(), pairs[:cut], chunk, dtype))
        feed_chunks(validator, pairs[cut:], chunk, dtype)
        fingerprint = validator.state_dict()["fingerprint"]
        return validator.finish(), fingerprint
    except StreamFormatError as exc:
        return str(exc)


def check_against_model(pairs, cut_fraction, dtypes):
    """``run_validator`` agrees with ``model`` for every chunking and dtype."""
    expected = model(pairs)
    cut = int(cut_fraction * len(pairs))
    for chunk in CHUNKS:
        for dtype in dtypes:
            outcome = run_validator(pairs, chunk, dtype, cut)
            if expected is None:
                assert not isinstance(outcome, str), (chunk, dtype, outcome)
                summary, fingerprint = outcome
                assert fingerprint == 0
                assert summary.pairs == len(pairs)
                assert summary.edges == len(pairs) // 2
                assert summary.lists == len({src for src, _ in pairs})
                lengths = Counter(src for src, _ in pairs).values()
                assert summary.max_list_length == max(lengths, default=0)
                continue
            kind, position = expected
            assert isinstance(outcome, str), (chunk, dtype, expected)
            assert kind in outcome, (chunk, dtype, outcome)
            if position is not None:
                assert re.search(rf"pair #{position}(?!\d)", outcome), (chunk, dtype, outcome)


@given(case=streams(), cut_fraction=st.floats(0, 1))
@settings(max_examples=150, deadline=None)
def test_fingerprint_accepts_exactly_when_the_model_does(case, cut_fraction):
    check_against_model(case[0], cut_fraction, DTYPES)


@given(case=streams(wide=True), cut_fraction=st.floats(0, 1))
@settings(max_examples=100, deadline=None)
def test_ints_equal_mod_2_64_are_distinct_labels(case, cut_fraction):
    """Labels outside [0, 2^64) (``dtype=object`` columns only) are told
    apart from the in-range labels they equal mod 2^64."""
    pairs, _ = case
    check_against_model(pairs, cut_fraction, ("object",))
    if model(pairs) in (None, ("reverse", None)):
        validator = PairSequenceValidator()
        validator.feed(pairs)
        assert validator.state_dict()["fingerprint"] == definition(pairs)


@given(case=streams())
@settings(max_examples=60, deadline=None)
def test_scalar_and_columnar_fingerprints_are_bit_identical(case):
    """Whatever the chunking, dtype or hash path, the fingerprint of the
    accepted pairs is the number its definition gives (lists mode: no
    fingerprint at all)."""
    pairs, _ = case
    if model(pairs) not in (None, ("reverse", None)):
        return
    seen = set()
    for chunk in CHUNKS:
        for dtype in DTYPES:
            strict = feed_chunks(PairSequenceValidator(), pairs, chunk, dtype)
            shard = feed_chunks(PairSequenceValidator(check_reverse=False), pairs, chunk, dtype)
            seen.add(strict.state_dict()["fingerprint"])
            assert shard.state_dict()["fingerprint"] == 0
    assert seen == {definition(pairs)}
    assert (definition(pairs) == 0 and len(pairs) % 2 == 0) == (model(pairs) is None)


def test_wide_labels_cancel_beside_columnar_pairs():
    """Pairs with labels that do not fit ``uint64`` fold through the
    scalar hash and still cancel their reverses, next to a pair whose
    reverse the columnar kernel folded."""
    validator = PairSequenceValidator()
    validator.feed([(0, 1), (0, -1), (0, 2**64)])
    validator.feed_array(np.array([1], dtype=np.uint64), np.array([0], dtype=np.uint64))
    validator.feed([(-1, 0), (2**64, 0)])
    assert validator.finish().pairs == 6


@given(case=streams())
@settings(max_examples=60, deadline=None)
def test_validate_pair_sequence_names_the_unpaired_edge(case):
    pairs, _ = case
    expected = model(pairs)
    if expected is None:
        assert validate_pair_sequence(pairs).pairs == len(pairs)
        return
    with pytest.raises(StreamFormatError) as err:
        validate_pair_sequence(pairs)
    if expected == ("reverse", None):
        src, dst = find_unpaired_pair(pairs)
        assert f"edge ({src!r}, {dst!r}) lacks its reverse pair" in str(err.value)


class TestExactOracle:
    def test_complete_stream_has_no_unpaired_pair(self):
        assert find_unpaired_pair([(0, 1), (1, 0), (1, 2), (2, 1)]) is None
        assert find_unpaired_pair([]) is None

    def test_names_the_first_unpaired_pair_in_stream_order(self):
        pairs = [(0, 1), (0, 2), (1, 0), (3, 0)]
        assert find_unpaired_pair(pairs) == (0, 2)
        assert find_unpaired_pair(iter(pairs)) == (0, 2)

    def test_ints_equal_mod_2_64_are_distinct_labels(self):
        """``(2**64 - 1, 5)`` is not the reverse of ``(5, -1)``."""
        pairs = [(5, -1), (2**64 - 1, 5)]
        with pytest.raises(StreamFormatError, match=r"edge \(5, -1\) lacks its reverse"):
            validate_pair_sequence(pairs)
        one_chunk = PairSequenceValidator()
        one_chunk.feed(pairs)
        pair_by_pair = PairSequenceValidator()
        for src, dst in pairs:
            pair_by_pair.feed_pair(src, dst)
        for validator in (one_chunk, pair_by_pair):
            with pytest.raises(StreamFormatError, match="reverse"):
                validator.finish()

    def test_string_labels(self):
        assert find_unpaired_pair([("a", "b"), ("b", "c"), ("b", "a")]) == ("b", "c")


class TestFingerprintState:
    def test_strict_state_is_o_lists(self):
        validator = PairSequenceValidator()
        validator.feed([(0, 1), (0, 2), (1, 0), (1, 2), (2, 0)])
        state = validator.state_dict()
        assert "directed_seen" not in state
        assert isinstance(state["fingerprint"], int) and state["fingerprint"] != 0
        assert state["seen_lists"] == {0, 1}
        assert state["current_neighbors"] == {0}

    def test_lists_mode_keeps_no_per_pair_state(self):
        validator = PairSequenceValidator(check_reverse=False)
        validator.feed([(0, 1), (0, 2), (1, 5)])
        assert validator.state_dict()["fingerprint"] == 0
        assert validator.finish().edges == 1

    def test_directed_pair_set_state_folds_into_the_fingerprint(self):
        """A state written with the old ``directed_seen`` set restores to
        the same fingerprint the pairs would have produced."""
        pairs = [(0, 1), (0, 2), ("x", 0)]
        fresh = PairSequenceValidator()
        fresh.feed(pairs)
        old = fresh.state_dict()
        del old["fingerprint"]
        old["directed_seen"] = set(pairs)
        restored = PairSequenceValidator()
        restored.load_state_dict(old)
        assert restored.state_dict()["fingerprint"] == fresh.state_dict()["fingerprint"]
        restored.feed([(1, 0), (2, 0)])
        with pytest.raises(StreamFormatError, match="reverse"):
            restored.finish()

    def test_odd_pair_count_is_rejected_even_at_fingerprint_zero(self):
        validator = PairSequenceValidator()
        validator.feed([(0, 1)])
        state = validator.state_dict()
        state["fingerprint"] = 0
        validator.load_state_dict(state)
        with pytest.raises(StreamFormatError, match="reverse"):
            validator.finish()

    def test_valid_uint64_chunks_never_replay_pair_by_pair(self, monkeypatch):
        """The columnar happy path takes every chunk of a valid stream,
        including chunks where one destination recurs across lists."""
        stream = AdjacencyListStream(gnm_random_graph(60, 600, seed=4), seed=5)
        srcs, dsts = _columns(list(stream.iter_pairs()), np.uint64)
        validator = PairSequenceValidator()

        def replay(pairs):
            raise AssertionError("feed_array fell back to the per-pair replay")

        monkeypatch.setattr(validator, "feed", replay)
        for i in range(0, len(srcs), 64):
            validator.feed_array(srcs[i : i + 64], dsts[i : i + 64])
        assert validator.finish().edges == 600

    def test_failed_chunk_keeps_its_valid_prefix_in_the_fingerprint(self):
        chunk = np.array([0, 0, 0], dtype=np.uint64), np.array([1, 2, 1], dtype=np.uint64)
        validator = PairSequenceValidator()
        with pytest.raises(StreamFormatError, match="pair #2"):
            validator.feed_array(*chunk)
        validator.feed([(1, 0), (2, 0)])
        assert validator.finish().pairs == 4
