"""ServeSession core tests: bit-identity, validation, budgets, snapshots.

The central contract: a session fed any chunking of a stream's pairs
produces estimates **bit-identical** to the batch runner over the same
stream — serving is an execution mode, not an approximation.
"""

import json

import numpy as np
import pytest

from repro.graph.generators import gnm_random_graph
from repro.graph.graph import Graph
from repro.graph.planted import planted_four_cycles, planted_triangles
from repro.serve.protocol import (
    BAD_REQUEST,
    BAD_STATE,
    BUDGET_EXCEEDED,
    SESSION_DONE,
    SPACE_BUDGET_EXCEEDED,
    STREAM_FORMAT,
    UNSUPPORTED,
    ServeError,
)
from repro.serve.session import ServeSession
from repro.sketch.state import SketchState, encode_value
from repro.streaming.registry import get as get_spec
from repro.streaming.runner import run_algorithm
from repro.streaming.stream import AdjacencyListStream


@pytest.fixture(scope="module")
def triangle_world():
    planted = planted_triangles(noise_edges=200, triangles=30, seed=7)
    stream = AdjacencyListStream(planted.graph, seed=11)
    return stream, list(stream.iter_pairs()), planted.true_count


#: Label maps the chunking test runs under.  Ints fit the uint64 columns;
#: strings and negative ints take the ``dtype=object`` columns.
LABEL_MAPS = {
    "int": None,
    "str": lambda v: f"v{v}",
    "negative": lambda v: -v - 1,
}


def _relabeled(stream, label_map):
    """``stream`` with every vertex renamed, in the same list and pair order."""
    if label_map is None:
        return stream
    lists = {label_map(v): [label_map(u) for u in nbrs] for v, nbrs in stream.iter_lists()}
    graph = Graph(lists, ((v, u) for v, nbrs in lists.items() for u in nbrs))
    return AdjacencyListStream(graph, list_order=list(lists), neighbor_orders=lists)


def _reference(stream, name="triangle-two-pass", budget=64, seed=5):
    return run_algorithm(get_spec(name).make(budget, seed=seed), stream).estimate


def _feed_stream(session, pairs, chunk, passes):
    final = None
    for _ in range(passes):
        for i in range(0, len(pairs), chunk):
            session.feed(pairs[i : i + chunk])
        final = session.finish_pass()
    return final


class TestBitIdentity:
    @pytest.mark.parametrize(
        "chunk,labels",
        [
            pytest.param(chunk, labels, id=str(chunk) if labels == "int" else f"{labels}-{chunk}")
            for labels in LABEL_MAPS
            for chunk in (1, 7, 64, 10_000)
        ],
    )
    def test_any_chunking_matches_batch_runner(self, triangle_world, chunk, labels):
        stream = _relabeled(triangle_world[0], LABEL_MAPS[labels])
        pairs = list(stream.iter_pairs())
        reference = _reference(stream)
        session = ServeSession.open("s", "triangle-two-pass", 64, seed=5)
        final = _feed_stream(session, pairs, chunk, 2)
        assert final["done"]
        assert final["estimate"] == reference

    def test_fourcycle_matches_batch_runner(self):
        planted = planted_four_cycles(noise_edges=150, cycles=20, seed=3)
        stream = AdjacencyListStream(planted.graph, seed=2)
        pairs = list(stream.iter_pairs())
        reference = _reference(stream, "fourcycle-two-pass", budget=64, seed=9)
        session = ServeSession.open("s", "fourcycle-two-pass", 64, seed=9)
        final = _feed_stream(session, pairs, 11, 2)
        assert final["estimate"] == reference

    def test_one_pass_algorithm(self, triangle_world):
        stream, pairs, _ = triangle_world
        reference = _reference(stream, "triangle-one-pass", budget=500, seed=3)
        session = ServeSession.open("s", "triangle-one-pass", 500, seed=3)
        final = _feed_stream(session, pairs, 17, 1)
        assert final["done"]
        assert final["estimate"] == reference


class TestWireParity:
    #: K4 fed as lists 0..3; the first chunk repeats (0, 1) mid-chunk.
    BAD_CHUNK = [(0, 1), (0, 2), (0, 1)]
    REST = [(0, 3), (1, 0), (1, 2), (1, 3), (2, 0), (2, 1), (2, 3), (3, 0), (3, 1), (3, 2)]

    @staticmethod
    def _feed(session, wire, pairs):
        if wire == "json":
            return session.feed(pairs)
        srcs, dsts = (np.array(col, dtype=np.uint64) for col in zip(*pairs))
        return session.feed_arrays(srcs, dsts)

    @pytest.mark.parametrize("wire", ["json", "binary"])
    def test_failed_chunk_ingests_exactly_its_valid_prefix(self, wire):
        clean = ServeSession.open("ref", "triangle-two-pass", 64, seed=5)
        full = self.BAD_CHUNK[:2] + self.REST
        reference = _feed_stream(clean, full, len(full), 2)["estimate"]

        session = ServeSession.open("s", "triangle-two-pass", 64, seed=5)
        with pytest.raises(ServeError) as err:
            self._feed(session, wire, self.BAD_CHUNK)
        assert err.value.code == STREAM_FORMAT
        state = session.snapshot_state().payload
        assert state["pairs_total"] == 2
        assert state["open_list"] == (0, (1, 2))
        assert state["validator"]["pairs"] == 2
        self._feed(session, wire, self.REST)
        assert session.finish_pass()["pairs"] == len(full)
        self._feed(session, wire, full)
        assert session.finish_pass()["estimate"] == reference


class TestValidation:
    def test_self_loop_rejected(self):
        session = ServeSession.open("s", "triangle-two-pass", 8, seed=0)
        with pytest.raises(ServeError) as err:
            session.feed([(1, 1)])
        assert err.value.code == STREAM_FORMAT
        assert "self loop" in err.value.message

    def test_non_contiguous_list_rejected(self):
        session = ServeSession.open("s", "triangle-two-pass", 8, seed=0)
        session.feed([(0, 1), (1, 0)])
        with pytest.raises(ServeError) as err:
            session.feed([(0, 2)])
        assert "not contiguous" in err.value.message

    def test_missing_reverse_caught_at_finish(self):
        session = ServeSession.open("s", "triangle-two-pass", 8, seed=0)
        session.feed([(0, 1), (0, 2), (1, 0)])  # fine mid-stream...
        with pytest.raises(ServeError) as err:
            session.finish_pass()  # ...but (2, 0) never arrived
        assert "reverse" in err.value.message

    def test_ints_equal_mod_2_64_are_distinct_vertices(self):
        """``-1`` and ``2**64 - 1`` are two labels: ``(2**64 - 1, 5)`` does
        not stand in for the reverse of ``(5, -1)``."""
        session = ServeSession.open("s", "triangle-two-pass", 8, seed=0)
        session.feed([(5, -1), (2**64 - 1, 5)])
        with pytest.raises(ServeError) as err:
            session.finish_pass()
        assert err.value.code == STREAM_FORMAT
        assert "reverse" in err.value.message

    def test_lists_mode_allows_shard_slices(self):
        session = ServeSession.open(
            "s", "triangle-two-pass-sharded", 8, seed=0, validate_mode="lists"
        )
        session.feed([(0, 1), (0, 2)])  # reverses live in another shard
        assert session.finish_pass()["pairs"] == 2

    def test_off_mode_skips_everything(self):
        session = ServeSession.open(
            "s", "triangle-two-pass", 8, seed=0, validate_mode="off"
        )
        session.feed([(1, 1)])  # would be rejected under strict
        session.finish_pass()

    def test_second_pass_length_must_match_first(self, triangle_world):
        _, pairs, _ = triangle_world
        session = ServeSession.open("s", "triangle-two-pass", 16, seed=0)
        session.feed(pairs)
        session.finish_pass()
        session.feed(pairs[: len(pairs) // 2])
        with pytest.raises(ServeError) as err:
            session.finish_pass()
        assert "replay identically" in err.value.message

    def test_feed_after_done_rejected(self, triangle_world):
        _, pairs, _ = triangle_world
        session = ServeSession.open("s", "triangle-two-pass", 16, seed=0)
        _feed_stream(session, pairs, 1000, 2)
        with pytest.raises(ServeError) as err:
            session.feed(pairs[:1])
        assert err.value.code == SESSION_DONE


class TestBudgets:
    def test_byte_budget(self):
        session = ServeSession.open(
            "s", "triangle-two-pass", 8, seed=0, byte_budget=100
        )
        session.account_bytes(60)
        with pytest.raises(ServeError) as err:
            session.account_bytes(41)
        assert err.value.code == BUDGET_EXCEEDED

    def test_space_budget(self, triangle_world):
        _, pairs, _ = triangle_world
        session = ServeSession.open(
            "s", "triangle-two-pass", 64, seed=5, space_budget_words=10
        )
        with pytest.raises(ServeError) as err:
            for i in range(0, len(pairs), 50):
                session.feed(pairs[i : i + 50])
        assert err.value.code == SPACE_BUDGET_EXCEEDED


class TestPoll:
    def test_anytime_estimate_and_verdict(self, triangle_world):
        stream, pairs, truth = triangle_world
        session = ServeSession.open("s", "triangle-two-pass", 64, seed=5)
        session.feed(pairs)
        out = session.poll(truth=truth, m=stream.m)
        assert out["anytime"] is True
        assert out["estimate"] is not None
        verdict = out["verdict"]
        assert verdict["theorem"] == "3.7"
        assert isinstance(verdict["ok"], bool)

    def test_poll_without_truth_has_no_verdict(self, triangle_world):
        _, pairs, _ = triangle_world
        session = ServeSession.open("s", "triangle-two-pass", 64, seed=5)
        session.feed(pairs[:10])
        assert "verdict" not in session.poll()

    def test_result_before_done_rejected(self):
        session = ServeSession.open("s", "triangle-two-pass", 8, seed=0)
        with pytest.raises(ServeError) as err:
            session.result()
        assert err.value.code == BAD_REQUEST


class TestSnapshotRestore:
    def test_restore_resumes_bit_exactly_mid_stream(self, triangle_world):
        stream, pairs, _ = triangle_world
        reference = _reference(stream)
        session = ServeSession.open("s", "triangle-two-pass", 64, seed=5)
        # Snapshot mid-list (cut at an odd offset), mid-first-pass.
        cut = len(pairs) // 2 + 1
        for i in range(0, cut, 13):
            session.feed(pairs[i : i + 13][: max(0, cut - i)])
        state = session.snapshot_state()
        # Wire round-trip: what a client would receive and send back.
        state = SketchState.from_json(state.to_json())
        resumed = ServeSession.restore_snapshot("s2", state)
        assert resumed.pairs_total == session.pairs_total
        resumed.feed(pairs[cut:])
        resumed.finish_pass()
        for i in range(0, len(pairs), 29):
            resumed.feed(pairs[i : i + 29])
        final = resumed.finish_pass()
        assert final["estimate"] == reference

    def test_restored_session_still_validates(self, triangle_world):
        _, pairs, _ = triangle_world
        session = ServeSession.open("s", "triangle-two-pass", 16, seed=0)
        session.feed(pairs[:20])
        resumed = ServeSession.restore_snapshot("s2", session.snapshot_state())
        already_closed = pairs[0][0]
        with pytest.raises(ServeError) as err:
            resumed.feed([(already_closed, pairs[1][1] + 10_000)])
        assert "not contiguous" in err.value.message

    def test_snapshot_unsupported_algorithm(self):
        session = ServeSession.open("s", "triangle-wedge", 8, seed=0)
        with pytest.raises(ServeError) as err:
            session.snapshot_state()
        assert err.value.code == UNSUPPORTED

    def test_malformed_state_rejected(self):
        state = SketchState("serve-session", 1, {"spec": "triangle-two-pass"})
        with pytest.raises(ServeError):
            ServeSession.restore_snapshot("s", state)

    @staticmethod
    def _as_version_1(state, fed_pairs):
        """``state`` as the directed-pair-set validator wrote it (version 1)."""
        payload = dict(state.payload)
        validator = dict(payload["validator"])
        del validator["fingerprint"]
        validator["directed_seen"] = set(fed_pairs)
        payload["validator"] = validator
        return SketchState(state.kind, 1, payload)

    def test_version_1_state_restores_bit_exactly(self, triangle_world):
        stream, pairs, _ = triangle_world
        reference = _reference(stream)
        session = ServeSession.open("s", "triangle-two-pass", 64, seed=5)
        cut = len(pairs) // 2 + 1
        session.feed(pairs[:cut])
        old = self._as_version_1(session.snapshot_state(), pairs[:cut])
        resumed = ServeSession.restore_snapshot("s2", SketchState.from_json(old.to_json()))
        assert resumed.snapshot_state().payload == session.snapshot_state().payload
        assert _feed_stream(resumed, pairs[cut:], 17, 1)["pass"] == 0
        final = _feed_stream(resumed, pairs, 23, 1)
        assert final["estimate"] == reference

    @pytest.mark.parametrize("rest,ok", [([(1, 0), (2, 0)], True), ([(1, 0)], False)])
    def test_version_1_state_still_checks_reverses(self, rest, ok):
        fed = [(0, 1), (0, 2)]
        session = ServeSession.open("s", "triangle-two-pass", 8, seed=0)
        session.feed(fed)
        old = self._as_version_1(session.snapshot_state(), fed)
        resumed = ServeSession.restore_snapshot("s2", SketchState.from_json(old.to_json()))
        resumed.feed(rest)
        if ok:
            assert resumed.finish_pass()["pairs"] == 4
            return
        with pytest.raises(ServeError) as err:
            resumed.finish_pass()
        assert err.value.code == STREAM_FORMAT
        assert "reverse" in err.value.message

    def test_unknown_version_is_bad_state(self):
        state = ServeSession.open("s", "triangle-two-pass", 8, seed=0).snapshot_state()
        with pytest.raises(ServeError) as err:
            ServeSession.restore_snapshot("s2", SketchState(state.kind, 99, state.payload))
        assert err.value.code == BAD_STATE


class TestValidatorSpace:
    """A strict session's durable state is its sketch plus O(lists) of
    validator bookkeeping — never a per-pair set (the paper's premise)."""

    N = 400

    @staticmethod
    def _half_fed(validate_mode, m):
        stream = AdjacencyListStream(gnm_random_graph(TestValidatorSpace.N, m, seed=1), seed=2)
        columns = np.array(list(stream.iter_pairs()), dtype=np.uint64)
        session = ServeSession.open(
            "s", "triangle-two-pass", 32, seed=3, validate_mode=validate_mode
        )
        half = len(columns) // 2
        for i in range(0, half, 256):
            chunk = columns[i : min(i + 256, half)]
            session.feed_arrays(chunk[:, 0].copy(), chunk[:, 1].copy())
        return session, half

    @staticmethod
    def _nbytes(value):
        return len(json.dumps(encode_value(value)))

    def test_strict_snapshot_is_sketch_plus_o_lists(self):
        sizes = {}
        for m in (2_000, 8_000):
            strict, fed = self._half_fed("strict", m)
            off, _ = self._half_fed("off", m)
            validator = strict.snapshot_state().payload["validator"]
            lists = len(validator["seen_lists"]) + 1
            bound = 16 * (lists + validator["max_list_length"]) + 512
            extra = self._nbytes(strict.snapshot_state().payload) - self._nbytes(
                off.snapshot_state().payload
            )
            assert self._nbytes(validator) <= bound, (m, fed)
            assert extra <= bound, (m, fed)
            sizes[m] = self._nbytes(validator)
        # Four times the pairs at the same n: a per-pair set would grow 4x.
        assert sizes[8_000] < 2 * sizes[2_000]

    def test_lists_mode_holds_no_per_pair_state(self):
        session, fed = self._half_fed("lists", 8_000)
        validator = session.snapshot_state().payload["validator"]
        assert set(validator) == {
            "check_reverse", "seen_lists", "current", "current_neighbors",
            "fingerprint", "max_list_length", "pairs", "finished",
        }
        assert validator["fingerprint"] == 0
        assert validator["pairs"] == fed
        assert len(validator["seen_lists"]) < self.N
        assert len(validator["current_neighbors"]) <= validator["max_list_length"]
