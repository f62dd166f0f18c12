"""StreamSpec / StreamCursor: lazy chunked generation (ISSUE 7).

The streaming engine's whole correctness story rests on two properties
pinned here: (a) the concatenation of a stream's segments is a fixed,
seed-deterministic instance (``materialize`` is the bit-identity anchor
for engine equivalence tests), and (b) a cursor restored from
``state_dict()`` emits exactly the segments the original would have --
the property checkpoints rely on to resume generation mid-stream.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.workloads.arrivals import (
    BurstyProcess,
    MarkovModulatedProcess,
    PeriodicProcess,
)
from repro.workloads.distributions import (
    BingDistribution,
    ExponentialDistribution,
)
from repro.workloads.generator import WorkloadSpec
from repro.workloads.stream import StreamCursor, StreamSpec


def make_spec(n_jobs: int = 500, **kw) -> WorkloadSpec:
    kw.setdefault("qps", 800.0)
    kw.setdefault("m", 4)
    kw.setdefault("target_chunks", 4)
    return WorkloadSpec(BingDistribution(), n_jobs=n_jobs, **kw)


# ----------------------------------------------------------------------
# Shape and bookkeeping
# ----------------------------------------------------------------------


class TestStreamShape:
    def test_chunk_count_rounds_up(self):
        stream = StreamSpec(make_spec(500), chunk_jobs=128)
        assert stream.n_jobs == 500
        assert stream.n_chunks == 4  # 128+128+128+116

    def test_exact_multiple_has_no_empty_tail(self):
        stream = StreamSpec(make_spec(256), chunk_jobs=128)
        segs = list(stream.segments(seed=7))
        assert [s.n_jobs for s in segs] == [128, 128]

    def test_segment_sizes_sum_to_n_jobs(self):
        stream = StreamSpec(make_spec(500), chunk_jobs=128)
        segs = list(stream.segments(seed=0))
        assert [s.n_jobs for s in segs] == [128, 128, 128, 116]

    def test_chunk_jobs_validation(self):
        with pytest.raises(ValueError, match="chunk_jobs"):
            StreamSpec(make_spec(), chunk_jobs=0)

    def test_workloadspec_stream_helper(self):
        spec = make_spec()
        stream = spec.stream(chunk_jobs=64)
        assert isinstance(stream, StreamSpec)
        assert stream.spec is spec
        assert stream.chunk_jobs == 64

    def test_spec_token_distinguishes_chunking(self):
        spec = make_spec()
        a = StreamSpec(spec, chunk_jobs=64).spec_token()
        b = StreamSpec(spec, chunk_jobs=128).spec_token()
        assert a != b
        assert spec.spec_token() in a

    def test_describe_mentions_chunking(self):
        stream = StreamSpec(make_spec(500), chunk_jobs=128)
        assert "stream" in stream.describe()
        assert "128" in stream.describe()


# ----------------------------------------------------------------------
# Determinism
# ----------------------------------------------------------------------


class TestDeterminism:
    def test_same_seed_same_segments(self):
        stream = StreamSpec(make_spec(300), chunk_jobs=100)
        for a, b in zip(stream.segments(seed=42), stream.segments(seed=42)):
            np.testing.assert_array_equal(a.node_works, b.node_works)
            np.testing.assert_array_equal(a.arrivals, b.arrivals)
            np.testing.assert_array_equal(a.edge_offsets, b.edge_offsets)
            np.testing.assert_array_equal(a.edge_targets, b.edge_targets)

    def test_different_seeds_differ(self):
        stream = StreamSpec(make_spec(300), chunk_jobs=300)
        a = stream.materialize(seed=1)
        b = stream.materialize(seed=2)
        assert not np.array_equal(a.node_works, b.node_works)

    def test_materialize_equals_concatenated_segments(self):
        stream = StreamSpec(make_spec(500), chunk_jobs=128)
        full = stream.materialize(seed=9)
        assert full.n_jobs == 500
        offset = 0
        for seg in stream.segments(seed=9):
            np.testing.assert_array_equal(
                full.arrivals[offset : offset + seg.n_jobs], seg.arrivals
            )
            offset += seg.n_jobs
        assert offset == 500

    def test_arrivals_sorted_within_and_across_segments(self):
        stream = StreamSpec(make_spec(500), chunk_jobs=64)
        prev_last = -np.inf
        for seg in stream.segments(seed=3):
            arr = seg.arrivals
            assert np.all(np.diff(arr) >= 0)
            assert arr[0] >= prev_last
            prev_last = arr[-1]

    def test_chunking_does_not_change_arrival_process(self):
        """Arrival continuation: chunk boundaries are invisible in times."""
        spec = make_spec(400)
        coarse = StreamSpec(spec, chunk_jobs=400).materialize(seed=11)
        fine = StreamSpec(spec, chunk_jobs=37).materialize(seed=11)
        # Work draws are chunk-seeded so they differ, but the arrival
        # *process* continues across chunks: both streams see the same
        # statistical flow.  Only the coarse==single-chunk case is
        # exactly the one-shot draw, so here we assert the documented
        # (weaker) invariants: sortedness and identical span order.
        assert np.all(np.diff(fine.arrivals) >= 0)
        assert fine.n_jobs == coarse.n_jobs == 400

    def test_seed_none_draws_recorded_entropy(self):
        stream = StreamSpec(make_spec(50), chunk_jobs=50)
        cur = stream.cursor(seed=None)
        assert isinstance(cur.seed, int)
        assert 0 <= cur.seed < (1 << 63)
        # The recorded seed reproduces the same segments.
        seg = cur.next_segment()
        twin = stream.cursor(seed=cur.seed).next_segment()
        np.testing.assert_array_equal(seg.node_works, twin.node_works)

    def test_generator_seed_rejected(self):
        stream = StreamSpec(make_spec(50))
        with pytest.raises(TypeError, match="plain ints"):
            stream.cursor(seed=np.random.default_rng(0))


# ----------------------------------------------------------------------
# Cursor resume (checkpoint substrate)
# ----------------------------------------------------------------------


class TestCursorResume:
    def test_state_roundtrip_mid_stream(self):
        stream = StreamSpec(make_spec(500), chunk_jobs=100)
        cur = stream.cursor(seed=13)
        cur.next_segment()
        cur.next_segment()
        state = cur.state_dict()

        restored = StreamCursor.restore(stream, state)
        assert restored.emitted == cur.emitted == 200
        assert restored.next_chunk == cur.next_chunk == 2
        for a, b in zip(
            iter(cur.next_segment, None), iter(restored.next_segment, None)
        ):
            np.testing.assert_array_equal(a.node_works, b.node_works)
            np.testing.assert_array_equal(a.arrivals, b.arrivals)
        assert cur.exhausted and restored.exhausted

    def test_state_is_json_serializable(self):
        import json

        stream = StreamSpec(make_spec(120), chunk_jobs=50)
        cur = stream.cursor(seed=5)
        cur.next_segment()
        round_tripped = json.loads(json.dumps(cur.state_dict()))
        restored = StreamCursor.restore(stream, round_tripped)
        a = cur.next_segment()
        b = restored.next_segment()
        np.testing.assert_array_equal(a.arrivals, b.arrivals)

    def test_exhausted_cursor_returns_none_forever(self):
        stream = StreamSpec(make_spec(60), chunk_jobs=60)
        cur = stream.cursor(seed=0)
        assert cur.next_segment() is not None
        assert cur.exhausted
        assert cur.next_segment() is None
        assert cur.next_segment() is None

    def test_last_arrival_tracks_segment_tail(self):
        stream = StreamSpec(make_spec(200), chunk_jobs=100)
        cur = stream.cursor(seed=8)
        seg = cur.next_segment()
        assert cur.last_arrival == float(seg.arrivals[-1])

    def test_works_with_explicit_arrival_process(self):
        spec = WorkloadSpec(
            ExponentialDistribution(mean_ms=2.0),
            qps=500.0,
            n_jobs=150,
            m=4,
            target_chunks=2,
        )
        stream = StreamSpec(spec, chunk_jobs=40)
        full = stream.materialize(seed=21)
        assert full.n_jobs == 150
        assert np.all(np.diff(full.arrivals) >= 0)


#: The processes that carry their own continuation state across chunks
#: (partial bursts, phase, modulation state).  The rates are near a
#: 0.2-jobs-per-unit spec's.
STATEFUL_PROCESSES = [
    BurstyProcess(0.2, batch=8),
    PeriodicProcess(5.0, jitter=2.0),
    MarkovModulatedProcess(0.1, 0.3, mean_sojourn=200.0),
]


@pytest.mark.parametrize(
    "process", STATEFUL_PROCESSES, ids=lambda p: type(p).__name__
)
def test_cursor_restore_mid_stream_continues_the_process(process):
    """A cursor saved with ``state_dict()`` and reloaded with ``restore``
    between chunks (here mid-burst: 37 is not a multiple of the batch)
    yields the remaining segments of the uninterrupted cursor."""
    import json

    stream = StreamSpec(make_spec(300, arrival_process=process), chunk_jobs=37)
    cur = stream.cursor(seed=19)
    for _ in range(3):
        cur.next_segment()
    state = json.loads(json.dumps(cur.state_dict()))
    restored = StreamCursor.restore(stream, state)
    tail = list(iter(cur.next_segment, None))
    assert len(tail) == 6
    for a, b in zip(tail, iter(restored.next_segment, None)):
        np.testing.assert_array_equal(a.arrivals, b.arrivals)
        np.testing.assert_array_equal(a.node_works, b.node_works)
    assert restored.exhausted


@pytest.mark.parametrize(
    "process", STATEFUL_PROCESSES, ids=lambda p: type(p).__name__
)
def test_chunk_boundaries_keep_the_process_shape(process):
    """Chunks of 37 cut bursts and periods; the concatenation still has
    whole bursts, one arrival per jittered period and sorted times."""
    stream = StreamSpec(make_spec(300, arrival_process=process), chunk_jobs=37)
    arrivals = stream.materialize(seed=4).arrivals
    assert np.all(np.diff(arrivals) >= 0)
    if isinstance(process, BurstyProcess):
        _, sizes = np.unique(arrivals, return_counts=True)
        assert np.all(sizes[:-1] == process.batch)
    if isinstance(process, PeriodicProcess):
        offset = arrivals - process.period * np.arange(len(arrivals))
        assert np.all((offset >= 0) & (offset < process.jitter))
