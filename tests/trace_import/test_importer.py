"""Unit tests for the MPI trace importer and the program store.

Parsing (both wire formats), validation and its error taxonomy
(structure, conservation counting, deadlock discovery), canonical
round-tripping, and the content-addressed :class:`ProgramStore`.
"""

import json
import pickle

import pytest

from repro.pevpm import ANY_SOURCE, HockneyTiming, VirtualMachine, predict
from repro.registry.store import NotOwner, RegistryError, UnknownRef
from repro.trace_import import (
    ProgramStore,
    TraceDeadlock,
    TraceError,
    TraceProgram,
    parse_jsonl,
    parse_otf2_text,
    parse_trace,
    sample_trace,
)

RING = sample_trace(nprocs=4)


def jsonl_of(program):
    return program.to_jsonl()


class TestParsing:
    def test_sample_trace_is_valid_and_stable(self):
        again = sample_trace(nprocs=4)
        assert again.fingerprint == RING.fingerprint
        assert again.nprocs == 4
        assert again.messages > 0

    def test_jsonl_round_trip_preserves_fingerprint(self):
        again = parse_jsonl(jsonl_of(RING))
        assert again.fingerprint == RING.fingerprint
        assert again.ranks == RING.ranks

    def test_autodetect_jsonl_vs_otf2(self):
        assert parse_trace(jsonl_of(RING)).fingerprint == RING.fingerprint
        otf2 = "NPROCS 2\n0 MPI_SEND 1 64\n1 MPI_RECV 0\n"
        program = parse_trace(otf2)
        assert program.nprocs == 2
        assert program.messages == 1

    def test_otf2_features(self):
        text = (
            "# a comment\n"
            "NPROCS 2\n"
            "NAME pingpong\n"
            "0 COMPUTE 1e-6\n"
            "0 MPI_ISEND 1 128\n"
            "1 MPI_IRECV ANY\n"
            "1 MPI_SEND 0 128\n"
            "0 MPI_RECV 1\n"
        )
        program = parse_otf2_text(text)
        assert program.name == "pingpong"
        assert program.ranks[1][0] == ("recv", -1)  # ANY -> wildcard
        assert program.messages == 2

    def test_name_does_not_change_fingerprint(self):
        a = parse_jsonl(jsonl_of(RING), name="alpha")
        b = parse_jsonl(jsonl_of(RING), name="beta")
        assert a.name == "alpha" and b.name == "beta"
        assert a.fingerprint == b.fingerprint

    def test_rejects_non_trace_input(self):
        with pytest.raises(TraceError):
            parse_trace('{"trace": "something-else", "version": 1}')
        with pytest.raises(TraceError):
            parse_trace("certainly not a trace\n")


class TestValidation:
    def test_unknown_rank_rejected(self):
        with pytest.raises(TraceError, match="rank"):
            TraceProgram.build("t", 2, [[("send", 5, 8)], []])

    def test_self_send_rejected(self):
        with pytest.raises(TraceError, match="itself"):
            TraceProgram.build("t", 2, [[("send", 0, 8)], []])

    def test_unmatched_send_rejected(self):
        with pytest.raises(TraceError, match="unmatched send"):
            TraceProgram.build("t", 2, [[("send", 1, 8)], []])

    def test_unmatched_recv_rejected(self):
        with pytest.raises(TraceError):
            TraceProgram.build("t", 2, [[], [("recv", 0)]])

    def test_deadlock_discovered_and_distinguished(self):
        events = [
            [("recv", 1), ("send", 1, 8)],
            [("recv", 0), ("send", 0, 8)],
        ]
        with pytest.raises(TraceDeadlock, match="deadlock"):
            TraceProgram.build("t", 2, events)
        assert issubclass(TraceDeadlock, TraceError)

    def test_wildcard_absorbs_any_sender(self):
        events = [
            [("send", 1, 8)],
            [("recv", -1)],
        ]
        program = TraceProgram.build("t", 2, events)
        assert program.messages == 1


class TestModel:
    def test_model_is_picklable_and_replayable(self):
        model = RING.model()
        clone = pickle.loads(pickle.dumps(model))
        timing = HockneyTiming(1e-5, 1e8)
        a = VirtualMachine(4, timing, seed=0).run(model)
        b = VirtualMachine(4, timing, seed=0).run(clone)
        assert a.elapsed == b.elapsed

    def test_wrong_nprocs_is_an_error_not_truncation(self):
        with pytest.raises(ValueError, match="nprocs=4"):
            predict(
                RING.model(), 3, HockneyTiming(1e-5, 1e8), runs=1, seed=0
            )


class TestProgramStore:
    def test_put_get_meta(self, tmp_path):
        store = ProgramStore(tmp_path)
        meta = store.put(RING, tenant="alice")
        assert meta["fingerprint"] == RING.fingerprint
        assert store.get(RING.fingerprint).ranks == RING.ranks
        assert len(store) == 1
        assert store.stats()["programs"] == 1

    def test_in_memory_store(self):
        store = ProgramStore()
        store.put(RING)
        assert store.get(RING.fingerprint).fingerprint == RING.fingerprint

    def test_unknown_and_malformed_refs(self, tmp_path):
        store = ProgramStore(tmp_path)
        with pytest.raises(UnknownRef):
            store.get("0" * 64)
        with pytest.raises(RegistryError):
            store.get("not-a-fingerprint")

    def test_delete_enforces_ownership(self, tmp_path):
        store = ProgramStore(tmp_path)
        store.put(RING, tenant="alice")
        with pytest.raises(NotOwner):
            store.delete(RING.fingerprint, tenant="bob")
        store.delete(RING.fingerprint, tenant="alice")
        with pytest.raises(UnknownRef):
            store.get(RING.fingerprint)

    def test_corrupt_file_quarantined(self, tmp_path):
        store = ProgramStore(tmp_path)
        store.put(RING)
        [path] = tmp_path.glob("prog-*.json")
        doc = json.loads(path.read_text())
        doc["program"]["ranks"][0][0] = ["compute", 999.0]
        path.write_text(json.dumps(doc))
        fresh = ProgramStore(tmp_path, lru_size=0)
        with pytest.raises(UnknownRef):
            fresh.get(RING.fingerprint)
        assert list(tmp_path.glob("*.corrupt"))

    def test_reimport_repairs_corrupt_file_nobody_read(self, tmp_path):
        """Re-importing must verify the stored bytes before skipping the
        write: a fresh store repairs a file it never read."""
        ProgramStore(tmp_path).put(RING)
        [path] = tmp_path.glob("prog-*.json")
        path.write_text("garbage")
        ProgramStore(tmp_path).put(RING)
        fresh = ProgramStore(tmp_path, lru_size=0)
        assert fresh.get(RING.fingerprint).fingerprint == RING.fingerprint

    def test_quota_hook_runs_once_per_new_program(self, tmp_path):
        calls = []

        def check(nbytes):
            calls.append(nbytes)

        store = ProgramStore(tmp_path)
        store.put(RING, check=check)
        store.put(RING, check=check)  # re-upload: no extra charge
        assert len(calls) == 1 and calls[0] > 0


def test_any_source_constant_matches_wire_value():
    # The wire encodes a wildcard recv src as -1; the model must map it
    # to the machine's ANY_SOURCE sentinel.
    model = TraceProgram.build(
        "t", 2, [[("send", 1, 8)], [("recv", -1)]]
    ).model()
    recvs = [
        event for rank in model.ranks for event in rank
        if event[0] == "recv"
    ]
    assert recvs == [("recv", -1)]
    assert ANY_SOURCE is not None
