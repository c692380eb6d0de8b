"""Property-based tests for the trace importer.

Random deadlock-free traces are generated from a global linear order of
events (the same construction as the compiled-parity suite: the
earliest incomplete operation's sender has already sent, so FIFO
delivery completes it -- contradiction; wildcard receives stay safe
because each rank is all-wildcard or all-fixed).  Properties:

* import -> export -> import is the identity on the content address
  (and on the event tuples themselves);
* every run of the replayed model on the batched virtual machine
  (static traces only) equals its interpreted run on the per-run one.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.pevpm import (
    BatchedVirtualMachine,
    HockneyTiming,
    VirtualMachine,
    compile_program,
)
from repro.trace_import import TraceProgram, parse_jsonl


@st.composite
def traces(draw):
    nprocs = draw(st.integers(min_value=1, max_value=4))
    wildcard = [draw(st.booleans()) for _ in range(nprocs)]
    events = [[] for _ in range(nprocs)]
    for _ in range(draw(st.integers(min_value=0, max_value=12))):
        kind = draw(st.sampled_from(["msg", "compute"]))
        if kind == "msg" and nprocs > 1:
            src = draw(st.integers(min_value=0, max_value=nprocs - 1))
            dst = draw(
                st.integers(min_value=0, max_value=nprocs - 2).map(
                    lambda d, s=src: d if d < s else d + 1
                )
            )
            size = draw(st.sampled_from([0, 64, 2048]))
            events[src].append(("send", dst, size))
            events[dst].append(("recv", -1 if wildcard[dst] else src))
        else:
            proc = draw(st.integers(min_value=0, max_value=nprocs - 1))
            micros = draw(st.integers(min_value=1, max_value=50))
            events[proc].append(("compute", micros * 1e-6))
    return TraceProgram.build("prop", nprocs, events)


@settings(max_examples=40, deadline=None)
@given(traces())
def test_export_import_is_identity_on_content_address(program):
    again = parse_jsonl(program.to_jsonl())
    assert again.fingerprint == program.fingerprint
    assert again.ranks == program.ranks
    assert again.nprocs == program.nprocs
    # and once more, through the exported form of the re-import
    assert parse_jsonl(again.to_jsonl()).fingerprint == program.fingerprint


@settings(max_examples=25, deadline=None)
@given(traces(), st.integers(min_value=0, max_value=2**31 - 1))
def test_replayed_model_engine_parity(program, seed):
    model = program.model()
    compiled = compile_program(model, program.nprocs)
    timing = HockneyTiming(1e-5, 1e8)
    a = VirtualMachine(program.nprocs, timing, seed=seed).run(model)
    batched = BatchedVirtualMachine(program.nprocs, timing, seed=seed, runs=4)
    if compiled.divergent:
        with pytest.raises(ValueError, match="divergent"):
            batched.run(compiled)
        return
    assert [r.elapsed for r in batched.run(compiled)] == [a.elapsed] * 4
