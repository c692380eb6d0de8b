"""Property tests for request canonicalisation (:mod:`repro.service.records`).

The content-addressed request key is the backbone of every funnel
stage (cache, singleflight, disk store), so its equivalence relation
is pinned down with Hypothesis:

* the key is **invariant** under JSON key reordering, whitespace and
  elision of explicit defaults -- anything a client serialiser may do
  without changing meaning;
* **distinct semantic requests never collide**: two requests whose
  canonical forms differ get different keys (and the same request
  against a different distribution database does too).
"""

import json
import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.service.records import PredictRequest

#: field-level defaults from_dict fills in (elision-invariance inputs)
_DEFAULTS = {
    "ppn": 1,
    "runs": 16,
    "seed": 0,
    "timing_mode": "distribution",
    "timing_source": "nxp",
    "nic_serialisation": "tx",
}


def _valid_nprocs(model: str):
    """nprocs the model's program accepts: the fft transpose needs the
    default 4096 points divisible by nprocs^2, the task farm a master and
    at least one worker."""
    if model == "fft":
        return st.sampled_from([1, 2, 4, 8, 16, 32, 64])
    if model == "taskfarm":
        return st.integers(min_value=2, max_value=128)
    return st.integers(min_value=1, max_value=128)


#: (model, nprocs) shapes the engine can run, so from_dict accepts them
_model_shapes = st.sampled_from(["jacobi", "fft", "taskfarm"]).flatmap(
    lambda model: st.tuples(st.just(model), _valid_nprocs(model))
)

_request_fields = st.fixed_dictionaries(
    {
        "shape": _model_shapes,
        "ppn": st.integers(min_value=1, max_value=4),
        "runs": st.integers(min_value=1, max_value=64),
        "seed": st.integers(min_value=0, max_value=10_000),
        "timing_mode": st.sampled_from(
            ["distribution", "average", "minimum", "parametric"]
        ),
        "timing_source": st.sampled_from(["nxp", "2x1"]),
        "nic_serialisation": st.sampled_from(["off", "tx", "txrx"]),
    }
)


def _as_doc(fields: dict) -> dict:
    doc = dict(fields)
    doc["model"], doc["nprocs"] = doc.pop("shape")
    return doc


request_docs = _request_fields.map(_as_doc)

FP = "db-fingerprint-a"


def _reserialise(doc: dict, order_seed: int, indent: int) -> dict:
    """The same request as a client with different serialiser habits
    would send it: shuffled key order, different whitespace."""
    items = list(doc.items())
    random.Random(order_seed).shuffle(items)
    text = json.dumps(dict(items), indent=indent or None)
    return json.loads(text)


class TestKeyInvariance:
    @given(
        doc=request_docs,
        order_seed=st.integers(min_value=0, max_value=2**32 - 1),
        indent=st.integers(min_value=0, max_value=4),
    )
    @settings(max_examples=300, deadline=None)
    def test_key_invariant_under_reordering_and_whitespace(
        self, doc, order_seed, indent
    ):
        original = PredictRequest.from_dict(doc)
        reshaped = PredictRequest.from_dict(
            _reserialise(doc, order_seed, indent)
        )
        assert reshaped.key(FP) == original.key(FP)
        assert reshaped.canonical() == original.canonical()

    @given(doc=request_docs)
    @settings(max_examples=300, deadline=None)
    def test_key_invariant_under_default_elision(self, doc):
        elided = {
            k: v
            for k, v in doc.items()
            if not (k in _DEFAULTS and _DEFAULTS[k] == v)
        }
        assert (
            PredictRequest.from_dict(elided).key(FP)
            == PredictRequest.from_dict(doc).key(FP)
        )

    def test_explicit_default_model_params_share_the_key(self):
        bare = PredictRequest.from_dict({"model": "jacobi", "nprocs": 8})
        explicit = PredictRequest.from_dict(
            {
                "model": "jacobi",
                "nprocs": 8,
                "model_params": {"iterations": 100, "xsize": 256},
            }
        )
        assert bare.key(FP) == explicit.key(FP)


class TestNoCollisions:
    @given(a=request_docs, b=request_docs)
    @settings(max_examples=300, deadline=None)
    def test_distinct_canonical_forms_never_collide(self, a, b):
        ra = PredictRequest.from_dict(a)
        rb = PredictRequest.from_dict(b)
        if ra.canonical() == rb.canonical():
            assert ra.key(FP) == rb.key(FP)
        else:
            assert ra.key(FP) != rb.key(FP)

    @given(doc=request_docs)
    @settings(max_examples=100, deadline=None)
    def test_key_binds_the_database_fingerprint(self, doc):
        req = PredictRequest.from_dict(doc)
        assert req.key(FP) != req.key("db-fingerprint-b")

    @given(
        doc=request_docs,
        iterations=st.integers(min_value=1, max_value=500),
    )
    @settings(max_examples=200, deadline=None)
    def test_model_params_are_part_of_the_identity(self, doc, iterations):
        doc = dict(doc, model="jacobi")
        base = PredictRequest.from_dict(doc)
        varied = PredictRequest.from_dict(
            dict(doc, model_params={"iterations": iterations})
        )
        if iterations == 100:  # the jacobi default
            assert varied.key(FP) == base.key(FP)
        else:
            assert varied.key(FP) != base.key(FP)
