"""Tests for the Histogram distribution type."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mpibench import Histogram


def _h(samples, **kw):
    return Histogram.from_samples(samples, **kw)


class TestConstruction:
    def test_from_samples_basic(self):
        h = _h([1.0, 2.0, 3.0, 4.0], bins=4)
        assert h.n == 4
        assert h.min == 1.0
        assert h.max == 4.0
        assert h.mean == pytest.approx(2.5)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            _h([])

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError):
            _h([1.0, float("nan")])
        with pytest.raises(ValueError):
            _h([1.0, float("inf")])

    def test_degenerate_identical_samples(self):
        h = _h([5.0] * 10)
        assert h.n == 10
        assert h.mean == pytest.approx(5.0)
        rng = np.random.default_rng(0)
        draws = h.sample(rng, 100)
        assert np.allclose(draws, 5.0, atol=1e-9)

    def test_invalid_bins(self):
        with pytest.raises(ValueError):
            _h([1.0, 2.0], bins=0)

    def test_direct_construction_validation(self):
        with pytest.raises(ValueError):
            Histogram(np.array([0.0, 1.0]), np.array([1.0, 2.0]))  # len mismatch
        with pytest.raises(ValueError):
            Histogram(np.array([1.0, 0.0]), np.array([1.0]))  # decreasing edges
        with pytest.raises(ValueError):
            Histogram(np.array([0.0, 1.0]), np.array([-1.0]))  # negative count
        with pytest.raises(ValueError):
            Histogram(np.array([0.0, 1.0]), np.array([0.0]))  # zero mass


class TestStatistics:
    def test_pdf_integrates_to_one(self):
        rng = np.random.default_rng(1)
        h = _h(rng.gamma(3.0, 2.0, size=5000), bins=50)
        centres, density = h.pdf()
        widths = np.diff(h.edges)
        assert float(np.sum(density * widths)) == pytest.approx(1.0)

    def test_cdf_monotone_ending_at_one(self):
        rng = np.random.default_rng(2)
        h = _h(rng.exponential(1.0, size=1000), bins=30)
        _, cum = h.cdf()
        assert np.all(np.diff(cum) >= -1e-12)
        assert cum[-1] == pytest.approx(1.0)

    def test_quantiles(self):
        h = _h(np.arange(1, 101, dtype=float), bins=100)
        assert h.quantile(0.0) == pytest.approx(1.0)
        assert h.quantile(1.0) == pytest.approx(100.0)
        assert h.quantile(0.5) == pytest.approx(50.5, rel=0.05)

    def test_quantile_bounds_checked(self):
        h = _h([1.0, 2.0])
        with pytest.raises(ValueError):
            h.quantile(-0.1)
        with pytest.raises(ValueError):
            h.quantile(1.1)

    def test_tail_mass(self):
        h = _h(np.concatenate([np.full(90, 1.0), np.full(10, 100.0)]), bins=50)
        assert h.tail_mass(50.0) == pytest.approx(0.1)
        assert h.tail_mass(0.0) == pytest.approx(1.0)
        assert h.tail_mass(1000.0) == 0.0

    def test_tail_mass_binned_only(self):
        h0 = _h(np.concatenate([np.full(90, 1.0), np.full(10, 100.0)]), bins=50)
        h = Histogram.from_dict(h0.to_dict())  # drops samples
        assert h.tail_mass(50.0) == pytest.approx(0.1, abs=0.02)


class TestSampling:
    def test_samples_within_support(self):
        rng = np.random.default_rng(3)
        data = rng.normal(10.0, 1.0, size=2000)
        h = _h(data, bins=40)
        draws = h.sample(rng, 5000)
        assert draws.min() >= h.min - 1e-9
        assert draws.max() <= h.max + 1e-9

    def test_sample_mean_matches(self):
        rng = np.random.default_rng(4)
        data = rng.gamma(4.0, 1.0, size=4000)
        h = _h(data, bins=60)
        draws = h.sample(rng, 20000)
        assert float(draws.mean()) == pytest.approx(h.mean, rel=0.03)

    def test_scalar_sample(self):
        rng = np.random.default_rng(5)
        h = _h([1.0, 2.0, 3.0])
        v = h.sample(rng)
        assert isinstance(v, float)

    def test_coarse_bins_add_quantisation_error(self):
        """The paper's granularity claim: coarser bins distort sampling."""
        rng = np.random.default_rng(6)
        data = rng.gamma(2.0, 1.0, size=4000)
        fine = _h(data, bins=200)
        coarse = _h(data, bins=3)
        dfine = fine.sample(rng, 20000)
        dcoarse = coarse.sample(rng, 20000)
        err_fine = abs(np.quantile(dfine, 0.9) - np.quantile(data, 0.9))
        err_coarse = abs(np.quantile(dcoarse, 0.9) - np.quantile(data, 0.9))
        assert err_coarse > err_fine


class TestMergeAndPersistence:
    def test_merge_pools_samples(self):
        a = _h([1.0, 2.0], bins=10)
        b = _h([3.0, 4.0], bins=20)
        m = a.merge(b)
        assert m.n == 4
        assert m.min == 1.0 and m.max == 4.0
        assert m.nbins == 20

    def test_merge_requires_samples(self):
        a = _h([1.0, 2.0])
        b = Histogram.from_dict(_h([3.0, 4.0]).to_dict())
        with pytest.raises(ValueError):
            a.merge(b)

    def test_dict_roundtrip_without_samples(self):
        h = _h(np.linspace(0, 1, 100), bins=10)
        h2 = Histogram.from_dict(h.to_dict())
        assert np.allclose(h2.edges, h.edges)
        assert np.allclose(h2.counts, h.counts)
        assert h2.mean == pytest.approx(h.mean)
        assert h2.min == pytest.approx(h.min)
        assert h2.samples is None

    def test_dict_roundtrip_with_samples(self):
        h = _h([1.0, 5.0, 9.0])
        h2 = Histogram.from_dict(h.to_dict(include_samples=True))
        assert np.allclose(h2.samples, [1.0, 5.0, 9.0])

    @pytest.mark.parametrize("field", ["samples", "edges", "counts"])
    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_decode_rejects_non_finite_data(self, field, bad):
        doc = _h([1.0, 5.0, 9.0]).to_dict(include_samples=True)
        doc[field][-1] = bad
        with pytest.raises(ValueError, match=f"{field} must be finite"):
            Histogram.from_dict(doc)

    def test_rebinned(self):
        h = _h(np.linspace(0, 1, 1000), bins=100)
        h2 = h.rebinned(10)
        assert h2.nbins == 10
        assert h2.n == h.n

    def test_rebin_requires_samples(self):
        h = Histogram.from_dict(_h([1.0, 2.0]).to_dict())
        with pytest.raises(ValueError):
            h.rebinned(5)


# -- property-based ----------------------------------------------------------------


@given(
    data=st.lists(
        st.floats(min_value=0.0, max_value=1e3, allow_nan=False, allow_infinity=False),
        min_size=1,
        max_size=300,
    ),
    bins=st.integers(min_value=1, max_value=64),
)
@settings(max_examples=80, deadline=None)
def test_histogram_invariants(data, bins):
    """Mass conservation, support bounds and moment consistency hold for
    arbitrary sample sets."""
    h = Histogram.from_samples(data, bins=bins)
    assert h.n == len(data)
    assert h.counts.sum() == pytest.approx(len(data))
    assert h.min == pytest.approx(min(data))
    assert h.max == pytest.approx(max(data))
    assert h.min - 1e-9 <= h.mean <= h.max + 1e-9
    # Quantiles are monotone in q.
    qs = [h.quantile(q) for q in (0.0, 0.25, 0.5, 0.75, 1.0)]
    assert all(b >= a - 1e-12 for a, b in zip(qs, qs[1:]))


@given(
    data=st.lists(
        st.floats(min_value=0.0, max_value=100.0, allow_nan=False),
        min_size=2,
        max_size=100,
    )
)
@settings(max_examples=40, deadline=None)
def test_sampling_stays_in_support(data):
    h = Histogram.from_samples(data, bins=16)
    rng = np.random.default_rng(0)
    draws = h.sample(rng, 256)
    assert np.all(draws >= h.min - 1e-9)
    assert np.all(draws <= h.max + 1e-9)


class TestScalarVectorSampleParity:
    """The scalar ``sample()`` is the n=1 case of the vectorised draw --
    one shared inverse-CDF implementation, one shared stream contract."""

    def test_scalar_matches_vector_stream(self):
        h = _h(list(np.random.default_rng(3).gamma(3.0, 10.0, size=500)), bins=32)
        scalar_rng = np.random.default_rng(42)
        vector_rng = np.random.default_rng(42)
        scalars = [h.sample(scalar_rng) for _ in range(5)]
        vectors = [float(h.sample(vector_rng, 1)[0]) for _ in range(5)]
        assert scalars == vectors

    def test_scalar_sample_is_float(self):
        h = _h([1.0, 2.0, 3.0], bins=3)
        value = h.sample(np.random.default_rng(0))
        assert isinstance(value, float)

    def test_vector_sample_shape(self):
        h = _h([1.0, 2.0, 3.0], bins=3)
        draws = h.sample(np.random.default_rng(0), 17)
        assert draws.shape == (17,)


class TestVectorSampleEdgeCases:
    """Edge cases of the batched ``sample(size=...)`` draw, which PEVPM's
    vectorised engine leans on for whole-batch timing vectors."""

    def test_empty_histogram_unconstructible(self):
        # There is no "empty histogram" to sample from: both construction
        # paths refuse, so every histogram the batch engine sees has mass.
        with pytest.raises(ValueError):
            Histogram.from_samples([])
        with pytest.raises(ValueError):
            Histogram(np.array([0.0, 1.0]), np.array([0.0]))

    def test_size_zero_draw(self):
        h = _h([1.0, 2.0, 3.0], bins=3)
        draws = h.sample(np.random.default_rng(0), 0)
        assert draws.shape == (0,)

    def test_single_bin_draws_span_bin(self):
        h = _h([1.0, 2.0, 3.0, 4.0], bins=1)
        assert h.nbins == 1
        draws = h.sample(np.random.default_rng(7), 512)
        assert np.all(draws >= h.edges[0])
        assert np.all(draws <= h.edges[-1])
        # Uniform within the single bin: the mean sits near the centre.
        assert float(np.mean(draws)) == pytest.approx(2.5, rel=0.05)

    def test_degenerate_sub_epsilon_span(self):
        # Samples closer together than the bin resolution collapse to one
        # eps-widened bin; vector draws must stay finite and on-value.
        # A ~2-ulp span at 1.0: real (lo < hi), but linspace cannot cut
        # it into 50 strictly increasing edges.
        base = 1.0
        h = _h([base, base + 5e-16], bins=50)
        assert h.nbins == 1
        draws = h.sample(np.random.default_rng(1), 256)
        assert np.all(np.isfinite(draws))
        assert np.allclose(draws, base, rtol=1e-9)
        # Scalar and vector paths agree on the degenerate histogram too.
        s_rng, v_rng = np.random.default_rng(5), np.random.default_rng(5)
        assert h.sample(s_rng) == pytest.approx(float(h.sample(v_rng, 1)[0]), abs=0.0)

    def test_quantiles_match_quantile_loop(self):
        h = _h(list(np.random.default_rng(9).gamma(2.0, 5.0, size=400)), bins=24)
        qs = np.linspace(0.0, 1.0, 11)
        vec = h.quantiles(qs)
        assert vec == pytest.approx([h.quantile(float(q)) for q in qs])


class TestInverseCdfTable:
    """The compiled icdf() table and its edge cases.

    Contract: quantiles(), the cached icdf() closure, and the scalar
    quantile() loop agree bitwise; an empty retained-sample array is
    treated as no samples; single-bin and zero-length draws behave in
    every mode; the compiled table never rides through pickle.
    """

    def test_icdf_is_cached_and_bitwise_equal(self):
        h = _h(list(np.random.default_rng(3).lognormal(size=300)), bins=30)
        qs = np.linspace(0.0, 1.0, 257)
        f = h.icdf()
        assert h.icdf() is f
        assert np.array_equal(f(qs), h.quantiles(qs))
        assert [float(v) for v in f(qs)] == [h.quantile(float(q)) for q in qs]

    def test_binned_icdf_matches_quantile(self):
        h = _h(list(np.random.default_rng(4).gamma(2.0, 3.0, size=200)),
               bins=16, keep_samples=False)
        assert h.samples is None
        qs = np.linspace(0.0, 1.0, 33)
        assert [float(v) for v in h.icdf()(qs)] == [
            h.quantile(float(q)) for q in qs
        ]

    def test_empty_samples_array_treated_as_absent(self):
        # A document persisted with "samples": [] must not poison the
        # sample-backed quantile path with an empty sorted array.
        h = Histogram(np.array([0.0, 2.0]), np.array([4.0]),
                      samples=np.array([]))
        assert h.samples is None
        qs = np.array([0.0, 0.25, 1.0])
        expected = np.array([0.0, 0.5, 2.0])
        assert np.array_equal(h.quantiles(qs), expected)
        assert np.array_equal(h.icdf()(qs), expected)
        assert h.quantile(0.25) == 0.5
        d = Histogram.from_dict({"edges": [0.0, 2.0], "counts": [4.0],
                                 "samples": []})
        assert d.samples is None

    def test_single_bin_histogram_all_modes_agree(self):
        h = _h([3.0, 3.0, 3.0], bins=10)
        assert h.nbins == 1
        qs = np.array([0.0, 0.5, 1.0])
        assert np.array_equal(h.quantiles(qs), h.icdf()(qs))
        assert np.all(np.isfinite(h.quantiles(qs)))
        scalar = h.sample(np.random.default_rng(2))
        vector = h.sample(np.random.default_rng(2), 1)
        assert scalar == float(vector[0])

    def test_zero_length_draws(self):
        h = _h(list(np.random.default_rng(5).normal(10.0, 1.0, size=50)))
        empty = np.empty(0)
        assert h.quantiles(empty).shape == (0,)
        assert h.icdf()(empty).shape == (0,)
        assert h.sample(np.random.default_rng(0), 0).shape == (0,)

    def test_pickle_drops_compiled_table_and_rebuilds(self):
        import pickle

        h = _h(list(np.random.default_rng(6).exponential(size=120)), bins=20)
        qs = np.linspace(0.0, 1.0, 65)
        before = h.quantiles(qs)  # populates the cached closure
        clone = pickle.loads(pickle.dumps(h))
        assert clone._icdf is None
        assert np.array_equal(clone.quantiles(qs), before)


class TestDegenerateExactConstant:
    """A degenerate cell (all mass on one point) must reproduce the
    constant *exactly* -- not within floating-point noise of it.  The
    eps-widened internal edges exist only to keep binning well-formed;
    they must never leak into returned values."""

    CONST = 3.0000000000000004  # an awkward, non-round float

    def test_sample_returns_the_constant_bit_for_bit(self):
        h = _h([self.CONST] * 8)
        assert h.degenerate
        rng = np.random.default_rng(11)
        assert h.sample(rng) == self.CONST
        draws = h.sample(rng, 64)
        assert np.all(draws == self.CONST)

    def test_quantile_and_icdf_exact(self):
        h = _h([self.CONST] * 3)
        for q in (0.0, 0.25, 0.5, 1.0):
            assert h.quantile(q) == self.CONST
        qs = np.linspace(0.0, 1.0, 33)
        assert np.all(h.icdf()(qs) == self.CONST)
        assert h.icdf()(qs).shape == qs.shape

    def test_rng_stream_alignment_with_nondegenerate_path(self):
        # The degenerate fast path must consume exactly the draws the
        # general path would, so mixed degenerate/non-degenerate cells
        # in one timing model keep downstream sampling reproducible.
        h = _h([self.CONST] * 4)
        a = np.random.default_rng(7)
        h.sample(a, 10)
        b = np.random.default_rng(7)
        b.random(10)
        b.random(10)
        assert a.random() == b.random()
        # scalar draw consumes the size-1 pair
        a2 = np.random.default_rng(8)
        h.sample(a2)
        b2 = np.random.default_rng(8)
        b2.random(1)
        b2.random(1)
        assert a2.random() == b2.random()

    def test_survives_serialisation(self):
        import pickle

        h = _h([self.CONST] * 5)
        binned = Histogram.from_dict(h.to_dict())  # drops raw samples
        assert binned.degenerate
        assert binned.sample(np.random.default_rng(0)) == self.CONST
        clone = pickle.loads(pickle.dumps(h))
        assert clone.sample(np.random.default_rng(0)) == self.CONST

    def test_near_degenerate_is_not_degenerate(self):
        h = _h([1.0, 1.0 + 1e-9])
        assert not h.degenerate
