"""The dense-regime FFT batch kernel and its dispatch plumbing.

Four contracts behind the ``fft_batch`` kernel (paper Section 3.5: the
FFT path is only admissible because it computes the *same* normalized
cross-correlation):

* The primitives (``fft_length``, ``fft_lag_products``,
  ``fft_batch_lag_products``) match the exact direct kernels within the
  documented float tolerance on adversarial inputs -- all-zero rows,
  single spikes, non-power-of-two windows, ``max_lag >= n``, offset
  blocks on both sides.
* Overlap-add increments: a sliding correlator fed per-block FFT pair
  vectors equals a full-window recompute -- the invariant that lets the
  online engine do only the newest dW block's work per refresh.
* Lag-bounded plans: rows are clipped to the quanta lags ``0..max_lag``
  can reach and transformed at the smallest alias-free size, for every
  lag bound below, at and above the block length, and one size less
  aliases.
* The :class:`SpectrumCache` is transparent -- hits return bitwise the
  array a recompute would -- and the three-way ``choose_batch_kernel``
  routes by the modeled cost frontier.
* End to end, ``fft_dispatch`` in {auto, off, force} changes refresh
  cost only: graphs agree across modes within tolerance, and auto mode
  stays bit-identical across serial and process-sharded execution.
"""

import dataclasses

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from repro.config import PathmapConfig
from repro.core.correlation import (
    MODELED_RLE_COST_RATIO,
    SpectrumCache,
    batch_lag_products,
    choose_batch_kernel,
    correlate_batch,
    correlate_dense,
    correlate_fft_batch,
    fft_batch_lag_products,
    fft_dispatch_units,
    fft_length,
    fft_lag_products,
    fft_plan_size,
    fft_row_plan,
    rle_dispatch_units,
    sparse_dispatch_units,
    sparse_lag_products,
)
from repro.core.engine import E2EProfEngine
from repro.core.incremental import IncrementalCorrelator
from repro.core.rle import rle_encode
from repro.core.timeseries import DensityTimeSeries
from repro.errors import AnalysisError, ConfigError, CorrelationError
from repro.obs.ledger import KERNEL_FFT_BATCH

from tests.test_engine_parallel import CFG, run_engine

QUANTUM = 1e-3

#: Documented tolerance of the FFT kernels against exact direct kernels
#: (see docs/PERFORMANCE.md): relative to the lag-product scale, which
#: for quarter-integer test densities stays well under 1e-9 absolute.
FFT_TOL = dict(rtol=1e-9, atol=1e-9)

#: Dense-regime engine config: 5 ms smearing fills the blocks, the
#: regime where auto dispatch actually routes rows to the FFT kernel.
DENSE_CFG = dataclasses.replace(CFG, sampling_window=5e-3)


def series(dense, start=0):
    return DensityTimeSeries.from_dense(
        np.asarray(dense, dtype=np.float64), start, QUANTUM
    )


#: Mostly-zero quarter-integer densities (same rationale as
#: tests/test_correlation_properties.py: exact in float64, so degenerate
#: detection and normalization stay well-conditioned).
density_values = st.lists(
    st.one_of(
        st.just(0.0),
        st.integers(min_value=0, max_value=200).map(lambda k: k / 4.0),
    ),
    min_size=2,
    max_size=96,
)


def brute_force_5smooth(n):
    k = n
    while True:
        r = k
        for p in (2, 3, 5):
            while r % p == 0:
                r //= p
        if r == 1:
            return k
        k += 1


class TestFftLength:
    @given(n=st.integers(min_value=1, max_value=4096))
    def test_minimal_5smooth_at_least_n(self, n):
        got = fft_length(n)
        assert got >= n
        assert got == brute_force_5smooth(n)

    def test_powers_of_two_are_fixed_points(self):
        for k in range(12):
            assert fft_length(1 << k) == 1 << k

    def test_non_pow2_padding_is_tight(self):
        # The sizes the kernel actually plans: 2n-1 for n-quantum blocks.
        assert fft_length(4001) == 4050  # 2 * 3^4 * 5^2, not 4096
        assert fft_length(2 * 2000 - 1) == 4000


class TestFftDispatchUnits:
    def test_default_size_matches_explicit(self):
        n = 37
        size = fft_length(2 * n - 1)
        assert fft_dispatch_units(n) == fft_dispatch_units(n, size)

    def test_units_grow_with_window(self):
        assert fft_dispatch_units(2000) > fft_dispatch_units(200) > 0.0


class TestFftLagProducts:
    @given(xs=density_values, ys=density_values, lag=st.integers(0, 128))
    def test_matches_sparse_kernel(self, xs, ys, lag):
        n = min(len(xs), len(ys))
        x, y = series(xs[:n]), series(ys[:n])
        got = fft_lag_products(x.to_dense(), y.to_dense(), lag)
        want = sparse_lag_products(x, y, lag)
        assert got.shape == want.shape
        np.testing.assert_allclose(got, want, **FFT_TOL)

    def test_lags_beyond_support_are_exact_zeros(self):
        # max_lag >= n: every lag past m-1 has no sample pair, and must
        # be 0.0 exactly, not irfft roundoff read from the padding.
        x = series([1.0, 2.0, 0.0, 3.0, 0.5])
        y = series([0.0, 1.0, 4.0, 0.0, 2.0])
        got = fft_lag_products(x.to_dense(), y.to_dense(), 12)
        assert got.shape == (13,)
        assert np.all(got[5:] == 0.0)
        np.testing.assert_allclose(got, sparse_lag_products(x, y, 12), **FFT_TOL)

    def test_all_zero_and_single_spike(self):
        n = 53  # deliberately prime: no power-of-two luck
        zeros = [0.0] * n
        spike = [0.0] * n
        spike[17] = 3.0
        for xs, ys in [(zeros, zeros), (spike, zeros), (spike, spike)]:
            got = fft_lag_products(
                np.asarray(xs), np.asarray(ys), n + 5
            )
            want = sparse_lag_products(series(xs), series(ys), n + 5)
            np.testing.assert_allclose(got, want, **FFT_TOL)

    def test_undersized_plan_rejected(self):
        x = np.ones(16)
        with pytest.raises(CorrelationError):
            fft_lag_products(x, x, 4, size=16)  # needs 31

    def test_shared_plan_size_changes_nothing(self):
        rng = np.random.default_rng(1)
        x = rng.integers(0, 4, size=30).astype(float)
        y = rng.integers(0, 4, size=30).astype(float)
        default = fft_lag_products(x, y, 20)
        padded = fft_lag_products(x, y, 20, size=fft_length(2 * 64 - 1))
        np.testing.assert_allclose(default, padded, **FFT_TOL)


class TestFftBatchLagProducts:
    @given(xs=density_values, rows=st.lists(density_values, min_size=0,
                                            max_size=4),
           lag=st.integers(0, 128))
    def test_rows_match_sparse_kernel(self, xs, rows, lag):
        n = max(2, min([len(xs)] + [len(r) for r in rows] or [len(xs)]))
        pad = lambda v: v[:n] if len(v) >= n else v + [0.0] * (n - len(v))
        x = series(pad(xs))
        ys = [series(pad(r)) for r in rows]
        mat = fft_batch_lag_products(x, ys, lag)
        assert mat.shape == (len(ys), lag + 1)
        for row, y in enumerate(ys):
            np.testing.assert_allclose(
                mat[row], sparse_lag_products(x, y, lag),
                err_msg=f"row {row}", **FFT_TOL,
            )

    @given(
        xs=density_values,
        ys=density_values,
        shift=st.integers(-3, 3),
        lag=st.integers(0, 96),
    )
    def test_offset_blocks_both_signs(self, xs, ys, shift, lag):
        """Absolute-index semantics: the y block may start before or
        after the x block (cross-block products in the sliding window
        hit both signs of the relative shift)."""
        n = max(2, min(len(xs), len(ys)))
        x = series(xs[:n], start=100)
        y = series(ys[:n], start=100 + shift * n)
        mat = fft_batch_lag_products(x, [y], lag)
        np.testing.assert_allclose(
            mat[0], sparse_lag_products(x, y, lag), **FFT_TOL
        )

    def test_out_of_reach_blocks_are_zero(self):
        x = series([1.0, 2.0, 3.0, 4.0], start=0)
        far = series([5.0, 6.0, 7.0, 8.0], start=500)
        mat = fft_batch_lag_products(x, [far], 10)  # lag reach ends at 10
        assert not np.any(mat)

    def test_mixed_windows_rejected(self):
        x = series([1.0] * 8)
        good = series([1.0] * 8, start=8)
        bad = series([1.0] * 8, start=16)
        with pytest.raises(CorrelationError):
            fft_batch_lag_products(x, [good, bad], 4)

    def test_empty_batch(self):
        mat = fft_batch_lag_products(series([1.0, 2.0]), [], 3)
        assert mat.shape == (0, 4)
        assert not np.any(mat)


#: 5-smooth lengths, for geometries whose alias-free span is itself a
#: plan size (so one sample shorter must alias).
SMOOTH = [m for m in range(16, 400) if fft_length(m) == m]


class TestLagBoundedPlan:
    """The kernel clips each row to the support ``max_lag`` can reach
    (the paper's ``T_u`` bound) and plans the smallest alias-free
    transform for exactly those lags."""

    @settings(max_examples=80, deadline=None)
    @given(
        seed=st.integers(0, 10_000),
        n=st.integers(2, 80),
        bound=st.sampled_from(["below", "edge", "above"]),
        lag_frac=st.floats(0.0, 1.0),
        blocks_older=st.sampled_from([-1, 0, 1, 2]),
        misalign=st.sampled_from([0.0, 0.0, -0.3, 0.45]),
        rows=st.integers(1, 3),
    )
    def test_clipped_rows_match_sparse_kernel(
        self, seed, n, bound, lag_frac, blocks_older, misalign, rows
    ):
        """``max_lag`` < N, = N - 1 and >= N; x one or two blocks older
        than y, the diagonal row, and x newer than y -- on block
        boundaries and off them."""
        if bound == "below":
            lag = int(lag_frac * (n - 2))
        elif bound == "edge":
            lag = n - 1
        else:
            lag = n + int(lag_frac * 2 * n)
        rng = np.random.default_rng(seed)
        quarter = lambda: rng.integers(0, 12, size=n) * (rng.random(n) < 0.5) / 4.0
        y_start = 1000
        x = series(quarter(), start=y_start - blocks_older * n + int(misalign * n))
        ys = [series(quarter(), start=y_start) for _ in range(rows)]
        mat = fft_batch_lag_products(x, ys, lag)
        assert mat.shape == (rows, lag + 1)
        for row, y in enumerate(ys):
            np.testing.assert_allclose(
                mat[row], sparse_lag_products(x, y, lag),
                err_msg=f"row {row}", **FFT_TOL,
            )

    @given(n=st.integers(1, 5000), lag=st.integers(0, 12_000))
    def test_whole_block_plan_is_fft_plan_size(self, n, lag):
        plan = fft_row_plan(0, n, 0, n, lag)
        assert (plan.x_lo, plan.x_hi, plan.y_lo, plan.y_hi) == (0, n, 0, n)
        assert plan.span == n + min(lag, n - 1)
        assert plan.size == fft_plan_size(n, lag) == fft_length(plan.span)

    def test_cross_block_row_keeps_only_lag_reach(self):
        """The RUBiS paper geometry: 60,000-quantum blocks, max_lag 2,000.
        The older x block's tail and the newer y block's head are all
        that pair, and a 4,000-point plan replaces 120,000."""
        n, lag = 60_000, 2_000
        plan = fft_row_plan(0, n, n, n, lag)
        assert (plan.d0, plan.d1) == (1, lag)
        assert (plan.x_lo, plan.x_hi) == (n - lag, n)
        assert (plan.y_lo, plan.y_hi) == (n, n + lag)
        assert plan.size == fft_length(2 * lag - 1) == 4000
        assert fft_plan_size(n, lag) == fft_length(n + lag) < fft_length(2 * n - 1)

    def test_lag_bound_at_block_length_changes_nothing(self):
        """``max_lag >= N``: clipping keeps whole blocks and the plan is
        the full linear correlation's, as before lag-bounded plans."""
        n = 2000
        for lag in (n, n + 1, 3 * n):
            for start in (n, 0):
                plan = fft_row_plan(0, n, start, n, lag)
                assert (plan.x_hi - plan.x_lo, plan.y_hi - plan.y_lo) == (n, n)
                assert plan.size == fft_length(2 * n - 1)

    def test_unreachable_rows_plan_nothing(self):
        assert fft_row_plan(0, 100, 300, 100, 150).size == 0  # two blocks older
        assert fft_row_plan(100, 100, 0, 100, 50).size == 0  # x newer

    @settings(max_examples=40, deadline=None)
    @given(data=st.data(), seed=st.integers(0, 1000))
    def test_one_below_fft_plan_size_aliases(self, data, seed):
        """A diagonal row whose alias-free span ``N + min(L, N - 1)`` is
        5-smooth: ``fft_plan_size - 1`` is rejected, the size itself
        matches the exact kernel."""
        span = data.draw(st.sampled_from(SMOOTH))
        n = data.draw(st.integers((span + 2) // 2, span - 1))  # lag <= n - 1
        lag = span - n
        if lag == n - 1:
            lag = data.draw(st.integers(n - 1, 2 * n))
        assert fft_plan_size(n, lag) == span
        rng = np.random.default_rng(seed)
        x = series(rng.integers(0, 8, size=n) / 4.0, start=50)
        y = series(rng.integers(0, 8, size=n) / 4.0, start=50)
        with pytest.raises(CorrelationError):
            fft_batch_lag_products(x, [y], lag, size=span - 1)
        np.testing.assert_allclose(
            fft_batch_lag_products(x, [y], lag, size=span)[0],
            sparse_lag_products(x, y, lag), **FFT_TOL,
        )

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 1000),
        n=st.integers(4, 64),
        lag_frac=st.floats(0.0, 1.0),
        blocks_older=st.sampled_from([0, 1]),
    )
    def test_clipped_span_is_the_alias_bound(self, seed, n, lag_frac, blocks_older):
        """For any row, cross-block (clipped) included: one sample under
        the planned span aliases, the span itself is exact."""
        lag = 1 + int(lag_frac * (n - 2))
        rng = np.random.default_rng(seed)
        x = series(rng.integers(1, 8, size=n) / 4.0, start=n * (2 - blocks_older))
        y = series(rng.integers(1, 8, size=n) / 4.0, start=2 * n)
        plan = fft_row_plan(int(x.start), n, int(y.start), n, lag)
        with pytest.raises(CorrelationError):
            fft_batch_lag_products(x, [y], lag, size=plan.span - 1)
        np.testing.assert_allclose(
            fft_batch_lag_products(x, [y], lag, size=plan.span)[0],
            sparse_lag_products(x, y, lag), **FFT_TOL,
        )

    def test_clipped_rows_bypass_the_block_cache(self):
        n, lag = 40, 10
        x = series(np.arange(n, dtype=float), start=0)
        y = series(np.arange(n, dtype=float), start=n)
        cache = SpectrumCache()
        fft_batch_lag_products(x, [y], lag, cache=cache)
        assert len(cache) == 0 and cache.misses == 0
        fft_batch_lag_products(y, [y], lag, cache=cache)  # diagonal row
        assert len(cache) == 1 and cache.misses == 1 and cache.hits == 1


class TestFftLedgerRows:
    def test_ledger_counts_what_the_kernel_transforms(self):
        """The ``fft_batch`` ledger row reports the clipped lengths and
        per-row plan size, not the full blocks (DENSE_CFG: 2,000-quantum
        blocks, max_lag 1,000)."""
        n, lag = DENSE_CFG.refresh_quanta, DENSE_CFG.max_lag_quanta
        engine = E2EProfEngine(DENSE_CFG, fft_dispatch="force")
        rng = np.random.default_rng(5)
        block = lambda start: rle_encode(series(rng.integers(0, 3, size=n), start))
        ys = [block(n), block(n)]
        ys_sparse = [y.to_sparse() for y in ys]
        cases = [
            (block(0), lag, fft_length(2 * lag - 1)),  # cross-block row
            (block(n), n, fft_plan_size(n, lag)),  # diagonal row
        ]
        for x_block, clipped, size in cases:
            engine.ledger.begin_refresh()
            engine._group_vectors(x_block, ys, ys_sparse, lag)
            rows, _, units, nbytes = engine.ledger.kernel_tallies()[KERNEL_FFT_BATCH]
            assert rows == 2
            assert units == 2 * fft_dispatch_units(n, size)
            assert nbytes == 8 * (clipped + 2 * clipped)


class TestSpectrumCache:
    def test_hits_are_bitwise_identical_to_recompute(self):
        rng = np.random.default_rng(7)
        x = series(rng.integers(0, 5, size=40).astype(float))
        ys = [series(rng.integers(0, 5, size=40).astype(float), start=40)
              for _ in range(3)]
        cache = SpectrumCache()
        first = fft_batch_lag_products(x, ys, 60, cache=cache)
        assert cache.misses == 4 and cache.hits == 0
        second = fft_batch_lag_products(x, ys, 60, cache=cache)
        assert cache.misses == 4 and cache.hits == 4
        assert np.array_equal(first, second)  # bitwise, not just close
        fresh = fft_batch_lag_products(x, ys, 60)
        assert np.array_equal(first, fresh)

    def test_cached_spectrum_is_the_single_rfft(self):
        x = series([1.0, 0.0, 2.0, 3.0])
        cache = SpectrumCache()
        spec = cache.spectrum(x, 16)
        assert np.array_equal(spec, np.fft.rfft(x.to_dense(), 16))
        assert cache.spectrum(x, 16) is spec  # hit returns the same array
        assert cache.nbytes == spec.nbytes
        assert len(cache) == 1

    def test_evict_before_drops_stale_blocks(self):
        cache = SpectrumCache()
        old = series([1.0, 2.0], start=0)
        new = series([3.0, 4.0], start=100)
        cache.spectrum(old, 8)
        cache.spectrum(new, 8)
        assert cache.evict_before(50) == 1
        assert len(cache) == 1
        cache.spectrum(new, 8)
        assert cache.hits == 1  # the surviving entry still serves

    def test_distinct_sizes_are_distinct_entries(self):
        cache = SpectrumCache()
        x = series([1.0, 2.0, 3.0])
        cache.spectrum(x, 8)
        cache.spectrum(x, 16)
        assert len(cache) == 2 and cache.misses == 2


class TestChooseBatchKernel:
    def test_no_fft_estimate_falls_back_to_direct_choice(self):
        assert choose_batch_kernel(10.0, 100.0) == "sparse"
        assert choose_batch_kernel(1000.0, 10.0) == "rle"

    def test_modeled_frontier(self):
        # Direct cost is min(sparse, 4*rle); fft wins strictly below it.
        direct = min(100.0, MODELED_RLE_COST_RATIO * 40.0)
        assert choose_batch_kernel(100.0, 40.0, fft_units=direct - 1) == "fft"
        assert choose_batch_kernel(100.0, 40.0, fft_units=direct) == "sparse"
        assert choose_batch_kernel(1000.0, 40.0, fft_units=200.0) == "rle"



class TestDirectDispatchUnits:
    def test_sparse_units_formula(self):
        assert sparse_dispatch_units(10, 20, 100, 4) == pytest.approx(
            10 * 5 * 20 / 100
        )

    def test_sparse_units_guards_empty_span(self):
        assert sparse_dispatch_units(10, 20, 0, 4) == pytest.approx(10 * 5 * 20)

    def test_rle_units_formula(self):
        assert rle_dispatch_units(6, 7) == 42.0
        assert MODELED_RLE_COST_RATIO == 4.0


class TestOverlapAddIncrement:
    """Incremental FFT pair vectors == full-window recompute."""

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 100), num_blocks=st.integers(1, 4),
           lag=st.integers(0, 80))
    def test_incremental_fft_equals_full_recompute(self, seed, num_blocks,
                                                   lag):
        rng = np.random.default_rng(seed)
        block_len = 24
        fft_corr = IncrementalCorrelator(
            max_lag=lag, num_blocks=num_blocks, quantum=QUANTUM
        )
        exact_corr = IncrementalCorrelator(
            max_lag=lag, num_blocks=num_blocks, quantum=QUANTUM
        )
        for step in range(num_blocks + 2):  # slide past the first eviction
            dense_x = rng.integers(0, 4, size=block_len).astype(float)
            dense_y = rng.integers(0, 4, size=block_len).astype(float)
            x_block = series(dense_x, start=step * block_len)
            y_block = series(dense_y, start=step * block_len)
            # The overlap-add step: only the new block's pair products
            # are computed, each cross pair through the FFT batch kernel
            # on absolute indices.
            vectors = [
                fft_batch_lag_products(p_block, [y_block], lag)[0]
                for p_block in fft_corr.pending_pair_blocks()
            ]
            vectors.append(fft_batch_lag_products(x_block, [y_block], lag)[0])
            fft_corr.append(x_block, y_block, pair_vectors=vectors)
            exact_corr.append(x_block, y_block)

            got = fft_corr.correlation()
            want = exact_corr.correlation()
            assert got.n == want.n
            assert got.degenerate == want.degenerate
            np.testing.assert_allclose(got.values, want.values, **FFT_TOL)

    def test_full_window_recompute_reference(self):
        """And the exact correlator itself equals correlate_dense over
        the concatenated window, closing the chain fft -> incremental ->
        full recompute."""
        rng = np.random.default_rng(3)
        corr = IncrementalCorrelator(max_lag=30, num_blocks=3, quantum=QUANTUM)
        for step in range(5):
            xb = series(rng.integers(0, 4, size=20).astype(float),
                        start=step * 20)
            yb = series(rng.integers(0, 4, size=20).astype(float),
                        start=step * 20)
            vectors = [
                fft_batch_lag_products(p, [yb], 30)[0]
                for p in corr.pending_pair_blocks()
            ]
            vectors.append(fft_batch_lag_products(xb, [yb], 30)[0])
            corr.append(xb, yb, pair_vectors=vectors)
        xw, yw = corr.window_series()
        want = correlate_dense(xw, yw, 30)
        got = corr.correlation()
        np.testing.assert_allclose(got.values, want.values, **FFT_TOL)


class TestCorrelateFftBatch:
    @given(xs=density_values, rows=st.lists(density_values, min_size=1,
                                            max_size=3))
    def test_matches_direct_batch_and_dense(self, xs, rows):
        n = max(2, min([len(xs)] + [len(r) for r in rows]))
        pad = lambda v: v[:n] if len(v) >= n else v + [0.0] * (n - len(v))
        x = series(pad(xs))
        ys = [series(pad(r)) for r in rows]
        got = correlate_fft_batch(x, ys)
        direct = correlate_batch(x, ys)
        assert len(got) == len(ys)
        for row, y in enumerate(ys):
            ref = correlate_dense(x, y, None)
            assert got[row].degenerate == ref.degenerate, f"row {row}"
            np.testing.assert_allclose(
                got[row].values, ref.values, err_msg=f"row {row} vs dense",
                **FFT_TOL,
            )
            np.testing.assert_allclose(
                got[row].values, direct[row].values,
                err_msg=f"row {row} vs batch", **FFT_TOL,
            )

    def test_window_mismatch_rejected(self):
        x = series([1.0] * 8)
        with pytest.raises(Exception):
            correlate_fft_batch(x, [series([1.0] * 8, start=3)])


def run_dense_engine(seed=4, end_time=14.0, classes=4, **engine_kwargs):
    """A genuinely dense workload: 120 req/s smeared over 5 quanta fills
    the blocks, pushing the direct kernels' pair estimates past the FFT
    kernel's fixed ``size * log2(size)`` cost so auto dispatch actually
    flips (``run_engine``'s 10 req/s stays in sparse territory)."""
    from repro.apps.manyclass import build_many_class

    deployment = build_many_class(
        classes=classes,
        quiet_fraction=0.0,
        seed=seed,
        request_rate=120.0,
        quiet_after=None,
        config=DENSE_CFG,
    )
    engine = E2EProfEngine(DENSE_CFG, **engine_kwargs)
    samples = []
    engine.subscribe_metrics(lambda now, result, sample: samples.append(sample))
    engine.attach(deployment.topology)
    deployment.run_until(end_time)
    engine.detach()
    assert engine.latest_result is not None
    return engine, samples


class TestEngineFftDispatch:
    """End-to-end: fft_dispatch changes cost, never analysis output."""

    def graphs_of(self, engine):
        return {k: g.to_dict() for k, g in engine.latest_result.graphs.items()}

    def test_force_matches_off_within_tolerance(self):
        off, _ = run_dense_engine(fft_dispatch="off")
        force, _ = run_dense_engine(fft_dispatch="force")
        g_off, g_force = self.graphs_of(off), self.graphs_of(force)
        assert set(g_off) == set(g_force)
        for key in g_off:
            edges_off = {(e["src"], e["dst"]): e["delays"]
                         for e in g_off[key]["edges"]}
            edges_force = {(e["src"], e["dst"]): e["delays"]
                           for e in g_force[key]["edges"]}
            assert set(edges_off) == set(edges_force), key
            for edge, delays in edges_off.items():
                np.testing.assert_allclose(
                    edges_force[edge], delays, atol=1e-9,
                    err_msg=f"{key} {edge}",
                )
        assert off.latest_result.stats.spikes == force.latest_result.stats.spikes

    def test_auto_routes_dense_rows_to_fft_and_matches_off(self):
        auto, _ = run_dense_engine(fft_dispatch="auto")
        off, _ = run_dense_engine(fft_dispatch="off")
        rows = sum(
            led.kernel(KERNEL_FFT_BATCH).rows for led in auto.ledger.history()
        )
        assert rows > 0, "dense workload must route rows to the FFT kernel"
        assert self.graphs_of(auto) == self.graphs_of(off)  # bit-identical:
        # modeled auto-routing picks a kernel per row, and on this
        # workload FFT-routed rows produce delays that quantize onto the
        # same spikes as the direct kernels.

    def test_off_never_touches_fft_kernel(self):
        engine, _ = run_dense_engine(fft_dispatch="off", end_time=12.0)
        assert all(
            led.kernel(KERNEL_FFT_BATCH).rows == 0
            for led in engine.ledger.history()
        )

    def test_auto_is_bit_identical_across_parallel_modes(self):
        kwargs = dict(end_time=12.0, fft_dispatch="auto")
        serial, s_samples = run_dense_engine(**kwargs)
        procs, p_samples = run_dense_engine(shards=2, **kwargs)
        assert self.graphs_of(procs) == self.graphs_of(serial)
        assert len(p_samples) == len(s_samples)
        for s, o in zip(s_samples, p_samples):
            assert s.correlations == o.correlations
            assert s.spikes == o.spikes

    def test_spectra_cache_warms_and_stays_bounded(self):
        engine, _ = run_dense_engine(fft_dispatch="force", end_time=16.0)
        cache = engine._spectra
        assert cache.hits > 0, "refresh overlap must re-serve cached spectra"
        # Eviction bounds residency to the live block history: with 2 s
        # blocks and a 6 s window no more than 3 blocks per series side
        # stay resident, so the cache cannot grow with run length.
        assert len(cache) <= 4 * (engine._num_blocks + 1) * 10


class TestShippedSpectraPlan:
    """The spectra a sharded engine ships are the ones worker kernels
    request, under a lag bound shorter than a block (DENSE_CFG: 2,000-
    quantum blocks, max_lag 1,000), so seeded worker caches are hit
    rather than silently recomputed at another size."""

    def test_shipped_size_is_the_requested_size(self, monkeypatch):
        from repro.core.shards import ShardedAnalysis

        n, lag = DENSE_CFG.refresh_quanta, DENSE_CFG.max_lag_quanta
        assert lag < n
        requested = set()
        real_spectrum = SpectrumCache.spectrum

        def spy_spectrum(cache, block, size):
            requested.add(int(size))
            return real_spectrum(cache, block, size)

        monkeypatch.setattr(SpectrumCache, "spectrum", spy_spectrum)
        kwargs = dict(end_time=12.0, fft_dispatch="force")
        serial, s_samples = run_dense_engine(**kwargs)
        assert requested == {fft_plan_size(n, lag)}
        # Under the bound only the newest blocks' spectra stay resident.
        newest = max(blocks[-1].start for blocks in serial._blocks.values())
        assert serial._spectra.evict_before(newest) == 0

        shipped = set()
        real_dispatch = ShardedAnalysis.dispatch

        def spy_dispatch(self, *args, spectra=None, **kw):
            shipped.update(size for size, _ in (spectra or {}).values())
            return real_dispatch(self, *args, spectra=spectra, **kw)

        monkeypatch.setattr(ShardedAnalysis, "dispatch", spy_dispatch)
        procs, p_samples = run_dense_engine(shards=2, **kwargs)
        assert shipped == {fft_plan_size(n, lag)}
        graphs = lambda e: {k: g.to_dict() for k, g in e.latest_result.graphs.items()}
        assert graphs(procs) == graphs(serial)
        assert len(p_samples) == len(s_samples)
        for s, o in zip(s_samples, p_samples):
            assert s.correlations == o.correlations
            assert s.spikes == o.spikes


class TestFftDispatchPlumbing:
    def test_config_validates_mode(self):
        with pytest.raises(ConfigError):
            dataclasses.replace(CFG, fft_dispatch="fast")

    def test_engine_validates_mode(self):
        with pytest.raises(AnalysisError):
            E2EProfEngine(CFG, fft_dispatch="fast")

    def test_config_flows_and_param_wins(self):
        assert E2EProfEngine(CFG).fft_dispatch == "auto"
        cfg = dataclasses.replace(CFG, fft_dispatch="off")
        assert E2EProfEngine(cfg).fft_dispatch == "off"
        assert E2EProfEngine(cfg, fft_dispatch="force").fft_dispatch == "force"

    def test_default_config_value(self):
        assert PathmapConfig().fft_dispatch == "auto"
