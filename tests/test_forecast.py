"""Differencing, RLS fitting, the two k-step predictors, diagnostics."""

import contextlib
import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from fleetplan import forecast
from fleetplan.domain import DemandSeries, gen_demand
from fleetplan.forecast import (
    CHI2_95, ArimaModel, ArimaOrder, DegenerateSeriesError, LengthMismatchError,
    NoninvertibleMAError, NumericalBreakdownError, SeriesTooShortError,
    _flip_inside_ma_roots, _inverse_c, acf, astrom_predict, conditional_expectation_predict,
    difference, extend_demand, forecast_demand, integrate, pacf, r_squared, rls_fit, whiteness_check,
)
from oracles import (reference_astrom_predict, reference_conditional_expectation_predict,
                     reference_rls_fit)
from test_acceptance import _integrated_arma_series


class TestDifferencing:
    def test_first_difference(self):
        w, init = difference([1, 3, 6, 10], 1)
        assert list(w) == [2, 3, 4]
        assert init == [1]

    def test_second_difference(self):
        w, init = difference([1, 3, 6, 10], 2)
        assert list(w) == [1, 1]
        assert init == [1, 2]

    def test_zero_order_is_identity(self):
        w, init = difference([5, 2, 9], 0)
        assert list(w) == [5, 2, 9]
        assert init == []

    def test_integrate_inverts(self):
        assert list(integrate([2, 3, 4], [1], 1)) == [1, 3, 6, 10]
        assert list(integrate([1, 1], [1, 2], 2)) == [1, 3, 6, 10]

    def test_integrate_checks_initials(self):
        with pytest.raises(LengthMismatchError):
            integrate([2, 3], [1, 5], 1)

    @settings(max_examples=80, deadline=None)
    @given(st.lists(st.integers(-1000, 1000), min_size=3, max_size=60),
           st.sampled_from([0, 1, 2]))
    def test_round_trip_exact_on_integers(self, xs, d):
        w, init = difference(xs, d)
        back = integrate(w, init, d)
        assert [int(v) for v in back] == xs


class TestOrderAndFit:
    def test_order_requires_some_structure(self):
        with pytest.raises(ValueError):
            ArimaOrder(0, 0, 0)
        ArimaOrder(0, 1, 0)

    def test_order_rejects_negative(self):
        with pytest.raises(ValueError):
            ArimaOrder(-1, 0, 1)

    def test_forgetting_factor_range(self):
        series = list(range(30))
        for order in (ArimaOrder(1, 0, 0), ArimaOrder(0, 1, 0)):
            for lam in (0.89, 0.0, 1.1):
                with pytest.raises(ValueError):
                    rls_fit(series, order, lam)
        rls_fit([float(v % 7) for v in range(30)], ArimaOrder(1, 0, 0), 0.95)

    def test_too_short_series(self):
        with pytest.raises(SeriesTooShortError):
            rls_fit([1.0, 2.0, 3.0], ArimaOrder(1, 0, 1), 1.0)  # needs 20

    def test_noiseless_ar1_recovered_to_1e6(self):
        # a pure a=0.5 decay satisfies the recursion at every sample; with
        # no forgetting the regression must pin the coefficient down to
        # one part in a million
        y = [0.5 ** t for t in range(2000)]
        model, _ = rls_fit(y, ArimaOrder(1, 0, 0), 1.0)
        assert abs(model.ar_coeffs[0] - 0.5) < 1e-6

    def test_noiseless_ar1_balanced_tracks(self):
        # mirrored positive and negative tracks cancel the sample mean, so
        # centering costs nothing and the estimate tightens further
        y = [0.5 ** t for t in range(24)] + [-(0.5 ** t) for t in range(24)]
        model, _ = rls_fit(y, ArimaOrder(1, 0, 0), 1.0)
        assert abs(model.ar_coeffs[0] - 0.5) < 1e-6

    def test_constant_series_zero_residuals(self):
        model, resid = rls_fit([30.0] * 40, ArimaOrder(1, 1, 0), 0.98)
        assert float(np.max(np.abs(resid))) == 0.0
        assert model.series_mean == 0.0
        assert model.noise_variance == 0.0

    def test_drift_series_pure_random_walk(self):
        model, resid = rls_fit([30.0 + t for t in range(40)], ArimaOrder(0, 1, 0), 1.0)
        assert model.series_mean == pytest.approx(1.0)
        assert float(np.max(np.abs(resid))) == 0.0

    def test_mean_is_on_differenced_scale(self):
        # d=0 keeps the plain sample mean
        xs = [3.0, 5.0, 4.0, 8.0] * 10
        model, _ = rls_fit(xs, ArimaOrder(1, 0, 0), 0.98)
        assert model.series_mean == pytest.approx(float(np.mean(xs)))

    def test_numerical_breakdown_detected(self):
        with np.errstate(all="ignore"):
            with pytest.raises(NumericalBreakdownError):
                rls_fit([1e200, -1e200] * 40, ArimaOrder(2, 0, 2), 0.91)


def ar1_model(a=0.5, mean=10.0):
    return ArimaModel(ArimaOrder(1, 0, 0), (a,), (), mean, 1.0)


class TestPredictors:
    def test_ar1_halving_chain(self):
        # history pinned at the mean except a final excursion of +8: the
        # one- and two-step predictions decay to +4 and +2 exactly
        model = ar1_model()
        hist = [10.0] * 30 + [18.0]
        assert astrom_predict(model, hist, 1) - 10.0 == pytest.approx(4.0, abs=1e-12)
        assert astrom_predict(model, hist, 2) - 10.0 == pytest.approx(2.0, abs=1e-12)
        assert conditional_expectation_predict(model, hist, 1) - 10.0 == pytest.approx(4.0, abs=1e-12)
        assert conditional_expectation_predict(model, hist, 2) - 10.0 == pytest.approx(2.0, abs=1e-12)

    def test_chained_one_step_equals_direct_two_step(self):
        model = ar1_model(a=0.37, mean=2.0)
        rng = np.random.default_rng(5)
        hist = list(2.0 + rng.normal(0, 1, 40))
        one = astrom_predict(model, hist, 1)
        direct2 = astrom_predict(model, hist, 2)
        chained = astrom_predict(model, hist + [one], 1)
        assert abs(direct2 - chained) < 1e-9

    def test_white_noise_model_predicts_mean(self):
        model = ArimaModel(ArimaOrder(0, 0, 1), (), (0.0,), 5.5, 1.0)
        rng = np.random.default_rng(3)
        hist = list(5.5 + rng.normal(0, 1, 50))
        for k in (1, 2, 7):
            assert astrom_predict(model, hist, k) == pytest.approx(5.5)
            assert conditional_expectation_predict(model, hist, k) == pytest.approx(5.5)

    def test_random_walk_with_drift_extends_at_drift(self):
        hist = [30.0 + t for t in range(40)]
        model, _ = rls_fit(hist, ArimaOrder(0, 1, 0), 1.0)
        for k in (1, 2, 5):
            assert astrom_predict(model, hist, k) == pytest.approx(hist[-1] + k)
            assert conditional_expectation_predict(model, hist, k) == pytest.approx(hist[-1] + k)

    def test_noninvertible_ma_rejected(self):
        model = ArimaModel(ArimaOrder(0, 0, 1), (), (1.0,), 0.0, 1.0)  # root on circle
        with pytest.raises(NoninvertibleMAError):
            astrom_predict(model, [1.0, 2.0, 3.0], 1)
        with pytest.raises(NoninvertibleMAError):
            conditional_expectation_predict(model, [1.0, 2.0, 3.0], 1)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_overflowing_filter_is_non_finite_without_warning(self):
        # a history at the top of the float range: each predictor's
        # whole-array pass overflows, and the prediction comes back
        # non-finite for extend_demand to report, with no numpy warning
        model = ar1_model(a=2.7, mean=0.0)
        hist = [1e307 * 3.0 ** i for i in range(4)] + [1.7e308]
        assert not math.isfinite(astrom_predict(model, hist, 1))
        assert not math.isfinite(conditional_expectation_predict(model, hist, 1))

    def test_bad_step_and_empty_history(self):
        model = ar1_model()
        with pytest.raises(ValueError):
            conditional_expectation_predict(model, [1.0], 0)
        # the step is checked before the trend is built from it
        for predict in (astrom_predict, conditional_expectation_predict):
            for k in (-1, -10):
                with pytest.raises(ValueError, match="prediction step must be >= 1"):
                    predict(model, [1.0, 2.0, 3.0, 4.0], k)
        with pytest.raises(SeriesTooShortError):
            astrom_predict(model, [], 1)

    def test_two_forms_agree_on_random_models(self):
        # the filtered and the rolled-forward prediction are independent
        # derivations and must coincide
        rng = np.random.default_rng(11)
        worst = 0.0
        for _ in range(30):
            p = int(rng.integers(0, 4))
            q = int(rng.integers(0, 4))
            d = int(rng.integers(0, 3))
            if p + q + d == 0:
                p = 1
            # A(B) = 1 - sum a_i B^i needs the negated tail; C(B) = 1 + sum
            # c_j B^j takes it as is
            ar = tuple(-v for v in _stable_poly(rng, p))
            ma = tuple(_stable_poly(rng, q))
            model = ArimaModel(ArimaOrder(p, d, q), ar, ma, float(rng.normal()), 1.0)
            hist = list(rng.normal(0, 3, int(rng.integers(20, 50))))
            for k in range(1, 13):
                a = astrom_predict(model, hist, k)
                c = conditional_expectation_predict(model, hist, k)
                worst = max(worst, abs(a - c))
        assert worst < 1e-9


def _stable_poly(rng, order):
    """Tail of a degree-`order` polynomial with constant term 1 and all
    roots outside the unit circle (real or conjugate pairs)."""
    if order == 0:
        return ()
    roots = []
    while len(roots) < order:
        if order - len(roots) >= 2 and rng.random() < 0.5:
            r = rng.uniform(1.1, 3.0)
            th = rng.uniform(0.1, math.pi - 0.1)
            roots += [r * np.exp(1j * th), r * np.exp(-1j * th)]
        else:
            roots.append(complex(rng.uniform(1.1, 3.0) * rng.choice([-1.0, 1.0])))
    poly = np.poly(roots)
    poly = np.real(poly / poly[-1])[::-1]   # constant-first, constant 1
    return [float(v) for v in poly[1:]]


def _ma_autocovariances(ma, noise_variance):
    c = np.concatenate(([1.0], ma))
    return noise_variance * np.array([c[:len(c) - k] @ c[k:] for k in range(len(c))])


def _ma_roots(ma):
    return np.roots(np.concatenate(([1.0], ma))[::-1])


class TestInvertibleMA:
    def test_fit_with_root_inside_forecasts(self):
        # gate 6's generator seeded [33, 7] fits an MA root of modulus
        # 0.9908; the fit flips it, so both predictors run and agree
        y = _integrated_arma_series([33, 7])[:-100]
        model, _ = rls_fit(y, ArimaOrder(3, 1, 4), 0.99)
        assert np.all(np.abs(_ma_roots(model.ma_coeffs)) > 1.0)
        for k in range(1, 9):
            a = astrom_predict(model, y, k)
            c = conditional_expectation_predict(model, y, k)
            assert abs(a - c) < 1e-9

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.floats(-3.0, 3.0), min_size=1, max_size=5), st.floats(0.1, 10.0))
    def test_flip_preserves_autocovariances(self, ma, noise_variance):
        ma = np.array(ma)
        assume(abs(ma[-1]) > 0.05)
        assume(np.all(np.abs(np.abs(_ma_roots(ma)) - 1.0) > 0.05))
        flipped, flipped_variance = _flip_inside_ma_roots(ma, noise_variance)
        assert len(flipped) == len(ma)
        assert np.all(np.abs(_ma_roots(flipped)) > 1.0)
        assert np.allclose(_ma_autocovariances(flipped, flipped_variance),
                           _ma_autocovariances(ma, noise_variance), rtol=1e-6, atol=1e-9)


class TestForecastDemand:
    def test_constant_demand_stays_constant(self):
        series = DemandSeries((30,) * 30)
        out = forecast_demand(series, ArimaOrder(1, 1, 0), 6)
        assert list(out) == [30] * 6

    def test_output_is_valid_demand(self):
        rng = np.random.default_rng(8)
        vals = tuple(int(v) for v in np.maximum(0, 6 + rng.normal(0, 2, 60)).round())
        out = forecast_demand(DemandSeries(vals), ArimaOrder(2, 0, 1), 8, 0.95)
        assert len(out) == 8
        assert all(v >= 0 for v in out)

    def test_horizon_validated(self):
        series = DemandSeries((5, 6, 5, 7, 6) * 6)
        with pytest.raises(ValueError, match="horizon must be >= 1, got 0"):
            forecast_demand(series, ArimaOrder(1, 0, 0), 0)
        model, _ = rls_fit(series.values, ArimaOrder(1, 0, 0))
        with pytest.raises(ValueError, match="horizon must be >= 1, got -1"):
            extend_demand(model, series, -1)


class TestDiagnostics:
    def test_acf_lag0_and_known_ar1(self):
        rng = np.random.default_rng(2)
        n = 4000
        e = rng.standard_normal(n)
        x = np.zeros(n)
        for t in range(1, n):
            x[t] = 0.5 * x[t - 1] + e[t]
        r = acf(x, 20)
        assert r[0] == 1.0
        assert abs(r[1] - 0.5) < 0.05

    def test_acf_white_noise_bartlett(self):
        rng = np.random.default_rng(4)
        x = rng.standard_normal(3000)
        r = acf(x, 30)
        inside = sum(abs(v) < 2 / math.sqrt(len(x)) for v in r[1:])
        assert inside >= 27  # at least 90% of lags inside the band

    def test_acf_errors(self):
        with pytest.raises(DegenerateSeriesError):
            acf([3.0, 3.0, 3.0], 1)
        with pytest.raises(SeriesTooShortError):
            acf([1.0, 2.0], 5)

    def test_pacf_cuts_off_for_ar1(self):
        rng = np.random.default_rng(6)
        n = 4000
        e = rng.standard_normal(n)
        x = np.zeros(n)
        for t in range(1, n):
            x[t] = 0.6 * x[t - 1] + e[t]
        p = pacf(x, 10)
        assert p[0] == 1.0
        assert abs(p[1] - 0.6) < 0.05
        assert all(abs(v) < 0.06 for v in p[2:])

    def test_whiteness_three_ways(self):
        rng = np.random.default_rng(9)
        n = 1500
        e = rng.standard_normal(n)
        q_white, ok_white = whiteness_check(e, 20)
        assert ok_white
        x = np.zeros(n)
        for t in range(1, n):
            x[t] = 0.5 * x[t - 1] + e[t]
        q_corr, ok_corr = whiteness_check(x, 20)
        assert not ok_corr
        assert q_corr > q_white
        q0, ok0 = whiteness_check(np.zeros(100), 20)
        assert (q0, ok0) == (0.0, True)

    def test_whiteness_df_accounts_for_fitted_params(self):
        rng = np.random.default_rng(10)
        e = rng.standard_normal(500)
        q1, _ = whiteness_check(e, 20, n_params=0)
        q2, _ = whiteness_check(e, 20, n_params=7)
        assert q1 == q2  # statistic unchanged, threshold moves
        with pytest.raises(ValueError):
            whiteness_check(e, 5, n_params=5)

    def test_chi2_spot_values(self):
        assert CHI2_95[1] == pytest.approx(3.841459, abs=1e-5)
        assert CHI2_95[13] == pytest.approx(22.362032, abs=1e-5)
        assert CHI2_95[50] == pytest.approx(67.504807, abs=1e-5)

    def test_r_squared(self):
        assert r_squared([1.0, 2.0, 3.0], [1.0, 2.0, 3.0]) == 1.0
        assert r_squared([2.0, 2.0, 2.0], [1.0, 2.0, 3.0]) == 0.0
        with pytest.raises(DegenerateSeriesError):
            r_squared([1.0, 1.0], [2.0, 2.0])
        with pytest.raises(LengthMismatchError):
            r_squared([1.0], [1.0, 2.0])


class TestRecoveryEndToEnd:
    def test_arima_314_single_seed(self):
        # one seed of the full-order recovery; the twenty-seed version with
        # the acceptance thresholds lives in the acceptance suite
        gamma = (-1.016, -0.877, -0.860)
        theta = (-1.323, -0.718, 0.324)
        rng = np.random.default_rng(0)
        n = 2000
        e = rng.standard_normal(n + 200)
        w = np.zeros(n + 200)
        for t in range(n + 200):
            acc = e[t]
            for i, g in enumerate(gamma, start=1):
                if t - i >= 0:
                    acc += g * w[t - i]
            for j, th in enumerate(theta, start=1):
                if t - j >= 0:
                    acc += th * e[t - j]
            w[t] = acc
        y = 30.0 + np.cumsum(w[200:])
        model, resid = rls_fit(y, ArimaOrder(3, 1, 4), 0.99)
        err = np.median(np.abs(np.array(model.ar_coeffs) - np.array(gamma)))
        assert err < 0.15
        _, white = whiteness_check(resid[250:], 20, n_params=7)
        assert white


@st.composite
def orders(draw):
    p, d, q = draw(st.integers(0, 4)), draw(st.integers(0, 2)), draw(st.integers(0, 4))
    assume(p + d + q >= 1)
    return ArimaOrder(p, d, q)


@st.composite
def high_ma_orders(draw):
    """MA orders 5..8, past what orders() draws."""
    return ArimaOrder(draw(st.integers(0, 4)), draw(st.integers(0, 2)), draw(st.integers(5, 8)))


@st.composite
def series(draw):
    """Constant, stepped, spiked (up to inf or nan), near-1e150 or
    random-walk series, with lengths on both sides of what a fit of order
    (4, 2, 4) needs."""
    n = draw(st.one_of(st.integers(1, 30), st.integers(80, 160)))
    kind = draw(st.sampled_from(["constant", "stepped", "spiked", "huge", "walk"]))
    base = draw(st.floats(-1e3, 1e3))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    if kind == "constant":
        return [base] * n
    if kind == "stepped":
        at = draw(st.integers(0, n))
        return [base] * at + [base + draw(st.floats(-1e6, 1e6))] * (n - at)
    if kind == "spiked":
        xs = [base] * n
        xs[draw(st.integers(0, n - 1))] = draw(st.sampled_from(
            [1e6, -1e12, 1e150, 1e300, math.inf, -math.inf, math.nan]))
        return xs
    if kind == "huge":
        return list(1e150 * (1.0 + 1e-3 * rng.standard_normal(n)))
    return list(base + np.cumsum(rng.standard_normal(n)))


def _same_outcome(call, reference):
    """Run both; they return the same value or raise the same error."""
    try:
        want = reference()
    except (ValueError, ArithmeticError) as err:
        with pytest.raises(type(err)) as got:
            call()
        assert str(got.value) == str(err)
        return None
    return call(), want


class TestExactness:
    """The vectorised fit and filters equal the scalar loops in
    tests/oracles.py to the last bit, signs of zero included."""

    @settings(max_examples=150, deadline=None)
    @given(xs=series(), order=orders(), lam=st.sampled_from([0.91, 0.95, 0.98, 0.99, 1.0]),
           k=st.integers(1, 12))
    def test_fit_and_its_predictions(self, xs, order, lam, k):
        with np.errstate(all="ignore"):
            out = _same_outcome(lambda: rls_fit(xs, order, lam),
                                lambda: reference_rls_fit(xs, order, lam))
            if out is None:
                return
            (model, resid), (want, want_resid) = out
            assert repr(model) == repr(want)
            assert np.array_equal(resid, want_resid)
            assert resid.tobytes() == want_resid.tobytes()
            for predict, reference in (
                    (astrom_predict, reference_astrom_predict),
                    (conditional_expectation_predict,
                     reference_conditional_expectation_predict)):
                out = _same_outcome(lambda: predict(model, xs, k),
                                    lambda: reference(model, xs, k))
                if out is not None:
                    assert repr(out[0]) == repr(out[1])

    @settings(max_examples=150, deadline=None)
    @given(xs=series(), order=orders(), k=st.integers(1, 12), mean=st.floats(-1e3, 1e3),
           ar=st.lists(st.floats(-3.0, 3.0), min_size=4, max_size=4),
           ma=st.one_of(st.lists(st.floats(-0.24, 0.24), min_size=4, max_size=4),
                        st.lists(st.floats(-3.0, 3.0), min_size=4, max_size=4)))
    def test_predictors_on_drawn_models(self, xs, order, k, mean, ar, ma):
        model = ArimaModel(order, ar[:order.p], ma[:order.q], mean, 1.0)
        with np.errstate(all="ignore"):
            for predict, reference in (
                    (astrom_predict, reference_astrom_predict),
                    (conditional_expectation_predict,
                     reference_conditional_expectation_predict)):
                out = _same_outcome(lambda: predict(model, xs, k),
                                    lambda: reference(model, xs, k))
                if out is not None:
                    assert repr(out[0]) == repr(out[1])

    @settings(max_examples=150, deadline=None)
    @given(xs=series(), order=high_ma_orders(), k=st.integers(1, 12),
           mean=st.floats(-1e3, 1e3),
           ar=st.lists(st.floats(-3.0, 3.0), min_size=4, max_size=4),
           ma=st.one_of(st.lists(st.floats(-0.12, 0.12), min_size=8, max_size=8),
                        st.lists(st.floats(-3.0, 3.0), min_size=8, max_size=8)))
    def test_predictors_above_ma_order_4(self, xs, order, k, mean, ar, ma):
        # the small MA draws (|c| summing below 1) keep C invertible; the
        # large ones mostly make both sides raise NoninvertibleMAError
        model = ArimaModel(order, ar[:order.p], ma[:order.q], mean, 1.0)
        with np.errstate(all="ignore"):
            for predict, reference in (
                    (astrom_predict, reference_astrom_predict),
                    (conditional_expectation_predict,
                     reference_conditional_expectation_predict)):
                out = _same_outcome(lambda: predict(model, xs, k),
                                    lambda: reference(model, xs, k))
                if out is not None:
                    assert repr(out[0]) == repr(out[1])

    def test_every_ma_order_on_short_spiked_and_negative_zero_histories(self):
        # q = 0..8 on histories of 1..q+2 samples (the warm-up alone, then
        # the per-q loop over one and two samples), on histories with an
        # inf or a nan, and on an all -0.0 history, at steps 1, 3 and q + 3
        # (past the last MA term and past the end of each short history)
        rng = np.random.default_rng(19)
        for q in range(9):
            ma = tuple(rng.uniform(-0.12, 0.12, q))
            models = (ArimaModel(ArimaOrder(1, 0, q), (0.4,), ma, 0.0, 1.0),
                      ArimaModel(ArimaOrder(2, 1, q), (0.3, -0.2), ma, -0.0, 1.0))
            histories = [list(rng.normal(0.0, 3.0, n)) for n in range(1, q + 3)]
            for spike in (math.inf, -math.inf, math.nan):
                xs = list(rng.normal(0.0, 3.0, q + 6))
                xs[q + 2] = spike
                histories.append(xs)
            histories.append([-0.0] * (q + 4))
            for model in models:
                for xs in histories:
                    for k in (1, 3, q + 3):
                        with np.errstate(all="ignore"):
                            assert (repr(astrom_predict(model, xs, k))
                                    == repr(reference_astrom_predict(model, xs, k)))
                            assert (repr(conditional_expectation_predict(model, xs, k))
                                    == repr(reference_conditional_expectation_predict(
                                        model, xs, k)))

    def test_inverse_c_past_the_compilers_recursion_limit(self):
        # at q = 3000 one subtraction chain per sample is too deep for the
        # compiler; the split chains give the per-tap loop's bits
        rng = np.random.default_rng(23)
        q, n = 3000, 3100
        c = np.concatenate(([1.0], rng.uniform(-1e-4, 1e-4, q)))
        u = rng.normal(0.0, 3.0, n)
        cs, z = c.tolist(), u.tolist()
        for t in range(1, n):
            acc = z[t]
            for j in range(1, min(t, q) + 1):
                acc -= cs[j] * z[t - j]
            z[t] = acc
        got = _inverse_c(u, c)
        assert np.array(got).tobytes() == np.array(z[-q:]).tobytes()


class TestPredictorMemo:
    """C and Abar are built once per model object and reused by later
    predictions from that object."""

    def test_equal_models_keep_their_own_zero_signs(self, monkeypatch):
        # the two models are equal under == but differ in a zero's sign;
        # each predicts from its own read-only polynomials, built once, and
        # every prediction matches the scalar references
        split = forecast.diophantine_split
        used = []

        def recording(c, abar, k):
            used.append((c, abar))
            return split(c, abar, k)

        monkeypatch.setattr(forecast, "diophantine_split", recording)
        y = _integrated_arma_series(0)[:200]
        plus = ArimaModel(ArimaOrder(2, 1, 2), (0.4, -0.2), (0.3, 0.0), 0.05, 1.0)
        minus = ArimaModel(ArimaOrder(2, 1, 2), (0.4, -0.2), (0.3, -0.0), 0.05, 1.0)
        assert plus == minus
        for model in (plus, minus):
            used.clear()
            for k in range(1, 7):
                assert (repr(astrom_predict(model, y, k))
                        == repr(reference_astrom_predict(model, y, k)))
                assert (repr(conditional_expectation_predict(model, y, k))
                        == repr(reference_conditional_expectation_predict(model, y, k)))
            # astrom_predict's six splits all got the one pair of arrays
            c, abar = used[0]
            assert len(used) == 6
            assert all(got[0] is c and got[1] is abar for got in used)
            assert np.signbit(c[2]) == (model is minus)
            for poly in (c, abar):
                with pytest.raises(ValueError):
                    poly[0] = 2.0

    def test_noninvertible_raises_on_every_call(self):
        model = ArimaModel(ArimaOrder(1, 0, 1), (0.5,), (1.0,), 0.0, 1.0)  # root on circle
        for _ in range(3):
            for predict in (astrom_predict, conditional_expectation_predict):
                with pytest.raises(NoninvertibleMAError):
                    predict(model, [1.0, 2.0, 3.0], 2)


class TestFiniteFits:
    def test_flip_overflow_raises(self):
        # a root of modulus 1e-160 scales the variance by 1e320
        with np.errstate(all="ignore"):
            with pytest.raises(NumericalBreakdownError):
                _flip_inside_ma_roots(np.array([1e160]), 1e10)

    @settings(max_examples=150, deadline=None)
    @given(xs=st.one_of(series(), st.lists(st.floats(), min_size=1, max_size=100)),
           order=orders(), lam=st.floats(0.9, 1.0, exclude_min=True))
    # an MA coefficient of about 1e-310, whose root overflows np.roots
    @example(xs=[0.0] + [1.377372625795722e-159] * 9, order=ArimaOrder(0, 0, 1), lam=1.0)
    def test_fit_is_finite_or_raises(self, xs, order, lam):
        try:
            with np.errstate(all="ignore"):
                model, resid = rls_fit(xs, order, lam)
        except (NumericalBreakdownError, SeriesTooShortError):
            return
        assert all(map(math.isfinite, model.ar_coeffs + model.ma_coeffs))
        assert math.isfinite(model.series_mean)
        assert math.isfinite(model.noise_variance)
        assert np.isfinite(resid).all()

    def test_covariance_stats(self):
        y = _integrated_arma_series(0)[:300]
        stats = {}
        rls_fit(y, ArimaOrder(3, 1, 4), 0.99, stats)
        assert set(stats) == {"covariance_trace", "covariance_condition"}
        assert 0.0 < stats["covariance_trace"] < 7e6
        assert 1.0 <= stats["covariance_condition"] < math.inf
        bare = {}
        rls_fit(y, ArimaOrder(0, 1, 0), 0.99, bare)
        assert bare == {}


def _uniform_integers(seed: int, scale: int, n: int) -> list[float]:
    return [float(v) for v in np.random.default_rng(seed).integers(0, scale, n)]


def _spiked(at: int, value: float) -> list[float]:
    xs = [float(t % 7) for t in range(40)]
    xs[at] = value
    return xs


@st.composite
def hard_series(draw):
    """Integer series at scales 10^4..10^12, +-1e200 alternations, and
    integer series with one nan, inf, -0.0, subnormal or overflowing
    spike."""
    # three in four are long enough for every order that orders() draws
    n = draw(st.integers(80, 120)) if draw(st.integers(0, 3)) else draw(st.integers(1, 30))
    kind = draw(st.sampled_from(["integers", "alternating", "spiked"]))
    if kind == "alternating":
        sign = draw(st.sampled_from([1.0, -1.0]))
        return [sign * 1e200 * (-1.0) ** t for t in range(n)]
    xs = _uniform_integers(draw(st.integers(0, 2 ** 32 - 1)),
                           10 ** draw(st.integers(4, 12)), n)
    if kind == "spiked":
        xs[draw(st.integers(0, n - 1))] = draw(st.sampled_from(
            [math.nan, math.inf, -math.inf, -0.0, 5e-324, 1e-310, 1e153, 1e160]))
    return xs


def _fit_outcome(fit, xs, order, lam, mode):
    """fit's model repr and residual bytes, or its error's type and message,
    with the warnings it raised: under warnings filter "always", under
    "error", or under "always" inside np.errstate(all="ignore")."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("error" if mode == "error" else "always")
        try:
            with np.errstate(all="ignore") if mode == "ignore" else contextlib.nullcontext():
                model, resid = fit(xs, order, lam)
            outcome = (repr(model), resid.tobytes())
        except (ValueError, ArithmeticError, RuntimeWarning) as err:
            outcome = (type(err), str(err))
    return outcome, [(w.category, str(w.message)) for w in caught]


def _count_passes(monkeypatch) -> list[bool]:
    """Record the checked flag of every _rls_pass call from here on."""
    passes = []
    real = forecast._rls_pass

    def counting(w, p, dim, lam, checked):
        passes.append(checked)
        return real(w, p, dim, lam, checked)

    monkeypatch.setattr(forecast, "_rls_pass", counting)
    return passes


@st.composite
def healthy_series(draw):
    """Integer series at scales 10..10^6 and random walks, long enough for
    every order that orders() draws."""
    n = draw(st.integers(80, 160))
    seed = draw(st.integers(0, 2 ** 32 - 1))
    if draw(st.booleans()):
        return _uniform_integers(seed, 10 ** draw(st.integers(1, 6)), n)
    return list(np.cumsum(np.random.default_rng(seed).standard_normal(n)))


class TestHealthCheck:
    """rls_fit checks the fit's health once per fit and reruns the checked
    loop on trouble; its outcome and warnings equal the per-sample checks
    of tests/oracles.py in every warning and error mode."""

    @settings(max_examples=200, deadline=None)
    @given(xs=hard_series(), order=orders(), lam=st.sampled_from([0.91, 0.95, 0.98, 0.99, 1.0]))
    # a diagonal of P dips to <= 0 at sample 5 and recovers by the end
    @example(xs=_uniform_integers(0, 10 ** 6, 50), order=ArimaOrder(3, 0, 2), lam=0.98)
    # the denominator overflows and the fit completes
    @example(xs=_spiked(10, 1e153), order=ArimaOrder(1, 0, 0), lam=0.98)
    # overflows, then a non-finite estimate at sample 5
    @example(xs=_spiked(5, 1e160), order=ArimaOrder(2, 1, 2), lam=0.98)
    @example(xs=_spiked(10, math.nan), order=ArimaOrder(2, 1, 2), lam=0.98)
    @example(xs=_spiked(10, math.inf), order=ArimaOrder(2, 0, 2), lam=0.98)
    def test_outcome_and_warnings_match_per_sample_checks(self, xs, order, lam):
        for mode in ("always", "error", "ignore"):
            assert (_fit_outcome(rls_fit, xs, order, lam, mode)
                    == _fit_outcome(reference_rls_fit, xs, order, lam, mode))

    def test_fixed_examples_take_the_paths_they_stand_for(self, monkeypatch):
        passes = _count_passes(monkeypatch)
        dip = _fit_outcome(rls_fit, _uniform_integers(0, 10 ** 6, 50),
                           ArimaOrder(3, 0, 2), 0.98, "always")
        assert dip == ((NumericalBreakdownError,
                        "covariance lost positive-definiteness at sample 5"), [])
        assert passes == [False, True]
        passes.clear()
        (model, _), caught = _fit_outcome(rls_fit, _spiked(10, 1e153),
                                          ArimaOrder(1, 0, 0), 0.98, "always")
        assert model.startswith("ArimaModel(")
        assert caught and all(w == (RuntimeWarning, "overflow encountered in matmul")
                              for w in caught)
        assert passes == [False, True]

    @settings(max_examples=150, deadline=None)
    @given(xs=healthy_series(), order=orders(),
           lam=st.sampled_from([0.91, 0.95, 0.98, 0.99, 1.0]))
    def test_first_pass_equals_checked_pass_bit_for_bit(self, xs, order, lam):
        # the first pass takes its products with ndarray.dot and the
        # checked one with np.matmul; a fit that passes its health check
        # must not depend on which ran
        w, _ = difference(np.asarray(xs), order.d)
        w = w - float(w.mean())
        p, dim = order.p, order.p + order.q
        assume(dim > 0)
        try:
            with np.errstate(all="raise"):
                first = forecast._rls_pass(w, p, dim, lam, False)
        except FloatingPointError:
            first = None
        assume(first is not None)
        checked = forecast._rls_pass(w, p, dim, lam, True)
        assert [a.tobytes() for a in first] == [a.tobytes() for a in checked]

    @pytest.mark.parametrize("event, a, b", [("overflow", 1e200, 1e200),
                                             ("underflow", 1e-200, 1e-200),
                                             ("invalid", math.inf, 0.0)])
    def test_ndarray_dot_raises_on_floating_point_events(self, event, a, b):
        # the first pass reruns on exactly the events np.matmul would raise
        # on only if ndarray.dot reports them too, matrix-vector into out=
        # and vector-vector alike
        x = np.full(4, b)
        with np.errstate(all="raise"):
            with pytest.raises(FloatingPointError, match=event):
                np.full((4, 4), a).dot(x, out=np.zeros(4))
            with pytest.raises(FloatingPointError, match=event):
                np.full(4, a).dot(x)

    def test_real_fits_never_take_the_checked_pass(self, monkeypatch):
        passes = _count_passes(monkeypatch)
        # gate 6's series, then README step 4's history
        for seed in range(20):
            rls_fit(_integrated_arma_series(seed), ArimaOrder(3, 1, 4), 0.99)
        rls_fit(gen_demand(104, 17, 5, 0.3).values, ArimaOrder(3, 1, 4), 0.98)
        assert passes == [False] * 21
