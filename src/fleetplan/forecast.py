"""Adaptive demand forecasting: recursive least squares with a forgetting
factor, minimum-variance k-step prediction, and residual diagnostics.

Model convention.  After d-fold differencing and centering, the series
w(t) follows

    w(t) = sum_i ar[i] * w(t-i)  +  e(t)  +  sum_j ma[j] * e(t-j)

so in back-shift form A(B) w(t) = C(B) e(t) with A(B) = 1 - ar_1 B - ...
and C(B) = 1 + ma_1 B + ....  The location parameter is the mean of the
differenced series, i.e. the drift per step when d >= 1 and the plain
mean when d = 0; predictors subtract the polynomial trend mu * comb(t, d)
(whose d-th difference is exactly mu) and restore it afterwards.
Coefficients are estimated jointly by extended RLS (lagged residual
estimates stand in for the unobservable noise).  The k-step predictor
solves the polynomial identity

    C(B) = A(B) * (1-B)^d * F(B) + B^k * G(B),   deg F = k - 1,

and filters the detrended history through G/C; a second predictor, the
conditional-expectation recursion (future noise zeroed), must agree with
it to high precision and both are exported.

Bit-identity contract.  Each filter runs in two stages: its FIR part as
one whole-array numpy pass per coefficient, adding the coefficient's
term onto every sample in the order a scalar loop would, then its
recursive 1/C part in plain Python floats over lists, subtracting the C
terms in lag order.  Past the first q samples that recursion is one
loop compiled once per MA order q, whose body is a single straight-line
statement per sample (up to 200 taps; see _recursion), for q = 2

    z2, z1, = z1, v - c1*z1 - c2*z2,

with the last q outputs held in locals: the same subtractions in the
same lag order, only without the per-tap inner loop.  Elementwise IEEE
arithmetic in the same order gives the same bits as the per-sample
scalar loops the equations describe (tests/oracles.py keeps those
loops, and the tests require equal results, signed zeros, infs and nans
included), so no output changes with the speed.  Sum-reordering forms
(np.convolve, lfilter, closed forms) would break that.  Both predictors
share the preamble and the 1/C recursion; each keeps its own FIR pass.
A fault in the shared part would pass through both predictors alike, so
their agreement does not check it: the scalar loops of tests/oracles.py,
which share no code with this module, do.

Fit health, checked once per fit.  rls_fit first runs its update loop
inside np.errstate(all="raise"), keeping per sample only a running
minimum of the covariance's diagonal and the residual's finiteness, and
checks once at the end that P and theta are finite and that the minimum
is positive.  That is exact: an inf or nan in P or theta stays
non-finite through every later update, so the end check sees it
whenever it arose, while a diagonal entry can dip to zero and recover,
hence the running minimum.  A floating-point event (overflow, divide,
invalid, underflow), a non-finite residual or a failed end check reruns
the same loop from the start with the per-sample checks, in the
caller's error state: it raises NumericalBreakdownError at the same
sample with the same warnings as a fit checked throughout, or returns
the same fit.  A fit that breaks down pays one extra pass.  The first
pass takes its products with ndarray.dot, which costs about half of
np.matmul per call, and the rerun with np.matmul, so its warnings read
"encountered in matmul" like those of a fit checked throughout.  That is
exact: both reach the same BLAS routines on the same operands and give
the same bits, and inside np.errstate(all="raise") ndarray.dot raises on
overflow, underflow and invalid as np.matmul does, so the first pass
reruns on the same events.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import islice
from pathlib import Path

import numpy as np

from .domain import DemandSeries, NumericalBreakdownError, round_half_up


class SeriesTooShortError(ValueError):
    """Not enough samples to support the requested model order."""


class LengthMismatchError(ValueError):
    """Paired vectors differ in length."""


class DegenerateSeriesError(ValueError):
    """A statistic is undefined on a constant series."""


class NoninvertibleMAError(ValueError):
    """The moving-average polynomial has a root on or inside the unit circle."""


@dataclass(frozen=True)
class ArimaOrder:
    """(p, d, q); at least one of the three must be positive."""

    p: int
    d: int
    q: int

    def __post_init__(self):
        if self.p < 0 or self.d < 0 or self.q < 0:
            raise ValueError(f"order components must be >= 0, got {self}")
        if self.p + self.d + self.q < 1:
            raise ValueError("order (0,0,0) is degenerate; need p + d + q >= 1")


@dataclass(frozen=True)
class ArimaModel:
    """Fitted coefficients plus the location parameter.

    series_mean is the mean of the d-times differenced series: the plain
    sample mean when d = 0 and the drift per step when d >= 1.  Predictor
    routines remove the matching polynomial trend from the history and
    add it back at the predicted index, which is what lets a pure random
    walk with drift extend at its drift rate.
    """

    order: ArimaOrder
    ar_coeffs: tuple[float, ...]
    ma_coeffs: tuple[float, ...]
    series_mean: float
    noise_variance: float

    def __post_init__(self):
        if len(self.ar_coeffs) != self.order.p or len(self.ma_coeffs) != self.order.q:
            raise ValueError("coefficient counts must match the model order")
        object.__setattr__(self, "ar_coeffs", tuple(float(v) for v in self.ar_coeffs))
        object.__setattr__(self, "ma_coeffs", tuple(float(v) for v in self.ma_coeffs))

    @cached_property
    def _predictor_polys(self) -> tuple[np.ndarray, np.ndarray]:
        """(C, checked invertible, and Abar), read-only, built on the first
        prediction from this model object and kept with it.

        The memo belongs to the object, not to its value: models equal under
        == can differ in the sign of a zero coefficient, which the filters
        carry.  A NoninvertibleMAError is raised and never stored, so every
        call raises it again.
        """
        c = _poly_c(self)
        _check_invertible(c)
        abar = _poly_a(self)
        c.flags.writeable = abar.flags.writeable = False
        return c, abar


def difference(series, d: int) -> tuple[np.ndarray, list[float]]:
    """Apply d first differences; returns (differenced, initial_values).

    initial_values[j] is the first element of the j-times differenced
    series, exactly what integrate() needs to undo the transform.
    """
    x = np.asarray(series, dtype=float)
    if d < 0:
        raise ValueError(f"d must be >= 0, got {d}")
    if len(x) <= d:
        raise SeriesTooShortError(f"need more than {d} samples to difference {d} times")
    initials = []
    for _ in range(d):
        initials.append(float(x[0]))
        x = np.diff(x)
    return x, initials


def integrate(diffed, initial_values, d: int) -> np.ndarray:
    """Exact inverse of difference(); integer inputs round-trip exactly."""
    x = np.asarray(diffed, dtype=float)
    if d < 0:
        raise ValueError(f"d must be >= 0, got {d}")
    if len(initial_values) != d:
        raise LengthMismatchError(
            f"need {d} initial values to integrate {d} times, got {len(initial_values)}")
    for j in range(d - 1, -1, -1):
        x = np.concatenate(([initial_values[j]], initial_values[j] + np.cumsum(x)))
    return x


def _variance(resid: np.ndarray) -> float:
    out = float(np.mean(resid * resid))
    if not np.isfinite(out):
        raise NumericalBreakdownError("residual variance overflowed")
    return out


def rls_fit(series, order: ArimaOrder, forgetting_factor: float = 0.98,
            stats: dict | None = None) -> tuple[ArimaModel, np.ndarray]:
    """Fit by extended recursive least squares on the differenced, centered
    series; returns the model and the in-sample residuals.

    The regressor at time t is [w(t-1)..w(t-p), e(t-1)..e(t-q)] with the
    residual estimates refreshed after each parameter update.  Lags that
    reach before the start of the sample are taken as zero.  The regressor
    is a shift register updated in place after each sample, which holds
    the same values as one built from the lags each sample, so the fit
    matches the scalar form to the last bit.  stats, if given, receives
    the final covariance's trace and 2-norm condition number (nothing when
    p = q = 0, which fits no coefficients).

    Health is checked once per fit, after a pass that raises on any
    floating-point event; on trouble the fit reruns with a check after
    every sample, which raises NumericalBreakdownError where the
    covariance stops being finite or positive on its diagonal, or the
    estimates stop being finite (see the module docstring).
    """
    if not (0.9 < forgetting_factor <= 1.0):
        raise ValueError(
            f"forgetting factor must lie in (0.9, 1], got {forgetting_factor}")
    x = np.asarray(series, dtype=float)
    p, dim = order.p, order.p + order.q
    if len(x) < max(10 * dim, order.d + 2):
        raise SeriesTooShortError(
            f"need at least {max(10 * dim, order.d + 2)} samples for order "
            f"({order.p},{order.d},{order.q}), got {len(x)}")
    w, _ = difference(x, order.d)
    mean = float(w.mean())
    w = w - mean

    if dim == 0:
        # nothing to estimate: the differenced series is bare noise
        model = ArimaModel(order, (), (), mean, _variance(w))
        return model, w.copy()

    # the checked rerun runs outside the errstate block, so it warns or
    # raises as the caller's error state says, as a fit checked throughout
    try:
        with np.errstate(all="raise"):
            fit = _rls_pass(w, p, dim, forgetting_factor, checked=False)
    except FloatingPointError:
        fit = None
    if fit is None:
        fit = _rls_pass(w, p, dim, forgetting_factor, checked=True)
    theta, P, resid = fit

    if stats is not None:
        stats["covariance_trace"] = float(np.trace(P))
        stats["covariance_condition"] = float(np.linalg.cond(P))
    ma, noise_variance = _flip_inside_ma_roots(theta[order.p:], _variance(resid))
    model = ArimaModel(order, tuple(theta[:order.p]), tuple(ma), mean, noise_variance)
    return model, resid


def _rls_pass(w: np.ndarray, p: int, dim: int, lam: float, checked: bool,
              ) -> tuple[np.ndarray, np.ndarray, np.ndarray] | None:
    """One extended-RLS pass over the centered series w; returns
    (theta, P, resid).

    checked=True checks the fit's health after every sample and raises
    NumericalBreakdownError at the first sample where P is non-finite or
    has a diagonal entry <= 0, or theta or the residual is non-finite.
    checked=False keeps only a running minimum of P's diagonal and the
    residual's finiteness per sample, and checks P and theta for
    finiteness and the minimum for positivity once at the end; it returns
    None at a non-finite residual or a failed end check.  Both run the
    same update, so a pass that returns gives the same bits either way;
    checked=False takes its products with ndarray.dot and checked=True
    with np.matmul, which reach the same BLAS routines (see the module
    docstring).
    """
    theta = np.zeros(dim)  # [ar_1..ar_p, ma_1..ma_q]
    P = np.eye(dim) * 1e6
    resid = np.zeros(len(w))
    phi = np.zeros(dim)
    # every update below writes in place, so the views taken here (P's
    # transpose, its flat form and its diagonal as a strided slice of it,
    # gain as a column) follow the arrays, and the scratch arrays are
    # allocated once per pass
    Pphi, gain, step = np.zeros(dim), np.zeros(dim), np.zeros(dim)
    outer = np.zeros((dim, dim))
    PT, flat, gain_col = P.T, P.reshape(-1), gain[:, None]
    diag = flat[::dim + 1]
    low = diag.copy()
    dot = np.matmul if checked else np.ndarray.dot
    multiply, divide, minimum = np.multiply, np.divide, np.minimum
    isfinite, every, some = np.isfinite, np.logical_and.reduce, np.logical_or.reduce
    for t, w_t in enumerate(w.tolist()):
        dot(P, phi, out=Pphi)
        denom = lam + float(dot(phi, Pphi))
        divide(Pphi, denom, out=gain)
        err = w_t - float(dot(phi, theta))
        theta += multiply(gain, err, out=step)
        # P = ((P - gain Pphi^T) / lam + its transpose) / 2, element for
        # element the same operations as the expression written out
        np.subtract(P, multiply(gain_col, Pphi, out=outer), out=P)
        divide(P, lam, out=P)
        divide(np.add(P, PT, out=outer), 2.0, out=P)
        if not checked:
            minimum(low, diag, out=low)
        elif not every(isfinite(flat)) or some(diag <= 0):
            raise NumericalBreakdownError(
                f"covariance lost positive-definiteness at sample {t}")
        e_t = w_t - float(dot(phi, theta))
        resid[t] = e_t
        if not checked:
            if not math.isfinite(e_t):
                return None
        elif not (every(isfinite(theta)) and math.isfinite(e_t)):
            raise NumericalBreakdownError(f"estimate lost finiteness at sample {t}")
        # one shift moves both lag blocks; it carries w(t-p) into slot p,
        # which e_t overwrites when q > 0
        phi[1:] = phi[:-1]
        if p:
            phi[0] = w_t
        if p < dim:
            phi[p] = e_t
    if not checked and not (every(isfinite(flat)) and every(isfinite(theta))
                            and every(low > 0)):
        return None
    return theta, P, resid


def _flip_inside_ma_roots(ma: np.ndarray, noise_variance: float,
                          ) -> tuple[np.ndarray, float]:
    """Move each root z of C(B) strictly inside the unit circle to 1/conj(z).

    Scaling the noise variance by |z|^-2 per flipped root keeps the MA
    part's autocovariances, so the process is the same while the
    predictors, which need an invertible C, can run (Brockwell & Davis,
    Time Series: Theory and Methods, on invertibility).  Fits with no root
    inside come back untouched; roots on the circle are left to raise.
    """
    c = np.concatenate(([1.0], ma))
    try:
        roots = np.roots(c[::-1])
    except np.linalg.LinAlgError:  # a coefficient so small its root overflows
        raise NumericalBreakdownError("an MA root overflowed the float range") from None
    inside = np.abs(roots) < 1.0
    if not np.any(inside):
        return ma, noise_variance
    roots = np.where(inside, 1.0 / np.conj(roots), roots)
    flipped = np.real(np.poly(roots))[::-1]  # constant term first
    out = np.zeros(len(ma))
    out[:len(flipped) - 1] = flipped[1:] / flipped[0]
    noise_variance = noise_variance * float(np.prod(np.abs(roots[inside]) ** 2))
    # a root near zero scales the variance past the float range
    if not (np.isfinite(out).all() and math.isfinite(noise_variance)):
        raise NumericalBreakdownError("flipping the MA roots overflowed the noise variance")
    return out, noise_variance


def _poly_a(model: ArimaModel) -> np.ndarray:
    """A(B)*(1-B)^d coefficient vector, constant term first."""
    a = np.concatenate(([1.0], -np.asarray(model.ar_coeffs, dtype=float)))
    for _ in range(model.order.d):
        a = np.convolve(a, [1.0, -1.0])
    return a


def _poly_c(model: ArimaModel) -> np.ndarray:
    return np.concatenate(([1.0], np.asarray(model.ma_coeffs, dtype=float)))


def _check_invertible(c: np.ndarray) -> None:
    trimmed = np.trim_zeros(c, "b")
    if len(trimmed) <= 1:
        return
    roots = np.roots(trimmed[::-1])
    bad = np.abs(roots) <= 1.0
    if np.any(bad):
        raise NoninvertibleMAError(
            f"moving-average roots {np.abs(roots[bad])} not outside the unit circle")


def diophantine_split(c: np.ndarray, abar: np.ndarray, k: int,
                      ) -> tuple[np.ndarray, np.ndarray]:
    """Solve C = abar * F + B^k * G with deg F = k - 1.

    Long-division style: F's coefficients come from matching powers
    B^0..B^(k-1), then G is the remainder shifted down by k.  The split
    is verified to 1e-9 before returning; NumericalBreakdownError if it
    fails.
    """
    if k < 1:
        raise ValueError(f"prediction step must be >= 1, got {k}")
    f = np.zeros(k)
    for j in range(k):
        acc = c[j] if j < len(c) else 0.0
        for i in range(1, min(j, len(abar) - 1) + 1):
            acc -= abar[i] * f[j - i]
        f[j] = acc  # abar[0] == 1
    prod = np.convolve(abar, f)
    width = max(len(c), len(prod))
    rem = np.zeros(width)
    rem[:len(c)] += c
    rem[:len(prod)] -= prod
    if np.max(np.abs(rem[:k])) > 1e-9:
        # high differencing orders and far steps make F's terms too large
        # for the low powers to cancel in floating point
        raise NumericalBreakdownError("polynomial split lost the low-order terms")
    g = rem[k:]
    if len(g) == 0:
        g = np.zeros(1)
    return f, g


def _trend(mu: float, d: int, t: np.ndarray) -> np.ndarray:
    """mu * comb(t, d): the polynomial whose d-th difference is the constant mu.

    With d = 0 this is the constant mu, so detrending by it is plain
    mean-centering; with d >= 1 it carries the per-step drift.
    """
    out = np.full(t.shape, mu, dtype=float)
    for i in range(d):
        out *= (t - i) / (i + 1)
    return out


def _detrended(model: ArimaModel, history, k: int,
               ) -> tuple[np.ndarray, np.floating, np.ndarray, np.ndarray]:
    """The preamble both predictors share: checks the step and the history
    and returns the history less its trend, the trend at the predicted
    index, and the model's C and Abar (see ArimaModel._predictor_polys)."""
    if k < 1:
        raise ValueError(f"prediction step must be >= 1, got {k}")
    y = np.asarray(history, dtype=float)
    if len(y) == 0:
        raise SeriesTooShortError("history is empty")
    trend = _trend(model.series_mean, model.order.d,
                   np.arange(len(y) + k, dtype=float))
    y = y - trend[:len(y)]
    c, abar = model._predictor_polys
    return y, trend[-1], c, abar


# the most taps in one subtraction chain: the compiler recurses once per
# operator of a chain, and a 3000-tap chain raises RecursionError
_CHAIN_TAPS = 200


@lru_cache(maxsize=None)
def _recursion(q: int):
    """The 1/C loop past the first q samples, for MA order q >= 1:
    z(t) = u(t) - c_1 z(t-1) - ... - c_q z(t-q) as one statement per
    sample over locals z1..zq (z1 the latest), which returns the last q
    outputs in time order.  The source is built from q alone.  Past
    _CHAIN_TAPS taps the chain is split into statements that carry the
    running value in t (t = v - c1*z1 - ..., then t = t - ...), the same
    subtractions in the same order."""
    zs = ", ".join(f"z{j}" for j in range(q, 0, -1))
    cs = ", ".join(f"c{j}" for j in range(1, q + 1))
    taps = [f" - c{j}*z{j}" for j in range(1, q + 1)]
    chains = ["".join(taps[i:i + _CHAIN_TAPS]) for i in range(0, q, _CHAIN_TAPS)]
    heads = ["v"] + ["t"] * (len(chains) - 1)
    partial = "".join(f"        t = {head}{chain}\n" for head, chain in zip(heads, chains[:-1]))
    new = heads[-1] + chains[-1]
    shifted = "".join(f"z{j}, " for j in range(q - 1, 0, -1))
    source = (f"def recursion(values, {cs}):\n"
              f"    {zs}, = values[:{q}]\n"
              f"    for v in islice(values, {q}, None):\n"
              f"{partial}"
              f"        {zs}, = {shifted}{new},\n"
              f"    return {zs},\n")
    namespace = {"islice": islice}
    exec(compile(source, f"<1/C recursion q={q}>", "exec"), namespace)
    return namespace["recursion"]


def _inverse_c(u: np.ndarray, c: np.ndarray) -> tuple[float, ...]:
    """Filter u through 1/C with zero pre-sample state, in plain floats:
    z(t) = u(t) - c_1 z(t-1) - ... - c_q z(t-q).  Returns the last
    max(1, min(q, n)) outputs in time order, all a prediction reads.

    The first q samples skip the lags before the start rather than
    multiply zeros, which could flip the sign of a zero; past them runs
    the compiled loop for q.
    """
    z = u.tolist()
    cs = c.tolist()
    q, n = len(cs) - 1, len(z)
    for t in range(1, min(q, n)):
        acc = z[t]
        for j in range(1, t + 1):
            acc -= cs[j] * z[t - j]
        z[t] = acc
    if 0 < q < n:
        return _recursion(q)(z, *cs[1:])
    return tuple(z[-max(q, 1):])


def astrom_predict(model: ArimaModel, history, k: int) -> float:
    """Minimum-variance k-step prediction via the polynomial split.

    Filters the detrended history through G/C with zero pre-sample state,
    G as whole-array passes and 1/C as a plain-float recursion, past the
    first q samples one compiled straight-line loop (see the module
    docstring); the trend is added back at the predicted index.  Raises
    NoninvertibleMAError when the MA polynomial's roots are not strictly
    outside the unit circle.
    """
    y, trend_k, c, abar = _detrended(model, history, k)
    _, g = diophantine_split(c, abar, k)
    n = len(y)
    # G part: one whole-array pass per coefficient, adding g_j y(t-j) in
    # j order onto 0.0, the scalar sum's order for every t; a term that
    # overflows leaves an inf (or a nan, once infs of both signs meet),
    # which extend_demand reports as a non-finite prediction
    u = np.zeros(n)
    with np.errstate(over="ignore", invalid="ignore"):
        for j in range(min(len(g), n)):
            u[j:] += g[j] * y[:n - j]
    return float(_inverse_c(u, c)[-1] + trend_k)


def conditional_expectation_predict(model: ArimaModel, history, k: int) -> float:
    """The same k-step prediction by explicit recursion: estimate the noise
    over the history, then roll the model forward with future noise zeroed.

    A cross-check on astrom_predict; the two must agree to within
    numerical noise.  The noise estimate is y filtered through Abar/C:
    the A part as whole-array passes from y, in its own code, then the
    1/C recursion astrom_predict uses.
    """
    y, trend_k, c, abar = _detrended(model, history, k)
    n = len(y)
    # AR part of the noise estimate: y(t) + abar_1 y(t-1) + ..., one
    # whole-array pass per coefficient in i order, starting from y itself
    # (adding onto 0.0 would turn a -0.0 sample into +0.0); an overflow
    # leaves a non-finite value, as in astrom_predict
    u = y.copy()
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(1, min(len(abar), n)):
            u[i:] += abar[i] * y[:n - i]
    tail = _inverse_c(u, c)
    cs = c.tolist()
    ab = abar.tolist()
    # the roll reads y(n-1+h-i) for i < len(ab) and no sample before the
    # start, so it keeps only the last len(ab) - 1 samples, y(n-1) at last
    ext = y[max(n - len(ab) + 1, 0):].tolist()
    last = len(ext) - 1
    for h in range(1, k + 1):
        acc = 0.0
        for i in range(1, min(len(ab), last + h + 1)):
            acc -= ab[i] * ext[last + h - i]
        # the noise e(n-1+h-j) is tail[h-1-j] for h <= j <= n-1+h; future
        # noise, j < h, has expectation zero
        for j in range(h, min(len(cs) - 1, n - 1 + h) + 1):
            acc += cs[j] * tail[h - 1 - j]
        ext.append(acc)
    return float(ext[-1] + trend_k)


def forecast_demand(series: DemandSeries, order: ArimaOrder, horizon: int,
                    forgetting_factor: float = 0.98) -> DemandSeries:
    """Fit on the observed demand and extend it horizon weeks ahead.

    Predictions are rounded half-up and clamped at zero so the output is
    again a demand series.
    """
    model, _ = rls_fit(series.values, order, forgetting_factor)
    return extend_demand(model, series, horizon)


def extend_demand(model: ArimaModel, series: DemandSeries, horizon: int) -> DemandSeries:
    """The 1..horizon-step predictions of a fitted model, rounded half-up
    and clamped at zero; a prediction that overflowed raises
    NumericalBreakdownError."""
    if horizon < 1:
        raise ValueError(f"horizon must be >= 1, got {horizon}")
    out = []
    for k in range(1, horizon + 1):
        pred = astrom_predict(model, series.values, k)
        if not math.isfinite(pred):
            raise NumericalBreakdownError(f"the {k}-step prediction is {pred}")
        out.append(max(0, round_half_up(pred)))
    return DemandSeries(tuple(out))


def acf(series, max_lag: int) -> np.ndarray:
    """Sample autocorrelation, lags 0..max_lag (biased normalization)."""
    x = np.asarray(series, dtype=float)
    if len(x) <= max_lag:
        raise SeriesTooShortError(f"need more than {max_lag} samples, got {len(x)}")
    if max_lag < 0:
        raise ValueError("max_lag must be >= 0")
    x = x - x.mean()
    denom = float(x @ x)
    if denom == 0.0:
        raise DegenerateSeriesError("autocorrelation undefined on a constant series")
    out = np.empty(max_lag + 1)
    for k in range(max_lag + 1):
        out[k] = float(x[k:] @ x[:len(x) - k]) / denom if k else 1.0
    return out


def pacf(series, max_lag: int) -> np.ndarray:
    """Partial autocorrelation via the Durbin-Levinson recursion; lag 0 is 1."""
    r = acf(series, max_lag)
    out = np.empty(max_lag + 1)
    out[0] = 1.0
    if max_lag == 0:
        return out
    phi = np.zeros((max_lag + 1, max_lag + 1))
    phi[1, 1] = r[1]
    out[1] = r[1]
    for m in range(2, max_lag + 1):
        num = r[m] - sum(phi[m - 1, j] * r[m - j] for j in range(1, m))
        den = 1.0 - sum(phi[m - 1, j] * r[j] for j in range(1, m))
        phi[m, m] = num / den if den != 0.0 else 0.0
        for j in range(1, m):
            phi[m, j] = phi[m - 1, j] - phi[m, m] * phi[m - 1, m - j]
        out[m] = phi[m, m]
    return out


# 95th percentile of the chi-square distribution, df 1..50
CHI2_95 = {
    1: 3.841459, 2: 5.991465, 3: 7.814728, 4: 9.487729, 5: 11.070498,
    6: 12.591587, 7: 14.067140, 8: 15.507313, 9: 16.918978, 10: 18.307038,
    11: 19.675138, 12: 21.026070, 13: 22.362032, 14: 23.684791, 15: 24.995790,
    16: 26.296228, 17: 27.587112, 18: 28.869299, 19: 30.143527, 20: 31.410433,
    21: 32.670573, 22: 33.924438, 23: 35.172462, 24: 36.415029, 25: 37.652484,
    26: 38.885139, 27: 40.113272, 28: 41.337138, 29: 42.556968, 30: 43.772972,
    31: 44.985343, 32: 46.194260, 33: 47.399884, 34: 48.602367, 35: 49.801850,
    36: 50.998460, 37: 52.192320, 38: 53.383541, 39: 54.572228, 40: 55.758479,
    41: 56.942387, 42: 58.124038, 43: 59.303512, 44: 60.480887, 45: 61.656233,
    46: 62.829620, 47: 64.001112, 48: 65.170769, 49: 66.338649, 50: 67.504807,
}


def whiteness_check(residuals, max_lag: int, n_params: int = 0,
                    ) -> tuple[float, bool]:
    """Portmanteau whiteness test at the 5% level.

    Q = n(n+2) * sum_k acf_k^2 / (n-k) over lags 1..max_lag, compared to
    the chi-square critical value with max_lag - n_params degrees of
    freedom (n_params = fitted AR+MA coefficient count).  All-zero
    residuals count as white by convention.
    """
    x = np.asarray(residuals, dtype=float)
    if max_lag < 1:
        raise ValueError("max_lag must be >= 1")
    if len(x) <= max_lag:
        raise SeriesTooShortError(f"need more than {max_lag} samples, got {len(x)}")
    df = max_lag - n_params
    if df < 1:
        raise ValueError(f"max_lag must exceed the fitted parameter count ({n_params})")
    if df not in CHI2_95:
        raise ValueError(f"no critical value tabulated for df={df}")
    if float(np.max(np.abs(x - x[0]))) == 0.0 and float(x[0]) == 0.0:
        return 0.0, True
    r = acf(x, max_lag)
    n = len(x)
    q = n * (n + 2) * sum(r[k] ** 2 / (n - k) for k in range(1, max_lag + 1))
    return float(q), float(q) < CHI2_95[df]


def r_squared(fitted, actual) -> float:
    """Coefficient of determination of fitted against actual."""
    f = np.asarray(fitted, dtype=float)
    a = np.asarray(actual, dtype=float)
    if len(f) != len(a):
        raise LengthMismatchError(f"fitted has {len(f)} points, actual has {len(a)}")
    if len(a) < 2:
        raise DegenerateSeriesError("need at least two points")
    ss_tot = float(np.sum((a - a.mean()) ** 2))
    if ss_tot == 0.0:
        raise DegenerateSeriesError("actual series is constant")
    ss_res = float(np.sum((a - f) ** 2))
    return 1.0 - ss_res / ss_tot


def write_forecast_csv(path: str | Path, observed: DemandSeries,
                       forecast: DemandSeries) -> None:
    """week,demand,source rows: the observed history then the extension."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["week", "demand", "source"])
        week = 0
        for v in observed:
            week += 1
            writer.writerow([week, v, "observed"])
        for v in forecast:
            week += 1
            writer.writerow([week, v, "forecast"])


def write_diagnostics_csv(path: str | Path, acf_vals, pacf_vals, q_stat: float,
                          df: int, passed: bool, r2: float) -> None:
    """Lag table plus a trailing one-line Q/df/pass/r_squared summary."""
    if len(acf_vals) != len(pacf_vals):
        raise LengthMismatchError("acf and pacf tables must align")
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["lag", "acf", "pacf"])
        for lag, (a, p) in enumerate(zip(acf_vals, pacf_vals)):
            writer.writerow([lag, repr(float(a)), repr(float(p))])
        writer.writerow(["Q", "df", "pass", "r_squared"])
        writer.writerow([repr(float(q_stat)), df, str(bool(passed)).lower(), repr(float(r2))])
