"""Formal Fourier expansions of harmonic weak Maass forms of weight k + 1/2.

A scalar expansion stores the holomorphic coefficients c+(n) and the
non-holomorphic ones c-(n) (n < 0) of

    f(tau) = sum_n c+(n) q^n  +  sum_{n<0} c-(n) Gamma(1/2 - k, 4 pi |n| y) q^n,

together with a completeness window [n_min, n_max]: below n_min all c+
vanish (the principal part is finite and fully stored), while c+ above
n_max and c- below n_min are unknown but assumed to obey the polynomial
growth bound declared at evaluation time.  Vector-valued expansions attach
one scalar expansion to each basis vector e_gamma of the discriminant form,
with indices in Z + Q(gamma) (or Z - Q(gamma) for the dual type).

Numeric evaluation returns a value together with a rigorous truncation
bound derived from that growth declaration, and refuses points where the
bound exceeds the requested accuracy.
"""

from __future__ import annotations

import os
from fractions import Fraction
from math import isqrt
from numbers import Rational

from .discform import DiscriminantForm, square_classes

__all__ = [
    "TruncationError",
    "HarmonicExpansion",
    "VectorForm",
    "default_precision",
    "inc_gamma",
    "plus_space_check",
    "theta_expansion",
    "random_plus_expansion",
    "eval_point",
    "laplacian_fd",
    "fd_halving_check",
    "verify_S_transform",
    "SCheckReport",
]


class TruncationError(Exception):
    """Raised when a declared window cannot meet the requested accuracy."""


def default_precision() -> int:
    """Working precision in bits, from WEIL_PRECISION_BITS (default 128).

    Raises ValueError unless the value is an integer of at least 53.
    """
    raw = os.environ.get("WEIL_PRECISION_BITS", "128")
    try:
        prec = int(raw)
    except ValueError:
        raise ValueError(f"WEIL_PRECISION_BITS must be an integer, got {raw!r}")
    if prec < 53:
        raise ValueError("WEIL_PRECISION_BITS must be at least 53")
    return prec


def _norm_index(n):
    f = Fraction(n)
    return int(f) if f.denominator == 1 else f


def _to_mpf(x) -> mpf:
    from mpmath import mpf

    if isinstance(x, Rational):
        f = Fraction(x)
        return mpf(f.numerator) / f.denominator
    return mpf(x)


def _to_mpc(x) -> mpc:
    from mpmath import mpc

    if isinstance(x, Rational):
        return mpc(_to_mpf(x))
    return mpc(x)


# -- incomplete gamma ---------------------------------------------------


def inc_gamma(a, y, precision: int | None = None) -> mpf:
    """Upper incomplete gamma Gamma(a, y) for half-integral a and y > 0.

    Built by the recurrence Gamma(a+1, y) = a Gamma(a, y) + y^a e^-y
    upward from Gamma(1/2, y) = sqrt(pi) erfc(sqrt(y)) and
    Gamma(1, y) = e^-y, and by the inverted recurrence for smaller a.
    Non-positive integer a are outside the recurrence's reach and rejected.
    """
    from mpmath import erfc, exp, mp, pi, sqrt

    a = Fraction(a)
    if a.denominator not in (1, 2):
        raise ValueError("a must be integral or half-integral")
    if a.denominator == 1 and a <= 0:
        raise ValueError("non-positive integer a is not supported")
    prec = precision or default_precision()
    with mp.workprec(prec + 24):
        yy = _to_mpf(y)
        if not yy > 0:
            raise ValueError("y must be positive")
        e = exp(-yy)
        if a.denominator == 2:
            cur_a = Fraction(1, 2)
            cur = sqrt(pi) * erfc(sqrt(yy))
        else:
            cur_a = Fraction(1)
            cur = e
        while cur_a < a:
            cur = _to_mpf(cur_a) * cur + yy ** _to_mpf(cur_a) * e
            cur_a += 1
        while cur_a > a:
            cur_a -= 1
            cur = (cur - yy ** _to_mpf(cur_a) * e) / _to_mpf(cur_a)
    with mp.workprec(prec):
        return +cur


# -- expansion containers -----------------------------------------------


class HarmonicExpansion:
    """Stored Fourier data of one scalar (or one vector component) form."""

    __slots__ = ("weight_num", "c_plus", "c_minus", "window")

    def __init__(self, weight_num: int, c_plus: dict, c_minus: dict | None = None,
                 window: tuple | None = None):
        if not isinstance(weight_num, int) or weight_num % 2 == 0:
            raise ValueError("weight_num must be an odd integer (weight = weight_num/2)")
        self.weight_num = weight_num
        self.c_plus = {_norm_index(n): v for n, v in (c_plus or {}).items() if v != 0}
        self.c_minus = {_norm_index(n): v for n, v in (c_minus or {}).items() if v != 0}
        for n in self.c_minus:
            if n >= 0:
                raise ValueError("c_minus is supported on n < 0 only")
        if window is None:
            keys = list(self.c_plus) + list(self.c_minus)
            lo = min(keys, default=0)
            hi = max(list(self.c_plus) + [0], default=0)
            window = (min(lo, 0), max(hi, 0))
        lo, hi = _norm_index(window[0]), _norm_index(window[1])
        if lo > hi:
            raise ValueError("empty window")
        for n in self.c_plus:
            if not lo <= n <= hi:
                raise ValueError(f"c_plus index {n} outside window [{lo}, {hi}]")
        for n in self.c_minus:
            if n < lo:
                raise ValueError(f"c_minus index {n} below window start {lo}")
        self.window = (lo, hi)

    @property
    def weight(self) -> Fraction:
        return Fraction(self.weight_num, 2)

    @property
    def k(self) -> int:
        """The integer k with weight = k + 1/2."""
        return (self.weight_num - 1) // 2

    def is_zero(self) -> bool:
        return not self.c_plus and not self.c_minus

    def __eq__(self, other):
        if not isinstance(other, HarmonicExpansion):
            return NotImplemented
        return (
            self.weight_num == other.weight_num
            and self.c_plus == other.c_plus
            and self.c_minus == other.c_minus
            and self.window == other.window
        )

    __hash__ = None

    def __repr__(self):
        return (
            f"HarmonicExpansion(weight={self.weight}, "
            f"{len(self.c_plus)}+ / {len(self.c_minus)}- coefficients, "
            f"window={self.window})"
        )


class VectorForm:
    """A vector-valued expansion over the discriminant form of index m.

    `dual` selects the representation type: components of a rho_L form are
    supported on Z + Q(gamma), dual (rho_L-bar) ones on Z - Q(gamma).  The
    constructor stores data as given; use support_congruence_ok for the
    support predicate.
    """

    __slots__ = ("df", "dual", "weight_num", "components")

    def __init__(self, df: DiscriminantForm, weight_num: int, components: dict,
                 dual: bool = False):
        self.df = df
        self.dual = bool(dual)
        if not isinstance(weight_num, int) or weight_num % 2 == 0:
            raise ValueError("weight_num must be an odd integer")
        self.weight_num = weight_num
        dim = df.size
        comps: dict[int, HarmonicExpansion] = {}
        for g, comp in components.items():
            if not isinstance(comp, HarmonicExpansion):
                raise TypeError("components must be HarmonicExpansion instances")
            if comp.weight_num != weight_num:
                raise ValueError("component weight disagrees with the form weight")
            comps[g % dim] = comp
        default_window = next((c.window for c in comps.values()), (0, 0))
        for g in range(dim):
            if g not in comps:
                comps[g] = HarmonicExpansion(weight_num, {}, {}, default_window)
        self.components = comps

    @property
    def weight(self) -> Fraction:
        return Fraction(self.weight_num, 2)

    @property
    def k(self) -> int:
        return (self.weight_num - 1) // 2

    def support_congruence_ok(self) -> bool:
        """Indices of component gamma lie in Z + Q(gamma) (Z - Q(gamma) if dual)."""
        sign = -1 if self.dual else 1
        for g, comp in self.components.items():
            offset = sign * self.df.q_value(g)
            for n in list(comp.c_plus) + list(comp.c_minus):
                if (Fraction(n) - offset) % 1 != 0:
                    return False
        return True

    def is_symmetric(self) -> bool:
        """Component at gamma equals the one at -gamma."""
        dim = self.df.size
        return all(
            self.components[g] == self.components[(-g) % dim] for g in range(dim)
        )

    def __eq__(self, other):
        if not isinstance(other, VectorForm):
            return NotImplemented
        return (
            self.df == other.df
            and self.dual == other.dual
            and self.weight_num == other.weight_num
            and self.components == other.components
        )

    __hash__ = None

    def __repr__(self):
        return (
            f"VectorForm(m={self.df.m}, weight={self.weight}, dual={self.dual})"
        )


def plus_space_check(f: HarmonicExpansion, m: int, k: int) -> bool:
    """Kohnen plus-space support: c(n) = 0 unless (-1)^k n is a square mod 4m."""
    classes = square_classes(m, k)
    for n in list(f.c_plus) + list(f.c_minus):
        if not isinstance(n, int):
            return False
        if n % (4 * m) not in classes:
            return False
    return True


def theta_expansion(n_max: int = 100) -> HarmonicExpansion:
    """The classical theta series sum_x q^(x^2) as a plus-space expansion.

    Weight 1/2 for m = 1, k = 0; coefficients are generated by counting
    lattice points, so the example data is reproducible from first
    principles rather than shipped as literals.
    """
    if n_max < 0:
        raise ValueError("n_max must be >= 0")
    c = {x * x: 1 if x == 0 else 2 for x in range(isqrt(n_max) + 1)}
    # the window extends symmetrically below zero: theta has no principal
    # part and no non-holomorphic part, and the container should say so
    return HarmonicExpansion(1, c, {}, window=(-n_max, n_max))


def random_plus_expansion(m: int, k: int, rng, *, terms: int = 8,
                          span: int = 40) -> HarmonicExpansion:
    """A random plus-space expansion of weight k + 1/2 with exact coefficients.

    Indices are drawn from the allowed square classes within [-span, span],
    with a principal part and a handful of non-holomorphic terms; all values
    are small Fractions so roundtrip identities can be tested exactly.
    """
    n4 = 4 * m
    classes = square_classes(m, k)
    allowed = [n for n in range(-span, span + 1) if n % n4 in classes]
    negatives = [n for n in allowed if n < 0]
    c_plus: dict[int, Fraction] = {}
    c_minus: dict[int, Fraction] = {}
    for _ in range(terms):
        n = rng.choice(allowed)
        c_plus[n] = Fraction(rng.randrange(-9, 10), rng.randrange(1, 7))
    for _ in range(max(1, terms // 2)):
        if not negatives:
            break
        n = rng.choice(negatives)
        c_minus[n] = Fraction(rng.randrange(-9, 10), rng.randrange(1, 7))
    return HarmonicExpansion(2 * k + 1, c_plus, c_minus, window=(-span, span))


# -- numeric evaluation -------------------------------------------------


def _geometric_power_tail(coeff: mpf, rho: float, x: mpf, start: mpf) -> mpf:
    """Bound coeff * sum_{j>=0} (start+j)^rho x^(start+j) for 0 < x < 1."""
    from mpmath import exp, mpf

    if start <= 0:
        raise TruncationError("window too narrow to bound the tail")
    if rho <= 0:
        return coeff * start ** mpf(rho) * x ** start / (1 - x)
    grow = x * exp(mpf(rho) / start)
    if grow >= 1:
        raise TruncationError("growth exponent too large for this point")
    return coeff * start ** mpf(rho) * x ** start / (1 - grow)


def _eval_scalar(f: HarmonicExpansion, tau, growth_exponent):
    """Value and rigorous truncation bound at tau, at current mp precision."""
    from mpmath import exp, mp, mpc, mpf, pi

    t = _to_mpc(tau)
    y = t.imag
    if not y > 0:
        raise ValueError("tau must lie in the upper half plane")
    k = f.k
    a = Fraction(1, 2) - k  # Gamma argument for the non-holomorphic part
    val = mpc(0)
    cmax = mpf(1)
    for n, c in f.c_plus.items():
        cm = _to_mpc(c)
        cmax = max(cmax, abs(cm))
        val += cm * exp(2j * pi * _to_mpf(n) * t)
    for n, c in f.c_minus.items():
        cm = _to_mpc(c)
        cmax = max(cmax, abs(cm))
        u = 4 * pi * abs(_to_mpf(n)) * y
        val += cm * inc_gamma(a, u, mp.prec) * exp(2j * pi * _to_mpf(n) * t)
    rho = float(growth_exponent if growth_exponent is not None else max(2 * k + 2, 2))
    lo, hi = f.window
    x = exp(-2 * pi * y)
    bound = _geometric_power_tail(cmax, rho, x, _to_mpf(hi) + 1)
    # c- tail below the window: |Gamma(a, 4 pi |n| y) q^n| <= K (4 pi |n| y)^(a-1) e^(-2 pi |n| y)
    start = abs(_to_mpf(lo)) + 1
    af = _to_mpf(a)
    if a > 1:
        # fold the growing n^(a-1) factor into the power exponent
        if 4 * pi * y * start <= 2 * (af - 1):
            raise TruncationError("window too narrow for the Gamma tail bound")
        const, rho2 = 2 * cmax * (4 * pi * y) ** (af - 1), rho + float(a) - 1
    else:
        # (4 pi y n)^(a-1) is decreasing in n for a <= 1
        const, rho2 = cmax * (4 * pi * y * start) ** (af - 1), rho
    bound += _geometric_power_tail(const, rho2, x, start)
    return val, bound


def eval_point(form, tau, *, accuracy: float = 1e-10, growth_exponent=None,
               precision: int | None = None):
    """Evaluate an expansion at a point of the upper half plane.

    Returns (value, bound) for scalar expansions and ({gamma: value}, bound)
    for vector-valued ones, where bound is a rigorous truncation bound under
    the declared polynomial growth (default exponent 2k + 2).  Raises
    TruncationError when the bound exceeds `accuracy`.
    """
    from mpmath import mp, mpc, mpf

    prec = precision or default_precision()
    with mp.workprec(prec):
        if isinstance(form, HarmonicExpansion):
            val, bound = _eval_scalar(form, tau, growth_exponent)
            if not bound <= accuracy:
                raise TruncationError(
                    f"truncation bound {float(bound):.3g} exceeds accuracy {accuracy:.3g}"
                )
            return val, bound
        if isinstance(form, VectorForm):
            vals: dict[int, mpc] = {}
            worst = mpf(0)
            for g in range(form.df.size):
                v, b = _eval_scalar(form.components[g], tau, growth_exponent)
                vals[g] = v
                worst = max(worst, b)
            if not worst <= accuracy:
                raise TruncationError(
                    f"truncation bound {float(worst):.3g} exceeds accuracy {accuracy:.3g}"
                )
            return vals, worst
    raise TypeError("form must be a HarmonicExpansion or VectorForm")


def laplacian_fd(target, k: int, tau, h: float = 1e-3, *,
                 precision: int | None = None, accuracy: float = 1e-6):
    """Weight-(k + 1/2) hyperbolic Laplacian by second-order central differences.

    Delta_kappa = -y^2 (d_xx + d_yy) + i kappa y (d_x + i d_y), kappa = k + 1/2.
    `target` is a HarmonicExpansion or a callable tau -> value; the stencil
    error is O(h^2), so harmonic inputs give O(h^2) residuals.
    """
    from mpmath import mp, mpf

    prec = precision or default_precision()
    with mp.workprec(prec):
        if callable(target):
            f = target
        else:
            def f(t, _form=target):
                return eval_point(_form, t, accuracy=accuracy, precision=prec)[0]

        t0 = _to_mpc(tau)
        hh = mpf(h)
        y = t0.imag
        kappa = mpf(2 * k + 1) / 2
        fc = _to_mpc(f(t0))
        fr = _to_mpc(f(t0 + hh))
        fl = _to_mpc(f(t0 - hh))
        fu = _to_mpc(f(t0 + 1j * hh))
        fd = _to_mpc(f(t0 - 1j * hh))
        lap = (fr + fl + fu + fd - 4 * fc) / hh**2
        fx = (fr - fl) / (2 * hh)
        fy = (fu - fd) / (2 * hh)
        return -(y**2) * lap + 1j * kappa * y * (fx + 1j * fy)


def fd_halving_check(residual, h: float):
    """Criterion 10 for a finite-difference residual h -> value.

    A second-order stencil applied to a harmonic input leaves O(h^2), so
    halving h divides |residual| by about 4; the check passes when the
    ratio |residual(h)| / |residual(h/2)| lies in (3, 5).  Returns
    (residual(h), residual(h/2), ratio or None when residual(h/2) = 0, passed).
    """
    r_h, r_half = residual(h), residual(h / 2)
    ratio = abs(r_h) / abs(r_half) if r_half else None
    return r_h, r_half, ratio, ratio is not None and 3 < ratio < 5


class SCheckReport:
    """Outcome of a numeric S-transformation check."""

    __slots__ = ("points", "deviations", "max_deviation", "tolerance", "passed")

    def __init__(self, points, deviations, tolerance):
        self.points = list(points)
        self.deviations = [float(d) for d in deviations]
        self.max_deviation = max(self.deviations, default=0.0)
        self.tolerance = float(tolerance)
        self.passed = self.max_deviation <= self.tolerance

    def __repr__(self):
        verdict = "pass" if self.passed else "FAIL"
        return (
            f"SCheckReport({verdict}, max deviation {self.max_deviation:.3g}, "
            f"tolerance {self.tolerance:.3g})"
        )


def verify_S_transform(form: VectorForm, points, tolerance: float = 1e-8, *,
                       precision: int | None = None) -> SCheckReport:
    """Check F(-1/tau) = tau^(k+1/2) rho(S) F(tau) numerically at sample points.

    Uses the dual (conjugated) S-matrix when the form is of dual type.  The
    evaluation windows must be wide enough that the combined truncation
    bounds, under eval_point's default growth exponent, stay below
    tolerance/4, otherwise TruncationError propagates.
    """
    from mpmath import mp, mpf, sqrt

    from .weilrep import rho_S

    prec = precision or default_precision()
    df = form.df
    dim = df.size
    k = form.k
    with mp.workprec(prec):
        smat = rho_S(df)
        if form.dual:
            smat = smat.conjugate()
        semb = smat.embed_mpc(prec)
        # |rho(S) entries| = 1/sqrt(2m); row sums of moduli are sqrt(2m)
        row_norm = sqrt(mpf(2 * df.m))
        deviations = []
        budget = tolerance / (4 * (1 + float(row_norm)))
        for p in points:
            t = _to_mpc(p)
            left_vals, _ = eval_point(form, -1 / t, accuracy=budget, precision=prec)
            right_vals, _ = eval_point(form, t, accuracy=budget, precision=prec)
            factor = t**k * sqrt(t)
            worst = mpf(0)
            for g in range(dim):
                rhs = factor * sum(semb[g][d] * right_vals[d] for d in range(dim))
                worst = max(worst, abs(left_vals[g] - rhs))
            deviations.append(worst)
        return SCheckReport(points, deviations, tolerance)
