"""Jacobi-form coefficient data, theta decomposition, and operator checks.

A form of weight k and index m is stored through coefficients keyed by
(D, r mod 2m) with D = r^2 - 4nm, the invariant that makes the Fourier
coefficients well defined.  Writing theta_mu for the index-m theta series
with residue mu, every such form decomposes as

    phi(tau, z) = sum_mu h_mu(tau) theta_mu(tau, z),

and the h_mu assemble into a dual-type vector-valued expansion of weight
k - 1/2; both directions of that bookkeeping are exact here.  The
analytic layer evaluates with tail bounds: one kernel sums a class
r = rc mod 2m by the theta recurrence (three exps per class at
2 log2(steps) + log2(exp argument) + 7 guard bits, then a block-floating
walk on Python integers), and serves theta_mu and the direct sum of
phi.  It also has the exact heat-operator cancellation that makes
theta_mu holomorphic input for the decomposition, and a
finite-difference check of the reduced Casimir
operator -2 Delta_{k-1/2} + ((tau-taubar)^2/4 pi i m) d_taubar d_z d_z,
which annihilates phi exactly when the h_mu are harmonic.
"""

from __future__ import annotations

from fractions import Fraction
from math import ceil, floor, sqrt as _fsqrt

from .arith import is_prime
from .discform import DiscriminantForm
from .expansions import (
    HarmonicExpansion,
    TruncationError,
    VectorForm,
    _to_mpc,
    default_precision,
    eval_point,
    inc_gamma,
    laplacian_fd,
)

__all__ = [
    "JacobiForm",
    "JacobiConsistencyReport",
    "theta_series_eval",
    "theta_decompose",
    "reconstruct",
    "heat_operator_term_check",
    "jacobi_eval_direct",
    "decomposition_consistency_check",
    "casimir_reduced_fd",
    "thm2_map",
    "random_jacobi_form",
]

# completeness declared for numeric evaluation of stored Jacobi data: the
# container holds all coefficients, so tails beyond this radius are zero
# and the generic window machinery just needs a horizon it cannot reach
_NUMERIC_WINDOW = 10**6


class JacobiForm:
    """Coefficient data of a weight-k, index-m form, keyed by (D, r mod 2m).

    `c_plus` holds the holomorphic-part coefficients, `c_minus` the ones
    attached to Gamma(3/2 - k, pi D y / m) (D > 0).  Keys are normalized
    to r in [0, 2m) and must satisfy D = r^2 mod 4m, so that
    n = (r^2 - D)/4m is an integer for every representative r; d_max
    bounds every stored D and declares the data complete beyond it.
    """

    __slots__ = ("k", "m", "c_plus", "c_minus", "d_max")

    def __init__(self, k: int, m: int, c_plus: dict, c_minus: dict | None = None,
                 d_max: int | None = None):
        if not isinstance(k, int):
            raise ValueError("weight k must be an integer")
        if not isinstance(m, int) or m < 1:
            raise ValueError("index m must be a positive integer")
        self.k = k
        self.m = m
        self.c_plus = self._normalize(c_plus, minus=False)
        self.c_minus = self._normalize(c_minus, minus=True)
        stored = [d for d, _ in self.c_plus] + [d for d, _ in self.c_minus]
        if d_max is None:
            d_max = max(stored, default=0)
        self.d_max = int(d_max)
        for d in stored:
            if d > self.d_max:
                raise ValueError(f"stored key D = {d} exceeds d_max = {self.d_max}")

    def _normalize(self, data: dict | None, minus: bool) -> dict:
        out: dict[tuple[int, int], object] = {}
        for (d, r), v in (data or {}).items():
            if v == 0:
                continue
            d = int(d)
            key = (d, r % (2 * self.m))
            if (d - r * r) % (4 * self.m):
                raise ValueError(f"key D = {d}, r = {r} violates D = r^2 mod 4m")
            if minus and d <= 0:
                raise ValueError("c_minus is supported on D > 0 only")
            if key in out and out[key] != v:
                raise ValueError(f"conflicting values for the class {key}")
            out[key] = v
        return out

    def is_zero(self) -> bool:
        return not self.c_plus and not self.c_minus

    def __eq__(self, other):
        if not isinstance(other, JacobiForm):
            return NotImplemented
        return (
            self.k == other.k
            and self.m == other.m
            and self.c_plus == other.c_plus
            and self.c_minus == other.c_minus
            and self.d_max == other.d_max
        )

    __hash__ = None

    def __repr__(self):
        return (
            f"JacobiForm(k={self.k}, m={self.m}, "
            f"{len(self.c_plus)}+ / {len(self.c_minus)}- classes, d_max={self.d_max})"
        )


# -- theta series --------------------------------------------------------


def _theta_tail(m: int, t: mpc, zz: mpc, radius: int) -> mpf:
    """Bound 2 sum_{r > radius} e^(-alpha r^2 + beta r), or reject.

    alpha = pi Im(t)/2m and beta = 2 pi |Im(zz)| bound the decay of one
    class q^(r^2/4m) zeta^r at (t, zz), up to its constant factor.
    """
    from mpmath import exp, pi

    if not t.imag > 0:
        raise ValueError("tau must lie in the upper half plane")
    alpha, beta = pi * t.imag / (2 * m), 2 * pi * abs(zz.imag)
    edge = 2 * alpha * (radius + 1) - beta
    if not edge > 0:
        raise TruncationError("truncation radius too small for this point")
    x = exp(-edge)
    return 2 * exp(-alpha * (radius + 1) ** 2 + beta * (radius + 1)) / (1 - x)


def _top(x) -> int:
    """The t with 2^t > max(|Re x|, |Im x|) >= 2^(t - 1), for x != 0."""
    return max(p[2] + p[3] for p in x._mpc_ if p[1])


def _fixed(x, e: int) -> tuple[int, int]:
    """Re x and Im x in units of 2^e, each truncated by less than one unit."""
    from mpmath.libmp import to_fixed

    return to_fixed(x._mpc_[0], -e), to_fixed(x._mpc_[1], -e)


def _class_sum(m: int, d: int, rc: int, tau, z, radius: int):
    """Sum of q^((r^2 - d)/4m) zeta^r over r = rc mod 2m, |r| <= radius.

    q = e(tau), zeta = e(z).  From the r0 of smallest |r| the walk steps
    outward: the term at r + 2m is the one at r times q^(r + m) zeta^(2m),
    the one at r - 2m is it times q^(m - r) zeta^(-2m), and each ratio
    gains s = q^(2m) per step.  Three exps at wp bits (the start term and
    the first ratios up, down) and s = up down are the only mpmath work;
    the walk runs on Python integers in block floating point: term and sum
    are fixed point in units 2^(t - wp), 2^t the top bit of the start term
    (`_top`), so additions are exact; the ratio and s each keep their own
    exponent (|s| can be e^-75) and wp bits, and the ratio is renormalized
    to its width after every step.  A ratio of 2^(wp - 2) or more keeps
    more bits, so that its exponent, the term's shift, stays negative.
    The sum converts back once, rounded to prec by `from_man_exp`.
    Guard bits: A = 16 (|r0^2 - d|/4m + 2m)(|tau| + |z|) exceeds 2.5 times
    each exp argument, so with the argument's roundings each exp or product
    at wp bits errs by a relative u = (A + 1) 2^(2 - wp) at most, and each
    truncation of a wp-bit mantissa by at most 2^(2 - wp) <= u.  Then s
    errs by 4u, the ratio after i steps by (5i + 2) u and the term after j
    steps by (3j^2 + 2) u relative (the error of s enters it j(j - 1)/2
    times).  Truncating a term costs at most 2^(2 - wp) |start|: the terms
    of one side rise while the ratio exceeds 1 and then fall, so in a
    later term that truncation is at most 2^(2 - wp) max(|start|, |term|).
    With J = max(steps a side, 1) < 2^b and A + 1 < 2^a the sum errs by
    8 J^2 u sum|terms| < 2^(2b + a + 5 - wp) sum|terms|: wp = prec + 2b
    + a + 7 leaves 2^(-prec - 2) sum|terms| before the one rounding to prec.
    """
    from mpmath import exp, mp, mpc, pi
    from mpmath.libmp import from_man_exp

    n2 = 2 * m
    r0 = rc % n2 - (n2 if rc % n2 > m else 0)
    if abs(r0) > radius:
        return mpc(0)
    ups, downs = (radius - r0) // n2, (radius + r0) // n2
    size = abs(tau.real) + abs(tau.imag) + abs(z.real) + abs(z.imag)
    a = int(16 * (abs(r0 * r0 - d) / (4 * m) + n2) * size) + 1
    prec = mp.prec
    wp = prec + 2 * max(ups, downs, 1).bit_length() + a.bit_length() + 7
    with mp.workprec(wp):
        w = 2j * pi
        start = exp(w * ((r0 * r0 - d) * tau / (4 * m) + r0 * z))
        up = exp(w * ((r0 + m) * tau + n2 * z))
        down = exp(w * ((m - r0) * tau - n2 * z))
        step = up * down
        e0, es = _top(start) - wp, _top(step) - wp
        start_r, start_i = _fixed(start, e0)
        step_r, step_i = _fixed(step, es)
        total_r, total_i = start_r, start_i
        for ratio, count in ((up, ups), (down, downs)):
            top = _top(ratio)
            width = max(wp, top + 2)
            er = top - width
            rr, ri = _fixed(ratio, er)
            tr, ti = start_r, start_i
            for _ in range(count):
                tr, ti = (tr * rr - ti * ri) >> -er, (tr * ri + ti * rr) >> -er
                total_r += tr
                total_i += ti
                nr, ni = rr * step_r - ri * step_i, rr * step_i + ri * step_r
                k = (abs(nr) | abs(ni)).bit_length() - width
                rr, ri, er = nr >> k, ni >> k, er + es + k
    return mp.make_mpc((from_man_exp(total_r, e0, prec, "n"),
                        from_man_exp(total_i, e0, prec, "n")))


def theta_series_eval(m: int, mu: int, tau, z, truncation: int, *,
                      precision: int | None = None):
    """Truncated sum of q^(r^2/4m) zeta^r over r = mu mod 2m, with tail bound.

    Returns (value, bound); the bound covers |r| > truncation under the
    Gaussian decay of the summand, and the call is rejected when the
    radius is too small to control the zeta^r growth at this z.
    """
    from mpmath import mp, mpc

    prec = precision or default_precision()
    with mp.workprec(prec):
        t, zz, radius = mpc(tau), mpc(z), int(truncation)
        bound = _theta_tail(m, t, zz, radius)
        return _class_sum(m, 0, mu, t, zz, radius), bound


def _theta_truncation_for(m: int, y: mpf, v: mpf, margin: float) -> int:
    """Radius making the theta tail at (y, v) smaller than e^-margin."""
    from mpmath import pi

    alpha = float(pi) * float(y) / (2 * m)
    beta = 2 * float(pi) * abs(float(v))
    if alpha <= 0:
        raise ValueError("tau must lie in the upper half plane")
    # solve alpha R^2 - beta R >= margin and keep a couple of spare steps
    return int(ceil((beta + _fsqrt(beta * beta + 4 * alpha * margin)) / (2 * alpha))) + 2


# -- decomposition bookkeeping -------------------------------------------


def theta_decompose(phi: JacobiForm) -> VectorForm:
    """The components h_mu of phi = sum_mu h_mu theta_mu, as a dual vector form.

    A class (D, r) contributes its value at index N/4m with N = -D to
    component r; the Gamma argument pi D y / m of a c_minus class equals
    4 pi |N/4m| y, so the generic vector-component evaluation reproduces
    the Jacobi convention without any rescaling.  The result has weight
    k - 1/2.
    """
    m = phi.m
    n4 = 4 * m
    dim = 2 * m
    weight_num = 2 * phi.k - 1
    cps: dict[int, dict] = {g: {} for g in range(dim)}
    cms: dict[int, dict] = {g: {} for g in range(dim)}
    for (d, r), v in phi.c_plus.items():
        cps[r][Fraction(-d, n4)] = v
    for (d, r), v in phi.c_minus.items():
        cms[r][Fraction(-d, n4)] = v
    lo = Fraction(-phi.d_max, n4)
    stored = [Fraction(-d, n4) for d, _ in list(phi.c_plus) + list(phi.c_minus)]
    hi = max(stored + [lo, Fraction(0)])
    comps = {
        g: HarmonicExpansion(weight_num, cps[g], cms[g], window=(lo, hi))
        for g in range(dim)
    }
    return VectorForm(DiscriminantForm(m), weight_num, comps, dual=True)


def reconstruct(hs: VectorForm, m: int) -> JacobiForm:
    """Exact inverse of theta_decompose on stored coefficients."""
    if hs.df.m != m:
        raise ValueError(f"vector form has index {hs.df.m}, expected {m}")
    if not hs.dual:
        raise ValueError("theta components form a dual-type vector form")
    if not hs.support_congruence_ok():
        raise ValueError("component support violates the congruence invariant")
    if hs.weight_num % 2 == 0:
        raise ValueError("component weight must be half-integral")
    k = (hs.weight_num + 1) // 2
    n4 = 4 * m
    c_plus: dict[tuple[int, int], object] = {}
    c_minus: dict[tuple[int, int], object] = {}
    d_horizon = []
    for g in range(hs.df.size):
        comp = hs.components[g]
        d_horizon.append(floor(-n4 * Fraction(comp.window[0])))
        for n, v in comp.c_plus.items():
            c_plus[(-int(n4 * Fraction(n)), g)] = v
        for n, v in comp.c_minus.items():
            c_minus[(-int(n4 * Fraction(n)), g)] = v
    return JacobiForm(k, m, c_plus, c_minus, d_max=max(d_horizon))


def heat_operator_term_check(m: int, r: int) -> Fraction:
    """Apply d_tau - (1/8 pi i m) d_z d_z to q^(r^2/4m) zeta^r, exactly.

    Both derivative terms are rational multiples of 2 pi i on this
    one-term input, and the result (their sum in those units) must be 0:
    that cancellation is what keeps the theta series inside the heat
    kernel.
    """
    if m < 1:
        raise ValueError("index m must be positive")
    q_exponent = Fraction(r * r, 4 * m)
    # d_tau brings down 2 pi i times the q-exponent; each d_z brings down
    # 2 pi i r, so the second term is -(2 pi i r)^2 / (8 pi i m), which in
    # units of 2 pi i is -(4 pi^2 i^2 r^2) / (16 pi^2 i^2 m): the pi and i
    # factors cancel exactly and a pure rational remains.
    second = -Fraction(4 * r * r, 16 * m)
    return q_exponent + second


# -- numeric evaluation ---------------------------------------------------


def _numeric_components(phi: JacobiForm) -> dict[int, HarmonicExpansion]:
    """Decomposition components with the stored data declared complete."""
    hs = theta_decompose(phi)
    out = {}
    for g in range(hs.df.size):
        comp = hs.components[g]
        out[g] = HarmonicExpansion(
            comp.weight_num, comp.c_plus, comp.c_minus,
            window=(-_NUMERIC_WINDOW, _NUMERIC_WINDOW),
        )
    return out


def jacobi_eval_direct(phi: JacobiForm, tau, z, truncation: int, *,
                       precision: int | None = None):
    """Evaluate phi at (tau, z) straight from its (n, r) Fourier terms.

    Each stored class (D, r) sums over its representatives
    |r'| <= truncation, r' = r mod 2m, with q-exponent (r'^2 - D)/4m
    (one `_class_sum`) and, for c_minus classes, the constant factor
    Gamma(3/2 - k, pi D y / m).  Returns (value, tail bound).
    """
    from mpmath import exp, mp, mpc, mpf, pi

    prec = precision or default_precision()
    m = phi.m
    with mp.workprec(prec):
        t, zz, radius = mpc(tau), mpc(z), int(truncation)
        class_tail = _theta_tail(m, t, zz, radius)
        y = t.imag
        a = Fraction(3, 2) - phi.k
        val = mpc(0)
        bound = mpf(0)
        classes = [(key, v, None) for key, v in sorted(phi.c_plus.items())]
        classes += [(key, v, inc_gamma(a, pi * key[0] * y / m, prec))
                    for key, v in sorted(phi.c_minus.items())]
        for (d, rc), v, gam in classes:
            vc = _to_mpc(v) if gam is None else _to_mpc(v) * gam
            val += vc * _class_sum(m, d, rc, t, zz, radius)
            bound += abs(vc) * exp(pi * y * d / (2 * m)) * class_tail
        return val, bound


class JacobiConsistencyReport:
    """Per-point deviations of the direct sum against the decomposed one."""

    __slots__ = ("points", "deviations", "bounds", "passed")

    def __init__(self, points, deviations, bounds, slack):
        self.points = list(points)
        self.deviations = [float(d) for d in deviations]
        self.bounds = [float(b) for b in bounds]
        self.passed = all(
            d <= b + s for d, b, s in zip(deviations, bounds, slack)
        )

    def __repr__(self):
        verdict = "pass" if self.passed else "FAIL"
        worst = max(self.deviations, default=0.0)
        return f"JacobiConsistencyReport({verdict}, max deviation {worst:.3g})"


def decomposition_consistency_check(phi: JacobiForm, points, *,
                                    precision: int | None = None) -> JacobiConsistencyReport:
    """Compare direct evaluation of phi with sum_mu h_mu(tau) theta_mu(tau, z).

    The two routes group the same Fourier terms differently and compute
    their exponents and Gamma factors through different bookkeeping, so
    agreement within the combined truncation bounds certifies the
    decomposition display on stored data.  Both routes sum each theta
    class over |r| <= 60.
    """
    from mpmath import mp, mpc, mpf

    prec = precision or default_precision()
    m = phi.m
    comps = _numeric_components(phi)
    radius = 60
    deviations, bounds, slack = [], [], []
    with mp.workprec(prec):
        for tau, z in points:
            direct, direct_bound = jacobi_eval_direct(phi, tau, z, radius,
                                                      precision=prec)
            t, zz = mpc(tau), mpc(z)
            tb = _theta_tail(m, t, zz, radius)  # one bound serves all 2m classes
            total = mpc(0)
            combined = direct_bound
            for g in range(2 * m):
                hv, hb = eval_point(comps[g], tau, accuracy=float("inf"),
                                    precision=prec)
                tv = _class_sum(m, 0, g, t, zz, radius)
                total += hv * tv
                combined += abs(hv) * tb + abs(tv) * hb + hb * tb
            deviations.append(abs(direct - total))
            bounds.append(combined)
            slack.append(mpf(2) ** (12 - prec) * (1 + abs(direct) + abs(total)))
    return JacobiConsistencyReport(points, deviations, bounds, slack)


def casimir_reduced_fd(target, k: int, m: int, point, h: float = 1e-3, *,
                       precision: int | None = None):
    """Finite-difference reduced Casimir operator at (tau, z).

    Applies -2 Delta_{k-1/2} (in tau) plus ((tau - taubar)^2 / 4 pi i m)
    d_taubar d_z d_z to the evaluated form; `target` is a JacobiForm
    (evaluated through its theta decomposition) or a callable
    (tau, z) -> value.  A JacobiForm's components h_mu are evaluated once
    per stencil tau, each to accuracy 1e-20, and shared by the z stencil.
    The theta radius comes from _theta_truncation_for (tail below
    e^-(0.7 precision + 40)), the tail is checked once, at the stencil
    point of least Im tau, and each theta class is summed by _class_sum
    with no tail of its own.  A stencil leaving the upper half plane
    raises ValueError.  Harmonic decomposition components make the result
    O(h^2); a non-harmonic component leaves a residual bounded away from 0.
    """
    from mpmath import mp, mpc, mpf, pi

    prec = precision or default_precision()
    with mp.workprec(prec):
        tau0, z0, hh = mpc(point[0]), mpc(point[1]), mpf(h)
        if callable(target):
            phi_eval = target
        else:
            if target.k != k or target.m != m:
                raise ValueError("weight/index disagree with the stored form")
            comps = _numeric_components(target)
            radius = _theta_truncation_for(
                m, tau0.imag - 2 * hh, abs(z0.imag) + 2 * hh, 0.7 * prec + 40)
            # the z stencil moves along the real axis, so the theta tail is
            # worst at the least Im tau: one check there covers all 17 points
            _theta_tail(m, tau0 - 1j * hh, z0, radius)

            h_at: dict = {}  # the 2m components at each stencil tau, for this call

            def phi_eval(t, zz):
                if t not in h_at:
                    h_at[t] = [eval_point(c, t, accuracy=1e-20, precision=prec)[0]
                               for c in comps.values()]
                total = mpc(0)
                for g, hv in enumerate(h_at[t]):
                    total += hv * _class_sum(m, 0, g, t, zz, radius)
                return total

        lap = laplacian_fd(lambda t: phi_eval(t, z0), k - 1, tau0, h,
                           precision=prec)

        def dzz(t):
            return (phi_eval(t, z0 + hh) - 2 * phi_eval(t, z0)
                    + phi_eval(t, z0 - hh)) / hh**2

        mixed = ((dzz(tau0 + hh) - dzz(tau0 - hh)) / (2 * hh)
                 + 1j * (dzz(tau0 + 1j * hh) - dzz(tau0 - 1j * hh)) / (2 * hh)) / 2
        return -2 * lap + (tau0 - tau0.conjugate()) ** 2 / (4 * pi * 1j * m) * mixed


# -- the composite isomorphism -------------------------------------------


def thm2_map(phi: JacobiForm, *, allow_composite: bool = False) -> HarmonicExpansion:
    """Send a weight-k index-m form to its scalar plus-space expansion.

    The composite of theta_decompose and the component recombination; the
    result has weight k - 1/2 and passes the plus-space support check by
    construction.  k must be even (the odd case pairs with skew forms and
    different machinery) and m equal to 1 or prime unless overridden.
    """
    from .isomap import combine_to_scalar

    if phi.k % 2:
        raise ValueError("the composite map is defined for even weight k")
    if not (allow_composite or phi.m == 1 or is_prime(phi.m)):
        raise ValueError("m must be 1 or prime (pass allow_composite=True to override)")
    hs = theta_decompose(phi)
    if not hs.is_symmetric():
        raise ValueError(
            "even-weight forms satisfy c(D, -r) = c(D, r); the stored data does not"
        )
    return combine_to_scalar(hs)


def random_jacobi_form(k: int, m: int, rng, *, terms: int = 8) -> JacobiForm:
    """A random well-formed JacobiForm with small exact coefficients.

    Generated data respects the elliptic-law parity c(D, -r) = (-1)^k
    c(D, r), so even-weight output is valid thm2_map input.  For odd k
    the self-paired residues r = 0, m are skipped (their coefficients
    must vanish); odd weight and index 1 therefore gives the zero form.
    """
    n2 = 2 * m
    n4 = 4 * m
    sign = -1 if k % 2 else 1
    allowed = [r for r in range(n2) if sign > 0 or r not in (0, m)]

    def put(table, r, n, v):
        d = r * r - n4 * n
        table[(d, r)] = v
        table[(d, (-r) % n2)] = sign * v

    c_plus: dict[tuple[int, int], Fraction] = {}
    c_minus: dict[tuple[int, int], Fraction] = {}
    if not allowed:
        return JacobiForm(k, m, c_plus, c_minus)
    for _ in range(terms):
        put(c_plus, rng.choice(allowed), rng.randrange(-3, 6),
            Fraction(rng.randrange(-9, 10), rng.randrange(1, 7)))
    for _ in range(max(1, terms // 2)):
        put(c_minus, rng.choice(allowed), rng.randrange(-5, 0),
            Fraction(rng.randrange(-9, 10), rng.randrange(1, 7)))
    return JacobiForm(k, m, c_plus, c_minus)
