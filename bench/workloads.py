"""The four benchmark workloads: seeded inputs and the checks run on them.

Every workload is a closed loop: one caller issues checks one at a time.
A check is one call into weilforms that returns a verdict, and every check
knows its verdict in advance: PASS for a true identity, FAIL for a seeded
negative control.  All inputs (group elements, coefficient tables, JSON
files) are generated here from the seed, never by the program.

A workload's pool is a list of rounds, each a list of checks.  The kinds
and sizes of the checks in a round are fixed; the seed picks the elements,
points, coefficients and precisions.  So the cost of a round barely moves
with the seed, and a run that measures whole rounds sees the same mix on
every seed.
"""

from __future__ import annotations

import contextlib
import io
import json
import subprocess
import sys
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, inf, lcm
from pathlib import Path
from typing import Callable

from mpmath import mp, mpc, mpf

from weilforms import cli
from weilforms.cyclo import root_of_unity, sqrt_nat
from weilforms.discform import DiscriminantForm, square_classes
from weilforms.expansions import (
    HarmonicExpansion,
    eval_point,
    laplacian_fd,
    verify_S_transform,
)
from weilforms.isomap import (
    b_entry_bruteforce,
    build_proof_matrices,
    f_j_consistency_check,
    gauss_sum_identity_check,
    rank_lemma_check,
    split_to_vector,
)
from weilforms.jacobi import JacobiForm, casimir_reduced_fd, decomposition_consistency_check
from weilforms.metaplectic import MP_S, MpElement, mp_tilde
from weilforms.weilrep import borcherds_eigencheck, identity_matrix, rho_eval, shintani_unipotent

# -- checks ----------------------------------------------------------------


@dataclass
class Check:
    """One call into the program with a verdict known in advance.

    `call` is the timed part and returns (verdict, evidence).  `margin`,
    when set, turns the evidence into a certified margin in bits; it runs
    outside the timed region.  `m` is the index the check works at, which
    decides whether the check enters the reference digest.
    """

    label: str
    call: Callable[[], tuple[bool, dict]]
    expected: bool
    m: int = 0
    margin: Callable[[dict], float] | None = None
    prec: int = 0


@dataclass
class Context:
    """Where a workload writes its files and how CLI checks are run."""

    root: Path
    workdir: Path
    env: dict
    in_process: bool = False


def _bits(tolerance, error) -> float:
    """log2(tolerance / error); an error of exactly zero leaves no finite margin."""
    error = mpf(error)
    return float(mp.log(mpf(tolerance) / error, 2)) if error else inf


def _pm1(rng) -> int:
    return rng.choice((1, -1))


# -- exact_rep ---------------------------------------------------------------


def _cf_length(d: int, c: int) -> int:
    """Steps of the nearest-integer continued fraction of d/c."""
    steps = 0
    while c:
        q = round(Fraction(d, c))
        d, c = c, d - q * c
        steps += 1
    return steps


def _rand_sl2(rng, bound: int) -> tuple[int, int, int, int]:
    """(a b; c d) in SL2(Z), entries up to about `bound`, bottom row of
    continued-fraction length 8 to 10, so that the word and its cost vary
    little from seed to seed."""
    while True:
        c = rng.randrange(1, bound) * _pm1(rng)
        d = rng.randrange(-bound, bound + 1)
        if gcd(c, d) == 1 and 8 <= _cf_length(d, c) <= 10:
            a = pow(d, -1, abs(c)) if abs(c) > 1 else 0
            return a, (a * d - 1) // c, c, d


def _rand_gamma0(rng, m: int) -> tuple[int, int, int, int]:
    """(a b; c d) in Gamma_0(4m) with d > 0 and c != 0."""
    while True:
        c = 4 * m * rng.randrange(1, 60) * _pm1(rng)
        d = rng.randrange(1, 5000)
        if gcd(c, d) == 1:
            a = pow(d, -1, abs(c))
            return a, (a * d - 1) // c, c, d


def _check_s_power(df, dual, squarings):
    def call():
        acc = rho_eval(df, MP_S, dual=dual)
        for _ in range(squarings):
            acc = acc @ acc
        return acc == identity_matrix(df), {}
    return call


def _check_braid(df, dual):
    def call():
        S = rho_eval(df, MP_S, dual=dual)
        st = S @ rho_eval(df, mp_tilde((1, 1, 0, 1)), dual=dual)
        return st @ (st @ st) == S @ S, {}
    return call


def _check_unitary(df, g, dual):
    def call():
        return rho_eval(df, g, dual=dual).is_unitary(), {}
    return call


def _check_shintani(df, n):
    def call():
        return shintani_unipotent(df, n) == rho_eval(df, mp_tilde((1, 0, n, 1))), {}
    return call


def _check_eigen(df, g):
    def call():
        lam, holds = borcherds_eigencheck(df, g)
        return holds, {"detail": lam.to_json_dict()}
    return call


def _check_milgram(df):
    def call():
        return df.milgram_check(), {}
    return call


def _check_long_word(df, n):
    # rho(T)^(4m) = I, so the lower unipotent depends on n mod 4m only;
    # the left side goes through a word of about n tokens
    def call():
        r = n % (4 * df.m)
        return rho_eval(df, mp_tilde((1, 0, n, 1))) == rho_eval(df, mp_tilde((1, 0, r, 1))), {}
    return call


# the large-index slots: one fixed kind per m, so a round costs the same on every seed
_LARGE = {8: "s8", 9: "unitary", 10: "braid", 11: "eigen", 12: "s4", 13: "shintani",
          14: "unitary", 15: "braid", 16: "s8"}


def _exact_check(rng, kind: str, m: int, dual: bool) -> Check:
    df = DiscriminantForm(m)
    tag = " dual" if dual else ""
    if kind == "s8":
        return Check(f"rho(S)^8=I m={m}{tag}", _check_s_power(df, dual, 3), True, m)
    if kind == "s4":
        return Check(f"rho(S)^4=I control m={m}{tag}", _check_s_power(df, dual, 2), False, m)
    if kind == "braid":
        return Check(f"(ST)^3=S^2 m={m}{tag}", _check_braid(df, dual), True, m)
    if kind == "unitary":
        a, b, c, d = _rand_sl2(rng, 10**6)
        g = MpElement(a, b, c, d, _pm1(rng))
        return Check(f"unitary m={m} {g}{tag}", _check_unitary(df, g, dual), True, m)
    if kind == "shintani":
        n = (1 + m % 5) * _pm1(rng)  # |n| fixed per index: n - 1 products
        return Check(f"shintani m={m} n={n}", _check_shintani(df, n), True, m)
    if kind == "eigen":
        g = _rand_gamma0(rng, m)
        return Check(f"eigen m={m} {g}", _check_eigen(df, g), True, m)
    raise ValueError(kind)


def build_exact_rep(rng, ctx: Context) -> list[list[Check]]:
    checks = []
    for m in range(2, 8):
        for i, kind in enumerate(("unitary", "s8", "braid", "s4", "shintani", "eigen")):
            checks.append(_exact_check(rng, kind, m, dual=(i + m) % 2 == 1))
    for m, kind in _LARGE.items():
        checks.append(_exact_check(rng, kind, m, dual=m % 2 == 1))
    for m in rng.sample(range(2, 17), 4):
        checks.append(Check(f"milgram m={m}", _check_milgram(DiscriminantForm(m)), True, m))
    for m in rng.sample(range(2, 17), 2):
        df = DiscriminantForm(m, (2, 2))
        checks.append(Check(f"milgram (2,2) control m={m}", _check_milgram(df), False, m))
    for m in range(2, 8):
        n = rng.randrange(9500, 10001)
        checks.append(Check(f"long word m={m} n={n}",
                            _check_long_word(DiscriminantForm(m), n), True, m))
    rng.shuffle(checks)
    return [checks]


# -- proof_matrices ----------------------------------------------------------


def _moebius(n: int) -> int:
    mu, p = 1, 2
    while p * p <= n:
        if n % p == 0:
            n //= p
            if n % p == 0:
                return 0
            mu = -mu
        p += 1
    return -mu if n > 1 else mu


def _ramanujan(q: int, n: int) -> int:
    """c_q(n) = sum over d | gcd(n, q) of mu(q/d) d."""
    g = gcd(n, q)
    return sum(_moebius(q // d) * d for d in range(1, g + 1) if g % d == 0)


def _rank(rows: list[list[int]]) -> int:
    """Rank over Q by plain Gaussian elimination on Fractions."""
    m = [[Fraction(x) for x in r] for r in rows]
    rank = 0
    for col in range(len(m[0]) if m else 0):
        piv = next((r for r in range(rank, len(m)) if m[r][col]), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        for r in range(rank + 1, len(m)):
            f = m[r][col] / m[rank][col]
            if f:
                m[r] = [x - f * y for x, y in zip(m[r], m[rank])]
        rank += 1
    return rank


def _expected_rank_report(m: int) -> tuple:
    """The rank report for B = CA computed independently of the program.

    B[beta][gamma] is the Ramanujan sum c_4m(gamma^2 - beta^2).
    """
    dim, n4 = 2 * m, 4 * m
    b = [[_ramanujan(n4, g * g - be * be) for g in range(dim)] for be in range(dim)]
    phi_m = sum(1 for j in range(1, m + 1) if gcd(j, m) == 1)
    expected = 2 * phi_m
    rank = _rank(b)
    disc = []
    for be in range(dim):
        for g in range(dim):
            pred = expected if be == g else (-2 if (be - g) % 2 == 0 else 0)
            if b[be][g] != pred:
                disc.append((be, g, b[be][g], pred))
    return (rank, _rank([r[:expected] for r in b]) == expected, expected,
            rank == expected, tuple(disc), _rank([r[: m + 1] for r in b]) == m + 1), b


def _check_rank(m, want):
    def call():
        rep = rank_lemma_check(m)
        return tuple(rep) == want, {"detail": [rep.rank, rep.rank_matches]}
    return call


def _check_gauss(m):
    def call():
        return gauss_sum_identity_check(m), {}
    return call


def _check_b_entries(m, cells, b):
    def call():
        B = build_proof_matrices(m).B
        values = [b_entry_bruteforce(m, be, g) for be, g in cells]
        ok = all(B[be][g].as_rational() == v == b[be][g] for (be, g), v in zip(cells, values))
        return ok, {"detail": values}
    return call


def build_proof_matrices_workload(rng, ctx: Context) -> list[list[Check]]:
    checks = []
    expected = {m: _expected_rank_report(m) for m in range(1, 12)}
    for m in range(1, 12):
        checks.append(Check(f"rank lemma m={m}", _check_rank(m, expected[m][0]), True, m))
    for m in range(1, 8):
        checks.append(Check(f"gauss sum m={m}", _check_gauss(m), True, m))
    # one product per index up to 8, and more at the cheap indices so that
    # three rounds make the 100 checks a run needs
    for m in [*range(1, 9), *range(1, 5), *range(1, 5)]:
        b = expected[m][1]
        cells = [(rng.randrange(2 * m), rng.randrange(2 * m)) for _ in range(4)]
        checks.append(Check(f"b entries m={m} {cells}", _check_b_entries(m, cells, b), True, m))
    rng.shuffle(checks)
    return [checks]


# -- numeric_certify ---------------------------------------------------------

TOL = 1e-8
WIDE = (-10**6, 10**6)


def _rand_tau(rng, lo=0.6, hi=2.0) -> complex:
    """A point with |Re| <= 1/2 and Im in [lo, hi], six decimals each."""
    return complex(round(rng.uniform(-0.5, 0.5), 6), round(rng.uniform(lo, hi), 6))


def _theta_coeffs(n_max: int) -> dict[int, int]:
    out, x = {}, 0
    while x * x <= n_max:
        out[x * x] = 1 if x == 0 else 2
        x += 1
    return out


def _plus_classes(m: int, k: int) -> set[int]:
    n4 = 4 * m
    squares = {x * x % n4 for x in range(2 * m)}
    sign = -1 if k % 2 else 1
    return {n for n in range(n4) if (sign * n) % n4 in squares}


def _rand_value(rng) -> Fraction:
    return Fraction(rng.choice([v for v in range(-9, 10) if v]), rng.randrange(1, 7))


def _rand_plus(rng, m, k, n_plus, n_minus, lo, hi, principal=8):
    """Random plus-space tables: c+ on [-principal, hi], c- on [lo, -1]."""
    classes = _plus_classes(m, k)
    allowed = [n for n in range(-principal, hi + 1) if n % (4 * m) in classes]
    negatives = [n for n in range(lo, 0) if n % (4 * m) in classes]
    c_plus = {n: _rand_value(rng) for n in rng.sample(allowed, min(n_plus, len(allowed)))}
    c_minus = {n: _rand_value(rng) for n in rng.sample(negatives, min(n_minus, len(negatives)))}
    return c_plus, c_minus


def _rand_jacobi(rng, k, m, n_plus, n_minus):
    """Random (D, r) tables obeying c(D, -r) = (-1)^k c(D, r)."""
    n2, n4 = 2 * m, 4 * m
    sign = -1 if k % 2 else 1
    allowed = [r for r in range(n2) if sign > 0 or r not in (0, m)]
    tables = ({}, {})
    for table, count, n_lo, n_hi in ((tables[0], n_plus, -3, 20), (tables[1], n_minus, -8, -1)):
        for _ in range(count):
            r, n, v = rng.choice(allowed), rng.randint(n_lo, n_hi), _rand_value(rng)
            d = r * r - n4 * n
            table[(d, r)] = v
            table[(d, (-r) % n2)] = sign * v
    return tables


def _vector_bounds(F, points, prec):
    """Truncation bounds of F at tau and -1/tau, summed over the points."""
    total = mpf(0)
    with mp.workprec(prec):
        for t in map(mpc, points):
            for p in (-1 / t, t):
                total += eval_point(F, p, accuracy=inf, precision=prec)[1]
    return total


def _check_S(F, t, prec):
    def call():
        rep = verify_S_transform(F, [t], TOL, precision=prec)
        return rep.passed, {"dev": rep.max_deviation}
    return call, lambda ev: _bits(TOL, ev["dev"] + _vector_bounds(F, [t], prec))


def _check_fj(f, F, j, t, prec):
    def call():
        rep = f_j_consistency_check(f, 1, 0, j, [t], TOL, precision=prec)
        return rep.passed, {"dev": rep.max_deviation}
    return call, lambda ev: _bits(TOL, ev["dev"] + _vector_bounds(F, [t], prec))


def _check_decomposition(phi, point, prec):
    def call():
        return decomposition_consistency_check(phi, [point], precision=prec).passed, {}
    return call, None


def _check_casimir(point, prec):
    phi = JacobiForm(2, 1, {(1, 1): 1})

    def call():
        return abs(casimir_reduced_fd(phi, 2, 1, point, 1e-3, precision=prec)) < 1e-4, {}
    return call, None


def _check_laplacian(f, k, t, prec):
    def call():
        return abs(laplacian_fd(f, k, t, 1e-3, accuracy=1.0, precision=prec)) < 1e-6, {}
    return call, None


def _check_split_eval(f, m, k, t, prec):
    # f(tau) = sum over gamma of F_gamma(4m tau) for m = 1 or prime
    def call():
        sv, sb = eval_point(f, t, precision=prec)
        with mp.workprec(prec):
            vals, vb = eval_point(split_to_vector(f, m, k), 4 * m * mpc(t), precision=prec)
            dev = abs(sv - sum(vals.values()))
            bound = sb + 2 * m * vb
            tol = TOL * max(1, abs(sv))
            return dev + bound <= tol, {"dev": dev, "bound": bound, "tol": tol}
    return call, lambda ev: _bits(ev["tol"], ev["dev"] + ev["bound"])


def build_numeric_certify(rng, ctx: Context) -> list[list[Check]]:
    theta = HarmonicExpansion(1, _theta_coeffs(400), {}, window=(-400, 400))
    theta_vec = split_to_vector(theta, 1, 0)
    specs = []  # (label, make(prec) -> (call, margin or None), expected)
    for _ in range(4):
        t = _rand_tau(rng)
        specs.append((f"S theta tau={t}", lambda p, t=t: _check_S(theta_vec, t, p), True))
    for j in (1, 3, 1, 3):
        t = _rand_tau(rng)
        specs.append((f"fj j={j} tau={t}",
                      lambda p, j=j, t=t: _check_fj(theta, theta_vec, j, t, p), True))
    for _ in range(2):
        c = _theta_coeffs(400)
        n0 = rng.choice((0, 1))
        c[n0] += rng.choice((1, 2, 3))
        bad = split_to_vector(HarmonicExpansion(1, c, {}, window=(-400, 400)), 1, 0)
        t = _rand_tau(rng)
        specs.append((f"S corrupted c({n0}) control tau={t}",
                      lambda p, bad=bad, t=t: (_check_S(bad, t, p)[0], None), False))
    for m in range(1, 6):
        k = rng.choice((0, 2)) if m == 1 else rng.randrange(4)  # odd k and m = 1 give 0
        phi = JacobiForm(k, m, *_rand_jacobi(rng, k, m, 8, 4))
        point = (_rand_tau(rng, 0.8, 1.3),
                 complex(round(rng.uniform(-0.3, 0.3), 6), round(rng.uniform(-0.1, 0.1), 6)))
        specs.append((f"decomposition m={m} k={k}",
                      lambda p, phi=phi, pt=point: _check_decomposition(phi, pt, p), True))
    for _ in range(2):
        point = (_rand_tau(rng, 0.9, 1.2),
                 complex(round(rng.uniform(0, 0.2), 6), round(rng.uniform(0, 0.05), 6)))
        specs.append((f"casimir at {point}", lambda p, pt=point: _check_casimir(pt, p), True))
    for holomorphic in (True, False, True, False):
        k, n = rng.randrange(2), rng.randrange(1, 4)
        f = (HarmonicExpansion(2 * k + 1, {n: 1}, window=WIDE) if holomorphic
             else HarmonicExpansion(2 * k + 1, {}, {-n: 1}, window=WIDE))
        t = _rand_tau(rng, 0.8, 1.5)
        specs.append((f"laplacian k={k} {'q' if holomorphic else 'Gamma q'}^{n if holomorphic else -n}",
                      lambda p, f=f, k=k, t=t: _check_laplacian(f, k, t, p), True))
    for m in (1, 2, 3, 5, 7, 11):
        k = rng.randrange(2)
        c_plus, c_minus = _rand_plus(rng, m, k, 12, 6, -40, 40, principal=6)
        f = HarmonicExpansion(2 * k + 1, c_plus, c_minus, window=WIDE)
        t = _rand_tau(rng, 0.6, 1.5)
        specs.append((f"scalar vs split m={m} k={k}",
                      lambda p, f=f, m=m, k=k, t=t: _check_split_eval(f, m, k, t, p), True))
    checks = []
    for label, make, expected in specs:
        for prec in (128, 256):
            call, margin = make(prec)
            checks.append(Check(f"{label} prec={prec}", call, expected, margin=margin, prec=prec))
    rng.shuffle(checks)
    return [checks]


# -- cli_roundtrip -----------------------------------------------------------


def _canonical(obj) -> str:
    """The layout the program's containers write: sorted keys, indent 2."""
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def _enc(v):
    return None if v is None else str(Fraction(v))


def scalar_file(m, k, c_plus, c_minus, window) -> str:
    records = [{"n": str(n), "c_plus": _enc(c_plus.get(n)), "c_minus": _enc(c_minus.get(n))}
               for n in sorted(set(c_plus) | set(c_minus))]
    return _canonical({"kind": "scalar", "m": m, "k": k, "dual": False,
                       "weight_num": 2 * k + 1, "coeffs": records,
                       "window": [str(window[0]), str(window[1])]})


def jacobi_file(k, m, c_plus, c_minus) -> str:
    def table(d):
        return [{"D": key[0], "r": key[1], "v": _enc(v)} for key, v in sorted(d.items())]
    d_max = max([d for d, _ in c_plus] + [d for d, _ in c_minus] + [0])
    return _canonical({"kind": "jacobi", "k": k, "m": m, "c_plus": table(c_plus),
                       "c_minus": table(c_minus), "d_max": d_max})


def _run_cli(ctx: Context, argv: list[str]) -> int:
    if ctx.in_process:
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            try:
                return cli.main(argv)
            except SystemExit as e:
                return e.code
    # no timeout: waiting with one polls in sleeps of up to 50 ms, which
    # would quantize the latency being measured
    proc = subprocess.run([sys.executable, "-m", "weilforms.cli", *argv], env=ctx.env,
                          cwd=ctx.root, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    return proc.returncode


def _cli_check(ctx, label, argv, report: Path, expected_code=0, same: tuple | None = None,
               out: Path | None = None) -> Check:
    """A `weil` command run with --json; exit code 0 is PASS and 2 is FAIL.

    Any other exit code is an error.  `same` names two files that must
    hold equal bytes afterwards.
    """
    def call():
        code = _run_cli(ctx, [*argv, "--json", str(report)])
        if code not in (0, 2):
            raise RuntimeError(f"weil {argv[0]} exited with {code}")
        ok = code == 0
        if same is not None:
            ok = ok and same[0].read_bytes() == same[1].read_bytes()
        detail = [code, report.read_text() if report.exists() else None,
                  out.read_text() if out is not None and out.exists() else None]
        return ok, {"code": code, "detail": detail}
    return Check(label, call, expected_code == 0)


CLI_INDICES = (1, 2, 3, 5, 7)


def build_cli_roundtrip(rng, ctx: Context) -> list[list[Check]]:
    rounds = []
    for i, m in enumerate(CLI_INDICES):
        d = ctx.workdir / f"round{i}"
        d.mkdir(parents=True, exist_ok=True)
        checks = []
        k = rng.randrange(2)
        c_plus, c_minus = _rand_plus(rng, m, k, 200, 60, -300, 600)
        src, vec, back = d / "scalar.json", d / "vector.json", d / "back.json"
        src.write_text(scalar_file(m, k, c_plus, c_minus, (-300, 600)))
        t = _rand_tau(rng, 0.5, 1.5)
        point = f"{t.real}{t.imag:+}i"  # the CLI writes the imaginary unit as i
        for label, argv, extra in (
            ("split", ["split", "--in", src, "--out", vec], {"out": vec}),
            ("check-T", ["check-T", "--in", vec], {}),
            ("combine", ["combine", "--in", vec, "--out", back], {"out": back, "same": (src, back)}),
            ("check-plus", ["check-plus", "--in", back], {}),
            ("eval", ["eval", "--in", back, f"--points={point}"], {}),  # may start with -
        ):
            checks.append(_cli_check(ctx, f"{label} m={m} k={k}", [str(a) for a in argv],
                                     d / f"{label}.report.json", **extra))
        kj = rng.choice((0, 2, 4))
        phi, comps, phi2, scal = (d / n for n in ("phi.json", "comps.json", "phi2.json", "thm2.json"))
        phi.write_text(jacobi_file(kj, m, *_rand_jacobi(rng, kj, m, 30, 10)))
        for label, argv, extra in (
            ("jacobi-decompose", ["jacobi-decompose", "--in", phi, "--out", comps], {"out": comps}),
            ("jacobi-reconstruct", ["jacobi-reconstruct", "--in", comps, "--out", phi2],
             {"out": phi2, "same": (phi, phi2)}),
            ("jacobi-thm2", ["jacobi-thm2", "--in", phi, "--out", scal], {"out": scal}),
        ):
            checks.append(_cli_check(ctx, f"{label} m={m} k={kj}", [str(a) for a in argv],
                                     d / f"{label}.report.json", **extra))
        mm, rm, hm, hr = rng.randrange(1, 31), rng.randrange(1, 9), rng.randrange(1, 11), rng.randrange(-25, 26)
        bm = rng.randrange(1, 6)
        beta, gamma = rng.randrange(2 * bm), rng.randrange(2 * bm)
        word = " ".join(rng.choice(("S", "S'", "T", "T'", "Z")) for _ in range(rng.randrange(2, 9)))
        cm = rng.randrange(1, 31)
        for label, argv, code in (
            (f"milgram m={mm}", ["milgram", "--m", mm], 0),
            (f"rho m={rm} word={word}", ["rho", "--m", rm, "--word", word], 0),
            (f"heat-check m={hm} r={hr}", ["heat-check", "--m", hm, "--r", hr], 0),
            (f"b-entry m={bm} {beta},{gamma}", ["b-entry", "--m", bm, "--beta", beta, "--gamma", gamma], 0),
            (f"milgram (2,2) control m={cm}", ["milgram", "--m", cm, "--signature", "2,2"], 2),
        ):
            checks.append(_cli_check(ctx, label, [str(a) for a in argv],
                                     d / f"small{len(checks)}.report.json", expected_code=code))
        rounds.append(checks)
    return rounds


def warm_cli(ctx: Context) -> None:
    """One throwaway command, so the first timed one finds compiled modules."""
    _run_cli(ctx, ["heat-check", "--m", "1", "--r", "1"])


# -- registry ----------------------------------------------------------------


def warm_caches(ms) -> None:
    """Fill the cyclotomic and discriminant-form tables for these indices."""
    for m in ms:
        for n in (lcm(8, 4 * m), 4 * m, 2 * m):
            root_of_unity(1, n)
        sqrt_nat(2 * m)
        square_classes(m, 0)
        square_classes(m, 1)


@dataclass(frozen=True)
class Workload:
    build: Callable[..., list[list[Check]]]
    indices: tuple[int, ...]   # indices whose tables the warm-up fills
    gate_max_m: int | None     # checks with m at most this enter the digest; None: no digest


WORKLOADS = {
    "exact_rep": Workload(build_exact_rep, tuple(range(2, 17)), 8),
    "proof_matrices": Workload(build_proof_matrices_workload, tuple(range(1, 12)), 6),
    "numeric_certify": Workload(build_numeric_certify, tuple(range(1, 12)), None),
    "cli_roundtrip": Workload(build_cli_roundtrip, CLI_INDICES, 0),
}
