"""Command-line front end for the exact and numeric checks.

Every subcommand prints one line per check plus an overall verdict and
exits 0 when everything passes, 2 when an identity or tolerance check
fails, and 1 on usage or input errors.  `--json PATH` writes the same
report as stable JSON (sorted keys, no timestamps), so identical
invocations produce identical bytes.  Numeric paths run at
WEIL_PRECISION_BITS bits of working precision (default 128).
"""

from __future__ import annotations

import argparse
import cmath
import sys
from pathlib import Path

from . import containers
from .discform import DiscriminantForm

__all__ = ["main", "build_parser", "DEFAULT_SEED"]

DEFAULT_SEED = 20260825


class _Parser(argparse.ArgumentParser):
    """argparse with usage failures mapped to exit code 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        sys.exit(1)


def _parse_complex(text: str) -> complex:
    """A finite complex number written with i (e.g. "0.3+1i")."""
    value = complex(text.replace("i", "j"))
    if not cmath.isfinite(value):
        raise ValueError(f"{text!r} is not a finite complex number")
    return value


def _parse_points(text: str) -> list[complex]:
    """Semicolon-separated complex numbers, written with i (e.g. "i;0.3+1i")."""
    points = []
    for part in text.split(";"):
        part = part.strip()
        if part:
            points.append(_parse_complex(part))
    if not points:
        raise ValueError("no points given")
    return points


def _parse_signature(text: str) -> tuple[int, int]:
    parts = text.split(",")
    if len(parts) != 2:
        raise ValueError("signature must be written as b+,b-")
    return int(parts[0]), int(parts[1])


def _check(name: str, mode: str, passed, **extra) -> dict:
    rec = {"name": name, "mode": mode, "pass": bool(passed)}
    rec.update(extra)
    return rec


def _complex_pair(v) -> list[float]:
    c = complex(v)
    return [c.real, c.imag]


def _read_container(path: str):
    return containers.loads(Path(path).read_text())


def _write_container(path: str, obj) -> None:
    Path(path).write_text(containers.dumps(obj))


def _finish(args, command: str, parameters: dict, checks: list[dict],
            result=None) -> int:
    report = {
        "command": command,
        "parameters": parameters,
        "checks": checks,
        "overall": all(c["pass"] for c in checks),
    }
    if result is not None:
        report["result"] = result
    for c in checks:
        tail = ""
        if "deviation" in c:
            tail += f"  deviation={c['deviation']:.3g}"
        if "tolerance" in c:
            tail += f"  tolerance={c['tolerance']:.3g}"
        if "detail" in c:
            tail += f"  ({c['detail']})"
        print(f"{'PASS' if c['pass'] else 'FAIL'} {c['name']}{tail}")
    print(f"overall: {'pass' if report['overall'] else 'FAIL'}")
    if args.json:
        _write_container(args.json, report)
    return 0 if report["overall"] else 2


def _load_scalar(args):
    """The scalar expansion a subcommand should operate on, with (m, k)."""
    if args.builtin:
        if args.builtin != "theta":
            raise ValueError(f"unknown builtin {args.builtin!r}")
        from .expansions import theta_expansion

        return theta_expansion(args.window), 1, 0
    if not args.infile:
        raise ValueError("give --in FILE or --builtin theta")
    f, m, k = containers.scalar_from_json(_read_container(args.infile))
    if args.m is not None:
        m = args.m
    if args.k is not None:
        k = args.k
    return f, m, k


# -- subcommand handlers --------------------------------------------------


def _cmd_milgram(args) -> int:
    sig = _parse_signature(args.signature)
    df = DiscriminantForm(args.m, sig)
    ok = df.milgram_check()
    checks = [_check("milgram-sum", "exact", ok,
                     detail=f"m={args.m}, signature={sig}")]
    return _finish(args, "milgram", {"m": args.m, "signature": list(sig)}, checks)


def _cmd_rho(args) -> int:
    from .expansions import default_precision
    from .metaplectic import parse_word
    from .weilrep import rho_eval

    prec = default_precision()
    df = DiscriminantForm(args.m)
    word = parse_word(args.word)
    mat = rho_eval(df, word.to_element(), dual=args.dual)
    checks = [_check("unitary", "exact", mat.is_unitary())]
    result = {
        "matrix": mat.to_json_dict(),
        "embedding": [[_complex_pair(v) for v in row] for row in mat.embed(prec)],
    }
    params = {"m": args.m, "word": args.word, "dual": args.dual}
    return _finish(args, "rho", params, checks, result)


def _cmd_split(args) -> int:
    from .expansions import plus_space_check
    from .isomap import split_to_vector

    f, m, k = _load_scalar(args)
    F = split_to_vector(f, m, k, allow_composite=args.allow_composite)
    checks = [
        _check("plus-space", "exact", plus_space_check(f, m, k)),
        _check("image-support", "exact", F.support_congruence_ok()),
        _check("image-symmetric", "exact", F.is_symmetric()),
    ]
    if args.out:
        _write_container(args.out, containers.vector_to_json(F))
    params = {"m": m, "k": k, "allow_composite": args.allow_composite}
    return _finish(args, "split", params, checks)


def _cmd_combine(args) -> int:
    from .expansions import plus_space_check
    from .isomap import combine_to_scalar

    F = containers.vector_from_json(_read_container(args.infile))
    f = combine_to_scalar(F, k=args.k)
    k = (f.weight_num - 1) // 2
    checks = [_check("plus-space", "exact", plus_space_check(f, F.df.m, k))]
    if args.out:
        _write_container(args.out, containers.scalar_to_json(f, F.df.m, k))
    return _finish(args, "combine", {"m": F.df.m, "k": k}, checks)


def _cmd_eval(args) -> int:
    from .expansions import TruncationError, default_precision, eval_point

    prec = default_precision()
    points = _parse_points(args.points)
    if args.infile:
        kind, payload = containers.load_form(_read_container(args.infile))
    else:
        kind, payload = "scalar", _load_scalar(args)
    if kind == "jacobi":
        from .jacobi import jacobi_eval_direct

        z = _parse_complex(args.z) if args.z else 0j
    checks = []
    values = []
    for p in points:
        name = f"eval@{p}"
        try:
            if kind == "jacobi":
                val, bound = jacobi_eval_direct(payload, p, z, args.truncation,
                                                precision=prec)
                values.append({"point": str(p), "z": str(z),
                               "value": _complex_pair(val),
                               "bound": float(bound)})
            elif kind == "vector":
                vals, bound = eval_point(payload, p, accuracy=args.accuracy,
                                         precision=prec)
                values.append({
                    "point": str(p),
                    "value": {str(g): _complex_pair(v) for g, v in sorted(vals.items())},
                    "bound": float(bound),
                })
            else:
                f = payload[0]
                val, bound = eval_point(f, p, accuracy=args.accuracy,
                                        precision=prec)
                values.append({"point": str(p), "value": _complex_pair(val),
                               "bound": float(bound)})
            checks.append(_check(name, "numeric", True))
        except TruncationError as e:
            checks.append(_check(name, "numeric", False, detail=str(e)))
    params = {"kind": kind, "points": args.points, "accuracy": args.accuracy}
    return _finish(args, "eval", params, checks, {"values": values})


def _cmd_check_plus(args) -> int:
    from .expansions import plus_space_check

    f, m, k = _load_scalar(args)
    ok = plus_space_check(f, m, k)
    checks = [_check("plus-space", "exact", ok, detail=f"m={m}, k={k}")]
    return _finish(args, "check-plus", {"m": m, "k": k}, checks)


def _cmd_check_T(args) -> int:
    F = containers.vector_from_json(_read_container(args.infile))
    checks = [_check("T-support", "exact", F.support_congruence_ok())]
    return _finish(args, "check-T", {"m": F.df.m, "dual": F.dual}, checks)


def _cmd_check_S(args) -> int:
    from .expansions import TruncationError, default_precision, verify_S_transform
    from .isomap import split_to_vector

    prec = default_precision()
    points = _parse_points(args.points)
    if args.infile:
        F = containers.vector_from_json(_read_container(args.infile))
    else:
        f, m, k = _load_scalar(args)
        F = split_to_vector(f, m, k)
    try:
        rep = verify_S_transform(F, points, args.tol, precision=prec)
        checks = [_check("S-transform", "numeric", rep.passed,
                         deviation=rep.max_deviation, tolerance=rep.tolerance)]
    except TruncationError as e:
        checks = [_check("S-transform", "numeric", False, detail=str(e))]
    params = {"m": F.df.m, "points": args.points, "tol": args.tol}
    return _finish(args, "check-S", params, checks)


def _cmd_fj_check(args) -> int:
    from .expansions import TruncationError, default_precision
    from .isomap import f_j_consistency_check

    prec = default_precision()
    points = _parse_points(args.points)
    f, m, k = _load_scalar(args)
    try:
        rep = f_j_consistency_check(f, m, k, args.j, points, args.tol,
                                    precision=prec)
        checks = [_check(f"fj-transform(j={args.j})", "numeric", rep.passed,
                         deviation=rep.max_deviation, tolerance=rep.tolerance)]
    except TruncationError as e:
        checks = [_check(f"fj-transform(j={args.j})", "numeric", False,
                         detail=str(e))]
    params = {"m": m, "k": k, "j": args.j, "points": args.points, "tol": args.tol}
    return _finish(args, "fj-check", params, checks)


def _cmd_rank_lemma(args) -> int:
    from .isomap import rank_lemma_check

    rep = rank_lemma_check(args.m)
    checks = [_check(
        "rank-protocol", "exact", True,
        detail=(f"rank={rep.rank}, claimed={rep.expected_rank}, "
                f"matches={rep.rank_matches}"),
    )]
    result = {
        "rank": rep.rank,
        "claimed_rank": rep.expected_rank,
        "rank_matches_claim": rep.rank_matches,
        "first_columns_independent": rep.first_columns_independent,
        "distinct_columns_independent": rep.distinct_columns_independent,
        "table_discrepancies": [list(t) for t in rep.table_discrepancies],
    }
    return _finish(args, "rank-lemma", {"m": args.m}, checks, result)


def _cmd_gauss_check(args) -> int:
    from .isomap import gauss_sum_identity_check

    checks = [_check("gauss-sum-rows", "exact", gauss_sum_identity_check(args.m),
                     detail=f"m={args.m}")]
    return _finish(args, "gauss-check", {"m": args.m}, checks)


def _cmd_b_entry(args) -> int:
    from .isomap import b_entry_bruteforce, build_proof_matrices

    value = b_entry_bruteforce(args.m, args.beta, args.gamma)
    pm = build_proof_matrices(args.m)
    entry = pm.B[args.beta % (2 * args.m)][args.gamma % (2 * args.m)]
    checks = [_check("product-equals-bruteforce", "exact",
                     entry.as_rational() == value)]
    params = {"m": args.m, "beta": args.beta, "gamma": args.gamma}
    return _finish(args, "b-entry", params, checks, {"value": value})


def _cmd_jacobi_decompose(args) -> int:
    from .jacobi import reconstruct, theta_decompose

    phi = containers.jacobi_from_json(_read_container(args.infile))
    hs = theta_decompose(phi)
    checks = [
        _check("component-support", "exact", hs.support_congruence_ok()),
        _check("roundtrip", "exact", reconstruct(hs, phi.m) == phi),
    ]
    if args.out:
        _write_container(args.out, containers.vector_to_json(hs))
    return _finish(args, "jacobi-decompose", {"k": phi.k, "m": phi.m}, checks)


def _cmd_jacobi_reconstruct(args) -> int:
    from .jacobi import reconstruct

    hs = containers.vector_from_json(_read_container(args.infile))
    phi = reconstruct(hs, hs.df.m)
    checks = [_check("well-formed", "exact", True,
                     detail=f"k={phi.k}, m={phi.m}, d_max={phi.d_max}")]
    if args.out:
        _write_container(args.out, containers.jacobi_to_json(phi))
    return _finish(args, "jacobi-reconstruct", {"m": hs.df.m}, checks)


def _cmd_jacobi_thm2(args) -> int:
    from .expansions import plus_space_check
    from .isomap import split_to_vector
    from .jacobi import theta_decompose, thm2_map

    phi = containers.jacobi_from_json(_read_container(args.infile))
    f = thm2_map(phi, allow_composite=args.allow_composite)
    k_scalar = phi.k - 1
    checks = [
        _check("plus-space", "exact", plus_space_check(f, phi.m, k_scalar)),
        _check("split-image-equals-decomposition", "exact",
               split_to_vector(f, phi.m, k_scalar,
                               allow_composite=args.allow_composite)
               == theta_decompose(phi)),
    ]
    if args.out:
        _write_container(args.out, containers.scalar_to_json(f, phi.m, k_scalar))
    return _finish(args, "jacobi-thm2", {"k": phi.k, "m": phi.m}, checks)


def _cmd_heat_check(args) -> int:
    from .jacobi import heat_operator_term_check

    value = heat_operator_term_check(args.m, args.r)
    checks = [_check("heat-term", "exact", value == 0,
                     detail=f"value={value} (in units of 2 pi i)")]
    return _finish(args, "heat-check", {"m": args.m, "r": args.r}, checks)


def _cmd_casimir_check(args) -> int:
    from .expansions import default_precision
    from .jacobi import casimir_reduced_fd

    prec = default_precision()
    phi = containers.jacobi_from_json(_read_container(args.infile))
    tau = _parse_complex(args.tau)
    z = _parse_complex(args.z)
    value = casimir_reduced_fd(phi, phi.k, phi.m, (tau, z), args.h,
                               precision=prec)
    dev = abs(complex(value))
    checks = [_check("reduced-casimir", "numeric", dev <= args.tol,
                     deviation=float(dev), tolerance=args.tol)]
    params = {"k": phi.k, "m": phi.m, "tau": args.tau, "z": args.z, "h": args.h}
    return _finish(args, "casimir-check", params, checks,
                   {"value": _complex_pair(value)})


def _cmd_selftest(args) -> int:
    import random

    from .expansions import (TruncationError, default_precision, plus_space_check,
                             random_plus_expansion, theta_expansion, verify_S_transform)
    from .isomap import combine_to_scalar, gauss_sum_identity_check, split_to_vector
    from .jacobi import (heat_operator_term_check, random_jacobi_form, reconstruct,
                         theta_decompose, thm2_map)
    from .weilrep import borcherds_eigencheck, identity_matrix, rho_S, rho_T

    prec = default_precision()
    rng = random.Random(args.seed)
    checks = []

    ok = all(DiscriminantForm(m).milgram_check() for m in range(1, 13))
    checks.append(_check("milgram(m<=12)", "exact", ok))

    ok = True
    for m in (1, 2, 3):
        df = DiscriminantForm(m)
        S = rho_S(df)
        T = rho_T(df)
        braid = (S @ T) @ ((S @ T) @ (S @ T))
        ok = ok and (S @ S) @ (S @ S) @ (S @ S) @ (S @ S) == identity_matrix(df)
        ok = ok and braid == S @ S
    checks.append(_check("rho(S)^8 and braid (m<=3)", "exact", ok))

    ok = True
    for m in (1, 2, 3):
        df = DiscriminantForm(m)
        for _ in range(5):
            b, c = rng.randrange(-9, 10), rng.randrange(-2, 3)
            a = rng.choice([x for x in range(-9, 10) if x % 2])
            # solve a d - 4 m b c = 1 for integer d when possible
            rhs = 1 + 4 * m * b * c
            if rhs % a:
                continue
            g = (a, b, c * 4 * m, rhs // a)
            if g[3] <= 0:
                continue
            _, holds = borcherds_eigencheck(df, g)
            ok = ok and holds
    checks.append(_check("borcherds-eigenvector (random)", "exact", ok))

    ok = True
    for m in (1, 3):
        for k in (0, 1):
            for _ in range(10):
                f = random_plus_expansion(m, k, rng)
                F = split_to_vector(f, m, k)
                ok = ok and combine_to_scalar(F) == f
                ok = ok and F.support_congruence_ok()
    checks.append(_check("split/combine roundtrip (random)", "exact", ok))

    ok = all(gauss_sum_identity_check(m) for m in (1, 2, 3, 5))
    checks.append(_check("gauss-sum-rows (m<=5)", "exact", ok))

    ok = all(
        heat_operator_term_check(m, r) == 0
        for m in range(1, 6) for r in range(-10, 11)
    )
    checks.append(_check("heat-term zeros (m<=5)", "exact", ok))

    ok = True
    for m in (1, 2):
        for _ in range(5):
            phi = random_jacobi_form(rng.choice([0, 1, 2, 3]), m, rng)
            ok = ok and reconstruct(theta_decompose(phi), m) == phi
    checks.append(_check("jacobi decompose/reconstruct (random)", "exact", ok))

    ok = True
    for m in (1, 3):
        for _ in range(5):
            phi = random_jacobi_form(2, m, rng)
            f = thm2_map(phi)
            ok = ok and plus_space_check(f, m, 1)
            ok = ok and split_to_vector(f, m, 1) == theta_decompose(phi)
    checks.append(_check("thm2 composite (random)", "exact", ok))

    theta = split_to_vector(theta_expansion(400), 1, 0)
    try:
        rep = verify_S_transform(theta, [1j], 1e-8, precision=prec)
        checks.append(_check("theta S-transform", "numeric", rep.passed,
                             deviation=rep.max_deviation, tolerance=rep.tolerance))
    except TruncationError as e:
        checks.append(_check("theta S-transform", "numeric", False, detail=str(e)))

    return _finish(args, "selftest", {"seed": args.seed}, checks)


# -- parser ---------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    common = _Parser(add_help=False)
    common.add_argument("--json", metavar="PATH",
                        help="write the report as JSON to PATH")
    common.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help="seed for randomized corpora")

    scalar_src = _Parser(add_help=False)
    scalar_src.add_argument("--in", dest="infile", metavar="FILE",
                            help="scalar expansion container")
    scalar_src.add_argument("--builtin", choices=["theta"],
                            help="use a built-in example form")
    scalar_src.add_argument("--window", type=int, default=400,
                            help="window size for the built-in form")
    scalar_src.add_argument("--m", type=int, default=None)
    scalar_src.add_argument("--k", type=int, default=None)

    p = _Parser(prog="weil", description=__doc__.splitlines()[0])
    sub = p.add_subparsers(dest="command", required=True, metavar="COMMAND")

    s = sub.add_parser("milgram", parents=[common],
                       help="Gauss-Milgram sum against the signature")
    s.add_argument("--m", type=int, required=True)
    s.add_argument("--signature", default="2,1", help="ambient signature b+,b-")
    s.set_defaults(func=_cmd_milgram)

    s = sub.add_parser("rho", parents=[common],
                       help="evaluate a word in the metaplectic generators")
    s.add_argument("--m", type=int, required=True)
    s.add_argument("--word", required=True, help="e.g. \"S T T S'\"")
    s.add_argument("--dual", action="store_true")
    s.set_defaults(func=_cmd_rho)

    s = sub.add_parser("split", parents=[common, scalar_src],
                       help="scalar plus-space form to vector components")
    s.add_argument("--out", metavar="FILE")
    s.add_argument("--allow-composite", action="store_true")
    s.set_defaults(func=_cmd_split)

    s = sub.add_parser("combine", parents=[common],
                       help="vector components to the scalar form")
    s.add_argument("--in", dest="infile", metavar="FILE", required=True)
    s.add_argument("--k", type=int, default=None)
    s.add_argument("--out", metavar="FILE")
    s.set_defaults(func=_cmd_combine)

    s = sub.add_parser("eval", parents=[common, scalar_src],
                       help="evaluate stored data at points")
    s.add_argument("--points", default="i", help="semicolon-separated, e.g. \"i;0.3+1i\"")
    s.add_argument("--z", default=None, help="elliptic variable for jacobi data")
    s.add_argument("--accuracy", type=float, default=1e-10)
    s.add_argument("--truncation", type=int, default=60)
    s.set_defaults(func=_cmd_eval)

    s = sub.add_parser("check-plus", parents=[common, scalar_src],
                       help="plus-space support condition")
    s.set_defaults(func=_cmd_check_plus)

    s = sub.add_parser("check-T", parents=[common],
                       help="T-transformation support condition")
    s.add_argument("--in", dest="infile", metavar="FILE", required=True)
    s.set_defaults(func=_cmd_check_T)

    s = sub.add_parser("check-S", parents=[common, scalar_src],
                       help="numeric S-transformation law")
    s.add_argument("--points", default="i")
    s.add_argument("--tol", type=float, default=1e-8)
    s.set_defaults(func=_cmd_check_S)

    s = sub.add_parser("fj-check", parents=[common, scalar_src],
                       help="twisted average transformation law")
    s.add_argument("--j", type=int, required=True)
    s.add_argument("--points", default="i")
    s.add_argument("--tol", type=float, default=1e-8)
    s.set_defaults(func=_cmd_fj_check)

    s = sub.add_parser("rank-lemma", parents=[common],
                       help="exact rank of the character-sum matrix B")
    s.add_argument("--m", type=int, required=True)
    s.set_defaults(func=_cmd_rank_lemma)

    s = sub.add_parser("gauss-check", parents=[common],
                       help="closed form of the rows of A R")
    s.add_argument("--m", type=int, required=True)
    s.set_defaults(func=_cmd_gauss_check)

    s = sub.add_parser("b-entry", parents=[common],
                       help="one entry of B by brute force and by product")
    s.add_argument("--m", type=int, required=True)
    s.add_argument("--beta", type=int, required=True)
    s.add_argument("--gamma", type=int, required=True)
    s.set_defaults(func=_cmd_b_entry)

    s = sub.add_parser("jacobi-decompose", parents=[common],
                       help="theta decomposition of stored Jacobi data")
    s.add_argument("--in", dest="infile", metavar="FILE", required=True)
    s.add_argument("--out", metavar="FILE")
    s.set_defaults(func=_cmd_jacobi_decompose)

    s = sub.add_parser("jacobi-reconstruct", parents=[common],
                       help="rebuild Jacobi data from theta components")
    s.add_argument("--in", dest="infile", metavar="FILE", required=True)
    s.add_argument("--out", metavar="FILE")
    s.set_defaults(func=_cmd_jacobi_reconstruct)

    s = sub.add_parser("jacobi-thm2", parents=[common],
                       help="composite map to the scalar plus space")
    s.add_argument("--in", dest="infile", metavar="FILE", required=True)
    s.add_argument("--out", metavar="FILE")
    s.add_argument("--allow-composite", action="store_true")
    s.set_defaults(func=_cmd_jacobi_thm2)

    s = sub.add_parser("heat-check", parents=[common],
                       help="heat operator on a single theta term, exactly")
    s.add_argument("--m", type=int, required=True)
    s.add_argument("--r", type=int, required=True)
    s.set_defaults(func=_cmd_heat_check)

    s = sub.add_parser("casimir-check", parents=[common],
                       help="finite-difference reduced Casimir operator")
    s.add_argument("--in", dest="infile", metavar="FILE", required=True)
    s.add_argument("--tau", default="i")
    s.add_argument("--z", default="0.1+0.05i")
    s.add_argument("--h", type=float, default=1e-3)
    s.add_argument("--tol", type=float, default=1e-4)
    s.set_defaults(func=_cmd_casimir_check)

    s = sub.add_parser("selftest", parents=[common],
                       help="seeded battery over all exact identities")
    s.set_defaults(func=_cmd_selftest)

    return p


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, TypeError, OSError, KeyError, ArithmeticError) as e:
        print(f"weil: error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
