"""Span recording around the public weilforms API, installed from outside.

The program itself carries no tracing.  `Tracer.install` replaces each
traced function or method by a wrapper and rebinds every name under
which a `weilforms` module (or a benchmark module) holds the original,
because modules such as `weilrep` and `isomap` bind names from `cyclo`
and `expansions` at import time.  Spans nest on one stack; when a span
closes, its duration is charged to its parent as covered time, so a
layer's self time is its span's duration minus the part its child spans
cover.  Aggregates are
kept per span name, which keeps memory flat however many calls a check
makes; the root span of every check is also kept whole.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time


def _terms(form) -> int:
    """Stored coefficients of a scalar or vector expansion."""
    comps = getattr(form, "components", None)
    if comps is not None:
        return sum(_terms(c) for c in comps.values())
    return len(form.c_plus) + len(form.c_minus)


# (span name, module, attribute or Class.method, work counter or None).
# A counter maps (args, result) to (counter name, amount).
TARGETS = [
    ("cyclo.canonical_exponent_dict", "cyclo", "canonical_exponent_dict",
     lambda a, r: ("cyclo.canonical_exponent_dict.terms_in", len(a[1]))),
    ("cyclo.mul", "cyclo", "CyclotomicNumber.__mul__", None),
    ("cyclo.add", "cyclo", "CyclotomicNumber.__add__", None),
    ("cyclo.eq", "cyclo", "CyclotomicNumber.__eq__", None),
    ("cyclo.embed_mpc", "cyclo", "CyclotomicNumber.embed_mpc", None),
    ("weilrep.matmul", "weilrep", "WeilMatrix.__matmul__",
     lambda a, r: ("weilrep.matmul.dim3", a[0].dim ** 3)),
    ("weilrep.eq", "weilrep", "WeilMatrix.__eq__", None),
    ("weilrep.entries", "weilrep", "WeilMatrix.entries", None),
    ("weilrep.rho_eval", "weilrep", "rho_eval", None),
    ("weilrep.borcherds_eigencheck", "weilrep", "borcherds_eigencheck", None),
    ("metaplectic.mp_mul", "metaplectic", "mp_mul", None),
    ("metaplectic.mp_decompose", "metaplectic", "mp_decompose",
     lambda a, r: ("metaplectic.word_tokens", len(r))),
    ("isomap.build_proof_matrices", "isomap", "build_proof_matrices", None),
    ("isomap.rank_lemma_check", "isomap", "rank_lemma_check", None),
    ("isomap.gauss_sum_identity_check", "isomap", "gauss_sum_identity_check", None),
    ("isomap.split_to_vector", "isomap", "split_to_vector", None),
    ("isomap.combine_to_scalar", "isomap", "combine_to_scalar", None),
    ("arith.integer_matrix_rank", "arith", "integer_matrix_rank", None),
    ("expansions.eval_point", "expansions", "eval_point",
     lambda a, r: ("expansions.eval_point.terms", _terms(a[0]))),
    ("expansions.inc_gamma", "expansions", "inc_gamma", None),
    ("expansions.verify_S_transform", "expansions", "verify_S_transform", None),
    ("expansions.laplacian_fd", "expansions", "laplacian_fd", None),
    ("jacobi.theta_series_eval", "jacobi", "theta_series_eval", None),
    ("jacobi.jacobi_eval_direct", "jacobi", "jacobi_eval_direct", None),
    ("jacobi.decomposition_consistency_check", "jacobi",
     "decomposition_consistency_check", None),
    ("jacobi.casimir_reduced_fd", "jacobi", "casimir_reduced_fd", None),
    ("jacobi.theta_decompose", "jacobi", "theta_decompose", None),
    ("jacobi.reconstruct", "jacobi", "reconstruct", None),
    ("jacobi.thm2_map", "jacobi", "thm2_map", None),
    ("containers.dumps", "containers", "dumps",
     lambda a, r: ("containers.dumps.bytes", len(r))),
    ("containers.loads", "containers", "loads",
     lambda a, r: ("containers.loads.bytes", len(a[0]))),
    ("cli.main", "cli", "main", None),
]


class Tracer:
    """In-memory span aggregates: calls and self time per name, plus counters."""

    def __init__(self):
        self.stats: dict[str, list] = {}  # name -> [calls, self_s]
        self.counts: dict[str, int] = {}
        self.roots: list[tuple[str, float, float]] = []  # (check, start, end)
        self._stack: list[list[float]] = []  # open spans: [start, covered_s]
        self._patches: list[tuple[object, str, object]] = []

    def _close(self, name: str, frame: list[float], end: float) -> None:
        self._stack.pop()
        dur = end - frame[0]
        if self._stack:
            self._stack[-1][1] += dur
        agg = self.stats.get(name)
        if agg is None:
            agg = self.stats[name] = [0, 0.0]
        agg[0] += 1
        agg[1] += dur - frame[1]

    def wrap(self, name: str, fn, counter=None):
        clock = time.perf_counter
        stack = self._stack
        counts = self.counts

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = [clock(), 0.0]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(name, frame, clock())
            if counter is not None:
                key, amount = counter(args, result)
                counts[key] = counts.get(key, 0) + amount
            return result

        return traced

    def run_root(self, label: str, fn):
        """Run one check as a root span; its self time is unattributed work."""
        frame = [time.perf_counter(), 0.0]
        self._stack.append(frame)
        try:
            return fn()
        finally:
            end = time.perf_counter()
            self._close("check", frame, end)
            self.roots.append((label, frame[0], end))

    def install(self, callers=()) -> None:
        """Wrap every target in TARGETS.

        Names are rebound in every weilforms module and in `callers`, the
        benchmark modules that imported them.
        """
        modules = [m for n, m in sorted(sys.modules.items())
                   if n == "weilforms" or n.startswith("weilforms.")] + list(callers)
        for name, modname, attr, counter in TARGETS:
            module = importlib.import_module(f"weilforms.{modname}")
            if "." in attr:
                cls_name, meth = attr.split(".")
                owners = [getattr(module, cls_name)]
                original = owners[0].__dict__[meth]
            else:
                owners = modules
                original = getattr(module, attr)
            wrapped = self.wrap(name, original, counter)
            for owner in owners:
                for key, value in list(vars(owner).items()):
                    if value is original:
                        setattr(owner, key, wrapped)
                        self._patches.append((owner, key, original))

    def uninstall(self) -> None:
        while self._patches:
            owner, key, original = self._patches.pop()
            setattr(owner, key, original)

    def metrics(self) -> dict[str, float]:
        """Flat {metric: value}: <span>.calls, <span>.self_s and the counters."""
        out: dict[str, float] = {}
        for name, (calls, self_s) in self.stats.items():
            out[f"{name}.calls"] = calls
            out[f"{name}.self_s"] = self_s
        out.update(self.counts)
        return out

    def dump(self) -> dict:
        """Everything recorded, for writing out when the run ends."""
        return {
            "layers": {n: {"calls": c, "self_s": s} for n, (c, s) in sorted(self.stats.items())},
            "counts": dict(sorted(self.counts.items())),
            "checks": [{"check": label, "start": s, "end": e} for label, s, e in self.roots],
        }
