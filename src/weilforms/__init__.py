"""Exact and numeric tools for Weil representations of Mp2(Z) attached to
the discriminant form (Z/2mZ, x^2/4m), and for the correspondences between
plus-space scalar forms, vector-valued forms, and Jacobi forms at the level
of formal Fourier expansions.

The exports below load on first use (PEP 562), so `import weilforms`
imports no submodule and an exact caller never pays for the numeric layer.
"""

import importlib

__version__ = "0.1.0"

_EXPORTS = {
    "cyclo": ("CyclotomicNumber", "root_of_unity", "sqrt_nat"),
    "discform": ("DiscriminantForm", "square_classes"),
    "expansions": (
        "HarmonicExpansion", "VectorForm", "SCheckReport", "TruncationError",
        "default_precision", "eval_point", "inc_gamma", "laplacian_fd",
        "plus_space_check", "random_plus_expansion", "theta_expansion",
        "verify_S_transform",
    ),
    "isomap": (
        "ProofMatrices", "RankLemmaReport", "b_entry_bruteforce",
        "build_proof_matrices", "combine_to_scalar", "coprime_residues",
        "f_j_consistency_check", "gauss_sum_identity_check", "rank_lemma_check",
        "split_to_vector",
    ),
    "jacobi": (
        "JacobiConsistencyReport", "JacobiForm", "casimir_reduced_fd",
        "decomposition_consistency_check", "heat_operator_term_check",
        "jacobi_eval_direct", "random_jacobi_form", "reconstruct",
        "theta_decompose", "theta_series_eval", "thm2_map",
    ),
    "metaplectic": (
        "MP_S", "MP_T", "MpElement", "Word", "mp_decompose", "mp_mul", "mp_pow",
        "mp_tilde", "parse_word",
    ),
    "weilrep": (
        "WeilMatrix", "borcherds_eigencheck", "identity_matrix", "rho_S", "rho_T",
        "rho_Z", "rho_eval", "shintani_unipotent",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_HOME)


def __getattr__(name):
    module = _HOME.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{module}", __name__), name)
