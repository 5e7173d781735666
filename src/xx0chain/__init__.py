"""Exact determinantal correlators of the XX0 spin ring, the q-combinatorics
of boxed plane partitions behind them, and their low-temperature asymptotics,
cross-checked against brute-force and exact-diagonalization oracles.

The names below load on first use (PEP 562): ``import xx0chain`` imports no
submodule, and ``xx0chain.zq`` imports only ``boxcount`` and what it needs.
"""

import importlib

__version__ = "0.1.0"

# home submodule -> the public names it serves
_EXPORTS = {
    "asym": (
        "AsymptoticEstimate", "barnes_g_integer", "big_phi", "domain_wall_asymptotic", "ferro_asymptotic",
        "mehta_integral", "phi_n",
    ),
    "boxcount": ("BoxDetIdentityReport", "a_cspp", "box_det_identity", "kuperberg_matrix", "macmahon", "zq", "zq_cspp"),
    "combinat": (
        "BoxDims", "Partition", "PlanePartition", "StrictPartition", "conjugate", "count_lattice_path_families",
        "enumerate_column_strict_pp", "enumerate_partitions_in_box", "enumerate_plane_partitions", "strict_from",
    ),
    "errors": ("DegenerateInputError", "EnumerationBudgetError", "ExactDivisionError"),
    "qexact": (
        "IndexTuples", "LaurentPoly", "binomial_determinant", "exact_det", "q", "q_binomial",
        "q_binomial_determinant", "q_factorial", "q_number", "q_vandermonde", "vandermonde",
    ),
    "schur": (
        "binet_cauchy_bruteforce", "binet_cauchy_kernel", "elementary_symmetric", "padded_schur_sum_bruteforce",
        "schur_bialternant", "schur_jacobi_trudi", "schur_ssyt_oracle",
    ),
    "xx0core": (
        "BetheState", "ChainParams", "CorrelatorResult", "domain_wall_formfactor", "efp_formfactor", "energy",
        "enumerate_bethe_states", "ground_state", "norm_squared", "persistence_domain_wall", "persistence_ferro",
        "scalar_product", "walker_amplitude", "walker_amplitude_multi",
    ),
}
_HOMES = {name: home for home, names in _EXPORTS.items() for name in names}
__all__ = sorted(_HOMES)


def __getattr__(name: str):
    home = _HOMES.get(name)
    if home is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{home}", __name__), name)
    globals()[name] = value  # later lookups skip __getattr__
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
