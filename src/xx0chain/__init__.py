"""Exact determinantal correlators of the XX0 spin ring, the q-combinatorics
of boxed plane partitions behind them, and their low-temperature asymptotics,
cross-checked against an exact-diagonalization oracle.  The brute-force
enumerators the tests check the closed forms against live in tests/oracles.py,
not here.

The names below load on first use (PEP 562): ``import xx0chain`` imports no
submodule, and ``xx0chain.zq`` imports only ``boxcount`` and what it needs.
"""

import importlib

__version__ = "0.1.0"

# home submodule -> the public names it serves
_EXPORTS = {
    "asym": ("AsymptoticEstimate", "barnes_g_integer", "domain_wall_asymptotic", "ferro_asymptotic", "phi_n"),
    "boxcount": ("BoxDetIdentityReport", "a_cspp", "box_det_identity", "kuperberg_matrix", "macmahon", "zq", "zq_cspp"),
    "combinat": ("Partition", "conjugate", "enumerate_partitions_in_box"),
    "errors": ("DegenerateInputError", "EnumerationBudgetError", "ExactDivisionError"),
    "qexact": (
        "IndexTuples", "LaurentPoly", "binomial_determinant", "exact_det", "q", "q_binomial",
        "q_binomial_determinant", "q_factorial", "q_number", "vandermonde",
    ),
    "schur": (
        "binet_cauchy_bruteforce", "binet_cauchy_kernel", "elementary_symmetric", "padded_schur_sum_bruteforce",
        "schur_jacobi_trudi",
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
