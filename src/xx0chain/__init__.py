"""Exact determinantal correlators of the XX0 spin ring, the q-combinatorics
of boxed plane partitions behind them, and their low-temperature asymptotics,
cross-checked against brute-force and exact-diagonalization oracles.
"""

from .asym import (
    AsymptoticEstimate,
    barnes_g_integer,
    big_phi,
    domain_wall_asymptotic,
    ferro_asymptotic,
    mehta_integral,
    phi_n,
)
from .boxcount import (
    BoxDetIdentityReport,
    a_cspp,
    box_det_identity,
    kuperberg_matrix,
    macmahon,
    zq,
    zq_cspp,
)
from .combinat import (
    BoxDims,
    Partition,
    PlanePartition,
    StrictPartition,
    conjugate,
    count_lattice_path_families,
    enumerate_column_strict_pp,
    enumerate_partitions_in_box,
    enumerate_plane_partitions,
    strict_from,
)
from .errors import DegenerateInputError, EnumerationBudgetError, ExactDivisionError
from .qexact import (
    IndexTuples,
    LaurentPoly,
    binomial_determinant,
    exact_det,
    q,
    q_binomial,
    q_binomial_determinant,
    q_factorial,
    q_number,
    q_vandermonde,
)
from .schur import (
    binet_cauchy_bruteforce,
    binet_cauchy_kernel,
    elementary_symmetric,
    padded_schur_sum_bruteforce,
    schur_bialternant,
    schur_jacobi_trudi,
    schur_ssyt_oracle,
    vandermonde,
)
from .xx0core import (
    BetheState,
    ChainParams,
    CorrelatorResult,
    domain_wall_formfactor,
    efp_formfactor,
    energy,
    enumerate_bethe_states,
    ground_state,
    norm_squared,
    persistence_domain_wall,
    persistence_ferro,
    scalar_product,
    walker_amplitude,
    walker_amplitude_multi,
)

__version__ = "0.1.0"
