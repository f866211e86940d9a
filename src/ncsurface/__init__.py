"""Noncommutative C-algebras of compact Riemann surfaces.

Exact free-algebra rewriting with confluence checks, genus-g constraint
surfaces with Morse counting, complete construction and classification of the
finite-dimensional hermitian representations of the torus/sphere algebras,
eigenvalue-branching topology detection, and the Berezin-Toeplitz cross-check.
"""

from .free_algebra import (
    AlgebraParams, NCPolynomial, Ordering, ReductionSystem,
    build_genus_relations, build_torus_system, casimir_centrality,
    check_consistency_identity, check_overlap_resolvable, commutator,
    enumerate_basis, misordering_index, reduce, symmetrized_rescale,
    word_compare,
)
from .surface import (
    CommPolynomial3, CriticalData, SurfaceForm, SurfaceSpec,
    build_genus_polynomial, count_simple_roots, critical_values_torus_sphere,
    euler_characteristic, poisson_bracket,
)
from .representations import (
    EllipsePoint, LoopSpec, MatrixGraph, Regime, RepIndex, RepParams,
    Representation, StringSpec, axis_crossings, canonicalize_loop,
    classify_regime, construct_degenerate_rep, construct_loop_rep,
    construct_string_rep, decompose, ellipse_map_s, ellipse_point, f_beta,
    matrix_graph, rep_index, reps_equivalent, solve_string_theta,
    verify_relations,
)
from .spectra import (
    SpectrumReport, commutator_vs_bracket, detect_branches,
    hermitian_eigenvalues, position_spectrum, sweep_mu,
)
from .berezin import (
    BTSpec, bt_matrices, compare_with_loop_rep, nu_one_gap, verify_bt_relations,
)

__version__ = "0.1.0"
