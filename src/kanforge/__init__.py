"""kanforge: verification toolkit for finite truncated simplicial sets,
2-groups, their nerves and determinant representability."""

from .groups import FiniteGroup, cyclic, symmetric
from .simplicial import (
    TruncatedSSet, ValidationReport, classify, kan_status,
    boundary_tuples,
    horn_tuples, coskeletal_extend, csq_prime, loop_space, shift, pi, pi0,
    standard_simplex, boundary_simplex, horn_complex, sphere, product,
    disjoint_union, quotient_by_subcomplex, enumerate_maps, find_isomorphism,
    SimplicialError, DimensionOutOfRange, BadHornIndex, NotCoskeletal,
    NotSubcomplex, NotKan, SearchBudgetExceeded, MalformedBudget,
)
from .catalg import (
    FinCategory, FinGroupoid, MonoidalStructure, TwoGroup, LaxUnitaryFunctor,
    certify_two_group, pi0_two_group, pi1_two_group, is_weak_equivalence,
    one_object_groupoid,
    indiscrete_groupoid, discrete_two_group, one_object_two_group,
    product_two_group, CatError, NotGroupoidBase, CertifyFailure,
)
from .nerves import (
    nerve_category, groupoid_from_nerve, nerve_2group, two_group_from_nerve,
    segal_nerve, BisimplicialTrunc, box,
    mu3_determined, segal_fibrancy_check, loop_gamma, enumerate_bimaps,
    p2_star, NerveError, NotOneKanGroupoid, NotTwoKanGroupoid,
)
from .determinants import (
    hom_sset, enriched_hom0, enumerate_additive, additive_vs_hom,
    enumerate_determinants, determinants_vs_hom, pi0_det,
    grho_check, enumerate_segal_determinants, segal_determinants_vs_hom,
    segal_pi0, hom1_enriched, DeterminantError,
)

__version__ = "0.1.0"
