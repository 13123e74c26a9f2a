"""Exact invariants of group-algebra and finite-dimensional algebra
extensions: separability, unique separability, minimum depth and H-depth,
with every invariant cross-checked through independent criteria."""

from .analyze import AnalysisReport, analyze_pair
from .chartable import (CharacterTableModP, InclusionMatrix,
                        character_table_mod_p, common_prime, dixon_prime,
                        inclusion_matrix)
from .corpus import corpus_groups, corpus_pairs, corpus_subgroups
from .depth import (DepthReport, bimodule_matrices, burciu_depth1,
                    depth_report, is_diagonal, min_depth, min_even_depth,
                    min_h_depth, min_odd_depth)
from .errors import (CapExceeded, CheckFailed, ElementNotInGroup,
                     InvalidAlgebra, InvalidArgument, LiftInconsistency,
                     NotASubgroup, NotInT, SepdepthError, SplittingFailure,
                     UnitMissing)
from .findim import (AlgebraInclusion, StructureConstantAlgebra,
                     is_separable_extension, matrix_algebra, prop_rad_check,
                     radical, upper_triangular_algebra)
from .groupalg import (TensorSquare, is_full_in_T, is_full_in_U,
                       separability_elements)
from .permgroup import (FiniteGroup, Permutation, Subgroup,
                        alternating_group, conjugacy_classes, cyclic_group,
                        depth1_group, dihedral_group, direct_product,
                        extraspecial_27, hz_condition, lemma_S_via_centralizers,
                        property_S, quaternion_group, symmetric_group)

__version__ = "0.1.0"
