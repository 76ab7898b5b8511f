"""braidkernel: surface braid group presentations, coset enumeration,
rewriting certificates, and covering arithmetic."""

from .words import (
    BraidkernelError, Word, WordError, conjugate, cyclic_reduce,
    format_word, make_alphabet, multiply, parse_word, shortlex_compare,
)
from .presentations import (
    AbelianInvariants, FormatError, GroupHom, HomCheckResult, Presentation,
    PresentationError, UnverifiedHomError, abelianization, apply_hom,
    compose_hom, format_presentation, hom_check, parse_hom_file,
    parse_presentation, parse_relation, presentation, quotient, substitute,
)
from .snf import MatrixError, smith_normal_form
from .coset import (
    CosetTable, EnumerationError, IncompleteTableError, center_order_finite,
    coset_representatives, group_order, is_central_finite, perm_rep,
    table_equality_oracle, todd_coxeter, word_equal_finite,
)
from .rewriting import (
    RewriteSystem, enumerate_normal_forms, knuth_bendix, normal_form,
    rewrite_equality_oracle,
)
from .derivations import (
    ChainError, DerivationChain, DerivationReport, DerivationStep,
    apply_step, build_chain, check_derivation, format_chain,
    parse_chain_file, search_equality,
)
from .surfaces import (
    KLEIN, RP2, SPHERE, TORUS, SurfaceError, SurfaceKind, describe_surface,
    euler_char, parse_surface,
)
from .atlas import (
    AtlasError, CenterDescription, b_ij_as_rho, center_table,
    forget_strands_hom, klein_presentation, pi1_nonorientable,
    pure_braid_rp2, quaternion_presentation, rp2_strand_count,
    tau_component, tau_n, torus_presentation,
)
from .coverings import (
    CoverDecision, CoveringError, KernelDescription, can_cover,
    kernel_description, quotient_candidates, torus_action_forms,
)

__version__ = "0.1.0"
