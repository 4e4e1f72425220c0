"""Kronecker quiver modules, hyperfiniteness witnesses, and dimension expanders."""

__version__ = "0.1.0"

from .errors import (CertificateError, DomainError, GuardRefusal, PreconditionError,
                     ShapeError, ValidationError)
from .fields import QQ, PrimeField, RationalField, parse_rational
from .matrices import Matrix
from .modules import (KroneckerModule, PencilBlock, a_sequence, build_P, build_Q,
                      build_R, build_postinjective_theta, build_preprojective_theta,
                      closed_form_a, direct_sum, hom_space, t_bound_check)
from .pencil import certify_pencil, decompose_pencil
from .quiver import build_gamma, degree_stats, is_tree, split_components
from .witness import (Witness, combinator_bounded_codim, combinator_direct_sum,
                      fragment_postinjective_theta, fragment_tree_module,
                      verify_witness, witness_for, witness_postinjective_2k,
                      witness_preprojective_2k, witness_regular_2k)
from .sl2p import (IrreducibleRep, KazhdanEstimate, SL2pElement, adjoint_rep,
                   irreducible_rep, is_irreducible, kazhdan_estimate,
                   kazhdan_lower_bound, kazhdan_upper_bound, restricted_rep,
                   theta3_counterexample_module)
from .expander import (ExpanderCandidate, ExpansionReport, check_exhaustive,
                       check_sampled_rational, empirical_best_epsilon,
                       nonhf_epsilon_bound, refute_witness, weak_nonhf_epsilon_bound)
