"""Exact ordering oracles and finite-resolution census machinery for
spaces of left orderings of concrete groups: free abelian lattices,
Artin braid groups, and the Klein-bottle group."""

from .budgets import Budget, budget_scope, current_budget
from .braids import MainSignReport, braid_equal, handle_reduce, main_sign
from .certificates import (AccumulationWitness, ConvexityCertificate,
                           ConvexityCounterexample, DensityWitness,
                           DiscretenessPass, IntervalClosureReport,
                           SemigroupWitness, certificate_from_json)
from .cones import (BraidShiftPredicate, ConeOracle, ConvexPredicate,
                    ConjugateCone, CyclicBraidPredicate, DehornoyCone,
                    DubrovinaDubrovinCone, FlipCone, KleinTararinCone,
                    KleinYPredicate, LatticeCone, LatticeSublatticePredicate,
                    LexExtensionCone, ReplaceCone, WholePredicate, compare,
                    cone_from_json, predicate_from_json)
from .errors import (BudgetExceededError, CertificateError,
                     ContextMismatchError, CrossCheckError, OrderconeError,
                     PerturbationError, UsageError)
from .groups import Ball, GroupContext, GroupElement, ball, multiply
from .lattices import (DensityReport, LexConeSpec, PerturbationResult,
                       classify_density, extend_by_quotient,
                       least_positive_in_ball, perturb_dense,
                       restrict_to_sublattice, saturate)
from .lospace import (DistanceResult, OrderPropertyReport, SignVector,
                      SoulEstimate, accumulation_scan, census,
                      convexity_check, dd_isolation_witnesses,
                      discreteness_check, distance, interval_closure,
                      order_property_scan, sign_vector, soul_estimate)
from .quadratic import QuadScalar

__version__ = "0.1.0"
