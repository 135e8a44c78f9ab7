"""Dependence functionals, probability metrics, and counterexample families
for asymptotic independence of finite discrete measures on metric spaces."""

from .errors import CapabilityError, InputError, SolverError
from .spaces import FiniteMetricSpace, ProductMetricKind, line_space, product_space
from .measures import (
    DependenceMatrix,
    DiscreteMeasure,
    JointMeasure,
    Numerators,
    delta,
    dependence_matrix,
    joint_and_product_on_product,
    marginals,
    product_measure,
    pushforward,
    pushforward_joint,
    uniform,
)
from .engines import (
    BilinearInstance,
    FlowNetwork,
    HubFlow,
    hub_transshipment,
    hypercube_bilinear_max,
    max_flow,
)
from .metrics import (
    MetricValue,
    alpha_coefficient,
    beta_partition,
    bl_distance,
    bl_to_product,
    cf_gap,
    cf_gap_lattice,
    cov_gap,
    cov_sup_pm1,
    evaluate_certificate,
    gaussian_cf_gap,
    integral_gap,
    prokhorov_distance,
    prokhorov_to_product_upper,
    rectangle_gap,
    variation_norm,
)
from .families import (
    ConditionalIndepInstance,
    CouplingInstance,
    FamilyInstance,
    bernoulli_perturbation_family,
    binary_coding_family,
    binary_coding_h_matrix,
    binary_coding_sign_matrix,
    chi,
    conditional_independence_bound_check,
    coupling_tv_bound_check,
    gaussian_family_check,
    h_eval,
    markov_block_family,
    markov_shift_family,
    sign_fn,
    tent,
    two_state_chain,
)
from .analysis import (
    DecayReport,
    DecayVerdict,
    SweepSpec,
    classify_decay,
    report_markdown,
    sweep,
)
from .verify import CriterionResult, format_result, run_all

__version__ = "0.1.0"
