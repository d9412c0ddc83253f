"""Radio labelings of generalized prism graphs Z(n, s), 1 <= s <= 3.

The package builds the graphs with exact hop distances from a closed form
(``graphs``), knows the tight lower bound (n - 1) * phi(n, s) + 2 and its
gap parameters (``bounds``), constructs labelings meeting that bound
(``labeling``), audits any labeling pair-by-pair (``verification``), and can
prove radio numbers of small instances by branch-and-bound (``exact``).  The
``prismradio`` console script exposes all of it.
"""

from .graphs import (
    PrismGraph,
    Vertex,
    build_graph,
    is_v_tight,
    standard_cycle,
)
from .bounds import (
    check_triple_bound,
    d_offset,
    in_phi_scope,
    lower_bound_rn,
    omega,
    pair_gap,
    phi,
    radio_number,
    triple_bound_violations,
)
from .labeling import (
    CaseId,
    Labeling,
    case_select,
    construct_labeling,
    label_order,
    label_sequence,
)
from .verification import VerificationReport, Violation, verify
from .exact import ExactResult, exact_radio_number, greedy_span_for_order

__version__ = "0.1.0"

__all__ = [
    "Vertex",
    "PrismGraph",
    "build_graph",
    "standard_cycle",
    "is_v_tight",
    "in_phi_scope",
    "phi",
    "lower_bound_rn",
    "radio_number",
    "pair_gap",
    "d_offset",
    "omega",
    "check_triple_bound",
    "triple_bound_violations",
    "CaseId",
    "Labeling",
    "case_select",
    "label_sequence",
    "label_order",
    "construct_labeling",
    "VerificationReport",
    "Violation",
    "verify",
    "ExactResult",
    "greedy_span_for_order",
    "exact_radio_number",
    "__version__",
]
