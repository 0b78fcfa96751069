"""Exact solvers and instance tooling for multistage plurality voting.

Decision problem: over stages ``1..tau``, pick committees of at most
``k`` candidates whose approval score reaches ``x`` at every stage,
with consecutive committees differing in at most ``ell`` candidates
(conservative variant ``C``) or at least ``ell`` (revolutionary
variant ``R``).

The package provides the instance model (:mod:`mpvkit.core`), a
reference brute-force oracle (:mod:`mpvkit.oracle`), four exact solvers
keyed to different small parameters (:mod:`mpvkit.solvers`), kernels
and weight compression (:mod:`mpvkit.kernel`), hardness gadgets and
generators (:mod:`mpvkit.reductions`), plain-text formats
(:mod:`mpvkit.formats`), and the ``mpv`` command line
(:mod:`mpvkit.cli`).
"""

from .core import (
    CONSERVATIVE,
    REVOLUTIONARY,
    VARIANTS,
    BudgetExceededError,
    Instance,
    PreconditionError,
    SolveReport,
    TrivialVerdict,
    WeightedInstance,
    feasible_committee,
    score,
    symdiff_size,
    verify,
)
from .formats import (
    FormatError,
    emit_graph,
    emit_instance,
    emit_solution,
    parse_graph,
    parse_instance,
    parse_solution,
)
from .kernel import (
    KernelResult,
    kernel_mtau,
    kernel_ntau_cmpv,
    kernel_ntau_rmpv,
    shrink_weights,
    solve_weighted,
    to_weighted,
)
from .oracle import brute_force, enumerate_solutions
from .reductions import (
    Graph,
    PartitionedGraph,
    SidonSet,
    and_compose_cmpv,
    and_compose_rmpv,
    cmpv_normalize_half,
    cmpv_to_rmpv,
    lift_ell1,
    lift_ell_2km2,
    mcc_to_cmpv,
    pad_half_vertex_cover,
    random_instance,
    sidon,
    vc_to_cmpv,
)
from .solvers import (
    solve_auto,
    solve_dp_tau,
    solve_inout_ell,
    solve_layered_k,
    solve_unconstrained,
)

__version__ = "0.1.0"

__all__ = [
    "BudgetExceededError",
    "CONSERVATIVE",
    "FormatError",
    "Graph",
    "Instance",
    "KernelResult",
    "PartitionedGraph",
    "PreconditionError",
    "REVOLUTIONARY",
    "SidonSet",
    "SolveReport",
    "TrivialVerdict",
    "VARIANTS",
    "WeightedInstance",
    "and_compose_cmpv",
    "and_compose_rmpv",
    "brute_force",
    "cmpv_normalize_half",
    "cmpv_to_rmpv",
    "emit_graph",
    "emit_instance",
    "emit_solution",
    "enumerate_solutions",
    "feasible_committee",
    "kernel_mtau",
    "kernel_ntau_cmpv",
    "kernel_ntau_rmpv",
    "lift_ell1",
    "lift_ell_2km2",
    "mcc_to_cmpv",
    "pad_half_vertex_cover",
    "parse_graph",
    "parse_instance",
    "parse_solution",
    "random_instance",
    "score",
    "shrink_weights",
    "sidon",
    "solve_auto",
    "solve_dp_tau",
    "solve_inout_ell",
    "solve_layered_k",
    "solve_unconstrained",
    "solve_weighted",
    "symdiff_size",
    "to_weighted",
    "vc_to_cmpv",
    "verify",
]
