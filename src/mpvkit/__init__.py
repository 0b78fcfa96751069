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

``import mpvkit`` loads none of these modules: each public name is
imported from its home module on first access (PEP 562) and then kept
in this namespace, so ``mpv solve`` never loads the kernels or the
reductions.
"""

import importlib

__version__ = "0.1.0"

# home module -> the public names it exports
_EXPORTS = {
    "core": (
        "CONSERVATIVE",
        "REVOLUTIONARY",
        "VARIANTS",
        "BudgetExceededError",
        "Instance",
        "PreconditionError",
        "SolveReport",
        "TrivialVerdict",
        "WeightedInstance",
        "feasible_committee",
        "score",
        "symdiff_size",
        "verify",
    ),
    "formats": (
        "FormatError",
        "emit_graph",
        "emit_instance",
        "emit_solution",
        "parse_graph",
        "parse_instance",
        "parse_solution",
    ),
    "kernel": (
        "KernelResult",
        "kernel_mtau",
        "kernel_ntau_cmpv",
        "kernel_ntau_rmpv",
        "shrink_weights",
        "solve_weighted",
        "to_weighted",
    ),
    "oracle": ("brute_force", "enumerate_solutions"),
    "reductions": (
        "Graph",
        "PartitionedGraph",
        "SidonSet",
        "and_compose_cmpv",
        "and_compose_rmpv",
        "cmpv_normalize_half",
        "cmpv_to_rmpv",
        "lift_ell1",
        "lift_ell_2km2",
        "mcc_to_cmpv",
        "pad_half_vertex_cover",
        "random_instance",
        "sidon",
        "vc_to_cmpv",
    ),
    "solvers": (
        "solve_auto",
        "solve_dp_tau",
        "solve_inout_ell",
        "solve_layered_k",
        "solve_unconstrained",
    ),
}
_HOMES = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_HOMES)


def __getattr__(name):
    module = _HOMES.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | _HOMES.keys())
