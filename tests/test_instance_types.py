"""Every public entry point on ballot instances and on weighted instances.

A :class:`WeightedInstance` carries only per-stage counts. Each public
function that takes an instance must, on either type, return a correct
result or raise one of the documented errors (:class:`PreconditionError`
for input outside the function's regime, including weighted input to the
functions that need agents, and :class:`BudgetExceededError`). An
``AttributeError``, ``TypeError`` or ``OverflowError`` is a failure.
"""

import random

import pytest

from mpvkit import (
    BudgetExceededError,
    PreconditionError,
    TrivialVerdict,
    WeightedInstance,
    and_compose_cmpv,
    and_compose_rmpv,
    brute_force,
    cmpv_normalize_half,
    cmpv_to_rmpv,
    emit_instance,
    emit_solution,
    enumerate_solutions,
    feasible_committee,
    kernel_mtau,
    kernel_ntau_cmpv,
    kernel_ntau_rmpv,
    lift_ell1,
    lift_ell_2km2,
    parse_instance,
    parse_solution,
    score,
    solve_auto,
    solve_dp_tau,
    solve_inout_ell,
    solve_layered_k,
    solve_unconstrained,
    solve_weighted,
    to_weighted,
    verify,
)

from conftest import e1


def _big_kernel_output():
    # random 100-bit weights keep about 100 bits through the compression
    rng = random.Random(2)
    rows = tuple((0,) + tuple(rng.randrange(2**100) for _ in range(3)) for _ in range(2))
    out = kernel_mtau(WeightedInstance("C", 3, rows, 2, 1, rng.randrange(2**100)))
    assert max(max(row) for row in out.weights) > 2**63
    return out


BALLOTS = {
    "R-ell2": e1("R", ell=2),
    "C-ell0": e1("C", ell=0),
    "C-ell1": e1("C", ell=1),
}
INSTANCES = dict(BALLOTS)
INSTANCES.update({f"weighted-{name}": to_weighted(inst) for name, inst in BALLOTS.items()})
INSTANCES["mtau-big"] = _big_kernel_output()
# one weight far beyond int64 next to a small threshold
INSTANCES["huge-weight"] = WeightedInstance("R", 2, ((0, 2**70, 1), (0, 1, 3)), 1, 2, 2)


def _report(report):
    return report.answer, report.witness


def _output(out):
    """Answer of a transformation's output; its witness does not map back."""
    if isinstance(out, TrivialVerdict):
        return out.answer, None
    return brute_force(out).answer, None


def _same_ids(out):
    """Answer of an output with the input's candidates and stages."""
    return _report(brute_force(out))


def _kernel(result):
    if result.verdict is not None:
        return result.verdict.answer, None
    report = brute_force(result.instance)
    return report.answer, result.lift(report.witness) if report.answer else None


def _first(solutions):
    return bool(solutions), solutions[0] if solutions else None


# functions that decide an instance, as (answer, witness on the input or None)
DECIDE = {
    "brute_force": lambda i: _report(brute_force(i)),
    "enumerate_solutions": lambda i: _first(enumerate_solutions(i, 1)),
    "solve_auto": lambda i: _report(solve_auto(i)),
    "solve_dp_tau": lambda i: _report(solve_dp_tau(i)),
    "solve_inout_ell": lambda i: _report(solve_inout_ell(i)),
    "solve_layered_k": lambda i: _report(solve_layered_k(i)),
    "solve_unconstrained": lambda i: _report(solve_unconstrained(i)),
    "solve_weighted": lambda i: _report(solve_weighted(i)),
    "kernel_mtau": lambda i: _same_ids(kernel_mtau(i)),
    "to_weighted": lambda i: _same_ids(to_weighted(i)),
    "kernel_ntau_cmpv": lambda i: _kernel(kernel_ntau_cmpv(i)),
    "kernel_ntau_rmpv": lambda i: _kernel(kernel_ntau_rmpv(i)),
    "cmpv_normalize_half": lambda i: _output(cmpv_normalize_half(i)),
    "cmpv_to_rmpv": lambda i: _output(cmpv_to_rmpv(i)),
    "lift_ell1": lambda i: _output(lift_ell1(i)),
    "lift_ell_2km2": lambda i: _output(lift_ell_2km2(i)),
    "and_compose_cmpv": lambda i: _output(and_compose_cmpv([i, i])),
    "and_compose_rmpv": lambda i: _output(and_compose_rmpv([i, i])),
}

# functions that read counts only: a weighted twin gives the ballot value
QUERY = {
    "score": lambda i: [score(i, t, {1, 2}) for t in range(1, i.tau + 1)],
    "feasible_committee": lambda i: [feasible_committee(i, t) for t in range(1, i.tau + 1)],
    "verify": lambda i: verify(i, (frozenset({1}),) * i.tau),
    "emit_instance": lambda i: parse_instance(emit_instance(i)) == i,
    "parse_solution": lambda i: parse_solution(emit_solution([{1, 2}] * i.tau), i),
}

# functions that need agents and so refuse the weighted instances above
NEEDS_AGENTS = {
    "kernel_ntau_cmpv",
    "kernel_ntau_rmpv",
    "cmpv_normalize_half",
    "cmpv_to_rmpv",
    "lift_ell1",
    "lift_ell_2km2",
    "and_compose_cmpv",
    "and_compose_rmpv",
}


def _outcome(fn, inst):
    try:
        return fn(inst)
    except (PreconditionError, BudgetExceededError) as exc:
        return type(exc)


@pytest.mark.parametrize("case", sorted(INSTANCES))
@pytest.mark.parametrize("name", sorted(DECIDE) + sorted(QUERY))
def test_entry_point_handles_both_instance_types(name, case):
    inst = INSTANCES[case]
    outcome = _outcome(DECIDE.get(name) or QUERY[name], inst)
    twin = BALLOTS.get(case.removeprefix("weighted-")) if case.startswith("weighted-") else None
    if name in NEEDS_AGENTS and isinstance(inst, WeightedInstance):
        assert outcome is PreconditionError
    elif twin is not None:
        assert outcome == _outcome(DECIDE.get(name) or QUERY[name], twin)
    if name not in DECIDE or isinstance(outcome, type):
        return
    answer, witness = outcome
    assert answer == brute_force(inst).answer
    if witness is not None:
        assert verify(inst, witness) == []


def test_dp_tau_clips_weights_beyond_int64():
    inst = INSTANCES["huge-weight"]
    report = solve_dp_tau(inst)
    assert report.answer == brute_force(inst).answer
    assert verify(inst, report.witness) == []


def test_weighted_instance_has_no_agents():
    w = INSTANCES["weighted-R-ell2"]
    with pytest.raises(PreconditionError):
        w.ballots
    with pytest.raises(PreconditionError):
        w.n
    assert w.weights == w.counts == BALLOTS["R-ell2"].counts
