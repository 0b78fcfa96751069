"""Every solver against a reference that shares no code with the oracle.

The box holds every instance with 2 agents, ``m <= 2`` candidates and
``tau <= 3`` stages, each stage an unordered pair of ballot entries in
``0..m``, with ``k`` in ``1..m``, ``ell`` in ``0..min(2k, m)``, ``x`` in
``{1, 2}`` and both variants: 6,504 instances.
"""

from itertools import combinations, combinations_with_replacement, product

from mpvkit import (
    Instance,
    brute_force,
    solve_auto,
    solve_dp_tau,
    solve_inout_ell,
    solve_layered_k,
    verify,
)


def _reference(inst):
    # every committee of at most k members at every stage, scored from the
    # ballots; keep each stage's committees reachable from the previous ones
    ids = range(1, inst.m + 1)
    committees = [frozenset(c) for size in range(inst.k + 1) for c in combinations(ids, size)]

    def step(a, b):
        change = len(a ^ b)
        return change <= inst.ell if inst.variant == "C" else change >= inst.ell

    reach = None
    for row in inst.ballots:
        valid = [c for c in committees if sum(entry in c for entry in row) >= inst.x]
        reach = valid if reach is None else [c for c in valid if any(step(p, c) for p in reach)]
    return bool(reach)


def _box():
    for m in (1, 2):
        pairs = list(combinations_with_replacement(range(m + 1), 2))
        for tau in (1, 2, 3):
            for rows in product(pairs, repeat=tau):
                for k in range(1, m + 1):
                    for ell, x, variant in product(range(min(2 * k, m) + 1), (1, 2), "CR"):
                        yield Instance(variant, m, rows, k, ell, x)


def test_every_solver_matches_the_reference_on_the_small_box():
    count = yes = 0
    for inst in _box():
        count += 1
        expected = _reference(inst)
        yes += expected
        solvers = [brute_force, solve_layered_k, solve_dp_tau, solve_auto]
        if inst.variant == "R":
            solvers.append(solve_inout_ell)
        for solver in solvers:
            report = solver(inst)
            assert report.answer == expected, (solver.__name__, inst)
            if expected:
                assert verify(inst, report.witness) == [], (solver.__name__, inst)
    assert (count, yes) == (6504, 1762)
