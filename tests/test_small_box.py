"""Every solver against a reference that shares no code with the oracle.

A box holds every instance with ``agents`` agents, ``m`` candidates and
``tau`` stages in the given ranges, each stage an unordered tuple of
ballot entries in ``0..m``, with ``k`` in ``1..m``, ``ell`` in
``0..min(2k, m)``, ``x`` in ``{1, 2}`` and both variants. The solvers run
on two boxes of 2 agents: ``m <= 2``, ``tau <= 3`` (6,504 instances) and
``m <= 3``, ``tau <= 2`` (5,944). The full box, ``m <= 3``, ``tau <= 3``
(55,344), takes about half a minute: it is marked ``full_box``, which the
pytest settings in ``pyproject.toml`` deselect, and CI's ``small-box``
job runs it with ``-m full_box``. ``cmpv_normalize_half`` and
``cmpv_to_rmpv`` run on the box's conservative ``ell = 0`` instances: 852
of ``m <= 3``, ``tau <= 2`` in tier-1, and 7,770 of the full box, also
marked ``full_box``. The n-tau kernels run on a box of 1
agent, ``m <= 5``, ``tau <= 2`` (7,744), where ``m > n * tau`` lets them
act. Brute force's scan path, taken when a stage's ball of successors
holds more than 64 committees, needs ``m >= 7`` and gets a pinned case
and a seeded sweep.
"""

import random
from collections import Counter
from itertools import combinations, combinations_with_replacement, product

import pytest

from mpvkit import (
    Instance,
    brute_force,
    cmpv_normalize_half,
    cmpv_to_rmpv,
    kernel_ntau_cmpv,
    kernel_ntau_rmpv,
    random_instance,
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


def _box(agents, ms, taus):
    for m in ms:
        stages = list(combinations_with_replacement(range(m + 1), agents))
        for tau in taus:
            for rows in product(stages, repeat=tau):
                for k in range(1, m + 1):
                    for ell, x, variant in product(range(min(2 * k, m) + 1), (1, 2), "CR"):
                        yield Instance(variant, m, rows, k, ell, x)


@pytest.mark.parametrize(
    "ms, taus, size",
    [
        pytest.param((1, 2), (1, 2, 3), (6504, 1762), id="m2-tau3"),
        pytest.param((1, 2, 3), (1, 2), (5944, 2944), id="m3-tau2"),
        pytest.param(
            (1, 2, 3), (1, 2, 3), (55344, 21124), id="m3-tau3", marks=pytest.mark.full_box
        ),
    ],
)
def test_every_solver_matches_the_reference_on_the_small_box(ms, taus, size):
    count = yes = 0
    for inst in _box(2, ms, taus):
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
    assert (count, yes) == size


@pytest.mark.parametrize(
    "ms, taus, size",
    [
        pytest.param((1, 2, 3), (1, 2), (852, 388), id="m3-tau2"),
        pytest.param((1, 2, 3), (1, 2, 3), (7770, 2500), id="m3-tau3", marks=pytest.mark.full_box),
    ],
)
def test_normalizations_keep_the_answer_on_the_small_box(ms, taus, size):
    # every conservative ell = 0 instance of the box, padded to k = m/2 and
    # then re-expressed as revolutionary, against the reference alone
    count = yes = 0
    for inst in _box(2, ms, taus):
        if inst.variant != "C" or inst.ell:
            continue
        count += 1
        expected = _reference(inst)
        yes += expected
        half = cmpv_normalize_half(inst)
        assert _reference(half) == expected, inst
        assert _reference(cmpv_to_rmpv(half)) == expected, inst
    assert (count, yes) == size


def test_ntau_kernels_keep_the_answer_on_the_one_agent_box():
    kinds = Counter()
    shrunk = 0
    for inst in _box(1, range(1, 6), (1, 2)):
        kernel = kernel_ntau_cmpv if inst.variant == "C" else kernel_ntau_rmpv
        result = kernel(inst)
        kinds["gap" if result.gap else result.kind] += 1
        expected = _reference(inst)
        assert result.verdict is None, inst  # ell <= 2k and n = 1: no rule decides
        shrunk += result.instance.m < inst.m
        report = brute_force(result.instance)
        assert report.answer == expected, (result.kind, inst)
        if expected:
            assert verify(inst, result.lift(report.witness)) == [], (result.kind, inst)
    assert shrunk == 5428
    assert kinds == {"ntau-cmpv": 3872, "ntau-rmpv": 702, "ntau-rmpv-rescaled": 1118, "gap": 2052}


def test_brute_force_scan_path_meets_ell_exactly():
    # the ball of radius 4 over 7 candidates holds 99 > 64 committees, so
    # stage 2 is scanned, and {3, 6} -> {2, 4} changes exactly ell = 4
    inst = Instance("C", 7, ((3, 6, 0), (2, 4, 7)), 2, 4, 2)
    report = brute_force(inst)
    assert report.answer and _reference(inst)
    assert report.witness == (frozenset({3, 6}), frozenset({2, 4}))


def test_brute_force_scan_path_matches_the_reference():
    rng = random.Random(7)
    yes = 0
    for seed in range(200):
        m, ell = rng.randint(7, 9), rng.randint(2, 4)
        n, tau, k, x = rng.randint(2, 3), rng.randint(2, 3), rng.randint(1, 3), rng.randint(1, 2)
        inst = random_instance(n, m, tau, k, ell, x, "C", abstain_probability=0.3, seed=seed)
        expected = _reference(inst)
        yes += expected
        report = brute_force(inst)
        assert report.answer == expected, inst
        if expected:
            assert verify(inst, report.witness) == [], inst
    assert 0 < yes < 200
