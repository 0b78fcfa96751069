"""Regret probe: every applicable solver on one instance, in a capped process.

Run as ``python3 benchmarks/probe.py SRC_DIR INSTANCE_FILE``. The process
caps its address space with ``RLIMIT_AS`` before importing mpvkit, so a
solver that runs out of memory raises ``MemoryError`` here and counts
as failing, instead of drawing on the machine's memory. It calls
``solve_auto`` as users do, with its default budget, then each solver
directly under :data:`BUDGET`, and
prints one JSON line per call as soon as it finishes; the parent kills
the process when its time is up and counts the calls that never
reported as failed. A call that returns within :data:`REPEAT_BELOW_MS`
is made :data:`REPEATS` times and reports its median time, so that a
solver's first call in the process (numpy warming up, for dp-tau up to
twice its later time) does not decide which solver was fastest.
"""

import json
import resource
import statistics
import sys
import time

ADDRESS_SPACE = 768 * 2**20
BUDGET = 2 * 10**5
REPEATS = 3
REPEAT_BELOW_MS = 100.0


def main(src, path):
    resource.setrlimit(resource.RLIMIT_AS, (ADDRESS_SPACE, ADDRESS_SPACE))
    sys.path.insert(0, src)
    from mpvkit import (
        BudgetExceededError,
        PreconditionError,
        brute_force,
        parse_instance,
        solve_auto,
        solve_dp_tau,
        solve_inout_ell,
        solve_layered_k,
        solve_unconstrained,
    )

    with open(path) as handle:
        instance = parse_instance(handle.read())
    calls = [
        ("auto", lambda: solve_auto(instance)),
        ("greedy", lambda: solve_unconstrained(instance)),
        ("layered-k", lambda: solve_layered_k(instance, budget=BUDGET)),
        ("inout-ell", lambda: solve_inout_ell(instance, budget=BUDGET)),
        ("brute-force", lambda: brute_force(instance, budget=BUDGET)),
        # last: it is the one that can run long or out of memory
        ("dp-tau", lambda: solve_dp_tau(instance, budget=BUDGET)),
    ]
    for name, call in calls:
        row = {"solver": name}
        times = []
        try:
            while True:
                start = time.perf_counter()
                report = call()
                times.append((time.perf_counter() - start) * 1000.0)
                if len(times) == REPEATS or times[0] >= REPEAT_BELOW_MS:
                    break
        except PreconditionError:
            continue
        except (BudgetExceededError, MemoryError) as exc:
            row["error"] = type(exc).__name__
            times.append((time.perf_counter() - start) * 1000.0)
        else:
            row.update(
                answer=report.answer,
                algorithm=report.algorithm,
                states=report.stats["states"],
            )
        row["ms"] = statistics.median(times)
        print(json.dumps(row), flush=True)


if __name__ == "__main__":
    main(sys.argv[1], sys.argv[2])
