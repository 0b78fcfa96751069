"""
Hardness gadgets as instance generators
=======================================

The reductions that make the decision problems hard double as instance
generators with known answers. This walks the vertex-cover and
multicolored-clique constructions and checks both against brute force.
"""

import itertools

from mpvkit import (
    Graph,
    PartitionedGraph,
    brute_force,
    mcc_to_cmpv,
    pad_half_vertex_cover,
    sidon,
    vc_to_cmpv,
)

# A five-cycle has a vertex cover of size 3 but none of size 2.
cycle = Graph(5, ((1, 2), (2, 3), (3, 4), (4, 5), (1, 5)))

for r in (2, 3):
    padded, half = pad_half_vertex_cover(cycle, r)
    inst = vc_to_cmpv(padded)
    print(f"cover size {r}: padded to {padded.num_vertices} vertices, "
          f"k={inst.k}, tau={inst.tau}, answer="
          f"{'yes' if brute_force(inst).answer else 'no'}")

# The clique gadget needs a Sidon set so that committee scores identify
# vertex pairs uniquely: all pairwise sums below are distinct.
s = sidon(6)
print("sidon ids:", s.elements, "hat =", s.hat_b)
sums = sorted(a + b for a, b in itertools.combinations_with_replacement(s.elements, 2))
assert len(set(sums)) == len(sums)

# A 3-partite graph whose only cross edges form one triangle.
pg = PartitionedGraph(
    parts=(frozenset({1, 2}), frozenset({3, 4}), frozenset({5, 6})),
    edges=((1, 3), (1, 5), (3, 5)),
)
inst = mcc_to_cmpv(pg)
q = len(pg.parts)
print(f"clique gadget: n={inst.n}, m={inst.m}, tau={inst.tau}, k={inst.k}, x={inst.x}")
report = brute_force(inst)
print("multicolored triangle exists:", "yes" if report.answer else "no")

# The winning committee names the triangle: the vertex candidates it
# contains are exactly one per part.
chosen = sorted(c for c in report.witness[0] if c <= pg.num_vertices)
print("selected vertices:", chosen)

# Remove one triangle edge and the answer flips.
broken = PartitionedGraph(parts=pg.parts, edges=((1, 3), (1, 5)))
print("after removing an edge:",
      "yes" if brute_force(mcc_to_cmpv(broken)).answer else "no")
