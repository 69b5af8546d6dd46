#!/usr/bin/env python3
"""Brute-force verification: the engine never has to be taken on faith.

Two independent checks back the coordinate arithmetic.  First, the seven
defining relations of the generator presentation are evaluated on both sides
for every generator choice.  Second, the reduced K-group is rebuilt from
scratch as a free abelian group on formal symbols (one per line bundle, one
per rank-2 bundle) modulo the additive relations, and the result is compared
with the twisted-extension computation.  Both checks read the same table of
relations: the first fills it with K-classes, the second with formal sums.
"""

from kfour import oracle_compare, parse_ring, verify_relations, verify_ring_axioms

ring = parse_ring(
    """
    H2 free 0 torsion 4
    H4 free 0 torsion 4
    cup 1 1 = 1
    """
)

report = verify_relations(ring)
print("defining relations on the Z/4 ring:")
for check in report.checks:
    status = "ok" if check.ok else "FAILED"
    print(f"  relation {check.name}: {check.instances} instances, {status}")
print("total failures:", report.total_failures)
print()

axioms = verify_ring_axioms(ring, rank_range=(-1, 1))
print("ring axioms on all classes of rank -1..1:")
for check in axioms.checks:
    print(f"  {check.name}: {check.instances} instances, failures {check.failures}")
print()

comparison = oracle_compare(ring)
print("formal-generator oracle vs twisted-extension engine:")
print("  engine:", comparison.engine_structure)
print("  oracle:", comparison.oracle_structure)
print("  agree: ", comparison.ok)
print()

# On infinite cohomology the inputs range over a coordinate box instead.
free_ring = parse_ring("H2 free 1 torsion\nH4 free 1 torsion\ncup 1 1 = 1\n")
boxed = verify_relations(free_ring, bound=2)
print("free ring, coordinates in [-2, 2]:")
print("  instances:", boxed.total_instances, "failures:", boxed.total_failures)
