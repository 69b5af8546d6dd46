#!/usr/bin/env python3
"""The exact-arithmetic workhorse: Smith normal form with witnesses.

Everything group-theoretic in this package reduces to one primitive:
diagonalize an integer matrix by invertible integer row and column
operations, as sparse row echelon forms of the rows and of the columns in
turn.  With the witnesses U and V carried along it is the Smith normal form,
so the factorization can be checked, not just believed; without them the
same elimination solves a presented group.
"""

from kfour import IntMatrix, group_from_relations, smith_normal_form

m = IntMatrix.from_rows(
    [
        [2, 4, 4],
        [-6, 6, 12],
        [10, 4, 16],
    ]
)
u, d, v = smith_normal_form(m)

print("m =", m, sep="\n")
print()
print("D = U m V =", d, sep="\n")
print()
print("det U =", u.det(), " det V =", v.det())
print("U m V == D:", u @ m @ v == d)
print()

# A presented group is the cokernel of its relation matrix; the invariant
# factors sit on the diagonal.
report = group_from_relations(3, m)
print("Z^3 modulo the rows of m:", report)
print()

# the classic small example: relations 2a = b, 2b = 0 hide a Z/4
relations = IntMatrix.from_rows([[2, -1], [0, 2]])
print("relations [[2,-1],[0,2]] present:", group_from_relations(2, relations))
