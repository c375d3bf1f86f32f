"""Iteration counts the tests pin, kept in one place.

``TABLE1_ITERATIONS`` are the hybrid runs of table1's three starts, in grid
order: (1, 3, 1), (-3, 4, 1) and (3, -2, 1).  Counts hold across machines,
where digests may not.
"""

TABLE1_ITERATIONS = (1588, 1766, 5106)
