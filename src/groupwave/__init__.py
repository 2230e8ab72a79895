"""groupwave: coherent-state and wavelet transforms built from square
integrable group representations, verified numerically.

The package implements concrete locally compact groups as charts on R^d,
their unitary and projective representations on sampled L2 states, the
measure decomposition over a relatively central subgroup, the induced
representations intertwining the analysis operators, and the generalized
wavelet transforms with their Duflo-Moore orthogonality relations.

Nothing is re-exported here: import each name from its submodule
(``from groupwave.transforms import analyze``).
"""
