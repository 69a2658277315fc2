"""Numerics for weighted Hilbert spaces of Dirichlet series.

The package is organized around a catalog of arithmetic weight sequences
(`weights`), the Dirichlet-series spaces they generate (`hspace`), special
functions and kernels (`zeta`), local embeddings into half-plane smoothness
scales (`embedding`), atomic sampling measures (`sampling`), and
partial-sum asymptotics recovered from Mellin profiles (`tauberian`).
"""

__version__ = "0.1.0"
