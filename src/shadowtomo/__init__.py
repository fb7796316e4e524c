"""Measurement-frugal estimation of many observables from few state copies.

Simulates gentle measurement, amplified OR testing, gentle binary search,
postselection-driven hypothesis refinement, promise-gap deciders, and the
matching hard-instance families, with strict copy accounting throughout.
Import names from the submodules, e.g. `shadowtomo.scenarios`.
"""

__version__ = "0.1.0"
