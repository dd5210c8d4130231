"""2D boundary-element scattering with higher-order impedance boundary conditions.

The package solves time-harmonic (exp(+i*omega*t) convention) scattering from
coated conductors in two dimensions.  The coating is never meshed: it enters
through an impedance boundary condition of order 0 (Leontovich), 1, or 2,
whose coefficients are fitted to the exact planar-layer impedance.

Submodules
----------
specfun    Bessel/Hankel functions, the kernel Hankel path, quadrature.
impedance  Planar-layer impedance, rational coefficient fits, SUC checks.
geometry   Discretized contours (circles, plates) with per-element frames.
assembly   Galerkin block systems for TE/TM and their reduction to (J, M).
linsolve   Dense complex LU with condition estimation.
analysis   Far fields, echo widths, and the coated-cylinder series reference.
cli        Command-line driver (impedance-table / check / solve / oracle /
           compare).
"""

__version__ = "0.1.0"
