"""Sampling many-body spectral functions with phase estimation.

The package pairs a dense state-vector simulator of the generative circuit
(purified operator state, counter-propagating copies, inverse Fourier
transform, phase-register measurement) with an exact-diagonalization oracle
that evaluates the same statistics in closed form, so every circuit result
can be checked bin by bin.

Each name is imported from the module that defines it, e.g.
``qspec.stateprep.run_prep_circuit``; this root holds only ``__version__``.
"""

__version__ = "0.1.0"
