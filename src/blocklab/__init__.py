"""blocklab: a finite-volume spectral laboratory for random block operators.

Assembles 2x2-block operators with an Anderson-model diagonal and a random
multiplication coupling on discrete cubes, diagonalizes them over Monte
Carlo ensembles, and verifies the finite-volume identities, deterministic
inequalities and statistical bounds that govern their spectra: spectral
gaps, eigenvalue-count (Wegner-type) estimates, band-edge tail
asymptotics, resolvent-decay inequalities and localization diagnostics.
"""

__version__ = "0.1.0"
