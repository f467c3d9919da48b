"""Density-matrix toolkit for two-qubit X states on a four-qubit register.

The package covers the full loop of a purification experiment run in
software: pick a target state (spectral weights plus two mixing angles, or
a raw X-shaped matrix), compile the preparation circuit, evolve under an
anisotropic exchange Hamiltonian with an inhomogeneous z field, push the
circuit through configurable gate and readout noise, sample measurement
settings, reconstruct the pair state from full or reduced observable sets,
and score the result with concurrence, fidelity, and leakage.
"""
