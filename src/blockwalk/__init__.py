"""Continuous-time quantum walks on independent-set subspaces.

Subpackages cover subspace enumeration, walk propagation, variational
state preparation (product and bracelet targets), compilation to and
emulation of neutral-atom analog programs, readout-error mitigation,
and scaling analysis.
"""

__version__ = "0.1.0"
