"""Stabilizer groups of finite point sets on the Riemann sphere.

Classifies every Mobius group (with component index) that can stabilize
an n-point subset of the extended complex plane, builds explicit witness
configurations for each entry, verifies them with a stabilizer oracle
independent of the classification, and exposes the symmetric-group
action on normalized configurations whose fixed points are the orbifold
singularities of the moduli space of n unordered points.
"""

from .classifier import (ClassificationEntry, GroupLabel, cardinality_of,
                         cardinality_set, classify, classify_lines,
                         parse_entry)
from .geometry import (DEFAULT_TOL, MobiusMap, PointSet, RiemannPoint,
                       chordal_distance, mobius_through_triple)
from .moduli import (ANHARMONIC_GROUP, LambdaTuple, Permutation, f_sigma,
                     g_sigma, phi_check, preset_lambda, stabilizer_G_lambda,
                     verify_group_law)
from .oracle import StabilizerResult, stabilizer
from .witness import (PHI, PSI, cyclic_witness, dihedral_witness,
                      polyhedral_orbit, trivial_witness, witness)

__version__ = "0.1.0"

__all__ = [
    "ANHARMONIC_GROUP", "ClassificationEntry", "DEFAULT_TOL", "GroupLabel",
    "LambdaTuple", "MobiusMap", "PHI", "PSI", "Permutation", "PointSet",
    "RiemannPoint", "StabilizerResult", "cardinality_of", "cardinality_set",
    "chordal_distance", "classify", "classify_lines", "cyclic_witness",
    "dihedral_witness", "f_sigma", "g_sigma", "mobius_through_triple",
    "parse_entry", "phi_check", "polyhedral_orbit", "preset_lambda",
    "stabilizer", "stabilizer_G_lambda", "trivial_witness",
    "verify_group_law", "witness",
]
