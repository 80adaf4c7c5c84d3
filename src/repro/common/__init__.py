"""Shared hardware primitives and statistics used across the PaCo reproduction.

This package collects the small, widely reused building blocks:

* :mod:`repro.common.counters` — the paired correct/mispredict counters
  used by the Mispredict Rate Table.
* :mod:`repro.common.logcircuit` — Mitchell's binary-logarithm approximation
  and the encoded-probability arithmetic PaCo is built on.
* :mod:`repro.common.stats` — reliability diagrams and their RMS error, the
  probabilistic-forecast statistics used by the evaluation.
* :mod:`repro.common.rng` — deterministic, named random streams so that every
  experiment is reproducible bit-for-bit.
"""

from repro.common.counters import HalvingRateCounter
from repro.common.logcircuit import (
    MitchellLogCircuit,
    encode_probability,
    decode_probability,
    encode_probability_exact,
    ENCODED_PROBABILITY_SCALE,
    ENCODED_PROBABILITY_MAX,
)
from repro.common.stats import ReliabilityDiagram
from repro.common.rng import DeterministicRng, RngPool

__all__ = [
    "HalvingRateCounter",
    "MitchellLogCircuit",
    "encode_probability",
    "decode_probability",
    "encode_probability_exact",
    "ENCODED_PROBABILITY_SCALE",
    "ENCODED_PROBABILITY_MAX",
    "ReliabilityDiagram",
    "DeterministicRng",
    "RngPool",
]
