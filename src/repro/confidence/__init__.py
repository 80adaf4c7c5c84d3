"""Branch confidence prediction substrate.

Implements the JRS miss-distance-counter confidence predictor (Jacobsen,
Rotenberg and Smith) and the *enhanced* JRS variant of Grunwald et al.,
where the table index also folds in the predicted direction of the branch.
The paper's machine uses an 8 KB enhanced-JRS table of 4-bit MDCs; PaCo
uses the same table as a *stratifier* — the MDC value a branch reads at
prediction time selects which Mispredict Rate Table bucket it belongs to.
"""

from repro.confidence.jrs import (
    JRSConfidencePredictor,
    ConfidenceLookup,
    MDC_BITS_DEFAULT,
)

__all__ = [
    "JRSConfidencePredictor",
    "ConfidenceLookup",
    "MDC_BITS_DEFAULT",
]
