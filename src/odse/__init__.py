"""Optimized dissimilarity-space embedding for symbol sequences.

Sequences are embedded as vectors of alignment dissimilarities to a set
of prototypes; the prototype set and the alignment parameters are tuned
by a genetic algorithm, and a feature-space classifier works on the
embedded vectors.  The package also ships the input-space reference
classifiers and a resampled evaluation harness.

Each public name is imported from the module that defines it, for
example `from odse.model import ga_optimize`; `import odse` loads every
module, so `odse.model.ga_optimize` works after it too.  Worker counts
(`threads`) must be integers of at least 1; the table builder
`odse.alignment.dissimilarity_table` and `odse.model.ga_optimize` check
them.
"""

from . import (
    alignment,
    classifiers,
    datasets,
    embedding,
    entropy,
    errors,
    experiment,
    model,
    sequences,
)

__version__ = "0.1.0"
