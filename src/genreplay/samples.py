"""One labeled row, now built only by scenario draws, and the label constants.

Ingested files stay columnar (streams.FeatureTable), and draw_stream_data
stacks a scenario's Samples into arrays before training sees them.
"""

from dataclasses import dataclass

import numpy as np

LABEL_REAL = 0
LABEL_FAKE = 1


@dataclass(frozen=True)
class Sample:
    features: np.ndarray
    label: int
    task_index: int
