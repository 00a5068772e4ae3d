"""One labeled row, now built only by scenario draws.

Ingested files stay columnar (streams.FeatureTable), and draw_stream_data
stacks a scenario's Samples into arrays before training sees them.
"""

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Sample:
    features: np.ndarray
    label: int
    task_index: int
