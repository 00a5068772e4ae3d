"""One labeled row where data enters or leaves the package: stream draws and ingested files."""

from dataclasses import dataclass

import numpy as np

LABEL_REAL = 0
LABEL_FAKE = 1


@dataclass(frozen=True)
class Sample:
    features: np.ndarray
    label: int
    task_index: int
