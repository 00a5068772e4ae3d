"""One labeled row where data enters or leaves the package: stream draws and ingested files."""

from dataclasses import dataclass

import numpy as np

LABEL_REAL = 0
LABEL_FAKE = 1

ORIGINS = ("current_real", "current_fake")


@dataclass(frozen=True)
class Sample:
    features: np.ndarray
    label: int
    origin: str
    task_index: int

    def __post_init__(self):
        if self.origin not in ORIGINS:
            raise ValueError(f"unknown origin {self.origin!r}")
