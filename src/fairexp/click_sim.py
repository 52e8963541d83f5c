"""Dependent click model simulation.

The simulated user scans the displayed list top to bottom. At each
position they click with a probability conditioned on the document's
relevance grade; after a click they stop scanning with a second
grade-conditioned probability. Without a click they always continue to
the next position.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class ClickModelConfig:
    """Click and stop probabilities indexed by relevance grade 0..4."""

    name: str
    click_prob: tuple[float, float, float, float, float]
    stop_prob: tuple[float, float, float, float, float]

    def __post_init__(self):
        for p in (*self.click_prob, *self.stop_prob):
            if not 0.0 <= p <= 1.0:
                raise ValueError(f"probability {p} outside [0, 1]")


PERFECT = ClickModelConfig(
    name="perfect",
    click_prob=(0.0, 0.2, 0.4, 0.8, 1.0),
    stop_prob=(0.0, 0.0, 0.0, 0.0, 0.0),
)
NAVIGATIONAL = ClickModelConfig(
    name="navigational",
    click_prob=(0.05, 0.3, 0.5, 0.7, 0.95),
    stop_prob=(0.2, 0.3, 0.5, 0.7, 0.9),
)
INFORMATIONAL = ClickModelConfig(
    name="informational",
    click_prob=(0.4, 0.6, 0.7, 0.8, 0.9),
    stop_prob=(0.1, 0.2, 0.3, 0.4, 0.5),
)

BY_NAME = {m.name: m for m in (PERFECT, NAVIGATIONAL, INFORMATIONAL)}


def custom_model(click_prob, stop_prob) -> ClickModelConfig:
    return ClickModelConfig(name="custom", click_prob=tuple(click_prob), stop_prob=tuple(stop_prob))


@dataclass
class ClickOutcome:
    """Per-position click booleans and the last examined position (1-based)."""

    clicks: list[bool]
    examined_through: int


def simulate(displayed_grades, config: ClickModelConfig, rng: np.random.Generator) -> ClickOutcome:
    """Scan the displayed grades in order and sample clicks and stopping.

    One random draw is consumed per examination and one more per click,
    in scan order, so traces replay exactly under a fixed seed.
    """
    clicks: list[bool] = []
    examined = 0
    for grade in displayed_grades:
        if not 0 <= grade <= 4:
            raise ValueError(f"relevance grade {grade} outside 0..4")
        examined += 1
        clicked = rng.random() < config.click_prob[grade]
        clicks.append(bool(clicked))
        if clicked and rng.random() < config.stop_prob[grade]:
            break
    clicks.extend([False] * (len(displayed_grades) - len(clicks)))
    return ClickOutcome(clicks=clicks, examined_through=examined)
