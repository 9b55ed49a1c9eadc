"""Synthetic region/caption pairs standing in for a detector.

Each scene holds two regions with class-coded appearance vectors and boxes
whose geometry determines the caption: "a {left class} is {relation} a
{right class}" with the relation read off the dominant center displacement.
Class appearance templates are far apart relative to the per-sample noise
(separation factor 20x), so a nearest-template probe recovers labels
perfectly and the only thing the caption model must learn from geometry is
the relation word.

Captions come from a closed template grammar of 15 lowercase words, already
in normalized form. Everything is driven by one seed; identical seeds give
identical datasets.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import Region, RegionSet

CLASS_NAMES = ("cat", "dog", "bird", "car", "tree", "ball", "chair", "person")
RELATIONS = ("left of", "right of", "above", "below")
GRAMMAR_WORDS = frozenset(
    {"a", "is", "of", "left", "right", "above", "below"} | set(CLASS_NAMES)
)

_TEMPLATE_SCALE = 2.0
_NOISE_SCALE = 0.05
# min dominant-axis offset and min axis margin keep every relation
# unambiguous under the detector's jitter
_MIN_OFFSET = 0.2
_MIN_MARGIN = 0.05


@dataclass(frozen=True)
class Scene:
    image_id: str
    regions: RegionSet
    caption: str


def class_templates(d_in: int, seed: int) -> np.ndarray:
    """(n_classes, d_in) appearance centroids, one axis-aligned spike per
    class plus a small seeded rotation so features are not trivially sparse."""
    if d_in < len(CLASS_NAMES):
        raise ValueError(f"d_in must be >= {len(CLASS_NAMES)}")
    rng = np.random.default_rng(seed)
    base = np.zeros((len(CLASS_NAMES), d_in))
    for k in range(len(CLASS_NAMES)):
        base[k, k] = _TEMPLATE_SCALE
    base += rng.normal(0.0, 0.1 * _TEMPLATE_SCALE, base.shape)
    return base


def _relation(b1: np.ndarray, b2: np.ndarray) -> str:
    dx = b2[0] - b1[0]
    dy = b2[1] - b1[1]
    if abs(dx) >= abs(dy):
        return "left of" if dx > 0 else "right of"
    return "above" if dy > 0 else "below"


def synthetic_regions(seed: int, n_images: int, d_in: int = 16) -> list[Scene]:
    """Deterministic (RegionSet, caption) pairs for one dataset seed."""
    if n_images < 1:
        raise ValueError("n_images must be >= 1")
    rng = np.random.default_rng(seed)
    templates = class_templates(d_in, seed)
    scenes: list[Scene] = []
    for i in range(n_images):
        c1, c2 = rng.choice(len(CLASS_NAMES), size=2, replace=False)
        while True:
            centers = rng.uniform(0.15, 0.85, size=(2, 2))
            dx = abs(centers[1, 0] - centers[0, 0])
            dy = abs(centers[1, 1] - centers[0, 1])
            if max(dx, dy) >= _MIN_OFFSET and abs(dx - dy) >= _MIN_MARGIN:
                break
        sizes = rng.uniform(0.1, 0.3, size=(2, 2))
        regions = []
        for k, cls in enumerate((c1, c2)):
            appearance = templates[cls] + rng.normal(0.0, _NOISE_SCALE, d_in)
            regions.append(
                Region(
                    cx=float(centers[k, 0]),
                    cy=float(centers[k, 1]),
                    w=float(sizes[k, 0]),
                    h=float(sizes[k, 1]),
                    appearance=appearance,
                )
            )
        rel = _relation(centers[0], centers[1])
        caption = f"a {CLASS_NAMES[c1]} is {rel} a {CLASS_NAMES[c2]}"
        scenes.append(Scene(f"synth{i:04d}", RegionSet(regions), caption))
    return scenes
