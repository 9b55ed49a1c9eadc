"""Synthetic two-region scenes and their template captions."""

import numpy as np
import pytest

from subicap.model.synthetic import (
    CLASS_NAMES,
    GRAMMAR_WORDS,
    RELATIONS,
    class_templates,
    synthetic_regions,
)


def nearest_template_accuracy(scenes, templates):
    """Fraction of regions whose appearance is closest to the template of
    the class named for them in the caption "a X is ... a Y"."""
    hits = []
    for scene in scenes:
        words = scene.caption.split()
        for region, name in zip(scene.regions.regions, (words[1], words[-1])):
            d = np.linalg.norm(templates - region.appearance, axis=1)
            hits.append(CLASS_NAMES[int(np.argmin(d))] == name)
    return sum(hits) / len(hits)


class TestClassTemplates:
    def test_shape_and_determinism(self):
        t1 = class_templates(16, seed=3)
        t2 = class_templates(16, seed=3)
        assert t1.shape == (len(CLASS_NAMES), 16)
        assert np.array_equal(t1, t2)
        assert not np.array_equal(t1, class_templates(16, seed=4))

    def test_templates_well_separated(self):
        t = class_templates(16, seed=0)
        for i in range(len(t)):
            for j in range(i + 1, len(t)):
                assert np.linalg.norm(t[i] - t[j]) > 1.0

    def test_rejects_narrow_appearance(self):
        with pytest.raises(ValueError, match="d_in"):
            class_templates(4, seed=0)


class TestSyntheticRegions:
    def test_deterministic_per_seed(self):
        a = synthetic_regions(seed=7, n_images=6)
        b = synthetic_regions(seed=7, n_images=6)
        assert [s.caption for s in a] == [s.caption for s in b]
        for sa, sb in zip(a, b):
            assert np.array_equal(sa.regions.boxes, sb.regions.boxes)
            assert np.array_equal(sa.regions.appearance, sb.regions.appearance)
        c = synthetic_regions(seed=8, n_images=6)
        assert any(not np.array_equal(sa.regions.boxes, sc.regions.boxes)
                   for sa, sc in zip(a, c))

    def test_caption_words_stay_inside_the_grammar(self):
        for scene in synthetic_regions(seed=0, n_images=40):
            for word in scene.caption.split():
                assert word in GRAMMAR_WORDS

    def test_caption_shape(self):
        for scene in synthetic_regions(seed=1, n_images=40):
            words = scene.caption.split()
            assert words[0] == "a"
            assert words[1] in CLASS_NAMES
            assert words[2] == "is"
            assert words[-2] == "a"
            assert words[-1] in CLASS_NAMES
            assert " ".join(words[3:-2]) in RELATIONS
            assert words[1] != words[-1]  # classes drawn without replacement

    def test_relation_word_matches_the_boxes(self):
        for scene in synthetic_regions(seed=2, n_images=60):
            b = scene.regions.boxes
            dx = b[1, 0] - b[0, 0]
            dy = b[1, 1] - b[0, 1]
            words = scene.caption.split()
            rel = " ".join(words[3:-2])
            if abs(dx) >= abs(dy):
                assert rel == ("left of" if dx > 0 else "right of")
            else:
                assert rel == ("above" if dy > 0 else "below")

    def test_offsets_leave_a_margin(self):
        # dominant axis is clearly dominant, never a coin flip
        for scene in synthetic_regions(seed=3, n_images=60):
            b = scene.regions.boxes
            dx = abs(b[1, 0] - b[0, 0])
            dy = abs(b[1, 1] - b[0, 1])
            assert max(dx, dy) >= 0.2
            assert abs(dx - dy) >= 0.05

    def test_two_regions_per_scene(self):
        for scene in synthetic_regions(seed=4, n_images=10):
            assert len(scene.regions) == 2
            assert scene.regions.appearance.shape == (2, 16)

    def test_custom_appearance_width(self):
        scenes = synthetic_regions(seed=4, n_images=3, d_in=24)
        assert scenes[0].regions.appearance.shape == (2, 24)

    def test_image_ids_unique(self):
        scenes = synthetic_regions(seed=5, n_images=25)
        assert len({s.image_id for s in scenes}) == 25

    def test_rejects_empty_dataset(self):
        with pytest.raises(ValueError, match="n_images"):
            synthetic_regions(seed=0, n_images=0)


class TestNearestTemplateProbe:
    def test_labels_recovered_perfectly(self):
        """Noise is 20x smaller than template separation, so the nearest
        template always names the right class."""
        scenes = synthetic_regions(seed=6, n_images=100)
        templates = class_templates(16, seed=6)
        assert nearest_template_accuracy(scenes, templates) == 1.0

    def test_shuffled_templates_break_the_probe(self):
        scenes = synthetic_regions(seed=6, n_images=50)
        templates = class_templates(16, seed=6)[::-1]
        assert nearest_template_accuracy(scenes, templates) < 0.5
