"""Seeded caption corpora for the tok-scaled workload.

The word pools come from ``tools/build_desk_corpus.py`` (imported, not
copied) and are grown by prefixes, suffixes and noun compounds into a few
thousand distinct lowercase ASCII words. Training word counts follow a Zipf
law (count of rank r proportional to 1/r, every word at least once), so
every seed gives the same count profile over different words. Held-out
captions mix training words with words that never occur in training but use
only letters the training corpus has both word-initially and
word-internally, so every held-out caption is encodable.
"""

from __future__ import annotations

import random
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "tools"))
import build_desk_corpus as desk  # noqa: E402  (word pools only)

sys.path.pop(0)

from subicap.model.synthetic import GRAMMAR_WORDS  # noqa: E402

# the most frequent words; the synthetic scenes' caption words are among
# them, so a caption model trained on this vocabulary sees whole words
FUNCTION_WORDS = ("a", "the", "is", "are", "and", "with", "two", "three") + tuple(
    sorted(GRAMMAR_WORDS - {"a", "is"}))
PREFIXES = ("un", "re", "over", "under", "out", "pre", "mis", "sub")
VERB_SUFFIXES = ("s", "ing", "ed", "er", "ers", "able")
NOUN_SUFFIXES = ("s", "less", "ful", "like", "ish")
ADJ_SUFFIXES = ("ness", "ly", "ish", "er", "est")

N_TRAIN_WORDS = 1500
N_UNSEEN_WORDS = 400
TOP_COUNT = 3000  # count of the rank-1 word; rank r gets TOP_COUNT // r, at least 1
CAPTION_WORDS = (6, 14)  # inclusive range; stays under the loader's 16-word cap
UNSEEN_SHARE = 0.05  # share of held-out word tokens that are unseen words


def word_pool() -> list[str]:
    """Every derived word, sorted; the seed only decides which are used."""
    nouns = desk.NOUNS + desk.RARE
    words: set[str] = set(nouns) | set(desk.VERBS) | set(desk.ADJS)
    words |= set(desk.ADVS) | set(desk.PREPS)
    for n in nouns:
        words.update(n + s for s in NOUN_SUFFIXES)
        words.update(p + n for p in PREFIXES[4:])
    for n in desk.NOUNS:
        words.update(n + m for m in desk.NOUNS if m != n)
    for v in desk.VERBS:
        words.update(v + s for s in VERB_SUFFIXES)
        words.update(p + v for p in PREFIXES)
        words.update(p + v + "ed" for p in PREFIXES[:4])
    for a in desk.ADJS:
        words.update(a + s for s in ADJ_SUFFIXES)
        words.update("un" + a + s for s in ("", "ness", "ly"))
    return sorted(words - set(FUNCTION_WORDS))


def _chunk(tokens: list[str], rng: random.Random) -> list[str]:
    lo, hi = CAPTION_WORDS
    captions, i = [], 0
    while i < len(tokens):
        n = rng.randint(lo, hi)
        captions.append(" ".join(tokens[i:i + n]))
        i += n
    return captions


def generate(seed: int, n_heldout: int) -> tuple[list[str], list[str]]:
    """(training captions, n_heldout held-out captions) for one seed."""
    rng = random.Random(seed)
    pool = word_pool()
    rng.shuffle(pool)
    n_drawn = N_TRAIN_WORDS - len(FUNCTION_WORDS)
    ranked = list(FUNCTION_WORDS) + pool[:n_drawn]
    counts = [max(1, TOP_COUNT // r) for r in range(1, len(ranked) + 1)]
    tokens = [w for w, c in zip(ranked, counts) for _ in range(c)]
    rng.shuffle(tokens)
    train = _chunk(tokens, rng)

    initial = {w[0] for w in ranked}
    internal = {ch for w in ranked for ch in w[1:]}
    both = initial & internal
    unseen = [w for w in pool[n_drawn:] if set(w) <= both][:N_UNSEEN_WORDS]
    lo, hi = CAPTION_WORDS
    heldout = []
    for _ in range(n_heldout):
        n = rng.randint(lo, hi)
        words = rng.choices(ranked, weights=counts, k=n)
        for k in range(n):
            if rng.random() < UNSEEN_SHARE:
                words[k] = rng.choice(unseen)
        heldout.append(" ".join(words))
    return train, heldout


def corpus_text(captions: list[str]) -> str:
    """Corpus file body in the loader's image_id<TAB>caption format."""
    return "".join(f"img{i:06d}\t{c}\n" for i, c in enumerate(captions))
