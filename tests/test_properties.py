"""Property tests: the file loaders and the CLI on damaged files.

A truncated or byte-mutated copy of a valid corpus, vocabulary, BPE model,
word vocabulary or checkpoint either loads or raises that loader's own
SubicapError subclass, never anything else; through main(), a file that
does not load, or a config file holding any JSON value for an option,
gives one "subicap: error:" line and exit 2. A saved BPE model or word
vocabulary loads back equal, and load_corpus reads any file as a reference
parse does.
"""

import contextlib
import io
import json
import os
import re
import struct
import sys
import tempfile
import unicodedata
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from subicap.baselines import (
    load_bpe,
    load_word_vocab,
    save_bpe,
    save_word_vocab,
    train_bpe,
    train_word_vocab,
)
from subicap.cli import COMMANDS, REQUIRED, main
from subicap.corpus import Corpus, load_corpus
from subicap.errors import CheckpointError, CorpusFormatError, VocabFormatError
from subicap.model.synthetic import synthetic_regions
from subicap.model.transformer import load_checkpoint
from subicap.unigram import load_vocab

EXAMPLES = settings(max_examples=75, deadline=None, derandomize=True)
ROUND_TRIPS = settings(max_examples=40, deadline=None, derandomize=True)


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    """A trained vocabulary and a one-step checkpoint that match it, and a
    scratch path the damaged copies are written to."""
    d = tmp_path_factory.mktemp("valid")
    corpus = d / "captions.txt"
    corpus.write_text("".join(f"{s.image_id}\t{s.caption}\n"
                              for s in synthetic_regions(seed=0, n_images=30)),
                      encoding="utf-8")
    vocab, ckpt = d / "vocab.tsv", d / "model.ckpt"
    assert main(["train-tokenizer", "--corpus", str(corpus), "--vocab-size", "40",
                 "--out", str(vocab)]) == 0
    assert main(["train-tokenizer", "--corpus", str(corpus), "--algo", "bpe",
                 "--merges", "20", "--out", str(d / "bpe.txt")]) == 0
    assert main(["train-tokenizer", "--corpus", str(corpus), "--algo", "word",
                 "--min-freq", "1", "--out", str(d / "words.txt")]) == 0
    assert main(["train-lm", "--tokenizer", str(vocab), "--out", str(ckpt),
                 "--steps", "1", "--images", "2", "--d-model", "8", "--d-ff", "8",
                 "--layers", "1", "--geo-dim", "2", "--max-len", "16"]) == 0
    return vocab, ckpt, d / "damaged"


@st.composite
def damage(draw, raw: bytes, focus: int):
    """raw cut short, or with one to four bytes replaced; replaced bytes
    fall inside raw[:focus] half the time."""
    if draw(st.booleans()):
        return raw[: draw(st.integers(0, len(raw) - 1))]
    out = bytearray(raw)
    limit = draw(st.sampled_from([focus, len(raw)])) - 1
    for _ in range(draw(st.integers(1, 4))):
        out[draw(st.integers(0, limit))] = draw(st.integers(0, 255))
    return bytes(out)


def _header_end(raw: bytes) -> int:
    return 4 + struct.unpack("<I", raw[:4])[0]


@EXAMPLES
@given(data=st.data())
def test_load_vocab_loads_or_raises_vocab_format_error(files, data):
    vocab, _, damaged = files
    raw = vocab.read_bytes()
    damaged.write_bytes(data.draw(damage(raw, len(raw))))
    with contextlib.suppress(VocabFormatError):
        load_vocab(damaged)


@EXAMPLES
@given(data=st.data())
@pytest.mark.parametrize("name,loader,error", [
    ("captions.txt", load_corpus, CorpusFormatError),
    ("bpe.txt", load_bpe, VocabFormatError),
    ("words.txt", load_word_vocab, VocabFormatError),
], ids=["corpus", "bpe", "word-vocab"])
def test_text_loaders_load_or_raise_their_format_error(files, data, name, loader,
                                                       error):
    valid = files[0].parent / name
    damaged = files[2]
    raw = valid.read_bytes()
    damaged.write_bytes(data.draw(damage(raw, len(raw))))
    with contextlib.suppress(error):
        loader(damaged)


@EXAMPLES
@given(data=st.data())
def test_load_checkpoint_loads_or_raises_checkpoint_error(files, data):
    _, ckpt, damaged = files
    raw = ckpt.read_bytes()
    damaged.write_bytes(data.draw(damage(raw, _header_end(raw))))
    with contextlib.suppress(CheckpointError):
        load_checkpoint(damaged)


@EXAMPLES
@given(data=st.data())
def test_generate_on_a_damaged_file_fails_with_one_line(files, data):
    vocab, ckpt, damaged = files
    bad_vocab = data.draw(st.booleans())
    raw = (vocab if bad_vocab else ckpt).read_bytes()
    damaged.write_bytes(data.draw(damage(raw, len(raw) if bad_vocab
                                         else _header_end(raw))))
    loader = load_vocab if bad_vocab else load_checkpoint
    try:
        loader(damaged)
        loads = True
    except (VocabFormatError, CheckpointError):
        loads = False
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        rc = main(["generate",
                   "--tokenizer", str(damaged if bad_vocab else vocab),
                   "--checkpoint", str(ckpt if bad_vocab else damaged),
                   "--out", str(damaged.with_suffix(".txt")),
                   "--images", "1", "--beam", "2", "--max-len", "3"])
    lines = err.getvalue().splitlines()
    assert rc in (0, 2)
    if rc == 2:
        assert len(lines) == 1 and lines[0].startswith("subicap: error:")
    if not loads:
        assert rc == 2


@pytest.fixture(scope="module")
def scratch(tmp_path_factory):
    return tmp_path_factory.mktemp("roundtrip") / "file"


# a few words over a small alphabet (so pairs repeat and merges happen) or
# any characters, including the marker and compatibility forms
WORDS = st.text(st.sampled_from("ab_cＡﬁ") | st.characters(exclude_categories=("Cs",)),
                min_size=1, max_size=5)
CAPTIONS = st.lists(WORDS, min_size=1, max_size=4).flatmap(
    lambda pool: st.lists(st.lists(st.sampled_from(pool), min_size=1, max_size=6)
                          .map(" ".join), min_size=1, max_size=8))


@ROUND_TRIPS
@given(texts=CAPTIONS, num_merges=st.integers(0, 8))
def test_bpe_model_loads_back_equal(scratch, texts, num_merges):
    corpus = Corpus.from_texts(texts)
    if corpus.word_counts:
        model = train_bpe(corpus, num_merges)
        save_bpe(model, scratch)
        assert load_bpe(scratch) == model


@ROUND_TRIPS
@given(texts=CAPTIONS, min_freq=st.integers(1, 3))
def test_word_vocab_loads_back_equal(scratch, texts, min_freq):
    vocab = train_word_vocab(Corpus.from_texts(texts), min_freq)
    save_word_vocab(vocab, scratch)
    assert load_word_vocab(scratch).words == vocab.words


def reference_load_corpus(raw: str, max_words: int) -> list[tuple[str, str]] | int:
    """The (image id, caption) rows of a corpus file, or the 1-based number
    of its first data line without a tab."""
    rows = []
    for lineno, line in enumerate(re.split(r"\r\n|\r|\n", raw), start=1):
        if line.startswith("#") or line.isspace() or not line:
            continue
        if "\t" not in line:
            return lineno
        image_id, caption = line.split("\t", 1)
        words = unicodedata.normalize("NFKC", caption).lower().split()
        rows.append((image_id, " ".join(words[:max_words])))
    return rows


SPACES = st.sampled_from([" ", "  ", "\t", "\xa0", "\u3000", "\x85", "\u2028", "\x0b"])
CORPUS_WORDS = st.sampled_from(["cat", "CAT", "ﬁsh", "Ｄog", "①", "㎏", "Å", "_a", "#"])
CORPUS_LINES = st.one_of(
    st.text("# ab", max_size=4).map(lambda t: "#" + t),  # comment
    st.lists(SPACES, max_size=3).map("".join),  # blank
    st.tuples(st.text("img0 #", max_size=4).filter(lambda i: not i.startswith("#")),
              st.lists(st.tuples(CORPUS_WORDS, SPACES), max_size=8))
    .map(lambda r: r[0] + "\t" + "".join(w + s for w, s in r[1])),  # data
)
NO_TAB_LINE = st.text("ab ", min_size=1, max_size=4).filter(str.strip)


@ROUND_TRIPS
@given(lines=st.lists(CORPUS_LINES, max_size=8),
       bad=st.none() | st.tuples(st.integers(0, 8), NO_TAB_LINE),
       ends=st.lists(st.sampled_from(["\n", "\r\n", "\r"]), min_size=9, max_size=9),
       max_words=st.integers(1, 4))
def test_load_corpus_matches_a_reference_parse(scratch, lines, bad, ends, max_words):
    if bad is not None:
        lines.insert(*bad)
    raw = "".join(line + end for line, end in zip(lines, ends))
    scratch.write_bytes(raw.encode("utf-8"))
    want = reference_load_corpus(raw, max_words)
    if isinstance(want, int):
        with pytest.raises(CorpusFormatError, match=f"^line {want}:"):
            load_corpus(scratch, max_words)
    else:
        corpus = load_corpus(scratch, max_words)
        assert [(c.image_id, c.text) for c in corpus.captions] == want


# any JSON value; strings are short names, so a path lands in the scratch
# directory, and the tokenizer algorithms are among them
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False)
    | st.text("ab1-", max_size=4) | st.sampled_from(["unigram", "bpe", "word"]),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text("ab", max_size=2), inner, max_size=3),
    max_leaves=6,
)


@contextlib.contextmanager
def _in_scratch_dir():
    """An empty working directory and an empty stdin, both restored after."""
    cwd, stdin = os.getcwd(), sys.stdin
    with tempfile.TemporaryDirectory() as d:
        try:
            os.chdir(d)
            sys.stdin = io.StringIO("")
            yield
        finally:
            os.chdir(cwd)
            sys.stdin = stdin


@EXAMPLES
@given(data=st.data())
@pytest.mark.parametrize("subcommand", sorted(COMMANDS))
def test_any_config_value_exits_zero_or_with_one_line(subcommand, data):
    # every required flag is given except the one the config file sets:
    # paths name files that do not exist, counts are 5
    options = COMMANDS[subcommand].options
    key = data.draw(st.sampled_from([opt.name for opt in options]))
    argv = [subcommand, "--config", "cfg.json"]
    for opt in options:
        if opt.default == REQUIRED and opt.name != key:
            argv += [f"--{opt.name.replace('_', '-')}",
                     "5" if opt.kind is not str else f"missing-{opt.name}"]
    value = data.draw(JSON_VALUES)
    err = io.StringIO()
    with _in_scratch_dir():
        Path("cfg.json").write_text(json.dumps({key: value}), encoding="utf-8")
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            rc = main(argv)
    assert rc in (0, 2)
    if rc == 2:
        lines = err.getvalue().splitlines()
        assert len(lines) == 1 and lines[0].startswith("subicap: error:")
