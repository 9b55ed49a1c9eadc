"""End-to-end command-line behavior through main(argv).

Every error path must exit 2 with a single "subicap: error:" line, every
command that writes files but the encode/decode stream filters must leave a
manifest beside its first output, and repeated runs must be byte-identical
up to manifest timestamps.
"""

import contextlib
import dataclasses
import io
import json
import logging
import struct
import tempfile
import warnings
from pathlib import Path

import conftest
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from subicap.baselines import load_word_vocab
from subicap.cli import COMMANDS, build_parser, main
from subicap.corpus import bundled_corpus_path
from subicap.errors import OutOfInventoryError
from subicap.model import transformer
from subicap.model.decoding import caption_regions
from subicap.model.synthetic import synthetic_regions
from subicap.model.transformer import load_checkpoint
from subicap.unigram import is_continuation, load_vocab


@pytest.fixture(scope="module")
def corpus_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("data") / "captions.txt"
    scenes = synthetic_regions(seed=0, n_images=30)
    lines = [f"{s.image_id}\t{s.caption}" for s in scenes]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


@pytest.fixture(scope="module")
def vocab_file(tmp_path_factory, corpus_file):
    out = tmp_path_factory.mktemp("tok") / "vocab.tsv"
    rc = main(["train-tokenizer", "--corpus", str(corpus_file),
               "--vocab-size", "60", "--out", str(out)])
    assert rc == 0
    return out


def _manifest(out_path):
    return json.loads(Path(str(out_path) + ".manifest.json").read_text())


class TestTrainTokenizer:
    def test_writes_vocab_and_manifest(self, corpus_file, vocab_file):
        vocab = load_vocab(vocab_file)
        assert vocab.size == 60
        m = _manifest(vocab_file)
        assert m["subcommand"] == "train-tokenizer"
        assert m["arguments"]["vocab_size"] == 60
        assert m["inputs"]["corpus"] == str(corpus_file)
        assert m["outputs"] == [str(vocab_file)]
        assert m["seed"] is None

    def test_reruns_are_byte_identical(self, corpus_file, tmp_path, vocab_file):
        again = tmp_path / "again.tsv"
        assert main(["train-tokenizer", "--corpus", str(corpus_file),
                     "--vocab-size", "60", "--out", str(again)]) == 0
        assert again.read_bytes() == vocab_file.read_bytes()

    def test_manifests_differ_only_in_timing(self, corpus_file, tmp_path,
                                             vocab_file):
        again = tmp_path / "again.tsv"
        main(["train-tokenizer", "--corpus", str(corpus_file),
              "--vocab-size", "60", "--out", str(again)])
        a, b = _manifest(vocab_file), _manifest(again)
        for m in (a, b):
            m.pop("timestamp_utc")
            m.pop("duration_s")
        a["outputs"] = b["outputs"] = a["arguments"]["out"] = \
            b["arguments"]["out"] = None
        assert a == b

    def test_bpe_algo(self, corpus_file, tmp_path):
        out = tmp_path / "merges.txt"
        assert main(["train-tokenizer", "--corpus", str(corpus_file),
                     "--algo", "bpe", "--merges", "15", "--out", str(out)]) == 0
        assert out.read_text().startswith("#bpe")

    def test_word_algo(self, corpus_file, tmp_path):
        out = tmp_path / "words.txt"
        assert main(["train-tokenizer", "--corpus", str(corpus_file),
                     "--algo", "word", "--min-freq", "1",
                     "--out", str(out)]) == 0
        assert load_word_vocab(out).size > 4

    def test_missing_vocab_size_fails(self, corpus_file, tmp_path, capsys):
        rc = main(["train-tokenizer", "--corpus", str(corpus_file),
                   "--out", str(tmp_path / "v.tsv")])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("subicap: error:")
        assert "--vocab-size" in err

    def test_vocab_size_below_inventory_fails_cleanly(self, corpus_file,
                                                      tmp_path, capsys):
        rc = main(["train-tokenizer", "--corpus", str(corpus_file),
                   "--vocab-size", "1", "--out", str(tmp_path / "v.tsv")])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("subicap: error:")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("k", ["0", "-3"])
    def test_vocab_size_below_one_fails_before_reading(self, tmp_path, capsys, k):
        # the corpus does not exist: the range check must come first
        out = tmp_path / "v.tsv"
        rc = main(["train-tokenizer", "--corpus", str(tmp_path / "none.tsv"),
                   "--vocab-size", k, "--out", str(out)])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("subicap: error:") and len(err.splitlines()) == 1
        assert "--vocab-size" in err and ">= 1" in err and k in err
        assert list(tmp_path.iterdir()) == []

    def test_vocab_size_below_floor_names_the_size(self, tmp_path, capsys):
        rc = main(["train-tokenizer", "--corpus", str(bundled_corpus_path()),
                   "--vocab-size", "5", "--out", str(tmp_path / "v.tsv")])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("subicap: error:") and len(err.splitlines()) == 1
        assert "vocabulary size 5" in err and "floor of 52" in err
        assert "target_vocab_size" not in err

    def test_bad_algo_via_config_fails(self, corpus_file, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"algo": "snappy", "vocab_size": 60}))
        rc = main(["train-tokenizer", "--corpus", str(corpus_file),
                   "--out", str(tmp_path / "v.tsv"), "--config", str(cfg)])
        assert rc == 2
        assert "snappy" in capsys.readouterr().err


class TestEncodeDecode:
    def test_file_roundtrip(self, vocab_file, tmp_path):
        src = tmp_path / "caps.txt"
        src.write_text("a cat is above a dog\na person is left of a tree\n")
        enc = tmp_path / "enc.txt"
        dec = tmp_path / "dec.txt"
        assert main(["encode", "--vocab", str(vocab_file),
                     "--input", str(src), "--output", str(enc)]) == 0
        assert main(["decode", "--input", str(enc),
                     "--output", str(dec)]) == 0
        assert dec.read_text().splitlines() == src.read_text().splitlines()

    def test_stdin_stdout_with_blank_passthrough(self, vocab_file, capsys,
                                                 monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO("a cat is above a dog\n\na car\n"))
        assert main(["encode", "--vocab", str(vocab_file)]) == 0
        out_lines = capsys.readouterr().out.splitlines()
        assert len(out_lines) == 3
        assert out_lines[1] == ""
        assert all(" " in line or line == "" for line in out_lines)

    def test_decode_inverts_stdin(self, vocab_file, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO("a cat is above a dog\n"))
        main(["encode", "--vocab", str(vocab_file)])
        encoded = capsys.readouterr().out
        monkeypatch.setattr("sys.stdin", io.StringIO(encoded))
        assert main(["decode"]) == 0
        assert capsys.readouterr().out == "a cat is above a dog\n"

    def test_batch_keeps_output_and_errors(self, vocab_file, tmp_path, capsys):
        """encode memoises the input's distinct words in one batch first:
        the output is each line's reference encoding, byte for byte, and an
        uncovered character on line k still gives encode(line k)'s error,
        though a later line holds another."""
        lines = ["A Cat  is above\ta dog", "", "a dog is left of a cat", "cats dogs"]
        src, out = tmp_path / "in.txt", tmp_path / "out.txt"
        src.write_text("\n".join(lines) + "\n", encoding="utf-8")
        argv = ["encode", "--vocab", str(vocab_file), "--input", str(src), "--output", str(out)]
        assert main(argv) == 0
        vocab = load_vocab(vocab_file)
        want = [" ".join(conftest.reference_encode(line, vocab).pieces) if line.strip() else ""
                for line in lines]
        assert out.read_bytes() == ("\n".join(want) + "\n").encode("utf-8")
        out.unlink()
        bad = lines[:2] + ["a cat is above a d\u2603g", "a \u2603 dog", "a dog"]
        src.write_text("\n".join(bad) + "\n", encoding="utf-8")
        with pytest.raises(OutOfInventoryError) as err:
            conftest.reference_encode(bad[2], vocab)
        capsys.readouterr()
        assert main(argv) == 2
        assert capsys.readouterr().err == f"subicap: error: {err.value}\n"
        assert not out.exists()

    def test_missing_vocab_flag(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO("a cat\n"))
        assert main(["encode"]) == 2
        assert "--vocab" in capsys.readouterr().err

    def test_empty_stdin_empty_stdout(self, vocab_file, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO(""))
        assert main(["encode", "--vocab", str(vocab_file)]) == 0
        assert capsys.readouterr().out == ""


class TestConfigPrecedence:
    def test_config_supplies_missing_flags(self, corpus_file, tmp_path):
        out = tmp_path / "from_config.tsv"
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "corpus": str(corpus_file), "vocab_size": 60, "out": str(out),
        }))
        assert main(["train-tokenizer", "--config", str(cfg)]) == 0
        assert load_vocab(out).size == 60

    def test_flags_beat_config(self, corpus_file, tmp_path):
        out = tmp_path / "flag_wins.tsv"
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"vocab_size": 75}))
        assert main(["train-tokenizer", "--corpus", str(corpus_file),
                     "--vocab-size", "60", "--out", str(out),
                     "--config", str(cfg)]) == 0
        assert load_vocab(out).size == 60

    def test_malformed_config(self, corpus_file, tmp_path, capsys):
        cfg = tmp_path / "broken.json"
        cfg.write_text("{not json")
        rc = main(["train-tokenizer", "--corpus", str(corpus_file),
                   "--vocab-size", "60", "--out", str(tmp_path / "v"),
                   "--config", str(cfg)])
        assert rc == 2
        assert "config file" in capsys.readouterr().err

    def test_non_object_config(self, tmp_path, capsys):
        cfg = tmp_path / "list.json"
        cfg.write_text("[1, 2]")
        assert main(["encode", "--config", str(cfg)]) == 2
        assert "JSON object" in capsys.readouterr().err

    def test_null_counts_as_absent(self, vocab_file, tmp_path):
        out = tmp_path / "model.ckpt"
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"lr": None}))
        assert main(["train-lm", "--tokenizer", str(vocab_file), "--out", str(out),
                     "--steps", "1", "--images", "2", "--config", str(cfg)]) == 0
        assert _manifest(out)["arguments"]["lr"] == 5e-4

    @pytest.mark.parametrize("argv,config,flag", [
        (["train-lm", "--tokenizer", "none.tsv", "--out", "o"], {"lr": "x"}, "--lr"),
        (["train-lm", "--tokenizer", "none.tsv", "--out", "o"], {"d_model": 32.0},
         "--d-model"),
        (["train-lm", "--tokenizer", "none.tsv", "--out", "o"], {"d_ff": True},
         "--d-ff"),
        (["train-tokenizer", "--corpus", "none.tsv", "--vocab-size", "60",
          "--out", "o"], {"max_words": "x"}, "--max-words"),
        (["train-tokenizer", "--corpus", "none.tsv", "--out", "o"],
         {"algo": "bpe", "merges": "5"}, "--merges"),
        (["sweep", "--corpus", "none.tsv", "--out", "o"], {"vocab_size": 300},
         "--vocab-size"),
        (["sweep", "--corpus", "none.tsv", "--out", "o", "--vocab-size", "0"], None,
         "--vocab-size"),
        (["params"], {"vocab": 300}, "--vocab"),
        (["params"], {"vocab": []}, "--vocab"),
        (["generate", "--checkpoint", "none.ckpt", "--tokenizer", "none.tsv",
          "--out", "o"], {"max_len": "5"}, "--max-len"),
        (["encode", "--vocab", "none.tsv"], {"input": 5}, "--input"),
        (["train-lm", "--tokenizer", "none.tsv", "--out", "o", "--seed", "-1"], None,
         "--seed"),
        (["train-lm", "--tokenizer", "none.tsv", "--out", "o"], {"seed": -1}, "--seed"),
        (["generate", "--checkpoint", "none.ckpt", "--tokenizer", "none.tsv",
          "--out", "o", "--seed", "-1"], None, "--seed"),
        (["generate", "--checkpoint", "none.ckpt", "--tokenizer", "none.tsv",
          "--out", "o"], {"seed": -1}, "--seed"),
        (["train-tokenizer", "--corpus", "none.tsv", "--algo", "bpe", "--out", "o",
          "--merges", "-3"], None, "--merges"),
        (["train-tokenizer", "--corpus", "none.tsv", "--algo", "bpe", "--out", "o"],
         {"merges": -3}, "--merges"),
        *((["train-lm", "--tokenizer", "none.tsv", "--out", "o", f"--lr={v}"], None,
           "--lr") for v in ("inf", "-inf", "nan", "0", "-1e-3")),
        *((["train-lm", "--tokenizer", "none.tsv", "--out", "o"], {"lr": v}, "--lr")
          for v in (float("inf"), float("nan"), 0, -1, 10 ** 400)),
        *((["train-lm", "--tokenizer", "none.tsv", "--out", "o",
            f"--decay-factor={v}"], None, "--decay-factor") for v in ("inf", "nan", "0")),
        (["train-lm", "--tokenizer", "none.tsv", "--out", "o"], {"decay_factor": -0.5},
         "--decay-factor"),
        (["train-lm", "--tokenizer", "none.tsv", "--out", "o", "--decay-every", "-1"],
         None, "--decay-every"),
        (["train-lm", "--tokenizer", "none.tsv", "--out", "o"], {"decay_every": -500},
         "--decay-every"),
    ])
    def test_config_values_are_checked_like_flags(self, tmp_path, capsys,
                                                  monkeypatch, argv, config, flag):
        # no input file exists: the check must come before any is read
        monkeypatch.chdir(tmp_path)
        if config is not None:
            Path("cfg.json").write_text(json.dumps(config))
            argv = argv + ["--config", "cfg.json"]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"subicap: error: {flag} must be ")
        assert len(err.splitlines()) == 1
        assert sorted(p.name for p in tmp_path.iterdir()) == \
            (["cfg.json"] if config is not None else [])


class TestParamsCommand:
    def test_prints_published_totals(self, capsys):
        assert main(["params", "--vocab", "9486", "--vocab", "1085"]) == 0
        out = capsys.readouterr().out
        assert "54,894,080" in out
        assert "46,291,456" in out
        assert "-8,602,624 parameters" in out

    def test_json_output(self, tmp_path, capsys):
        out = tmp_path / "params.json"
        assert main(["params", "--vocab", "1085", "--vocab", "9486",
                     "--out", str(out)]) == 0
        capsys.readouterr()
        data = json.loads(out.read_text())
        assert data["report"] == "param_count"
        assert data["deltas"][0]["delta_total"] == 8_602_624
        assert (tmp_path / "params.json.manifest.json").exists()

    def test_requires_at_least_one_vocab(self, capsys):
        assert main(["params"]) == 2
        assert "--vocab" in capsys.readouterr().err


class TestSweepCommand:
    def test_repeatable_sizes_and_twin_outputs(self, corpus_file, tmp_path):
        out = tmp_path / "sweep.json"
        assert main(["sweep", "--corpus", str(corpus_file),
                     "--vocab-size", "60", "--vocab-size", "45",
                     "--out", str(out)]) == 0
        data = json.loads(out.read_text())
        sizes = [e["requested_size"] for e in data["entries"]]
        assert sizes == [45, 60]
        text = (tmp_path / "sweep.txt").read_text()
        assert "oov rate" in text
        m = _manifest(out)
        assert str(tmp_path / "sweep.txt") in m["outputs"]


class TestReportCommand:
    def test_uniqueness_flow(self, corpus_file, tmp_path):
        gen = tmp_path / "gen.txt"
        gen.write_text("a cat is above a dog\na zzz is below a cat\n")
        out = tmp_path / "report.json"
        assert main(["report", "--corpus", str(corpus_file),
                     "--generated", str(gen), "--out", str(out)]) == 0
        data = json.loads(out.read_text())
        assert data["report"] == "uniqueness"
        assert data["num_generated"] == 2
        assert (tmp_path / "report.txt").exists()


@pytest.fixture(scope="module")
def checkpoint(tmp_path_factory, vocab_file):
    out = tmp_path_factory.mktemp("lm") / "model.ckpt"
    rc = main(["train-lm", "--tokenizer", str(vocab_file),
               "--out", str(out), "--steps", "3", "--images", "4",
               "--d-model", "16", "--d-ff", "32", "--max-len", "24"])
    assert rc == 0
    return out


# each file-writing command's arguments after its name: its inputs from
# `files`, its outputs into `out`
_WRITERS = {
    "train-tokenizer": lambda files, out: [
        "--corpus", files["corpus"], "--vocab-size", "60", "--out", out / "v.tsv"],
    "sweep": lambda files, out: [
        "--corpus", files["corpus"], "--vocab-size", "60", "--vocab-size", "45",
        "--out", out / "sweep.json"],
    "report": lambda files, out: [
        "--corpus", files["corpus"], "--generated", files["generated"],
        "--out", out / "report.json"],
    "params": lambda files, out: ["--vocab", "100", "--out", out / "p.json"],
    "train-lm": lambda files, out: [
        "--tokenizer", files["vocab"], "--out", out / "m.ckpt", "--steps", "2",
        "--images", "2", "--d-model", "16", "--d-ff", "32", "--max-len", "24"],
    "generate": lambda files, out: [
        "--checkpoint", files["checkpoint"], "--tokenizer", files["vocab"],
        "--out", out / "gen.txt", "--images", "2", "--max-len", "6"],
}


class TestManifests:
    """main writes each file-writing command's one manifest."""

    @pytest.fixture
    def files(self, corpus_file, vocab_file, checkpoint, tmp_path):
        generated = tmp_path / "generated.txt"
        generated.write_text("a cat is above a dog\na zzz is below a cat\n")
        return dict(corpus=corpus_file, vocab=vocab_file, checkpoint=checkpoint,
                    generated=generated)

    def test_every_command_but_the_stream_filters_writes_files(self):
        assert set(_WRITERS) == set(COMMANDS) - {"encode", "decode"}

    @pytest.mark.parametrize("name", sorted(_WRITERS))
    def test_one_manifest_records_the_run(self, name, files, tmp_path, capsys):
        out = tmp_path / "out"
        out.mkdir()
        assert main([name] + [str(a) for a in _WRITERS[name](files, out)]) == 0
        capsys.readouterr()
        written = sorted(str(p) for p in out.iterdir())
        manifests = [p for p in written if p.endswith(".manifest.json")]
        assert len(manifests) == 1
        m = json.loads(Path(manifests[0]).read_text())
        assert manifests[0] == m["outputs"][0] + ".manifest.json"
        assert sorted(m["outputs"] + manifests) == written
        assert m["subcommand"] == name
        # the declared inputs are exactly the options naming a file it read
        read = {k for k, v in m["arguments"].items()
                if isinstance(v, str) and Path(v).parent != out and Path(v).is_file()}
        assert set(m["inputs"]) == set(COMMANDS[name].inputs) == read
        assert all(m["inputs"][k] == m["arguments"][k] for k in read)

    def test_stream_filters_and_printed_params_write_none(self, vocab_file, tmp_path,
                                                          monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        Path("caps.txt").write_text("a cat is above a dog\n")
        assert main(["encode", "--vocab", str(vocab_file), "--input", "caps.txt",
                     "--output", "enc.txt"]) == 0
        assert main(["decode", "--input", "enc.txt", "--output", "dec.txt"]) == 0
        assert main(["params", "--vocab", "100"]) == 0
        capsys.readouterr()
        assert sorted(p.name for p in tmp_path.iterdir()) == ["caps.txt", "dec.txt",
                                                               "enc.txt"]


class TestModelCommands:
    def test_checkpoint_and_manifest(self, checkpoint):
        assert checkpoint.exists()
        m = _manifest(checkpoint)
        assert m["subcommand"] == "train-lm"
        assert m["arguments"]["steps"] == 3

    def test_generate(self, checkpoint, vocab_file, tmp_path):
        out = tmp_path / "gen.txt"
        assert main(["generate", "--checkpoint", str(checkpoint),
                     "--tokenizer", str(vocab_file), "--out", str(out),
                     "--images", "2", "--beam", "2", "--max-len", "6"]) == 0
        lines = out.read_text().splitlines()
        assert len(lines) == 2
        assert _manifest(out)["arguments"]["beam"] == 2

    def test_generate_metrics_are_deterministic(self, vocab_file, tmp_path):
        """Two runs write equal metrics, and they count the captions the
        search finished or cut off at --max-len and the tokens it generated."""
        ckpt = tmp_path / "m.ckpt"
        assert main(["train-lm", "--tokenizer", str(vocab_file), "--out", str(ckpt),
                     "--steps", "40", "--images", "4", "--d-model", "16",
                     "--d-ff", "32", "--max-len", "24"]) == 0
        runs = []
        for run in ("one", "two"):
            out = tmp_path / f"gen_{run}.txt"
            assert main(["generate", "--checkpoint", str(ckpt),
                         "--tokenizer", str(vocab_file), "--out", str(out),
                         "--images", "5", "--beam", "4", "--max-len", "12",
                         "--seed", "3"]) == 0
            runs.append((out.read_bytes(), _manifest(out)["metrics"]))
        assert runs[0] == runs[1]
        params, cfg = load_checkpoint(ckpt)
        vocab = load_vocab(vocab_file)
        first_banned = np.array([is_continuation(vocab.piece_of_token(t))
                                 for t in range(vocab.num_tokens)])
        hyps = [caption_regions(s.regions, params, cfg, beam=4, max_len=12,
                                first_banned=first_banned)
                for s in synthetic_regions(seed=3, n_images=5, d_in=cfg.d_in)]
        finished = sum(h.finished for h in hyps)
        assert 0 < finished < 5  # premise: both kinds occur
        assert runs[0][1] == {
            "captions_finished": finished,
            "captions_cut_off": sum(len(h.token_ids) == 12 for h in hyps
                                    if not h.finished),
            "generated_tokens": sum(len(h.token_ids) + h.finished for h in hyps),
        }

    def test_greedy_flag_is_gone(self, checkpoint, vocab_file, tmp_path, capsys):
        # --beam 1 is the one way to ask for greedy decoding
        out = tmp_path / "greedy.txt"
        assert main(["generate", "--checkpoint", str(checkpoint),
                     "--tokenizer", str(vocab_file), "--out", str(out),
                     "--images", "2", "--greedy", "--max-len", "6"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("subicap: error:") and "--greedy" in err
        assert not out.exists()

    def test_beam_defaults_to_two(self, checkpoint, vocab_file, tmp_path):
        out = tmp_path / "default_beam.txt"
        assert main(["generate", "--checkpoint", str(checkpoint),
                     "--tokenizer", str(vocab_file), "--out", str(out),
                     "--images", "1", "--max-len", "4"]) == 0
        assert _manifest(out)["arguments"]["beam"] == 2

    def test_undertrained_model_still_captions_every_image(self, tmp_path):
        # Five optimizer steps are nowhere near convergence, so the model
        # prefers to open a caption with a continuation piece.  generate must
        # bar it from the first position and emit one line per image.
        vocab_path = tmp_path / "v.tsv"
        ckpt = tmp_path / "m.ckpt"
        out = tmp_path / "caps.txt"
        assert main(["train-tokenizer", "--corpus", str(bundled_corpus_path()),
                     "--vocab-size", "60", "--out", str(vocab_path)]) == 0
        assert main(["train-lm", "--tokenizer", str(vocab_path),
                     "--out", str(ckpt), "--steps", "5", "--images", "4",
                     "--d-model", "16", "--d-ff", "32", "--max-len", "24",
                     "--seed", "0"]) == 0
        # Premise: this exact checkpoint really does open one of the two
        # captions with a marked piece (otherwise the test pins nothing).
        vocab = load_vocab(vocab_path)
        params, cfg = load_checkpoint(ckpt)
        scenes = synthetic_regions(seed=0, n_images=2, d_in=cfg.d_in)
        hyps = [caption_regions(s.regions, params, cfg, beam=2,
                                max_len=cfg.max_seq_len - 1) for s in scenes]
        assert any(h.token_ids
                   and is_continuation(vocab.piece_of_token(h.token_ids[0]))
                   for h in hyps)
        assert main(["generate", "--checkpoint", str(ckpt),
                     "--tokenizer", str(vocab_path), "--out", str(out),
                     "--images", "2", "--beam", "2"]) == 0
        assert len(out.read_text().splitlines()) == 2

    @pytest.mark.parametrize("max_len,beam", [("40", "1"), ("0", "1"), ("0", "2")])
    def test_generate_rejects_max_len_out_of_range(self, checkpoint, vocab_file,
                                                   tmp_path, capsys, max_len, beam):
        out = tmp_path / "gen.txt"
        rc = main(["generate", "--checkpoint", str(checkpoint),
                   "--tokenizer", str(vocab_file), "--out", str(out),
                   "--images", "2", "--beam", beam, "--max-len", max_len])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("subicap: error:") and len(err.splitlines()) == 1
        assert "--max-len" in err and "1..23" in err  # trained at --max-len 24
        assert not out.exists()

    @pytest.mark.parametrize("beam", ["0", "-1"])
    def test_generate_rejects_beam_below_one_before_loading(self, tmp_path,
                                                            capsys, beam):
        # the checkpoint and tokenizer do not exist: the range check must
        # come before anything is read
        out = tmp_path / "gen.txt"
        rc = main(["generate", "--checkpoint", str(tmp_path / "none.ckpt"),
                   "--tokenizer", str(tmp_path / "none.tsv"), "--out", str(out),
                   "--beam", beam])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("subicap: error:") and len(err.splitlines()) == 1
        assert "--beam" in err and ">= 1" in err and beam in err
        assert not out.exists()

    def test_tokenizer_checkpoint_mismatch(self, checkpoint, corpus_file,
                                           tmp_path, capsys):
        other = tmp_path / "other.tsv"
        main(["train-tokenizer", "--corpus", str(corpus_file),
              "--vocab-size", "45", "--out", str(other)])
        capsys.readouterr()
        rc = main(["generate", "--checkpoint", str(checkpoint),
                   "--tokenizer", str(other), "--out", str(tmp_path / "g")])
        assert rc == 2
        assert "token ids" in capsys.readouterr().err


@pytest.fixture(scope="module")
def one_step_model(tmp_path_factory):
    """The desk tokenizer at k=300 and a caption model after one step, seed 7:
    untrained enough to put <bos> and continuation pieces first."""
    d = tmp_path_factory.mktemp("seed7")
    assert main(["train-tokenizer", "--corpus", str(bundled_corpus_path()),
                 "--vocab-size", "300", "--out", str(d / "v.tsv")]) == 0
    assert main(["train-lm", "--tokenizer", str(d / "v.tsv"), "--out",
                 str(d / "m.ckpt"), "--steps", "1", "--seed", "7"]) == 0
    return d / "v.tsv", d / "m.ckpt"


@pytest.mark.parametrize("beam", ["1", "2", "4"])
def test_generated_captions_hold_no_control_tokens(one_step_model, tmp_path, beam):
    # A caption that opened mid-word would fail detokenization: exit 2.
    vocab, ckpt = one_step_model
    out = tmp_path / "gen.txt"
    assert main(["generate", "--checkpoint", str(ckpt), "--tokenizer", str(vocab),
                 "--out", str(out), "--seed", "7", "--images", "20",
                 "--beam", beam]) == 0
    lines = out.read_text(encoding="utf-8").splitlines()
    assert len(lines) == 20
    assert not [line for line in lines if "<bos>" in line or "<pad>" in line]


def _mean_ln_fwd(x, params, prefix):
    """Layer norm as it was written with np.mean, the reference for _ln_fwd."""
    xhat = x - x.mean(-1, keepdims=True)
    var = (xhat * xhat).mean(-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + transformer._LN_EPS)
    xhat *= inv
    g = params[f"{prefix}.g"]
    out = xhat * g
    out += params[f"{prefix}.b"]
    return out, (xhat, inv, g)


def _mean_ln_bwd(dy, cache, prefix, grads):
    xhat, inv, g = cache
    np.sum(dy * xhat, axis=0, out=grads[f"{prefix}.g"])
    np.sum(dy, axis=0, out=grads[f"{prefix}.b"])
    dxhat = dy * g
    m1 = dxhat.mean(-1, keepdims=True)
    m2 = (dxhat * xhat).mean(-1, keepdims=True)
    return inv * (dxhat - m1 - xhat * m2)


def test_layer_norm_sums_leave_checkpoints_byte_identical(one_step_model, tmp_path,
                                                          monkeypatch):
    # twenty steps carry any change in the last bit of a forward or backward
    # into the written float64s
    vocab, _ = one_step_model

    def train(out):
        assert main(["train-lm", "--tokenizer", str(vocab), "--out", str(out),
                     "--steps", "20", "--seed", "0"]) == 0
        return out.read_bytes()

    now = train(tmp_path / "sum.ckpt")
    monkeypatch.setattr(transformer, "_ln_fwd", _mean_ln_fwd)
    monkeypatch.setattr(transformer, "_ln_bwd", _mean_ln_bwd)
    assert train(tmp_path / "mean.ckpt") == now


@pytest.mark.parametrize("images", ["0", "-3"])
@pytest.mark.parametrize("argv", [
    ["train-lm", "--tokenizer", "none.tsv"],
    ["generate", "--checkpoint", "none.ckpt", "--tokenizer", "none.tsv"],
], ids=["train-lm", "generate"])
def test_images_below_one_fails_before_reading(tmp_path, capsys,
                                               monkeypatch, argv, images):
    # no input file exists: the range check must come first
    monkeypatch.chdir(tmp_path)
    rc = main(argv + ["--out", "out", "--images", images])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("subicap: error:") and len(err.splitlines()) == 1
    assert "--images" in err and ">= 1" in err and images in err
    assert list(tmp_path.iterdir()) == []


class TestTrainLmChecks:
    def test_zero_steps_fails_before_writing_anything(self, vocab_file,
                                                      tmp_path, capsys):
        out = tmp_path / "model.ckpt"
        rc = main(["train-lm", "--tokenizer", str(vocab_file), "--out", str(out),
                   "--steps", "0"])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("subicap: error:") and len(err.splitlines()) == 1
        assert "--steps" in err
        assert list(tmp_path.iterdir()) == []

    def test_max_len_above_the_ceiling_fails(self, vocab_file, tmp_path, capsys):
        rc = main(["train-lm", "--tokenizer", str(vocab_file), "--out",
                   str(tmp_path / "model.ckpt"), "--steps", "1", "--images", "2",
                   "--max-len", str(transformer.MAX_SEQ_LEN + 1)])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("subicap: error:") and len(err.splitlines()) == 1
        assert str(transformer.MAX_SEQ_LEN) in err
        assert list(tmp_path.iterdir()) == []

    def test_overlong_caption_names_its_image(self, vocab_file, tmp_path, capsys):
        out = tmp_path / "model.ckpt"
        rc = main(["train-lm", "--tokenizer", str(vocab_file), "--out", str(out),
                   "--steps", "1", "--images", "2", "--max-len", "4"])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("subicap: error:") and len(err.splitlines()) == 1
        assert "synth0000" in err
        assert list(tmp_path.iterdir()) == []

    def test_logs_a_fixed_cadence_plus_the_final_step(self, vocab_file, tmp_path,
                                                      caplog):
        caplog.set_level(logging.INFO, logger="subicap")
        assert main(["train-lm", "--tokenizer", str(vocab_file),
                     "--out", str(tmp_path / "model.ckpt"), "--steps", "250",
                     "--images", "2", "--d-model", "8", "--d-ff", "16",
                     "--layers", "1", "--geo-dim", "4", "--max-len", "24"]) == 0
        steps = [r.getMessage() for r in caplog.records
                 if r.getMessage().startswith("step=")]
        assert 2 <= len(steps) <= 4
        assert steps[0].startswith("step=0 ") and steps[-1].startswith("step=249 ")

    def test_diverging_lr_reports_one_line_and_no_warnings(self, vocab_file, tmp_path,
                                                         capsys):
        # the overflows on the way to a nan loss must not print as warnings
        out = tmp_path / "model.ckpt"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc = main(["train-lm", "--tokenizer", str(vocab_file), "--out", str(out),
                       "--steps", "3", "--images", "2", "--lr", "1e300"])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("subicap: error: non-finite loss")
        assert len(err.splitlines()) == 1


@pytest.mark.parametrize("edit", [
    lambda h: h.pop("config"),
    lambda h: h["config"].update(dropout=0),
    lambda h: h["config"].update(d_model="16"),
    lambda h: h["config"].update(n_heads=0),
], ids=["missing-config", "unknown-config-key", "string-d-model", "zero-heads"])
def test_generate_rejects_malformed_checkpoint_header(checkpoint, vocab_file,
                                                      tmp_path, capsys, edit):
    bad = tmp_path / "bad.ckpt"
    bad.write_bytes(checkpoint.read_bytes())
    conftest.edit_checkpoint_header(bad, edit)
    rc = main(["generate", "--checkpoint", str(bad), "--tokenizer", str(vocab_file),
               "--out", str(tmp_path / "gen.txt")])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("subicap: error:") and len(err.splitlines()) == 1


# small values only: a valid header with a large max_seq_len decodes that many pieces
_JSON_VALUES = st.recursive(
    st.integers(-3, 64) | st.booleans() | st.none() | st.floats() | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=5)
_CONFIG_KEYS = sorted(f.name for f in dataclasses.fields(transformer.ModelConfig))
# a path into the header; an int picks a tensor table entry, modulo its length
_HEADER_PATHS = (
    st.sampled_from([("format",), ("version",), ("config",), ("tensors",)])
    | st.sampled_from(_CONFIG_KEYS).map(lambda k: ("config", k))
    | st.tuples(st.just("tensors"), st.integers(0, 40))
    | st.tuples(st.just("tensors"), st.integers(0, 40),
                st.sampled_from(["name", "shape", "dtype"])))
_HEADER_EDITS = (st.tuples(st.just("set"), _HEADER_PATHS, _JSON_VALUES)
                 | st.tuples(st.just("drop"), _HEADER_PATHS)
                 | st.tuples(st.just("duplicate"), st.integers(0, 40)))


def _apply_header_edit(header, edit):
    """("set", path, value), ("drop", path) or ("duplicate", k): the last
    inserts a copy of tensor table entry k."""
    if edit[0] == "duplicate":
        tensors = header["tensors"]
        tensors.insert(edit[1], dict(tensors[edit[1] % len(tensors)]))
        return
    node, path = header, list(edit[1])
    for i, key in enumerate(path):
        if isinstance(key, int):
            path[i] = key = key % len(node)
        if i < len(path) - 1:
            node = node[key]
    if edit[0] == "set":
        node[path[-1]] = edit[2]
    else:
        node.pop(path[-1])


def _header_text(path):
    """A checkpoint's JSON header, re-serialized with sorted keys."""
    raw = path.read_bytes()
    (n,) = struct.unpack("<I", raw[:4])
    return json.dumps(json.loads(raw[4 : 4 + n]), sort_keys=True)


@given(edit=_HEADER_EDITS)
@example(edit=("set", ("version",), True))  # loaded once, as True == 1
@example(edit=("set", ("config", "n_heads"), 0))  # divided by zero once
@example(edit=("set", ("config", "max_seq_len"), transformer.MAX_SEQ_LEN + 1))
@example(edit=("set", ("config", "max_seq_len"), 10_000_000))  # a 2.4 GiB position table
@settings(max_examples=150, deadline=None, derandomize=True)
def test_generate_survives_any_header_edit(one_step_model, edit):
    # Either generate captions the image, and the edited header is, value
    # and JSON type alike, the one save_checkpoint writes for the config it
    # loaded, or it fails with the one-line error contract.
    vocab, ckpt = one_step_model
    with tempfile.TemporaryDirectory() as d:
        bad, out = Path(d) / "bad.ckpt", Path(d) / "gen.txt"
        bad.write_bytes(ckpt.read_bytes())
        conftest.edit_checkpoint_header(bad, lambda h: _apply_header_edit(h, edit))
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            rc = main(["generate", "--checkpoint", str(bad), "--tokenizer", str(vocab),
                       "--out", str(out), "--images", "1", "--beam", "1"])
        if rc == 0:
            assert len(out.read_text(encoding="utf-8").splitlines()) == 1
            params, cfg = load_checkpoint(bad)
            transformer.save_checkpoint(Path(d) / "resaved.ckpt", params, cfg)
            assert _header_text(bad) == _header_text(Path(d) / "resaved.ckpt")
        else:
            assert rc == 2
            assert err.getvalue().startswith("subicap: error:")
            assert len(err.getvalue().splitlines()) == 1
            assert not out.exists()


class TestErrorContract:
    def test_no_subcommand(self, capsys):
        assert main([]) == 2
        assert capsys.readouterr().err.startswith("subicap: error:")

    def test_unknown_subcommand(self, capsys):
        assert main(["frobnicate"]) == 2
        assert capsys.readouterr().err.startswith("subicap: error:")

    def test_unknown_flag(self, capsys):
        assert main(["params", "--vocab", "10", "--bogus"]) == 2
        assert capsys.readouterr().err.startswith("subicap: error:")

    def test_missing_input_file(self, tmp_path, capsys):
        rc = main(["train-tokenizer", "--corpus", str(tmp_path / "nope.txt"),
                   "--vocab-size", "60", "--out", str(tmp_path / "v")])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("subicap: error:")
        assert err.count("\n") == 1  # single line

    def test_bad_log_level(self, monkeypatch, capsys):
        monkeypatch.setenv("SUBICAP_LOG", "chatty")
        assert main(["params", "--vocab", "10"]) == 2
        assert "SUBICAP_LOG" in capsys.readouterr().err

    def test_valid_log_levels(self, monkeypatch, capsys):
        for level in ("error", "info", "debug"):
            monkeypatch.setenv("SUBICAP_LOG", level)
            assert main(["params", "--vocab", "10"]) == 0
        capsys.readouterr()


class TestParserShape:
    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(["--version"])
        assert exc.value.code == 0
        assert capsys.readouterr().out.strip()

    def test_all_subcommands_registered(self):
        parser = build_parser()
        sub = next(a for a in parser._actions
                   if isinstance(a, type(parser._subparsers._group_actions[0])))
        names = set(sub.choices)
        assert names == {"train-tokenizer", "encode", "decode", "sweep",
                         "report", "params", "train-lm", "generate"}
