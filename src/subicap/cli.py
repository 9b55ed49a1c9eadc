"""Command-line interface.

Subcommands: train-tokenizer, encode, decode, sweep, report, params,
train-lm, generate. encode/decode stream stdin to stdout; every filesystem
output gets a sibling <out>.manifest.json recording the resolved arguments
and seed. Outputs are byte-identical across runs for identical seeds and
configs; only manifest timestamp/duration fields may differ.

Option precedence: explicit flags, then the JSON --config file, then
defaults. SUBICAP_LOG={error|info|debug} selects stderr log verbosity.
Errors print one machine-parsable line, "subicap: error: <message>", and
exit nonzero.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import logging
import os
import sys
import time
from datetime import datetime, timezone
from pathlib import Path
from typing import Sequence

import numpy as np

from . import __version__, analysis, baselines, corpus as corpus_mod, unigram
from .errors import SubicapError
from .model import decoding, synthetic, training, transformer

log = logging.getLogger("subicap.cli")

_LOG_LEVELS = {"error": logging.ERROR, "info": logging.INFO, "debug": logging.DEBUG}


class CliUsageError(SubicapError):
    pass


class _Parser(argparse.ArgumentParser):
    # single-line errors instead of argparse's usage dump
    def error(self, message):
        raise CliUsageError(message)


@dataclasses.dataclass(frozen=True)
class RunManifest:
    subcommand: str
    arguments: dict
    inputs: dict
    outputs: list[str]
    seed: int | None
    tool_version: str
    timestamp_utc: str
    duration_s: float


def _write_manifest(primary_out: Path, subcommand: str, arguments: dict,
                    inputs: dict, outputs: list[str], seed: int | None,
                    started: float) -> Path:
    manifest = RunManifest(
        subcommand=subcommand,
        arguments=arguments,
        inputs=inputs,
        outputs=outputs,
        seed=seed,
        tool_version=__version__,
        timestamp_utc=datetime.now(timezone.utc).isoformat(),
        duration_s=round(time.time() - started, 6),
    )
    path = Path(str(primary_out) + ".manifest.json")
    path.write_text(
        json.dumps(dataclasses.asdict(manifest), indent=2, sort_keys=True) + "\n",
        encoding="utf-8", newline="\n",
    )
    return path


def _load_config_file(path: str | None) -> dict:
    if not path:
        return {}
    try:
        data = json.loads(Path(path).read_text(encoding="utf-8"))
    except json.JSONDecodeError as err:
        raise CliUsageError(f"config file {path}: {err}") from None
    if not isinstance(data, dict):
        raise CliUsageError(f"config file {path}: expected a JSON object")
    return data


def _resolve(args: argparse.Namespace, defaults: dict) -> dict:
    """flags > config file > defaults; every key in `defaults` is resolved."""
    file_cfg = _load_config_file(getattr(args, "config", None))
    resolved = {}
    for key, fallback in defaults.items():
        value = getattr(args, key, None)
        if value is None:
            value = file_cfg.get(key, fallback)
        resolved[key] = value
    return resolved


def _require(resolved: dict, key: str, flag: str):
    if resolved[key] is None:
        raise CliUsageError(f"{flag} is required (flag or config file)")
    return resolved[key]


def _require_count(resolved: dict, key: str, flag: str) -> int:
    value = _require(resolved, key, flag)
    if type(value) is not int or value < 1:
        raise CliUsageError(f"{flag} must be an integer >= 1, got {value!r}")
    return value


# ---------------------------------------------------------------------------
# tokenizer commands


def cmd_train_tokenizer(args) -> int:
    started = time.time()
    r = _resolve(args, {
        "corpus": None, "algo": "unigram", "vocab_size": None, "merges": None,
        "min_freq": 5, "max_words": corpus_mod.DEFAULT_MAX_WORDS,
        "out": None, "seed": 0,
    })
    corpus_path = _require(r, "corpus", "--corpus")
    out = Path(_require(r, "out", "--out"))
    algo = r["algo"]
    if algo == "unigram":
        k = _require_count(r, "vocab_size", "--vocab-size")
    elif algo == "bpe":
        merges = _require(r, "merges", "--merges")
    elif algo != "word":
        raise CliUsageError(f"unknown --algo {algo!r}; pick unigram, bpe, or word")
    c = corpus_mod.load_corpus(corpus_path, max_words=r["max_words"])
    if algo == "unigram":
        vocab = unigram.train_unigram(c, unigram.TrainerConfig(target_vocab_size=k))
        unigram.save_vocab(vocab, out)
        log.info("trained unigram vocabulary: %d pieces -> %s", vocab.size, out)
    elif algo == "bpe":
        model = baselines.train_bpe(c, merges)
        baselines.save_bpe(model, out)
        log.info("trained bpe: %d merges -> %s", len(model.merges), out)
    else:
        vocab = baselines.train_word_vocab(c, min_freq=r["min_freq"])
        baselines.save_word_vocab(vocab, out)
        log.info("trained word vocabulary: %d words -> %s", vocab.size, out)
    _write_manifest(out, "train-tokenizer", r, {"corpus": str(corpus_path)},
                    [str(out)], r["seed"], started)
    return 0


def _read_lines(path: str | None):
    if path:
        return Path(path).read_text(encoding="utf-8").splitlines()
    return [line.rstrip("\n") for line in sys.stdin]


def _write_lines(lines: list[str], path: str | None) -> None:
    if path:
        Path(path).write_text("\n".join(lines) + ("\n" if lines else ""),
                              encoding="utf-8", newline="\n")
    else:
        for line in lines:
            print(line)


def cmd_encode(args) -> int:
    r = _resolve(args, {"vocab": None, "input": None, "output": None})
    vocab = unigram.load_vocab(_require(r, "vocab", "--vocab"))
    out_lines = []
    for line in _read_lines(r["input"]):
        if not line.strip():
            out_lines.append("")
            continue
        seq = unigram.encode(line, vocab)
        out_lines.append(" ".join(seq.pieces))
    _write_lines(out_lines, r["output"])
    return 0


def cmd_decode(args) -> int:
    r = _resolve(args, {"input": None, "output": None})
    out_lines = []
    for line in _read_lines(r["input"]):
        if not line.strip():
            out_lines.append("")
            continue
        out_lines.append(unigram.detokenize(line.split(" ")))
    _write_lines(out_lines, r["output"])
    return 0


# ---------------------------------------------------------------------------
# analysis commands


def _text_sibling(json_out: Path) -> Path:
    if json_out.suffix == ".json":
        return json_out.with_suffix(".txt")
    return Path(str(json_out) + ".txt")


def cmd_sweep(args) -> int:
    started = time.time()
    r = _resolve(args, {
        "corpus": None, "vocab_size": None, "out": None,
        "max_words": corpus_mod.DEFAULT_MAX_WORDS, "seed": 0,
    })
    corpus_path = _require(r, "corpus", "--corpus")
    sizes = _require(r, "vocab_size", "--vocab-size")
    out = Path(_require(r, "out", "--out"))
    c = corpus_mod.load_corpus(corpus_path, max_words=r["max_words"])
    report = analysis.vocab_sweep(c, sizes)
    out.write_text(analysis.report_json(analysis.sweep_to_dict(report)),
                   encoding="utf-8", newline="\n")
    text_out = _text_sibling(out)
    text_out.write_text(analysis.sweep_to_text(report), encoding="utf-8",
                        newline="\n")
    log.info("sweep over sizes %s -> %s", sizes, out)
    _write_manifest(out, "sweep", r, {"corpus": str(corpus_path)},
                    [str(out), str(text_out)], r["seed"], started)
    return 0


def cmd_report(args) -> int:
    started = time.time()
    r = _resolve(args, {
        "corpus": None, "generated": None, "out": None,
        "max_words": corpus_mod.DEFAULT_MAX_WORDS,
    })
    corpus_path = _require(r, "corpus", "--corpus")
    generated_path = _require(r, "generated", "--generated")
    out = Path(_require(r, "out", "--out"))
    training_corpus = corpus_mod.load_corpus(corpus_path, max_words=r["max_words"])
    generated = [
        line for line in Path(generated_path).read_text(encoding="utf-8").splitlines()
        if line.strip()
    ]
    report = analysis.uniqueness_report(generated, training_corpus)
    out.write_text(analysis.report_json(analysis.uniqueness_to_dict(report)),
                   encoding="utf-8", newline="\n")
    text_out = _text_sibling(out)
    text_out.write_text(analysis.uniqueness_to_text(report), encoding="utf-8",
                        newline="\n")
    _write_manifest(out, "report", r,
                    {"corpus": str(corpus_path), "generated": str(generated_path)},
                    [str(out), str(text_out)], None, started)
    return 0


def cmd_params(args) -> int:
    started = time.time()
    r = _resolve(args, {
        "vocab": None, "d_model": 512, "layers": 6, "heads": 8,
        "d_ff": 2048, "d_in": 2048, "geo_dim": 64, "out": None,
    })
    vocabs = _require(r, "vocab", "--vocab")
    counts = [
        analysis.param_count(
            v, d_model=r["d_model"], n_enc_layers=r["layers"],
            n_dec_layers=r["layers"], n_heads=r["heads"], d_ff=r["d_ff"],
            d_in=r["d_in"], geo_embed_dim=r["geo_dim"],
        )
        for v in vocabs
    ]
    sys.stdout.write(analysis.params_to_text(counts))
    if r["out"]:
        out = Path(r["out"])
        out.write_text(analysis.report_json(analysis.params_to_dict(counts)),
                       encoding="utf-8", newline="\n")
        _write_manifest(out, "params", r, {}, [str(out)], None, started)
    return 0


# ---------------------------------------------------------------------------
# model commands


def _scenes_to_batch(scenes, vocab, max_seq_len: int):
    batch = []
    for scene in scenes:
        ids = list(unigram.encode(scene.caption, vocab).ids)
        if len(ids) + 1 > max_seq_len:
            raise ValueError(f"image {scene.image_id}: caption has {len(ids)} pieces; "
                             f"--max-len {max_seq_len} fits at most {max_seq_len - 1}")
        batch.append((scene.regions, ids))
    return batch


def cmd_train_lm(args) -> int:
    started = time.time()
    r = _resolve(args, {
        "tokenizer": None, "out": None, "seed": 0, "images": 10,
        "steps": 300, "d_model": 32, "layers": 2, "heads": 2, "d_ff": 64,
        "geo_dim": 8, "d_in": 16, "max_len": 32, "lr": 5e-4,
        "decay_every": 500, "decay_factor": 0.8,
    })
    _require_count(r, "steps", "--steps")
    _require_count(r, "images", "--images")
    vocab = unigram.load_vocab(_require(r, "tokenizer", "--tokenizer"))
    out = Path(_require(r, "out", "--out"))
    scenes = synthetic.synthetic_regions(r["seed"], r["images"], d_in=r["d_in"])
    batch = _scenes_to_batch(scenes, vocab, r["max_len"])
    cfg = transformer.ModelConfig(
        vocab_size=vocab.num_tokens, d_model=r["d_model"],
        n_enc_layers=r["layers"], n_dec_layers=r["layers"], n_heads=r["heads"],
        d_ff=r["d_ff"], d_in=r["d_in"], geo_embed_dim=r["geo_dim"],
        max_seq_len=r["max_len"],
    )
    params = transformer.init_params(cfg, seed=r["seed"])
    tcfg = training.TrainConfig(lr=r["lr"], decay_every=r["decay_every"],
                                decay_factor=r["decay_factor"])
    history = training.fit(batch, params, cfg, tcfg, steps=r["steps"])
    transformer.save_checkpoint(out, params, cfg)
    log.info("final loss %.6f after %d steps -> %s", history[-1], r["steps"], out)
    _write_manifest(out, "train-lm", r, {"tokenizer": r["tokenizer"]},
                    [str(out)], r["seed"], started)
    return 0


def cmd_generate(args) -> int:
    started = time.time()
    r = _resolve(args, {
        "checkpoint": None, "tokenizer": None, "out": None, "seed": 0,
        "images": 10, "beam": 2, "max_len": None, "greedy": False,
    })
    if r["greedy"]:
        r["beam"] = 1
    _require_count(r, "beam", "--beam")
    _require_count(r, "images", "--images")
    ckpt_path = _require(r, "checkpoint", "--checkpoint")
    vocab = unigram.load_vocab(_require(r, "tokenizer", "--tokenizer"))
    out = Path(_require(r, "out", "--out"))
    params, cfg = transformer.load_checkpoint(ckpt_path)
    if vocab.num_tokens != cfg.vocab_size:
        raise SubicapError(
            f"tokenizer has {vocab.num_tokens} token ids but the checkpoint "
            f"was trained with {cfg.vocab_size}"
        )
    max_len = r["max_len"] if r["max_len"] is not None else cfg.max_seq_len - 1
    if not 1 <= max_len <= cfg.max_seq_len - 1:
        raise CliUsageError(f"--max-len must be in 1..{cfg.max_seq_len - 1} for "
                            f"this checkpoint (max_seq_len {cfg.max_seq_len}), "
                            f"got {max_len}")
    # a caption never opens with a continuation piece
    first_banned = np.array([unigram.is_continuation(vocab.piece_of_token(t))
                             for t in range(vocab.num_tokens)])
    scenes = synthetic.synthetic_regions(r["seed"], r["images"], d_in=cfg.d_in)
    lines = []
    for scene in scenes:
        hyp = decoding.caption_regions(scene.regions, params, cfg,
                                       beam=r["beam"], max_len=max_len,
                                       first_banned=first_banned)
        lines.append(unigram.detokenize(
            [vocab.piece_of_token(t) for t in hyp.token_ids]))
    _write_lines(lines, str(out))
    log.info("generated %d captions (beam=%d) -> %s", len(lines), r["beam"], out)
    _write_manifest(out, "generate", r,
                    {"checkpoint": str(ckpt_path), "tokenizer": r["tokenizer"]},
                    [str(out)], r["seed"], started)
    return 0


# ---------------------------------------------------------------------------
# wiring


def _add_config(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="JSON file supplying defaults for any flag")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="subicap",
                     description="subword caption vocabularies and a "
                                 "region-relation caption model")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="subcommand", metavar="<subcommand>")

    p = sub.add_parser("train-tokenizer", parents=[], help="fit a tokenizer")
    p.add_argument("--corpus")
    p.add_argument("--algo", choices=["unigram", "bpe", "word"], default=None)
    p.add_argument("--vocab-size", type=int, dest="vocab_size")
    p.add_argument("--merges", type=int)
    p.add_argument("--min-freq", type=int, dest="min_freq")
    p.add_argument("--max-words", type=int, dest="max_words")
    p.add_argument("--out")
    p.add_argument("--seed", type=int)
    _add_config(p)
    p.set_defaults(func=cmd_train_tokenizer)

    p = sub.add_parser("encode", help="captions on stdin to pieces on stdout")
    p.add_argument("--vocab")
    p.add_argument("--input")
    p.add_argument("--output")
    _add_config(p)
    p.set_defaults(func=cmd_encode)

    p = sub.add_parser("decode", help="pieces on stdin to captions on stdout")
    p.add_argument("--input")
    p.add_argument("--output")
    _add_config(p)
    p.set_defaults(func=cmd_decode)

    p = sub.add_parser("sweep", help="train and measure several vocab sizes")
    p.add_argument("--corpus")
    p.add_argument("--vocab-size", type=int, action="append", dest="vocab_size")
    p.add_argument("--max-words", type=int, dest="max_words")
    p.add_argument("--out")
    p.add_argument("--seed", type=int)
    _add_config(p)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("report", help="uniqueness of generated captions")
    p.add_argument("--corpus")
    p.add_argument("--generated")
    p.add_argument("--max-words", type=int, dest="max_words")
    p.add_argument("--out")
    _add_config(p)
    p.set_defaults(func=cmd_report)

    p = sub.add_parser("params", help="parameter-count arithmetic")
    p.add_argument("--vocab", type=int, action="append")
    p.add_argument("--d-model", type=int, dest="d_model")
    p.add_argument("--layers", type=int)
    p.add_argument("--heads", type=int)
    p.add_argument("--d-ff", type=int, dest="d_ff")
    p.add_argument("--d-in", type=int, dest="d_in")
    p.add_argument("--geo-dim", type=int, dest="geo_dim")
    p.add_argument("--out")
    _add_config(p)
    p.set_defaults(func=cmd_params)

    p = sub.add_parser("train-lm", help="train the caption model on "
                                        "synthetic scenes")
    p.add_argument("--tokenizer")
    p.add_argument("--out")
    p.add_argument("--seed", type=int)
    p.add_argument("--images", type=int)
    p.add_argument("--steps", type=int)
    p.add_argument("--d-model", type=int, dest="d_model")
    p.add_argument("--layers", type=int)
    p.add_argument("--heads", type=int)
    p.add_argument("--d-ff", type=int, dest="d_ff")
    p.add_argument("--geo-dim", type=int, dest="geo_dim")
    p.add_argument("--d-in", type=int, dest="d_in")
    p.add_argument("--max-len", type=int, dest="max_len")
    p.add_argument("--lr", type=float)
    p.add_argument("--decay-every", type=int, dest="decay_every")
    p.add_argument("--decay-factor", type=float, dest="decay_factor")
    _add_config(p)
    p.set_defaults(func=cmd_train_lm)

    p = sub.add_parser("generate", help="decode captions from a checkpoint")
    p.add_argument("--checkpoint")
    p.add_argument("--tokenizer")
    p.add_argument("--out")
    p.add_argument("--seed", type=int)
    p.add_argument("--images", type=int)
    p.add_argument("--beam", type=int)
    p.add_argument("--greedy", action="store_true", default=None,
                   help="shorthand for --beam 1")
    p.add_argument("--max-len", type=int, dest="max_len")
    _add_config(p)
    p.set_defaults(func=cmd_generate)

    return parser


def _setup_logging() -> None:
    raw = os.environ.get("SUBICAP_LOG", "info").lower()
    if raw not in _LOG_LEVELS:
        raise CliUsageError(
            f"SUBICAP_LOG must be one of {sorted(_LOG_LEVELS)}, got {raw!r}"
        )
    logging.basicConfig(
        stream=sys.stderr,
        level=_LOG_LEVELS[raw],
        format="%(levelname)s %(name)s: %(message)s",
    )


def main(argv: Sequence[str] | None = None) -> int:
    try:
        _setup_logging()
        parser = build_parser()
        args = parser.parse_args(argv)
        if getattr(args, "func", None) is None:
            raise CliUsageError("a subcommand is required; see --help")
        return args.func(args)
    except (SubicapError, OSError, ValueError) as err:
        # ValueError covers contract violations raised by library calls
        # (bad vocab targets, empty sweep grids) — still one line, exit 2
        message = str(err).splitlines()[0] if str(err) else err.__class__.__name__
        print(f"subicap: error: {message}", file=sys.stderr)
        return 2
    except KeyboardInterrupt:
        return 130


if __name__ == "__main__":
    sys.exit(main())
