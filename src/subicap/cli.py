"""Command-line interface.

Subcommands: train-tokenizer, encode, decode, sweep, report, params,
train-lm, generate. Each cmd_* returns the files it wrote and its metrics;
main times the run and, if it wrote any, writes <first file>.manifest.json
recording the resolved arguments, input files, outputs and seed. encode and
decode are stream filters (stdin or --input to stdout or --output) and
return none, so they write no manifest. Outputs are byte-identical across
runs for identical seeds and configs; only manifest timestamp/duration
fields may differ.

One table, COMMANDS, declares every subcommand: its help, its cmd_*
function, its options, each an Option(name, kind, default), maybe
repeatable, with flag --name ('-' for '_'), and the options that name the
input files its manifest records. A kind is int, COUNT (an
integer >= 1), NATURAL (an integer >= 0), POSITIVE (a finite number > 0),
str or a tuple of choices; a default may be REQUIRED.
The parser, the --config JSON file, the defaults and the checks all come
from it. Precedence: flag, then config file (null counts as absent), then
default; every resolved value is checked against its kind, from whichever
source, before any other file is read. SUBICAP_LOG={error|info|debug}
selects stderr log verbosity. Errors print one machine-parsable line,
"subicap: error: <message>", and exit 2.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys
import time
from datetime import datetime, timezone
from pathlib import Path
from typing import Callable, NamedTuple, Sequence

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


# ---------------------------------------------------------------------------
# options (declared in COMMANDS, below the commands)

COUNT = "count"  # kind: an integer >= 1
NATURAL = "natural"  # kind: an integer >= 0
POSITIVE = "positive"  # kind: a finite number > 0
REQUIRED = "required"  # default: the flag or the config file must set it

# kind -> (what a value must be, its test, the argparse type that converts a
# flag's text); the test sees flag and config values alike, and a bool is
# never an integer here
_KINDS = {
    int: ("an integer", lambda v: type(v) is int, int),
    COUNT: ("an integer >= 1", lambda v: type(v) is int and v >= 1, int),
    NATURAL: ("an integer >= 0", lambda v: type(v) is int and v >= 0, int),
    # nan fails both comparisons; an int too large for a float fails the second
    POSITIVE: ("a finite number > 0",
               lambda v: type(v) in (int, float) and 0 < v <= sys.float_info.max, float),
    str: ("a string", lambda v: type(v) is str, None),
}


class Option(NamedTuple):
    name: str
    kind: object  # a key of _KINDS, or a tuple of choices
    default: object = None
    repeat: bool = False


def _flag(name: str) -> str:
    return "--" + name.replace("_", "-")


def _kind_of(opt: Option) -> tuple:
    if isinstance(opt.kind, tuple):
        return "one of " + ", ".join(opt.kind), opt.kind.__contains__, None
    return _KINDS[opt.kind]


def _check(opt: Option, value) -> None:
    what, test, _ = _kind_of(opt)
    if opt.repeat and (type(value) is not list or not value):
        raise CliUsageError(f"{_flag(opt.name)} must be a non-empty list, got {value!r}")
    for item in value if opt.repeat else [value]:
        if not test(item):
            raise CliUsageError(f"{_flag(opt.name)} must be {what}, got {item!r}")


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


def _resolve(args: argparse.Namespace) -> dict:
    """Each option of the subcommand: flag > config file > default, checked."""
    file_cfg = _load_config_file(args.config)
    resolved = {}
    for opt in COMMANDS[args.subcommand].options:
        value = getattr(args, opt.name)
        if value is None:
            value = file_cfg.get(opt.name)
        if value is None and opt.default != REQUIRED:
            value = opt.default
        resolved[opt.name] = value
        if value is not None:
            _check(opt, value)
        elif opt.default == REQUIRED:
            _require(resolved, opt.name)
    return resolved


def _require(resolved: dict, key: str) -> None:
    if resolved[key] is None:
        raise CliUsageError(f"{_flag(key)} is required (flag or config file)")


# ---------------------------------------------------------------------------
# tokenizer commands

# what a command returns to main: the files it wrote, the first naming the
# manifest (none for a stream filter), and the manifest's metrics
Written = tuple[list[str], dict]


def cmd_train_tokenizer(r: dict) -> Written:
    out = Path(r["out"])
    algo = r["algo"]
    if algo != "word":
        _require(r, "vocab_size" if algo == "unigram" else "merges")
    c = corpus_mod.load_corpus(r["corpus"], max_words=r["max_words"])
    if algo == "unigram":
        vocab = unigram.train_unigram(
            c, unigram.TrainerConfig(target_vocab_size=r["vocab_size"]))
        unigram.save_vocab(vocab, out)
        log.info("trained unigram vocabulary: %d pieces -> %s", vocab.size, out)
    elif algo == "bpe":
        model = baselines.train_bpe(c, r["merges"])
        baselines.save_bpe(model, out)
        log.info("trained bpe: %d merges -> %s", len(model.merges), out)
    else:
        vocab = baselines.train_word_vocab(c, min_freq=r["min_freq"])
        baselines.save_word_vocab(vocab, out)
        log.info("trained word vocabulary: %d words -> %s", vocab.size, out)
    return [str(out)], {}


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


def _map_lines(lines: list[str], output: str | None, convert) -> Written:
    """The converted lines to `output` (or stdout); blank lines pass through."""
    _write_lines([convert(line) if line.strip() else "" for line in lines], output)
    return [], {}


def cmd_encode(r: dict) -> Written:
    vocab = unigram.load_vocab(r["vocab"])
    lines = _read_lines(r["input"])
    # one batch for every distinct word, whose memo each line's encode reads;
    # the words arrive line by line, so only the distinct ones are held
    unigram.memoise_segmentations(
        (word for line in lines for word in corpus_mod.normalize_words(line)), vocab)
    return _map_lines(lines, r["output"],
                      lambda line: " ".join(unigram.encode(line, vocab).pieces))


def cmd_decode(r: dict) -> Written:
    return _map_lines(_read_lines(r["input"]), r["output"],
                      lambda line: unigram.detokenize(line.split(" ")))


# ---------------------------------------------------------------------------
# analysis commands


def _write_report(out: Path, data: dict, text: str) -> list[str]:
    """The JSON report at `out` and its text twin; returns both paths."""
    text_out = (out.with_suffix(".txt") if out.suffix == ".json"
                else Path(str(out) + ".txt"))
    out.write_text(analysis.report_json(data), encoding="utf-8", newline="\n")
    text_out.write_text(text, encoding="utf-8", newline="\n")
    return [str(out), str(text_out)]


def cmd_sweep(r: dict) -> Written:
    out = Path(r["out"])
    c = corpus_mod.load_corpus(r["corpus"], max_words=r["max_words"])
    report = analysis.vocab_sweep(c, r["vocab_size"])
    outputs = _write_report(out, analysis.sweep_to_dict(report),
                            analysis.sweep_to_text(report))
    log.info("sweep over sizes %s -> %s", r["vocab_size"], out)
    return outputs, {}


def cmd_report(r: dict) -> Written:
    training_corpus = corpus_mod.load_corpus(r["corpus"], max_words=r["max_words"])
    generated = [
        line for line in Path(r["generated"]).read_text(encoding="utf-8").splitlines()
        if line.strip()
    ]
    report = analysis.uniqueness_report(generated, training_corpus)
    return _write_report(Path(r["out"]), analysis.uniqueness_to_dict(report),
                         analysis.uniqueness_to_text(report)), {}


def _model_config_fields(r: dict) -> dict:
    """The ModelConfig fields that the _model_dims options set."""
    return dict(d_model=r["d_model"], n_enc_layers=r["layers"],
                n_dec_layers=r["layers"], n_heads=r["heads"], d_ff=r["d_ff"],
                d_in=r["d_in"], geo_embed_dim=r["geo_dim"])


def cmd_params(r: dict) -> Written:
    counts = [analysis.param_count(v, **_model_config_fields(r)) for v in r["vocab"]]
    sys.stdout.write(analysis.params_to_text(counts))
    if not r["out"]:
        return [], {}
    out = Path(r["out"])
    out.write_text(analysis.report_json(analysis.params_to_dict(counts)),
                   encoding="utf-8", newline="\n")
    return [str(out)], {}


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


def cmd_train_lm(r: dict) -> Written:
    vocab = unigram.load_vocab(r["tokenizer"])
    out = Path(r["out"])
    scenes = synthetic.synthetic_regions(r["seed"], r["images"], d_in=r["d_in"])
    batch = _scenes_to_batch(scenes, vocab, r["max_len"])
    cfg = transformer.ModelConfig(vocab_size=vocab.num_tokens, max_seq_len=r["max_len"],
                                  **_model_config_fields(r))
    params = transformer.init_params(cfg, seed=r["seed"])
    tcfg = training.TrainConfig(lr=r["lr"], decay_every=r["decay_every"],
                                decay_factor=r["decay_factor"])
    # a diverging run overflows on its way to a non-finite loss, which
    # train_step reports as the one error line
    with np.errstate(all="ignore"):
        history = training.fit(batch, params, cfg, tcfg, steps=r["steps"])
    transformer.save_checkpoint(out, params, cfg)
    log.info("final loss %.6f after %d steps -> %s", history[-1], r["steps"], out)
    return [str(out)], {}


def cmd_generate(r: dict) -> Written:
    vocab = unigram.load_vocab(r["tokenizer"])
    out = Path(r["out"])
    params, cfg = transformer.load_checkpoint(r["checkpoint"])
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
    hyps = [decoding.caption_regions(scene.regions, params, cfg, beam=r["beam"],
                                     max_len=max_len, first_banned=first_banned)
            for scene in scenes]
    lines = [unigram.detokenize([vocab.piece_of_token(t) for t in hyp.token_ids])
             for hyp in hyps]
    _write_lines(lines, str(out))
    log.info("generated %d captions (beam=%d) -> %s", len(lines), r["beam"], out)
    n_finished = sum(hyp.finished for hyp in hyps)
    return [str(out)], {"captions_finished": n_finished,
                        "captions_cut_off": len(hyps) - n_finished,  # at --max-len
                        "generated_tokens": sum(hyp.n_generated for hyp in hyps)}


# ---------------------------------------------------------------------------
# wiring


class Command(NamedTuple):
    help: str
    run: Callable[[dict], Written]  # takes the resolved options
    options: tuple[Option, ...]
    inputs: tuple[str, ...] = ()  # the options whose files the manifest records


def _model_dims(*defaults) -> list[Option]:
    names = ("d_model", "layers", "heads", "d_ff", "d_in", "geo_dim")
    return [Option(name, COUNT, d) for name, d in zip(names, defaults)]


_MAX_WORDS = Option("max_words", COUNT, corpus_mod.DEFAULT_MAX_WORDS)

COMMANDS: dict[str, Command] = {
    "train-tokenizer": Command("fit a tokenizer", cmd_train_tokenizer, (
        Option("corpus", str, REQUIRED),
        Option("algo", ("unigram", "bpe", "word"), "unigram"),
        # --vocab-size is required by --algo unigram, --merges by bpe
        Option("vocab_size", COUNT), Option("merges", NATURAL),
        Option("min_freq", COUNT, 5), _MAX_WORDS, Option("out", str, REQUIRED),
    ), inputs=("corpus",)),
    "encode": Command("captions on stdin to pieces on stdout", cmd_encode, (
        Option("vocab", str, REQUIRED), Option("input", str), Option("output", str),
    )),
    "decode": Command("pieces on stdin to captions on stdout", cmd_decode, (
        Option("input", str), Option("output", str),
    )),
    "sweep": Command("train and measure several vocab sizes", cmd_sweep, (
        Option("corpus", str, REQUIRED),
        Option("vocab_size", COUNT, REQUIRED, repeat=True),
        _MAX_WORDS, Option("out", str, REQUIRED),
    ), inputs=("corpus",)),
    "report": Command("uniqueness of generated captions", cmd_report, (
        Option("corpus", str, REQUIRED), Option("generated", str, REQUIRED),
        _MAX_WORDS, Option("out", str, REQUIRED),
    ), inputs=("corpus", "generated")),
    "params": Command("parameter-count arithmetic", cmd_params, (
        Option("vocab", COUNT, REQUIRED, repeat=True),
        *_model_dims(512, 6, 8, 2048, 2048, 64),
        Option("out", str),
    )),
    "train-lm": Command("train the caption model on synthetic scenes", cmd_train_lm, (
        Option("tokenizer", str, REQUIRED), Option("out", str, REQUIRED),
        Option("seed", NATURAL, 0), Option("images", COUNT, 10), Option("steps", COUNT, 300),
        *_model_dims(32, 2, 2, 64, 16, 8),
        Option("max_len", COUNT, 32), Option("lr", POSITIVE, 5e-4),
        Option("decay_every", NATURAL, 500), Option("decay_factor", POSITIVE, 0.8),
    ), inputs=("tokenizer",)),
    "generate": Command("decode captions from a checkpoint", cmd_generate, (
        Option("checkpoint", str, REQUIRED), Option("tokenizer", str, REQUIRED),
        Option("out", str, REQUIRED), Option("seed", NATURAL, 0),
        Option("images", COUNT, 10), Option("beam", COUNT, 2),
        Option("max_len", int),  # default: the checkpoint's limit
    ), inputs=("checkpoint", "tokenizer")),
}


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="subicap",
                     description="subword caption vocabularies and a "
                                 "region-relation caption model")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="subcommand", metavar="<subcommand>")
    for name, command in COMMANDS.items():
        p = sub.add_parser(name, help=command.help)
        for opt in command.options:
            what, _, arg_type = _kind_of(opt)
            p.add_argument(_flag(opt.name), dest=opt.name, type=arg_type, help=what,
                           action="append" if opt.repeat else "store")
        p.add_argument("--config", help="JSON file supplying defaults for any flag")
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


def _write_manifest(subcommand: str, r: dict, outputs: list[str], metrics: dict,
                    started: float) -> None:
    """<first output>.manifest.json: the run's options, the files it read
    and wrote, and `metrics`, deterministic counts of what it did."""
    manifest = dict(
        subcommand=subcommand, arguments=r, outputs=outputs, seed=r.get("seed"),
        inputs={name: r[name] for name in COMMANDS[subcommand].inputs},
        tool_version=__version__, metrics=metrics,
        timestamp_utc=datetime.now(timezone.utc).isoformat(),
        duration_s=round(time.time() - started, 6))
    Path(outputs[0] + ".manifest.json").write_text(
        json.dumps(manifest, indent=2, sort_keys=True) + "\n", encoding="utf-8", newline="\n")


def main(argv: Sequence[str] | None = None) -> int:
    try:
        _setup_logging()
        args = build_parser().parse_args(argv)
        if args.subcommand is None:
            raise CliUsageError("a subcommand is required; see --help")
        r = _resolve(args)
        started = time.time()
        outputs, metrics = COMMANDS[args.subcommand].run(r)
        if outputs:
            _write_manifest(args.subcommand, r, outputs, metrics, started)
        return 0
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
