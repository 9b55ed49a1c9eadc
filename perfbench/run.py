"""subicap benchmark: two workloads through the real CLI paths.

Run from the repository root:

    python3 perfbench/run.py --workload lm-desk --seed 1 --seconds 55 --trace 0

Every subcommand is called in process through ``subicap.cli.main``, one
call after another from a single thread (a closed loop). BLAS is pinned to
one thread before numpy loads. The last stdout line is the result:
``{"correct", "attempted", "failed", "metrics"}``; the line before it and
``perfbench/out/<workload>-s<seed>-t<trace>/result.json`` record the code
version, interpreter, numpy, core count, BLAS threads and seed. With
``--trace 1`` the set-up, the build and one slice run once untraced and
once traced, and the metrics are the per-layer figures plus the tracing
overhead.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
os.environ["SUBICAP_LOG"] = "info"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import dataclasses  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
if not (SRC / "subicap" / "__init__.py").is_file():
    sys.exit(f"perfbench: no subicap sources under {SRC}; run from a full checkout")
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402

import subicap  # noqa: E402

if Path(subicap.__file__).resolve().parent != SRC / "subicap":
    sys.exit(f"perfbench: imported subicap from {subicap.__file__}, not {SRC}")

import checks  # noqa: E402
import corpus_gen  # noqa: E402
from subicap import bundled_corpus_path, cli, unigram  # noqa: E402
from subicap.model import decoding, synthetic, transformer  # noqa: E402
from tracer import Tracer, layer_metrics  # noqa: E402

BEAMS = (1, 2, 4)
SETUP_REPEATS = 3
ENCODE_LINES = 2000
TRAIN_IMAGES = 10  # train-lm's default scene count; generate decodes these scenes
# Caption models per run. Model j trains and decodes with seed 100 * seed + j;
# several models average out how long one model's beams run on after its
# best hypothesis ends.
MODELS = 3
STEPS = 100  # each model's training call; generate decodes its checkpoint
TIMED_STEPS = 20  # the repeated train-lm calls behind train_lm_ms_per_step
LR = 2e-3
FD_COORDS = 16
FD_IMAGES = 2
LOSS_DROP = 0.25  # trained loss must be below this share of the initial loss
MODEL = {"d_model": 32, "layers": 2, "heads": 2, "d_ff": 64}  # CLI defaults


@dataclasses.dataclass(frozen=True)
class Workload:
    scaled_corpus: bool  # generated corpus and held-out captions, else the desk corpus
    vocab_size: int
    max_len: int  # generated-token cap: longest caption in pieces, <eos>, one spare
    # generate calls per model and slice at each beam width, chosen so each
    # width gets a similar share of the slice
    calls: dict


# A run trains the vocabulary and every model, then repeats whole slices.
# A slice calls train-tokenizer and encode once, and per model a short
# train-lm and generate at each width, so every timed operation recurs
# across the whole run.
WORKLOADS = {
    "tok-scaled": Workload(True, 1000, 9, {1: 2, 2: 1, 4: 1}),
    "lm-desk": Workload(False, 300, 18, {1: 4, 2: 2, 4: 1}),
}


class CliFailed(RuntimeError):
    pass


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _git_sha() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def environment(args) -> dict:
    tree = hashlib.sha256()
    for path in sorted(SRC.rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            tree.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return {
        "git_sha": _git_sha(),
        "src_sha256": tree.hexdigest(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


class Bench:
    def __init__(self, name: str, seed: int, out: Path):
        self.seed, self.out = seed, out
        self.ws = WORKLOADS[name]
        self.log = open(out / "cli.log", "w", encoding="utf-8")
        self.tracer: Tracer | None = None
        self.hyps: list = []
        self.problems: list[str] = []
        self.attempted = 0
        self.failed = 0
        self.samples: dict[str, list[tuple[float, float]]] = {}

    # -- CLI calls ---------------------------------------------------------

    def cli(self, sub: str, argv: list[str], ctx: str = "") -> tuple[float, str]:
        """Run one subcommand; returns (seconds, what it logged)."""
        start_pos = self.log.tell()
        with contextlib.ExitStack() as stack:
            stack.enter_context(contextlib.redirect_stderr(self.log))
            if self.tracer is not None:
                stack.enter_context(self.tracer.installed())
                stack.enter_context(self.tracer.span(f"cli.{sub}", ctx or sub))
            t0 = time.perf_counter()
            rc = cli.main([sub] + [str(a) for a in argv])
            elapsed = time.perf_counter() - t0
        self.log.flush()
        with open(self.out / "cli.log", encoding="utf-8") as fh:
            fh.seek(start_pos)
            logged = fh.read()
        if rc != 0:
            raise CliFailed(f"subicap {sub} exited {rc}: {logged.strip()[-300:]}")
        return elapsed, logged

    @contextlib.contextmanager
    def recording(self):
        """Keep every hypothesis the generate command decodes."""
        original = decoding.caption_regions

        def record(*args, **kwargs):
            hyp = original(*args, **kwargs)
            self.hyps.append(hyp)
            return hyp

        decoding.caption_regions = record
        try:
            yield
        finally:
            decoding.caption_regions = original

    # -- set-up ------------------------------------------------------------

    def setup(self) -> float:
        """Start the CLI in a fresh interpreter (imports only), then write this
        seed's corpus and encode input; returns seconds."""
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c",
                        f"import sys; sys.path.insert(0, {str(SRC)!r}); import subicap.cli"],
                       check=True, timeout=120)
        if self.ws.scaled_corpus:
            train, heldout = corpus_gen.generate(self.seed, ENCODE_LINES)
            corpus = corpus_gen.corpus_text(train)
        else:
            corpus = bundled_corpus_path().read_text(encoding="utf-8")
            lines = [line.split("\t", 1)[1] for line in corpus.splitlines()
                     if line.strip() and not line.startswith("#")]
            heldout = random.Random(self.seed).choices(lines, k=ENCODE_LINES)
        (self.out / "corpus.tsv").write_text(corpus, encoding="utf-8")
        (self.out / "encode_in.txt").write_text("\n".join(heldout) + "\n", encoding="utf-8")
        return time.perf_counter() - t0

    def setup_outputs(self) -> dict[str, str]:
        return {n: _sha256(self.out / n) for n in ("corpus.tsv", "encode_in.txt")}

    # -- the run's operations ----------------------------------------------

    def model_seed(self, j: int) -> int:
        return 100 * self.seed + j

    def build(self) -> None:
        """Train the vocabulary and every caption model the slices use."""
        self.timings: dict[str, list[tuple[float, float]]] = {}
        self.run_hyps: dict[tuple[int, int], list] = {}
        self.train_logs: dict[int, str] = {}
        self.pieces = None
        self.train_tokenizer(timed=False)  # also warms the tokenizer up
        for j in range(MODELS):
            self.train_lm(j, STEPS, f"model{j}.ckpt")

    def slice(self) -> None:
        calls = self.ws.calls
        self.train_tokenizer()
        self.encode()
        for j in range(MODELS):
            self.train_lm(j, TIMED_STEPS, f"timed{j}.ckpt")
            # repeated calls interleave the widths
            for rep in range(max(calls.values())):
                for beam in BEAMS:
                    if rep < calls[beam]:
                        self.generate(j, beam)

    def _add(self, metric: str, work: float, secs: float) -> None:
        self.timings.setdefault(metric, []).append((work, secs))

    def train_tokenizer(self, timed: bool = True) -> None:
        out = self.out
        secs, _ = self.cli("train-tokenizer", [
            "--corpus", out / "corpus.tsv", "--algo", "unigram",
            "--vocab-size", self.ws.vocab_size, "--out", out / "vocab.tsv"])
        if timed:
            self._add("train_tokenizer_s", 1, secs)
        self.attempted += 1

    def encode(self) -> None:
        out = self.out
        secs, _ = self.cli("encode", ["--vocab", out / "vocab.tsv",
                                      "--input", out / "encode_in.txt",
                                      "--output", out / "encoded.txt"])
        self._add("encode_captions_per_s", ENCODE_LINES, secs)
        self.attempted += ENCODE_LINES

    def train_lm(self, j: int, steps: int, name: str) -> None:
        """Train model j; only the repeated TIMED_STEPS calls are timed."""
        out = self.out
        flags = [x for k, v in MODEL.items() for x in (f"--{k.replace('_', '-')}", v)]
        secs, logged = self.cli("train-lm", [
            "--tokenizer", out / "vocab.tsv", "--out", out / name,
            "--steps", steps, "--lr", LR, "--seed", self.model_seed(j)] + flags)
        if steps == STEPS:
            self.train_logs[j] = logged
        else:
            self._add("train_lm_ms_per_step", steps, secs)
            if not all(math.isfinite(x) for x in checks.logged_losses(logged)):
                self.problems.append(f"train-lm model {j}: a logged loss is not finite")
        self.attempted += 1

    def generate(self, j: int, beam: int) -> None:
        out = self.out
        if self.pieces is None:
            self.pieces, _ = checks.read_vocab(out / "vocab.tsv")
        self.hyps = []
        with self.recording():
            secs, _ = self.cli("generate", [
                "--checkpoint", out / f"model{j}.ckpt", "--tokenizer", out / "vocab.tsv",
                "--out", out / f"gen{j}_beam{beam}.txt", "--seed", self.model_seed(j),
                "--images", TRAIN_IMAGES, "--beam", beam,
                "--max-len", self.ws.max_len], ctx=f"generate:{beam}")
        key = (j, beam)
        if key in self.run_hyps and self.hyps != self.run_hyps[key]:
            self.problems.append(f"generate model {j} beam {beam}: repeated call decoded differently")
        self.run_hyps[key] = self.hyps
        self._add(f"generate_tokens_per_s_beam{beam}", sum(h.n_generated for h in self.hyps), secs)
        self.attempted += len(self.hyps)
        self.failed += sum(not checks.hypothesis_is_valid(h.token_ids, self.pieces)
                           for h in self.hyps)

    def outputs(self) -> dict:
        """Digests of every file the operations write, and the hypotheses."""
        names = ["vocab.tsv", "encoded.txt"] + [
            f"{stem}{j}{ext}" for j in range(MODELS)
            for stem, ext in [("model", ".ckpt"), ("timed", ".ckpt")]
            + [("gen", f"_beam{b}.txt") for b in BEAMS]]
        digest = {n: _sha256(self.out / n) for n in names}
        digest["hypotheses"] = repr({k: [(h.token_ids, h.logprob, h.finished) for h in hs]
                                     for k, hs in sorted(self.run_hyps.items())})
        return digest

    # -- checks ------------------------------------------------------------

    def check_outputs(self) -> None:
        """Full independent checks of the outputs the operations wrote."""
        ws, out = self.ws, self.out
        pieces, scores = checks.read_vocab(out / "vocab.tsv")
        words = [w for line in (out / "corpus.tsv").read_text(encoding="utf-8").splitlines()
                 if line.strip() and not line.startswith("#")
                 for w in checks.normalize(line.split("\t", 1)[1]).split()[:16]]
        self.problems += checks.check_vocab(pieces, scores, ws.vocab_size, set(words))
        seg = checks.Segmenter(pieces, scores)
        self.problems += checks.check_encoded(
            (out / "encode_in.txt").read_text(encoding="utf-8").splitlines(),
            (out / "encoded.txt").read_text(encoding="utf-8").splitlines(), seg)
        for j in range(MODELS):
            self.check_model(j, pieces, seg)

    def check_model(self, j: int, pieces, seg) -> None:
        ws, out, seed = self.ws, self.out, self.model_seed(j)
        losses = checks.logged_losses(self.train_logs[j])
        if not losses or not all(math.isfinite(x) for x in losses):
            self.problems.append(f"train-lm model {j}: logged losses {losses[-3:]} not all finite")
        params, cfg = transformer.load_checkpoint(out / f"model{j}.ckpt")
        want = {"vocab_size": ws.vocab_size + 3, "d_model": MODEL["d_model"],
                "n_enc_layers": MODEL["layers"], "n_dec_layers": MODEL["layers"],
                "n_heads": MODEL["heads"], "d_ff": MODEL["d_ff"]}
        got = {k: getattr(cfg, k) for k in want}
        if got != want:
            self.problems.append(f"model {j}: checkpoint config {got}, expected {want}")
        for name, shape in transformer.param_shapes(cfg):
            arr = params.get(name)
            if arr is None or arr.shape != shape or not np.isfinite(arr).all():
                self.problems.append(f"model {j}: checkpoint tensor {name} missing, "
                                     "misshapen or not finite")
        index = {p: i for i, p in enumerate(pieces)}
        scenes = synthetic.synthetic_regions(seed, TRAIN_IMAGES, d_in=cfg.d_in)
        batch = [(s.regions, [index[p] for p in seg.caption(s.caption)[1]]) for s in scenes]
        init = transformer.init_params(cfg, seed=seed)
        ce = checks.mean_cross_entropy
        before, after = ce(batch, init, cfg), ce(batch, params, cfg)
        if not after < LOSS_DROP * before:
            self.problems.append(f"train-lm model {j}: loss {after:.4f} not well below "
                                 f"initial {before:.4f}")
        sub = batch[:FD_IMAGES]
        _, grads = transformer.loss_and_grads(sub, init, cfg)
        self.problems += checks.check_gradient(
            lambda p: ce(sub, p, cfg), init, grads,
            checks.sample_coordinates(init, FD_COORDS, seed))
        self.check_generated(j, pieces, params, cfg)

    def check_generated(self, j: int, pieces, params, cfg) -> None:
        ws = self.ws
        scenes = synthetic.synthetic_regions(self.model_seed(j), TRAIN_IMAGES, d_in=cfg.d_in)
        memories = [transformer.encoder_forward(s.regions, params, cfg) for s in scenes]
        for beam in BEAMS:
            hyps = self.run_hyps.get((j, beam), [])
            n = TRAIN_IMAGES
            lines = (self.out / f"gen{j}_beam{beam}.txt").read_text(encoding="utf-8").splitlines()
            if len(hyps) != n or len(lines) != n:
                self.problems.append(f"generate model {j} beam {beam}: {len(lines)} lines, "
                                     f"{len(hyps)} hypotheses for {n} scenes")
                continue
            for q, hyp, line in zip(memories, hyps, lines):
                if not checks.hypothesis_is_valid(hyp.token_ids, pieces):
                    continue  # counted as a failed operation
                if checks.detokenize([pieces[t] for t in hyp.token_ids]) != line:
                    self.problems.append(f"generate model {j} beam {beam}: line {line!r} "
                                         "is not its hypothesis")
                logp, targets = checks.sequence_logprobs(q, hyp.token_ids, hyp.finished,
                                                         params, cfg)
                self.problems += checks.check_hypothesis(hyp, logp, targets, beam == 1, pieces)
                if beam == 1:
                    ref = decoding.beam_search(q, params, cfg, 1, ws.max_len)
                    if (ref.token_ids != hyp.token_ids
                            or abs(ref.logprob - hyp.logprob) > checks.SCORE_TOL):
                        self.problems.append(f"generate model {j}: beam 1 differs from greedy")

    # -- traced forward timing ---------------------------------------------

    def time_forward(self) -> None:
        """transformer.loss_only on model 0's training batch, as traced spans."""
        params, cfg = transformer.load_checkpoint(self.out / "model0.ckpt")
        vocab = unigram.load_vocab(self.out / "vocab.tsv")
        scenes = synthetic.synthetic_regions(self.model_seed(0), TRAIN_IMAGES, d_in=cfg.d_in)
        batch = [(s.regions, list(unigram.encode(s.caption, vocab).ids)) for s in scenes]
        for _ in range(3):
            with self.tracer.span("transformer.loss_only", "forward"):
                transformer.loss_only(batch, params, cfg)


END_TO_END_UNITS = {
    "setup_s": "s", "train_tokenizer_s": "s", "encode_captions_per_s": "captions/s",
    "train_lm_ms_per_step": "ms", "generate_tokens_per_s_beam1": "tokens/s",
    "generate_tokens_per_s_beam2": "tokens/s", "generate_tokens_per_s_beam4": "tokens/s",
    "peak_rss_mib": "MiB",
}
RATES = {"encode_captions_per_s", "generate_tokens_per_s_beam1",
         "generate_tokens_per_s_beam2", "generate_tokens_per_s_beam4"}


def run_untraced(bench: Bench, seconds: float) -> dict:
    """Set up SETUP_REPEATS times, then build and repeat whole slices while
    the next one is expected to end within `seconds`, setting up once more
    after each slice. Every timed CLI call adds a (work, seconds) sample to
    its metric; a metric is its total work over its total time, or the
    inverse. setup_s is the median set-up."""
    samples = bench.samples
    samples["setup_s"] = []
    digests = set()

    def setup():
        samples["setup_s"].append((1, bench.setup()))
        digests.add(repr(bench.setup_outputs()))

    for _ in range(SETUP_REPEATS):
        setup()
    t0 = time.perf_counter()
    bench.build()
    reference, slices, slice_busy = None, 0, 0.0
    while True:
        s0 = time.perf_counter()
        bench.slice()
        setup()
        slice_busy += time.perf_counter() - s0
        slices += 1
        digest = bench.outputs()
        if reference is None:
            reference = digest
            bench.check_outputs()
        elif digest != reference:
            bench.problems.append("a repeated slice wrote different outputs")
        if time.perf_counter() - t0 + slice_busy / slices > seconds:
            break
    if len(digests) != 1:
        bench.problems.append("set-up is not deterministic")
    bench.slices = slices
    for k, calls in bench.timings.items():
        samples.setdefault(k, []).extend(calls)
    metrics = {}
    for k, pairs in samples.items():
        work, secs = (math.fsum(x) for x in zip(*pairs))
        metrics[k] = work / secs if k in RATES else secs / work
    metrics["train_lm_ms_per_step"] *= 1e3
    metrics["setup_s"] = statistics.median(secs for _, secs in samples["setup_s"])
    metrics["peak_rss_mib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return {k: {"value": metrics[k], "unit": u} for k, u in END_TO_END_UNITS.items()}


def run_traced(bench: Bench) -> dict:
    """Set up, build and run one slice untraced, then again traced; the
    per-layer figures come from the traced pass and the overhead is the
    difference."""
    t0 = time.perf_counter()
    bench.setup()
    bench.build()
    bench.slice()
    plain = time.perf_counter() - t0
    reference = bench.outputs()
    bench.check_outputs()

    bench.tracer = Tracer()
    t0 = time.perf_counter()
    bench.setup()
    bench.build()
    bench.slice()
    traced = time.perf_counter() - t0
    if bench.outputs() != reference:
        bench.problems.append("traced pass wrote different outputs")
    bench.time_forward()
    bench.tracer.write(bench.out / "trace.jsonl")
    tokens = {b: sum(w for w, _ in bench.timings[f"generate_tokens_per_s_beam{b}"])
              for b in BEAMS}
    metrics = layer_metrics(bench.tracer.spans, tokens)
    metrics["trace.overhead_s"] = (traced - plain, "s")
    bench.slices = 1
    return {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    out = ROOT / "perfbench" / "out" / f"{args.workload}-s{args.seed}-t{args.trace}"
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    bench = Bench(args.workload, args.seed, out)
    try:
        metrics = run_traced(bench) if args.trace else run_untraced(bench, args.seconds)
    except CliFailed as err:
        print(f"perfbench: {err}", file=sys.stderr)
        return 1
    finally:
        bench.log.close()
    for problem in bench.problems[:20]:
        print(f"perfbench: check failed: {problem}", file=sys.stderr)
    env = environment(args)
    env["slices"] = bench.slices
    result = {"correct": not bench.problems, "attempted": bench.attempted,
              "failed": bench.failed, "metrics": metrics}
    (out / "result.json").write_text(json.dumps(
        {"environment": env, **result, "samples": bench.samples}, indent=2) + "\n")
    print("environment " + json.dumps(env, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
