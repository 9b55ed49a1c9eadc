"""The beam search, at every width.

The search is generic over a scorer of live prefixes, so tiny hand-built
and randomly drawn per-prefix distributions (conftest.rows_of adapts them)
serve as exact oracles: every complete hypothesis of a short problem can be
enumerated outright, and width 1 must equal conftest.greedy_reference.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from conftest import greedy_reference, log_softmax, model_step, rows_of

from subicap.model import decoding
from subicap.model.decoding import (
    Hypothesis,
    beam_rows_decode,
    beam_search,
    caption_regions,
    model_rows_fn,
)
from subicap.model.geometry import Region, RegionSet
from subicap.model.transformer import (
    BOS_ID,
    EOS_ID,
    PAD_ID,
    DecoderCache,
    ModelConfig,
    _decoder_fwd,
    decoder_forward,
    encoder_forward,
    init_params,
)

CFG = ModelConfig(vocab_size=9, d_model=8, n_enc_layers=1, n_dec_layers=1,
                  n_heads=2, d_ff=16, d_in=4, geo_embed_dim=4, max_seq_len=8)


def _random_regions(rng, n=3):
    return RegionSet([
        Region(*rng.uniform(0.2, 2.0, size=4), rng.normal(size=CFG.d_in))
        for _ in range(n)
    ])


def _random_step_fn(seed, vocab=5):
    """Deterministic random next-token distributions.

    Each prefix seeds its own generator so the distribution depends only
    on the prefix, not on the order callers happen to visit prefixes.
    """
    cache = {}

    def step(prefix):
        if prefix not in cache:
            rng = np.random.default_rng([seed, *prefix])
            logits = rng.normal(scale=2.0, size=vocab)
            cache[prefix] = logits - math.log(np.exp(logits).sum())
        return cache[prefix]

    return step


def _table_step_fn(table, vocab):
    """Explicit distributions; unlisted prefixes are near-impossible."""

    def step(prefix):
        probs = table.get(prefix, None)
        out = np.full(vocab, -1e9)
        if probs is not None:
            for tok, p in probs.items():
                out[tok] = math.log(p)
        return out

    return step


def decode(step_fn, beam, max_len):
    return beam_rows_decode(rows_of(step_fn), beam, max_len)


def documented_rank(h):
    """The module docstring's final ranking, as a sort key: normalized score
    descending, then fewer content tokens, then the smaller id sequence."""
    return -h.norm_score, len(h.token_ids), h.token_ids


def enumerate_best(step_fn, vocab, max_len):
    """Brute force over every complete hypothesis: sorted by the documented
    rank, the first."""
    complete = []

    def walk(prefix, content, logprob):
        if len(content) == max_len:
            complete.append(Hypothesis(tuple(content), logprob, finished=False))
            return
        logp = step_fn(prefix)
        for tok in range(vocab):
            lp = logprob + float(logp[tok])
            if tok == EOS_ID:
                complete.append(Hypothesis(tuple(content), lp, finished=True))
            else:
                walk(prefix + (tok,), content + [tok], lp)

    walk((1,), [], 0.0)  # BOS_ID
    return sorted(complete, key=documented_rank)[0]


def oracle_steps(step_fn, beam, max_len):
    """The candidates each step keeps, by sorting every one as a (-score,
    sequence) tuple: the rule the array search must reproduce."""
    live, steps = [((BOS_ID,), 0.0)], []
    for _ in range(max_len):
        cands = sorted((-(score + float(lp)), prefix + (tok,))
                       for prefix, score in live
                       for tok, lp in enumerate(step_fn(prefix)))
        steps.append([(seq, -neg) for neg, seq in cands[:beam] if neg != np.inf])
        live = [(seq, score) for seq, score in steps[-1] if seq[-1] != EOS_ID]
        if not live:
            break
    return steps


def oracle_stop_step(steps, max_len):
    """The first step of oracle_steps after which the search may stop: the
    best finished norm_score so far is strictly above the best live score
    over max_len. None if no step qualifies."""
    best = -np.inf
    for t, kept in enumerate(steps):
        best = max([best] + [Hypothesis(seq[1:-1], s, True).norm_score
                             for seq, s in kept if seq[-1] == EOS_ID])
        live = [s for seq, s in kept if seq[-1] != EOS_ID]
        if live and best > max(live) / max_len:
            return t
    return None


def oracle_best(steps, max_len):
    """The hypothesis a search that never stops early returns, from every
    step oracle_steps kept: the first by the documented rank."""
    ends = [Hypothesis(seq[1:-1], s, True) for kept in steps
            for seq, s in kept if seq[-1] == EOS_ID]
    ends += [Hypothesis(seq[1:], s, False) for seq, s in steps[-1]
             if seq[-1] != EOS_ID and len(steps) == max_len]
    return sorted(ends, key=documented_rank)[0]


def searched_steps(step_fn, beam, max_len):
    """(result, the prefixes the search expanded at each step, in order)."""
    seen = []

    def step(prefix):
        seen.append(prefix)
        return step_fn(prefix)

    hyp = decode(step, beam, max_len)
    return hyp, [[p for p in seen if len(p) == t] for t in range(1, max_len + 1)]


def _tied_step_fn(seed, vocab=6, levels=3, masked=0.0):
    """Log-probs drawn from a few integer levels, so exact ties are common;
    a share `masked` of the ids other than <eos> score -inf."""

    def step(prefix):
        rng = np.random.default_rng([seed, *prefix])
        out = -rng.integers(0, levels, size=vocab).astype(float)
        out[(rng.random(vocab) < masked) & (np.arange(vocab) != EOS_ID)] = -np.inf
        return out

    return step


class TestHypothesis:
    def test_norm_counts_eos_as_generated(self):
        fin = Hypothesis((5, 6), -3.0, finished=True)
        assert fin.n_generated == 3
        assert fin.norm_score == pytest.approx(-1.0)

    def test_unfinished_normalizes_by_content(self):
        h = Hypothesis((5, 6), -3.0, finished=False)
        assert h.n_generated == 2
        assert h.norm_score == pytest.approx(-1.5)

    def test_empty_hypothesis_safe(self):
        assert Hypothesis((), -1.0, finished=False).norm_score == pytest.approx(-1.0)


class TestGreedyStepDecode:
    """Width 1 follows the argmax chain."""

    def test_follows_argmax_chain(self):
        table = {
            (1,): {3: 0.7, 4: 0.3},
            (1, 3): {4: 0.6, 2: 0.4},
            (1, 3, 4): {2: 0.9, 3: 0.1},
        }
        hyp = decode(_table_step_fn(table, 5), beam=1, max_len=10)
        assert hyp.token_ids == (3, 4)
        assert hyp.finished
        assert hyp.logprob == pytest.approx(math.log(0.7 * 0.6 * 0.9))

    def test_stops_at_max_len(self):
        table = {(1,) + (3,) * k: {3: 1.0} for k in range(10)}
        hyp = decode(_table_step_fn(table, 5), beam=1, max_len=4)
        assert hyp.token_ids == (3, 3, 3, 3)
        assert not hyp.finished

    def test_immediate_eos(self):
        hyp = decode(_table_step_fn({(1,): {2: 0.9, 3: 0.1}}, 5), beam=1, max_len=8)
        assert hyp.token_ids == ()
        assert hyp.finished
        assert hyp.logprob == pytest.approx(math.log(0.9))


class TestBeamEqualsGreedyAtWidthOne:
    def test_on_100_random_step_functions(self):
        for seed in range(100):
            step = _random_step_fn(seed)
            g = greedy_reference(_random_step_fn(seed), max_len=6)
            b = decode(step, beam=1, max_len=6)
            assert b.token_ids == g.token_ids, seed
            assert b.finished == g.finished
            assert b.logprob == pytest.approx(g.logprob, abs=1e-12)

    def test_on_real_models(self):
        for seed in range(10):
            rng = np.random.default_rng(seed)
            params = init_params(CFG, seed=seed)
            q = encoder_forward(_random_regions(rng), params, CFG)
            g = greedy_reference(model_step(q, params, CFG), max_len=6)
            b = beam_search(q, params, CFG, beam=1, max_len=6)
            assert b.token_ids == g.token_ids
            assert b.logprob == pytest.approx(g.logprob, abs=1e-12)
            assert b.finished == g.finished


class TestBeamFindsBetterSequences:
    def test_greedy_trap(self):
        """The locally best first token leads to a worse completion.

        First step: A=0.6, B=0.4. After A, <eos> has 0.5; after B it has
        0.9. Greedy takes [A] at probability 0.30 while the beam surfaces
        [B] at 0.36.
        """
        table = {
            (1,): {3: 0.6, 4: 0.4},
            (1, 3): {2: 0.5, 3: 0.25, 4: 0.25},
            (1, 4): {2: 0.9, 3: 0.05, 4: 0.05},
        }
        greedy = greedy_reference(_table_step_fn(table, 5), max_len=5)
        beam = decode(_table_step_fn(table, 5), beam=2, max_len=5)
        assert decode(_table_step_fn(table, 5), beam=1, max_len=5) == greedy
        assert greedy.token_ids == (3,)
        assert greedy.logprob == pytest.approx(math.log(0.30))
        assert beam.token_ids == (4,)
        assert beam.logprob == pytest.approx(math.log(0.36))
        assert beam.logprob > greedy.logprob

    def test_wide_beam_matches_exhaustive_enumeration(self):
        """With the beam wider than the whole search tree nothing is ever
        pruned, so the result must equal the brute-force optimum, exact
        score ties included."""
        for make_step in (_random_step_fn,
                          lambda seed: _tied_step_fn(seed, vocab=5, levels=2)):
            for seed in range(25):
                step = make_step(seed)
                want = enumerate_best(make_step(seed), vocab=5, max_len=3)
                got = decode(step, beam=1000, max_len=3)
                assert got.token_ids == want.token_ids, seed
                assert got.finished == want.finished
                assert got.logprob == pytest.approx(want.logprob, abs=1e-12)

    def test_finished_ranking_uses_normalized_score(self):
        # [3] at p .09 (norm log .09 / 2) loses to [4 4] at p .064
        # (norm log .064 / 3): longer but denser
        table = {
            (1,): {3: 0.3, 4: 0.4, 0: 0.3},
            (1, 3): {2: 0.3, 3: 0.35, 4: 0.35},
            (1, 4): {4: 0.4, 2: 0.1, 3: 0.5},
            (1, 4, 4): {2: 0.4, 3: 0.3, 4: 0.3},
        }
        beam = decode(_table_step_fn(table, 5), beam=2, max_len=3)
        assert math.exp(beam.norm_score) > math.exp(math.log(0.09) / 2)


class TestTieRule:
    """Ties rank by token sequence ascending, wherever they fall."""

    def assert_follows_oracle(self, step_fn, beam, max_len):
        """The search runs a prefix of the oracle's steps, each expanding
        the oracle's live prefixes, and stops after the first step at which
        the stopping condition holds on the oracle's lists, or when the
        oracle runs out of live prefixes or steps."""
        want = oracle_steps(step_fn, beam, max_len)
        hyp, expanded = searched_steps(step_fn, beam, max_len)
        stop = oracle_stop_step(want, max_len)
        ran = len(want) if stop is None else stop + 1
        assert [bool(rows) for rows in expanded] == [t < ran for t in range(max_len)]
        for t, kept in enumerate(want[: ran - 1]):  # the last is not run
            assert expanded[t + 1] == sorted(seq for seq, _ in kept
                                             if seq[-1] != EOS_ID), t
        return want, hyp

    def test_tie_within_one_row(self):
        table = {(1,): {5: 0.3, 4: 0.3, 3: 0.3, 2: 0.1},
                 (1, 3): {2: 1.0}, (1, 4): {2: 1.0}, (1, 5): {2: 1.0}}
        want, _ = self.assert_follows_oracle(_table_step_fn(table, 6), 2, 3)
        assert [seq for seq, _ in want[0]] == [(1, 3), (1, 4)]

    def test_tie_across_two_live_prefixes(self):
        # all four second-step candidates score log .4 + log .5
        table = {(1,): {3: 0.4, 4: 0.4, 2: 0.2},
                 (1, 3): {5: 0.5, 4: 0.5}, (1, 4): {3: 0.5, 5: 0.5}}
        want, _ = self.assert_follows_oracle(_table_step_fn(table, 6), 2, 3)
        assert [seq for seq, _ in want[1]] == [(1, 3, 4), (1, 3, 5)]

    def test_tie_at_the_kth_boundary(self):
        # one clear winner, then the 2nd-best score shared by four ids
        table = {(1,): {5: 0.4, 2: 0.15, 3: 0.15, 4: 0.15, 6: 0.15}}
        want, _ = self.assert_follows_oracle(_table_step_fn(table, 7), 3, 2)
        assert [seq for seq, _ in want[0]] == [(1, 5), (1, 2), (1, 3)]

    def test_random_tied_step_functions(self):
        for seed in range(60):
            step = _tied_step_fn(seed, masked=0.3)
            for beam in (1, 2, 3, 4, 7):
                want, hyp = self.assert_follows_oracle(step, beam, 4)
                assert hyp == oracle_best(want, 4), (seed, beam)

    @pytest.mark.parametrize("beam", [1, 2, 4])
    def test_final_tie_goes_to_the_smaller_sequence(self, beam):
        # (3,) and (4,) both finish with log .5 over two generated tokens
        table = {(1,): {3: 0.5, 4: 0.5}, (1, 3): {2: 1.0}, (1, 4): {2: 1.0}}
        hyp = decode(_table_step_fn(table, 5), beam, 3)
        assert (hyp.token_ids, hyp.finished) == ((3,), True)
        assert hyp == enumerate_best(_table_step_fn(table, 5), 5, 3)

    @pytest.mark.parametrize("beam", [1, 2, 4, 20])
    def test_never_keeps_a_minus_inf_candidate(self, beam):
        for seed in range(25):
            step = _tied_step_fn(seed, masked=0.5)
            hyp, expanded = searched_steps(step, beam, 4)
            assert math.isfinite(hyp.logprob)
            for prefix in (p for rows in expanded[1:] for p in rows):
                assert step(prefix[:-1])[prefix[-1]] > -np.inf, (seed, prefix)


def counted_rows(step_fn):
    """(a RowsFn over step_fn, the list its calls append to)."""
    calls = []
    rows = rows_of(step_fn)

    def counted(prefixes, parents):
        calls.append(len(prefixes))
        return rows(prefixes, parents)

    return counted, calls


def _peaked_step_fn(seed, vocab, levels, masked):
    """Log-softmax of random logits; with `levels`, the logits are rounded
    to that many integer values, so exact ties are common; a share `masked`
    of the ids other than <eos> score -inf."""

    def step(prefix):
        rng = np.random.default_rng([seed, *prefix])
        logits = rng.normal(scale=3.0, size=vocab)
        if levels:
            logits = np.round(logits).clip(-levels, levels)
        out = log_softmax(logits)
        out[(rng.random(vocab) < masked) & (np.arange(vocab) != EOS_ID)] = -np.inf
        return out

    return step


class TestEarlyStop:
    """The search returns once the best finished hypothesis's norm_score is
    strictly above every live score over max_len."""

    def test_stops_after_the_winner_finishes(self):
        table = {(1,): {EOS_ID: 0.9, 3: 0.1}}
        rows, calls = counted_rows(_table_step_fn(table, 5))
        hyp = beam_rows_decode(rows, beam=2, max_len=10)
        assert (hyp.token_ids, hyp.finished) == ((), True)
        assert hyp.logprob == math.log(0.9)
        assert calls == [1]
        # without the stop, the live (3,) would run on to max_len
        assert len(oracle_steps(_table_step_fn(table, 5), 2, 10)) == 10

    def test_a_tie_at_the_bound_does_not_stop(self):
        # after step 0, () has finished at -1 / 1 and (3,) is live at -2,
        # whose bound -2 / max_len is exactly -1: the search runs on
        logp = {(1,): [-np.inf, -np.inf, -1.0, -2.0], (1, 3): [-np.inf, -np.inf, 0.0, -5.0]}
        rows, calls = counted_rows(lambda prefix: np.array(logp[prefix]))
        hyp = beam_rows_decode(rows, beam=2, max_len=2)
        assert calls == [1, 1]
        # (3,) finishes at -2 / 2, tying (); fewer content tokens wins
        assert hyp == Hypothesis((), -1.0, True)
        # a bound just below the finished score stops at once
        logp[(1,)][3] = -2.0000000000000004
        rows, calls = counted_rows(lambda prefix: np.array(logp[prefix]))
        assert beam_rows_decode(rows, beam=2, max_len=2) == hyp
        assert calls == [1]

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 2**32 - 1), vocab=st.integers(3, 7),
           levels=st.sampled_from([0, 1, 2, 4]), masked=st.sampled_from([0.0, 0.3]),
           beam=st.integers(1, 7), max_len=st.integers(1, 8))
    def test_equals_the_search_without_the_stop(self, seed, vocab, levels,
                                                masked, beam, max_len):
        step = _peaked_step_fn(seed, vocab, levels, masked)
        want = oracle_steps(step, beam, max_len)
        assert decode(step, beam, max_len) == oracle_best(want, max_len)

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 2**32 - 1), scale=st.sampled_from([1.0, 30.0, 1e3]),
           banned=st.booleans(), beam=st.integers(1, 4))
    def test_model_rows_are_never_above_zero(self, seed, scale, banned, beam):
        """The bound's premise on the real scorer: every entry of
        model_rows_fn's rows is <= 0 or -inf, here on random models whose
        output head is scaled up so that some distributions peak hard."""
        rng = np.random.default_rng(seed)
        params = init_params(CFG, seed=seed % 1000)
        params = {**params, "out.W": params["out.W"] * scale}
        q = encoder_forward(_random_regions(rng), params, CFG)
        first_banned = rng.random(CFG.vocab_size) < 0.5 if banned else None
        rows_fn = model_rows_fn(q, params, CFG, first_banned)
        seen = []

        def checked(prefixes, parents):
            out = rows_fn(prefixes, parents)
            seen.append(out.max())
            assert not np.isnan(out).any() and np.all(out <= 0.0)
            return out

        beam_rows_decode(checked, beam, CFG.max_seq_len - 1)
        assert seen


def _parent_events(n_prev, parents):
    """Which of: a row continues another row's slot, a parent is continued
    twice, a row of the previous call is dropped."""
    events = set()
    if not np.array_equal(parents, np.arange(len(parents))):
        events.add("moved")
    if len(set(parents.tolist())) < len(parents):
        events.add("twice")
    if len(set(parents.tolist())) < n_prev:
        events.add("dropped")
    return events


class TestBatchedRows:
    def test_rows_equal_the_per_prefix_decoder(self):
        """The cached scorer, driven through whole searches at widths 1, 2
        and 4 (whose rows move, are continued twice and are dropped) and
        through random walks that also permute rows, gives every row its
        own prefix's log_softmax(decoder_forward(q, prefix)[-1]), with
        first_banned applied, to 1e-12."""
        banned = np.zeros(CFG.vocab_size, dtype=bool)
        banned[[3, 7]] = True
        events = set()
        for seed in range(10):
            rng = np.random.default_rng(seed)
            params = init_params(CFG, seed=seed)
            q = encoder_forward(_random_regions(rng, n=2 + seed % 3), params, CFG)
            step = model_step(q, params, CFG, banned)

            def checked(seen):
                rows_fn, n_prev = model_rows_fn(q, params, CFG, banned), [1]

                def rows(prefixes, parents):
                    seen.update(_parent_events(n_prev[0], parents))
                    n_prev[0] = len(prefixes)
                    got = rows_fn(prefixes, parents)
                    for row, prefix in zip(got, prefixes.tolist()):
                        want = step(tuple(prefix))
                        finite = np.isfinite(want)
                        assert np.array_equal(np.isfinite(row), finite)
                        assert np.max(np.abs(row[finite] - want[finite])) <= 1e-12
                    return got

                return rows

            for beam in (1, 2, 4):
                beam_rows_decode(checked(events), beam, CFG.max_seq_len)
            rows = checked(set())
            prefixes, parents = np.array([[BOS_ID]]), np.zeros(1, dtype=np.int64)
            for _ in range(CFG.max_seq_len):
                rows(prefixes, parents)
                parents = rng.integers(0, len(prefixes), size=rng.integers(1, 5))
                tokens = rng.integers(EOS_ID + 1, CFG.vocab_size, size=len(parents))
                prefixes = np.column_stack([prefixes[parents], tokens])
        assert events == {"moved", "twice", "dropped"}  # the searches did each

    def test_rows_reject_overlong_prefixes(self):
        params = init_params(CFG, seed=0)
        q = encoder_forward(_random_regions(np.random.default_rng(0)), params, CFG)
        with pytest.raises(ValueError, match="max_seq_len"):
            model_rows_fn(q, params, CFG)(np.ones((2, CFG.max_seq_len + 1), int),
                                          np.zeros(2, int))

    @pytest.mark.parametrize("beam", [1, 2, 4])
    def test_model_runs_once_per_search_step(self, beam, monkeypatch):
        """However many beams are live, each search step is one decoder
        pass over at most `beam` rows, each carrying exactly one new
        position, the step's own; the per-prefix decoder never runs."""
        calls = []

        def counted(q, inputs, region_mask, params, cfg, cache, start):
            calls.append((inputs.shape, start))
            return real(q, inputs, region_mask, params, cfg, cache, start)

        real = decoding._decoder_fwd
        monkeypatch.setattr(decoding, "_decoder_fwd", counted)
        monkeypatch.setattr(decoding, "decoder_forward", None)
        widest = 0
        for seed in range(6):
            rng = np.random.default_rng(seed)
            params = init_params(CFG, seed=seed)
            calls.clear()
            caption_regions(_random_regions(rng), params, CFG, beam=beam,
                            max_len=6)
            assert [start for _, start in calls] == list(range(len(calls)))
            for n_rows, width in (shape for shape, _ in calls):
                assert 1 <= n_rows <= beam
                assert width == 1
            widest = max(widest, max(shape[0] for shape, _ in calls))
        assert widest == beam


class TestBeamValidation:
    def test_rejects_bad_widths(self):
        step = _random_step_fn(0)
        with pytest.raises(ValueError):
            decode(step, beam=0, max_len=5)
        with pytest.raises(ValueError):
            decode(step, beam=2, max_len=0)
        with pytest.raises(ValueError):
            decode(step, beam=1, max_len=0)


class TestModelStepFn:
    """model_rows_fn on one prefix."""

    def test_returns_normalized_log_probs(self):
        """The model's log-softmax over every id, with <pad> and <bos>
        masked to -inf afterwards, not renormalized."""
        rng = np.random.default_rng(2)
        params = init_params(CFG, seed=2)
        q = encoder_forward(_random_regions(rng), params, CFG)
        prefix = np.array([[1, 5, 6]])
        rows, cache = model_rows_fn(q, params, CFG), DecoderCache()
        for t in range(3):
            logp = rows(prefix[:, : t + 1], np.zeros(1, int))[0]
            h, _ = _decoder_fwd(q, prefix[:, t : t + 1], None, params, CFG, cache, t)
        want = log_softmax(h[-1] @ params["out.W"])
        assert logp.shape == (CFG.vocab_size,)
        assert np.exp(want).sum() == pytest.approx(1.0)
        assert logp[PAD_ID] == logp[BOS_ID] == -np.inf
        assert np.array_equal(logp[EOS_ID:], want[EOS_ID:])
        per_prefix = log_softmax(decoder_forward(q, (1, 5, 6), params, CFG)[-1])
        assert np.max(np.abs(logp[EOS_ID:] - per_prefix[EOS_ID:])) <= 1e-12

    def test_first_banned_masks_the_first_position_only(self):
        rng = np.random.default_rng(3)
        params = init_params(CFG, seed=3)
        q = encoder_forward(_random_regions(rng), params, CFG)
        banned = np.zeros(CFG.vocab_size, dtype=bool)
        banned[[4, 6]] = True
        plain = model_rows_fn(q, params, CFG)
        masked = model_rows_fn(q, params, CFG, banned)
        root = np.zeros(1, int)
        first = masked(np.array([[BOS_ID]]), root)[0]
        assert np.all(first[banned] == -np.inf)
        keep = ~banned
        assert np.array_equal(first[keep], plain(np.array([[BOS_ID]]), root)[0][keep])
        later = np.array([[BOS_ID, 4]])
        assert np.array_equal(masked(later, root), plain(later, root))


class TestMaskedDecoding:
    def test_never_emits_a_masked_token(self):
        """Random models at every width, with every id but <eos> and one
        piece barred from opening the caption: captions hold no control
        token, open with the allowed piece or are empty, and score as the
        model's unmasked log-probs of their tokens."""
        banned = np.ones(CFG.vocab_size, dtype=bool)
        banned[[EOS_ID, 5]] = False
        for seed in range(6):
            rng = np.random.default_rng(seed)
            params = init_params(CFG, seed=seed)
            regions = _random_regions(rng)
            q = encoder_forward(regions, params, CFG)
            for beam in (1, 2, 4, 20):
                hyp = caption_regions(regions, params, CFG, beam=beam,
                                      max_len=5, first_banned=banned)
                assert not {PAD_ID, BOS_ID} & set(hyp.token_ids)
                assert hyp.token_ids[:1] in ((), (5,))
                ids = (BOS_ID,) + hyp.token_ids
                targets = hyp.token_ids + ((EOS_ID,) if hyp.finished else ())
                logp = np.array([log_softmax(row) for row in
                                 decoder_forward(q, ids, params, CFG)])
                assert hyp.logprob == pytest.approx(
                    sum(logp[t, tok] for t, tok in enumerate(targets)), abs=1e-9)

    def test_beam_wider_than_the_allowed_candidates_keeps_none_masked(self):
        """A -inf candidate never takes a beam slot, so no prefix holding a
        masked token is ever extended."""
        table = {(1,): {3: 0.5, 4: 0.5}, (1, 3): {2: 0.5, 4: 0.5},
                 (1, 4): {2: 0.5, 3: 0.5}}
        seen = []

        def step(prefix):
            seen.append(prefix)
            out = _table_step_fn(table, 5)(prefix)
            out[[0, 1]] = -np.inf
            return out

        hyp = decode(step, beam=5, max_len=3)
        assert math.isfinite(hyp.logprob)
        assert not any({0, 1} & set(prefix[1:]) for prefix in seen)


class TestCaptionRegions:
    def test_beam_one_is_greedy(self):
        rng = np.random.default_rng(4)
        params = init_params(CFG, seed=4)
        regions = _random_regions(rng)
        a = caption_regions(regions, params, CFG, beam=1, max_len=5)
        q = encoder_forward(regions, params, CFG)
        b = greedy_reference(model_step(q, params, CFG), max_len=5)
        assert a.token_ids == b.token_ids

    def test_respects_max_len(self):
        rng = np.random.default_rng(5)
        params = init_params(CFG, seed=5)
        hyp = caption_regions(_random_regions(rng), params, CFG, beam=2,
                              max_len=3)
        assert len(hyp.token_ids) <= 3
        assert all(0 <= t < CFG.vocab_size for t in hyp.token_ids)
