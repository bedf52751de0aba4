import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import per_quadrat
from quadflora.errors import (
    ConfigError,
    MissingGroupError,
    SelectionError,
    UnattainableTargetError,
)
from quadflora.selection import (
    CandidateSet,
    PredictionSet,
    SelectionConfig,
    _flatten,
    _zscored,
    apply_threshold,
    bisect_threshold,
    collect_candidates,
    length_steps,
    mean_prediction_length,
    metadata_merge,
    select_corpus,
    zscore_normalize,
)


def cands(qid, mapping):
    return CandidateSet(quadrat_id=qid, entries=dict(mapping))


def oracle_mean_length(corpus, tau, cfg):
    """Mean prediction length straight from the per-quadrat apply_threshold."""
    return float(
        np.mean([len(per_quadrat.apply_threshold(c, tau, cfg).species) for c in corpus])
    )


def _halving_threshold(corpus, target, cfg, iters=64):
    """The former threshold search (64 halvings, then a discrete
    bisection over the scores left in the bracket), kept as an oracle."""
    if not corpus:
        raise SelectionError("empty corpus")
    if target < cfg.min_len:
        raise ConfigError(f"target {target} below min_len {cfg.min_len}")
    all_scores = np.concatenate([c.scores() for c in corpus])
    lo = float(all_scores.min()) - 1.0
    hi = float(all_scores.max())
    if oracle_mean_length(corpus, lo, cfg) < target:
        raise UnattainableTargetError(
            f"target mean length {target} exceeds what keeping all candidates yields"
        )
    if oracle_mean_length(corpus, hi, cfg) >= target:
        return hi
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:  # bracket exhausted float resolution
            break
        if oracle_mean_length(corpus, mid, cfg) >= target:
            lo = mid
        else:
            hi = mid
    inside = np.unique(all_scores[(all_scores >= lo) & (all_scores < hi)])
    lo_i, hi_i = 0, len(inside) - 1
    best = None
    while lo_i <= hi_i:
        mid_i = (lo_i + hi_i) // 2
        if oracle_mean_length(corpus, float(inside[mid_i]), cfg) >= target:
            best = float(inside[mid_i])
            lo_i = mid_i + 1
        else:
            hi_i = mid_i - 1
    return lo if best is None else best


@st.composite
def calibration_cases(draw):
    """A corpus with ties within and across quadrats (scores on a grid of
    quarters, optionally z-scored) and length bounds to go with it."""
    min_len = draw(st.integers(1, 3))
    max_len = draw(st.one_of(st.none(), st.integers(min_len, min_len + 3)))
    sets = draw(
        st.lists(
            st.lists(st.integers(-12, 12), min_size=1, max_size=7),
            min_size=1,
            max_size=8,
        )
    )
    corpus = [
        cands(f"q{i}", {j: q / 4.0 for j, q in enumerate(qs)}) for i, qs in enumerate(sets)
    ]
    if draw(st.booleans()):
        corpus = [zscore_normalize(c) for c in corpus]
    return corpus, SelectionConfig(min_len=min_len, max_len=max_len)


def probe_levels(corpus, cfg):
    """Oracle: the mean-length step function from the per-quadrat
    apply_threshold, at every candidate score and just below the minimum."""
    scores = sorted({v for c in corpus for v in c.entries.values()})
    probes = [scores[0] - 1.0] + scores
    return {t: oracle_mean_length(corpus, t, cfg) for t in probes}


def fused_tile(argmax_species, score, n=6):
    v = np.full(n, score - 1.0)
    v[argmax_species] = score
    return v


class TestCollect:
    def test_max_merge(self):
        tiles = [fused_tile(1, -2.0), fused_tile(1, -1.0), fused_tile(4, -3.0)]
        out = collect_candidates(np.vstack(tiles), "q")
        assert out.entries == {1: -1.0, 4: -3.0}

    def test_single_tile(self):
        out = collect_candidates(fused_tile(2, -0.5)[None], "q")
        assert out.entries == {2: -0.5}

    def test_scale_bound_on_candidates(self):
        rng = np.random.default_rng(0)
        out = collect_candidates(rng.standard_normal((16 + 25, 60)) - 60, "q")
        assert 1 <= len(out.entries) <= 41

    def test_raw_channel_uses_species_logits(self):
        # raw species logits are taken as they are, like fused log-scores
        out = collect_candidates(np.array([[0.5, 3.0, 1.0]]), "q")
        assert out.entries == {1: 3.0}

    def test_empty(self):
        with pytest.raises(SelectionError):
            collect_candidates(np.zeros((0, 6)), "q")


class TestZScore:
    def test_hand_example(self):
        c = cands("q", {0: 1.0, 1: 2.0, 2: 3.0})
        # oracle: population std of [1,2,3]
        std = math.sqrt(((1 - 2) ** 2 + 0 + (3 - 2) ** 2) / 3)
        out = zscore_normalize(c)
        np.testing.assert_allclose(
            [out.entries[i] for i in (0, 1, 2)],
            [(1 - 2) / std, 0.0, (3 - 2) / std],
            atol=1e-12,
        )
        np.testing.assert_allclose(
            [out.entries[0], out.entries[2]], [-1.2247, 1.2247], atol=1e-3
        )

    def test_zero_variance(self):
        out = zscore_normalize(cands("q", {0: 2.0, 1: 2.0, 5: 2.0}))
        assert all(v == 0.0 for v in out.entries.values())

    def test_singleton_unchanged(self):
        c = cands("q", {3: 1.5})
        assert zscore_normalize(c) is c


class TestApplyThreshold:
    def test_plain_filter(self):
        c = cands("q", {0: 0.9, 1: 0.5, 2: 0.1})
        out = apply_threshold(c, 0.45, SelectionConfig())
        assert out.species == (0, 1)

    def test_backfill_to_min_len(self):
        c = cands("q", {0: 0.9, 1: 0.5})
        out = apply_threshold(c, 2.0, SelectionConfig())
        assert out.species == (0,)

    def test_max_len_truncation(self):
        c = cands("q", {i: 1.0 - i / 100 for i in range(10)})
        out = apply_threshold(c, float("-inf"), SelectionConfig(max_len=9))
        assert out.species == tuple(range(9))

    def test_strict_inequality(self):
        c = cands("q", {0: 1.0, 1: 0.5})
        out = apply_threshold(c, 0.5, SelectionConfig())
        assert out.species == (0,)

    def test_tie_break_prefers_low_id(self):
        c = cands("q", {4: 1.0, 2: 1.0, 7: 1.0})
        out = apply_threshold(c, float("-inf"), SelectionConfig(max_len=2))
        assert out.species == (2, 4)

    def test_nan_threshold_is_config_error(self):
        c = cands("a", {0: 1.0, 1: 0.5})
        with pytest.raises(ConfigError, match="threshold must be a number, got nan"):
            apply_threshold(c, math.nan, SelectionConfig())
        assert apply_threshold(c, -math.inf, SelectionConfig()).species == (0, 1)

    def test_size_bounds_property(self):
        rng = np.random.default_rng(1)
        cfg = SelectionConfig(max_len=5, min_len=2)
        for _ in range(50):
            n = int(rng.integers(2, 12))
            c = cands("q", {i: float(rng.standard_normal()) for i in range(n)})
            tau = float(rng.standard_normal())
            size = len(apply_threshold(c, tau, cfg).species)
            assert 2 <= size <= 5


class TestBisect:
    def corpus(self):
        return [
            cands("a", {0: 0.9, 1: 0.5, 2: 0.1}),
            cands("b", {3: 0.8, 4: 0.4}),
            cands("c", {5: 0.7}),
        ]

    def test_target_two(self):
        cfg = SelectionConfig()
        corpus = self.corpus()
        tau = bisect_threshold(corpus, 2.0, cfg)
        levels = probe_levels(corpus, cfg)
        expected = min(v for v in levels.values() if v >= 2.0)
        assert mean_prediction_length(corpus, tau, cfg) == expected == 2.0
        assert tau < 0.1

    def test_target_four_thirds(self):
        cfg = SelectionConfig()
        corpus = self.corpus()
        tau = bisect_threshold(corpus, 4.0 / 3.0, cfg)
        levels = probe_levels(corpus, cfg)
        expected = min(v for v in levels.values() if v >= 4.0 / 3.0)
        achieved = mean_prediction_length(corpus, tau, cfg)
        assert achieved == expected == pytest.approx(4.0 / 3.0)
        assert 0.4 <= tau < 0.5

    def test_unattainable(self):
        with pytest.raises(UnattainableTargetError):
            bisect_threshold(self.corpus(), 3.5, SelectionConfig())

    def test_nan_target_is_config_error(self):
        with pytest.raises(ConfigError, match="got nan"):
            bisect_threshold(self.corpus(), math.nan, SelectionConfig())
        with pytest.raises(ConfigError, match="got nan"):
            bisect_threshold([cands("a", {0: 1.0, 1: 0.5})], float("nan"), SelectionConfig())

    def test_infinite_target_is_config_error(self):
        for target in (math.inf, -math.inf):
            with pytest.raises(ConfigError, match=f"finite number, got {target}"):
                bisect_threshold([cands("a", {0: 1.0, 1: 0.5})], target, SelectionConfig())

    def test_mean_length_at_nan_threshold_is_config_error(self):
        corpus = [cands("a", {0: 1.0, 1: 0.5})]
        with pytest.raises(ConfigError, match="threshold must be a number, got nan"):
            mean_prediction_length(corpus, math.nan, SelectionConfig())
        assert mean_prediction_length(corpus, -math.inf, SelectionConfig()) == 2.0

    def test_target_below_min_len(self):
        with pytest.raises(ConfigError):
            bisect_threshold(self.corpus(), 0.5, SelectionConfig())

    def test_mean_len_non_increasing(self):
        rng = np.random.default_rng(5)
        corpus = [
            cands(f"q{i}", {j: float(rng.standard_normal()) for j in range(rng.integers(1, 9))})
            for i in range(20)
        ]
        cfg = SelectionConfig()
        scores = sorted({v for c in corpus for v in c.entries.values()})
        values = [mean_prediction_length(corpus, t, cfg) for t in [scores[0] - 1] + scores]
        assert all(a >= b for a, b in zip(values, values[1:]))
        assert min(values) >= cfg.min_len

    def test_monotone_transform_keeps_step_level(self):
        cfg = SelectionConfig()
        corpus = self.corpus()
        for transform in (lambda x: math.exp(x), lambda x: 3 * x + 7):
            mapped = [
                cands(c.quadrat_id, {s: transform(v) for s, v in c.entries.items()})
                for c in corpus
            ]
            for target in (1.0, 4.0 / 3.0, 2.0):
                a = mean_prediction_length(
                    corpus, bisect_threshold(corpus, target, cfg), cfg
                )
                b = mean_prediction_length(
                    mapped, bisect_threshold(mapped, target, cfg), cfg
                )
                assert a == b

    @settings(max_examples=200, deadline=None)
    @given(case=calibration_cases())
    def test_mean_length_matches_apply_threshold(self, case):
        corpus, cfg = case
        for tau, level in probe_levels(corpus, cfg).items():
            assert mean_prediction_length(corpus, tau, cfg) == level

    @staticmethod
    def target_between_levels(levels, cfg, target_step):
        low, top = min(levels.values()), max(levels.values())
        return max(float(cfg.min_len), low + (top - low) * target_step / 10.0)

    @settings(max_examples=200, deadline=None)
    @given(case=calibration_cases(), target_step=st.integers(0, 10))
    def test_bisect_matches_sweep_oracle(self, case, target_step):
        corpus, cfg = case
        levels = probe_levels(corpus, cfg)
        target = self.target_between_levels(levels, cfg, target_step)
        if target > max(levels.values()):  # every quadrat has fewer than min_len
            with pytest.raises(UnattainableTargetError):
                bisect_threshold(corpus, target, cfg)
            return
        tau = bisect_threshold(corpus, target, cfg)
        achieved = oracle_mean_length(corpus, tau, cfg)
        assert achieved == min(v for v in levels.values() if v >= target)

    @settings(max_examples=300, deadline=None)
    @given(case=calibration_cases(), target_step=st.integers(0, 11))
    def test_closed_form_matches_halving_search(self, case, target_step):
        corpus, cfg = case
        levels = probe_levels(corpus, cfg)
        target = self.target_between_levels(levels, cfg, target_step)
        if target_step == 11:
            target = max(float(cfg.min_len), max(levels.values()) + 0.5)
        try:
            old = _halving_threshold(corpus, target, cfg)
        except UnattainableTargetError:
            with pytest.raises(UnattainableTargetError):
                bisect_threshold(corpus, target, cfg)
            return
        new = bisect_threshold(corpus, target, cfg)
        assert [apply_threshold(c, new, cfg) for c in corpus] == [
            apply_threshold(c, old, cfg) for c in corpus
        ]
        scores = {v for c in corpus for v in c.entries.values()}
        if np.nextafter(old, np.inf) in scores or old == max(scores):
            assert np.float64(new).view(np.int64) == np.float64(old).view(np.int64)

    def test_all_sets_empty(self):
        corpus = [cands("a", {}), cands("b", {})]
        for call in (
            lambda: bisect_threshold(corpus, 1.0, SelectionConfig()),
            lambda: mean_prediction_length(corpus, 0.0, SelectionConfig()),
        ):
            with pytest.raises(SelectionError, match="empty candidate set for a"):
                call()

    def test_one_set_empty(self):
        corpus = [cands("a", {0: 0.5}), cands("b", {}), cands("c", {})]
        for call in (
            lambda: bisect_threshold(corpus, 1.0, SelectionConfig()),
            lambda: mean_prediction_length(corpus, 0.0, SelectionConfig()),
        ):
            with pytest.raises(SelectionError, match="empty candidate set for b"):
                call()


class TestMetadataMerge:
    def preds(self, spec):
        return [PredictionSet(qid, tuple(sorted(ids))) for qid, ids in spec]

    def test_broadcast_over_group(self):
        preds = self.preds(
            [("q0", {7}), ("q1", {7}), ("q2", {7}), ("q3", {7, 2}), ("q4", {3})]
        )
        groups = {f"q{i}": "plot" for i in range(5)}
        out = metadata_merge(preds, groups, 3)
        # oracle: species 7 appears in 4 > 3 members, so everywhere
        assert all(7 in p.species for p in out)
        assert out[4].species == (3, 7)

    def test_exactly_k_no_change(self):
        preds = self.preds([("q0", {1}), ("q1", {1}), ("q2", {1}), ("q3", {2})])
        groups = {f"q{i}": "plot" for i in range(4)}
        out = metadata_merge(preds, groups, 3)
        assert [p.species for p in out] == [(1,), (1,), (1,), (2,)]

    def test_singleton_groups(self):
        preds = self.preds([("q0", {1, 2}), ("q1", {3})])
        groups = {"q0": "a", "q1": "b"}
        out = metadata_merge(preds, groups, 1)
        assert [p.species for p in out] == [(1, 2), (3,)]

    def test_missing_group(self):
        with pytest.raises(MissingGroupError):
            metadata_merge(self.preds([("q0", {1})]), {}, 3)

    def test_idempotent(self):
        rng = np.random.default_rng(13)
        preds = self.preds(
            [(f"q{i}", set(rng.choice(10, rng.integers(1, 5), replace=False).tolist()))
             for i in range(12)]
        )
        groups = {f"q{i}": f"g{i % 3}" for i in range(12)}
        once = metadata_merge(preds, groups, 2)
        twice = metadata_merge(once, groups, 2)
        assert [p.species for p in once] == [p.species for p in twice]


class TestConfig:
    def test_both_thresholds_rejected(self):
        with pytest.raises(ConfigError):
            SelectionConfig(min_logit=0.1, target_mean_len=4.0)

    def test_min_above_max(self):
        with pytest.raises(ConfigError):
            SelectionConfig(min_len=5, max_len=3)

    def test_bad_channel(self):
        with pytest.raises(ConfigError):
            SelectionConfig(channel="hybrid")

    def test_target_below_min_len(self):
        with pytest.raises(ConfigError):
            SelectionConfig(target_mean_len=0.5)

    def test_prediction_set_validation(self):
        with pytest.raises(SelectionError):
            PredictionSet("q", ())
        with pytest.raises(SelectionError):
            PredictionSet("q", (3, 1))


def quantised_corpus(rng, n_quadrats, step=1 / 8):
    """Candidate sets of 1-40 entries with keys in random order and
    scores on a grid, so exact ties occur within and across quadrats."""
    corpus = []
    for i in range(n_quadrats):
        n = int(rng.integers(1, 41))
        ids = rng.choice(300, size=n, replace=False)
        scores = np.round(rng.normal(0.0, rng.uniform(0.2, 3.0), n) / step) * step
        corpus.append(cands(f"q{i:03d}", zip(ids.tolist(), scores.tolist())))
    return corpus


def assert_same_selection(corpus, sel, groups):
    """select_corpus equals the per-quadrat oracle bit for bit: the
    predictions, and tau and the achieved mean as float hex."""
    try:
        want_preds, want_tau, want_mean = per_quadrat.select_predictions(corpus, sel, groups)
    except UnattainableTargetError:
        with pytest.raises(UnattainableTargetError):
            select_corpus(corpus, sel, groups)
        return
    preds, tau, achieved = select_corpus(corpus, sel, groups)
    assert preds == want_preds
    assert float(tau).hex() == float(want_tau).hex()
    assert float(achieved).hex() == float(want_mean).hex()


def selection_configs(min_len, max_len, zscore, merge_k):
    common = dict(min_len=min_len, max_len=max_len, zscore=zscore, merge_k=merge_k)
    yield SelectionConfig(**common)
    yield SelectionConfig(min_logit=0.25, **common)
    for target in (1.0, 2.5, 4.0, 5.5, 7.0, 9.5):
        if target >= min_len:
            yield SelectionConfig(target_mean_len=target, **common)


class TestArrayPath:
    @pytest.mark.parametrize("seed", [0, 1])
    def test_matches_per_quadrat_oracle(self, seed):
        corpus = quantised_corpus(np.random.default_rng(seed), 40)
        groups = {c.quadrat_id: f"t{i // 5}" for i, c in enumerate(corpus)}
        for min_len in (1, 2, 3):
            for max_len in (None, min_len, 9):
                for zscore in (False, True):
                    for merge_k in (None, 1, 3):
                        for sel in selection_configs(min_len, max_len, zscore, merge_k):
                            assert_same_selection(corpus, sel, groups)

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_matches_per_quadrat_oracle_property(self, data):
        n_quadrats = data.draw(st.integers(1, 10))
        corpus, groups = [], {}
        for i in range(n_quadrats):
            ids = data.draw(st.lists(st.integers(0, 60), min_size=1, max_size=40, unique=True))
            scores = data.draw(
                st.lists(st.integers(-12, 12), min_size=len(ids), max_size=len(ids))
            )
            corpus.append(cands(f"q{i}", {s: v / 4.0 for s, v in zip(ids, scores)}))
            groups[f"q{i}"] = data.draw(st.sampled_from("abc"))
        min_len = data.draw(st.integers(1, 3))
        common = dict(
            min_len=min_len,
            max_len=data.draw(st.one_of(st.none(), st.integers(min_len, min_len + 4))),
            zscore=data.draw(st.booleans()),
            merge_k=data.draw(st.one_of(st.none(), st.integers(1, 3))),
        )
        threshold = data.draw(
            st.one_of(
                st.just({}),
                st.builds(lambda t: {"min_logit": t / 4.0}, st.integers(-12, 12)),
                st.builds(
                    lambda t: {"target_mean_len": min_len + t / 8.0}, st.integers(0, 48)
                ),
            )
        )
        assert_same_selection(corpus, SelectionConfig(**common, **threshold), groups)

    def test_grouped_zscores_bit_identical_to_one_dimensional(self):
        # Rows of one length are reduced together; long rows cross
        # numpy's pairwise-summation blocks.
        rng = np.random.default_rng(3)
        lengths = list(range(2, 41)) + [127, 128, 129, 300, 1000]
        corpus = [
            cands(f"q{n}-{j}", zip(range(n), (rng.normal(5.0, 10.0 ** j, n)).tolist()))
            for n in lengths
            for j in range(-2, 3)
        ]
        flat = _zscored(_flatten(corpus))
        want = np.concatenate([per_quadrat.zscore_normalize(c).scores() for c in corpus])
        assert flat.scores.view(np.int64).tolist() == want.view(np.int64).tolist()
        for c in corpus[::7]:
            got = zscore_normalize(c).entries
            assert got == per_quadrat.zscore_normalize(c).entries

    def test_wrappers_match_per_quadrat(self):
        corpus = quantised_corpus(np.random.default_rng(5), 30)
        groups = {c.quadrat_id: f"t{i % 4}" for i, c in enumerate(corpus)}
        for cfg in (SelectionConfig(), SelectionConfig(min_len=2, max_len=3)):
            for tau in (-np.inf, -0.5, 0.0, 1.0, 9.0):
                preds = [apply_threshold(c, tau, cfg) for c in corpus]
                assert preds == [per_quadrat.apply_threshold(c, tau, cfg) for c in corpus]
                for k in (1, 2, 5):
                    assert metadata_merge(preds, groups, k) == per_quadrat.metadata_merge(
                        preds, groups, k
                    )
            want = per_quadrat.length_steps(corpus, cfg)
            base, extra = length_steps(corpus, cfg)
            assert base == want[0] and extra.tobytes() == want[1].tobytes()
        assert metadata_merge([], {}, 1) == []
        wide = [PredictionSet("a", (-5, 10**15, 2**62)), PredictionSet("b", (7,))]
        assert metadata_merge(wide, {"a": "g", "b": "g"}, 0) == [
            PredictionSet(q, (-5, 7, 10**15, 2**62)) for q in ("a", "b")
        ]


class TestNonFiniteScores:
    """A non-finite candidate score is one SelectionError naming its quadrat."""

    def corpus(self, bad=-math.inf):
        return [cands("a", {1: -1.0, 2: bad, 3: -3.0}), cands("b", {1: -0.5, 4: -2.0, 5: -4.0})]

    def test_infinite_score_with_target(self):
        # the parent returned tau = -inf and a mean of 2.5, below target 3
        with pytest.raises(SelectionError, match="non-finite candidate score for a"):
            select_corpus(self.corpus(), SelectionConfig(target_mean_len=3.0))

    @pytest.mark.parametrize("bad", [-math.inf, math.nan])
    def test_zscored_non_finite_score(self, bad):
        # the parent warned from numpy, then raised "threshold must be a
        # number, got nan"
        sel = SelectionConfig(target_mean_len=3.0, zscore=True)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(SelectionError, match="non-finite candidate score for a"):
                select_corpus(self.corpus(bad), sel)

    def test_nan_score_is_not_dropped(self):
        # the parent silently left the NaN-scored species out
        corpus = self.corpus(math.nan)[::-1]  # the NaN is in the second set
        for sel in (SelectionConfig(), SelectionConfig(min_logit=-2.5)):
            with pytest.raises(SelectionError, match="non-finite candidate score for a"):
                select_corpus(corpus, sel)
        with pytest.raises(SelectionError, match="non-finite candidate score for a"):
            apply_threshold(corpus[1], 0.0, SelectionConfig())
