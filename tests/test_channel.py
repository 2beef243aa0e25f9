"""Tests for the body model, path loss, fading, and the composite channel."""

import math

import numpy as np
import pytest

from repro.channel.body import BACK, CHEST, LEFT_ANKLE, LEFT_HIP, STANDARD_BODY, BodyModel
from repro.channel.fading import (
    FadingParameters,
    NodeShadowing,
    OrnsteinUhlenbeckFading,
)
from repro.channel.link import Channel
from repro.channel.pathloss import MeanPathLossModel, PathLossParameters
from repro.channel.posture import PostureParameters
from repro.des.rng import DRAW_CHUNK, RngStreams


class TestBodyModel:
    def test_ten_standard_locations(self):
        assert STANDARD_BODY.num_locations == 10
        assert STANDARD_BODY.location(0).name == "chest"
        assert STANDARD_BODY.by_name("back").index == 9

    def test_duplicate_indices_rejected(self):
        loc = STANDARD_BODY.location(0)
        with pytest.raises(ValueError):
            BodyModel([loc, loc])

    def test_distance_symmetry_and_positivity(self):
        for i in range(10):
            for j in range(i + 1, 10):
                d = STANDARD_BODY.distance(i, j)
                assert d > 0
                assert d == STANDARD_BODY.distance(j, i)

    def test_chest_to_back_is_occluded(self):
        assert STANDARD_BODY.is_occluded(CHEST, BACK)

    def test_chest_to_hip_is_los(self):
        assert not STANDARD_BODY.is_occluded(CHEST, LEFT_HIP)

    def test_link_classes_cover_all_pairs(self):
        classes = STANDARD_BODY.link_classes()
        assert len(classes) == 45  # C(10, 2)
        assert set(classes.values()) <= {"los", "nlos"}

    def test_unknown_location_raises(self):
        with pytest.raises(KeyError):
            STANDARD_BODY.location(99)
        with pytest.raises(KeyError):
            STANDARD_BODY.by_name("elbow")


class TestMeanPathLoss:
    def setup_method(self):
        self.model = MeanPathLossModel(STANDARD_BODY)

    def test_monotone_with_distance_for_los_links(self):
        # chest-hip is shorter than chest-ankle; both LOS.
        short = self.model.mean_path_loss(CHEST, LEFT_HIP)
        long = self.model.mean_path_loss(CHEST, LEFT_ANKLE)
        assert short < long

    def test_symmetric(self):
        assert self.model.mean_path_loss(2, 7) == self.model.mean_path_loss(7, 2)

    def test_nlos_penalty_applied(self):
        base = PathLossParameters()
        no_penalty = MeanPathLossModel(
            STANDARD_BODY,
            PathLossParameters(nlos_penalty_db=0.0),
        )
        assert self.model.mean_path_loss(CHEST, BACK) == pytest.approx(
            no_penalty.mean_path_loss(CHEST, BACK) + base.nlos_penalty_db
        )

    def test_self_link_rejected(self):
        with pytest.raises(ValueError):
            self.model.mean_path_loss(3, 3)

    def test_values_in_published_wban_range(self):
        # Published 2.4 GHz on-body campaigns report roughly 35-90 dB for
        # direct links; our deepest around-body limb links (distance law +
        # NLOS penalty) may exceed that, but must stay physically sane.
        matrix = self.model.matrix()
        finite = matrix[np.isfinite(matrix)]
        assert finite.min() > 30.0
        assert finite.max() < 115.0

    def test_measured_override(self):
        model = MeanPathLossModel(STANDARD_BODY, measured={(1, 0): 55.5})
        assert model.mean_path_loss(0, 1) == 55.5
        assert model.mean_path_loss(1, 0) == 55.5

    def test_matrix_diagonal_nan(self):
        matrix = self.model.matrix()
        assert np.isnan(np.diag(matrix)).all()

    def test_worst_link(self):
        (i, j), value = self.model.worst_link([0, 1, 3])
        assert value == self.model.mean_path_loss(CHEST, LEFT_ANKLE)
        assert {i, j} == {CHEST, LEFT_ANKLE}

    def test_worst_link_needs_two(self):
        with pytest.raises(ValueError):
            self.model.worst_link([0])

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            PathLossParameters(ref_distance_m=0.0)
        with pytest.raises(ValueError):
            PathLossParameters(exponent=-1.0)


class TestOuFading:
    def make(self, **kwargs):
        params = FadingParameters(
            shadow_fraction=0.0, **kwargs
        )  # isolate the OU component
        return OrnsteinUhlenbeckFading(params, RngStreams(seed=5))

    def test_deterministic_per_seed(self):
        a = self.make().sample(0, 1, 1.0)
        b = OrnsteinUhlenbeckFading(
            FadingParameters(shadow_fraction=0.0), RngStreams(seed=5)
        ).sample(0, 1, 1.0)
        assert a == b

    def test_reciprocal_links_share_state(self):
        fading = self.make()
        v1 = fading.sample(2, 5, 1.0)
        v2 = fading.sample(5, 2, 1.0)
        assert v1 == v2

    def test_same_time_same_value(self):
        fading = self.make()
        v1 = fading.sample(0, 1, 3.0)
        v2 = fading.sample(0, 1, 3.0)
        assert v1 == v2

    def test_backwards_time_rejected(self):
        fading = self.make()
        fading.sample(0, 1, 5.0)
        with pytest.raises(ValueError):
            fading.sample(0, 1, 4.0)

    def test_clipped(self):
        fading = self.make(sigma_db=6.0, clip_db=10.0)
        values = [fading.sample(0, 1, t * 10.0) for t in range(500)]
        assert all(-10.0 <= v <= 10.0 for v in values)

    def test_short_dt_highly_correlated(self):
        fading = self.make(sigma_db=6.0, coherence_time_s=1.0)
        v0 = fading.sample(0, 1, 0.0)
        v1 = fading.sample(0, 1, 1e-4)
        assert abs(v1 - v0) < 0.5

    def test_long_dt_near_stationary(self):
        # After many coherence times, samples decorrelate: the empirical
        # std over many far-apart samples approaches sigma.
        fading = self.make(sigma_db=6.0, coherence_time_s=0.1)
        values = np.array([fading.sample(0, 1, 5.0 * k) for k in range(400)])
        assert 4.0 < values.std() < 8.0

    def test_zero_sigma_is_silent(self):
        fading = self.make(sigma_db=0.0)
        assert fading.sample(0, 1, 0.0) == 0.0
        assert fading.sample(0, 1, 9.0) == 0.0

    def test_reset_forgets_history(self):
        fading = self.make()
        fading.sample(0, 1, 10.0)
        fading.reset()
        fading.sample(0, 1, 1.0)  # would raise without reset

    def test_peek_does_not_advance(self):
        fading = self.make()
        v = fading.sample(0, 1, 1.0)
        assert fading.peek(0, 1) == v
        assert fading.peek(1, 0) == v
        assert fading.peek(4, 7) == 0.0


class TestNodeShadowing:
    def test_stationary_fraction_approx(self):
        params = FadingParameters(
            shadow_fraction=0.2, shadow_dwell_s=1.0, shadow_depth_db=10.0
        )
        shadow = NodeShadowing(params, RngStreams(seed=3))
        samples = [shadow.is_occluded(0, 0.5 * k) for k in range(4000)]
        fraction = sum(samples) / len(samples)
        assert 0.15 < fraction < 0.25

    def test_dwell_produces_correlation(self):
        params = FadingParameters(
            shadow_fraction=0.3, shadow_dwell_s=5.0, shadow_depth_db=10.0
        )
        shadow = NodeShadowing(params, RngStreams(seed=4))
        samples = [shadow.is_occluded(0, 0.01 * k) for k in range(2000)]
        flips = sum(1 for a, b in zip(samples, samples[1:]) if a != b)
        # 20 s of samples with ~5 s dwells: transitions are rare.
        assert flips < 40

    def test_zero_fraction_never_occluded(self):
        params = FadingParameters(shadow_fraction=0.0)
        shadow = NodeShadowing(params, RngStreams(seed=0))
        assert not any(shadow.is_occluded(0, float(t)) for t in range(50))

    def test_extra_loss_counts_both_endpoints(self):
        params = FadingParameters(
            shadow_fraction=0.99, shadow_dwell_s=10.0, shadow_depth_db=16.0
        )
        shadow = NodeShadowing(params, RngStreams(seed=11))
        # With 99% occlusion probability some sample has both ends shadowed.
        losses = {shadow.extra_loss_db(0, 1, float(t)) for t in range(50)}
        assert 32.0 in losses
        assert losses <= {0.0, 16.0, 32.0}

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            FadingParameters(shadow_fraction=1.5)
        with pytest.raises(ValueError):
            FadingParameters(shadow_dwell_s=0.0)
        with pytest.raises(ValueError):
            FadingParameters(shadow_depth_db=-1.0)
        with pytest.raises(ValueError):
            FadingParameters(sigma_db=-2.0)
        with pytest.raises(ValueError):
            FadingParameters(coherence_time_s=0.0)
        with pytest.raises(ValueError):
            FadingParameters(clip_db=0.0)


class TestChannel:
    def make_channel(self, **fading_kwargs):
        return Channel(
            RngStreams(seed=1),
            fading_params=FadingParameters(
                shadow_fraction=0.0, sigma_db=0.0, **fading_kwargs
            ),
        )

    def test_path_loss_equals_mean_when_no_fading(self):
        channel = self.make_channel()
        expected = channel.mean_model.mean_path_loss(0, 1)
        assert channel.path_loss(0, 1, 1.0) == pytest.approx(expected)

    def test_received_power(self):
        channel = self.make_channel()
        pl = channel.mean_model.mean_path_loss(0, 1)
        assert channel.received_power_dbm(0.0, 0, 1, 1.0) == pytest.approx(-pl)

    def test_link_closes_matches_budget(self):
        channel = self.make_channel()
        budget = channel.budget(0.0, -97.0, 0, 1)
        assert budget.closes_on_average == channel.link_closes(
            0.0, -97.0, 0, 1, 1.0
        )

    def test_budget_margin(self):
        channel = self.make_channel()
        budget = channel.budget(-10.0, -97.0, CHEST, LEFT_HIP)
        assert budget.margin_db == pytest.approx(
            -10.0 + 97.0 - budget.mean_path_loss_db
        )

    def test_reset_fading_allows_time_restart(self):
        channel = Channel(RngStreams(seed=1))
        channel.path_loss(0, 1, 50.0)
        channel.reset_fading()
        channel.path_loss(0, 1, 0.0)  # would raise without reset

    def test_weak_budget_fails_link(self):
        channel = self.make_channel()
        # -20 dBm TX cannot close the chest-ankle link on average.
        budget = channel.budget(-20.0, -97.0, CHEST, LEFT_ANKLE)
        assert not budget.closes_on_average


class _ScalarReference:
    """The channel's draws as one scalar ``Generator`` call per sample,
    with the arithmetic of the per-sample implementation: ``normal(0, σ)``
    for a link's first value and ``mean + std·standard_normal()`` after
    it; ``uniform() < π`` for a node's first state and ``random() < p_on``
    after it.  Streams come from a fresh :class:`RngStreams`."""

    def __init__(self, seed: int, params: FadingParameters) -> None:
        self.rng = RngStreams(seed=seed)
        self.p = params
        self.links = {}  # key -> [last_t, value]
        self.nodes = {}  # node -> [last_t, occluded]
        self.drawn = {}  # stream name -> draws taken

    def _stream(self, name: str):
        self.drawn[name] = self.drawn.get(name, 0) + 1
        return self.rng.stream(name)

    def fade(self, i: int, j: int, t: float) -> float:
        key = (min(i, j), max(i, j))
        p = self.p
        name = f"fading/{key[0]}-{key[1]}"
        state = self.links.get(key)
        if state is not None and t == state[0]:
            return state[1]
        if p.sigma_db == 0:
            value = 0.0
        elif state is None:
            value = float(self._stream(name).normal(0.0, p.sigma_db))
        else:
            rho = math.exp(-(t - state[0]) / p.coherence_time_s)
            std = p.sigma_db * math.sqrt(max(0.0, 1.0 - rho * rho))
            z = float(self._stream(name).standard_normal())
            value = state[1] * rho + std * z
        value = max(-p.clip_db, min(p.clip_db, value))
        self.links[key] = [t, value]
        return value

    def occluded(self, node: int, t: float) -> bool:
        p = self.p
        if p.shadow_fraction == 0 or p.shadow_depth_db == 0:
            return False
        name = f"shadow/{node}"
        state = self.nodes.get(node)
        pi = p.shadow_fraction
        if state is None:
            occluded = bool(self._stream(name).uniform() < pi)
        elif t == state[0]:
            return state[1]
        else:
            exit_rate = 1.0 / p.shadow_dwell_s
            relax = exit_rate + exit_rate * pi / (1.0 - pi)
            decay = math.exp(-relax * (t - state[0]))
            p_on = pi + (1.0 - pi) * decay if state[1] else pi * (1.0 - decay)
            occluded = bool(self._stream(name).random() < p_on)
        self.nodes[node] = [t, occluded]
        return occluded

    def loss(self, mean: float, i: int, j: int, t: float) -> float:
        """PL(i,j,t) = (mean + fade) + shadowing, in Channel's order."""
        fade = self.fade(i, j, t)
        extra = 0.0
        if self.occluded(i, t):
            extra += self.p.shadow_depth_db
        if self.occluded(j, t):
            extra += self.p.shadow_depth_db
        return (mean + fade) + extra

    def reset(self) -> None:
        """Forget histories; the streams carry on where they were."""
        self.links.clear()
        self.nodes.clear()


class TestChunkedDraws:
    """The fading and shadowing streams are drawn in chunks of
    DRAW_CHUNK; every value must be the one a scalar draw per sample
    gives, whichever entry point consumes it."""

    SEED = 12
    I, J = 2, 7
    TX = 0.0
    # A deep-shadowing channel, so both occlusion states occur often.
    PARAMS = FadingParameters(shadow_fraction=0.4, shadow_dwell_s=0.05)

    def entries(self, channel):
        mean = channel.mean_model.mean_path_loss(self.I, self.J)
        return mean, [(self.J, mean, False, (self.I, self.J))]

    def interleave(self, channel, ref, steps, start=0.0):
        """Rotate fanout_powers (ticks the link, I and J), fading.sample
        (the link) and is_occluded (J) over one shared state; every third
        step repeats the previous timestamp, which must draw nothing."""
        mean, entries = self.entries(channel)
        t = start
        for k in range(steps):
            if k % 3 != 2:
                t += 0.013
            route = k % 4
            if route == 0:
                got = channel.fanout_powers(self.I, self.TX, entries, t)
                assert got == {
                    self.J: self.TX - ref.loss(mean, self.I, self.J, t)
                }
            elif route == 1:
                assert channel.fading.sample(self.J, self.I, t) == ref.fade(
                    self.I, self.J, t
                )
            elif route == 2:
                assert channel.shadowing.is_occluded(self.J, t) == (
                    ref.occluded(self.J, t)
                )
            else:
                assert channel.path_loss(self.I, self.J, t) == ref.loss(
                    mean, self.I, self.J, t
                )
        return t

    def test_values_equal_scalar_draws_across_refills(self):
        channel = Channel(RngStreams(seed=self.SEED), fading_params=self.PARAMS)
        ref = _ScalarReference(self.SEED, self.PARAMS)
        self.interleave(channel, ref, 1200)
        # The link and node J each drew across more than three refills.
        assert ref.drawn[f"fading/{self.I}-{self.J}"] > 3 * DRAW_CHUNK
        assert ref.drawn[f"shadow/{self.J}"] > 3 * DRAW_CHUNK

    def test_reset_fading_continues_each_stream(self):
        """A reset forgets the histories, never the prefetched draws: the
        next cold value is the stream's next draw."""
        channel = Channel(RngStreams(seed=self.SEED), fading_params=self.PARAMS)
        ref = _ScalarReference(self.SEED, self.PARAMS)
        self.interleave(channel, ref, 150)
        for _ in range(2):
            channel.reset_fading()
            ref.reset()
            self.interleave(channel, ref, 150)

    def test_posture_path(self):
        """With posture regimes on, fanout_powers samples through
        path_loss; the fading and shadowing draws are still the scalar
        ones."""
        rng = RngStreams(seed=self.SEED)
        channel = Channel(
            rng, fading_params=self.PARAMS, posture_params=PostureParameters()
        )
        ref = _ScalarReference(self.SEED, self.PARAMS)
        _mean, entries = self.entries(channel)
        for k in range(400):
            t = 0.02 * k
            channel.fanout_powers(self.I, self.TX, entries, t)
            assert channel.fading.peek(self.I, self.J) == ref.fade(
                self.I, self.J, t
            )
            for node in (self.I, self.J):
                assert channel.shadowing.is_occluded(node, t) == (
                    ref.occluded(node, t)
                )

    @pytest.mark.parametrize(
        "params",
        [
            FadingParameters(sigma_db=0.0, shadow_fraction=0.0),
            FadingParameters(sigma_db=0.0, shadow_depth_db=0.0),
        ],
        ids=["quiet", "no-shadow-depth"],
    )
    def test_silent_processes_draw_nothing(self, params):
        rng = RngStreams(seed=self.SEED)
        channel = Channel(rng, fading_params=params)
        mean, entries = self.entries(channel)
        for k in range(300):
            t = 0.01 * k
            assert channel.fanout_powers(self.I, self.TX, entries, t) == {
                self.J: self.TX - ((mean + 0.0) + 0.0)
            }
            assert channel.fading.sample(self.I, self.J, t) == 0.0
            assert not channel.shadowing.is_occluded(self.J, t)
        for name in (f"fading/{self.I}-{self.J}", f"shadow/{self.I}",
                     f"shadow/{self.J}"):
            fresh = RngStreams(seed=self.SEED).stream(name)
            assert rng.stream(name).random() == fresh.random(), name

    def test_one_chunk_retained(self):
        """10,000 samples of one link keep at most one chunk of draws: the
        chunk is replaced on refill, never grown into a history."""
        rng = RngStreams(seed=self.SEED)
        fading = OrnsteinUhlenbeckFading(self.PARAMS, rng)
        for k in range(10_000):
            fading.sample(self.I, self.J, 0.01 * k)
        assert len(rng.normals(f"fading/{self.I}-{self.J}")) <= DRAW_CHUNK
