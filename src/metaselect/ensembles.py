"""Ensembles of algorithm selectors: voting, bagging, boosting, stacking.

Each ensemble is itself a selector: it implements `_fit` and
`scores_batch` only, scoring its members on the same feature batch
through their own `scores_batch`, so the evaluation harness treats it
like any other approach. Member selectors are created from spec strings
under the caller's global seed; a plain member inside voting or stacking
therefore trains bit-identically to the same spec run standalone.
"""

from __future__ import annotations

import math
import zlib
from dataclasses import dataclass

import numpy as np

from .aggregation import AGGREGATIONS, combine_scores, weight_from_npar10
from .errors import BoostingCollapsed, DegenerateTraining, EmptyEnsemble, InvalidConfig
from .learners import Preprocessor, fit_variance_threshold
from .metrics import fixed_algorithm_par10, npar10, oracle_par10, single_best, trace_par10
from .scenario import ScenarioSpec
from .selectors import Selector, make_selector, selector_trace

MAX_EXHAUSTIVE_MEMBERS = 15
ALPHA_CAP = math.log(1e12)
VT_DEFAULT_THRESHOLD = 0.16
DISJOINT_DEFAULT_RATIO = 0.7


def samme_alpha(err: float, n_classes: int) -> float:
    """Member weight for a multiclass boosting round.

    err = 0 returns the capped maximum instead of infinity.
    """
    if n_classes < 2:
        raise InvalidConfig("boosting needs at least 2 classes")
    if err < 0 or err >= 1:
        raise InvalidConfig(f"weighted error {err} outside [0, 1)")
    spread = ALPHA_CAP if err == 0 else math.log((1.0 - err) / err)
    return spread + math.log(n_classes - 1)


@dataclass(frozen=True)
class CompositionSearchResult:
    """Outcome of scoring every nonempty member subset on training data."""

    aggregation: str
    masks: tuple[tuple[int, ...], ...]
    train_par10: tuple[float, ...]
    best_mask: tuple[int, ...]


def wmaj_weights(members, scenario: ScenarioSpec, train_indices: np.ndarray) -> np.ndarray:
    """Weighted-majority member weights: inverse training nPAR10.

    When the single best algorithm is also the oracle on the training
    instances, nPAR10 has no scale; every member then weighs 1, so wmaj
    votes exactly like maj.
    """
    oracle = oracle_par10(scenario, train_indices)
    sbs_value = fixed_algorithm_par10(scenario, train_indices, single_best(scenario, train_indices))
    if sbs_value <= oracle:
        return np.ones(len(members))
    return np.array(
        [
            weight_from_npar10(
                npar10(
                    trace_par10(scenario, selector_trace(m, scenario, train_indices)),
                    oracle,
                    sbs_value,
                )
            )
            for m in members
        ]
    )


class _Ensemble(Selector):
    """Shared plumbing: entropy derivation and member bookkeeping."""

    def __init__(self, spec: str, global_seed: int):
        super().__init__(spec, (int(global_seed), zlib.crc32(spec.encode())))
        self.global_seed = int(global_seed)
        self.members_: list[Selector] = []

    def _rng(self) -> np.random.Generator:
        return np.random.default_rng(self._seed_sequence())

    @property
    def needs_features(self):  # noqa: D401 - property mirrors the class attr
        active = self._active_members()
        if not active:
            return True
        return any(m.needs_features for m in active)

    def _active_members(self) -> list[Selector]:
        return self.members_


class VotingEnsemble(_Ensemble):
    """Members vote through an aggregation; optionally only the subset
    that minimizes training PAR10 stays active (exhaustive search over
    all 2^n - 1 compositions, members trained once)."""

    def __init__(self, spec, global_seed, member_specs, aggregation="maj", search="all"):
        super().__init__(spec, global_seed)
        if not member_specs:
            raise EmptyEnsemble("voting needs at least one member spec")
        if aggregation not in AGGREGATIONS:
            raise InvalidConfig(f"unknown aggregation {aggregation!r}")
        if search not in ("all", "exhaustive"):
            raise InvalidConfig(f"unknown search mode {search!r}")
        if search == "exhaustive" and len(member_specs) > MAX_EXHAUSTIVE_MEMBERS:
            raise InvalidConfig(
                f"exhaustive search gated at {MAX_EXHAUSTIVE_MEMBERS} members, "
                f"got {len(member_specs)}"
            )
        self.member_specs = tuple(member_specs)
        self.aggregation = aggregation
        self.search = search
        self.weights_ = None
        self.active_ = None
        self.search_result_ = None

    def _active_members(self):
        if self.active_ is None:
            return self.members_
        return [self.members_[i] for i in self.active_]

    def _fit(self, scenario, train_indices):
        self.members_ = [make_selector(s, self.global_seed) for s in self.member_specs]
        for member in self.members_:
            member.fit(scenario, train_indices)

        if self.aggregation == "wmaj":
            self.weights_ = wmaj_weights(self.members_, scenario, train_indices)
        if self.search == "exhaustive":
            self.active_, self.search_result_ = self._search(scenario, train_indices)
        else:
            self.active_ = tuple(range(len(self.members_)))

    def _search(self, scenario, train_indices):
        # Ranked on PAR10, not nPAR10: on a positive training gap both give
        # the same order, and a zero gap leaves nPAR10 undefined.
        n_members = len(self.members_)
        x = scenario.features[train_indices]
        rows = np.stack([m.scores_batch(x) for m in self.members_])
        pr10 = scenario.pr10_matrix()
        costs = scenario.feature_costs

        masks = []
        values = []
        best = None
        for bits in range(1, 2**n_members):
            subset = tuple(i for i in range(n_members) if bits >> i & 1)
            weights = self.weights_[list(subset)] if self.weights_ is not None else None
            choices = np.array(
                [
                    int(np.argmin(combine_scores(self.aggregation, rows[list(subset), i], weights)))
                    for i in range(train_indices.size)
                ]
            )
            per_instance = pr10[train_indices, choices]
            if any(self.members_[i].needs_features for i in subset):
                per_instance = per_instance + costs[train_indices]
            value = float(per_instance.mean())
            masks.append(subset)
            values.append(value)
            key = (value, len(subset), subset)
            if best is None or key < best[0]:
                best = (key, subset)
        result = CompositionSearchResult(
            aggregation=self.aggregation,
            masks=tuple(masks),
            train_par10=tuple(values),
            best_mask=best[1],
        )
        return best[1], result

    def _active_weights(self):
        if self.weights_ is None:
            return None
        if self.active_ is None:
            return self.weights_
        return self.weights_[list(self.active_)]

    def scores_batch(self, x):
        rows = np.stack([m.scores_batch(x) for m in self._active_members()])
        weights = self._active_weights()
        return np.stack(
            [
                combine_scores(self.aggregation, rows[:, i, :], weights)
                for i in range(x.shape[0])
            ]
        )


class BaggingEnsemble(_Ensemble):
    """k members of one spec, each fit on an instance-level bootstrap."""

    def __init__(self, spec, global_seed, member_spec, k=10, aggregation="maj"):
        super().__init__(spec, global_seed)
        if k < 1:
            raise InvalidConfig("bagging needs k >= 1")
        if aggregation not in AGGREGATIONS:
            raise InvalidConfig(f"unknown aggregation {aggregation!r}")
        self.member_spec = member_spec
        self.k = int(k)
        self.aggregation = aggregation

    def _fit(self, scenario, train_indices):
        rng = self._rng()
        n = train_indices.size
        self.members_ = []
        self.bootstrap_indices_ = []
        if self.k == 1:
            # a single bag is the whole training set, so a 1-member
            # ensemble selects exactly like the bare selector
            member = make_selector(self.member_spec, self.global_seed)
            member.fit(scenario, train_indices)
            self.members_.append(member)
            self.bootstrap_indices_.append(train_indices.copy())
        for j in range(self.k if self.k > 1 else 0):
            sample = None
            for _ in range(10):
                candidate = rng.integers(0, n, size=n)
                if np.unique(candidate).size >= 2:
                    sample = candidate
                    break
            if sample is None:
                raise DegenerateTraining(
                    f"{self.spec}: bootstrap kept collapsing to <2 distinct instances"
                )
            member = make_selector(self.member_spec, self.global_seed, salt=(j,))
            member.fit(scenario, train_indices[sample])
            self.members_.append(member)
            self.bootstrap_indices_.append(train_indices[sample])
        self.weights_ = None
        if self.aggregation == "wmaj":
            self.weights_ = wmaj_weights(self.members_, scenario, train_indices)

    def scores_batch(self, x):
        rows = np.stack([m.scores_batch(x) for m in self.members_])
        return np.stack(
            [
                combine_scores(self.aggregation, rows[:, i, :], self.weights_)
                for i in range(x.shape[0])
            ]
        )


class BoostingEnsemble(_Ensemble):
    """Multiclass boosting over best-algorithm labels, instance weighting
    realized by weighted bootstrap sampling."""

    def __init__(self, spec, global_seed, member_spec, iterations=20):
        super().__init__(spec, global_seed)
        if iterations < 1:
            raise InvalidConfig("boosting needs at least one iteration")
        self.member_spec = member_spec
        self.iterations = int(iterations)

    def _fit(self, scenario, train_indices):
        n = train_indices.size
        k = scenario.n_algorithms
        if k < 2:
            raise InvalidConfig("boosting needs at least 2 algorithms")
        labels = np.argmin(scenario.pr10_matrix()[train_indices], axis=1)
        features = scenario.features[train_indices]
        rng = self._rng()

        weights = np.full(n, 1.0 / n)
        self.members_ = []
        self.alphas_ = []
        self.weight_history_ = []
        attempts = 0
        budget = 3 * self.iterations
        while len(self.members_) < self.iterations and attempts < budget:
            attempts += 1
            if attempts == 1:
                # uniform weights: fit on the training set as is, with the
                # bare selector's own randomness, so one round reproduces
                # the bare selector exactly
                sample = np.arange(n)
                member = make_selector(self.member_spec, self.global_seed)
            else:
                sample = rng.choice(n, size=n, replace=True, p=weights)
                member = make_selector(self.member_spec, self.global_seed, salt=(attempts,))
            member.fit(scenario, train_indices[sample])
            miss = member.select_batch(features) != labels
            err = float(weights[miss].sum())
            if err >= 1.0 - 1.0 / k:
                continue
            alpha = samme_alpha(err, k)
            self.members_.append(member)
            self.alphas_.append(alpha)
            if err == 0.0:
                break  # a perfect member decides alone
            weights = weights * np.exp(alpha * miss)
            weights = weights / weights.sum()
            self.weight_history_.append(weights.copy())
        if not self.members_:
            raise BoostingCollapsed(
                f"{self.spec}: no usable round within {budget} attempts"
            )
        self.alphas_ = np.asarray(self.alphas_)

    def scores_batch(self, x):
        votes = np.zeros((x.shape[0], self.n_algorithms_))
        for member, alpha in zip(self.members_, self.alphas_):
            votes[np.arange(x.shape[0]), member.select_batch(x)] += alpha
        return -votes


class StackingEnsemble(_Ensemble):
    """A meta selector fit on base features extended with every base
    selector's score vector."""

    def __init__(
        self,
        spec,
        global_seed,
        base_specs,
        meta_spec,
        feature_selection="none",
        vt_threshold=VT_DEFAULT_THRESHOLD,
        split="shared",
        split_ratio=DISJOINT_DEFAULT_RATIO,
        include_base_scores=True,
    ):
        super().__init__(spec, global_seed)
        if not base_specs:
            raise EmptyEnsemble("stacking needs at least one base spec")
        if feature_selection not in ("none", "vt"):
            raise InvalidConfig(f"unknown feature selection {feature_selection!r}")
        if split not in ("shared", "disjoint"):
            raise InvalidConfig(f"unknown split mode {split!r}")
        if split == "disjoint" and not 0.0 < split_ratio < 1.0:
            raise InvalidConfig("disjoint split ratio must be in (0, 1)")
        self.base_specs = tuple(base_specs)
        self.meta_spec = meta_spec
        self.feature_selection = feature_selection
        self.vt_threshold = float(vt_threshold)
        self.split = split
        self.split_ratio = float(split_ratio)
        self.include_base_scores = include_base_scores

    @property
    def needs_features(self):
        return True

    def _fit(self, scenario, train_indices):
        n = train_indices.size
        if self.split == "disjoint":
            if n < 2:
                raise DegenerateTraining(f"{self.spec}: disjoint split needs >= 2 instances")
            perm = self._rng().permutation(n)
            cut = min(max(1, round(self.split_ratio * n)), n - 1)
            base_idx = train_indices[np.sort(perm[:cut])]
            meta_idx = train_indices[np.sort(perm[cut:])]
        else:
            base_idx = meta_idx = train_indices

        self.members_ = [make_selector(s, self.global_seed) for s in self.base_specs]
        for member in self.members_:
            member.fit(scenario, base_idx)

        augmented = self._augment(scenario.features[meta_idx])
        self.scaler_ = None
        self.mask_ = None
        if self.feature_selection == "vt":
            self.scaler_ = Preprocessor().fit(augmented)
            standardized = self.scaler_.transform(augmented)
            self.mask_ = fit_variance_threshold(standardized, self.vt_threshold)
            augmented = standardized[:, self.mask_]

        full = np.full((scenario.n_instances, augmented.shape[1]), np.nan)
        full[meta_idx] = augmented
        self.meta_ = make_selector(self.meta_spec, self.global_seed)
        self.meta_.fit(scenario.with_features(full), meta_idx)

    def _augment(self, x: np.ndarray) -> np.ndarray:
        if not self.include_base_scores:
            return x
        return np.hstack([x] + [m.scores_batch(x) for m in self.members_])

    def scores_batch(self, x):
        augmented = self._augment(x)
        if self.feature_selection == "vt":
            augmented = self.scaler_.transform(augmented)[:, self.mask_]
        return self.meta_.scores_batch(augmented)
