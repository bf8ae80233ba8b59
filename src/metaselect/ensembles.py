"""Ensembles of algorithm selectors: voting, bagging, boosting, stacking.

Each ensemble is itself a selector: it implements `_fit` and
`scores_batch` only, so the evaluation harness treats it like any other
approach. `_Ensemble` is the base of these four composers and of the
fifth, `meta.AlgorithmSelectorSelector` (`ass`), whose members are its
deployed bases. It holds the members, stacks their `shared_scores` of
a batch and owns the one charge rule: members cost feature acquisition
iff one of them reads features.

Member selectors are created from spec strings under the caller's
global seed; a plain member inside voting or stacking, a 1-bag bagging
member, boosting's first round and an `ass` deployed base therefore
train bit-identically to the same spec run standalone, and they come from
`fit_selector`, which inside an evaluation fold hands back the
standalone fit, or raises its error, instead of repeating it. Bagging
fits its bags in one `grow_together` scope, so their forests share
lockstep growths (see `learners.forest`); boosting cannot, since each
round's sample weights come from scoring the round before.
`shared_scores` likewise hands back that fit's scores of rows already
scored in the fold (the test rows by the plain cell, the training rows
by another ensemble or the selector-level baselines) instead of
scoring them again; `sunny` fits on equal training rows share their
neighbour rankings too.

Voting, bagging and boosting (`wmaj` with its round alphas as weights)
share one `scores_batch`: their members' (n, K) scores, stacked into a
(members, instances, algorithms) tensor, go to one `combine_scores`
call. `VotingEnsemble.composition_par10` prices every member subset
through `subset_choices` (see `aggregation`), charging each subset by
the same rule, for voting's exhaustive search and for `runner`'s
sweeps, which fit one `VotingEnsemble` per fold.
"""

from __future__ import annotations

import math
import zlib
from dataclasses import dataclass

import numpy as np

from .aggregation import AGGREGATIONS, combine_scores, subset_choices, weight_from_npar10
from .errors import BoostingCollapsed, DegenerateTraining, EmptyEnsemble, InvalidConfig
from .learners import Preprocessor, fit_variance_threshold, grow_together
from .metrics import fixed_algorithm_par10, npar10, oracle_par10, single_best, trace_par10
from .scenario import ScenarioSpec
from .selectors import Selector, fit_selector, make_selector, selector_trace, shared_scores

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
    """Shared plumbing of every composer: entropy derivation, member
    bookkeeping, the charge rule, the members' stacked scores and the
    vote of the active members through `self.aggregation`."""

    def __init__(self, spec: str, global_seed: int):
        super().__init__(spec, (int(global_seed), zlib.crc32(spec.encode())))
        self.global_seed = int(global_seed)
        self.members_: list[Selector] = []
        self.weights_ = None  # one per member, or None for equal votes
        self.active_ = None  # positions of the members that vote, or None for all

    def _rng(self) -> np.random.Generator:
        return np.random.default_rng(self._seed_sequence())

    def _active(self) -> list[int]:
        return list(range(len(self.members_)) if self.active_ is None else self.active_)

    def _charged(self, positions) -> bool:
        """The charge rule: the members at `positions` cost feature
        acquisition iff one reads features; no members (unfitted) do too."""
        return not positions or any(self.members_[i].needs_features for i in positions)

    @property
    def needs_features(self):  # noqa: D401 - property mirrors the class attr
        return self._charged(self._active())

    def _member_scores(self, x, positions) -> np.ndarray:
        """(members, n, K): the shared scores of the members at `positions`."""
        return np.stack([shared_scores(self.members_[i], x) for i in positions])

    def scores_batch(self, x):
        active = self._active()
        weights = None if self.weights_ is None else self.weights_[active]
        return combine_scores(self.aggregation, self._member_scores(x, active), weights)


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
        self.search_result_ = None

    def _fit(self, scenario, train_indices):
        self.members_ = [
            fit_selector(s, self.global_seed, scenario, train_indices) for s in self.member_specs
        ]

        if self.aggregation == "wmaj":
            self.weights_ = wmaj_weights(self.members_, scenario, train_indices)
        if self.search == "exhaustive":
            # Ranked on PAR10, not nPAR10: on a positive training gap both
            # give the same order, and a zero gap leaves nPAR10 undefined.
            values = self.composition_par10(scenario, train_indices)
            self.active_ = min(values, key=lambda subset: (values[subset], len(subset), subset))
            self.search_result_ = CompositionSearchResult(
                aggregation=self.aggregation,
                masks=tuple(values),
                train_par10=tuple(values.values()),
                best_mask=self.active_,
            )
        else:
            self.active_ = tuple(range(len(self.members_)))

    def composition_par10(self, scenario, indices) -> dict[tuple[int, ...], float]:
        """Mean PAR10 on `indices` of every nonempty subset of the fitted
        members voting as this ensemble does, keyed by subset in bitmask
        order: (0,), (1,), (0, 1), (2,), ... A subset is charged feature
        costs iff one of its members reads them."""
        rows = self._member_scores(scenario.features[indices], range(len(self.members_)))
        pr10 = scenario.pr10_matrix()[indices]
        costs = scenario.feature_costs[indices]
        at = np.arange(pr10.shape[0])
        values = {}
        for subset, choices in subset_choices(self.aggregation, rows, self.weights_):
            per_instance = pr10[at, choices]
            if self._charged(subset):
                per_instance = per_instance + costs
            values[subset] = float(per_instance.mean())
        return dict(sorted(values.items(), key=lambda item: sum(1 << i for i in item[0])))


class BaggingEnsemble(_Ensemble):
    """k members of one spec, each fit on an instance-level bootstrap.
    The bags are fit in one `grow_together` scope, so their forests grow
    together, each as it would alone, before any bag is scored."""

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
            self.members_.append(
                fit_selector(self.member_spec, self.global_seed, scenario, train_indices)
            )
            self.bootstrap_indices_.append(train_indices.copy())
        with grow_together():
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
        if self.aggregation == "wmaj":
            self.weights_ = wmaj_weights(self.members_, scenario, train_indices)


class BoostingEnsemble(_Ensemble):
    """Multiclass boosting over best-algorithm labels, instance weighting
    realized by weighted bootstrap sampling. The rounds vote as a
    weighted majority (SAMME) with their alphas as weights."""

    aggregation = "wmaj"

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
                member = fit_selector(self.member_spec, self.global_seed, scenario, train_indices)
            else:
                sample = rng.choice(n, size=n, replace=True, p=weights)
                member = make_selector(self.member_spec, self.global_seed, salt=(attempts,))
                member.fit(scenario, train_indices[sample])
            miss = np.argmin(shared_scores(member, features), axis=1) != labels
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
        self.alphas_ = self.weights_ = np.asarray(self.alphas_)


class StackingEnsemble(_Ensemble):
    """A meta selector fit on base features extended with every base
    selector's score vector."""

    needs_features = True  # charged always, whatever its meta selector and bases read

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
        if feature_selection == "vt" and not 0.0 <= vt_threshold < math.inf:
            raise InvalidConfig(f"vt threshold must be finite and >= 0, got {vt_threshold}")
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

        self.members_ = [
            fit_selector(s, self.global_seed, scenario, base_idx) for s in self.base_specs
        ]

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
        self.meta_ = make_selector(self.meta_spec, self.global_seed).fit(
            scenario.with_features(full), meta_idx
        )

    def _augment(self, x: np.ndarray) -> np.ndarray:
        if not self.include_base_scores:
            return x
        return np.hstack([x, *self._member_scores(x, self._active())])

    def scores_batch(self, x):
        augmented = self._augment(x)
        if self.feature_selection == "vt":
            augmented = self.scaler_.transform(augmented)[:, self.mask_]
        return self.meta_.scores_batch(augmented)
