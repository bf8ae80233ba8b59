"""Per-instance algorithm selectors.

A selector is fit on the training slice of a scenario and afterwards
maps a batch of raw feature rows to one score per algorithm and row,
lower meaning better. Subclasses implement exactly two methods, `_fit`
and `scores_batch` ((n, d) features -> (n, K) scores); `Selector`
derives `scores`, `select` and `select_batch` from the latter, taking
the argmin (lowest index wins ties). `needs_features` only decides
whether feature acquisition costs are charged: a feature-free model
still receives the feature rows and sizes its output from them. Five
feature-based strategies plus the feature-free single-best baseline:

* ``peralgo``: one runtime regressor per algorithm,
* ``multiclass``: one classifier over best-algorithm labels,
* ``pairwise``: a cost-weighted classifier per algorithm pair, voting,
* ``sunny``: mean penalized runtime over the k nearest neighbours,
* ``isac``: per-cluster best algorithm, with a distance guard that
  falls back to the training single best,
* ``sbs``: always the training single best.

Selector specs are strings like ``peralgo(trees=50)``. Randomness
derives from (global seed, crc32 of the canonical spec), so the same
spec under the same global seed trains identically wherever it appears.
"""

from __future__ import annotations

import math
import re
import zlib

import numpy as np

from .errors import DegenerateTraining, InvalidConfig, UnknownInstanceFeatures
from .learners import ForestClassifier, ForestRegressor, KnnIndex, Preprocessor, fit_kmeans
from .metrics import SelectionTrace, single_best
from .scenario import ScenarioSpec


def dummy_scores(n_algorithms: int, favored: int) -> np.ndarray:
    """All ones except a zero at the favored algorithm."""
    out = np.ones(n_algorithms)
    out[favored] = 0.0
    return out


class Selector:
    """Common behaviour; subclasses implement `_fit` and `scores_batch`."""

    needs_features = True

    def __init__(self, spec: str, entropy: tuple[int, ...]):
        self.spec = spec
        self._entropy = list(entropy)
        self.n_algorithms_ = None

    def _seed_sequence(self) -> np.random.SeedSequence:
        return np.random.SeedSequence(self._entropy)

    def fit(self, scenario: ScenarioSpec, train_indices) -> "Selector":
        train_indices = np.asarray(train_indices, dtype=np.int64)
        if train_indices.size == 0:
            raise DegenerateTraining(f"{self.spec}: empty training set")
        self.n_algorithms_ = scenario.n_algorithms
        self._fit(scenario, train_indices)
        return self

    def _fit(self, scenario, train_indices):
        raise NotImplementedError

    def scores_batch(self, x: np.ndarray) -> np.ndarray:
        """(n, K) scores for an (n, d) matrix of raw feature rows."""
        raise NotImplementedError

    def scores(self, x=None) -> np.ndarray:
        """Scores for one feature vector; feature-free models accept None."""
        if x is None:
            if self.needs_features:
                raise UnknownInstanceFeatures(f"{self.spec} needs a feature vector")
            x = np.zeros((1, 0))
        return self.scores_batch(np.atleast_2d(x))[0]

    def select(self, x=None) -> int:
        return int(np.argmin(self.scores(x)))

    def select_batch(self, x: np.ndarray) -> np.ndarray:
        return np.argmin(self.scores_batch(x), axis=1).astype(np.int64)

    def __repr__(self):
        return f"{type(self).__name__}({self.spec!r})"


def selector_trace(model: Selector, scenario: ScenarioSpec, indices: np.ndarray) -> SelectionTrace:
    """Run a fitted model over `indices`, charging costs iff it reads features."""
    choices = model.select_batch(scenario.features[indices])
    return SelectionTrace(indices, choices, charge_feature_costs=model.needs_features)


class _FeatureBasedSelector(Selector):
    def _prepare(self, scenario, train_indices):
        self.preprocessor_ = Preprocessor()
        x = self.preprocessor_.fit_transform(scenario.features[train_indices])
        pr10 = scenario.pr10_matrix()[train_indices]
        return x, pr10


class PerAlgorithmRegressorSelector(_FeatureBasedSelector):
    def __init__(self, spec, entropy, trees=100, depth=None, minleaf=5, mtry=None):
        super().__init__(spec, entropy)
        self.trees, self.depth, self.minleaf, self.mtry = trees, depth, minleaf, mtry

    def _fit(self, scenario, train_indices):
        x, pr10 = self._prepare(scenario, train_indices)
        children = self._seed_sequence().spawn(scenario.n_algorithms)
        self.models_ = []
        for a in range(scenario.n_algorithms):
            forest = ForestRegressor(
                n_trees=self.trees,
                max_depth=self.depth,
                min_leaf=self.minleaf,
                mtry=self.mtry,
                seed=children[a],
            )
            self.models_.append(forest.fit(x, pr10[:, a]))

    def scores_batch(self, x):
        z = self.preprocessor_.transform(x)
        return np.stack([m.predict(z) for m in self.models_], axis=1)


class MulticlassSelector(_FeatureBasedSelector):
    def __init__(self, spec, entropy, trees=100, depth=None, minleaf=1, mtry=None):
        super().__init__(spec, entropy)
        self.trees, self.depth, self.minleaf, self.mtry = trees, depth, minleaf, mtry

    def _fit(self, scenario, train_indices):
        x, pr10 = self._prepare(scenario, train_indices)
        labels = np.argmin(pr10, axis=1)
        self.model_ = ForestClassifier(
            n_trees=self.trees,
            max_depth=self.depth,
            min_leaf=self.minleaf,
            mtry=self.mtry,
            seed=self._seed_sequence(),
            n_classes=scenario.n_algorithms,
        ).fit(x, labels)

    def scores_batch(self, x):
        z = self.preprocessor_.transform(x)
        return 1.0 - self.model_.predict_proba(z)


class PairwiseSelector(_FeatureBasedSelector):
    """One classifier per algorithm pair, weighted by the cost of misranking."""

    def __init__(self, spec, entropy, trees=100, depth=None, minleaf=1, mtry=None):
        super().__init__(spec, entropy)
        self.trees, self.depth, self.minleaf, self.mtry = trees, depth, minleaf, mtry

    def _fit(self, scenario, train_indices):
        x, pr10 = self._prepare(scenario, train_indices)
        k = scenario.n_algorithms
        pairs = [(a, b) for a in range(k) for b in range(a + 1, k)]
        children = self._seed_sequence().spawn(max(1, len(pairs)))
        self.models_ = []
        for idx, (a, b) in enumerate(pairs):
            labels = (pr10[:, b] < pr10[:, a]).astype(np.int64)
            weights = np.abs(pr10[:, a] - pr10[:, b])
            keep = weights > 0
            forest = ForestClassifier(
                n_trees=self.trees,
                max_depth=self.depth,
                min_leaf=self.minleaf,
                mtry=self.mtry,
                seed=children[idx],
                n_classes=2,
            )
            if keep.any():
                forest.fit(x[keep], labels[keep], sample_weight=weights[keep])
            else:
                forest.fit(x, labels)  # every pair tied: learn the prior
            self.models_.append((a, b, forest))

    def scores_batch(self, x):
        z = self.preprocessor_.transform(x)
        k = self.n_algorithms_
        votes = np.zeros((z.shape[0], k))
        for a, b, forest in self.models_:
            prefer_b = forest.predict(z).astype(bool)
            votes[~prefer_b, a] += 1.0
            votes[prefer_b, b] += 1.0
        return k - votes


class SunnySelector(_FeatureBasedSelector):
    """Score = mean penalized runtime among the k nearest training instances."""

    def __init__(self, spec, entropy, k=16):
        super().__init__(spec, entropy)
        self.k = k

    def _fit(self, scenario, train_indices):
        if self.k < 1:
            raise InvalidConfig(f"{self.spec}: k must be positive")
        x, pr10 = self._prepare(scenario, train_indices)
        self.index_ = KnnIndex().fit(x)
        self.pr10_ = pr10
        self.k_effective_ = min(self.k, x.shape[0])

    def scores_batch(self, x):
        z = self.preprocessor_.transform(x)
        neighbors = self.index_.query(z, self.k_effective_)
        return self.pr10_[neighbors].mean(axis=1)


def isac_default_clusters(n_train: int) -> int:
    return min(10, max(2, math.floor(math.sqrt(n_train / 2))))


class IsacSelector(_FeatureBasedSelector):
    """Cluster the training instances; inside a cluster, back its best
    algorithm. Instances far from every centroid (beyond the mean plus
    one standard deviation of training distances) fall back to the
    training single best."""

    def __init__(self, spec, entropy, clusters=None):
        super().__init__(spec, entropy)
        self.clusters = clusters

    def _fit(self, scenario, train_indices):
        x, pr10 = self._prepare(scenario, train_indices)
        n = x.shape[0]
        k = self.clusters if self.clusters is not None else isac_default_clusters(n)
        if k < 1:
            raise InvalidConfig(f"{self.spec}: clusters must be positive")
        k = min(k, n)
        self.model_ = fit_kmeans(x, k, seed=self._seed_sequence())
        d = self.model_.train_distances
        self.distance_threshold_ = float(d.mean() + d.std())
        self.cluster_scores_ = np.stack(
            [
                pr10[self.model_.assignments == c].mean(axis=0)
                for c in range(self.model_.n_clusters)
            ]
        )
        self.fallback_ = int(single_best(scenario, train_indices))

    def scores_batch(self, x):
        z = self.preprocessor_.transform(x)
        clusters, dist = self.model_.nearest(z)
        out = self.cluster_scores_[clusters].copy()
        far = dist > self.distance_threshold_
        if far.any():
            out[far] = dummy_scores(self.n_algorithms_, self.fallback_)
        return out


class SingleBestSelector(Selector):
    """Feature-free baseline: always the training single best."""

    needs_features = False

    def _fit(self, scenario, train_indices):
        self.algorithm_ = single_best(scenario, train_indices)

    def scores_batch(self, x):
        return np.tile(dummy_scores(self.n_algorithms_, self.algorithm_), (x.shape[0], 1))


_REGISTRY = {
    "peralgo": (
        PerAlgorithmRegressorSelector,
        {"trees": int, "depth": int, "minleaf": int, "mtry": int, "seed": int},
    ),
    "multiclass": (
        MulticlassSelector,
        {"trees": int, "depth": int, "minleaf": int, "mtry": int, "seed": int},
    ),
    "pairwise": (
        PairwiseSelector,
        {"trees": int, "depth": int, "minleaf": int, "mtry": int, "seed": int},
    ),
    "sunny": (SunnySelector, {"k": int, "seed": int}),
    "isac": (IsacSelector, {"clusters": int, "seed": int}),
    "sbs": (SingleBestSelector, {}),
}

SELECTOR_NAMES = tuple(sorted(_REGISTRY))

_ATOM_RE = re.compile(r"^\s*([A-Za-z_][A-Za-z0-9_]*)\s*(?:\((.*)\))?\s*$", re.DOTALL)


def parse_selector_spec(spec: str) -> tuple[str, dict]:
    """Split ``name(key=value, ...)`` into a name and a parameter dict."""
    match = _ATOM_RE.match(spec)
    if not match:
        raise InvalidConfig(f"unparseable selector spec {spec!r}")
    name = match.group(1).lower()
    if name not in _REGISTRY:
        raise InvalidConfig(f"unknown selector {name!r}, expected one of {SELECTOR_NAMES}")
    _, allowed = _REGISTRY[name]
    params: dict = {}
    body = (match.group(2) or "").strip()
    if body:
        for chunk in body.split(","):
            if "=" not in chunk:
                raise InvalidConfig(f"bad parameter {chunk.strip()!r} in {spec!r}")
            key, _, raw = chunk.partition("=")
            key, raw = key.strip().lower(), raw.strip()
            if key not in allowed:
                raise InvalidConfig(f"selector {name!r} takes no parameter {key!r}")
            if key in params:
                raise InvalidConfig(f"duplicate parameter {key!r} in {spec!r}")
            try:
                params[key] = allowed[key](raw) if allowed[key] is not float else float(raw)
            except ValueError:
                raise InvalidConfig(f"bad value {raw!r} for {key!r} in {spec!r}") from None
    return name, params


def canonical_selector_spec(spec: str) -> str:
    name, params = parse_selector_spec(spec)
    if not params:
        return name
    body = ",".join(f"{k}={params[k]}" for k in sorted(params))
    return f"{name}({body})"


def make_selector(spec: str, global_seed: int = 0, salt: tuple[int, ...] = ()) -> Selector:
    """Instantiate a selector from its spec string.

    The selector's random stream seeds from the global seed plus a hash
    of the canonical spec, so equal specs train identically whether they
    run standalone or inside an ensemble. `salt` adds entropy terms for
    callers that need decorrelated copies of one spec (bootstrap
    members, boosting rounds).
    """
    name, params = parse_selector_spec(spec)
    canonical = canonical_selector_spec(spec)
    extra_seed = params.pop("seed", None)
    entropy = [int(global_seed), zlib.crc32(canonical.encode())]
    if extra_seed is not None:
        entropy.append(int(extra_seed))
    entropy.extend(int(v) for v in salt)
    cls, _ = _REGISTRY[name]
    return cls(canonical, tuple(entropy), **params)
