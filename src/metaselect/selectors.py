"""Per-instance algorithm selectors.

A selector is fit on the training slice of a scenario and afterwards
maps a batch of raw feature rows to one score per algorithm and row,
lower meaning better. Subclasses implement exactly two methods, `_fit`
and `scores_batch` ((n, d) features -> (n, K) scores); `Selector`
derives `select_batch` from the latter, taking the row-wise argmin
(lowest index wins ties). There is no single-row path: one instance is
a one-row batch, and a row's scores do not depend on the rows scored
beside it. `needs_features` only decides whether feature acquisition
costs are charged: a feature-free model still receives the feature rows
and sizes its output from them, and must not read their values. Five
feature-based strategies plus the feature-free single-best baseline:

* ``peralgo``: one runtime regressor per algorithm,
* ``multiclass``: one classifier over best-algorithm labels,
* ``pairwise``: a cost-weighted classifier per algorithm pair, voting,
* ``sunny``: mean penalized runtime over the k nearest neighbours,
* ``isac``: per-cluster best algorithm, with a distance guard that
  falls back to the training single best,
* ``sbs``: always the training single best.

Selector specs are strings like ``peralgo(trees=50)``; their keys are
the constructors' keyword parameters, plus ``seed`` (at least 0) on the
feature-based ones. Each constructor checks its own values (``k``,
``clusters``, ``trees``, ``mtry``, ``depth``, ``minleaf`` at least 1),
and `canonical_selector_spec` builds the selector, so a bad atom fails
at config load. Randomness derives from (global seed, crc32 of the
canonical spec), so the same spec under the same global seed trains
identically wherever it appears.
`fit_selector` turns that promise into sharing: inside a `shared_fits`
scope, fits on the scope's scenario with equal (canonical spec, entropy,
training rows) return one fitted model, or raise its fit's error,
instead of training it again; a sweep's `VotingEnsemble` gets its
members this way too. `shared_scores` does the same for predictions: a
model the scope holds scores equal feature rows once per scope, and
every later caller gets the same read-only result. `shared_neighbours`
shares one level lower: held ``sunny`` fits on equal training rows
(``sunny`` and ``sunny(k=4)`` on one fold) rank equal query rows once,
the widest k serving every smaller one.
"""

from __future__ import annotations

import contextlib
import contextvars
import functools
import inspect
import math
import re
import zlib
from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateTraining, InvalidConfig
from .learners import (
    ForestClassifier,
    ForestRegressor,
    KnnIndex,
    Preprocessor,
    fit_forests,
    fit_kmeans,
)
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

    def select_batch(self, x: np.ndarray) -> np.ndarray:
        return np.argmin(self.scores_batch(x), axis=1).astype(np.int64)

    def __repr__(self):
        return f"{type(self).__name__}({self.spec!r})"


def selector_trace(model: Selector, scenario: ScenarioSpec, indices: np.ndarray) -> SelectionTrace:
    """Run a fitted model over `indices`, charging costs iff it reads features."""
    scores = shared_scores(model, scenario.features[indices])
    choices = np.argmin(scores, axis=1).astype(np.int64)
    return SelectionTrace(indices, choices, charge_feature_costs=model.needs_features)


def _require_positive(spec: str, **values) -> None:
    """InvalidConfig unless every value given, where not None, is at least 1."""
    for name, value in values.items():
        if value is not None and value < 1:
            raise InvalidConfig(f"{spec}: {name} must be positive")


class _FeatureBasedSelector(Selector):
    def _prepare(self, scenario, train_indices):
        self.preprocessor_ = Preprocessor()
        x = self.preprocessor_.fit_transform(scenario.features[train_indices])
        pr10 = scenario.pr10_matrix()[train_indices]
        return x, pr10


class _ForestSelector(_FeatureBasedSelector):
    """A selector built from random forests of one shape."""

    def __init__(self, spec, entropy, trees=100, depth=None, minleaf=1, mtry=None):
        super().__init__(spec, entropy)
        _require_positive(spec, trees=trees, depth=depth, minleaf=minleaf, mtry=mtry)
        self.trees, self.depth, self.minleaf, self.mtry = trees, depth, minleaf, mtry

    def _forest(self, model, seed, **kwargs):
        return model(
            n_trees=self.trees,
            max_depth=self.depth,
            min_leaf=self.minleaf,
            mtry=self.mtry,
            seed=seed,
            **kwargs,
        )


class PerAlgorithmRegressorSelector(_ForestSelector):
    def __init__(self, spec, entropy, trees=100, depth=None, minleaf=5, mtry=None):
        super().__init__(spec, entropy, trees, depth, minleaf, mtry)

    def _fit(self, scenario, train_indices):
        x, pr10 = self._prepare(scenario, train_indices)
        children = self._seed_sequence().spawn(scenario.n_algorithms)
        self.models_ = [self._forest(ForestRegressor, seed) for seed in children]
        fit_forests(x, [(m, None, pr10[:, a], None) for a, m in enumerate(self.models_)])

    def scores_batch(self, x):
        z = self.preprocessor_.transform(x)
        return np.stack([m.predict(z) for m in self.models_], axis=1)


class MulticlassSelector(_ForestSelector):
    def _fit(self, scenario, train_indices):
        x, pr10 = self._prepare(scenario, train_indices)
        labels = np.argmin(pr10, axis=1)
        self.model_ = self._forest(
            ForestClassifier, self._seed_sequence(), n_classes=scenario.n_algorithms
        ).fit(x, labels)

    def scores_batch(self, x):
        z = self.preprocessor_.transform(x)
        return 1.0 - self.model_.predict_proba(z)


class PairwiseSelector(_ForestSelector):
    """One classifier per algorithm pair, weighted by the cost of misranking."""

    def _fit(self, scenario, train_indices):
        x, pr10 = self._prepare(scenario, train_indices)
        k = scenario.n_algorithms
        pairs = [(a, b) for a in range(k) for b in range(a + 1, k)]
        children = self._seed_sequence().spawn(max(1, len(pairs)))
        self.models_, fits = [], []
        for idx, (a, b) in enumerate(pairs):
            labels = (pr10[:, b] < pr10[:, a]).astype(np.int64)
            weights = np.abs(pr10[:, a] - pr10[:, b])
            keep = np.flatnonzero(weights > 0)
            forest = self._forest(ForestClassifier, children[idx], n_classes=2)
            if keep.size:
                fits.append((forest, keep, labels[keep], weights[keep]))
            else:
                fits.append((forest, None, labels, None))  # every pair tied: learn the prior
            self.models_.append((a, b, forest))
        fit_forests(x, fits)

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
        _require_positive(spec, k=k)
        self.k = k

    def _fit(self, scenario, train_indices):
        x, pr10 = self._prepare(scenario, train_indices)
        self.index_ = KnnIndex().fit(x)
        self.pr10_ = pr10
        self.k_effective_ = min(self.k, x.shape[0])

    def scores_batch(self, x):
        z = self.preprocessor_.transform(x)
        neighbors = shared_neighbours(self, z)
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
        _require_positive(spec, clusters=clusters)
        self.clusters = clusters

    def _fit(self, scenario, train_indices):
        x, pr10 = self._prepare(scenario, train_indices)
        n = x.shape[0]
        k = self.clusters if self.clusters is not None else isac_default_clusters(n)
        k = min(k, n)
        self.model_ = fit_kmeans(x, k, seed=self._seed_sequence())
        d = self.model_.train_distances
        self.distance_threshold_ = float(d.mean() + d.std())
        self.fallback_ = int(single_best(scenario, train_indices))
        # a cluster k-means left without members has no evidence, like a
        # far instance: it backs the training single best
        no_evidence = dummy_scores(scenario.n_algorithms, self.fallback_)
        members = [self.model_.assignments == c for c in range(self.model_.n_clusters)]
        self.cluster_scores_ = np.stack(
            [pr10[m].mean(axis=0) if m.any() else no_evidence for m in members]
        )

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
    "peralgo": PerAlgorithmRegressorSelector,
    "multiclass": MulticlassSelector,
    "pairwise": PairwiseSelector,
    "sunny": SunnySelector,
    "isac": IsacSelector,
    "sbs": SingleBestSelector,
}

SELECTOR_NAMES = tuple(sorted(_REGISTRY))


@functools.cache
def _atom_keys(cls) -> frozenset:
    """The keys an atom of `cls` takes: its constructor's parameters after
    `spec, entropy`, and `seed` when it reads features."""
    keys = set(list(inspect.signature(cls).parameters)[2:])
    if issubclass(cls, _FeatureBasedSelector):
        keys.add("seed")
    return frozenset(keys)


def _key_value_segments(segments, allowed, where: str) -> dict:
    """`key=value` segments as raw strings: each key once, known, with a value."""
    params = {}
    for segment in segments:
        if "=" not in segment:
            raise InvalidConfig(f"{where}: expected key=value, got {segment!r}")
        key, value = segment.split("=", 1)
        if key not in allowed:
            raise InvalidConfig(f"{where}: unknown parameter {key!r}")
        if key in params:
            raise InvalidConfig(f"{where}: duplicate parameter {key!r}")
        if not value:
            raise InvalidConfig(f"{where}: empty value for {key!r}")
        params[key] = value
    return params


def _require_seed(seed) -> None:
    """InvalidConfig unless the global seed is at least 0."""
    if seed < 0:
        raise InvalidConfig(f"seed must be nonnegative, got {seed}")


def _int(params, key) -> int:
    try:
        return int(params[key])
    except ValueError:
        raise InvalidConfig(f"{key} must be an integer, got {params[key]!r}") from None


def parse_selector_spec(spec: str) -> tuple[str, dict]:
    """Split ``name(key=value, ...)`` into a name and integer parameters,
    ignoring whitespace and case. Only `seed`, which enters no
    constructor, is judged here."""
    text = re.sub(r"\s+", "", spec).lower()
    name, paren, body = text.partition("(")
    if paren and not body.endswith(")"):
        raise InvalidConfig(f"unparseable selector spec {spec!r}")
    if name not in _REGISTRY:
        raise InvalidConfig(f"unknown selector {name!r}, expected one of {SELECTOR_NAMES}")
    body = body[:-1]
    raw = _key_value_segments(body.split(",") if body else [], _atom_keys(_REGISTRY[name]), spec)
    params = {key: _int(raw, key) for key in raw}
    if params.get("seed", 0) < 0:
        raise InvalidConfig(f"{spec}: seed must be nonnegative")
    return name, params


def _format_atom(name: str, params: dict) -> str:
    if not params:
        return name
    body = ",".join(f"{k}={params[k]}" for k in sorted(params))
    return f"{name}({body})"


def canonical_selector_spec(spec: str) -> str:
    """The canonical form of `spec`, once its selector's constructor has
    accepted every value (InvalidConfig otherwise)."""
    return make_selector(spec).spec


def make_selector(spec: str, global_seed: int = 0, salt: tuple[int, ...] = ()) -> Selector:
    """Instantiate a selector from its spec string.

    The selector's random stream seeds from the global seed plus a hash
    of the canonical spec, so equal specs train identically whether they
    run standalone or inside an ensemble. `salt` adds entropy terms for
    callers that need decorrelated copies of one spec (bootstrap
    members, boosting rounds, `ass` inner folds). A negative global seed is rejected here,
    not at fit time.
    """
    _require_seed(global_seed)
    name, params = parse_selector_spec(spec)
    canonical = _format_atom(name, params)
    entropy = [int(global_seed), zlib.crc32(canonical.encode())]
    if "seed" in params:
        entropy.append(params.pop("seed"))
    entropy.extend(int(v) for v in salt)
    return _REGISTRY[name](canonical, tuple(entropy), **params)


@dataclass
class _FoldScope:
    """What one `shared_fits` scope holds."""

    scenario: ScenarioSpec
    # (spec, entropy, training-row bytes) -> fitted selector or the
    # exception its fit raised
    fits: dict = field(default_factory=dict)
    # id of each selector in `fits` -> its key's training-row bytes; the
    # selectors stay alive until the scope exits, so their ids stay theirs
    held: dict = field(default_factory=dict)
    # (dtype, shape, bytes of x) -> {id(model): read-only scores of x}
    scores: dict = field(default_factory=dict)
    # (training-row bytes, dtype, shape, bytes of z) -> read-only neighbour ids
    neighbours: dict = field(default_factory=dict)


# The innermost open `shared_fits` scope, or None outside every scope.
_SHARED_FITS = contextvars.ContextVar("metaselect_shared_fits", default=None)


@contextlib.contextmanager
def shared_fits(scenario: ScenarioSpec):
    """Share `fit_selector` fits on `scenario`, and `shared_scores`
    predictions of those fits, for the block's duration.

    Fitted models and their scores are kept until the block exits, so
    the block should span one evaluation fold, not a whole experiment.
    """
    token = _SHARED_FITS.set(_FoldScope(scenario))
    try:
        yield
    finally:
        _SHARED_FITS.reset(token)


def fit_selector(spec: str, global_seed: int, scenario: ScenarioSpec, rows) -> Selector:
    """`make_selector(spec, global_seed).fit(scenario, rows)`, shared
    within a `shared_fits` scope.

    Two such fits train bit-identically, so inside a scope opened on this
    very `scenario` object the first one is kept and returned again for
    the same canonical spec, entropy and training rows; a fit that raises
    is attempted once too, its exception raised again, without the
    failing fit's frames, for every later caller. Fits on any other
    scenario (a derived copy included) and outside a scope are fresh, and
    so is every salted copy (a bag, a later boosting round, an `ass`
    inner-fold member), which its caller fits through `make_selector`.
    """
    model = make_selector(spec, global_seed)
    scope = _SHARED_FITS.get()
    if scope is None or scope.scenario is not scenario:
        return model.fit(scenario, rows)
    key = (model.spec, tuple(model._entropy), np.asarray(rows, dtype=np.int64).tobytes())
    fitted = scope.fits.get(key)
    if fitted is None:
        try:
            fitted = model.fit(scenario, rows)
            scope.held[id(fitted)] = key[2]
        except Exception as error:
            fitted = error
        scope.fits[key] = fitted
    if isinstance(fitted, Exception):
        raise fitted.with_traceback(None)
    return fitted


def shared_scores(model: Selector, x: np.ndarray) -> np.ndarray:
    """`model.scores_batch(x)`, computed once per `shared_fits` scope.

    Only models the open scope holds (returned by its `fit_selector`)
    are cached, keyed by the exact content of `x`: dtype, shape and
    bytes. Scoring is deterministic, so a hit is bit-identical to a
    fresh call; the cached array is read-only and shared by every
    caller. Any other model, and any model outside a scope, is scored
    afresh on every call.
    """
    scope = _SHARED_FITS.get()
    if scope is None or id(model) not in scope.held:
        return model.scores_batch(x)
    x = np.asarray(x)
    by_model = scope.scores.setdefault((x.dtype.str, x.shape, x.tobytes()), {})
    scores = by_model.get(id(model))
    if scores is None:
        scores = by_model[id(model)] = model.scores_batch(x)
        scores.flags.writeable = False
    return scores


def shared_neighbours(model: SunnySelector, z: np.ndarray) -> np.ndarray:
    """`model.index_.query(z, model.k_effective_)`, ranked once per
    `shared_fits` scope across every k.

    Only models the open scope holds are cached. An entry belongs to the
    model's training rows, not to the model: held fits on equal rows of
    the scope's scenario preprocess and index those rows bit for bit
    alike, so they share it. Query rows match on exact content (dtype,
    shape, bytes). An entry keeps the widest ranking computed so far: a
    query is the first k entries of one total order, by distance and
    then row id, so a smaller k is a prefix of it, and a larger k ranks
    afresh and replaces it. Cached rankings are read-only.
    """
    index, k = model.index_, model.k_effective_
    scope = _SHARED_FITS.get()
    rows = None if scope is None else scope.held.get(id(model))
    if rows is None:
        return index.query(z, k)
    z = np.asarray(z)
    key = (rows, z.dtype.str, z.shape, z.tobytes())
    ranked = scope.neighbours.get(key)
    if ranked is None or ranked.shape[1] < k:
        ranked = scope.neighbours[key] = index.query(z, k)
        ranked.flags.writeable = False
    return ranked[:, :k]
