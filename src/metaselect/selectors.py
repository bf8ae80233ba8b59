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

One fold memo turns that promise into sharing. `runner` opens a
`shared_fits` scope on each evaluation fold's scenario; until it exits,
four functions keep what they compute in the scope's one memo, and
every later call with an equal key gets the kept value:

* `fit_selector`, keyed by (canonical spec, entropy, training-row
  bytes), keeps the fitted model, or the exception its fit raised,
  which it raises again without the failing fit's frames. The models it
  keeps are the scope's held models. Only fits on the scope's own
  scenario object are kept; a derived copy (stacking's augmented
  features, `ass`'s selector-level scenario) and every salted fit (a
  bag, a later boosting round, an `ass` inner fold), which its caller
  makes through `make_selector`, stay fresh.
* `shared_scores`, keyed by (fit key, query content), keeps a held
  model's `scores_batch`. A scoring that raises is not kept, so each
  caller attempts it again.
* `shared_neighbours`, keyed by (training-row bytes, query content),
  keeps a held ``sunny`` fit's neighbour ranking. Held fits on equal
  rows preprocess and index them bit for bit alike, so ``sunny`` and
  ``sunny(k=4)`` share it. A query is the first k entries of one total
  order, by distance and then row id: the memo keeps the widest k
  ranked so far, a smaller k reads its prefix, and a wider k ranks
  afresh and replaces it.
* `fold_preprocessor`, keyed by training-row bytes, keeps the fitted
  `Preprocessor` of every feature-based fit on the scope's scenario,
  held or not: a bag or an `ass` inner fold shares with any fit on its
  exact rows. Only fitted preprocessors are kept, never a transformed
  matrix.

Two rules hold throughout. Scores and rankings are kept for held models
only: those stay alive until the scope exits, so no other object takes
their id meanwhile; any other model is scored afresh. Keys match on
exact content only: a query's content is its dtype, shape and bytes,
and the memo keeps one copy of each distinct content, which every key
naming it shares. Everything kept is computed deterministically, so a
kept value is bit-identical to a fresh one; kept arrays are read-only.
Outside a scope every call computes afresh.
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
        self.preprocessor_ = fold_preprocessor(scenario, train_indices)
        x = self.preprocessor_.transform(scenario.features[train_indices])
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
        self.index_ = KnnIndex().fit(x, train_indices)
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


def _require_seed(seed: int, spec: str | None = None) -> int:
    """`seed`, the global one or the `seed=` of `spec`; InvalidConfig
    unless it is at least 0."""
    if seed < 0:
        raise InvalidConfig(
            f"{spec}: seed must be nonnegative" if spec else f"seed must be nonnegative, got {seed}"
        )
    return seed


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
    _require_seed(params.get("seed", 0), spec)
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
    """What one `shared_fits` scope holds: its scenario, its memo, and
    the fit key of each held model by the model's id."""

    scenario: ScenarioSpec
    memo: dict = field(default_factory=dict)
    held: dict = field(default_factory=dict)


# The innermost open `shared_fits` scope, or None outside every scope.
_SHARED_FITS = contextvars.ContextVar("metaselect_shared_fits", default=None)


@contextlib.contextmanager
def shared_fits(scenario: ScenarioSpec):
    """Open a fold memo on `scenario` (see the module docstring) for the
    block's duration. What it keeps is dropped when the block exits, so
    the block should span one evaluation fold, not a whole experiment.
    """
    token = _SHARED_FITS.set(_FoldScope(scenario))
    try:
        yield
    finally:
        _SHARED_FITS.reset(token)


def _memo(scope: _FoldScope, key, compute, fresh=lambda kept: True):
    """The value `scope` keeps under `key`. On a miss, or when `fresh`
    rejects the kept value, `compute()` is kept there instead; a kept
    array is made read-only."""
    value = scope.memo.get(key)
    if value is None or not fresh(value):
        value = scope.memo[key] = compute()
        if isinstance(value, np.ndarray):
            value.flags.writeable = False
    return value


def _content(scope: _FoldScope, x) -> tuple:
    """The exact content of `x`: dtype, shape and bytes, one copy per
    scope, which every key on equal content shares."""
    x = np.asarray(x)
    content = ("content", x.dtype.str, x.shape, x.tobytes())
    return _memo(scope, content, lambda: content)


def _fit_or_error(model: Selector, scenario: ScenarioSpec, rows) -> Selector | Exception:
    """`model` fitted, or the exception its fit raised."""
    try:
        return model.fit(scenario, rows)
    except Exception as error:
        return error


def fit_selector(spec: str, global_seed: int, scenario: ScenarioSpec, rows) -> Selector:
    """`make_selector(spec, global_seed).fit(scenario, rows)`, kept in the
    fold memo: a later equal fit gets the same model, or its fit's error
    raised again without the failing fit's frames."""
    model = make_selector(spec, global_seed)
    scope = _SHARED_FITS.get()
    if scope is None or scope.scenario is not scenario:
        return model.fit(scenario, rows)
    key = ("fit", model.spec, tuple(model._entropy), np.asarray(rows, dtype=np.int64).tobytes())
    fitted = _memo(scope, key, functools.partial(_fit_or_error, model, scenario, rows))
    if isinstance(fitted, Exception):
        raise fitted.with_traceback(None)
    scope.held[id(fitted)] = key
    return fitted


def shared_scores(model: Selector, x: np.ndarray) -> np.ndarray:
    """`model.scores_batch(x)`, kept in the fold memo if the scope holds
    `model`."""
    scope = _SHARED_FITS.get()
    fit = None if scope is None else scope.held.get(id(model))
    if fit is None:
        return model.scores_batch(x)
    return _memo(scope, ("scores", fit, _content(scope, x)), lambda: model.scores_batch(x))


def shared_neighbours(model: SunnySelector, z: np.ndarray) -> np.ndarray:
    """`model.index_.query(z, model.k_effective_)`, kept in the fold memo
    per training rows if the scope holds `model`, the widest k serving
    every smaller one."""
    index, k = model.index_, model.k_effective_
    scope = _SHARED_FITS.get()
    fit = None if scope is None else scope.held.get(id(model))
    if fit is None:
        return index.query(z, k)
    key = ("neighbours", fit[-1], _content(scope, z))
    return _memo(scope, key, lambda: index.query(z, k), lambda kept: kept.shape[1] >= k)[:, :k]


def fold_preprocessor(scenario: ScenarioSpec, rows: np.ndarray) -> Preprocessor:
    """`Preprocessor().fit(scenario.features[rows])`, kept in the fold memo
    per training rows."""
    scope = _SHARED_FITS.get()
    if scope is None or scope.scenario is not scenario:
        return Preprocessor().fit(scenario.features[rows])
    key = ("preprocessor", rows.tobytes())
    return _memo(scope, key, lambda: Preprocessor().fit(scenario.features[rows]))
