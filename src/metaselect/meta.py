"""Selecting among selectors.

The trained base selectors become the "algorithms" of a derived
scenario: its performance entry for (instance, selector) is the
penalized runtime the selector's choice would have cost, feature
acquisition included. Any selector spec can then be trained on that
scenario as a meta learner. The training signal comes from inner
cross-validation so the matrix reflects out-of-sample behaviour, not
resubstitution.

`AlgorithmSelectorSelector` is itself a selector: like every other
model it implements only `_fit` and `scores_batch`, routing each row of
a feature batch through the meta learner's `select_batch` to one
deployed base selector's `scores_batch`.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateTraining, EmptyEnsemble, InvalidConfig
from .scenario import ScenarioSpec
from .selectors import Selector, canonical_selector_spec, make_selector

DEFAULT_INNER_FOLDS = 3


@dataclass(frozen=True)
class MetaScenario:
    """The selector-level scenario plus the deployable base selectors."""

    scenario: ScenarioSpec          # algorithms are selector spec strings
    selector_specs: tuple[str, ...]
    deployed: tuple[Selector, ...]  # refit on the full outer train set
    train_indices: np.ndarray       # outer-train positions in the source scenario


def _inner_fold_assignment(n: int, inner_folds: int, rng: np.random.Generator) -> np.ndarray:
    assignment = np.empty(n, dtype=np.int64)
    perm = rng.permutation(n)
    for pos, idx in enumerate(perm):
        assignment[idx] = pos % inner_folds
    return assignment


def build_meta_scenario(
    source: ScenarioSpec,
    train_indices,
    selector_specs,
    inner_folds: int = DEFAULT_INNER_FOLDS,
    global_seed: int = 0,
) -> MetaScenario:
    """Fill the (instance, selector) performance matrix by inner CV.

    Every training instance gets, for each selector, the penalized
    runtime of the choice that selector makes when fit without that
    instance's inner fold. Deployed selectors are separate full-train
    refits.
    """
    train_indices = np.asarray(train_indices, dtype=np.int64)
    specs = tuple(canonical_selector_spec(s) for s in selector_specs)
    if not specs:
        raise EmptyEnsemble("meta scenario needs at least one selector spec")
    if inner_folds < 2:
        raise InvalidConfig("inner_folds must be at least 2")
    n = train_indices.size
    if n < inner_folds:
        raise DegenerateTraining(
            f"cannot split {n} instances into {inner_folds} inner folds"
        )

    entropy = [int(global_seed), zlib.crc32(",".join(specs).encode())]
    rng = np.random.default_rng(np.random.SeedSequence(entropy))
    assignment = _inner_fold_assignment(n, inner_folds, rng)

    pr10 = source.pr10_matrix()
    costs = source.feature_costs
    performance = np.empty((n, len(specs)))

    for fold in range(inner_folds):
        held = assignment == fold
        inner_train = train_indices[~held]
        inner_test = train_indices[held]
        if inner_train.size < 2:
            raise DegenerateTraining(
                f"inner fold {fold} leaves only {inner_train.size} training instances"
            )
        if inner_test.size == 0:
            continue
        for s, spec in enumerate(specs):
            member = make_selector(spec, global_seed, salt=(fold,))
            member.fit(source, inner_train)
            choices = member.select_batch(source.features[inner_test])
            values = pr10[inner_test, choices]
            if member.needs_features:
                values = values + costs[inner_test]
            performance[held, s] = values

    deployed = tuple(make_selector(spec, global_seed).fit(source, train_indices) for spec in specs)

    # Stored values already carry the 10x-cutoff penalty (plus feature
    # cost) of the underlying choice, so every cell counts as solved and
    # the derived matrix IS the penalized matrix.
    meta = ScenarioSpec.create(
        name=f"{source.name}::selectors",
        instances=[source.instances[i] for i in train_indices],
        algorithms=specs,
        cutoff=source.cutoff,
        runtimes=performance,
        solved=np.ones_like(performance, dtype=bool),
        features=source.features[train_indices],
        feature_costs=costs[train_indices],
        folds=np.ones(n, dtype=np.int64),
        validate=False,
    )
    return MetaScenario(
        scenario=meta,
        selector_specs=specs,
        deployed=deployed,
        train_indices=train_indices,
    )


def fit_meta_learner(meta: MetaScenario, meta_spec: str, global_seed: int = 0) -> Selector:
    """Train any selector spec on the selector-level scenario."""
    learner = make_selector(meta_spec, global_seed)
    learner.fit(meta.scenario, np.arange(meta.scenario.n_instances))
    return learner


class AlgorithmSelectorSelector(Selector):
    """Two-level selector: a meta learner picks a base selector, the
    picked selector picks the algorithm. Both levels read the same
    feature vector, so features are computed once."""

    def __init__(self, spec, global_seed, base_specs, meta_spec, inner_folds=DEFAULT_INNER_FOLDS):
        super().__init__(spec, (int(global_seed), zlib.crc32(spec.encode())))
        if not base_specs:
            raise EmptyEnsemble("ass needs at least one base spec")
        self.base_specs = tuple(base_specs)
        self.meta_spec = meta_spec
        self.inner_folds = int(inner_folds)
        self.global_seed = int(global_seed)

    @property
    def needs_features(self):
        meta = getattr(self, "meta_", None)
        deployed = getattr(self, "meta_scenario_", None)
        if meta is None or deployed is None:
            return True
        return meta.needs_features or any(m.needs_features for m in deployed.deployed)

    def _fit(self, scenario, train_indices):
        self.meta_scenario_ = build_meta_scenario(
            scenario,
            train_indices,
            self.base_specs,
            inner_folds=self.inner_folds,
            global_seed=self.global_seed,
        )
        self.meta_ = fit_meta_learner(self.meta_scenario_, self.meta_spec, self.global_seed)

    def scores_batch(self, x):
        chosen = self.meta_.select_batch(x)
        out = np.empty((x.shape[0], self.n_algorithms_))
        for s in np.unique(chosen):
            mask = chosen == s
            out[mask] = self.meta_scenario_.deployed[s].scores_batch(x[mask])
        return out
