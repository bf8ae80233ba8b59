"""Selecting among selectors.

The trained base selectors become the "algorithms" of a derived
scenario: its performance entry for (instance, selector) is the
penalized runtime the selector's choice would have cost, feature
acquisition included. Any selector spec can then be trained on that
scenario as a meta learner. The training signal comes from inner
cross-validation so the matrix reflects out-of-sample behaviour, not
resubstitution. The inner folds' member forests grow together, in
shared lockstep growths (see `learners.forest`), before any member is
scored.

`AlgorithmSelectorSelector` (`ass`) is the fifth `ensembles._Ensemble`
composer; its members are its deployed bases. Like every other model it
implements only `_fit` and `scores_batch`, routing each row of a feature
batch through the meta learner's `select_batch` to one member, and
scoring only the members some row was routed to. A member's rows are a
slice of its `shared_scores` of the whole batch: a row's scores do not
depend on the rows scored beside it, and inside a fold the base's plain
cell has usually scored that batch already.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass

import numpy as np

from .ensembles import _Ensemble
from .errors import DegenerateTraining, EmptyEnsemble, InvalidConfig
from .learners import grow_together
from .metrics import per_instance_pr10
from .scenario import ScenarioSpec
from .selectors import (
    Selector,
    canonical_selector_spec,
    fit_selector,
    make_selector,
    selector_trace,
    shared_scores,
)

DEFAULT_INNER_FOLDS = 3


@dataclass(frozen=True)
class MetaScenario:
    """The selector-level scenario plus the deployable base selectors."""

    scenario: ScenarioSpec          # algorithms are the canonical base selector specs
    deployed: tuple[Selector, ...]  # refit on the full outer train set


def build_meta_scenario(
    source: ScenarioSpec,
    train_indices,
    base_specs,
    inner_folds: int = DEFAULT_INNER_FOLDS,
    global_seed: int = 0,
) -> MetaScenario:
    """Fill the (instance, selector) performance matrix by inner CV.

    Every training instance gets, for each selector, the penalized
    runtime of the choice that selector makes when fit without that
    instance's inner fold. Every (inner fold, base) member is fit in one
    `grow_together` scope before any is scored, so the forests of all
    inner folds grow together; a tree does not depend on what grows
    beside it, so every member is the one fit alone. Deployed selectors
    are full-train fits from `fit_selector`, so inside an evaluation
    fold they are the fold's standalone fits of the same specs.
    """
    train_indices = np.asarray(train_indices, dtype=np.int64)
    specs = tuple(canonical_selector_spec(s) for s in base_specs)
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
    assignment = np.empty(n, dtype=np.int64)
    assignment[rng.permutation(n)] = np.arange(n) % inner_folds

    performance = np.empty((n, len(specs)))

    members = []  # (held, base, fitted member, inner test rows)
    with grow_together():
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
                members.append((held, s, member.fit(source, inner_train), inner_test))
    for held, s, member, inner_test in members:
        performance[held, s] = per_instance_pr10(
            source, selector_trace(member, source, inner_test)
        )
    del members  # before the deployed fits

    deployed = tuple(fit_selector(spec, global_seed, source, train_indices) for spec in specs)

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
        feature_costs=source.feature_costs[train_indices],
        folds=np.ones(n, dtype=np.int64),
        validate=False,
    )
    return MetaScenario(scenario=meta, deployed=deployed)


class AlgorithmSelectorSelector(_Ensemble):
    """Two-level selector: a meta learner picks a base selector, the
    picked selector picks the algorithm. Both levels read the same
    feature vector, so features are computed once. The deployed bases
    are the members; each row is routed to exactly one of them."""

    def __init__(self, spec, global_seed, base_specs, meta_spec, inner_folds=DEFAULT_INNER_FOLDS):
        super().__init__(spec, global_seed)
        if not base_specs:
            raise EmptyEnsemble("ass needs at least one base spec")
        if inner_folds < 2:
            raise InvalidConfig("inner_folds must be at least 2")
        self.base_specs = tuple(base_specs)
        self.meta_spec = meta_spec
        self.inner_folds = int(inner_folds)

    @property
    def needs_features(self):
        return super().needs_features or self.meta_.needs_features

    def _fit(self, scenario, train_indices):
        self.meta_scenario_ = build_meta_scenario(
            scenario, train_indices, self.base_specs, self.inner_folds, self.global_seed
        )
        self.meta_ = make_selector(self.meta_spec, self.global_seed).fit(
            self.meta_scenario_.scenario, np.arange(train_indices.size)
        )
        self.members_ = list(self.meta_scenario_.deployed)

    def scores_batch(self, x):
        chosen = self.meta_.select_batch(x)
        out = np.empty((x.shape[0], self.n_algorithms_))
        for s in np.unique(chosen):
            mask = chosen == s
            out[mask] = shared_scores(self.members_[s], x)[mask]
        return out
