"""Outside-in span recording around metaselect's layer entry points.

`Tracer.installed()` replaces public module attributes and class methods
of the package with wrappers that record one span per call, and puts
the originals back on exit. Nothing inside `src/` knows about it. The
patch points must be the names the callers look up at call time: the
forest, kNN and k-means code call `_kernels.<kernel>` through the module,
`selectors` calls its own imported `fit_kmeans`, and both `ensembles`
and `runner` call their own imported `combine_scores`.

A span is a list `[name, start, end, parent, run, info]`: perf_counter
seconds, the index of the enclosing span (-1 at the top), the run id the
caller set, and a dict of work counts filled in after the call returns.
Spans stay in memory until `write_jsonl`.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import json
import time

import numpy as np

from metaselect import aggregation, ensembles, meta, runner, selectors
from metaselect.learners import _kernels
from metaselect.learners.forest import ForestClassifier, ForestRegressor
from metaselect.learners.neighbors import KnnIndex
from metaselect.learners.preprocess import Preprocessor

ENSEMBLE_TYPES = (
    ensembles.VotingEnsemble,
    ensembles.BaggingEnsemble,
    ensembles.BoostingEnsemble,
    ensembles.StackingEnsemble,
)

NAME, START, END, PARENT, RUN, INFO = range(6)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.run = 0
        self._open: list[int] = []

    def wrap(self, name, fn, describe=None):
        """`fn` recording a span per call. `name` is a string or a
        function of the call's arguments; `describe(args, result)`
        returns the span's work counts."""
        spans, stack, clock = self.spans, self._open, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            label = name if isinstance(name, str) else name(args)
            span = [label, clock(), 0.0, stack[-1] if stack else -1, self.run, None]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                span[END] = clock()
            if describe is not None:
                span[INFO] = describe(args, result)
            return result

        return traced

    @contextlib.contextmanager
    def installed(self):
        """Patch every layer entry point for the duration of the block."""
        saved = []
        try:
            for owner, attr, name, describe in _patch_points():
                original = owner.__dict__[attr]
                saved.append((owner, attr, original))
                setattr(owner, attr, self.wrap(name, original, describe))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def write_jsonl(self, path) -> None:
        with open(path, "w", encoding="utf-8") as out:
            for name, start, end, parent, run, info in self.spans:
                record = {"name": name, "start": start, "end": end, "parent": parent, "run": run}
                record.update(info or {})
                out.write(json.dumps(record) + "\n")


def _rows(x) -> int:
    return int(np.atleast_2d(x).shape[0])


def _selector_layer(selector) -> str:
    if isinstance(selector, ENSEMBLE_TYPES):
        return "ensemble"
    if isinstance(selector, meta.AlgorithmSelectorSelector):
        return "meta"
    return "selector"


def _fit_name(args) -> str:
    return _selector_layer(args[0]) + ".fit"


def _predict_name(args) -> str:
    return _selector_layer(args[0]) + ".predict"


def _describe_fit(args, result):
    model, scenario, train = args[0], args[1], np.asarray(args[2], dtype=np.int64)
    layer = _selector_layer(model)
    if layer == "ensemble":
        search = getattr(model, "search_result_", None)
        return {"masks": len(search.masks) if search is not None else 0}
    if layer == "meta":
        return None
    # Two fits with equal keys train identically: same canonical spec,
    # same random stream, same training rows. The rows are hashed by
    # content because stacking and ass fit atoms on derived scenarios.
    digest = hashlib.blake2b(train.tobytes(), digest_size=16)
    digest.update(np.ascontiguousarray(scenario.features[train]).tobytes())
    digest.update(np.ascontiguousarray(scenario.pr10_matrix()[train]).tobytes())
    key = f"{model.spec}|{list(model._entropy)}|{digest.hexdigest()}"
    return {"key": key}


def _describe_predict(args, result):
    return {"obj": id(args[0]), "rows": _rows(args[1])}


def _describe_forest_fit(args, result):
    return {
        "trees": len(result.trees_),
        "nodes": sum(int(tree.feature.size) for tree in result.trees_),
    }


def _patch_points():
    """(owner, attribute, span name, describe) for every wrapped entry."""
    points = [
        (_kernels, "best_split_reg", "kernels.best_split",
         lambda a, r: {"rows": int(a[0].shape[0])}),
        (_kernels, "best_split_cls", "kernels.best_split",
         lambda a, r: {"rows": int(a[0].shape[0])}),
        (_kernels, "tree_apply", "kernels.tree_apply",
         lambda a, r: {"rows": int(a[4].shape[0])}),
        (_kernels, "pairwise_sq_dists", "kernels.pairwise_sq_dists",
         lambda a, r: {"cells": int(a[0].shape[0] * a[1].shape[0] * a[0].shape[1])}),
        (_kernels, "kmeans_accumulate", "kernels.kmeans_accumulate", None),
        (ForestRegressor, "fit", "forest.fit", _describe_forest_fit),
        (ForestClassifier, "fit", "forest.fit", _describe_forest_fit),
        (ForestRegressor, "predict", "forest.predict", None),
        (ForestClassifier, "predict", "forest.predict", None),
        (ForestClassifier, "predict_proba", "forest.predict", None),
        (KnnIndex, "query", "knn.query", lambda a, r: {"rows": _rows(a[1])}),
        (selectors, "fit_kmeans", "kmeans.fit",
         lambda a, r: {"iterations": len(r.inertia_history)}),
        (Preprocessor, "fit", "preprocess", None),
        (Preprocessor, "transform", "preprocess", None),
        (Preprocessor, "fit_transform", "preprocess", None),
        (selectors.Selector, "fit", _fit_name, _describe_fit),
        (ensembles, "combine_scores", "aggregation.combine", None),
        (runner, "combine_scores", "aggregation.combine", None),
        (aggregation, "ranks_from_scores", "aggregation.ranks", None),
        (runner, "ranks_from_scores", "aggregation.ranks", None),
        (meta, "build_meta_scenario", "meta.build",
         lambda a, r: {"deployed": len(r.deployed)}),
    ]
    # Every selector, ensemble and meta class scores its own batch; a
    # class that overrides select_batch gets its own span too.
    pending = [selectors.Selector]
    while pending:
        cls = pending.pop()
        pending.extend(cls.__subclasses__())
        for attr in ("scores_batch", "select_batch"):
            if attr in cls.__dict__:
                points.append((cls, attr, _predict_name, _describe_predict))
    return points
