"""Per-layer metrics of one traced run, computed from its spans.

Layer names follow the package's modules. A layer's self time is its
spans' duration minus the time of the nearest spans of the layer below
that they enclose (for ensembles and the meta level: minus the member
selectors' fit and predict time; for the forest: minus the split
kernel). Nested spans of one layer (`fit_transform` calling `fit`,
`select_batch` calling `scores_batch`) count once, at the outermost.
"""

from __future__ import annotations

from collections import defaultdict

from tracer import END, INFO, NAME, PARENT, RUN, START

# name -> unit of every metric this module computes. Units other than
# "s" are work counts, which must repeat exactly between runs of one seed.
SPAN_METRICS = {
    "kernels.best_split.calls": "calls",
    "kernels.best_split.rows": "rows",
    "kernels.best_split.s": "s",
    "kernels.tree_apply.calls": "calls",
    "kernels.tree_apply.rows": "rows",
    "kernels.tree_apply.s": "s",
    "kernels.pairwise_sq_dists.calls": "calls",
    "kernels.pairwise_sq_dists.cells": "cells-computed",
    "kernels.pairwise_sq_dists.s": "s",
    "kernels.kmeans_accumulate.calls": "calls",
    "kernels.kmeans_accumulate.s": "s",
    "forest.fit.calls": "calls",
    "forest.fit.s": "s",
    "forest.fit.self_s": "s",
    "forest.trees": "trees",
    "forest.nodes": "nodes",
    "forest.predict.s": "s",
    "knn.query.calls": "calls",
    "knn.query.rows": "rows",
    "knn.query.s": "s",
    "kmeans.fit.calls": "calls",
    "kmeans.iterations": "iterations",
    "kmeans.fit.s": "s",
    "preprocess.s": "s",
    "selectors.fit.calls": "calls",
    "selectors.fit.s": "s",
    "selectors.fit.unique_frac": "fraction",
    "selectors.predict.calls": "calls",
    "selectors.predict.rows": "rows",
    "selectors.predict.s": "s",
    "aggregation.combine.calls": "calls",
    "aggregation.combine.s": "s",
    "aggregation.ranks.calls": "calls",
    "ensembles.fit.self_s": "s",
    "ensembles.predict.self_s": "s",
    "ensembles.search.masks": "masks",
    "meta.build.s": "s",
    "meta.inner_fits": "fits",
    "meta.fit.self_s": "s",
}

MEMBER_SPANS = ("selector.fit", "selector.predict")


def span_metrics(spans, run: int) -> dict[str, float]:
    by_name = defaultdict(list)
    for i, span in enumerate(spans):
        if span[RUN] == run:
            by_name[span[NAME]].append(i)

    def duration(i):
        return spans[i][END] - spans[i][START]

    def nearest(i, names):
        """Index of the closest enclosing span named in `names`, or -1."""
        p = spans[i][PARENT]
        while p >= 0 and spans[p][NAME] not in names:
            p = spans[p][PARENT]
        return p

    def outermost(name):
        """`name` spans not directly inside another `name` span."""
        return [
            i for i in by_name[name]
            if spans[i][PARENT] < 0 or spans[spans[i][PARENT]][NAME] != name
        ]

    def seconds(name, nested_once=False):
        return sum(duration(i) for i in (outermost(name) if nested_once else by_name[name]))

    def counted(name, key):
        return sum(spans[i][INFO][key] for i in by_name[name])

    def self_seconds(name, inner, nested_once=False):
        """Time of `name` spans not covered by the nearest `inner` spans."""
        stop = (name, *inner)
        covered = sum(
            duration(i)
            for inner_name in inner
            for i in by_name[inner_name]
            if (p := nearest(i, stop)) >= 0 and spans[p][NAME] == name
        )
        return seconds(name, nested_once) - covered

    fit_keys = [spans[i][INFO]["key"] for i in by_name["selector.fit"]]
    predictions = outermost("selector.predict")
    inner_fits = sum(1 for i in by_name["selector.fit"] if nearest(i, ("meta.build",)) >= 0)

    return {
        "kernels.best_split.calls": len(by_name["kernels.best_split"]),
        "kernels.best_split.rows": counted("kernels.best_split", "rows"),
        "kernels.best_split.s": seconds("kernels.best_split"),
        "kernels.tree_apply.calls": len(by_name["kernels.tree_apply"]),
        "kernels.tree_apply.rows": counted("kernels.tree_apply", "rows"),
        "kernels.tree_apply.s": seconds("kernels.tree_apply"),
        "kernels.pairwise_sq_dists.calls": len(by_name["kernels.pairwise_sq_dists"]),
        "kernels.pairwise_sq_dists.cells": counted("kernels.pairwise_sq_dists", "cells"),
        "kernels.pairwise_sq_dists.s": seconds("kernels.pairwise_sq_dists"),
        "kernels.kmeans_accumulate.calls": len(by_name["kernels.kmeans_accumulate"]),
        "kernels.kmeans_accumulate.s": seconds("kernels.kmeans_accumulate"),
        "forest.fit.calls": len(by_name["forest.fit"]),
        "forest.fit.s": seconds("forest.fit"),
        "forest.fit.self_s": self_seconds("forest.fit", ("kernels.best_split",)),
        "forest.trees": counted("forest.fit", "trees"),
        "forest.nodes": counted("forest.fit", "nodes"),
        "forest.predict.s": seconds("forest.predict", nested_once=True),
        "knn.query.calls": len(by_name["knn.query"]),
        "knn.query.rows": counted("knn.query", "rows"),
        "knn.query.s": seconds("knn.query"),
        "kmeans.fit.calls": len(by_name["kmeans.fit"]),
        "kmeans.iterations": counted("kmeans.fit", "iterations"),
        "kmeans.fit.s": seconds("kmeans.fit"),
        "preprocess.s": seconds("preprocess", nested_once=True),
        "selectors.fit.calls": len(fit_keys),
        "selectors.fit.s": seconds("selector.fit"),
        "selectors.fit.unique_frac": len(set(fit_keys)) / len(fit_keys) if fit_keys else 1.0,
        "selectors.predict.calls": len(predictions),
        "selectors.predict.rows": sum(spans[i][INFO]["rows"] for i in predictions),
        "selectors.predict.s": sum(duration(i) for i in predictions),
        "aggregation.combine.calls": len(by_name["aggregation.combine"]),
        "aggregation.combine.s": seconds("aggregation.combine"),
        "aggregation.ranks.calls": len(by_name["aggregation.ranks"]),
        "ensembles.fit.self_s": self_seconds("ensemble.fit", MEMBER_SPANS),
        "ensembles.predict.self_s": self_seconds("ensemble.predict", MEMBER_SPANS, nested_once=True),
        "ensembles.search.masks": counted("ensemble.fit", "masks"),
        "meta.build.s": seconds("meta.build"),
        "meta.inner_fits": inner_fits - counted("meta.build", "deployed"),
        "meta.fit.self_s": self_seconds("meta.fit", MEMBER_SPANS),
    }
