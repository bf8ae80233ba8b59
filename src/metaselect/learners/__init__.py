from .forest import ForestClassifier, ForestRegressor, fit_forests, grow_together
from .kmeans import KMeansModel, fit_kmeans
from .neighbors import KnnIndex
from .preprocess import Preprocessor, fit_variance_threshold

__all__ = [
    "ForestClassifier",
    "ForestRegressor",
    "fit_forests",
    "grow_together",
    "KMeansModel",
    "fit_kmeans",
    "KnnIndex",
    "Preprocessor",
    "fit_variance_threshold",
]
