"""From-scratch machine-learning substrate used across all reliability layers.

The paper surveys reliability techniques built on classical ML models
(kNN, SVM, naive Bayes, decision trees, boosting, MLPs, graph attention
networks, clustering).  This subpackage implements those models on top of
numpy only, with a small sklearn-like ``fit``/``predict`` API so the
higher layers (:mod:`repro.circuit`, :mod:`repro.arch`, :mod:`repro.system`)
can mix and match model families.
"""

from repro.ml.preprocessing import (
    StandardScaler,
    MinMaxScaler,
    train_test_split,
    one_hot,
    KFold,
)
from repro.ml.metrics import (
    accuracy_score,
    precision_score,
    recall_score,
    f1_score,
    confusion_matrix,
    mean_squared_error,
    mean_absolute_error,
    r2_score,
)
from repro.ml.linear import LinearRegression, RidgeRegression, LogisticRegression
from repro.ml.knn import KNeighborsClassifier, KNeighborsRegressor
from repro.ml.naive_bayes import GaussianNB
from repro.ml.svm import LinearSVC
from repro.ml.tree import DecisionTreeClassifier, DecisionTreeRegressor
from repro.ml.ensemble import (
    RandomForestClassifier,
    AdaBoostClassifier,
    GradientBoostingClassifier,
    GradientBoostingRegressor,
)
from repro.ml.mlp import MLPClassifier, MLPRegressor
from repro.ml.cluster import KMeans
from repro.ml.decomposition import PCA
from repro.ml.gnn import GraphAttentionClassifier
from repro.ml.compression import prune_mlp, quantize_mlp
from repro.ml.metrics import roc_auc_score

__all__ = [
    "StandardScaler",
    "MinMaxScaler",
    "train_test_split",
    "one_hot",
    "KFold",
    "accuracy_score",
    "precision_score",
    "recall_score",
    "f1_score",
    "confusion_matrix",
    "mean_squared_error",
    "mean_absolute_error",
    "r2_score",
    "LinearRegression",
    "RidgeRegression",
    "LogisticRegression",
    "KNeighborsClassifier",
    "KNeighborsRegressor",
    "GaussianNB",
    "LinearSVC",
    "DecisionTreeClassifier",
    "DecisionTreeRegressor",
    "RandomForestClassifier",
    "AdaBoostClassifier",
    "GradientBoostingClassifier",
    "GradientBoostingRegressor",
    "MLPClassifier",
    "MLPRegressor",
    "KMeans",
    "PCA",
    "GraphAttentionClassifier",
    "prune_mlp",
    "quantize_mlp",
    "roc_auc_score",
]
