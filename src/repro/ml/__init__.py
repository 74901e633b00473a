"""From-scratch machine-learning substrate used across all reliability layers.

The paper surveys reliability techniques built on classical ML models
(kNN, SVM, naive Bayes, decision trees, boosting, MLPs, graph attention
networks, clustering).  This subpackage implements those models on top of
numpy only, with a small sklearn-like ``fit``/``predict`` API so the
higher layers (:mod:`repro.circuit`, :mod:`repro.arch`, :mod:`repro.system`)
can mix and match model families.
"""

from repro._lazy import lazy_exports

#: Public name -> defining module; each is imported on first use.
_EXPORTS = {
    "StandardScaler": "preprocessing",
    "MinMaxScaler": "preprocessing",
    "train_test_split": "preprocessing",
    "one_hot": "preprocessing",
    "KFold": "preprocessing",
    "accuracy_score": "metrics",
    "precision_score": "metrics",
    "recall_score": "metrics",
    "f1_score": "metrics",
    "confusion_matrix": "metrics",
    "mean_squared_error": "metrics",
    "mean_absolute_error": "metrics",
    "r2_score": "metrics",
    "LinearRegression": "linear",
    "RidgeRegression": "linear",
    "LogisticRegression": "linear",
    "KNeighborsClassifier": "knn",
    "KNeighborsRegressor": "knn",
    "GaussianNB": "naive_bayes",
    "LinearSVC": "svm",
    "DecisionTreeClassifier": "tree",
    "DecisionTreeRegressor": "tree",
    "RandomForestClassifier": "ensemble",
    "AdaBoostClassifier": "ensemble",
    "GradientBoostingClassifier": "ensemble",
    "GradientBoostingRegressor": "ensemble",
    "MLPClassifier": "mlp",
    "MLPRegressor": "mlp",
    "KMeans": "cluster",
    "PCA": "decomposition",
    "GraphAttentionClassifier": "gnn",
    "prune_mlp": "compression",
    "quantize_mlp": "compression",
    "roc_auc_score": "metrics",
}

__all__ = list(_EXPORTS)
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
