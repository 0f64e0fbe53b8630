"""
Supervised pipeline end to end
==============================

Build the cohort, reduce with RBF kernel PCA, cross-validate the boosted
trees against the linear baselines, and sweep the learning rate. The
nonlinear pair structure shows up as a wide accuracy gap.
"""

import numpy as np

import refractory as r
from refractory.classify import GBDT, LOGREG, SVM_LINEAR, ClassifierSpec
from refractory.metrics import kfold_cv
from refractory.reduce import RBF

cfg = r.GeneratorConfig(n_case=100, n_control=100, n_codes=200, n_signal_codes=12, seed=2)
timelines = r.build_timelines(r.generate_events(cfg))
labeled = r.label_timelines(timelines)
cohort = r.sample_cohort(labeled, 100, seed=2)
by_id = {t.patient_id: t for t in timelines}
windows = [r.pre_index_events(by_id[p.patient_id], p.index_day) for p in cohort.patients]
matrix = r.featurize(cohort, by_id, r.build_vocabulary(windows))
y = np.array([1 if lab == r.CASE else 0 for lab in matrix.labels])

model = r.fit_reducer("KPCA", matrix.values, 12, kernel=r.KernelSpec(RBF))
emb = model.train_embedding
print(f"KPCA: {matrix.values.shape[1]} counts -> {emb.shape[1]} components "
      f"(gamma {model.gamma:.4f})")

print("\n7-fold CV accuracy")
for name, spec, design in (
    ("LOGREG raw counts", ClassifierSpec(method=LOGREG), matrix.values),
    ("LOGREG embedding", ClassifierSpec(method=LOGREG), emb),
    ("SVM_LINEAR embedding", ClassifierSpec(method=SVM_LINEAR, max_iter=500), emb),
    ("GBDT embedding", ClassifierSpec(method=GBDT), emb),
):
    report = kfold_cv(design, y, spec, k=7, seed=2)
    print(f"  {name:<22} {report.mean:.3f} +/- {report.std:.3f}")

print("\nlearning-rate sweep for the boosted trees")
for alpha in (0.01, 0.05, 0.25, 1.0, 2.0):
    spec = ClassifierSpec(method=GBDT, learning_rate=alpha)
    report = kfold_cv(emb, y, spec, k=7, seed=2)
    print(f"  alpha {alpha:<5} accuracy {report.mean:.3f}")

# what the final model looks at
fitted = r.fit_classifier(ClassifierSpec(method=GBDT), emb, y)
imp = r.feature_importance(fitted).weights
top = np.argsort(imp)[::-1][:5]
print("\ntop embedding components by importance:",
      ", ".join(f"c{i} ({imp[i]:.2f})" for i in top))
trace = fitted.deviance_trace
print(f"training deviance: {trace[0]:.3f} after stage 1 -> {trace[-1]:.3f} after {len(trace)}")
