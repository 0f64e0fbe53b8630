import numpy as np
import pytest

import refractory as r


@pytest.fixture(scope="session")
def tiny_dataset():
    """Small generated cohort: (config, table, cohort, matrix, y)."""
    cfg = r.GeneratorConfig(n_case=30, n_control=30, n_codes=40, n_signal_codes=6, seed=11)
    table = r.generate_events(cfg)
    timelines = r.build_timelines(table)
    labeled = r.label_timelines(timelines)
    sampled = r.sample_cohort(labeled, 30, seed=11)
    by_id = {t.patient_id: t for t in timelines}
    window = [r.pre_index_events(by_id[p.patient_id], p.index_day) for p in sampled.patients]
    vocab = r.build_vocabulary(window)
    matrix = r.featurize(sampled, by_id, vocab)
    y = np.array([1 if lab == r.CASE else 0 for lab in matrix.labels])
    return cfg, table, sampled, matrix, y


def _generated_counts(n_per_class: int, seed: int):
    cfg = r.GeneratorConfig(n_case=n_per_class, n_control=n_per_class, seed=seed)
    timelines = r.build_timelines(r.generate_events(cfg))
    sampled = r.sample_cohort(r.label_timelines(timelines), n_per_class, seed=seed)
    by_id = {t.patient_id: t for t in timelines}
    window = [r.pre_index_events(by_id[p.patient_id], p.index_day) for p in sampled.patients]
    matrix = r.featurize(sampled, by_id, r.build_vocabulary(window))
    y = np.array([1 if lab == r.CASE else 0 for lab in matrix.labels])
    return matrix.values, y


@pytest.fixture(scope="session")
def generated_counts():
    """(n_per_class, seed) -> (count matrix, 0/1 labels): the matrix run-all
    writes to features.csv at n_case = n_control = n_per_class and that seed."""
    return _generated_counts
