"""Checks against the published statistics of the empirical datasets.

Everything here skips unless the dataset files are present (see README);
the exact-match pipeline criteria live in test_acceptance.py, while this
module covers the remaining dataset-level expectations.
"""

from __future__ import annotations

import pytest

from conftest import dataset_prefix
from hypernest import (
    DynamicsConfig,
    ExperimentGrid,
    build_influence,
    filter_by_size,
    largest_connected_component,
    layer_samples,
    load_simplex_dataset,
    retention_report,
    run_experiment,
    summarize,
)


def load_filtered(name: str):
    return filter_by_size(load_simplex_dataset(dataset_prefix(name)), 25)


class TestFullDatasetStatistics:
    def test_email_eu_full_counts(self):
        h = load_filtered("email-Eu")
        assert (h.n, h.m) == (998, 25027)
        lcc = largest_connected_component(h)
        assert (lcc.n, lcc.m) == (979, 25008)

    def test_coauth_history_full_edge_count(self):
        h = load_filtered("coauth-MAG-History")
        assert h.m == 895439


class TestRetentionDirection:
    def test_enron_containment_drops_more_than_overlap(self):
        h = largest_connected_component(load_filtered("email-Enron"))
        doc = retention_report(h, layer_samples(h, 5, 0), master_seed=0)
        assert doc["means"]["dag_edges"] < doc["means"]["overlap_edges"]


class TestContactSaturation:
    @pytest.mark.parametrize("name", ["contact-high-school", "contact-primary-school"])
    def test_non_strict_single_seed_saturates(self, name):
        h = largest_connected_component(load_filtered(name))
        grid = ExperimentGrid(DynamicsConfig("non-strict"), ("uniform",), (1,))
        records = run_experiment(h, build_influence(h, "non-strict"), grid, runs=10,
                                 master_seed=1, dataset=name)
        (cell,) = summarize(records)["cells"]
        assert cell["mean_proportion"] == 1.0
