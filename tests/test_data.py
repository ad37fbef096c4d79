"""Dataset ingestion and partitioning."""

import gzip

import numpy as np
import pytest
from scipy import stats

from tdmafl import (
    DataError,
    IdxParseError,
    LabeledDataset,
    load_cifar10_batches,
    load_idx_dataset,
    load_idx_images,
    load_idx_labels,
    make_clustered_dataset,
    partition_iid,
    partition_single_label,
)
from util import write_idx_images, write_idx_labels


@pytest.fixture()
def dataset():
    rng = np.random.default_rng(0)
    return make_clustered_dataset(10, 8, 120, rng)


class TestIdxFormat:
    def test_round_trip_random_fixture(self, tmp_path):
        rng = np.random.default_rng(1)
        images = rng.integers(0, 256, size=(7, 5, 4), dtype=np.uint8)
        labels = rng.integers(0, 10, size=7, dtype=np.uint8)
        write_idx_images(tmp_path / "img", images)
        write_idx_labels(tmp_path / "lab", labels)
        assert np.array_equal(load_idx_images(tmp_path / "img"), images)
        assert np.array_equal(load_idx_labels(tmp_path / "lab"), labels)

    def test_two_image_fixture_exact_pixels(self, tmp_path):
        images = np.array(
            [[[0, 128], [255, 7]], [[1, 2], [3, 4]]], dtype=np.uint8
        )
        labels = np.array([3, 9], dtype=np.uint8)
        write_idx_images(tmp_path / "img", images)
        write_idx_labels(tmp_path / "lab", labels)
        ds = load_idx_dataset(tmp_path / "img", tmp_path / "lab")
        assert len(ds) == 2
        assert np.allclose(ds.features[0], np.array([0, 128, 255, 7]) / 255.0)
        assert np.allclose(ds.features[1], np.array([1, 2, 3, 4]) / 255.0)
        assert list(ds.labels) == [3, 9]

    def test_gzip_transparent(self, tmp_path):
        images = np.arange(24, dtype=np.uint8).reshape(2, 3, 4)
        write_idx_images(tmp_path / "img", images)
        raw = (tmp_path / "img").read_bytes()
        with gzip.open(tmp_path / "img.gz", "wb") as fh:
            fh.write(raw)
        assert np.array_equal(load_idx_images(tmp_path / "img.gz"), images)

    def test_empty_file(self, tmp_path):
        (tmp_path / "img").write_bytes(b"")
        with pytest.raises(IdxParseError, match="magic"):
            load_idx_images(tmp_path / "img")

    def test_magic_mismatch_names_field(self, tmp_path):
        labels = np.zeros(3, dtype=np.uint8)
        write_idx_labels(tmp_path / "lab", labels)
        with pytest.raises(IdxParseError, match="magic"):
            load_idx_images(tmp_path / "lab")

    def test_truncated_pixels(self, tmp_path):
        images = np.zeros((4, 3, 3), dtype=np.uint8)
        write_idx_images(tmp_path / "img", images)
        raw = (tmp_path / "img").read_bytes()
        (tmp_path / "img").write_bytes(raw[:-5])
        with pytest.raises(IdxParseError, match="truncated pixel data"):
            load_idx_images(tmp_path / "img")

    def test_count_mismatch_between_files(self, tmp_path):
        write_idx_images(tmp_path / "img", np.zeros((3, 2, 2), dtype=np.uint8))
        write_idx_labels(tmp_path / "lab", np.zeros(4, dtype=np.uint8))
        with pytest.raises(IdxParseError, match="count mismatch"):
            load_idx_dataset(tmp_path / "img", tmp_path / "lab")


class TestCifarFormat:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(2)
        labels = rng.integers(0, 10, size=5, dtype=np.uint8)
        pixels = rng.integers(0, 256, size=(5, 3072), dtype=np.uint8)
        records = np.concatenate([labels[:, None], pixels], axis=1)
        (tmp_path / "data_batch_1.bin").write_bytes(records.tobytes())
        ds = load_cifar10_batches([tmp_path / "data_batch_1.bin"])
        assert len(ds) == 5
        assert np.array_equal(ds.labels, labels)
        assert np.allclose(ds.features, pixels / 255.0)

    def test_bad_size(self, tmp_path):
        (tmp_path / "data_batch_1.bin").write_bytes(b"\x00" * 100)
        with pytest.raises(DataError, match="multiple"):
            load_cifar10_batches([tmp_path / "data_batch_1.bin"])


class TestSingleLabelPartition:
    def test_shards_are_pure_disjoint_and_sized(self, dataset):
        feats, labels = partition_single_label(dataset, 10, 25, np.random.default_rng(3))
        assert len(feats) == len(labels) == 10
        seen = set()
        for x, y in zip(feats, labels):
            assert x.shape[0] == y.shape[0] == 25
            assert len(set(y.tolist())) == 1
            rows = {tuple(row) for row in x}
            assert not rows & seen
            seen |= rows
        assert sum(x.shape[0] for x in feats) == 250

    def test_single_device(self, dataset):
        _, labels = partition_single_label(dataset, 1, 30, np.random.default_rng(4))
        assert len(labels) == 1 and len(set(labels[0].tolist())) == 1

    def test_insufficient_data(self, dataset):
        with pytest.raises(DataError):
            partition_single_label(dataset, 200, 100, np.random.default_rng(5))

    def test_exhausted_label_falls_back_then_errors(self):
        # Two labels, one too small to ever serve a device: draws of the
        # small label are redrawn, and once the big label is consumed the
        # partition fails loudly.
        feats = np.arange(80, dtype=float).reshape(40, 2)
        labels = np.array([0] * 35 + [1] * 5)
        ds = LabeledDataset(feats, labels)
        with pytest.raises(DataError, match="could not find a label"):
            partition_single_label(ds, 4, 10, np.random.default_rng(6))

    def test_label_choice_uniform_over_seeds(self, dataset):
        # Monte-Carlo over seeds: chosen labels should be uniform across the
        # ten classes; chi-square should not reject at the 1% level.
        counts = np.zeros(10)
        for seed in range(100):
            _, labels = partition_single_label(dataset, 8, 10,
                                               np.random.default_rng(seed))
            for y in labels:
                counts[y[0]] += 1
        _, pvalue = stats.chisquare(counts)
        assert pvalue > 0.01


class TestIidPartition:
    def test_disjoint_and_sized(self, dataset):
        feats, _ = partition_iid(dataset, 6, 40, np.random.default_rng(7))
        all_rows = np.concatenate(feats)
        assert all_rows.shape[0] == 240
        assert len({tuple(r) for r in all_rows}) == 240

    def test_insufficient(self, dataset):
        with pytest.raises(DataError):
            partition_iid(dataset, 100, 100, np.random.default_rng(8))


class TestLabeledDataset:
    def test_count_mismatch(self):
        with pytest.raises(DataError, match="count mismatch"):
            LabeledDataset(np.zeros((3, 2)), np.zeros(4, dtype=int))

    def test_num_classes(self, dataset):
        assert dataset.num_classes == 10
