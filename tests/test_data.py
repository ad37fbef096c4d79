"""Dataset ingestion and partitioning."""

import gzip
import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from tdmafl import (
    DataError,
    IdxParseError,
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
    """A (features, labels) pair of ten classes."""
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
        features, got = load_idx_dataset(tmp_path / "img", tmp_path / "lab")
        assert len(features) == len(got) == 2
        assert features.dtype == np.float64 and got.dtype == np.int64
        assert np.allclose(features[0], np.array([0, 128, 255, 7]) / 255.0)
        assert np.allclose(features[1], np.array([1, 2, 3, 4]) / 255.0)
        assert list(got) == [3, 9]

    def test_zero_images(self, tmp_path):
        # An IDX pair of no images of 4 x 3 pixels is an empty (0, 12) pair, not a reshape error.
        write_idx_images(tmp_path / "img", np.zeros((0, 4, 3), dtype=np.uint8))
        write_idx_labels(tmp_path / "lab", np.zeros(0, dtype=np.uint8))
        features, labels = load_idx_dataset(tmp_path / "img", tmp_path / "lab")
        assert features.shape == (0, 12) and labels.shape == (0,)

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

    @pytest.mark.parametrize("name", ["img", "img.gz"], ids=["plain", "gz"])
    def test_header_claiming_more_than_the_file_is_a_parse_error(self, tmp_path, name):
        # 10^15 claimed pixels over 16 bytes: the loader must not ask for them.
        raw = struct.pack(">iiii", 0x803, 100_000, 100_000, 100_000) + bytes(16)
        with (gzip.open if name.endswith(".gz") else open)(tmp_path / name, "wb") as fh:
            fh.write(raw)
        with pytest.raises(IdxParseError, match="truncated pixel data: expected "
                                                "1000000000000000 bytes, got 16"):
            load_idx_images(tmp_path / name)

    def test_bytes_past_the_payload_are_ignored(self, tmp_path):
        images = np.arange(24, dtype=np.uint8).reshape(2, 3, 4)
        write_idx_images(tmp_path / "img", images)
        with open(tmp_path / "img", "ab") as fh:
            fh.write(b"trailer")
        assert np.array_equal(load_idx_images(tmp_path / "img"), images)

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
        features, got = load_cifar10_batches([tmp_path / "data_batch_1.bin"])
        assert len(features) == len(got) == 5
        assert features.dtype == np.float64 and got.dtype == np.int64
        assert np.array_equal(got, labels)
        assert np.allclose(features, pixels / 255.0)

    def test_bad_size(self, tmp_path):
        (tmp_path / "data_batch_1.bin").write_bytes(b"\x00" * 100)
        with pytest.raises(DataError, match="multiple"):
            load_cifar10_batches([tmp_path / "data_batch_1.bin"])

    def test_no_batches(self):
        with pytest.raises(DataError, match="no CIFAR batch"):
            load_cifar10_batches([])


def _peak_bytes(load):
    """(result, tracemalloc peak in bytes) of one call of ``load``."""
    tracemalloc.start()
    try:
        result = load()
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestLoaderMemory:
    """A loader holds one float64 copy of the pixels; the old ones held two."""

    def test_cifar_batches(self, tmp_path):
        rng = np.random.default_rng(7)
        paths, blobs = [], []
        for i in range(3):
            records = rng.integers(0, 256, size=(200, 3073), dtype=np.uint8)
            records[:, 0] %= 10
            paths.append(tmp_path / f"data_batch_{i + 1}.bin")
            paths[-1].write_bytes(records.tobytes())
            blobs.append(records)
        (features, labels), peak = _peak_bytes(lambda: load_cifar10_batches(paths))
        old = np.concatenate([r[:, 1:].astype(float) / 255.0 for r in blobs])
        assert features.tobytes() == old.tobytes()
        assert np.array_equal(labels, np.concatenate([r[:, 0] for r in blobs]))
        assert peak < 1.5 * features.nbytes

    def test_idx_images(self, tmp_path):
        rng = np.random.default_rng(8)
        images = rng.integers(0, 256, size=(600, 28, 28), dtype=np.uint8)
        write_idx_images(tmp_path / "img", images)
        write_idx_labels(tmp_path / "lab", rng.integers(0, 10, size=600, dtype=np.uint8))
        (features, _), peak = _peak_bytes(
            lambda: load_idx_dataset(tmp_path / "img", tmp_path / "lab"))
        old = images.reshape(600, -1).astype(float) / 255.0
        assert features.tobytes() == old.tobytes()
        assert peak < 1.5 * features.nbytes


def pop_loop_partition(labels, num_devices, per_device, rng):
    """The partition as a loop that pops one boxed index at a time (the reference).

    Each device draws its label from a fresh list of the labels that hold at
    least ``per_device`` unused samples. Returns the index array, or None once
    no label can fill a shard, and the number of draws made from fewer than
    all the labels.
    """
    label_values = np.unique(labels)
    pools = {int(lab): list(rng.permutation(np.flatnonzero(labels == lab)))
             for lab in label_values}
    order, narrowed = [], 0
    for _ in range(num_devices):
        eligible = [lab for lab in pools if len(pools[lab]) >= per_device]
        if not eligible:
            return None, narrowed
        narrowed += len(eligible) < len(pools)
        lab = int(rng.choice(eligible))
        order += [pools[lab].pop() for _ in range(per_device)]
    return np.array(order, dtype=np.intp), narrowed


def shards(dataset, take, num_devices):
    """Per-device feature and label lists of a partition's index array into a pair."""
    features, labels = dataset
    return np.split(features[take], num_devices), np.split(labels[take], num_devices)


class TestSingleLabelPartition:
    def test_shards_are_pure_disjoint_and_sized(self, dataset):
        take = partition_single_label(dataset[1], 10, 25, np.random.default_rng(3))
        assert take.dtype == np.intp and take.shape == (250,)
        feats, labels = shards(dataset, take, 10)
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
        take = partition_single_label(dataset[1], 1, 30, np.random.default_rng(4))
        _, labels = shards(dataset, take, 1)
        assert len(labels) == 1 and len(set(labels[0].tolist())) == 1

    def test_insufficient_data(self, dataset):
        with pytest.raises(DataError):
            partition_single_label(dataset[1], 200, 100, np.random.default_rng(5))

    def test_exhausted_label_falls_back_then_errors(self):
        # Two labels, one too small to ever serve a device: it is never drawn,
        # every device falls back to the big label, and once the big label's
        # three shards are taken the partition fails up front, naming both counts.
        labels = np.array([0] * 35 + [1] * 5)
        for seed in range(20):
            take = partition_single_label(labels, 3, 10, np.random.default_rng(seed))
            assert (labels[take] == 0).all() and len(set(take.tolist())) == 30
        rng = np.random.default_rng(6)
        state = rng.bit_generator.state
        with pytest.raises(DataError, match=r"^labels hold 3 shards of 10 samples, need 4$"):
            partition_single_label(labels, 4, 10, rng)
        assert rng.bit_generator.state == state  # it fails before any draw

    def test_shards_match_the_pop_loop(self):
        # Five labels of 12 samples hold exactly ten shards of 5: labels run
        # short, so most seeds draw from fewer than five labels, and none fails.
        feats = np.arange(120, dtype=float).reshape(60, 2)
        labels = np.repeat(np.arange(5), 12)
        ds = feats, labels
        total_narrowed = 0
        for seed in range(150):
            want, narrowed = pop_loop_partition(labels, 10, 5, np.random.default_rng(seed))
            total_narrowed += narrowed
            assert want is not None  # no seed fails
            got = partition_single_label(labels, 10, 5, np.random.default_rng(seed))
            assert got.shape == want.shape == (50,)
            assert got.dtype == want.dtype and np.array_equal(got, want)
            for got_part, want_part in zip(shards(ds, got, 10), shards(ds, want, 10)):
                assert len(got_part) == len(want_part) == 10
                for a, b in zip(got_part, want_part):
                    assert a.dtype == b.dtype and np.array_equal(a, b)
        assert total_narrowed > 0

    def test_mnist_label_counts_fill_every_shard(self):
        # MNIST's training-label counts hold exactly 100 shards of 580 (9 of
        # label 5, 11 of label 1, 10 of each other), so every shard is used.
        counts = [5923, 6742, 5958, 6131, 5842, 5421, 5918, 6265, 5851, 5949]
        labels = np.repeat(np.arange(10), counts)
        for seed in range(20):
            take = partition_single_label(labels, 100, 580, np.random.default_rng(seed))
            assert take.shape == (58_000,) and len(np.unique(take)) == 58_000
            per_device = labels[take].reshape(100, 580)
            assert (per_device == per_device[:, :1]).all()

    @pytest.mark.parametrize("num_devices, per_device", [(4, 0), (4, -2), (0, 5), (-1, 5)])
    def test_non_positive_sizes_are_a_data_error(self, dataset, num_devices, per_device):
        with pytest.raises(DataError, match="must be >= 1"):
            partition_single_label(dataset[1], num_devices, per_device, np.random.default_rng(0))

    @settings(max_examples=200, deadline=None)
    @given(counts=st.lists(st.integers(1, 12), min_size=1, max_size=5),
           num_devices=st.integers(1, 8), per_device=st.integers(1, 6),
           seed=st.integers(0, 2**32 - 1))
    def test_succeeds_exactly_when_the_labels_hold_every_shard(self, counts, num_devices,
                                                               per_device, seed):
        labels = np.repeat(np.arange(len(counts)), counts)
        ds = np.zeros((len(labels), 1)), labels
        held = sum(c // per_device for c in counts)
        big_enough = len(labels) >= num_devices * per_device
        want, _ = pop_loop_partition(labels, num_devices, per_device,
                                     np.random.default_rng(seed))
        assert (want is not None) == (held >= num_devices)
        if not big_enough:
            with pytest.raises(DataError, match="^dataset has"):
                partition_single_label(labels, num_devices, per_device,
                                       np.random.default_rng(seed))
        elif held < num_devices:
            with pytest.raises(DataError, match=f"^labels hold {held} shards of {per_device} "
                                                f"samples, need {num_devices}$"):
                partition_single_label(labels, num_devices, per_device,
                                       np.random.default_rng(seed))
        else:
            got = partition_single_label(labels, num_devices, per_device,
                                         np.random.default_rng(seed))
            assert got.dtype == want.dtype and np.array_equal(got, want)
            assert len(set(got.tolist())) == num_devices * per_device
            assert all(len(set(y.tolist())) == 1 for y in shards(ds, got, num_devices)[1])

    def test_label_choice_uniform_over_seeds(self, dataset):
        # Monte-Carlo over seeds: chosen labels should be uniform across the
        # ten classes; chi-square should not reject at the 1% level.
        counts = np.zeros(10)
        for seed in range(100):
            take = partition_single_label(dataset[1], 8, 10, np.random.default_rng(seed))
            _, labels = shards(dataset, take, 8)
            for y in labels:
                counts[y[0]] += 1
        _, pvalue = stats.chisquare(counts)
        assert pvalue > 0.01


class TestIidPartition:
    def test_disjoint_and_sized(self, dataset):
        take = partition_iid(dataset[1], 6, 40, np.random.default_rng(7))
        assert take.dtype == np.intp and len(set(take.tolist())) == 240
        all_rows = np.concatenate(shards(dataset, take, 6)[0])
        assert all_rows.shape[0] == 240
        assert len({tuple(r) for r in all_rows}) == 240

    def test_insufficient(self, dataset):
        with pytest.raises(DataError):
            partition_iid(dataset[1], 100, 100, np.random.default_rng(8))

    @pytest.mark.parametrize("num_devices, per_device", [(-1, 5), (4, 0), (0, 5), (4, -2)])
    def test_non_positive_sizes_are_a_data_error(self, num_devices, per_device):
        # On 30 samples the first case took rng.permutation(30)[:-5], 25 indices.
        with pytest.raises(DataError, match="must be >= 1"):
            partition_iid(np.zeros(30, dtype=int), num_devices, per_device,
                          np.random.default_rng(0))


@pytest.mark.parametrize("num_classes, dim, per_class", [(1, 2, 3), (2, 0, 3), (2, 2, 0)],
                         ids=["one-class", "no-features", "no-samples"])
def test_clustered_dataset_rejects_bad_arguments(num_classes, dim, per_class):
    with pytest.raises(DataError, match="need num_classes >= 2, per_class >= 1, dim >= 1"):
        make_clustered_dataset(num_classes, dim, per_class, np.random.default_rng(0))

