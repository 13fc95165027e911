"""Windowing and pool loading, cross-checked against the window oracle."""
import gc
import json
import tracemalloc

import pytest
from hypothesis import given
from hypothesis import strategies as st

from mixsearch.corpus import PoolManifest, load_pool, whitespace_token_count, window_lengths
from mixsearch.errors import ConfigError, SchemaError
from mixsearch.records import Dataset
from mixsearch.oracles.window_enum import check_coverage, expected_windows

from conftest import make_pool


def split_windows(token_count: int, window_length: int, stride: int) -> list[tuple[int, int]]:
    """The (start, length) windows of a document, as the oracle lists
    them: ``window_lengths`` paired with the starts, 0, ``stride``,
    ``2 * stride`` and so on."""
    lengths = window_lengths(token_count, window_length, stride)
    return list(zip(range(0, token_count, stride), lengths))


class TestTokenCount:
    def test_whitespace_words(self):
        assert whitespace_token_count("one two  three\nfour") == 4

    def test_empty(self):
        assert whitespace_token_count("   ") == 0


class TestSplitWindows:
    def test_short_document_single_window(self):
        assert split_windows(100, 4096, 4096) == [(0, 100)]

    def test_exact_multiple(self):
        assert split_windows(8192, 4096, 4096) == [(0, 4096), (4096, 4096)]

    def test_tail_window_clipped(self):
        assert split_windows(8193, 4096, 4096) == [(0, 4096), (4096, 4096), (8192, 1)]

    def test_overlapping_stride(self):
        assert split_windows(10, 6, 4) == [(0, 6), (4, 6), (8, 2)]

    def test_stride_larger_than_window_rejected(self):
        with pytest.raises(ConfigError):
            split_windows(100, 10, 11)

    @pytest.mark.parametrize("bad", [(0, 10, 10), (10, 0, 1), (10, 10, 0)])
    def test_non_positive_arguments_rejected(self, bad):
        with pytest.raises(ConfigError):
            split_windows(*bad)

    @given(
        token_count=st.integers(min_value=1, max_value=5000),
        window_length=st.integers(min_value=1, max_value=600),
        stride_fraction=st.floats(min_value=0.1, max_value=1.0),
    )
    def test_matches_oracle_and_covers(self, token_count, window_length, stride_fraction):
        stride = max(1, int(window_length * stride_fraction))
        windows = split_windows(token_count, window_length, stride)
        assert windows == expected_windows(token_count, window_length, stride)
        check_coverage(windows, token_count, window_length, stride)


class TestLoadPool:
    def test_single_short_document(self, tmp_path):
        pool = make_pool(tmp_path, {"XGUARD": {"b1": [100]}})
        ids, lengths, tags = pool.windows(Dataset.XGUARD, "b1")
        assert len(ids) == len(lengths) == len(tags) == 1
        assert lengths[0] == 100

    def test_synthetic_three_dataset_counts(self, tmp_path):
        # 10 / 20 / 30 short documents -> the pool window counts match.
        pool = make_pool(
            tmp_path,
            {
                "XGUARD": {"b1": [50] * 10},
                "ORBENCH": {"b1": [60] * 20},
                "IF": {"b1": [70] * 30},
            },
        )
        counts = tuple(
            pool.window_count(ds) for ds in (Dataset.XGUARD, Dataset.ORBENCH, Dataset.IF)
        )
        assert counts == (10, 20, 30)

    def test_undeclared_bucket_rejected(self, tmp_path):
        records = tmp_path / "xguard.jsonl"
        records.write_text(json.dumps({"id": "r1", "bucket": "zz", "token_count": 10}) + "\n")
        manifest_path = tmp_path / "manifest.json"
        manifest_path.write_text(
            json.dumps(
                {
                    "datasets": [
                        {
                            "id": "XGUARD",
                            "path": "xguard.jsonl",
                            "enumerations": {"tier": ["b1"]},
                            "buckets": [{"id": "b1", "slice": {"tier": "b1"}}],
                        }
                    ]
                }
            )
        )
        with pytest.raises(SchemaError, match="zz"):
            load_pool(PoolManifest.from_file(manifest_path))

    def test_long_document_splits_with_ids(self, tmp_path):
        pool = make_pool(tmp_path, {"IF": {"b1": [900]}}, window_length=400)
        ids, lengths, _ = pool.windows(Dataset.IF, "b1")
        assert ids == ["if-b1-0:w0", "if-b1-0:w1", "if-b1-0:w2"]
        assert list(lengths) == [400, 400, 100]

    def test_overlapping_stride_windows_as_split_windows(self, tmp_path):
        # A row has ceil(token_count / stride) windows: 301 and 400 tokens
        # fit one 400-token window but take two 300-token strides.
        counts = [300, 301, 400, 900]
        pool = make_pool(tmp_path, {"IF": {"b1": counts}}, window_length=400, stride=300)
        expected_ids, expected_lengths = [], []
        for index, count in enumerate(counts):
            windows = split_windows(count, 400, 300)
            record_id = f"if-b1-{index}"
            if len(windows) == 1:
                expected_ids.append(record_id)
            else:
                expected_ids.extend(f"{record_id}:w{number}" for number in range(len(windows)))
            expected_lengths.extend(length for _, length in windows)
        ids, lengths, _ = pool.windows(Dataset.IF, "b1")
        assert ids == expected_ids
        assert list(lengths) == expected_lengths == [300, 301, 1, 400, 100, 400, 400, 300]

    def test_windows_inherit_bucket_slice_tags(self, tmp_path):
        pool = make_pool(tmp_path, {"ORBENCH": {"edge": [10]}})
        _, _, (tags,) = pool.windows(Dataset.ORBENCH, "edge")
        assert tags["tier"] == "edge"

    def test_text_records_tokenized(self, tmp_path):
        records = tmp_path / "if.jsonl"
        records.write_text(json.dumps({"id": "t1", "bucket": "b1", "text": "a b c d e"}) + "\n")
        manifest_path = tmp_path / "manifest.json"
        manifest_path.write_text(
            json.dumps(
                {
                    "datasets": [
                        {
                            "id": "IF",
                            "path": "if.jsonl",
                            "enumerations": {"tier": ["b1"]},
                            "buckets": [{"id": "b1", "slice": {"tier": "b1"}}],
                        }
                    ]
                }
            )
        )
        pool = load_pool(PoolManifest.from_file(manifest_path))
        _, (length,), _ = pool.windows(Dataset.IF, "b1")
        assert length == 5

    def test_missing_record_file_names_path(self, tmp_path):
        manifest_path = tmp_path / "manifest.json"
        manifest_path.write_text(
            json.dumps(
                {
                    "datasets": [
                        {
                            "id": "IF",
                            "path": "absent.jsonl",
                            "enumerations": {"tier": ["b1"]},
                            "buckets": [{"id": "b1", "slice": {"tier": "b1"}}],
                        }
                    ]
                }
            )
        )
        from mixsearch.errors import DataError

        with pytest.raises(DataError, match="absent.jsonl"):
            load_pool(PoolManifest.from_file(manifest_path))

    def test_loaded_windows_add_objects_per_bucket_not_per_window(self, tmp_path):
        layout = {"XGUARD": {"a": [50] * 5000, "b": [9000] * 500}, "IF": {"a": [10] * 5000}}
        make_pool(tmp_path, layout)  # writes the record files and the manifest
        manifest = PoolManifest.from_file(tmp_path / "manifest.json")
        gc.collect()
        before = len(gc.get_objects())
        pool = load_pool(manifest)
        gc.collect()
        added = len(gc.get_objects()) - before
        assert sum(pool.window_count(dataset) for dataset in pool.datasets) == 11_500
        assert added <= 10 * 3  # three buckets

    def test_load_holds_no_parsed_file(self, tmp_path):
        """The traced peak of a load stays near what the pool keeps: each
        row becomes windows and is dropped before the next line is read.
        At this size the peak is 1.36 times the kept bytes; holding a
        file's parsed rows until its last line makes it 2.76 times."""
        per_bucket = 3000
        layout = {
            "XGUARD": {"a": [300] * per_bucket, "b": [9000] * per_bucket},
            "IF": {"a": [10] * per_bucket, "c": [20] * per_bucket},
        }
        make_pool(tmp_path, layout)  # writes the record files and the manifest
        manifest = PoolManifest.from_file(tmp_path / "manifest.json")
        tracemalloc.start()
        try:
            pool = load_pool(manifest)
            kept, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert pool.window_count(Dataset.XGUARD) == 4 * per_bucket  # a 9000-token document has 3
        assert peak < 2.0 * kept

    def test_deterministic_iteration_order(self, tmp_path):
        layout = {"XGUARD": {"b1": [10, 20, 30], "b2": [40, 50]}}
        (tmp_path / "a").mkdir()
        (tmp_path / "b").mkdir()
        pool_a = make_pool(tmp_path / "a", layout)
        pool_b = make_pool(tmp_path / "b", layout)
        ids_a, _, _ = pool_a.windows(Dataset.XGUARD, "b1")
        ids_b, _, _ = pool_b.windows(Dataset.XGUARD, "b1")
        assert ids_a == ids_b


class TestSharedTags:
    LAYOUT = {
        "XGUARD": {
            "hot": [30, 5, 12, (70, {"difficulty": "3"}), (9, {"difficulty": "3"})],
            "cold": [20, (25, {"tier": "hot"}), (8, {"difficulty": "1"})],
            # Only plain documents, so every window holds the bucket's mapping.
            "plain": [40, 7, 12],
            "empty": [],
        },
        "IF": {"hot": [11, (4, {"difficulty": "3"})]},
    }

    def test_equal_tags_share_one_mapping(self, tmp_path):
        pool = make_pool(tmp_path, self.LAYOUT, window_length=32)
        _, _, hot = pool.windows(Dataset.XGUARD, "hot")
        _, _, cold = pool.windows(Dataset.XGUARD, "cold")
        _, _, (if_hot, if_tagged) = pool.windows(Dataset.IF, "hot")
        # Three plain documents, and a tagged one split into three windows
        # plus a second document with the same tags.
        assert hot[0] is hot[1] is hot[2]
        assert all(tags is hot[3] for tags in hot[3:])
        assert hot[0] is not hot[3]
        # Equal tags from another dataset's record file share too.
        assert if_hot is hot[0]
        assert if_tagged is hot[3]
        # A cold record tagged tier=hot has exactly the hot mapping.
        assert cold[1] is hot[0]
        assert cold[0] is not hot[0]

    def test_records_keep_their_own_tags(self, tmp_path):
        pool = make_pool(tmp_path, self.LAYOUT, window_length=32)
        _, _, cold = pool.windows(Dataset.XGUARD, "cold")
        assert cold[0] == {"tier": "cold"}
        assert cold[1] == {"tier": "hot"}  # the record's own tier wins
        assert cold[2] == {"difficulty": "1", "tier": "cold"}
        assert pool.windows(Dataset.XGUARD, "hot")[2][3] == {
            "difficulty": "3",
            "tier": "hot",
        }

    def test_tag_groups_cover_windows_with_true_shortest(self, tmp_path):
        pool = make_pool(tmp_path, self.LAYOUT, window_length=32)
        for dataset in pool.datasets:
            for bucket_id in pool.bucket_ids(dataset):
                _, lengths, tags_column = pool.windows(dataset, bucket_id)
                groups = pool.tag_groups(dataset, bucket_id)
                shortest = {}
                for tags, length in zip(tags_column, lengths):
                    key = tuple(sorted(tags.items()))
                    shortest[key] = min(shortest.get(key, length), length)
                assert {tuple(sorted(tags.items())): length for tags, length in groups} == shortest
                assert len(groups) == len(shortest)
        # XGUARD/hot: plain documents (30, 5, 12) and difficulty=3 ones (32, 32, 6, 9).
        assert [length for _, length in pool.tag_groups(Dataset.XGUARD, "hot")] == [5, 6]
        # XGUARD/plain: windows of 32, 8, 7 and 12 tokens, all with the bucket's tags.
        assert pool.tag_groups(Dataset.XGUARD, "plain") == (({"tier": "plain"}, 7),)
        assert pool.tag_groups(Dataset.XGUARD, "empty") == ()

    def test_equal_tags_in_another_key_order_share_one_mapping(self, tmp_path):
        layout = {
            "XGUARD": {
                "hot": [(7, {"topic": "t", "style": "s"}), (3, {"style": "s", "topic": "t"}), 5, 4],
            },
        }
        pool = make_pool(tmp_path, layout)
        _, _, tags = pool.windows(Dataset.XGUARD, "hot")
        assert tags[0] is tags[1]
        assert pool.tag_groups(Dataset.XGUARD, "hot") == (
            ({"topic": "t", "style": "s", "tier": "hot"}, 3),
            ({"tier": "hot"}, 4),
        )
