"""Windowing and pool loading, cross-checked against the window oracle."""
import json

import pytest
from hypothesis import given
from hypothesis import strategies as st

from mixsearch import (
    ConfigError,
    Dataset,
    PoolManifest,
    SchemaError,
    load_pool,
    split_windows,
    whitespace_token_count,
)
from mixsearch.oracles.window_enum import check_coverage, expected_windows

from conftest import make_pool


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
        windows = pool.windows(Dataset.XGUARD, "b1")
        assert len(windows) == 1
        assert windows[0].token_count == 100

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
        windows = pool.windows(Dataset.IF, "b1")
        assert [w.window_id for w in windows] == ["if-b1-0:w0", "if-b1-0:w1", "if-b1-0:w2"]
        assert [w.token_count for w in windows] == [400, 400, 100]

    def test_windows_inherit_bucket_slice_tags(self, tmp_path):
        pool = make_pool(tmp_path, {"ORBENCH": {"edge": [10]}})
        (window,) = pool.windows(Dataset.ORBENCH, "edge")
        assert window.tags["tier"] == "edge"

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
        (window,) = pool.windows(Dataset.IF, "b1")
        assert window.token_count == 5
        assert window.text_ref == "t1@0+5"

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
        from mixsearch import DataError

        with pytest.raises(DataError, match="absent.jsonl"):
            load_pool(PoolManifest.from_file(manifest_path))

    def test_deterministic_iteration_order(self, tmp_path):
        layout = {"XGUARD": {"b1": [10, 20, 30], "b2": [40, 50]}}
        (tmp_path / "a").mkdir()
        (tmp_path / "b").mkdir()
        pool_a = make_pool(tmp_path / "a", layout)
        pool_b = make_pool(tmp_path / "b", layout)
        ids_a = [w.window_id for w in pool_a.windows(Dataset.XGUARD, "b1")]
        ids_b = [w.window_id for w in pool_b.windows(Dataset.XGUARD, "b1")]
        assert ids_a == ids_b

    def test_longest_window(self, tmp_path):
        pool = make_pool(tmp_path, {"IF": {"b1": [10, 99, 45]}})
        assert pool.longest_window == 99


class TestSharedTags:
    LAYOUT = {
        "XGUARD": {
            "hot": [30, 5, 12, (70, {"difficulty": "3"}), (9, {"difficulty": "3"})],
            "cold": [20, (25, {"tier": "hot"}), (8, {"difficulty": "1"})],
        },
        "IF": {"hot": [11, (4, {"difficulty": "3"})]},
    }

    def test_equal_tags_share_one_mapping(self, tmp_path):
        pool = make_pool(tmp_path, self.LAYOUT, window_length=32)
        hot = pool.windows(Dataset.XGUARD, "hot")
        cold = pool.windows(Dataset.XGUARD, "cold")
        (if_hot, if_tagged) = pool.windows(Dataset.IF, "hot")
        # Three plain documents, and a tagged one split into three windows
        # plus a second document with the same tags.
        assert hot[0].tags is hot[1].tags is hot[2].tags
        assert all(w.tags is hot[3].tags for w in hot[3:])
        assert hot[0].tags is not hot[3].tags
        # Equal tags from another dataset's record file share too.
        assert if_hot.tags is hot[0].tags
        assert if_tagged.tags is hot[3].tags
        # A cold record tagged tier=hot has exactly the hot mapping.
        assert cold[1].tags is hot[0].tags
        assert cold[0].tags is not hot[0].tags

    def test_records_keep_their_own_tags(self, tmp_path):
        pool = make_pool(tmp_path, self.LAYOUT, window_length=32)
        cold = pool.windows(Dataset.XGUARD, "cold")
        assert cold[0].tags == {"tier": "cold"}
        assert cold[1].tags == {"tier": "hot"}  # the record's own tier wins
        assert cold[2].tags == {"difficulty": "1", "tier": "cold"}
        assert pool.windows(Dataset.XGUARD, "hot")[3].tags == {
            "difficulty": "3",
            "tier": "hot",
        }

    def test_tag_groups_cover_windows_with_true_shortest(self, tmp_path):
        pool = make_pool(tmp_path, self.LAYOUT, window_length=32)
        for dataset in pool.datasets:
            for bucket_id in pool.catalog(dataset).bucket_ids():
                windows = pool.windows(dataset, bucket_id)
                groups = pool.tag_groups(dataset, bucket_id)
                shortest = {}
                for window in windows:
                    key = tuple(sorted(window.tags.items()))
                    shortest[key] = min(shortest.get(key, window.token_count), window.token_count)
                assert {tuple(sorted(tags.items())): length for tags, length in groups} == shortest
                assert len(groups) == len(shortest)
        # XGUARD/hot: plain documents (30, 5, 12) and difficulty=3 ones (32, 32, 6, 9).
        assert [length for _, length in pool.tag_groups(Dataset.XGUARD, "hot")] == [5, 6]
