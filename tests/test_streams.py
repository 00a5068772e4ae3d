"""Synthetic scenario streams and feature-file ingestion."""

import pickle
import re

import numpy as np
import pytest

import genreplay.streams
from genreplay.numerics import Rng
from genreplay.streams import (
    MAX_SCENARIO_MAGNITUDE,
    MAX_SCENARIO_VALUES,
    DatasetStream,
    FeatureTable,
    TaskStream,
    draw_stream_data,
    load_feature_dataset,
    make_scenario,
    max_cross_similarity,
    stream_from_samples,
)
from genreplay.replay import Signature, signature_similarity


def scenario(kind, n_tasks=3, seed=0, **kw):
    return make_scenario(kind, n_tasks, 2 * n_tasks + 2, Rng(seed).fork("scenario"), **kw)


def table(rows):
    """A FeatureTable of (features, label, task id) triples."""
    features, labels, tasks = zip(*rows)
    return FeatureTable(np.stack(features), np.array(labels), np.array(tasks))


def table_rows(t):
    """A FeatureTable's rows as (feature list, label, task id) triples."""
    return list(zip(t.features.tolist(), t.labels.tolist(), t.tasks.tolist()))


class TestScenarioGeometry:
    def test_safe_signatures_orthogonal_to_all_forgeries(self):
        stream = scenario("domain_safe")
        assert max_cross_similarity(stream) == pytest.approx(0.0, abs=1e-12)
        for rsig in stream.replay_signatures:
            for task in stream.tasks:
                assert signature_similarity(rsig, task.forgery_signature) == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("n_tasks", [3, 4, 6])
    def test_risky_signatures_aligned_with_final_forgery(self, n_tasks):
        stream = scenario("domain_risky", n_tasks=n_tasks)
        final_forgery = stream.tasks[-1].forgery_signature
        for rsig in stream.replay_signatures:
            assert signature_similarity(rsig, final_forgery) >= 0.95
        assert max_cross_similarity(stream) >= 0.95

    def test_risky_replay_lands_on_final_fake_cluster(self):
        # a risky replay draw centered on its task's real mean should end up
        # close to the final task's fake mean (within the capped offset)
        stream = scenario("domain_risky", n_tasks=4)
        final_fake = stream.tasks[-1].fake_mean
        cap = 2.0 / 3.2
        for t, rsig in enumerate(stream.replay_signatures):
            shifted = stream.tasks[t].real_mean + rsig.vector * rsig.strength
            assert np.linalg.norm(shifted - final_fake) <= cap + 1e-9

    def test_mixed_alternates(self):
        stream = scenario("mixed", n_tasks=4)
        final_forgery = stream.tasks[-1].forgery_signature
        sims = [signature_similarity(r, final_forgery) for r in stream.replay_signatures]
        assert sims[0] >= 0.95 and sims[2] >= 0.95
        assert abs(sims[1]) < 1e-12 and abs(sims[3]) < 1e-12

    def test_kinds_share_task_geometry(self):
        a = scenario("domain_safe", seed=5)
        b = scenario("domain_risky", seed=5)
        for ta, tb in zip(a.tasks, b.tasks):
            assert np.array_equal(ta.real_mean, tb.real_mean)
            assert np.array_equal(ta.fake_mean, tb.fake_mean)

    def test_real_drift_moves_later_tasks(self):
        still = scenario("domain_safe", real_drift=0.0, base_shift=0.0)
        drifted = scenario("domain_safe", real_drift=1.0, base_shift=0.0)
        assert np.allclose(still.tasks[1].real_mean, still.tasks[0].real_mean)
        delta = drifted.tasks[1].real_mean - drifted.tasks[0].real_mean
        assert np.allclose(delta, drifted.tasks[0].forgery_signature.vector)

    def test_determinism(self):
        a = scenario("mixed", seed=9)
        b = scenario("mixed", seed=9)
        for ta, tb in zip(a.tasks, b.tasks):
            assert np.array_equal(ta.real_mean, tb.real_mean)
        for ra, rb in zip(a.replay_signatures, b.replay_signatures):
            assert np.array_equal(ra.vector, rb.vector)

    def test_validation_errors(self):
        with pytest.raises(ValueError, match="kind"):
            scenario("hazardous")
        with pytest.raises(ValueError, match="2 tasks"):
            make_scenario("domain_safe", 1, 10, Rng(0))
        with pytest.raises(ValueError, match="dim"):
            make_scenario("domain_safe", 4, 7, Rng(0))
        with pytest.raises(ValueError, match="2 tasks"):
            TaskStream([], [])
        stream = scenario("mixed")
        with pytest.raises(ValueError, match="one replay signature per task"):
            TaskStream(stream.tasks, stream.replay_signatures[:-1])
        with pytest.raises(ValueError, match="2 tasks"):
            DatasetStream(tasks_data=[()], replay_signatures=[None], task_ids=[0])

    @pytest.mark.parametrize(
        "name", ["forgery_strength", "replay_strength", "class_spread", "base_shift", "real_drift"]
    )
    def test_magnitude_bound(self, name):
        scenario("mixed", **{name: MAX_SCENARIO_MAGNITUDE})
        for value in (1000.5, 1e50, -1e4):
            with pytest.raises(ValueError, match=re.escape(f"{name} must lie in [-1000, 1000], got {value!r}")):
                scenario("mixed", **{name: value})
        # the earlier checks keep their messages
        with pytest.raises(ValueError, match="2 tasks"):
            make_scenario("mixed", 1, 10, Rng(0), **{name: 1e50})

    def test_value_bound(self):
        # 2 tasks * 2 classes * rows * dim 4: 2**26 rows per class pair reach the bound exactly
        rows = MAX_SCENARIO_VALUES // 16
        stream = make_scenario("mixed", 2, 4, Rng(0), n_train_per_class=rows - 1, n_test_per_class=1)
        assert stream.n_train_per_class == rows - 1
        message = (
            f"n_tasks=2 * 2 * (n_train_per_class={rows} + n_test_per_class=1) * dim=4 = "
            f"{16 * (rows + 1)} values, more than {MAX_SCENARIO_VALUES}"
        )
        with pytest.raises(ValueError, match=re.escape(message)):
            make_scenario("mixed", 2, 4, Rng(0), n_train_per_class=rows, n_test_per_class=1)


class TestDataDraws:
    def test_draw_stream_data_balanced_and_disjoint(self):
        stream = scenario("domain_safe", n_train_per_class=20, n_test_per_class=20)
        x_train, y_train, x_test, _ = draw_stream_data(stream, Rng(1).fork("d"))[0]
        assert len(x_train) == 40 and len(x_test) == 40
        assert y_train.sum() == 20
        train_rows = {tuple(row) for row in x_train}
        assert all(tuple(row) not in train_rows for row in x_test)

    def test_scenario_bad_count(self):
        with pytest.raises(ValueError, match="per_class"):
            scenario("domain_safe", n_train_per_class=0)
        with pytest.raises(ValueError, match="per_class"):
            scenario("domain_safe", n_test_per_class=0)

    def test_draw_stream_data_shapes_and_determinism(self):
        stream = scenario("mixed", n_tasks=3, n_train_per_class=15, n_test_per_class=7)
        data = draw_stream_data(stream, Rng(4).fork("data"))
        assert len(data) == 3
        for x_train, y_train, x_test, y_test in data:
            assert len(x_train) == len(y_train) == 30 and len(x_test) == len(y_test) == 14
        again = draw_stream_data(stream, Rng(4).fork("data"))
        assert np.array_equal(data[2][0][0], again[2][0][0])

    def test_train_counts_match_draws(self):
        stream = scenario("mixed", n_tasks=3, n_train_per_class=15, n_test_per_class=7)
        drawn = {
            t: tuple(int(np.sum(y_train == label)) for label in (0, 1))
            for t, (_, y_train, _, _) in enumerate(draw_stream_data(stream, Rng(4).fork("data")))
        }
        assert stream.train_counts == drawn == {0: (15, 15), 1: (15, 15), 2: (15, 15)}

    def test_separable_classes_with_strong_forgery(self):
        stream = scenario("domain_safe", forgery_strength=2.0, class_spread=0.5)
        x_train, y_train, _, _ = draw_stream_data(stream, Rng(2))[0]
        reals = x_train[y_train == 0]
        fakes = x_train[y_train == 1]
        gap = fakes.mean(axis=0) - reals.mean(axis=0)
        assert np.linalg.norm(gap) == pytest.approx(2.0, abs=0.2)

    def test_zero_forgery_strength_classes_indistinguishable(self):
        stream = scenario("domain_safe", forgery_strength=0.0)
        x_train, y_train, _, _ = draw_stream_data(stream, Rng(3))[0]
        reals = x_train[y_train == 0]
        fakes = x_train[y_train == 1]
        assert np.linalg.norm(fakes.mean(axis=0) - reals.mean(axis=0)) < 0.2


class TestIngestion:
    def _write_csv(self, path, text):
        path.write_text(text)
        return str(path)

    def test_roundtrip(self, tmp_path):
        path = self._write_csv(
            tmp_path / "d.csv",
            "f0,f1,label,task\n0.5,1.5,0,0\n2.5,3.5,1,0\n4.5,5.5,0,1\n",
        )
        samples = load_feature_dataset(path)
        assert len(samples) == 3
        assert np.array_equal(samples.features[0], [0.5, 1.5])
        assert samples.labels[1] == 1
        assert samples.tasks[2] == 1

    def test_task_column_optional(self, tmp_path):
        path = self._write_csv(tmp_path / "d.csv", "f0,label\n1.0,0\n")
        assert load_feature_dataset(path).tasks[0] == 0

    def test_missing_label_column(self, tmp_path):
        path = self._write_csv(tmp_path / "d.csv", "f0,f1\n1.0,2.0\n")
        with pytest.raises(ValueError, match="label"):
            load_feature_dataset(path)

    @pytest.mark.parametrize(
        "text, message",
        [
            ("label,task\n0,0\n1,0\n", "header holds no feature column"),
            ("label\n", "header holds no feature column"),
            ("f0,label,label,task\n0.5,0,1,0\n", "header holds the 'label' column more than once"),
            ("f0,label,task,task\n0.5,0,0,1\n", "header holds the 'task' column more than once"),
            # the second row would fail to parse: the header is rejected first
            ("label,f0,label\n0,0.5,0\nx,y,z\n", "header holds the 'label' column more than once"),
        ],
        ids=["no_feature", "label_only", "label_twice", "task_twice", "label_twice_before_bad_row"],
    )
    def test_header_that_cannot_train_raises(self, tmp_path, text, message):
        path = self._write_csv(tmp_path / "d.csv", text)
        with pytest.raises(ValueError, match=f"d.csv: {message}$"):
            load_feature_dataset(path)

    def test_bad_label_reports_row(self, tmp_path):
        path = self._write_csv(tmp_path / "d.csv", "f0,label\n1.0,0\n1.0,2\n")
        with pytest.raises(ValueError, match="row 3"):
            load_feature_dataset(path)

    def test_malformed_row_reports_row(self, tmp_path):
        path = self._write_csv(tmp_path / "d.csv", "f0,label\nnot_a_number,0\n")
        with pytest.raises(ValueError, match="row 2"):
            load_feature_dataset(path)

    def test_empty_file_returns_empty(self, tmp_path):
        path = self._write_csv(tmp_path / "d.csv", "")
        assert len(load_feature_dataset(path)) == 0

    @pytest.mark.parametrize("text", ["f0,label\n", "f0,label\n\n\n"])
    def test_header_without_rows_returns_empty(self, tmp_path, text):
        path = self._write_csv(tmp_path / "d.csv", text)
        assert len(load_feature_dataset(path)) == 0

    @pytest.mark.parametrize(
        "text, n_rows, scanned",
        [
            ("f0,label,task\n0.5,1,2\n1.5,0,2\n", 2, False),
            ('f0,label,task\n"0.5",1,2\n1.5,0,2\n"2.5",1,3\n', 3, True),
            ("f0,label\n\n1.0,0\n\n\n2.0,1\n\n", 2, False),
            ('f0,label\n\n"1.0",0\n\n\n2.0,1\n\n', 2, True),
            ("f0,label\n", 0, True),
        ],
        ids=["bare", "quoted", "blank_lines", "quoted_blank_lines", "header_only"],
    )
    def test_len_is_the_data_row_count(self, tmp_path, monkeypatch, text, n_rows, scanned):
        # a file of bare numbers is parsed by column; quoted cells, or no row, go to the row scan
        scans = []
        inner = genreplay.streams._scan_rows

        def counting(*args):
            scans.append(1)
            return inner(*args)

        monkeypatch.setattr(genreplay.streams, "_scan_rows", counting)
        samples = load_feature_dataset(self._write_csv(tmp_path / "d.csv", text))
        assert bool(scans) == scanned
        assert len(samples) == n_rows
        assert samples.features.shape == (n_rows, 1)
        assert samples.labels.shape == samples.tasks.shape == (n_rows,)

    @pytest.mark.parametrize(
        "row, found", [("1.0,0", 2), ("1.0,2.0,0,0", 4), ("   ", 1)]
    )
    def test_ragged_row_reports_cell_count(self, tmp_path, row, found):
        path = self._write_csv(tmp_path / "d.csv", f"f0,f1,label\n1.0,2.0,0\n{row}\n")
        with pytest.raises(ValueError, match=f"row 3: expected 3 cells, found {found}$"):
            load_feature_dataset(path)

    @pytest.mark.parametrize("label", ["1.0", "1e0", "true", ""])
    def test_label_must_be_an_integer_literal(self, tmp_path, label):
        path = self._write_csv(tmp_path / "d.csv", f"f0,label\n1.0,0\n1.0,{label}\n")
        with pytest.raises(ValueError, match="malformed row 3"):
            load_feature_dataset(path)

    def test_blank_lines_skipped_but_counted(self, tmp_path):
        path = self._write_csv(tmp_path / "d.csv", "f0,label\n1.0,0\n\n\n2.0,1\n\n1.0,x\n")
        with pytest.raises(ValueError, match="malformed row 7"):
            load_feature_dataset(path)
        path = self._write_csv(tmp_path / "d.csv", "f0,label\r\n\r\n1.0,0\r\n\r\n2.0,1\r\n")
        assert load_feature_dataset(path).labels.tolist() == [0, 1]

    def test_quoted_cells_read_as_bare_ones(self, tmp_path):
        bare = load_feature_dataset(self._write_csv(tmp_path / "a.csv", "f0,label,task\n0.5,1,2\n"))
        quoted = load_feature_dataset(
            self._write_csv(tmp_path / "b.csv", 'f0,label,task\n"0.5","1",2\n')
        )
        assert table_rows(quoted) == [([0.5], 1, 2)]
        assert table_rows(bare) == [([0.5], 1, 2)]

    @pytest.mark.parametrize(
        "header, row",
        [("label,f0,task", "1,0.5,2"), ("f0,label,task", "0.5,1,2"), ("task,f0,label", "2,0.5,1")],
    )
    @pytest.mark.parametrize("quoted", [False, True], ids=["by_column", "by_row"])
    def test_utf8_byte_order_mark_ignored(self, tmp_path, header, row, quoted):
        # spreadsheet "CSV UTF-8" exports start with EF BB BF; quoting a cell
        # sends the file through the row-by-row scan
        if quoted:
            row = row.replace("0.5", '"0.5"')
        text = f"{header}\n{row}\n"
        path = tmp_path / "bom.csv"
        path.write_bytes(b"\xef\xbb\xbf" + text.encode())
        assert table_rows(load_feature_dataset(str(path))) == [([0.5], 1, 2)]

    def test_byte_order_mark_keeps_row_numbers(self, tmp_path):
        path = tmp_path / "bom.csv"
        path.write_bytes(b"\xef\xbb\xbflabel,f0\n0,1.0\n2,1.0\n")
        with pytest.raises(ValueError, match="row 3: label must be 0 or 1, got 2"):
            load_feature_dataset(str(path))

    @pytest.mark.parametrize("bad_row", [1, 2, 1501])
    @pytest.mark.parametrize("bom", [b"", b"\xef\xbb\xbf"], ids=["plain", "bom"])
    def test_byte_that_is_not_utf8_reports_row(self, tmp_path, bad_row, bom):
        lines = [b"f0,f1,label,task"] + [b"%d.5,1.25,%d,%d" % (i, i % 2, i // 1000) for i in range(2000)]
        lines[bad_row - 1] = lines[bad_row - 1][:2] + b"\xff" + lines[bad_row - 1][2:]
        data = bom + b"\n".join(lines) + b"\n"
        if bad_row == 1501:
            # past the first 8 KB that a text decoder reads in one chunk
            assert data.index(b"\xff") > 8192
        path = tmp_path / "d.csv"
        path.write_bytes(data)
        with pytest.raises(ValueError, match=f"^{path}: row {bad_row}: byte 0xff is not UTF-8$"):
            load_feature_dataset(str(path))

    @pytest.mark.parametrize(
        "data, message",
        [
            # a bad byte after a malformed row: the malformed row is reported
            (b"f0,label\n1.0,0\nx,1\n1.0,0\n1\xff.0,1\n", "malformed row 3: .*"),
            # a bad byte in a row after a header that cannot train: the header is reported
            (b"f0,f1\n1.0,2.0\n1\xff,2.0\n", "header must contain a 'label' column"),
            # a bad byte comes before its own row's other faults
            (b"f0,label\n1.0,0\n1\xff.0,0,5\nx,1\n", "row 3: byte 0xff is not UTF-8"),
            (b'f0,label\n1.0,0\n"1\xfe.0",1\n', "row 3: byte 0xfe is not UTF-8"),
            # a quoted cell spanning two lines is one row
            (b'f0,label\n"1.0\n",0\n"2.0\xfe",1\n', "row 3: byte 0xfe is not UTF-8"),
        ],
        ids=["malformed_row_first", "header_first", "byte_before_cell_count", "quoted", "quoted_newline"],
    )
    def test_first_fault_in_file_order_is_reported(self, tmp_path, data, message):
        path = tmp_path / "d.csv"
        path.write_bytes(data)
        with pytest.raises(ValueError, match=f"^{path}: {message}$"):
            load_feature_dataset(str(path))

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_feature_reports_row(self, tmp_path, value):
        path = self._write_csv(tmp_path / "d.csv", f"f0,f1,label\n1.0,2.0,0\n1.0,{value},1\n")
        with pytest.raises(ValueError, match="row 3: non-finite feature"):
            load_feature_dataset(path)


class TestStreamFromSamples:
    def _rows(self, n_per_task=12, n_tasks=2):
        """(features, label, task id) triples."""
        rng = Rng(6)
        return [
            (rng.fork(f"{t}-{i}").normal(size=3), i % 2, t)
            for t in range(n_tasks)
            for i in range(n_per_task)
        ]

    def _samples(self, **kw):
        return table(self._rows(**kw))

    def test_split_sizes(self):
        stream = stream_from_samples(self._samples(), Rng(1), test_fraction=0.25)
        assert stream.n_tasks == 2
        for x_train, y_train, x_test, y_test in stream.tasks_data:
            assert len(x_test) == len(y_test) == 3 and len(x_train) == len(y_train) == 9

    def test_zero_signatures(self):
        stream = stream_from_samples(self._samples(), Rng(1))
        assert all(sig.strength == 0.0 for sig in stream.replay_signatures)

    def test_empty_and_bad_fraction_raise(self):
        empty = FeatureTable(np.empty((0, 3)), np.empty(0, dtype=int), np.empty(0, dtype=int))
        with pytest.raises(ValueError, match="no samples"):
            stream_from_samples(empty, Rng(0))
        with pytest.raises(ValueError, match="test_fraction"):
            stream_from_samples(self._samples(), Rng(0), test_fraction=1.0)

    def test_single_class_task_named(self):
        samples = table([r for r in self._rows() if r[2] == 0 or r[1] == 1])
        with pytest.raises(ValueError, match="task 1 has only one class"):
            stream_from_samples(samples, Rng(1))

    def test_single_task_rejected(self):
        samples = table([r for r in self._rows() if r[2] == 0])
        with pytest.raises(ValueError, match="at least 2 tasks"):
            stream_from_samples(samples, Rng(1))

    def test_one_class_split_named(self):
        # 49 rows, test_fraction 0.05: a 2-row test split, one class under this rng
        samples = self._samples(n_per_task=49)
        with pytest.raises(ValueError, match="task 0: the test split of 2 rows holds one class"):
            stream_from_samples(samples, Rng(1).fork("split"), test_fraction=0.05)
        stream = stream_from_samples(samples, Rng(0).fork("split"), test_fraction=0.05)
        for _, y_train, _, y_test in stream.tasks_data:
            assert set(y_train.tolist()) == set(y_test.tolist()) == {0, 1}

    def test_train_counts_match_split(self):
        # file task ids 3 and 7 name the tasks
        samples = table([(x, label, 3 + 4 * t) for x, label, t in self._rows(n_per_task=13)])
        stream = stream_from_samples(samples, Rng(1), test_fraction=0.25)
        assert stream.task_ids == [3, 7]
        split = {
            t: tuple(int(np.sum(y_train == label)) for label in (0, 1))
            for t, (_, y_train, _, _) in zip(stream.task_ids, stream.tasks_data)
        }
        assert stream.train_counts == split
        assert sorted(stream.train_counts) == [3, 7]
        assert [sum(c) for c in stream.train_counts.values()] == [10, 10]

    def test_tasks_train_in_ascending_id_not_file_order(self):
        # task 7's rows come first in the file; task 3 is still the stream's first task
        rows = self._rows(n_per_task=13)
        samples = table([(x, label, 7 - 4 * t) for x, label, t in rows])
        stream = stream_from_samples(samples, Rng(1), test_fraction=0.25)
        assert stream.task_ids == [3, 7]
        first_rows = {tuple(x) for x, _, t in rows if t == 1}
        x_train, _, x_test, _ = stream.tasks_data[0]
        assert {tuple(x) for x in np.vstack([x_train, x_test]).tolist()} == first_rows

    def test_task_id_beyond_int64_names_its_row(self, tmp_path):
        big = 2**63
        path = tmp_path / "d.csv"
        for bad in (big, -big - 1):
            rows = "".join(f"0.{i},{i % 2},{t}\n" for t in (0, bad) for i in range(4))
            path.write_text("f0,label,task\n" + rows)
            with pytest.raises(ValueError, match=f"d.csv: row 6: task id {bad} lies beyond int64"):
                load_feature_dataset(str(path))
        # the int64 bounds themselves are ids
        rows = "".join(f"0.{i},{i % 2},{t}\n" for t in (big - 1, -big) for i in range(4))
        path.write_text("f0,label,task\n" + rows)
        loaded = load_feature_dataset(str(path))
        assert loaded.tasks.dtype == np.int64
        assert loaded.tasks.tolist() == [big - 1] * 4 + [-big] * 4

    def test_task_grouping_errors_named(self):
        one_class = table([r for r in self._rows() if r[2] == 0 or r[1] == 1])
        with pytest.raises(ValueError, match="task 1 has only one class"):
            stream_from_samples(one_class, Rng(1))
        with pytest.raises(ValueError, match="at least 2 tasks"):
            stream_from_samples(table([r for r in self._rows() if r[2] == 0]), Rng(1))
        with pytest.raises(ValueError, match="task 0 has too few samples to split"):
            stream_from_samples(self._samples(n_per_task=2), Rng(1), test_fraction=0.75)

    def test_draw_stream_data_passthrough(self):
        stream = stream_from_samples(self._samples(), Rng(1))
        data = draw_stream_data(stream, Rng(2))
        assert len(data) == 2
        assert all(a is b for a, b in zip(data[0], stream.tasks_data[0]))

    def test_stream_arrays_are_read_only(self):
        # every cell and seed of a compare or ablate shares them, in a pool worker too
        stream = stream_from_samples(self._samples(), Rng(1))
        for each in (stream, pickle.loads(pickle.dumps(stream))):
            for arrays in each.tasks_data:
                assert not any(a.flags.writeable for a in arrays)
            with pytest.raises(ValueError, match="read-only"):
                each.tasks_data[0][0][0, 0] = 1.0

    def test_split_rows_come_from_the_table(self):
        # each task's train and test rows are its file rows, each once, with their labels
        samples = self._samples()
        stream = stream_from_samples(samples, Rng(1))
        for t, (x_train, y_train, x_test, y_test) in zip(stream.task_ids, stream.tasks_data):
            rows = np.vstack([x_train, x_test]).tolist()
            labels = np.concatenate([y_train, y_test]).tolist()
            assert sorted(zip(rows, labels)) == sorted(
                (x, label) for x, label, task in table_rows(samples) if task == t
            )
