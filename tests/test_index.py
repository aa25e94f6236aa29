"""Linear-scan index build/search/persistence tests."""

import os
import struct
import tracemalloc
import warnings

import numpy as np
import pytest

from patchkernel.errors import FormatError
from patchkernel.index import IndexEntry, build, load, save, search


def unit_rows(rng, count, dim) -> np.ndarray:
    rows = rng.normal(size=(count, dim))
    return rows / np.linalg.norm(rows, axis=1, keepdims=True)


def make_entries(rng, count=12, dim=6) -> list[IndexEntry]:
    rows = unit_rows(rng, count, dim)
    return [IndexEntry(image_id=f"img{i:03d}", values=rows[i]) for i in range(count)]


def brute_force_ranking(entries, query) -> list[tuple[str, float]]:
    """Independent oracle: python-loop scores plus a full stable sort."""
    scored = []
    for entry in entries:
        score = sum(float(a) * float(b) for a, b in zip(np.asarray(entry.values, dtype=np.float64), query))
        scored.append((entry.image_id, score))
    return sorted(scored, key=lambda pair: (-pair[1], pair[0]))


class TestBuild:
    def test_empty_index(self):
        idx = build([])
        assert len(idx) == 0
        assert idx.dim is None
        assert search(idx, np.zeros(4), 3) == []

    def test_duplicate_id_names_offender(self):
        rng = np.random.default_rng(70)
        entries = make_entries(rng, count=3)
        entries.append(IndexEntry(image_id="img001", values=entries[0].values))
        with pytest.raises(ValueError, match="img001"):
            build(entries)

    def test_dim_mismatch_names_offender(self):
        entries = [
            IndexEntry(image_id="a", values=np.ones(4)),
            IndexEntry(image_id="b", values=np.ones(5)),
        ]
        with pytest.raises(ValueError, match="'b'"):
            build(entries)

    @pytest.mark.parametrize(
        "values, problem",
        [(np.array([0.6, np.nan]), "finite"), (np.array([0.6, 1e39]), "finite"),
         (np.zeros(0), "non-empty")],
        ids=["nan", "f32-overflow", "zero-length"],
    )
    def test_bad_vector_names_offender(self, values, problem):
        entries = [IndexEntry(image_id="a", values=values), IndexEntry(image_id="b", values=values)]
        with pytest.raises(ValueError, match=f"entry 'a': .*{problem}"):
            build(entries)

    def test_insertion_order_irrelevant(self):
        rng = np.random.default_rng(71)
        entries = make_entries(rng, count=8)
        query = unit_rows(rng, 1, 6)[0]
        forward = search(build(entries), query, 8)
        backward = search(build(entries[::-1]), query, 8)
        shuffled_order = [entries[i] for i in rng.permutation(8)]
        shuffled = search(build(shuffled_order), query, 8)
        assert forward == backward == shuffled


class TestSearch:
    def test_self_match_scores_one(self):
        rng = np.random.default_rng(72)
        entries = make_entries(rng, count=10)
        results = search(build(entries), np.asarray(entries[4].values, dtype=np.float64), 1)
        assert results[0][0] == "img004"
        assert results[0][1] == pytest.approx(1.0, abs=1e-6)

    def test_tie_breaks_by_ascending_id(self):
        v = np.array([1.0, 0.0])
        idx = build(
            [
                IndexEntry(image_id="zebra", values=v),
                IndexEntry(image_id="apple", values=v),
                IndexEntry(image_id="mango", values=v),
            ]
        )
        assert [r[0] for r in search(idx, v, 3)] == ["apple", "mango", "zebra"]

    @pytest.mark.parametrize("count, dim", [(7, 16), (13, 1000), (100, 16384)])
    def test_identical_rows_tie_exactly_at_every_position(self, count, dim):
        # A whole-matrix BLAS call scores leftover rows (past the last full
        # group of its kernel) in another summation order than the rest.
        rng = np.random.default_rng(88)
        row = unit_rows(rng, 1, dim)[0]
        idx = build([IndexEntry(image_id=f"img{i:03d}", values=row) for i in range(count)])
        got = search(idx, unit_rows(rng, 1, dim)[0], count)
        assert len({score for _, score in got}) == 1
        assert [image_id for image_id, _ in got] == [f"img{i:03d}" for i in range(count)]

    def test_matches_brute_force_oracle(self):
        rng = np.random.default_rng(73)
        entries = make_entries(rng, count=50, dim=8)
        idx = build(entries)
        for _ in range(5):
            query = unit_rows(rng, 1, 8)[0]
            got = search(idx, query, 10)
            expected = brute_force_ranking(
                [IndexEntry(e.image_id, np.asarray(e.values, dtype=np.float32)) for e in entries],
                query,
            )[:10]
            assert [g[0] for g in got] == [e[0] for e in expected]
            np.testing.assert_allclose([g[1] for g in got], [e[1] for e in expected], atol=1e-9)

    def test_k_prefix_monotonicity(self):
        rng = np.random.default_rng(74)
        idx = build(make_entries(rng, count=20))
        query = unit_rows(rng, 1, 6)[0]
        previous = []
        for k in range(1, 21):
            current = search(idx, query, k)
            assert current[: len(previous)] == previous
            previous = current

    def test_k_larger_than_index(self):
        rng = np.random.default_rng(75)
        idx = build(make_entries(rng, count=4))
        assert len(search(idx, unit_rows(rng, 1, 6)[0], 9)) == 4

    def test_dim_mismatch(self):
        rng = np.random.default_rng(76)
        idx = build(make_entries(rng, count=4))
        with pytest.raises(ValueError, match="dim"):
            search(idx, np.zeros(3), 1)

    def test_bad_k(self):
        rng = np.random.default_rng(77)
        idx = build(make_entries(rng, count=4))
        with pytest.raises(ValueError, match="k"):
            search(idx, np.zeros(6), 0)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_query_refused(self, value):
        idx = build([IndexEntry("a", np.array([1.0, 0.0])), IndexEntry("b", np.array([0.0, 1.0]))])
        with pytest.raises(ValueError, match="query vector must be finite"):
            search(idx, np.array([value, 0.0]), 2)

    def test_scores_are_f32_rounded_rows_bit_exact(self, tmp_path):
        rng = np.random.default_rng(83)
        rows = unit_rows(rng, 40, 16)
        entries = [IndexEntry(image_id=f"img{i:03d}", values=rows[i]) for i in range(40)]
        idx = build(entries)
        save(tmp_path / "index.kidx", idx)
        query = unit_rows(rng, 1, 16)[0]
        expected = rows.astype(np.float32).astype(np.float64) @ query
        order = np.argsort(-expected, kind="stable")
        for index in (idx, load(tmp_path / "index.kidx")):
            got = search(index, query, len(index))
            assert [g[0] for g in got] == [f"img{i:03d}" for i in order]
            assert np.array_equal([g[1] for g in got], expected[order])

    def test_changing_a_returned_vector_leaves_the_index_alone(self):
        rng = np.random.default_rng(84)
        idx = build(make_entries(rng, count=10))
        query = idx.vector("img003")
        before = search(idx, query, 10)
        idx.vector("img003")[:] = -1.0
        idx.vector("img007")[:] = 2.0
        assert search(idx, query, 10) == before

    def test_search_does_not_copy_the_matrix(self):
        # A per-query float64 copy of the rows would allocate the whole
        # matrix again; scoring needs only the N scores and one row block.
        rng = np.random.default_rng(85)
        count, dim = 1000, 256
        idx = build(make_entries(rng, count=count, dim=dim))
        query = unit_rows(rng, 1, dim)[0]
        tracemalloc.start()
        try:
            search(idx, query, 10)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < count * dim * 8 // 4


class TestPersistence:
    def test_roundtrip_preserves_results(self, tmp_path):
        rng = np.random.default_rng(78)
        entries = make_entries(rng, count=15)
        idx = build(entries)
        path = tmp_path / "index.kidx"
        save(path, idx)
        back = load(path)
        for _ in range(3):
            query = unit_rows(rng, 1, 6)[0]
            assert search(idx, query, 15) == search(back, query, 15)

    def test_save_is_byte_stable(self, tmp_path):
        rng = np.random.default_rng(79)
        idx = build(make_entries(rng, count=9))
        save(tmp_path / "a.kidx", idx)
        save(tmp_path / "b.kidx", load(tmp_path / "a.kidx"))
        assert (tmp_path / "a.kidx").read_bytes() == (tmp_path / "b.kidx").read_bytes()

    def test_empty_index_saves_back_its_dimension(self, tmp_path):
        path = tmp_path / "empty.kidx"
        data = struct.pack("<4sIII", b"KIDX", 1, 5, 0)
        path.write_bytes(data)
        idx = load(path)
        assert len(idx) == 0 and idx.dim is None
        save(tmp_path / "again.kidx", idx)
        assert (tmp_path / "again.kidx").read_bytes() == data

    def test_save_writes_f32_rounded_rows(self, tmp_path):
        rng = np.random.default_rng(86)
        entries = make_entries(rng, count=7)
        save(tmp_path / "a.kidx", build(entries))
        expected = struct.pack("<4sIII", b"KIDX", 1, 6, 7) + b"".join(
            struct.pack("<I", 6) + e.image_id.encode() + np.asarray(e.values, dtype="<f4").tobytes()
            for e in entries
        )
        assert (tmp_path / "a.kidx").read_bytes() == expected
        save(tmp_path / "b.kidx", load(tmp_path / "a.kidx"))
        assert (tmp_path / "b.kidx").read_bytes() == expected

    def test_vector_lookup(self, tmp_path):
        rng = np.random.default_rng(80)
        entries = make_entries(rng, count=5)
        idx = build(entries)
        assert "img002" in idx
        np.testing.assert_allclose(
            idx.vector("img002"), np.asarray(entries[2].values, dtype=np.float32), atol=0
        )
        with pytest.raises(KeyError):
            idx.vector("missing")

    def test_truncated_file(self, tmp_path):
        rng = np.random.default_rng(81)
        save(tmp_path / "full.kidx", build(make_entries(rng, count=5)))
        data = (tmp_path / "full.kidx").read_bytes()
        (tmp_path / "cut.kidx").write_bytes(data[:-11])
        with pytest.raises(FormatError, match="byte offset"):
            load(tmp_path / "cut.kidx")

    def test_version_mismatch(self, tmp_path):
        path = tmp_path / "v3.kidx"
        path.write_bytes(struct.pack("<4sIII", b"KIDX", 3, 4, 0))
        with pytest.raises(FormatError, match="unsupported version"):
            load(path)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "junk.kidx"
        path.write_bytes(b"JUNK" + bytes(12))
        with pytest.raises(FormatError, match="byte offset 0"):
            load(path)

    def test_trailing_bytes_rejected(self, tmp_path):
        rng = np.random.default_rng(82)
        path = tmp_path / "pad.kidx"
        save(path, build(make_entries(rng, count=2)))
        path.write_bytes(path.read_bytes() + b"x")
        with pytest.raises(FormatError, match="trailing"):
            load(path)

    def test_zero_dim_with_entries_rejected(self, tmp_path):
        path = tmp_path / "dim0.kidx"
        path.write_bytes(struct.pack("<4sIII", b"KIDX", 1, 0, 1) + struct.pack("<I", 1) + b"a")
        with pytest.raises(FormatError, match="dimension is 0 at byte offset 8$"):
            load(path)
        save(path, build([]))
        assert path.read_bytes() == struct.pack("<4sIII", b"KIDX", 1, 0, 0)
        assert len(load(path)) == 0

    def test_non_utf8_id_rejected(self, tmp_path):
        path = tmp_path / "bad_id.kidx"
        header = struct.pack("<4sIII", b"KIDX", 1, 2, 1)
        entry = struct.pack("<I", 2) + b"\xff\xfe" + struct.pack("<2f", 0.6, 0.8)
        path.write_bytes(header + entry)
        with pytest.raises(FormatError, match="UTF-8 at byte offset 20"):
            load(path)

    def test_duplicate_id_rejected_with_offset(self, tmp_path):
        path = tmp_path / "dup.kidx"
        header = struct.pack("<4sIII", b"KIDX", 1, 2, 2)
        entry = struct.pack("<I", 1) + b"a" + struct.pack("<2f", 0.6, 0.8)
        path.write_bytes(header + entry + entry)
        with pytest.raises(FormatError, match="duplicate image id 'a' at byte offset 29"):
            load(path)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_value_rejected_with_offset(self, tmp_path, value):
        # Stored out of id order: the offset must follow the file, not the index.
        path = tmp_path / "nan.kidx"
        header = struct.pack("<4sIII", b"KIDX", 1, 2, 2)
        second = struct.pack("<I", 1) + b"b" + struct.pack("<2f", 0.6, 0.8)
        first = struct.pack("<I", 1) + b"a" + struct.pack("<2f", 0.6, value)
        path.write_bytes(header + second + first)
        with pytest.raises(FormatError, match="non-finite value at byte offset 38$"):
            load(path)

    def test_fuzz_truncation_and_ff_bytes(self, tmp_path):
        # 0xFF in a value's high byte gives -inf (1.0), -NaN (1.5), a
        # signalling NaN (1.25) or a huge finite value (0.5, -0.75).
        entries = [
            IndexEntry("a", np.array([1.0, 1.5, -0.75])),
            IndexEntry("bc", np.array([1.25, 0.5, 0.0])),
        ]
        good = tmp_path / "good.kidx"
        save(good, build(entries))
        data = good.read_bytes()
        assert len(data) == 51
        path = tmp_path / "fuzz.kidx"
        for cut in range(len(data)):
            path.write_bytes(data[:cut])
            with pytest.raises(FormatError, match="byte offset"):
                load(path)
        loaded = 0
        for at in range(len(data)):
            mutated = data[:at] + b"\xff" + data[at + 1 :]
            path.write_bytes(mutated)
            try:
                with warnings.catch_warnings():
                    warnings.simplefilter("error")
                    idx = load(path)
            except FormatError as exc:
                assert "byte offset" in str(exc), at
                continue
            loaded += 1
            for image_id in idx.ids:
                assert np.all(np.isfinite(idx.vector(image_id))), at
            save(tmp_path / "again.kidx", idx)
            assert (tmp_path / "again.kidx").read_bytes() == mutated, at
        assert loaded > 0

    def test_load_peak_is_the_matrix(self, tmp_path):
        # Rows are read straight into the matrix; holding the file whole as
        # well would double the peak.
        rng = np.random.default_rng(87)
        count, dim = 500, 1024
        save(tmp_path / "big.kidx", build(make_entries(rng, count=count, dim=dim)))
        tracemalloc.start()
        try:
            load(tmp_path / "big.kidx")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1.25 * count * dim * 4

    def test_out_of_id_order_file_loads_like_canonical(self, tmp_path):
        rng = np.random.default_rng(88)
        entries = make_entries(rng, count=9, dim=5)
        canonical = tmp_path / "canonical.kidx"
        save(canonical, build(entries))
        shuffled = tmp_path / "shuffled.kidx"
        shuffled.write_bytes(struct.pack("<4sIII", b"KIDX", 1, 5, 9) + b"".join(
            struct.pack("<I", 6) + e.image_id.encode() + np.asarray(e.values, dtype="<f4").tobytes()
            for e in (entries[i] for i in rng.permutation(9))
        ))
        a, b = load(canonical), load(shuffled)
        assert a.ids == b.ids
        for image_id in a.ids:
            assert a.vector(image_id).tobytes() == b.vector(image_id).tobytes()
        query = unit_rows(rng, 1, 5)[0]
        assert search(a, query, 9) == search(b, query, 9)
        save(tmp_path / "again.kidx", b)
        assert (tmp_path / "again.kidx").read_bytes() == canonical.read_bytes()

    def test_file_shorter_than_its_size_refused(self, tmp_path, monkeypatch):
        # A file that shrinks while it is read: the header promises one more
        # entry than the file holds, and load believes the promised size.
        rng = np.random.default_rng(89)
        path = tmp_path / "short.kidx"
        save(path, build(make_entries(rng, count=3, dim=4)))
        data = bytearray(path.read_bytes())
        data[12:16] = struct.pack("<I", 4)
        path.write_bytes(bytes(data))
        promised = len(data) + 4 + 6 + 4 * 4
        real_fstat = os.fstat

        def fstat(fd):
            st = real_fstat(fd)
            return os.stat_result((*st[:6], promised, *st[7:]))

        monkeypatch.setattr(os, "fstat", fstat)
        with pytest.raises(FormatError, match=f"truncated at byte offset {len(data)}$"):
            load(path)
        # A row that runs short is refused too, where the file ends.
        path.write_bytes(bytes(data) + struct.pack("<I", 6) + b"img999" + bytes(7))
        with pytest.raises(FormatError, match=f"truncated at byte offset {len(data) + 17}$"):
            load(path)
