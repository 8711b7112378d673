"""Tests for image codecs, dataset scanning, splitting, and augmentation."""

import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from _oracles import (load_batch_per_sample, read_pgm_bytewise, read_ppm_bytewise,
                      rotate_bilinear_per_image, split_rescanning_classes)
from convlora import data as D
from convlora import images as I


@pytest.fixture
def small_tree(tmp_path):
    rng = np.random.default_rng(0)
    for cls in ("benign", "polyp"):
        d = tmp_path / cls
        d.mkdir()
        for i in range(3):
            img = rng.integers(0, 256, size=(6, 5, 3), dtype=np.uint8)
            I.write_ppm(d / f"img_{i}.ppm", img)
    return tmp_path


class TestPpmCodec:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(1)
        img = rng.integers(0, 256, size=(7, 9, 3), dtype=np.uint8)
        I.write_ppm(tmp_path / "a.ppm", img)
        assert np.array_equal(I.read_ppm(tmp_path / "a.ppm"), img)

    def test_pgm_round_trip(self, tmp_path):
        rng = np.random.default_rng(2)
        img = rng.integers(0, 256, size=(5, 8), dtype=np.uint8)
        I.write_pgm(tmp_path / "a.pgm", img)
        assert np.array_equal(I.read_pgm(tmp_path / "a.pgm"), img)

    def test_comments_in_header(self, tmp_path):
        img = np.zeros((2, 2, 3), dtype=np.uint8)
        raw = b"P6\n# a comment\n2 2\n255\n" + img.tobytes()
        (tmp_path / "c.ppm").write_bytes(raw)
        assert np.array_equal(I.read_ppm(tmp_path / "c.ppm"), img)

    def test_truncated_file(self, tmp_path):
        (tmp_path / "bad.ppm").write_bytes(b"P6\n4 4\n255\n\x00\x00")
        with pytest.raises(I.ImageFormatError):
            I.read_ppm(tmp_path / "bad.ppm")

    def test_wrong_magic(self, tmp_path):
        (tmp_path / "bad.ppm").write_bytes(b"P3\n1 1\n255\n0 0 0\n")
        with pytest.raises(I.ImageFormatError):
            I.read_ppm(tmp_path / "bad.ppm")

    def test_non_numeric_header_field(self, tmp_path):
        (tmp_path / "bad.ppm").write_bytes(b"P6 abc 4 255\n" + bytes(48))
        with pytest.raises(I.ImageFormatError):
            I.read_ppm(tmp_path / "bad.ppm")

    @given(magic=st.sampled_from([b"P6", b"P5"]), rest=st.binary(max_size=64))
    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_arbitrary_bytes_raise_only_image_format_error(self, tmp_path, magic, rest):
        path = tmp_path / "fuzz.pnm"
        path.write_bytes(magic + rest)
        read = I.read_ppm if magic == b"P6" else I.read_pgm
        try:
            img = read(path)
        except I.ImageFormatError:
            return
        assert img.dtype == np.uint8 and img.size > 0

    def test_png_when_pillow_available(self, tmp_path):
        pil = pytest.importorskip("PIL.Image")
        rng = np.random.default_rng(7)
        img = rng.integers(0, 256, size=(6, 4, 3), dtype=np.uint8)
        pil.fromarray(img).save(tmp_path / "x.png")
        assert np.array_equal(I.read_image(tmp_path / "x.png"), img)


def _decode_both(path, magic):
    """(library outcome, bytewise reference outcome): an array, or the
    ImageFormatError message."""
    outcomes = []
    for read in ((I.read_ppm, read_ppm_bytewise) if magic == b"P6"
                 else (I.read_pgm, read_pgm_bytewise)):
        try:
            outcomes.append(read(path))
        except I.ImageFormatError as e:
            outcomes.append(str(e))
    return outcomes


# header grammar quirks the reader keeps: (file, decoded shape or error text)
PNM_QUIRKS = [
    (b"P61 2 255\n" + bytes(6), (2, 1, 3)),             # field right after magic
    (b"P6\x0b1\x0c1\r255\t" + bytes(3), (1, 1, 3)),     # any isspace() byte separates
    (b"P6#c\n1 1 255\n" + bytes(3), (1, 1, 3)),         # comment right after magic
    (b"P6 1 # x\n1 # y\n255\n" + bytes(3), (1, 1, 3)),  # comments between fields
    (b"P6 1#2 1 255\n" + bytes(6), "non-numeric header field b'1#2'"),
    (b"P6 1 1 #comment to the end", "truncated header"),
    (b"P6\x001 1 255\n" + bytes(3), "non-numeric header field"),  # NUL is not space
    (b"P6 1 1", "truncated header"),
    (b"P6 1 1 255", "truncated pixel data"),            # no byte after maxval
    (b"P6 1 1 255\n" + bytes(2), "truncated pixel data"),
    (b"P6 0 1 255\n", "empty image (0x1)"),
    (b"P6 1 1 65535\n" + bytes(6), "unsupported maxval 65535"),
    (b"P3 1 1 255\n" + bytes(3), "not a P6 file"),
    (b"P5 2 1 255 " + bytes(2), (1, 2)),
    (b"P5 2\n1\n00255\n" + bytes(3), (1, 2)),           # leading zeros
    (b"P6 2 1 255\n" + bytes(7), (1, 2, 3)),            # trailing bytes ignored
]

# what a header is made of, for drawing near-valid files
_PNM_TOKENS = [b" ", b"\t", b"\n", b"\r", b"\x0b", b"\x0c", b"#", b"0", b"1", b"2",
               b"255", b"a", b"\x00", b"#x\n"]


class TestPnmAgainstBytewiseReader:
    @pytest.mark.parametrize("raw,expected", PNM_QUIRKS)
    def test_quirks(self, tmp_path, raw, expected):
        magic = b"P5" if raw.startswith(b"P5") else b"P6"
        path = tmp_path / "q.pnm"
        path.write_bytes(raw)
        got, ref = _decode_both(path, magic)
        if isinstance(expected, str):
            assert got == ref and isinstance(got, str) and expected in got
        else:
            assert got.shape == ref.shape == expected and np.array_equal(got, ref)
            assert got.flags.writeable

    @given(magic=st.sampled_from([b"P6", b"P5"]),
           tokens=st.lists(st.sampled_from(_PNM_TOKENS), max_size=14),
           rest=st.binary(max_size=40))
    @settings(max_examples=400, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_same_outcome_as_bytewise_reader(self, tmp_path, magic, tokens, rest):
        path = tmp_path / "fuzz.pnm"
        path.write_bytes(magic + b"".join(tokens) + rest)
        got, ref = _decode_both(path, magic)
        if isinstance(ref, str):
            assert got == ref
        else:
            assert got.shape == ref.shape and np.array_equal(got, ref)
            assert got.flags.writeable

    @given(h=st.integers(1, 6), w=st.integers(1, 6), seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_writers_write_the_fixed_header(self, tmp_path, h, w, seed):
        rng = np.random.default_rng(seed)
        rgb = rng.integers(0, 256, size=(h, w, 3), dtype=np.uint8)
        gray = rng.integers(0, 256, size=(h, w), dtype=np.uint8)
        I.write_ppm(tmp_path / "a.ppm", rgb)
        I.write_pgm(str(tmp_path / "a.pgm"), gray)
        header = b"\n%d %d\n255\n" % (w, h)
        assert (tmp_path / "a.ppm").read_bytes() == b"P6" + header + rgb.tobytes()
        assert (tmp_path / "a.pgm").read_bytes() == b"P5" + header + gray.tobytes()

    @pytest.mark.parametrize("pixels,write", [
        (np.zeros((2, 2), np.uint8), I.write_ppm),
        (np.zeros((2, 2, 4), np.uint8), I.write_ppm),
        (np.zeros((2, 2, 3), np.float32), I.write_ppm),
        (np.zeros((2, 2, 1), np.uint8), I.write_pgm),
        (np.zeros(4, np.uint8), I.write_pgm),
        (np.zeros((2, 2), np.int16), I.write_pgm)])
    def test_writers_reject_other_layouts(self, tmp_path, pixels, write):
        with pytest.raises(ValueError, match="expects uint8"):
            write(tmp_path / "bad.pnm", pixels)
        assert not (tmp_path / "bad.pnm").exists()

    @pytest.mark.parametrize("name", ["x.ppm", "X.PPM", "10.ppm", "9.png", "..ppm",
                                      "a.b.ppm", ".ppm", "noext", "img.", "img.ppm.txt",
                                      "a.PNG", "x.pgm"])
    def test_read_image_takes_the_names_scan_dataset_takes(self, tmp_path, monkeypatch,
                                                            name):
        (tmp_path / "d.ppm").mkdir()  # a dotted directory does not make a suffix
        img = np.arange(12, dtype=np.uint8).reshape(2, 2, 3)
        I.write_ppm(tmp_path / "d.ppm" / name, img)
        try:
            D.scan_dataset(tmp_path)
            accepted = True
        except I.ImageFormatError:
            accepted = False
        monkeypatch.setattr(I, "_PILImage", None)
        for path in (tmp_path / "d.ppm" / name, f"{tmp_path}/d.ppm/{name}"):
            if not accepted:
                with pytest.raises(I.ImageFormatError, match="unsupported image format"):
                    I.read_image(path)
            elif name.lower().endswith(".png"):
                with pytest.raises(I.ImageFormatError, match="requires Pillow"):
                    I.read_image(path)
            else:
                assert np.array_equal(I.read_image(path), img)


class TestTransforms:
    def test_hflip_involution(self):
        rng = np.random.default_rng(3)
        img = rng.normal(size=(8, 9, 3)).astype(np.float32)
        assert np.array_equal(I.hflip(I.hflip(img)), img)

    def test_resize_identity(self):
        rng = np.random.default_rng(4)
        img = rng.normal(size=(8, 8, 3)).astype(np.float32)
        assert np.array_equal(I.resize_bilinear(img, 8, 8), img)

    def test_resize_constant_preserved(self):
        img = np.full((10, 10, 3), 37.0, dtype=np.float32)
        out = I.resize_bilinear(img, 7, 13)
        assert out.shape == (7, 13, 3)
        np.testing.assert_allclose(out, 37.0, rtol=1e-6)

    def test_resize_downsample_average(self):
        # 2x downsample of a checkerboard averages to the mean
        img = np.zeros((4, 4, 1), dtype=np.float32)
        img[::2, 1::2] = 100.0
        img[1::2, ::2] = 100.0
        out = I.resize_bilinear(img, 2, 2)
        np.testing.assert_allclose(out, 50.0)

    def test_rotate_zero_is_identity(self):
        rng = np.random.default_rng(5)
        img = rng.normal(size=(9, 9, 3)).astype(np.float32)
        assert np.array_equal(I.rotate_bilinear(img, 0.0), img)

    def test_rotate_constant_preserved(self):
        img = np.full((11, 11, 3), 5.0, dtype=np.float32)
        np.testing.assert_allclose(I.rotate_bilinear(img, 13.0), 5.0, rtol=1e-5)

    def test_normalize_round_trip(self):
        rng = np.random.default_rng(6)
        img = rng.integers(0, 256, size=(5, 5, 3)).astype(np.float32)
        mean = np.array([0.485, 0.456, 0.406], dtype=np.float32)
        std = np.array([0.229, 0.224, 0.225], dtype=np.float32)
        back = I.denormalize(I.normalize(img, mean, std), mean, std)
        np.testing.assert_allclose(back, img, atol=1e-4)


class TestScanDataset:
    def test_basic_scan(self, small_tree):
        m = D.scan_dataset(small_tree)
        assert m.class_names == ["benign", "polyp"]
        assert len(m.samples) == 6
        assert [s.class_id for s in m.samples] == [0, 0, 0, 1, 1, 1]

    def test_empty_root(self, tmp_path):
        with pytest.raises(ValueError):
            D.scan_dataset(tmp_path)

    def test_missing_root(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            D.scan_dataset(tmp_path / "nope")

    def test_rescan_identical(self, small_tree):
        a = D.scan_dataset(small_tree)
        b = D.scan_dataset(small_tree)
        assert [s.path for s in a.samples] == [s.path for s in b.samples]
        assert a.class_names == b.class_names

    def test_unsupported_format(self, small_tree):
        (small_tree / "benign" / "notes.txt").write_text("hi")
        with pytest.raises(I.ImageFormatError):
            D.scan_dataset(small_tree)

    def test_order_and_paths_match_path_sorting(self, tmp_path):
        # awkward names: case, digits, dots, non-ASCII; stray entries ignored
        pixel = np.zeros((2, 2, 3), dtype=np.uint8)
        for cls in ("b", "B", "a.cls", "\u00e9t\u00e9", "10", "9"):
            (tmp_path / cls).mkdir()
            for name in ("x.ppm", "X.PPM", "10.ppm", "9.png", "..ppm", "a.b.ppm"):
                I.write_ppm(tmp_path / cls / name, pixel)
            (tmp_path / cls / "sub.ppm").mkdir()
        (tmp_path / "stray.ppm").write_bytes(b"")
        (tmp_path / "groups.tsv").write_text("b/x.ppm\tg\n")
        for root in (tmp_path, f"{tmp_path}/", str(tmp_path)):
            m = D.scan_dataset(root)
            class_dirs = sorted(d for d in Path(root).iterdir() if d.is_dir())
            assert m.class_names == [d.name for d in class_dirs]
            expected = [(str(p), c) for c, d in enumerate(class_dirs)
                        for p in sorted(p for p in d.iterdir() if p.is_file())]
            assert [(s.path, s.class_id) for s in m.samples] == expected
            assert [s.group_key for s in m.samples].count("g") == 1

    def test_suffix_rule_matches_pathlib(self, small_tree):
        for name in (".ppm", "noext", "img.", "img.ppm.txt"):
            (small_tree / "benign" / name).write_bytes(b"")
            with pytest.raises(I.ImageFormatError):
                D.scan_dataset(small_tree)
            (small_tree / "benign" / name).unlink()

    def test_groups_tsv(self, small_tree):
        (small_tree / "groups.tsv").write_text(
            "benign/img_0.ppm\tvidA\nbenign/img_1.ppm\tvidA\n"
            "benign/img_2.ppm\tvidB\n")
        m = D.scan_dataset(small_tree)
        keys = [s.group_key for s in m.samples]
        assert keys[:3] == ["vidA", "vidA", "vidB"]
        assert keys[3:] == [None, None, None]

    @pytest.mark.parametrize("line", ["benign/img_9.ppm\tvidA", "benign/\tvidA",
                                      "./benign/img_1.ppm\tvidA", "img_1.ppm\tvidA",
                                      "benign\\img_1.ppm\tvidA"],
                             ids=["unknown-file", "class-dir", "dot-slash", "no-class",
                                  "backslash"])
    def test_groups_tsv_path_that_names_no_image(self, small_tree, line):
        # only ``<class>/<file>`` of a scanned image counts; a line that marks
        # nothing would leave its frame free to land in any split
        (small_tree / "groups.tsv").write_text(f"benign/img_0.ppm\tvidA\n\n{line}\n")
        with pytest.raises(ValueError, match=r"groups\.tsv line 3 marks no image"):
            D.scan_dataset(small_tree)

    def test_groups_tsv_second_key_for_one_image(self, small_tree):
        (small_tree / "groups.tsv").write_text(
            "# clips\nbenign/img_0.ppm\tvidA\nbenign/img_1.ppm\tvidA\n"
            "benign/img_1.ppm\tvidC\n")
        with pytest.raises(ValueError, match=r"groups\.tsv line 4 gives benign/img_1\.ppm "
                                             r"a second group key, 'vidC' after 'vidA'"):
            D.scan_dataset(small_tree)

    def test_groups_tsv_repeated_identical_line(self, small_tree):
        (small_tree / "groups.tsv").write_text(
            "polyp/img_2.ppm\tvidB\npolyp/img_2.ppm\tvidB\n")
        keys = [s.group_key for s in D.scan_dataset(small_tree).samples]
        assert keys == [None] * 5 + ["vidB"]

    def test_groups_tsv_line_without_key(self, small_tree):
        (small_tree / "groups.tsv").write_text("benign/img_0.ppm\tvidA\nbenign/img_1.ppm\n")
        with pytest.raises(ValueError, match=r"groups\.tsv line 2 has no group key"):
            D.scan_dataset(small_tree)


def _manifest(per_class, num_classes=2, groups=None):
    samples = []
    for c in range(num_classes):
        for i in range(per_class):
            g = None if groups is None else groups[(c, i)]
            samples.append(D.Sample(path=f"{c}/{i}.ppm", class_id=c, group_key=g))
    return D.DatasetManifest(samples=samples,
                             class_names=[f"c{c}" for c in range(num_classes)])


class TestSplit:
    def test_80_10_10_exact(self):
        m = D.split(_manifest(100), seed=0)
        for c in range(2):
            rows = [s for s in m.samples if s.class_id == c]
            counts = {k: sum(1 for s in rows if s.split == k) for k in D.SPLITS}
            assert counts == {"train": 80, "val": 10, "test": 10}

    def test_same_seed_identical(self):
        a = D.split(_manifest(37), seed=5)
        b = D.split(_manifest(37), seed=5)
        assert [s.split for s in a.samples] == [s.split for s in b.samples]

    def test_different_seed_differs(self):
        a = D.split(_manifest(50), seed=1)
        b = D.split(_manifest(50), seed=2)
        assert [s.split for s in a.samples] != [s.split for s in b.samples]

    def test_tiny_class_warns_all_train(self):
        m = _manifest(2)
        with pytest.warns(UserWarning):
            out = D.split(m, seed=0)
        assert all(s.split == "train" for s in out.samples)

    def test_single_group_lands_in_one_split(self):
        groups = {(c, i): "onevideo" for c in range(2) for i in range(10)}
        out = D.split(_manifest(10, groups=groups), seed=3, by_group=True)
        assert len({s.split for s in out.samples}) == 1

    @pytest.mark.parametrize("by_group", [False, True])
    @pytest.mark.parametrize("bad", [-1, 2])
    def test_class_id_outside_the_names(self, bad, by_group):
        m = _manifest(10)
        m.samples[3].class_id = bad
        with pytest.raises(ValueError, match="class ids must be dense"):
            D.split(m, by_group=by_group)

    def test_bad_ratios(self):
        with pytest.raises(ValueError):
            D.split(_manifest(10), ratios=(0.5, 0.2, 0.2))

    @pytest.mark.parametrize("by_group", [False, True])
    @pytest.mark.parametrize("ratios", [(1.5, -0.25, -0.25), (float("nan"), 0.5, 0.5),
                                        (float("inf"), 0.0, 0.0),
                                        (0.5, float("-inf"), 0.5)])
    def test_negative_or_nonfinite_ratios(self, ratios, by_group):
        with pytest.raises(ValueError, match="finite and non-negative"):
            D.split(_manifest(12, num_classes=3), ratios=ratios, by_group=by_group)

    @given(st.integers(min_value=3, max_value=60), st.integers(min_value=0, max_value=99))
    @settings(max_examples=25, deadline=None)
    def test_stratified_counts_within_one(self, per_class, seed):
        out = D.split(_manifest(per_class, num_classes=3), seed=seed)
        for c in range(3):
            rows = [s for s in out.samples if s.class_id == c]
            for ratio, name in zip((0.8, 0.1, 0.1), D.SPLITS):
                got = sum(1 for s in rows if s.split == name)
                assert abs(got - ratio * per_class) <= 1

    @given(st.integers(min_value=0, max_value=99))
    @settings(max_examples=20, deadline=None)
    def test_groups_never_leak(self, seed):
        rng = np.random.default_rng(seed)
        groups = {(c, i): f"vid{rng.integers(0, 6)}"
                  for c in range(2) for i in range(30)}
        out = D.split(_manifest(30, groups=groups), seed=seed, by_group=True)
        seen: dict[str, set] = {}
        for s in out.samples:
            seen.setdefault(s.group_key, set()).add(s.split)
        assert all(len(v) == 1 for v in seen.values())

    @given(sizes=st.lists(st.integers(min_value=0, max_value=40), min_size=1, max_size=6),
           keys=st.none() | st.integers(min_value=1, max_value=8),
           by_group=st.booleans(),
           cuts=st.tuples(st.integers(0, 20), st.integers(0, 20)).map(sorted),
           seed=st.integers(min_value=0, max_value=2**32 - 1),
           order_seed=st.integers(min_value=0, max_value=99))
    @settings(max_examples=150, deadline=None)
    def test_same_assignment_as_rescanning_each_class(self, sizes, keys, by_group, cuts,
                                                      seed, order_seed):
        # classes below 3 samples, empty classes, shuffled sample order, some
        # samples without a group key, and splits already set on the input
        rng = np.random.default_rng(order_seed)
        samples = [D.Sample(f"c{c}/{i}.ppm", c,
                            None if keys is None or rng.random() < 0.2
                            else f"g{rng.integers(keys)}",
                            D.SPLITS[rng.integers(3)] if rng.random() < 0.3 else None)
                   for c, n in enumerate(sizes) for i in range(n)]
        samples = [samples[i] for i in rng.permutation(len(samples))]
        m = D.DatasetManifest(samples, [f"c{c}" for c in range(len(sizes))], "root")
        ratios = (cuts[0] / 20, (cuts[1] - cuts[0]) / 20, (20 - cuts[1]) / 20)
        def rows(ss):
            return [(s.path, s.class_id, s.group_key, s.split) for s in ss]

        before = rows(samples)

        def outcome(split):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                try:
                    out = split(m, ratios, seed=seed, by_group=by_group)
                    result = rows(out.samples), out.class_names, out.root
                except ValueError as e:
                    result = str(e)
            assert rows(samples) == before
            return result, [(w.category, str(w.message)) for w in caught]

        assert outcome(D.split) == outcome(split_rescanning_classes)


class TestLoadBatch:
    def test_eval_mode_deterministic(self, small_tree):
        m = D.split(D.scan_dataset(small_tree), ratios=(0.5, 0.25, 0.25), seed=0)
        aug = D.AugmentConfig(resize=8)
        idx = m.indices_for("train")[:2]
        x1, y1 = D.load_batch(m, "train", idx, aug, train_mode=False, seed=0)
        x2, y2 = D.load_batch(m, "train", idx, aug, train_mode=False, seed=9)
        assert np.array_equal(x1, x2)
        assert np.array_equal(y1, y2)
        assert x1.shape == (2, 3, 8, 8)

    def test_no_augment_train_equals_eval(self, small_tree):
        m = D.split(D.scan_dataset(small_tree), ratios=(0.5, 0.25, 0.25), seed=0)
        aug = D.AugmentConfig(hflip_prob=0.0, rotation_max_deg=0.0, resize=8)
        idx = m.indices_for("train")[:2]
        xt, _ = D.load_batch(m, "train", idx, aug, train_mode=True, seed=0)
        xe, _ = D.load_batch(m, "train", idx, aug, train_mode=False, seed=0)
        assert np.array_equal(xt, xe)

    def test_augment_deterministic_per_seed_epoch_index(self, small_tree):
        m = D.split(D.scan_dataset(small_tree), ratios=(0.5, 0.25, 0.25), seed=0)
        aug = D.AugmentConfig(resize=8)
        idx = m.indices_for("train")
        a, _ = D.load_batch(m, "train", idx, aug, train_mode=True, seed=1, epoch=3)
        b, _ = D.load_batch(m, "train", idx, aug, train_mode=True, seed=1, epoch=3)
        c, _ = D.load_batch(m, "train", idx, aug, train_mode=True, seed=1, epoch=4)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_batch_composition_independence(self, small_tree):
        m = D.split(D.scan_dataset(small_tree), ratios=(0.5, 0.25, 0.25), seed=0)
        aug = D.AugmentConfig(resize=8)
        idx = m.indices_for("train")
        full, _ = D.load_batch(m, "train", idx, aug, train_mode=True, seed=2)
        solo, _ = D.load_batch(m, "train", idx[1:2], aug, train_mode=True, seed=2)
        assert np.array_equal(full[1], solo[0])

    def test_wrong_split_rejected(self, small_tree):
        m = D.split(D.scan_dataset(small_tree), ratios=(0.5, 0.25, 0.25), seed=0)
        aug = D.AugmentConfig(resize=8)
        test_idx = m.indices_for("test")
        with pytest.raises(ValueError):
            D.load_batch(m, "train", test_idx, aug, train_mode=False, seed=0)

    def test_decode_failure_surfaced(self, small_tree):
        m = D.split(D.scan_dataset(small_tree), ratios=(0.5, 0.25, 0.25), seed=0)
        idx = m.indices_for("train")[:1]
        victim = m.samples[idx[0]].path
        open(victim, "wb").write(b"P6\n6 5\n255\nshort")
        with pytest.raises(I.ImageFormatError):
            D.load_batch(m, "train", idx, D.AugmentConfig(resize=8),
                         train_mode=False, seed=0)

    def test_label_preserved_under_augmentation(self, small_tree):
        m = D.split(D.scan_dataset(small_tree), ratios=(0.5, 0.25, 0.25), seed=0)
        aug = D.AugmentConfig(resize=8)
        idx = m.indices_for("train")
        _, y_aug = D.load_batch(m, "train", idx, aug, train_mode=True, seed=3)
        _, y_eval = D.load_batch(m, "train", idx, aug, train_mode=False, seed=3)
        assert np.array_equal(y_aug, y_eval)


class TestSynthDomain:
    def test_deterministic(self, tmp_path):
        m1 = D.synth_domain(tmp_path / "d1", 3, 4, image_size=16, seed=7)
        m2 = D.synth_domain(tmp_path / "d2", 3, 4, image_size=16, seed=7)
        for s1, s2 in zip(m1.samples, m2.samples):
            assert np.array_equal(I.read_ppm(s1.path), I.read_ppm(s2.path))

    def test_tree_readable_and_sized(self, tmp_path):
        m = D.synth_domain(tmp_path / "d", 4, 5, image_size=16, seed=1)
        assert m.num_classes == 4
        assert len(m.samples) == 20
        img = I.read_ppm(m.samples[0].path)
        assert img.shape == (16, 16, 3)

    def test_num_classes_validation(self, tmp_path):
        with pytest.raises(ValueError):
            D.synth_domain(tmp_path / "bad", 1, 5)

    @pytest.mark.parametrize("size", [0, -3])
    def test_image_size_validation(self, tmp_path, size):
        with pytest.raises(ValueError, match="image_size"):
            D.synth_domain(tmp_path / "bad", 2, 1, image_size=size)

    def test_same_law_similar_statistics(self, tmp_path):
        # two shift-0 domains with different seeds come from one generator law
        a = D.synth_domain(tmp_path / "a", 3, 30, image_size=16,
                           palette_shift=0.0, texture_shift=0.0, seed=1)
        b = D.synth_domain(tmp_path / "b", 3, 30, image_size=16,
                           palette_shift=0.0, texture_shift=0.0, seed=2)

        def mean_pixel(man):
            return np.mean([I.read_ppm(s.path).mean() for s in man.samples])

        assert abs(mean_pixel(a) - mean_pixel(b)) < 8.0

    def test_shifted_domain_changes_statistics(self, tmp_path):
        a = D.synth_domain(tmp_path / "a", 3, 20, image_size=16,
                           palette_shift=0.0, texture_shift=0.0, seed=1)
        b = D.synth_domain(tmp_path / "b", 3, 20, image_size=16,
                           palette_shift=0.8, texture_shift=0.8, seed=1)

        def channel_means(man):
            return np.mean([I.read_ppm(s.path).mean(axis=(0, 1))
                            for s in man.samples], axis=0)

        diff = np.abs(channel_means(a) - channel_means(b)).max()
        assert diff > 10.0


class TestDomainShiftCalibration:
    def test_linear_probe_drops_at_least_20_points(self, tmp_path):
        # a ridge probe on raw downsampled pixels, fit on one domain and
        # tested on the other, must collapse across the shift
        k, n = 6, 60
        shifted = D.synth_domain(tmp_path / "shifted", k, n, image_size=32,
                                 palette_shift=0.8, texture_shift=0.8, seed=11)
        clean = D.synth_domain(tmp_path / "clean", k, n, image_size=32,
                               palette_shift=0.0, texture_shift=0.0, seed=22)

        def features(manifest, idxs):
            xs, ys = [], []
            for i in idxs:
                s = manifest.samples[i]
                img = I.read_ppm(s.path).astype(np.float32)
                xs.append(I.resize_bilinear(img, 8, 8).reshape(-1) / 255.0)
                ys.append(s.class_id)
            return np.array(xs), np.array(ys)

        def probe_accuracy(xtr, ytr, xte, yte):
            a = np.hstack([xtr, np.ones((len(xtr), 1))])
            targets = np.eye(k)[ytr]
            w = np.linalg.solve(a.T @ a + 1e-3 * np.eye(a.shape[1]), a.T @ targets)
            ate = np.hstack([xte, np.ones((len(xte), 1))])
            return float(((ate @ w).argmax(1) == yte).mean())

        rng = np.random.default_rng(0)
        perm = rng.permutation(len(shifted.samples))
        cut = int(0.8 * len(perm))
        xtr, ytr = features(shifted, perm[:cut])
        xte, yte = features(shifted, perm[cut:])
        xcross, ycross = features(clean, range(len(clean.samples)))
        in_domain = probe_accuracy(xtr, ytr, xte, yte)
        cross = probe_accuracy(xtr, ytr, xcross, ycross)
        assert in_domain - cross >= 0.20


class TestManifestExport:
    def test_tsv_contents(self, small_tree, tmp_path):
        m = D.split(D.scan_dataset(small_tree), ratios=(0.5, 0.25, 0.25), seed=0)
        out = tmp_path / "manifest.tsv"
        D.write_manifest_tsv(m, out)
        lines = out.read_text().splitlines()
        assert lines[0] == "path\tclass\tgroup\tsplit"
        assert len(lines) == 1 + len(m.samples)
        assert "benign" in lines[1]


@pytest.fixture(scope="module")
def mixed_tree(tmp_path_factory):
    """Two classes whose images come in several source sizes, so one batch
    mixes resized and unresized rows."""
    root = tmp_path_factory.mktemp("mixed")
    rng = np.random.default_rng(11)
    sizes = [(32, 32), (20, 27), (48, 48), (32, 32), (5, 3), (1, 1)]
    for cls in ("a", "b"):
        (root / cls).mkdir()
        for k, hw in enumerate(sizes):
            I.write_ppm(root / cls / f"{k}.ppm",
                        rng.integers(0, 256, size=(*hw, 3), dtype=np.uint8))
    return D.split(D.scan_dataset(root), ratios=(1.0, 0.0, 0.0), seed=0)


def _same_bits(a, b):
    return a.dtype == b.dtype and np.array_equal(a.view(np.uint32), b.view(np.uint32))


class TestBatchedPixels:
    """The batched data path against the per-sample reference, bit for bit."""

    @given(hflip=st.sampled_from([0.0, 0.5, 1.0]),
           rotation=st.sampled_from([0.0, 15.0, 180.0]),
           resize=st.sampled_from([32, 24, 48]), train_mode=st.booleans(),
           seed=st.integers(0, 2**16), epoch=st.integers(0, 50),
           order=st.permutations(range(12)), n=st.integers(1, 12))
    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_load_batch_matches_per_sample(self, mixed_tree, hflip, rotation,
                                           resize, train_mode, seed, epoch,
                                           order, n):
        aug = D.AugmentConfig(hflip_prob=hflip, rotation_max_deg=rotation,
                              resize=resize)
        idx = order[:n]
        x, y = D.load_batch(mixed_tree, "train", idx, aug, train_mode, seed, epoch)
        xr, yr = load_batch_per_sample(mixed_tree, "train", idx, aug,
                                       train_mode, seed, epoch)
        assert _same_bits(x, xr)
        assert np.array_equal(y, yr)

    @pytest.mark.parametrize("resize", [32, 24])
    def test_zero_angle_rows_stay_float32(self, mixed_tree, monkeypatch, resize):
        # a drawn angle of exactly 0.0 skips the rotation and its float64
        # result, as rotate_bilinear(img, 0.0) does for one image
        real = np.random.default_rng

        class EvenRowsUnrotated:
            def __init__(self, seq):
                self._rng = real(seq)
                self._zero = seq.entropy[2] % 2 == 0

            def random(self):
                return self._rng.random()

            def uniform(self, lo, hi):
                angle = self._rng.uniform(lo, hi)
                return 0.0 if self._zero else angle

        monkeypatch.setattr(np.random, "default_rng", EvenRowsUnrotated)
        aug = D.AugmentConfig(hflip_prob=0.5, rotation_max_deg=30.0, resize=resize)
        idx = list(range(12))
        x, _ = D.load_batch(mixed_tree, "train", idx, aug, True, 4, 2)
        xr, _ = load_batch_per_sample(mixed_tree, "train", idx, aug, True, 4, 2)
        assert _same_bits(x, xr)

    @pytest.mark.parametrize("shape", [(1, 1), (2, 7), (7, 2), (5, 8), (17, 40),
                                       (160, 96)])
    def test_rotate_batch_matches_per_image(self, shape):
        rng = np.random.default_rng(sum(shape))
        n = 5
        img = (rng.random((n, *shape, 3)) * 255).astype(np.float32)
        angles = [720.0, -720.0, *rng.uniform(-720.0, 720.0, size=n - 2)]
        out = I.rotate_bilinear(img, angles)
        assert out.shape == img.shape and out.dtype == np.float64
        for k in range(n):
            ref = rotate_bilinear_per_image(img[k], angles[k])
            assert np.array_equal(out[k].view(np.uint64), ref.view(np.uint64))
            single = I.rotate_bilinear(img[k], angles[k])
            assert np.array_equal(single.view(np.uint64), ref.view(np.uint64))

    def test_rotate_casts_float64_input_first(self):
        rng = np.random.default_rng(9)
        img = rng.normal(size=(2, 9, 11, 3)) * 50.0
        out = I.rotate_bilinear(img, [10.0, -33.3])
        for k, angle in enumerate([10.0, -33.3]):
            assert np.array_equal(out[k], rotate_bilinear_per_image(img[k], angle))

    def test_rotate_rejects_bad_angles(self):
        img = np.zeros((2, 4, 4, 3), dtype=np.float32)
        with pytest.raises(ValueError):
            I.rotate_bilinear(img, [1.0])
        with pytest.raises(ValueError):
            I.rotate_bilinear(img, [1.0, float("nan")])
        with pytest.raises(ValueError):
            I.rotate_bilinear(img[0], float("inf"))
