import csv
import faulthandler
import gc
import hashlib
import itertools
import math
import os
import stat
import subprocess
import sys
import threading
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
import scipy.stats
from hypothesis import given, settings, strategies as st

from conftest import ConstantScorer
from metamargin.cli import main
from metamargin.complexity import (
    _COMPARE_BLOCK,
    _greedy_covers,
    _normalized_sq_dists,
    ComplexityEstimate,
    FunctionValueMatrix,
    build_pi1f_restriction,
    dudley_bound,
    entropy_integral,
    gaussian_complexity_mc,
    gaussian_complexity_rowspace,
    greedy_epsilon_cover,
    massart_bound,
    rademacher_complexity_mc,
)
from metamargin.core import EnvironmentSpec, EpisodeBatch, sample_meta_sample
from metamargin.learners import make_feature_family, nearest_centroid_learn
from metamargin.losses import margin_loss_array


def rand_matrix(rng, n_max=50, m_max=30, b=1.0):
    n = int(rng.integers(1, n_max + 1))
    m = int(rng.integers(1, m_max + 1))
    return FunctionValueMatrix(values=rng.uniform(-b, b, size=(n, m)), b=b)


def exhaustive_rademacher(A):
    """Exact Rademacher complexity by enumerating all sign vectors."""
    vals = A.values
    m = vals.shape[1]
    total = 0.0
    for signs in itertools.product((-1.0, 1.0), repeat=m):
        total += (vals @ np.asarray(signs)).max()
    return 2.0 / m * total / 2 ** m


def brute_force_min_cover(A, eps):
    """Smallest cover whose centers are rows of A, by subset enumeration."""
    vals = A.values
    n, m = vals.shape
    d = np.sqrt(((vals[:, None, :] - vals[None, :, :]) ** 2).mean(axis=2))
    for size in range(1, n + 1):
        for centers in itertools.combinations(range(n), size):
            if np.all(d[:, list(centers)].min(axis=1) <= eps):
                return size
    return n


class TestRestriction:
    ENV = EnvironmentSpec(d_raw=4, k=2, prototype_scale=2.0, noise_sigma=0.5)

    @staticmethod
    def learner(ep, phi):
        return nearest_centroid_learn(ep, phi, 1.0)

    def test_single_episode_shape(self):
        ep = EpisodeBatch(np.array([[[0.0], [1.0], [2.0]]]), np.array([[1, 2, 1]]), 2)
        fam = make_feature_family(1, 1, 1, "identity", 0)
        A = build_pi1f_restriction(ep, fam, self.learner, 2)
        assert A.values.shape == (2, 3)
        assert A.labels == ("y=1|phi=identity-00", "y=2|phi=identity-00")

    def test_meta_sample_shape(self):
        meta = sample_meta_sample(self.ENV, 4, 12, 1)
        fam = make_feature_family(4, 3, 3, "random_linear", 2)
        A = build_pi1f_restriction(meta, fam, self.learner, 2)
        assert A.values.shape == (2 * 3, 4 * 12)

    def test_constant_zero_scorers(self):
        ep = EpisodeBatch(np.zeros((1, 3, 2)), np.array([[1, 2, 1]]), 2)
        fam = make_feature_family(2, 2, 1, "identity", 0)
        A = build_pi1f_restriction(ep, fam, lambda batch, p: ConstantScorer(2, 0.0, b=1.0, episodes=batch.n), 2)
        assert np.all(A.values == 0.0)

    def test_entries_bounded(self):
        for seed in range(5):
            meta = sample_meta_sample(self.ENV, 3, 8, seed)
            fam = make_feature_family(4, 4, 2, "random_relu", seed)
            A = build_pi1f_restriction(meta, fam, self.learner, 2)
            assert np.abs(A.values).max() <= A.b


class TestMatrixValidation:
    def test_entries_must_respect_bound(self):
        with pytest.raises(ValueError):
            FunctionValueMatrix(values=np.array([[2.0]]), b=1.0)

    @pytest.mark.parametrize("b", [1.0, 5e-324, 1e300])
    def test_bound_check_decides_as_the_absolute_maximum(self, b):
        # entries on, one ulp inside and one ulp outside the slack, each sign,
        # next to NaN, infinities and the largest float
        edge = b + 1e-9
        entries = [0.0, -0.0, b, -b, edge, -edge, np.nextafter(edge, 0), -np.nextafter(edge, 0),
                   np.nextafter(edge, np.inf), -np.nextafter(edge, np.inf), np.nan, np.inf, -np.inf,
                   np.finfo(float).max, -np.finfo(float).max]
        for row in itertools.product(entries, repeat=2):
            values = np.array([row])
            accepted = bool(np.abs(values).max() <= edge)
            try:
                FunctionValueMatrix(values=values, b=b)
            except ValueError:
                assert not accepted, row
            else:
                assert accepted, row

    def test_estimate_validation(self):
        with pytest.raises(ValueError):
            ComplexityEstimate(mean=0.0, std_error=-1.0, draws=10)

    def test_csv_roundtrip(self, tmp_path):
        A = FunctionValueMatrix(values=np.array([[0.25, -0.5], [1.0, 0.0]]), b=1.5,
                                labels=("y=1|phi=a", "y=2|phi=a"))
        path = str(tmp_path / "matrix.csv")
        A.to_csv(path)
        B = FunctionValueMatrix.from_csv(path)
        assert np.array_equal(A.values, B.values)
        assert B.b == 1.5 and B.labels == A.labels


def csv_module_read(path):
    """Reference reader: the csv module and one float() per cell, with
    empty records skipped."""
    with open(path, newline="") as handle:
        handle.readline()
        records = [record for record in csv.reader(handle) if record]
    return [r[0] for r in records], np.array([[float(v) for v in r[1:]] for r in records])


def reference_csv_bytes(A, path):
    """The bytes of a writer that formats each cell as repr(float(v))."""
    with open(path, "w", newline="") as handle:
        handle.write(f"# b={A.b!r}\n")
        writer = csv.writer(handle)
        labels = A.labels or tuple(f"f{i}" for i in range(A.n_functions))
        for label, row in zip(labels, A.values):
            writer.writerow([label] + [repr(float(v)) for v in row])
    with open(path, "rb") as handle:
        return handle.read()


LABEL_TEXT = st.text(st.characters(blacklist_categories=("Cs",), blacklist_characters="\x00"),
                     max_size=8)
LABELS = st.one_of(LABEL_TEXT, st.sampled_from(["a,b", 'say "hi"', "two\nlines", "#comment",
                                                "cr\r\nlf", "ff\x0cls ", " padded ", "", "1.5"]))


@st.composite
def csv_matrices(draw, labels=LABELS):
    n, m = draw(st.integers(1, 6)), draw(st.integers(1, 8))
    b = draw(st.sampled_from([1.0, 2.5, 25.0, 1e-300]))
    cell = st.one_of(st.floats(-b, b, allow_subnormal=True),
                     st.sampled_from([0.0, -0.0, b, -b, 5e-324, -5e-324, 2.2250738585072014e-308]))
    values = np.array(draw(st.lists(st.lists(cell, min_size=m, max_size=m), min_size=n, max_size=n)))
    labels = draw(st.none() | st.lists(labels, min_size=n, max_size=n).map(tuple))
    return FunctionValueMatrix(values=values, b=b, labels=labels)


class TestMatrixCsv:
    @given(csv_matrices())
    @settings(deadline=None, max_examples=200)
    def test_round_trip_is_bit_identical(self, tmp_path_factory, A):
        path = str(tmp_path_factory.mktemp("csv") / "matrix.csv")
        A.to_csv(path)
        B = FunctionValueMatrix.from_csv(path)
        assert B.values.shape == A.values.shape and B.values.flags.c_contiguous
        assert np.array_equal(B.values.view(np.int64), A.values.view(np.int64))
        assert B.labels == (A.labels or tuple(f"f{i}" for i in range(A.n_functions)))
        assert B.b == A.b

    @given(csv_matrices())
    @settings(deadline=None, max_examples=100)
    def test_writer_bytes_match_repr_of_each_float(self, tmp_path_factory, A):
        tmp = tmp_path_factory.mktemp("csv")
        A.to_csv(str(tmp / "matrix.csv"))
        assert (tmp / "matrix.csv").read_bytes() == reference_csv_bytes(A, str(tmp / "ref.csv"))

    @pytest.mark.parametrize("label", ["", ",\r\n"])
    def test_label_is_quoted_as_the_csv_module_quotes_it(self, tmp_path, label):
        A = FunctionValueMatrix(values=np.array([[0.5, -0.25], [1.0, 0.0]]), b=1.0,
                                labels=(label, "plain"))
        A.to_csv(str(tmp_path / "matrix.csv"))
        written = (tmp_path / "matrix.csv").read_bytes()
        assert written == reference_csv_bytes(A, str(tmp_path / "ref.csv"))
        assert written.split(b"\n", 1)[1].startswith(b",0.5" if label == "" else b'",\r\n",0.5')
        assert FunctionValueMatrix.from_csv(str(tmp_path / "matrix.csv")).labels == (label, "plain")

    @pytest.mark.parametrize("newline", ["\n", "\r\n"])
    def test_blank_lines_read_as_the_csv_module_reads_them(self, tmp_path, newline):
        rows = ["", "", "f0,0.25,-0.5", "", '"y=1,|""q""",1e-320,-0.0', "", "f2, +1.5 ,0.125", "", ""]
        path = tmp_path / "matrix.csv"
        path.write_bytes(newline.join(["# b=2.0"] + rows).encode())
        A = FunctionValueMatrix.from_csv(str(path))
        labels, values = csv_module_read(str(path))
        assert A.labels == tuple(labels) == ("f0", 'y=1,|"q"', "f2")
        assert np.array_equal(A.values.view(np.int64), values.view(np.int64))

    @pytest.mark.parametrize("body", [
        "f0,0.5,0.25\nf1,0.5\n",  # ragged rows
        "f0,0.5,0.25\nf1,0.5,0.25,0.125\n",  # ragged rows
        "f0,0.5,zero\n",  # a non-numeric cell
        "f0,1_0,0.5\n",  # a Python-only float spelling
        "",  # header only
        "\n\n",  # header and blank lines only
        "f0\nf1\n",  # rows that hold only a label
        "# b=1_0\nf0,0.5\n",  # a header with a Python-only float spelling
        "# b=\nf0,0.5\n",  # a header without a value
        "# b=1.0,2.0\nf0,0.5\n",  # a header with two values
    ])
    def test_malformed_body_raises_and_estimate_exits_2(self, tmp_path, capsys, body):
        path = tmp_path / "matrix.csv"
        # an input that starts with its own header replaces the valid one
        path.write_text(body if body.startswith("# b=") else "# b=20.0\n" + body)
        with pytest.raises(ValueError):
            FunctionValueMatrix.from_csv(str(path))
        assert main(["estimate", "--input", str(path), "--estimator", "massart"]) == 2
        assert "error" in capsys.readouterr().err
        assert os.listdir(tmp_path) == ["matrix.csv"]  # a failed parse leaves no sidecar


def same_matrix(A, B):
    """Exact equality, down to the bits of every value."""
    return (A.values.shape == B.values.shape
            and np.array_equal(A.values.view(np.int64), B.values.view(np.int64))
            and A.b == B.b and A.labels == B.labels)


def read_without_parsing(path):
    """from_csv with np.loadtxt made to fail: only a sidecar hit returns."""
    with mock.patch.object(np, "loadtxt", side_effect=AssertionError("parsed")):
        return FunctionValueMatrix.from_csv(path)


SIDECAR_LABELS = st.one_of(LABELS, st.sampled_from(["\x00", "nul\x00", '\x00a,"b"\n\x00']))
SIDECAR_MATRIX = FunctionValueMatrix(values=np.array([[0.25, -0.0], [5e-324, -1.0]]), b=1.0,
                                     labels=("y=1|phi=a", "y=2|phi=a"))
# Its CSV spans three compare blocks and part of a fourth.
BLOCKS_MATRIX = FunctionValueMatrix(values=np.random.default_rng(8).uniform(-1, 1, size=(4, 10000)), b=1.0,
                                    labels=tuple(f"y={y}|phi=a" for y in range(1, 5)))
# The shape of the benchmark's wide restriction: its CSV spans about 15 compare blocks.
WIDE_MATRIX = FunctionValueMatrix(values=np.random.default_rng(9).uniform(-1, 1, size=(40, 5000)), b=1.0,
                                  labels=tuple(f"f{i}" for i in range(40)))
# Where one byte of the stored copy of BLOCKS_MATRIX's CSV is flipped, from the copy's start
# (modulo the CSV's length, so -1 is its last byte).
FLIPS_AT = {"block-1": _COMPARE_BLOCK - 1, "block": _COMPARE_BLOCK, "block+1": _COMPARE_BLOCK + 1, "last": -1}


class TestMatrixCsvSidecar:
    @given(csv_matrices(labels=SIDECAR_LABELS))
    @settings(deadline=None, max_examples=100)
    def test_hit_equals_a_fresh_parse(self, tmp_path_factory, A):
        tmp = tmp_path_factory.mktemp("csv")
        A.to_csv(str(tmp / "matrix.csv"))
        parsed = FunctionValueMatrix.from_csv(str(tmp / "matrix.csv"))
        assert (tmp / ".matrix.csv.parsed").is_file()
        hit = read_without_parsing(str(tmp / "matrix.csv"))
        assert same_matrix(hit, parsed)
        flags = hit.values.flags
        assert flags.c_contiguous and flags.aligned and flags.owndata
        assert parsed.labels == (A.labels or tuple(f"f{i}" for i in range(A.n_functions)))

    def test_rewritten_csv_of_the_same_size_and_mtime_is_parsed_again(self, tmp_path):
        path = tmp_path / "matrix.csv"
        SIDECAR_MATRIX.to_csv(str(path))
        FunctionValueMatrix.from_csv(str(path))
        stamp, size, old = path.stat().st_mtime_ns, path.stat().st_size, (tmp_path / ".matrix.csv.parsed").read_bytes()
        changed = FunctionValueMatrix(values=np.array([[0.75, -0.0], [5e-324, -1.0]]), b=1.0,
                                      labels=SIDECAR_MATRIX.labels)
        changed.to_csv(str(path))
        os.utime(path, ns=(stamp, stamp))
        assert path.stat().st_size == size
        assert same_matrix(FunctionValueMatrix.from_csv(str(path)), changed)
        assert (tmp_path / ".matrix.csv.parsed").read_bytes() != old
        assert same_matrix(read_without_parsing(str(path)), changed)

    def test_a_csv_cut_short_is_parsed_again(self, tmp_path):
        # a CSV that lost its last bytes is a prefix of the sidecar's copy;
        # cuts of 1 to 7 bytes put the values at the same 8-byte offset or not
        full = FunctionValueMatrix(values=np.array([[0.25, -0.0], [5e-324, 0.123456789]]), b=1.0)
        path = tmp_path / "matrix.csv"
        for cut in range(1, 8):
            full.to_csv(str(path))
            FunctionValueMatrix.from_csv(str(path))  # the sidecar of the whole file
            path.write_bytes(path.read_bytes()[:-cut])
            labels, values = csv_module_read(str(path))
            A = FunctionValueMatrix.from_csv(str(path))
            assert A.labels == tuple(labels) and np.array_equal(A.values.view(np.int64), values.view(np.int64))

    def test_a_csv_that_grows_after_its_size_is_taken_is_parsed_again(self, tmp_path):
        # a row appended between the size check and the comparison: the
        # stored copy is then a prefix of the file and must not hit
        path = tmp_path / "matrix.csv"
        SIDECAR_MATRIX.to_csv(str(path))
        FunctionValueMatrix.from_csv(str(path))
        size, inode = path.stat().st_size, path.stat().st_ino
        with path.open("ab") as handle:
            handle.write(b"f2,0.5,0.5\r\n")
        real_fstat = os.fstat

        def fstat(fd):  # the CSV's size as it was before the append
            info = real_fstat(fd)
            if info.st_ino != inode:
                return info
            return os.stat_result(info[:stat.ST_SIZE] + (size,) + info[stat.ST_SIZE + 1:])

        with mock.patch("os.fstat", fstat):
            A = FunctionValueMatrix.from_csv(str(path))
        assert same_matrix(A, FunctionValueMatrix(values=np.vstack([SIDECAR_MATRIX.values, [[0.5, 0.5]]]), b=1.0,
                                                  labels=(*SIDECAR_MATRIX.labels, "f2")))

    @pytest.mark.parametrize("damage", ["truncated", "garbage", "npy", "foreign", "other_digest", "csv_byte",
                                        "values_short", "values_long", "shape", "old_npz", *FLIPS_AT,
                                        "csv_last_block"])
    def test_a_bad_sidecar_is_ignored_and_replaced(self, tmp_path, damage):
        path, sidecar = tmp_path / "matrix.csv", tmp_path / ".matrix.csv.parsed"
        want = BLOCKS_MATRIX if damage in (*FLIPS_AT, "csv_last_block") else SIDECAR_MATRIX
        want.to_csv(str(path))
        FunctionValueMatrix.from_csv(str(path))
        good, data = sidecar.read_bytes(), path.read_bytes()
        copy = good.index(data)  # where the sidecar's copy of the CSV starts
        if want is BLOCKS_MATRIX:
            assert len(data) > 3 * _COMPARE_BLOCK
        if damage == "csv_byte":  # one byte of the stored copy flipped
            sidecar.write_bytes(good[:copy + 20] + bytes([good[copy + 20] ^ 1]) + good[copy + 21:])
        elif damage in FLIPS_AT:
            at = copy + FLIPS_AT[damage] % len(data)
            sidecar.write_bytes(good[:at] + bytes([good[at] ^ 1]) + good[at + 1:])
        elif damage == "csv_last_block":  # the last digit of the CSV's last value, in place
            at = len(data) - len(b"\r\n") - 1
            assert chr(data[at]).isdigit()
            edited = data[:at] + (b"6" if data[at] == ord("5") else b"5") + data[at + 1:]
            fresh = tmp_path / "fresh"
            fresh.mkdir()
            (fresh / "matrix.csv").write_bytes(edited)
            want = FunctionValueMatrix.from_csv(str(fresh / "matrix.csv"))
            good = (fresh / ".matrix.csv.parsed").read_bytes()
            assert not same_matrix(want, BLOCKS_MATRIX)
            path.write_bytes(edited)
        elif damage == "values_short":
            sidecar.write_bytes(good[:-1])
        elif damage == "values_long":
            sidecar.write_bytes(good + b"\0")
        elif damage == "shape":  # as many values as the CSV holds, in the wrong shape
            assert b'"shape": [2, 2]' in good[:copy]
            sidecar.write_bytes(good.replace(b'"shape": [2, 2]', b'"shape": [1, 4]', 1))
        elif damage == "old_npz":  # the zip format with a matching BLAKE2b digest, holding other values
            sidecar.unlink()
            digest = hashlib.blake2b(path.read_bytes(), person=b"metamargin-csv1").digest()
            np.savez(tmp_path / ".matrix.csv.npz", digest=np.frombuffer(digest, dtype=np.uint8),
                     values=np.zeros((2, 2)), b=np.float64(1.0), labels=np.array('["y=1|phi=a", "y=2|phi=a"]'))
        elif damage == "truncated":
            sidecar.write_bytes(good[:len(good) // 2])
        elif damage == "garbage":
            sidecar.write_bytes(b"not a zip file")
        elif damage in ("npy", "foreign"):
            with sidecar.open("wb") as handle:
                np.save(handle, np.zeros(3)) if damage == "npy" else np.savez(handle, x=np.ones(2))
        else:  # a well-formed sidecar for other bytes
            other = tmp_path / "other.csv"
            FunctionValueMatrix(values=np.zeros((1, 1)), b=1.0).to_csv(str(other))
            FunctionValueMatrix.from_csv(str(other))
            os.replace(tmp_path / ".other.csv.parsed", sidecar)
        assert same_matrix(FunctionValueMatrix.from_csv(str(path)), want)
        assert sidecar.read_bytes() == good
        assert same_matrix(read_without_parsing(str(path)), want)

    def test_a_hit_holds_the_values_and_two_blocks(self, tmp_path):
        path = str(tmp_path / "matrix.csv")
        WIDE_MATRIX.to_csv(path)
        assert os.path.getsize(path) >= 8 * _COMPARE_BLOCK
        FunctionValueMatrix.from_csv(path)
        tracemalloc.start()
        try:
            hit = read_without_parsing(path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert same_matrix(hit, WIDE_MATRIX)
        assert peak < WIDE_MATRIX.values.nbytes + 2 * _COMPARE_BLOCK + (64 << 10)

    def test_a_parse_holds_the_bytes_and_the_table_not_the_lines(self, tmp_path):
        path = str(tmp_path / "matrix.csv")
        WIDE_MATRIX.to_csv(path)
        tracemalloc.start()
        try:
            parsed = FunctionValueMatrix.from_csv(path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert same_matrix(parsed, WIDE_MATRIX)
        # the file's bytes (kept for the sidecar), np.loadtxt's table and the
        # values copied out of it; the body as a list of line strings would
        # be about the file's size again
        assert peak < os.path.getsize(path) + 2 * WIDE_MATRIX.values.nbytes + (1 << 20)

    def test_to_csv_holds_one_row_of_python_objects(self, tmp_path):
        tracemalloc.start()
        try:
            WIDE_MATRIX.to_csv(str(tmp_path / "matrix.csv"))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # per value of a row: its float, its repr, their list slots and its
        # share of the line, about 110 bytes; the whole matrix at once holds
        # the floats of every row, about 32 bytes per value of the matrix
        assert peak < 200 * WIDE_MATRIX.n_points + (64 << 10)

    @pytest.mark.parametrize("mode", [0o600, 0o644])
    def test_the_sidecar_is_as_readable_as_its_csv(self, tmp_path, mode):
        path = tmp_path / "matrix.csv"
        SIDECAR_MATRIX.to_csv(str(path))
        path.chmod(mode)
        FunctionValueMatrix.from_csv(str(path))
        assert (tmp_path / ".matrix.csv.parsed").stat().st_mode & 0o777 == mode

    @pytest.mark.parametrize("failing", ["tempfile.mkstemp", "os.writev", "os.replace"])
    def test_an_unwritable_directory_reads_alike(self, tmp_path, failing):
        path = tmp_path / "matrix.csv"
        SIDECAR_MATRIX.to_csv(str(path))
        with mock.patch(failing, side_effect=PermissionError(13, "read-only directory")):
            for _ in range(2):
                assert same_matrix(FunctionValueMatrix.from_csv(str(path)), SIDECAR_MATRIX)
        assert os.listdir(tmp_path) == ["matrix.csv"]  # no sidecar and no temp file left

    def test_a_miss_and_a_hit_leave_no_file_unclosed(self, tmp_path):
        # an unclosed file warns when it is collected, inside a finalizer,
        # so the error that filter makes of it reaches the unraisable hook
        path = str(tmp_path / "matrix.csv")
        SIDECAR_MATRIX.to_csv(path)
        unraisable = []
        with warnings.catch_warnings(), mock.patch.object(sys, "unraisablehook", unraisable.append):
            warnings.simplefilter("error", ResourceWarning)
            assert same_matrix(FunctionValueMatrix.from_csv(path), SIDECAR_MATRIX)
            assert same_matrix(read_without_parsing(path), SIDECAR_MATRIX)
            gc.collect()
        assert unraisable == []

    def test_labels_are_utf8_whatever_the_locale(self, tmp_path):
        label = "\u00e9,\U0001f642"  # an e-acute, a comma and an emoji
        path = tmp_path / "matrix.csv"
        FunctionValueMatrix(values=np.zeros((1, 1)), b=1.0, labels=(label,)).to_csv(str(path))
        assert path.read_bytes() == b'# b=1.0\n"' + label.encode("utf-8") + b'",0.0\r\n'
        # an ASCII locale reads the same label and writes the same bytes
        script = ("import sys, locale; from metamargin.complexity import FunctionValueMatrix as F; "
                  "assert locale.getpreferredencoding(False) != 'utf-8'; "
                  "A = F.from_csv(sys.argv[1]); A.to_csv(sys.argv[2]); print(ascii(A.labels))")
        env = {**os.environ, "LC_ALL": "C", "PYTHONUTF8": "0", "PYTHONCOERCECLOCALE": "0",
               "PYTHONPATH": os.pathsep.join(sys.path)}
        out = subprocess.run([sys.executable, "-c", script, str(path), str(tmp_path / "again.csv")],
                             env=env, capture_output=True, text=True, check=True).stdout
        assert out == ascii((label,)) + "\n"
        assert (tmp_path / "again.csv").read_bytes() == path.read_bytes()

    def test_a_fifo_is_read_once_and_keeps_no_sidecar(self, tmp_path):
        SIDECAR_MATRIX.to_csv(str(tmp_path / "source.csv"))
        fifo = tmp_path / "matrix.csv"
        os.mkfifo(fifo)
        writer = threading.Thread(target=fifo.write_bytes, args=((tmp_path / "source.csv").read_bytes(),),
                                  daemon=True)
        writer.start()
        faulthandler.dump_traceback_later(60, exit=True)  # a second open would block forever
        try:
            A = FunctionValueMatrix.from_csv(str(fifo))
        finally:
            faulthandler.cancel_dump_traceback_later()
        writer.join(timeout=60)
        assert not writer.is_alive()
        assert same_matrix(A, SIDECAR_MATRIX)
        assert not (tmp_path / ".matrix.csv.parsed").exists()


def chunked_reference(A, draws, seed, estimator, rows=None):
    """(mean, std_error) of ``estimator(A, draws, seed)`` written out: noise
    from default_rng(seed) in chunks of 2**23 // n_points draws, each chunk
    point-major and taken in one matmul, or, given ``rows``, multiplied
    ``rows`` points at a time with the products summed in order. Gaussian
    noise is drawn ``rows`` points at a time; a chunk of d draws takes its
    signs from bits 0 to 63 of each of its ceil(n_points * d / 64) raw words
    in turn, 1 -> +1."""
    vals = A.values
    n_pts = A.n_points
    chunk = min(draws, max(1, (1 << 23) // n_pts))
    rows = rows or n_pts
    rng = np.random.default_rng(seed)
    sups = []
    for done in range(0, draws, chunk):
        take = min(chunk, draws - done)
        if estimator is not gaussian_complexity_mc:
            words = rng.bit_generator.random_raw(-(-n_pts * take // 64))
            bits = (words[:, None] >> np.arange(64, dtype=np.uint64)) & np.uint64(1)
            signs = (bits.ravel()[:n_pts * take] * 2.0 - 1.0).reshape(n_pts, take)
        acc = 0.0
        for p0 in range(0, n_pts, rows):
            size = (min(p0 + rows, n_pts) - p0, take)
            if estimator is gaussian_complexity_mc:
                noise = rng.standard_normal(size=size)
            else:
                noise = signs[p0:p0 + rows]
            acc = acc + vals[:, p0:p0 + rows] @ noise
        sups.append(acc.max(axis=0))
    sups = np.concatenate(sups) * (2.0 / n_pts)
    return float(sups.mean()), float(sups.std(ddof=1) / math.sqrt(draws))


# Exact results: any change to the random stream, the chunk or slab
# shapes or the matmuls moves them. PINNED_WIDE has 5,000 columns, so
# 2,000 draws take two chunks, the second partial, and each chunk is
# filled in slabs of 156 points. Its matmuls sum their products in an
# order that depends on the BLAS thread count, so its results are
# compared with a reference that repeats the stream, the chunk and slab
# shapes and the matmuls; PINNED_EYE's are recorded.
PINNED_WIDE = FunctionValueMatrix(values=np.random.default_rng(2024).uniform(-1, 1, size=(6, 5000)), b=1.0)
PINNED_EYE = FunctionValueMatrix(values=np.eye(2), b=1.0)


@pytest.mark.parametrize("A, estimator, mean, std_error", [
    (PINNED_WIDE, gaussian_complexity_mc, None, None),
    (PINNED_WIDE, rademacher_complexity_mc, None, None),
    (PINNED_EYE, gaussian_complexity_mc, 0.5765288975077831, 0.018281878688140338),
    (PINNED_EYE, rademacher_complexity_mc, 0.506, 0.019291658405694957),
])
def test_monte_carlo_streams_are_pinned(A, estimator, mean, std_error):
    if A is PINNED_WIDE:
        mean, std_error = chunked_reference(PINNED_WIDE, 2000, 11, estimator, rows=156)
    est = estimator(A, 2000, 11)
    assert (est.mean, est.std_error, est.draws) == (mean, std_error, 2000)


def test_rademacher_pin_sees_the_bit_order():
    # At 2,000 draws PINNED_EYE's pin also holds if the signs of each byte
    # are unpacked in reverse order; at 2,001 that order reads 0.49925.
    est = rademacher_complexity_mc(PINNED_EYE, 2001, 11)
    assert (est.mean, est.std_error) == (0.5102448775612194, 0.019230836759259025)


def test_rademacher_stream_with_odd_chunks():
    # 5,001 columns give chunks of 1,677 and 323 draws, each an odd number
    # of signs, not a multiple of 64: each chunk drops the spare bits of its
    # last word, and the next chunk starts on a fresh word
    A = FunctionValueMatrix(values=np.random.default_rng(2025).uniform(-1, 1, size=(3, 5001)), b=1.0)
    est = rademacher_complexity_mc(A, 2000, 11)
    assert (est.mean, est.std_error) == chunked_reference(A, 2000, 11, rademacher_complexity_mc, rows=156)


def test_rademacher_slabs_start_at_every_bit_of_a_byte():
    # 4,000 columns give chunks of 2,097 and 403 draws and slabs of 125
    # points, so slab j of a chunk starts at bit 5j % 8, or 7j % 8, of a byte
    A = FunctionValueMatrix(values=np.random.default_rng(2026).uniform(-1, 1, size=(3, 4000)), b=1.0)
    est = rademacher_complexity_mc(A, 2500, 13)
    assert (est.mean, est.std_error) == chunked_reference(A, 2500, 13, rademacher_complexity_mc, rows=125)


MC_ESTIMATORS = [gaussian_complexity_mc, rademacher_complexity_mc]


@pytest.mark.parametrize("estimator", MC_ESTIMATORS)
@pytest.mark.parametrize("shape", [(40, 100), (320, 100)])
def test_one_slab_chunks_match_one_matmul_exactly(estimator, shape):
    # the shapes of a task restriction and of the benchmark's tall
    # matrix: each chunk fits in one slab, so its noise is one matmul
    A = FunctionValueMatrix(values=np.random.default_rng(5).uniform(-1, 1, size=shape), b=1.0)
    est = estimator(A, 2000, 3)
    assert (est.mean, est.std_error, est.draws) == (*chunked_reference(A, 2000, 3, estimator), 2000)


@pytest.mark.parametrize("estimator", MC_ESTIMATORS)
def test_multi_slab_chunks_match_one_matmul(estimator):
    # 5,003 points give chunks of 1,676 then 324 draws and slabs of 156
    # points, the last of 11
    A = FunctionValueMatrix(values=np.random.default_rng(6).uniform(-1, 1, size=(7, 5003)), b=1.0)
    est = estimator(A, 2000, 4)
    mean, std_error = chunked_reference(A, 2000, 4, estimator)
    assert est.draws == 2000
    assert est.mean == pytest.approx(mean, rel=1e-12)
    assert est.std_error == pytest.approx(std_error, rel=1e-12)


@pytest.mark.parametrize("estimator, draws", [
    *(pytest.param(estimator, 2000, id=estimator.__name__) for estimator in MC_ESTIMATORS),
    (gaussian_complexity_rowspace, 100_000),
])
def test_monte_carlo_memory_stays_within_one_noise_slab(estimator, draws):
    # one 2 MB slab and two 0.5 MB (functions, draws) partial sums, and for
    # signs a chunk's 1 MiB of raw words plus one slab's 0.25 MiB of unpacked
    # bits; a whole noise chunk would be about 67 MB.
    # In the row space a chunk's noise and sums share one slab, and 100,000
    # draws take 31 chunks and 0.8 MB of per-draw maxima
    A = FunctionValueMatrix(values=np.random.default_rng(3).uniform(-1, 1, size=(40, 5000)), b=1.0)
    tracemalloc.start()
    try:
        estimator(A, draws, 0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 9 << 19


class TestGaussianComplexity:
    def test_single_row_near_zero(self):
        A = FunctionValueMatrix(values=np.array([[0.4, -0.7, 0.1]]), b=1.0)
        est = gaussian_complexity_mc(A, 4000, 0)
        assert abs(est.mean) <= 4 * est.std_error

    def test_closed_form_two_basis_rows(self):
        # E max(g1, g2) = 1/sqrt(pi)
        A = FunctionValueMatrix(values=np.array([[1.0, 0.0], [0.0, 1.0]]), b=1.0)
        est = gaussian_complexity_mc(A, 100_000, 7)
        assert abs(est.mean - 1.0 / math.sqrt(math.pi)) <= 4 * est.std_error

    def test_positive_homogeneity_power_of_two_exact(self):
        rng = np.random.default_rng(3)
        A = rand_matrix(rng)
        scaled = FunctionValueMatrix(values=2.0 * A.values, b=2.0 * A.b)
        a = gaussian_complexity_mc(A, 500, 11)
        c = gaussian_complexity_mc(scaled, 500, 11)
        assert c.mean == 2.0 * a.mean

    def test_positive_homogeneity_general_scale(self):
        rng = np.random.default_rng(4)
        A = rand_matrix(rng)
        scale = 0.37
        scaled = FunctionValueMatrix(values=scale * A.values, b=A.b)
        a = gaussian_complexity_mc(A, 500, 11)
        c = gaussian_complexity_mc(scaled, 500, 11)
        assert c.mean == pytest.approx(scale * a.mean, rel=1e-12)

    def test_draws_validation(self):
        A = FunctionValueMatrix(values=np.ones((1, 1)), b=1.0)
        with pytest.raises(ValueError):
            gaussian_complexity_mc(A, 1, 0)


ROW_KINDS = st.sampled_from(["random", "zero", "duplicate", "collinear"])


@given(st.lists(ROW_KINDS, min_size=1, max_size=12), st.integers(1, 60), st.integers(0, 2**32 - 1))
@settings(deadline=None, max_examples=50, derandomize=True)
def test_rowspace_mean_matches_the_direct_path(kinds, extra_points, seed):
    # N < M rows, each random, zero, a copy of an earlier row or a scaled one
    rng = np.random.default_rng(seed)
    vals = rng.uniform(-1, 1, size=(len(kinds), len(kinds) + extra_points))
    for i, kind in enumerate(kinds):
        if kind == "zero" or (kind != "random" and i == 0):
            vals[i] = 0.0
        elif kind != "random":
            vals[i] = vals[rng.integers(i)] * (1.0 if kind == "duplicate" else rng.uniform(-1, 1))
    A = FunctionValueMatrix(values=vals, b=1.0)
    row, direct = gaussian_complexity_rowspace(A, 2000, seed), gaussian_complexity_mc(A, 2000, seed)
    assert row.draws == 2000
    assert abs(row.mean - direct.mean) <= 4.0 * math.hypot(row.std_error, direct.std_error)


def test_rowspace_closed_form_two_basis_rows():
    # E max(g1, g2) = 1/sqrt(pi), scaled by 2/M at M = 3 points
    A = FunctionValueMatrix(values=np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]), b=1.0)
    est = gaussian_complexity_rowspace(A, 100_000, 7)
    assert abs(est.mean - 2.0 / 3.0 / math.sqrt(math.pi)) <= 4 * est.std_error


@pytest.mark.parametrize("shape", [(1, 1), (3, 2), (40, 40), (320, 100)])
def test_rowspace_is_the_direct_path_when_points_do_not_outnumber_rows(shape):
    A = FunctionValueMatrix(values=np.random.default_rng(8).uniform(-1, 1, size=shape), b=1.0)
    assert gaussian_complexity_rowspace(A, 500, 9) == gaussian_complexity_mc(A, 500, 9)


@pytest.mark.parametrize("shape", [(2, 5), (5, 2)])
@pytest.mark.parametrize("draws", [1, 0, -3])
def test_rowspace_needs_two_draws(shape, draws):
    A = FunctionValueMatrix(values=np.ones(shape), b=1.0)
    with pytest.raises(ValueError, match="draws must be >= 2"):
        gaussian_complexity_rowspace(A, draws, 0)


class TestRademacherComplexity:
    def test_positive_homogeneity_power_of_two_exact(self):
        rng = np.random.default_rng(13)
        A = rand_matrix(rng)
        scaled = FunctionValueMatrix(values=2.0 * A.values, b=2.0 * A.b)
        assert (rademacher_complexity_mc(scaled, 500, 11).mean
                == 2.0 * rademacher_complexity_mc(A, 500, 11).mean)

    def test_single_row_near_zero(self):
        A = FunctionValueMatrix(values=np.array([[0.4, -0.7, 0.1]]), b=1.0)
        est = rademacher_complexity_mc(A, 4000, 0)
        assert abs(est.mean) <= 4 * est.std_error

    def test_exhaustive_oracle_two_basis_rows(self):
        A = FunctionValueMatrix(values=np.array([[1.0, 0.0], [0.0, 1.0]]), b=1.0)
        exact = exhaustive_rademacher(A)
        assert exact == pytest.approx(0.5)
        est = rademacher_complexity_mc(A, 50_000, 5)
        assert abs(est.mean - exact) <= 4 * est.std_error

    def test_exhaustive_oracle_random_small(self):
        rng = np.random.default_rng(8)
        for seed in range(3):
            A = FunctionValueMatrix(values=rng.uniform(-1, 1, size=(4, 6)), b=1.0)
            exact = exhaustive_rademacher(A)
            est = rademacher_complexity_mc(A, 30_000, seed)
            assert abs(est.mean - exact) <= 4 * est.std_error

    def test_gaussian_dominates_scaled_rademacher(self):
        rng = np.random.default_rng(12)
        fails = 0
        for seed in range(20):
            A = rand_matrix(rng)
            g = gaussian_complexity_mc(A, 2000, seed)
            r = rademacher_complexity_mc(A, 2000, seed + 1000)
            se = math.hypot(g.std_error, r.std_error)
            if g.mean < math.sqrt(2 / math.pi) * r.mean - 4 * se:
                fails += 1
        assert fails == 0


class TestMassart:
    def test_single_row_zero(self):
        A = FunctionValueMatrix(values=np.array([[0.3, -0.3]]), b=1.0)
        assert massart_bound(A) == 0.0

    def test_hand_value_two_basis_rows(self):
        # sqrt(0.5) * 2 sqrt(2 ln 2) / 2 = sqrt(ln 2)
        A = FunctionValueMatrix(values=np.array([[1.0, 0.0], [0.0, 1.0]]), b=1.0)
        assert massart_bound(A) == pytest.approx(math.sqrt(math.log(2.0)), abs=1e-12)

    def test_dominates_mc_estimate(self):
        rng = np.random.default_rng(21)
        for seed in range(20):
            A = rand_matrix(rng)
            est = gaussian_complexity_mc(A, 2000, seed)
            assert massart_bound(A) >= est.mean - 4 * est.std_error


class TestGreedyCover:
    def test_eps_above_diameter(self):
        rng = np.random.default_rng(0)
        A = rand_matrix(rng)
        _, size = greedy_epsilon_cover(A, 10.0 * A.b)
        assert size == 1

    def test_three_points_on_line(self):
        A = FunctionValueMatrix(values=np.array([[0.0], [1.0], [2.0]]), b=2.0)
        centers, size = greedy_epsilon_cover(A, 1.0)
        assert size == 2 and centers == [0, 2]
        assert brute_force_min_cover(A, 1.0) == 1  # center row 1 covers both ends

    def test_greedy_upper_bounds_minimum(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            A = FunctionValueMatrix(values=rng.uniform(-1, 1, size=(7, 3)), b=1.0)
            eps = float(rng.uniform(0.2, 1.5))
            _, size = greedy_epsilon_cover(A, eps)
            assert size >= brute_force_min_cover(A, eps)

    def test_size_monotone_in_eps(self):
        rng = np.random.default_rng(6)
        A = rand_matrix(rng)
        sizes = [greedy_epsilon_cover(A, eps)[1] for eps in np.linspace(0.05, 2.5, 15)]
        assert all(a >= b for a, b in zip(sizes, sizes[1:]))

    def test_every_row_within_eps_of_a_center(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            A = rand_matrix(rng)
            eps = float(rng.uniform(0.1, 1.0))
            centers, _ = greedy_epsilon_cover(A, eps)
            d = np.sqrt(((A.values[:, None, :] - A.values[None, centers, :]) ** 2).mean(axis=2))
            assert np.all(d.min(axis=1) <= eps + 1e-12)

    def test_eps_validation(self):
        A = FunctionValueMatrix(values=np.ones((1, 1)), b=1.0)
        with pytest.raises(ValueError):
            greedy_epsilon_cover(A, 0.0)


def loop_cover(d2, eps):
    """Reference first-fit cover: row i opens a center when every earlier
    center c has d2[i, c] > eps^2."""
    centers = []
    for i in range(d2.shape[0]):
        if not centers or min(d2[i, c] for c in centers) > eps * eps:
            centers.append(i)
    return centers


def kind_sq_dists(kind, n, rng):
    """An (n, n) squared-distance matrix: of random rows, arbitrary and
    asymmetric, or integer-valued so that scale 1 ties exactly."""
    if kind == "rows":
        return _normalized_sq_dists(rng.uniform(-1, 1, size=(n, int(rng.integers(1, 6)))))
    if kind == "asymmetric":
        return rng.uniform(0.0, 4.0, size=(n, n))
    return rng.integers(0, 3, size=(n, n)).astype(np.float64)


@given(st.integers(1, 40), st.sampled_from(["rows", "asymmetric", "ties"]),
       st.floats(0.05, 2.0), st.integers(0, 2**32 - 1))
@settings(deadline=None)
def test_vectorized_cover_matches_loop(n, kind, eps, seed):
    d2 = kind_sq_dists(kind, n, np.random.default_rng(seed))
    if kind == "ties":  # integer distances at eps = 1 put rows exactly on the boundary
        eps = 1.0
    assert _greedy_covers(d2, np.array([eps]))[0] == loop_cover(d2, eps)


# scales in any order, with repeats, zero, a subnormal and the tie scale 1
SCALES = st.lists(st.one_of(st.sampled_from([0.0, 5e-324, 1.0]), st.floats(0.05, 2.0)),
                  min_size=1, max_size=16)


@given(st.integers(1, 40), st.sampled_from(["rows", "asymmetric", "ties"]), SCALES,
       st.integers(0, 2**32 - 1))
@settings(deadline=None)
def test_covers_at_many_scales_match_loop(n, kind, scales, seed):
    d2 = kind_sq_dists(kind, n, np.random.default_rng(seed))
    assert _greedy_covers(d2, scales) == [loop_cover(d2, s) for s in scales]


def loop_entropy(A, levels):
    """Reference chaining sum: one loop_cover per level, added in level order."""
    vals = A.values
    L = float(np.sqrt(np.einsum("ij,ij->i", vals, vals) / vals.shape[1]).max())
    d2 = _normalized_sq_dists(vals)
    total = 0.0
    for i in range(1, levels + 1):
        alpha = L * 2.0 ** (-i)
        size = len(loop_cover(d2, alpha))
        if size > 1:
            total += (alpha / 2.0) * math.sqrt(math.log(size))
    return total


class TestEntropyIntegral:
    @pytest.mark.parametrize("levels", [1, 12, 1200])  # at 1200, L * 2^-i underflows to 0
    def test_equals_loop_reference(self, levels):
        rng = np.random.default_rng(34)
        rows = rng.uniform(-1, 1, size=(8, 3))
        dup = FunctionValueMatrix(values=rows[[0, 1, 2, 1, 3, 0, 4, 5, 6, 7, 7, 2]], b=1.0)
        one = FunctionValueMatrix(values=rows[:1], b=1.0)
        for A in (dup, one):
            assert entropy_integral(A, levels) == loop_entropy(A, levels)

    def test_zero_matrix_is_zero(self):
        value = entropy_integral(FunctionValueMatrix(values=np.zeros((4, 3)), b=1.0), 12)
        assert value == 0.0 and type(value) is float

    def test_levels_must_be_an_integer(self):
        A = FunctionValueMatrix(values=np.eye(3), b=1.0)
        with pytest.raises(TypeError):
            entropy_integral(A, 2.5)
        with pytest.raises(ValueError):
            entropy_integral(A, 0)

    def test_levels_past_1074_add_nothing(self):
        # 2.0 ** -i rounds to 0.0 for i >= 1075, so a level past 1074 adds
        # +0.0; a duplicated row makes the covers scan every scale
        rows = np.random.default_rng(36).uniform(-1, 1, size=(319, 100))
        A = FunctionValueMatrix(values=np.vstack([rows, rows[:1]]), b=1.0)
        values = [entropy_integral(A, levels).hex() for levels in (1074, 1200, 2000, 10 ** 400)]
        assert values == values[:1] * 4

    def test_memory_does_not_grow_with_levels(self):
        A = FunctionValueMatrix(values=np.random.default_rng(35).uniform(-1, 1, size=(200, 10)), b=1.0)

        def peak(levels):
            tracemalloc.start()
            try:
                entropy_integral(A, levels)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert peak(5000) <= peak(12) + (1 << 20)


class TestDudley:
    def test_single_row_zero(self):
        A = FunctionValueMatrix(values=np.array([[0.5, -0.5]]), b=1.0)
        assert dudley_bound(A, 12) == 0.0

    def test_dominates_mc_estimate(self):
        rng = np.random.default_rng(31)
        for seed in range(20):
            A = rand_matrix(rng)
            est = gaussian_complexity_mc(A, 2000, seed)
            assert dudley_bound(A, 12) >= est.mean - 4 * est.std_error

    def test_nondecreasing_in_levels(self):
        rng = np.random.default_rng(32)
        A = rand_matrix(rng)
        vals = [dudley_bound(A, j) for j in range(1, 16)]
        assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))

    def test_consistent_with_entropy_integral(self):
        rng = np.random.default_rng(33)
        A = rand_matrix(rng)
        assert dudley_bound(A, 12) == pytest.approx(
            24.0 / math.sqrt(A.n_points) * entropy_integral(A, 12))


class TestGaussianContraction:
    def test_ramp_composition_contracts(self):
        rng = np.random.default_rng(41)
        for seed in range(10):
            A = rand_matrix(rng, b=1.0)
            for rho in (0.5, 1.0, 2.0):
                transformed = FunctionValueMatrix(
                    values=margin_loss_array(rho, A.values), b=1.0)
                left = gaussian_complexity_mc(transformed, 2000, seed)
                right = gaussian_complexity_mc(A, 2000, seed + 500)
                se = math.hypot(left.std_error, right.std_error / rho)
                assert left.mean <= right.mean / rho + 4 * se


def test_sign_times_gaussian_is_gaussian():
    # Kolmogorov-Smirnov check at significance 0.001 on 1e5 draws
    rng = np.random.default_rng(55)
    sigma = rng.integers(0, 2, size=100_000) * 2.0 - 1.0
    gamma = rng.standard_normal(100_000)
    result = scipy.stats.kstest(sigma * gamma, "norm")
    assert result.pvalue >= 0.001
