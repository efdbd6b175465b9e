"""The dataset cache: a hit returns a parse's arrays bit for bit, and no cache fault
reaches a load."""

import os
import shutil
import stat
import subprocess
import sys
import threading
import warnings

import numpy as np
import pytest

from restartopt import DatasetFormatError, datacache, load_dataset, problems


def write_exact(path, text):
    with open(path, "w", newline="") as fh:
        fh.write(text)
    return str(path)


def entry_of(path, fmt="csv", dimension=None):
    with open(path, "rb") as fh:
        name = datacache.key(fmt, dimension, fh)
    return os.path.join(datacache.directory(), name + ".npy")


def stored():
    root = datacache.directory()
    return sorted(os.listdir(root)) if os.path.isdir(root) else []


def forbid_parsing(monkeypatch):
    """Make every parser fail, so that a load that succeeds was a cache hit."""

    def fail(*args):
        raise AssertionError("a cache hit parsed the file")

    for name in ("_read_csv_fast", "_parse_csv_lines", "_load_libsvm"):
        monkeypatch.setattr(problems, name, fail)


ROUND_TRIP = "\n".join(
    ",".join(format(v, ".17g") for v in row)
    for row in np.random.default_rng(3).standard_normal((30, 6)) * 1e3
) + "\n"

# (format, dimension, text, expected X or None); None is left to the parser.
CASES = {
    "numpy_reader": ("csv", None, ROUND_TRIP, None),
    "line_parser": ("csv", None, "1_000,2,3\n   \n4,5,0\n", [[1000, 2], [4, 5]]),
    "crlf": ("csv", None, "1,2,3\r\n4,5,6\r\n", [[1, 2], [4, 5]]),
    "lone_cr": ("csv", None, "1,2,3\r4,5,6\r", [[1, 2], [4, 5]]),
    "libsvm": ("libsvm", None, "1 1:0.5 3:2\n0 2:1e-300\n", [[0.5, 0, 2], [0, 1e-300, 0]]),
    "libsvm_dimension_crlf": ("libsvm", 4, "1 1:0.5 3:2\r\n0 2:-7\r\n",
                              [[0.5, 0, 2, 0], [0, -7, 0, 0]]),
    "libsvm_lone_cr": ("libsvm", None, "1 1:0.5\r-1 2:3\r", [[0.5, 0], [0, 3]]),
}


class TestHit:
    @pytest.mark.parametrize("name", sorted(CASES))
    def test_hit_is_bitwise_equal_to_the_parse(self, tmp_path, monkeypatch, name):
        fmt, dimension, text, expected = CASES[name]
        path = write_exact(tmp_path / f"{name}.data", text)
        X, y = load_dataset(path, fmt=fmt, dimension=dimension)
        if expected is not None:
            assert np.array_equal(X, expected)
        assert stored() == [os.path.basename(entry_of(path, fmt, dimension))]
        forbid_parsing(monkeypatch)
        X_hit, y_hit = load_dataset(path, fmt=fmt, dimension=dimension)
        for parsed, hit in ((X, X_hit), (y, y_hit)):
            assert hit.shape == parsed.shape and hit.strides == parsed.strides
            assert hit.dtype == parsed.dtype
            assert hit.tobytes() == parsed.tobytes()

    def test_numpy_reader_entry_holds_the_line_parsers_array(self, tmp_path):
        path = write_exact(tmp_path / "d.csv", ROUND_TRIP)
        load_dataset(path)
        with open(path, "rb") as fh:
            reference = problems._parse_csv_lines(path, fh)
        assert np.load(entry_of(path)).tobytes() == reference.tobytes()

    def test_same_bytes_under_another_name_hit(self, tmp_path, monkeypatch):
        path = write_exact(tmp_path / "a.csv", ROUND_TRIP)
        X, _ = load_dataset(path)
        copy = str(tmp_path / "b.csv")
        shutil.copyfile(path, copy)
        forbid_parsing(monkeypatch)
        assert load_dataset(copy)[0].tobytes() == X.tobytes()

    def test_key_covers_format_and_dimension(self, tmp_path):
        path = write_exact(tmp_path / "d.svm", "1 1:2\n-1 2:3\n")
        X2, _ = load_dataset(path, fmt="libsvm")
        X3, _ = load_dataset(path, fmt="libsvm", dimension=3)
        assert X2.shape == (2, 2) and X3.shape == (2, 3)
        assert len(stored()) == 2

    def test_same_size_edit_with_restored_mtime_is_parsed_again(self, tmp_path):
        path = write_exact(tmp_path / "d.csv", "1,2,3\n4,5,6\n")
        before = os.stat(path)
        assert np.array_equal(load_dataset(path)[0], [[1, 2], [4, 5]])
        write_exact(path, "1,2,3\n4,7,6\n")
        os.utime(path, ns=(before.st_atime_ns, before.st_mtime_ns))
        after = os.stat(path)
        assert (after.st_size, after.st_mtime_ns) == (before.st_size, before.st_mtime_ns)
        assert np.array_equal(load_dataset(path)[0], [[1, 2], [4, 7]])
        assert len(stored()) == 2

    def test_file_changed_after_the_lookup_is_stored_under_the_parsed_bytes(
        self, tmp_path, monkeypatch
    ):
        path = write_exact(tmp_path / "d.csv", "1,2,3\n")
        load_dataset(write_exact(tmp_path / "same-size.csv", "7,8,9\n"))
        lookup = datacache.lookup

        def look_up_then_edit(*args):
            data = lookup(*args)
            write_exact(path, "4,5,6\n")
            return data

        monkeypatch.setattr(datacache, "lookup", look_up_then_edit)
        assert np.array_equal(load_dataset(path)[0], [[4, 5]])
        assert os.path.basename(entry_of(path)) in stored()
        assert len(stored()) == 2

    def test_file_of_a_new_size_is_read_once(self, tmp_path, monkeypatch):
        path = write_exact(tmp_path / "d.csv", "1,2,3\n")
        load_dataset(write_exact(tmp_path / "longer.csv", "1,2,3\n4,5,6\n"))
        entry = entry_of(path)

        def fail(*args):
            raise AssertionError("a lookup hashed a file of a size no entry has")

        monkeypatch.setattr(datacache, "key", fail)
        assert np.array_equal(load_dataset(path)[0], [[1, 2]])
        assert os.path.basename(entry) in stored()

    def test_reader_keys_the_bytes_of_its_last_pass(self, tmp_path):
        path = write_exact(tmp_path / "d.csv", "1,2,3\n4,5,6\n")
        with open(path, "rb") as fh:
            reader = datacache.Reader("csv", None, fh)
            assert reader.read(4) == b"1,2,"
            reader.seek(0)
            assert reader.read1(64) + reader.read() == b"1,2,3\n4,5,6\n"
            assert os.path.basename(entry_of(path)) == reader.key() + ".npy"
            with pytest.raises(OSError):
                reader.seek(2)

    def test_directory_has_mode_0700(self, tmp_path):
        load_dataset(write_exact(tmp_path / "d.csv", "1,2\n"))
        assert stat.S_IMODE(os.stat(datacache.directory()).st_mode) == 0o700


def fifo(path, data):
    """A named pipe at ``path`` that one reader can read ``data`` from, once."""
    os.mkfifo(path)

    def write():
        with open(path, "wb") as fh:
            fh.write(data)

    threading.Thread(target=write, daemon=True).start()
    return str(path)


class TestPipe:
    @pytest.mark.parametrize("name", ["numpy_reader", "line_parser", "libsvm"])
    def test_pipe_loads_cold_and_warm(self, tmp_path, monkeypatch, name):
        fmt, dimension, text, _ = CASES[name]
        data = text.encode()
        X, y = load_dataset(fifo(tmp_path / "cold", data), fmt=fmt, dimension=dimension)
        regular = write_exact(tmp_path / "regular", text)
        assert stored() == [os.path.basename(entry_of(regular, fmt, dimension))]
        forbid_parsing(monkeypatch)
        for path in (fifo(tmp_path / "warm", data), regular):
            X_hit, y_hit = load_dataset(path, fmt=fmt, dimension=dimension)
            assert X_hit.tobytes() == X.tobytes() and y_hit.tobytes() == y.tobytes()


def truncate(entry):
    with open(entry, "rb") as fh:
        data = fh.read()
    with open(entry, "wb") as fh:
        fh.write(data[:-8])


def overwrite(content):
    def damage(entry):
        with open(entry, "wb") as fh:
            fh.write(content)
    return damage


def resave(change):
    def damage(entry):
        np.save(entry, change(np.load(entry)), allow_pickle=True)
    return damage


def huge_header(entry):
    with open(entry, "wb") as fh:
        np.lib.format.write_array_header_1_0(
            fh, {"descr": "<f8", "fortran_order": False, "shape": (10**12, 3)})


def set_nan(data):
    data = data.copy()
    data[0, 0] = np.nan
    return data


DAMAGE = {
    "truncated": truncate,
    "empty": overwrite(b""),
    "garbage": overwrite(b"not an array\n" * 20),
    "zip": overwrite(b"PK\x03\x04" + b"\0" * 60),
    "huge_header": huge_header,
    "float32": resave(lambda d: d.astype(np.float32)),
    "big_endian": resave(lambda d: d.astype(">f8")),
    "fortran_order": resave(np.asfortranarray),
    "one_dimensional": resave(np.ravel),
    "no_rows": resave(lambda d: d[:0]),
    "one_column": resave(lambda d: d[:, :1]),
    "non_finite": resave(set_nan),
    "pickled": resave(lambda d: d.astype(object)),
}


class TestDamagedEntry:
    @pytest.mark.parametrize("name", sorted(DAMAGE))
    def test_is_parsed_again_and_rewritten(self, tmp_path, name):
        path = write_exact(tmp_path / "d.csv", ROUND_TRIP)
        X, y = load_dataset(path)
        entry = entry_of(path)
        with open(entry, "rb") as fh:
            good = fh.read()
        DAMAGE[name](entry)
        with open(entry, "rb") as fh:
            assert fh.read() != good
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            X_again, y_again = load_dataset(path)
        assert X_again.tobytes() == X.tobytes() and y_again.tobytes() == y.tobytes()
        with open(entry, "rb") as fh:
            assert fh.read() == good
        assert stored() == [os.path.basename(entry)]


class TestCacheFaults:
    def test_unwritable_cache_still_loads_without_warning(self, tmp_path, monkeypatch):
        blocker = tmp_path / "not-a-directory"
        blocker.write_text("")
        monkeypatch.setenv("XDG_CACHE_HOME", str(blocker))
        path = write_exact(tmp_path / "d.csv", "1,2,3\n4,5,6\n")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            for _ in range(2):
                X, _ = load_dataset(path)
                assert np.array_equal(X, [[1, 2], [4, 5]])
        assert caught == []
        assert blocker.read_text() == ""

    def test_relative_cache_home_falls_back_to_home(self, tmp_path, monkeypatch):
        monkeypatch.setenv("XDG_CACHE_HOME", "relative/cache")
        monkeypatch.setenv("HOME", str(tmp_path))
        assert datacache.directory() == os.path.join(str(tmp_path), ".cache", "restartopt")

    @pytest.mark.parametrize(
        "fmt, text, message",
        [
            ("csv", "1,2,3\n3,oops,-1\n", r"bad\.data:2: could not convert"),
            ("csv", "1,2,3\n4,5\n", r"bad\.data:2: expected 3 columns, got 2"),
            ("csv", "1,2,3\n4,5,inf\n", r"bad\.data:2: non-finite value inf in column 3"),
            ("libsvm", "1 1:2\n1 2:1 2:3\n", r"bad\.data:2: indices must be strictly increasing"),
        ],
    )
    def test_malformed_file_raises_the_parsers_error_and_stores_nothing(
        self, tmp_path, fmt, text, message
    ):
        path = write_exact(tmp_path / "bad.data", text)
        for _ in range(2):
            with pytest.raises(DatasetFormatError, match=message):
                load_dataset(path, fmt=fmt)
        assert stored() == []

    def test_failed_write_leaves_no_temporary_file(self, tmp_path, monkeypatch):
        def fail(*args, **kwargs):
            raise OSError("disk full")

        monkeypatch.setattr(datacache.os, "replace", fail)
        X, _ = load_dataset(write_exact(tmp_path / "d.csv", "1,2,3\n"))
        assert np.array_equal(X, [[1, 2]])
        assert stored() == []


class TestEviction:
    def test_least_recently_used_entries_go_first(self, tmp_path, monkeypatch):
        paths = [write_exact(tmp_path / f"d{i}.csv", f"{i},1,2\n") for i in range(3)]
        entries = [entry_of(p) for p in paths]
        load_dataset(paths[0])
        monkeypatch.setattr(datacache, "MAX_BYTES", 2 * os.path.getsize(entries[0]))
        load_dataset(paths[1])
        assert stored() == sorted(os.path.basename(e) for e in entries[:2])
        # file times are coarser than these steps: order the two entries by hand
        os.utime(entries[0], ns=(0, 1_000_000_000))
        os.utime(entries[1], ns=(0, 2_000_000_000))
        load_dataset(paths[0])  # a hit marks d0 as used
        load_dataset(paths[2])  # the third entry evicts d1
        assert stored() == sorted(os.path.basename(e) for e in (entries[0], entries[2]))

    def test_oversized_array_is_not_stored(self, tmp_path, monkeypatch):
        monkeypatch.setattr(datacache, "MAX_BYTES", 8)
        X, _ = load_dataset(write_exact(tmp_path / "d.csv", "1,2,3\n"))
        assert np.array_equal(X, [[1, 2]])
        assert stored() == []


def test_generated_problems_do_not_load_the_cache():
    code = ("import sys; from restartopt import cli; "
            "cli.build_instance({'problem': 'lasso', 'rows': 20, 'cols': 5}); "
            "sys.exit('restartopt.datacache' in sys.modules)")
    assert subprocess.run([sys.executable, "-c", code], timeout=60).returncode == 0
