"""The on-disk store of the SOE operator tables (hilferbvp.tablestore) and
its use beneath fracops._cached_soe_operator."""

import errno
import mmap
import os
import platform
import shutil
import subprocess
import sys
import zlib
from types import SimpleNamespace

import numpy as np
import pytest

from helpers import child_env, minor_faults
from hilferbvp import core, fracops, tablestore
from hilferbvp.cli import main
from hilferbvp.core import GradedMesh
from hilferbvp.errors import MeshTooLarge

# The builders, kept before any test patches their module globals.
BUILD, BUILD_MODES = fracops._soe_operator, fracops._soe_modes


def _fresh_process():
    """Drop every SOE operator and shared table set held in memory, as in a
    new process; the table store stays."""
    fracops._cached_soe_operator.cache_clear()
    fracops._soe_mesh_modes.clear()


@pytest.fixture(autouse=True)
def empty_caches():
    _fresh_process()
    yield
    _fresh_process()


@pytest.fixture
def builds(monkeypatch):
    """The orders of the SOE operators built, with None for each set of
    shared tables built."""
    built = []
    operator, modes = fracops._soe_operator, fracops._soe_modes

    def counting_operator(nodes, order, *shared):
        built.append(order)
        return operator(nodes, order, *shared)

    def counting_modes(nodes):
        built.append(None)
        return modes(nodes)

    monkeypatch.setattr(fracops, "_soe_operator", counting_operator)
    monkeypatch.setattr(fracops, "_soe_modes", counting_modes)
    return built


def _forbidden(*args):
    raise AssertionError("an SOE table set was built")


def _assert_same_operator(op, nodes, order):
    """op holds the tables of a fresh build bit for bit, read-only, and
    applies as it does."""
    ref = BUILD(nodes, order, BUILD_MODES(nodes))
    assert op.n == ref.n and op.modes.tiers == ref.modes.tiers
    ours, theirs = op.tables() + op.modes.tables(), ref.tables() + ref.modes.tables()
    assert len(ours) == len(theirs)
    for a, b in zip(ours, theirs):
        assert a.shape == b.shape and a.dtype == b.dtype
        assert a.tobytes() == b.tobytes()
        assert not a.flags.writeable
    g = np.sin(7.0 * nodes) + nodes ** 0.3
    stack = np.vstack([g, g ** 2, np.cos(g)])
    for samples in (g, stack):
        assert op.apply(samples).tobytes() == ref.apply(samples).tobytes()


def _entries(store):
    return sorted(store.glob("*.tab"))


class TestHits:
    # One block and no history; two blocks; several tiers; a steep mesh.
    @pytest.mark.parametrize("n, r", [(16, 2.0), (100, 1.0), (1025, 8.0), (4096, 8.0 / 3.0),
                                      (4096, 40.0)])
    def test_hit_loads_without_building(self, n, r, table_store, monkeypatch):
        fracops._cached_soe_operator(n, r, 0.3)
        assert len(_entries(table_store)) == 2          # shared tables and order 0.3
        _fresh_process()
        monkeypatch.setattr(fracops, "_soe_operator", _forbidden)
        monkeypatch.setattr(fracops, "_soe_modes", _forbidden)
        op = fracops._cached_soe_operator(n, r, 0.3)
        _assert_same_operator(op, GradedMesh(n, r).nodes, 0.3)

    def test_second_order_reuses_stored_modes(self, table_store, builds):
        n, r = 1025, 8.0 / 3.0
        fracops._cached_soe_operator(n, r, 0.5)
        assert builds == [0.5, None]
        _fresh_process()
        op = fracops._cached_soe_operator(n, r, 0.25)
        # Only the new order's own tables are built, on the stored modes.
        assert builds == [0.5, None, 0.25]
        assert len(_entries(table_store)) == 3
        _assert_same_operator(op, GradedMesh(n, r).nodes, 0.25)
        _fresh_process()
        ops = [fracops._cached_soe_operator(n, r, order) for order in (0.25, 0.5)]
        assert builds == [0.5, None, 0.25]
        assert ops[0].modes is ops[1].modes

    def test_keyed_by_mesh_and_order_bits(self, table_store, builds):
        # A neighbouring order, another grading and another n miss.
        fracops._cached_soe_operator(256, 2.0, 0.5)
        fracops._cached_soe_operator(256, 2.0, np.nextafter(0.5, 1.0))
        fracops._cached_soe_operator(256, 2.5, 0.5)
        fracops._cached_soe_operator(257, 2.0, 0.5)
        assert builds == [0.5, None, np.nextafter(0.5, 1.0), 0.5, None, 0.5, None]
        assert len(_entries(table_store)) == 7

    def test_meshes_with_one_node_crc32_told_apart(self, table_store, monkeypatch, builds):
        # Two gradings whose node bytes had the same crc32 still miss apart;
        # neighbouring ones, whose tables have the same shapes.
        monkeypatch.setattr(fracops, "zlib", SimpleNamespace(
            crc32=lambda data, value=0: 0, adler32=zlib.adler32))
        for r in (2.0, np.nextafter(2.0, 3.0)):
            _fresh_process()
            _assert_same_operator(fracops._cached_soe_operator(256, r, 0.5),
                                  GradedMesh(256, r).nodes, 0.5)
        assert builds == [0.5, None, 0.5, None]

    def test_hit_whose_mtime_cannot_be_refreshed(self, table_store, monkeypatch, builds):
        # Say, another user's entry in a shared store: still a hit.
        fracops._cached_soe_operator(256, 2.0, 0.5)
        _fresh_process()

        def refused(*args, **kwargs):
            raise PermissionError("not the owner")

        monkeypatch.setattr(tablestore.os, "utime", refused)
        _assert_same_operator(fracops._cached_soe_operator(256, 2.0, 0.5),
                              GradedMesh(256, 2.0).nodes, 0.5)
        assert builds == [0.5, None]

    def test_keyed_by_environment(self, table_store, monkeypatch, builds):
        # Tables stored under other BLAS kernels, CPU features or versions
        # are not read.
        fracops._cached_soe_operator(256, 2.0, 0.5)
        monkeypatch.setattr(tablestore, "_environment", lambda: "another machine")
        _fresh_process()
        _assert_same_operator(fracops._cached_soe_operator(256, 2.0, 0.5),
                              GradedMesh(256, 2.0).nodes, 0.5)
        assert builds == [0.5, None, 0.5, None]
        assert len(_entries(table_store)) == 4


@pytest.fixture
def stored_keys(monkeypatch):
    """The (key, shapes) of each table set that fracops looks up."""
    keys = []
    load = tablestore.load

    def recording(key, shapes):
        keys.append((key, shapes))
        return load(key, shapes)

    monkeypatch.setattr(tablestore, "load", recording)
    return keys


def _mapping(array):
    """The object at the end of an array's chain of bases."""
    while isinstance(array, np.ndarray):
        array = array.base
    return array


class TestMappedHits:
    # Keys of every length mod 64, so every amount of padding; shapes with
    # an empty array and odd sizes, so later arrays start off 64 bytes.
    @pytest.mark.parametrize("pad", range(0, 64, 7))
    def test_data_aligned_and_arrays_read_only_views_of_the_map(self, pad, table_store):
        key = "k" * pad
        stored = [np.arange(3.0), np.zeros((0, 5)), np.full((7, 3), -1.5), np.ones((2, 1, 3))]
        tablestore.save(key, stored)
        path, = _entries(table_store)
        data = sum(a.nbytes for a in stored)
        assert path.read_bytes()[:8] == b"HBVPTAB2"
        assert (path.stat().st_size - data) % 64 == 0
        loaded = tablestore.load(key, [a.shape for a in stored])
        assert loaded[0].ctypes.data % 64 == 0
        for ours, theirs in zip(loaded, stored):
            assert ours.shape == theirs.shape and ours.tobytes() == theirs.tobytes()
            assert not ours.flags.writeable and ours.flags.c_contiguous
            assert ours.flags.aligned and ours.ctypes.data % 8 == 0
            # No private copy: every array reads the map itself.
            assert isinstance(_mapping(ours), mmap.mmap)
            assert _mapping(ours) is _mapping(loaded[0])
        with pytest.raises(ValueError, match="read-only"):
            loaded[0][0] = 1.0

    @pytest.mark.parametrize("how", ["unlinked", "replaced", "store removed"])
    def test_loaded_tables_outlive_their_entry(self, how, table_store, stored_keys, builds):
        n, r = 1025, 8.0 / 3.0
        nodes = GradedMesh(n, r).nodes
        fracops._cached_soe_operator(n, r, 0.5)
        _fresh_process()
        op = fracops._cached_soe_operator(n, r, 0.5)
        assert builds == [0.5, None]
        assert isinstance(_mapping(op.tables()[0]), mmap.mmap)
        if how == "unlinked":
            for path in _entries(table_store):
                path.unlink()
        elif how == "replaced":
            # A writer renames a new entry over each mapped one.
            for key, shapes in list(stored_keys):
                tablestore.save(key, [np.full(shape, 7.0) for shape in shapes])
                assert tablestore.load(key, shapes)[0].flat[0] == 7.0
        else:
            shutil.rmtree(table_store)
        _assert_same_operator(op, nodes, 0.5)

    @pytest.mark.parametrize("rewrite", ["magic", "layout"])
    def test_format_1_entry_is_a_miss(self, rewrite, table_store, stored_keys, builds):
        # An entry of the format before the map, HBVPTAB1, at the file a
        # lookup opens: its magic alone, or its whole unpadded layout.
        n, r = 256, 2.0
        fracops._cached_soe_operator(n, r, 0.5)
        for key, shapes in list(stored_keys):
            header = tablestore._header(key, shapes)
            path = tablestore._entry(str(table_store), header)
            with open(path, "rb") as handle:
                entry = handle.read()
            start = tablestore._PREFIX + len(header)
            if rewrite == "magic":
                entry = b"HBVPTAB1" + entry[8:]
            else:
                entry = b"HBVPTAB1" + entry[8:12] + header.rstrip(b" ") + entry[start:]
            with open(path, "wb") as handle:
                handle.write(entry)
            assert tablestore.load(key, shapes) is None
        _fresh_process()
        _assert_same_operator(fracops._cached_soe_operator(n, r, 0.5),
                              GradedMesh(n, r).nodes, 0.5)
        assert builds == [0.5, None, 0.5, None]

    def test_unmappable_entry_is_a_miss(self, table_store, monkeypatch, builds):
        fracops._cached_soe_operator(256, 2.0, 0.5)
        _fresh_process()

        def refused(*args, **kwargs):
            raise PermissionError("mapping refused")

        monkeypatch.setattr(tablestore.mmap, "mmap", refused)
        _assert_same_operator(fracops._cached_soe_operator(256, 2.0, 0.5),
                              GradedMesh(256, 2.0).nodes, 0.5)
        assert builds == [0.5, None, 0.5, None]

    def test_map_without_memory_raises_mesh_too_large(self, table_store, monkeypatch,
                                                       stored_keys):
        fracops._cached_soe_operator(1025, 2.0, 0.5)
        _fresh_process()

        def no_room(*args, **kwargs):
            raise OSError(errno.ENOMEM, "Cannot allocate memory")

        monkeypatch.setattr(tablestore.mmap, "mmap", no_room)
        with pytest.raises(MemoryError):
            tablestore.load(*stored_keys[0])
        with pytest.raises(MeshTooLarge, match="could not be allocated"):
            fracops._cached_soe_operator(1025, 2.0, 0.5)
        assert fracops._cached_soe_operator.cache_info().currsize == 0


def _child_environment(*lines, **env):
    code = "\n".join(["import numpy", *lines, "from hilferbvp import tablestore",
                      "print(tablestore._environment())"])
    return subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=dict(child_env(), **env), check=True).stdout


@pytest.mark.skipif(platform.machine().lower() not in ("x86_64", "amd64")
                    or "DYNAMIC_ARCH" not in tablestore._lapack(),
                    reason="needs a run-time dispatching OpenBLAS on x86-64")
def test_environment_names_the_openblas_core():
    # OpenBLAS picks its kernels by CPU model, or by OPENBLAS_CORETYPE.
    assert _child_environment(OPENBLAS_CORETYPE="Haswell").rstrip().endswith("core Haswell)")


def test_environment_ignores_other_blas_libraries():
    # Another package's BLAS in the process, here scipy's, does not build
    # the tables: a library caller that imported it shares the CLI's entries.
    pytest.importorskip("scipy.linalg")
    assert _child_environment("import scipy.linalg") == _child_environment()


def _damage_truncate(data):
    return data[:-8]


def _damage_data(data):
    flipped = bytearray(data)
    flipped[-3] ^= 0x10
    return bytes(flipped)


def _damage_key(data):
    # The node checksum in the header, one hex digit changed.
    at = data.index(b"nodes=") + len(b"nodes=")
    digit = b"0" if data[at:at + 1] != b"0" else b"1"
    return data[:at] + digit + data[at + 1:]


def _damage_shape(data):
    # The last shape's first dimension, one larger.  The header starts
    # with the key; its third line lists the shapes.
    key = data.index(b"hilferbvp.fracops")
    end = data.index(b"\n", data.index(b"\n", data.index(b"\n", key) + 1) + 1)
    start = data.rindex(b";", 0, end) + 1
    dims = data[start:end].split(b",")
    dims[0] = str(int(dims[0]) + 1).encode()
    return data[:start] + b",".join(dims) + data[end:]


class TestDamagedEntries:
    @pytest.mark.parametrize("damage", [_damage_truncate, _damage_data, _damage_key,
                                        _damage_shape, lambda data: b"", lambda data: data + b"x"])
    def test_damaged_entry_rebuilt_and_rewritten(self, damage, table_store, builds):
        n, r = 1025, 8.0 / 3.0
        nodes = GradedMesh(n, r).nodes
        fracops._cached_soe_operator(n, r, 0.5)
        assert builds == [0.5, None]
        # The order's entry and then the shared one, each damaged alone.
        for victim, rebuilt in ((0, [0.5]), (1, [0.5, None])):
            _fresh_process()
            sizes = {path: path.stat().st_size for path in _entries(table_store)}
            path = sorted(sizes, key=sizes.get)[victim]     # the order's is smaller
            path.write_bytes(damage(path.read_bytes()))
            del builds[:]
            op = fracops._cached_soe_operator(n, r, 0.5)
            assert builds == rebuilt
            _assert_same_operator(op, nodes, 0.5)
            # Written over: the next process reads it back.
            assert {p: p.stat().st_size for p in _entries(table_store)} == sizes
            _fresh_process()
            del builds[:]
            _assert_same_operator(fracops._cached_soe_operator(n, r, 0.5), nodes, 0.5)
            assert builds == []


class TestUnusableStore:
    def test_store_under_a_file_builds_silently(self, tmp_path, monkeypatch, builds):
        blocker = tmp_path / "file"
        blocker.write_text("not a directory")
        monkeypatch.setenv("XDG_CACHE_HOME", str(blocker))
        nodes = GradedMesh(1025, 2.0).nodes
        for _ in range(2):
            _fresh_process()
            _assert_same_operator(fracops._cached_soe_operator(1025, 2.0, 0.5), nodes, 0.5)
        assert builds == [0.5, None, 0.5, None]
        assert blocker.read_text() == "not a directory"

    def test_unreadable_source_skips_store(self, table_store, monkeypatch, builds):
        monkeypatch.setattr(fracops, "_source_crc", lambda: None)
        fracops._cached_soe_operator(256, 2.0, 0.5)
        assert builds == [0.5, None]
        assert not table_store.exists()

    def test_directory(self, tmp_path, monkeypatch):
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
        assert tablestore.directory() == str(tmp_path / "hilferbvp")
        # A relative XDG_CACHE_HOME is ignored, as the XDG spec asks.
        for value in ("relative/dir", ""):
            monkeypatch.setenv("XDG_CACHE_HOME", value)
            monkeypatch.setenv("HOME", str(tmp_path / "home"))
            assert tablestore.directory() == str(tmp_path / "home" / ".cache" / "hilferbvp")
        monkeypatch.delenv("XDG_CACHE_HOME")
        assert tablestore.directory() == str(tmp_path / "home" / ".cache" / "hilferbvp")


class TestMemory:
    def test_guard_runs_before_a_load(self, table_store, monkeypatch):
        # A stored operator needs the same bytes as a built one: one byte
        # less raises before the store is read.
        n, r = 1025, 2.0
        op = fracops._cached_soe_operator(n, r, 0.5)
        need = op.nbytes + op.modes.nbytes
        _fresh_process()
        loads = []
        load = tablestore.load

        def recording(*args):
            loads.append(args[0])
            return load(*args)

        monkeypatch.setattr(tablestore, "load", recording)
        monkeypatch.setattr(fracops, "_soe_operator", _forbidden)
        monkeypatch.setattr(core, "_physical_memory", lambda: need - 1)
        with pytest.raises(MeshTooLarge, match="physical memory"):
            fracops._cached_soe_operator(n, r, 0.5)
        assert loads == []
        monkeypatch.setattr(core, "_physical_memory", lambda: need)
        fracops._cached_soe_operator(n, r, 0.5)
        assert len(loads) == 2

    def test_memory_error_while_loading(self, table_store, monkeypatch):
        fracops._cached_soe_operator(1025, 2.0, 0.5)
        _fresh_process()

        def unallocatable(*args):
            raise MemoryError("no room")

        monkeypatch.setattr(tablestore, "load", unallocatable)
        with pytest.raises(MeshTooLarge, match="could not be allocated"):
            fracops._cached_soe_operator(1025, 2.0, 0.5)
        assert fracops._cached_soe_operator.cache_info().currsize == 0


class TestEviction:
    def test_least_recently_used_evicted_under_cap(self, table_store, monkeypatch):
        tablestore.save("probe", [np.zeros(1000)])
        probe, = _entries(table_store)
        size = probe.stat().st_size
        probe.unlink()
        monkeypatch.setattr(tablestore, "CAP_BYTES", 3 * size + size // 2)
        for i in range(8):
            if i == 5:
                # A hit makes entry 3 the most recently used.
                assert tablestore.load("entry 3", [(1000,)])[0][0] == 3.0
            before = set(_entries(table_store))
            tablestore.save(f"entry {i}", [np.full(1000, float(i))])
            assert sum(path.stat().st_size for path in _entries(table_store)) <= tablestore.CAP_BYTES
            # Written entries get mtimes i + 1 seconds after the epoch, so
            # they order by write and any hit is newer than all of them.
            new, = set(_entries(table_store)) - before
            os.utime(new, ns=(0, (i + 1) * 10 ** 9))
        kept = [i for i in range(8) if tablestore.load(f"entry {i}", [(1000,)]) is not None]
        assert kept == [3, 6, 7]

    @pytest.mark.parametrize("failure", ["unlink", "stat"])
    def test_file_that_cannot_be_removed_is_skipped(self, failure, table_store, monkeypatch):
        # The oldest entry is another user's (unlink raises) or is removed
        # by another process between the listing and its stat: the newer
        # entries are still evicted down to the cap.
        tablestore.save("probe", [np.zeros(1000)])
        probe, = _entries(table_store)
        size = probe.stat().st_size
        probe.unlink()
        monkeypatch.setattr(tablestore, "CAP_BYTES", 3 * size + size // 2)
        tablestore.save("entry 0", [np.zeros(1000)])
        oldest, = _entries(table_store)
        os.utime(oldest, ns=(0, 0))
        unlink, scandir = os.unlink, os.scandir

        def refusing(path, *args, **kwargs):
            if os.fspath(path) == str(oldest):
                raise PermissionError("not the owner")
            return unlink(path, *args, **kwargs)

        class Gone:
            def __init__(self, entry):
                self.name, self.path, self.is_file = entry.name, entry.path, entry.is_file

            def stat(self, **kwargs):
                raise FileNotFoundError(self.path)

        class Listing:
            def __init__(self, folder):
                self.listing = scandir(folder)

            def __enter__(self):
                return (Gone(e) if e.path == str(oldest) else e for e in self.listing)

            def __exit__(self, *exc):
                self.listing.close()

        if failure == "unlink":
            monkeypatch.setattr(tablestore.os, "unlink", refusing)
        else:
            monkeypatch.setattr(tablestore.os, "scandir", Listing)
        for i in range(1, 8):
            tablestore.save(f"entry {i}", [np.full(1000, float(i))])
            new = max(_entries(table_store), key=lambda path: path.stat().st_mtime_ns)
            os.utime(new, ns=(0, i * 10 ** 9))
        kept = [i for i in range(8) if tablestore.load(f"entry {i}", [(1000,)]) is not None]
        if failure == "unlink":
            # The refused entry still counts against the cap.
            assert kept == [0, 6, 7]
        else:
            # An entry that cannot be stat'ed is not counted; here it stays,
            # as nothing removed it.
            assert kept == [0, 5, 6, 7]

    def test_entry_larger_than_cap_not_stored(self, table_store, monkeypatch, builds):
        monkeypatch.setattr(tablestore, "CAP_BYTES", 1000)
        fracops._cached_soe_operator(1025, 2.0, 0.5)
        assert _entries(table_store) == []
        _fresh_process()
        fracops._cached_soe_operator(1025, 2.0, 0.5)
        assert builds == [0.5, None, 0.5, None]

    def test_leftover_temporary_files_evicted(self, table_store, monkeypatch):
        tablestore.save("first", [np.zeros(1000)])
        size = _entries(table_store)[0].stat().st_size
        stale = table_store / "tmpabc.tmp"
        other = table_store / "notes.txt"
        for path in (stale, other):
            path.write_bytes(b"\0" * 4096)
            os.utime(path, ns=(0, 0))
        monkeypatch.setattr(tablestore, "CAP_BYTES", 2 * size + 100)
        tablestore.save("second", [np.ones(1000)])
        assert not stale.exists()
        assert other.exists()                   # not a file of the store
        assert len(_entries(table_store)) == 2


def test_cli_solve_imports_no_hashlib(tmp_path):
    # OpenSSL's hashlib adds some 4 MB to a process; no CLI solve pulls it
    # in, on a fresh store or a warm one.
    config = tmp_path / "run.ini"
    config.write_text(
        "[problem]\nalpha = 0.5\nbeta = 0.5\nlambda = 0.2\nd = 1.0\n\n"
        "[rhs]\nkind = constant\nc = 1.0\n\n[mesh]\nn = 512\nr = auto\n\n"
        f"[output]\ndir = {tmp_path / 'out'}\n", encoding="utf-8")
    for _ in range(2):
        done = subprocess.run([sys.executable, "-X", "importtime", "-m", "hilferbvp.cli",
                               "solve", str(config)], env=child_env(),
                              capture_output=True, text=True)
        assert done.returncode == 0, done.stderr
        imported = {line.rsplit("|", 1)[-1].strip() for line in done.stderr.splitlines()
                    if line.startswith("import time:")}
        assert "hilferbvp.tablestore" in imported
        assert not imported & {"hashlib", "_hashlib"}
    assert len(_entries(tmp_path / "xdg-cache" / "hilferbvp")) == 2


def test_warm_cli_solve_maps_its_tables(tmp_path):
    # A hit maps its entries instead of copying them, so the tables cost a
    # warm CLI solve almost no page faults: the kernel maps a file's cached
    # pages some 16 to a fault, while a private copy takes a fault per
    # 4 KiB page.  The tables at n = 4096 take about 1,030 pages more than
    # at n = 1024; a copying load adds about as many faults, a mapped one a
    # few dozen.
    faults = {}
    for n in (1024, 4096):
        config = tmp_path / f"run{n}.ini"
        config.write_text(
            "[problem]\nalpha = 0.5\nbeta = 0.5\nlambda = 0.2\nd = 1.0\n\n"
            "[rhs]\nkind = linear\na = 0.25\nb = 0.25\n\n"
            f"[mesh]\nn = {n}\nr = auto\n\n[output]\ndir = {tmp_path / 'out'}\n",
            encoding="utf-8")
        argv = [sys.executable, "-m", "hilferbvp.cli", "solve", str(config)]
        runs = [minor_faults(argv, child_env()) for _ in range(2)]     # a miss, a hit
        assert [code for code, _ in runs] == [0, 0]
        faults[n] = runs[1][1]
    assert len(_entries(tmp_path / "xdg-cache" / "hilferbvp")) == 4
    assert faults[4096] - faults[1024] < 500, faults


def _damage_all(store):
    for path in _entries(store):
        path.write_bytes(_damage_data(path.read_bytes()))


def _block_store(store, monkeypatch):
    blocker = store.parent.parent / "blocker"
    blocker.write_text("not a directory")
    monkeypatch.setenv("XDG_CACHE_HOME", str(blocker))


@pytest.mark.parametrize("state", ["empty", "warm", "damaged", "unusable"])
def test_cli_outputs_independent_of_store(tmp_path, table_store, capsys, monkeypatch, state):
    # Each command runs as in a fresh process, on a store in `state`; the
    # reference runs first, on a store that starts empty.  A solve with
    # alpha = 0.3 and its check read orders 0.3 and 0.7.
    run = ("[problem]\nalpha = 0.3\nbeta = 0.6\nlambda = 0.2\nd = 1.0\n\n"
           "[rhs]\nkind = linear\na = 0.25\nb = 0.25\n\n[mesh]\nn = 1100\nr = auto\n\n"
           "[output]\ndir = {out}\n")
    sweep = "\n[sweep]\naxis1 = lambda\naxis1_start = 0.0\naxis1_stop = 0.3\naxis1_steps = 3\n"
    prepare = {"empty": lambda: shutil.rmtree(table_store, ignore_errors=True),
               "warm": lambda: None,
               "damaged": lambda: _damage_all(table_store),
               "unusable": lambda: _block_store(table_store, monkeypatch)}[state]
    results = []
    for side in ("reference", state):
        out = tmp_path / side
        config, sweeps = tmp_path / f"{side}.ini", tmp_path / f"{side}-sweep.ini"
        config.write_text(run.format(out=out), encoding="utf-8")
        sweeps.write_text(run.format(out=out) + sweep, encoding="utf-8")
        printed = []
        for args in (["solve", config], ["verify", config, out / "solution.csv"],
                     ["certify", config], ["sweep", sweeps]):
            _fresh_process()
            if side != "reference":
                prepare()
            printed.append((main([str(arg) for arg in args]), capsys.readouterr()))
        files = [(out / name).read_bytes() for name in
                 ("solution.csv", "report.txt", "certificates.csv", "sweep.csv")]
        results.append((printed, files, _entries(table_store)))
    assert [code for code, _ in results[0][0]] == [0, 0, 0, 0]
    # The shared tables and two orders; rewritten when empty or damaged.
    assert len(results[0][2]) == 3 and results[0][2] == results[1][2]
    assert results[0][1] == results[1][1]
    for (_, ours), (_, theirs) in zip(*(printed for printed, _, _ in results)):
        assert ours.out.replace("reference", state) == theirs.out
        assert ours.err == theirs.err


def test_concurrent_processes_share_one_store(table_store, monkeypatch):
    # Four processes (more than the cores of a small machine) miss on the
    # same empty store at once, three times over: each writes whole
    # entries through its own temporary file, so every process applies
    # the same bits and the entries left behind read back as hits.
    script = (
        "import hashlib, numpy as np\n"
        "from hilferbvp import fracops\n"
        "from hilferbvp.core import GradedMesh\n"
        "nodes = GradedMesh(1025, 2.0).nodes\n"
        "op = fracops._cached_soe_operator(1025, 2.0, 0.5)\n"
        "print(hashlib.sha256(op.apply(np.sin(7.0 * nodes)).tobytes()).hexdigest())\n"
    )
    digests = set()
    for _ in range(3):
        shutil.rmtree(table_store, ignore_errors=True)
        children = [subprocess.Popen([sys.executable, "-c", script], env=child_env(),
                                     stdout=subprocess.PIPE, text=True) for _ in range(4)]
        for child in children:
            out, _ = child.communicate(timeout=120)
            assert child.returncode == 0
            digests.add(out)
        assert len(_entries(table_store)) == 2
        assert not list(table_store.glob("*.tmp"))
    assert len(digests) == 1
    monkeypatch.setattr(fracops, "_soe_operator", _forbidden)
    monkeypatch.setattr(fracops, "_soe_modes", _forbidden)
    _assert_same_operator(fracops._cached_soe_operator(1025, 2.0, 0.5),
                          GradedMesh(1025, 2.0).nodes, 0.5)
