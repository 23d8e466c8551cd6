import os
import platform
import random
import struct
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

from claimdist import cli, embeddings, native

from conftest import DECLINED_FIELDS, FAST_FIELDS, require_library, wait_for_builds, write_corpus


@pytest.fixture
def lib():
    return require_library()


def parse_batch(lib, batch: bytes, max_rows: int, max_values: int, max_token_bytes: int):
    """``claimdist_parse_batch`` on ``batch``: its return value, numbers, tokens, line indices and sizes."""
    data = np.frombuffer(batch, dtype=np.uint8)
    values = np.full(max_values, np.nan)
    tokens = np.zeros(max_token_bytes, dtype=np.uint8)
    lines = np.full(max_rows, -1, dtype=np.int64)
    sizes = np.full(3, -1, dtype=np.int64)
    begin = data.ctypes.data
    got = lib.claimdist_parse_batch(
        begin, begin + data.size, values.ctypes.data, max_values, tokens.ctypes.data,
        max_token_bytes, lines.ctypes.data, max_rows, sizes.ctypes.data,
    )
    return got, values, tokens.tobytes(), lines, sizes.tolist()


def parse_rows(lib, text: str, n: int, dim: int) -> tuple[int, np.ndarray, bool]:
    """The batch of ``text``'s lines, each after a token ``w<i>``, with room for ``n`` rows of ``dim``.

    Returns the rows the compiled parser read (before the first it
    declines, if it declines one), its numbers and whether it read the
    whole batch.
    """
    lines = text.split("\n")
    if text.endswith("\n"):
        lines.pop()
    batch = "\n".join(f"w{i} {line}" for i, line in enumerate(lines))
    batch += "\n" if text.endswith("\n") else ""
    got, values, *_ = parse_batch(lib, batch.encode(), n, n * dim, len(batch.encode()))
    parsed = got if got >= 0 else -1 - got
    return parsed, values.reshape(n, dim), got >= 0


def bits(x: float) -> bytes:
    return struct.pack("<d", x)


class TestParseRows:
    @pytest.mark.parametrize("field", FAST_FIELDS)
    def test_fast_path_field_has_the_bits_of_float(self, lib, field):
        parsed, out, whole = parse_rows(lib, field, 1, 1)
        assert (parsed, whole) == (1, True)
        assert bits(out[0, 0]) == bits(float(field))

    @pytest.mark.parametrize("field", DECLINED_FIELDS)
    def test_other_field_is_declined(self, lib, field):
        assert parse_rows(lib, field, 1, 1)[::2] == (0, False)

    def test_mantissas_above_two_to_the_53_would_round_twice(self):
        # why the guard is needed: with m = 2**53 + 1 rounded to a double
        # first, these products differ from the correctly rounded value
        for field in ("9007199254740993e-22", "0.0009007199254740993"):
            m, e = 2**53 + 1, -22 if field.endswith("-22") else -19
            assert float(m) / 10.0 ** -e != float(field)

    def test_random_decimals(self, lib):
        rng = random.Random(19)
        taken = 0
        for _ in range(5000):
            digits = "".join(rng.choice("0123456789") for _ in range(rng.randint(1, 21)))
            point = rng.randint(0, len(digits))
            field = rng.choice(["", "-", "+"]) + digits[:point] + "." + digits[point:]
            if rng.random() < 0.5:
                field += rng.choice("eE") + rng.choice(["", "-", "+"]) + str(rng.randint(0, 30))
            parsed, out, whole = parse_rows(lib, field, 1, 1)
            assert parsed == whole
            if parsed:
                assert bits(out[0, 0]) == bits(float(field)), field
            taken += parsed
        assert 2000 < taken < 4500

    @pytest.mark.parametrize(
        "text, n, dim, parsed",
        [
            ("1 2\n3 4", 2, 2, 2),
            ("  1   2  \n3 4 ", 2, 2, 2),  # runs of spaces, leading and trailing
            ("1 2\n3 4\n", 2, 2, 2),
            ("1 2\n3", 2, 2, 1),  # a short row
            ("1 2\n3 4 5", 2, 2, 1),  # a long row
            ("1 2\n\n3 4", 2, 2, 1),  # a row with no numbers
            ("1 2\n3 4", 1, 2, 1),  # more rows than there is room for
            ("1 2", 2, 2, 1),  # fewer
            ("1\t2\n3 4", 2, 2, 2),
            ("1 2\r\n3 4", 2, 2, 2),
            ("1\xa02\n3 4", 2, 2, 0),
            ("1 2\n3 4\x00", 2, 2, 1),
        ],
    )
    def test_rows(self, lib, text, n, dim, parsed):
        got, out, whole = parse_rows(lib, text, n, dim)
        assert got == parsed
        assert whole == (parsed == len(text.rstrip("\n").split("\n")))
        assert out[:parsed].tolist() == [[1.0, 2.0], [3.0, 4.0]][:parsed]


    @pytest.mark.parametrize(
        "batch, rows, tokens, lines, newlines",
        [
            (b"a 1 2\n\n  b\t3 4\r\n \t\n\fc 5 6\v", 3, b"a\nb\nc", [0, 2, 4], 4),
            (b"\n \r\n", 0, b"", [], 2),
            # tokens are copied as they are; Python finds those holding whitespace
            ("a\x1cb 1 2\n\xa0c 3 4\n".encode(), 2, "a\x1cb\n\xa0c".encode(), [0, 1], 2),
        ],
        ids=["blanks", "blank-lines", "odd-tokens"],
    )
    def test_batch(self, lib, batch, rows, tokens, lines, newlines):
        got, values, blob, line_indices, sizes = parse_batch(lib, batch, 4, 8, 16)
        assert got == rows
        assert sizes == [2 if rows else 0, len(tokens), newlines]
        assert blob[: len(tokens)] == tokens
        assert line_indices[:rows].tolist() == lines
        assert values[: 2 * rows].tolist() == [1.0, 2.0, 3.0, 4.0, 5.0, 6.0][: 2 * rows]

    @pytest.mark.parametrize(
        "room, got",
        [((2, 4, 4), 2), ((1, 4, 4), -2), ((2, 3, 4), -2), ((2, 4, 3), -2), ((2, 4, 1), -1)],
        ids=["exact", "rows", "values", "token-bytes", "first-token"],
    )
    def test_room(self, lib, room, got):
        # a row that does not fit the buffers declines the batch
        assert parse_batch(lib, b"ab 1 2\nc 3 4\n", *room)[0] == got


class TestLibrary:
    def test_exports_both_functions(self, lib):
        assert lib.claimdist_sweep.restype is None
        assert lib.claimdist_parse_batch.restype is not None

    def test_build_removes_other_libraries(self, private_cache_home, rebuilt_library):
        cache = private_cache_home / "claimdist"
        cache.mkdir(parents=True)
        for name in (f"sweep-{'0' * 64}.so", f"native-{'1' * 64}.so"):
            (cache / name).write_bytes(b"")
        kept = {f"v2-{'2' * 64}", "notes.txt"}
        (cache / f"v2-{'2' * 64}").mkdir()
        (cache / "notes.txt").write_text("")
        lib = native.library()
        if lib is None:
            pytest.skip(f"no compiled library on {platform.machine()}")
        names = {p.name for p in cache.iterdir()}
        [built] = names - kept
        assert built.startswith("native-") and built != f"native-{'1' * 64}.so"
        assert lib._name == str(cache / built)


def _fake_cc(directory: Path, delay: float = 0.0) -> Path:
    """``directory`` holding only a ``cc`` that fails.

    It writes ``cc-started``, sleeps ``delay`` seconds, writes ``cc-done``
    beside itself and exits 1.
    """
    directory.mkdir()
    cc = directory / "cc"
    cc.write_text(
        f"#!{sys.executable}\n"
        "import pathlib, sys, time\n"
        "here = pathlib.Path(sys.argv[0]).parent\n"
        "(here / 'cc-started').write_text('')\n"
        f"time.sleep({delay})\n"
        "(here / 'cc-done').write_text('')\n"
        "sys.exit(1)\n"
    )
    cc.chmod(0o755)
    return directory


def _run_cli(manifest: Path, path: str, cache_home: Path) -> subprocess.CompletedProcess:
    """``claimdist run`` on ``manifest`` in a new process, with ``PATH`` and the cache home given."""
    env = {
        **os.environ, "PATH": path, "XDG_CACHE_HOME": str(cache_home),
        "PYTHONPATH": str(Path(native.__file__).parents[1]),
    }
    cmd = [sys.executable, "-m", "claimdist.cli", "run", str(manifest), "--format", "json"]
    return subprocess.run(cmd, env=env, capture_output=True, text=True)


class TestBackgroundBuild:
    """``run`` builds the library on a helper thread while it reads its inputs."""

    @pytest.mark.parametrize(
        "failure, code",
        [
            ("missing-document", 1),  # found with the manifest, before the build starts
            ("missing-table", 1),  # found when the table is hashed, while cc runs
            ("document-not-utf8", 2),  # found when the documents are read, while cc runs
            ("unscoreable-group", 2),  # found once the table is parsed
        ],
    )
    def test_failed_run_leaves_no_compiler_and_no_temporary_directory(
        self, tmp_path, private_cache_home, failure, code
    ):
        if platform.machine() not in native._MACHINES:
            pytest.skip(f"no compiled library on {platform.machine()}")
        manifest = write_corpus(tmp_path, groups=("alpha", "solo"), docs_per_group=2)
        if failure == "missing-document":
            (tmp_path / "docs" / "alpha1.txt").unlink()
        elif failure == "missing-table":
            (tmp_path / "emb.txt").unlink()
        elif failure == "document-not-utf8":
            (tmp_path / "docs" / "alpha1.txt").write_bytes(b"word1 \xff word2")
        else:
            for i in (1, 2):
                (tmp_path / "docs" / f"solo{i}.txt").write_text("zzzz qqqq")
        tools = _fake_cc(tmp_path / "tools", delay=0.5)
        done = _run_cli(manifest, str(tools), private_cache_home)
        assert done.returncode == code, done.stderr
        # cc ran (but for the manifest error), and the run waited for it
        # to end and for its temporary directory to be removed
        started = (tools / "cc-started").exists()
        assert (tools / "cc-done").exists() == started == (failure != "missing-document")
        assert list((private_cache_home / "claimdist").glob(".native-*")) == []

    @pytest.mark.parametrize("how", ["cc-fails", "no-cc"])
    def test_no_library_gives_one_warning_and_the_same_report(self, tmp_path, how):
        manifest = write_corpus(tmp_path)
        built = _run_cli(manifest, os.environ["PATH"], tmp_path / "built")
        assert (built.returncode, built.stderr) == (0, "")
        path = str(_fake_cc(tmp_path / "tools")) if how == "cc-fails" else ""
        done = _run_cli(manifest, path, tmp_path / "fallback")
        assert done.returncode == 0, done.stderr
        assert done.stdout == built.stdout
        [warning] = done.stderr.splitlines()
        assert warning.startswith("WARNING claimdist.native: the Gibbs sweeps run in Python, ")

    def test_warm_run_starts_no_thread_and_imports_no_subprocess(self, tmp_path, private_cache_home):
        manifest = write_corpus(tmp_path)
        cold = _run_cli(manifest, os.environ["PATH"], private_cache_home)
        assert cold.returncode == 0, cold.stderr
        check = (
            "import sys, threading; from claimdist import cli; started = []; "
            "start = threading.Thread.start; "
            "threading.Thread.start = lambda self: (started.append(self.name), start(self)); "
            f"code = cli.main(['run', {str(manifest)!r}, '--format', 'json']); "
            "assert code == 0; "
            "assert 'subprocess' not in sys.modules, 'subprocess was imported'; "
            "assert started == [], f'threads were started: {started}'"
        )
        env = {
            **os.environ, "PATH": "", "XDG_CACHE_HOME": str(private_cache_home),
            "PYTHONPATH": str(Path(native.__file__).parents[1]),
        }
        done = subprocess.run([sys.executable, "-c", check], env=env, capture_output=True, text=True)
        assert (done.returncode, done.stderr) == (0, "")
        assert done.stdout == cold.stdout

    def test_a_failed_build_for_another_cache_is_not_reported(
        self, tmp_path, monkeypatch, caplog, rebuilt_library
    ):
        if platform.machine() not in native._MACHINES:
            pytest.skip(f"no compiled library on {platform.machine()}")
        # a test whose run failed before it needed the library leaves a
        # failed build for its cache, which its teardown waits for
        path = os.environ["PATH"]
        monkeypatch.setenv("PATH", str(_fake_cc(tmp_path / "tools")))
        native.start_build()
        [build] = native._builds.values()
        build.exception(timeout=60)
        assert build.done()
        # the next test, with its own cache and a working cc
        native.library.cache_clear()
        monkeypatch.setenv("PATH", path)
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "next-test"))
        assert native.library() is not None and list(native._builds.values()) == [build]
        assert caplog.records == []

    @staticmethod
    def _start_gated_builds(tmp_path, monkeypatch, build):
        """Start a build in the caches ``other`` and ``own``; each calls ``build`` once its gate opens.

        Returns the two library files and their gates.
        """
        gates, paths = {}, []
        for cache in ("other", "own"):
            monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / cache))
            paths.append(native._path(platform.machine()))
            gates[paths[-1]] = threading.Event()

        def gated(path):
            assert gates[path].wait(timeout=30)
            build(path)

        monkeypatch.setattr(native, "_build", gated)
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "other"))
        native.start_build()
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "own"))
        native.start_build()
        return paths, gates

    def test_library_waits_only_for_its_own_cache_s_build(
        self, tmp_path, monkeypatch, caplog, rebuilt_library
    ):
        if platform.machine() not in native._MACHINES:
            pytest.skip(f"no compiled library on {platform.machine()}")
        real_build = native._build

        def build(path):
            if path.parent.parent.name == "other":
                raise OSError("cc exited with 1: the other cache's build")
            real_build(path)

        (other, own), gates = self._start_gated_builds(tmp_path, monkeypatch, build)
        builds = dict(native._builds)
        assert set(builds) == {other, own}
        gates[own].set()
        assert native.library() is not None
        assert builds[own].done() and not builds[other].done()
        assert list(native._builds) == [other]
        # the other cache's build fails: a later load here does not report it
        gates[other].set()
        assert "the other cache's build" in str(builds[other].exception(timeout=60))
        native.library.cache_clear()
        assert native.library() is not None
        assert list(native._builds) == [other]
        assert caplog.records == []

    def test_the_teardown_waits_for_every_cache_s_build(
        self, tmp_path, monkeypatch, rebuilt_library
    ):
        if platform.machine() not in native._MACHINES:
            pytest.skip(f"no compiled library on {platform.machine()}")
        built = []
        (other, own), gates = self._start_gated_builds(tmp_path, monkeypatch, built.append)
        builds = dict(native._builds)
        assert set(builds) == {other, own}
        # the build started first ends last, after the teardown started waiting
        opening = [threading.Timer(0.4, gates[other].set), threading.Timer(0.2, gates[own].set)]
        for timer in opening:
            timer.start()
        wait_for_builds()
        assert all(build.done() for build in builds.values()) and native._builds == {}
        assert sorted(built) == sorted([own, other])
        for timer in opening:
            timer.join(timeout=10)
            assert not timer.is_alive()

    def test_a_failed_build_is_reported_once(self, tmp_path, monkeypatch, caplog, rebuilt_library):
        if platform.machine() not in native._MACHINES:
            pytest.skip(f"no compiled library on {platform.machine()}")
        path = os.environ["PATH"]
        monkeypatch.setenv("PATH", str(_fake_cc(tmp_path / "tools")))
        native.start_build()
        assert native.library() is None
        assert [r.levelname for r in caplog.records] == ["WARNING"]
        assert "cc exited with 1" in caplog.messages[0]
        # once fixed, a fresh load builds the library again
        native.library.cache_clear()
        monkeypatch.setenv("PATH", path)
        assert native.library() is not None

    def test_a_second_start_while_one_is_pending_builds_once(
        self, tmp_path, monkeypatch, caplog, rebuilt_library
    ):
        if platform.machine() not in native._MACHINES:
            pytest.skip(f"no compiled library on {platform.machine()}")
        builds = []
        build = native._build
        monkeypatch.setattr(native, "_build", lambda path: builds.append(path) or build(path))
        monkeypatch.setenv("PATH", str(_fake_cc(tmp_path / "tools", delay=0.2)))
        native.start_build()
        native.start_build()
        assert native.library() is None
        for thread in threading.enumerate():
            if thread.name.startswith("claimdist-build"):
                thread.join(timeout=60)
        assert builds == [native._path(platform.machine())]
        assert [r.levelname for r in caplog.records] == ["WARNING"]
        assert "cc exited with 1" in caplog.messages[0]

    def test_dist_starts_the_build_before_it_reads_its_inputs(
        self, tmp_path, monkeypatch, rebuilt_library
    ):
        if platform.machine() not in native._MACHINES:
            pytest.skip(f"no compiled library on {platform.machine()}")
        write_corpus(tmp_path)
        hashed = []
        file_sha256 = embeddings.file_sha256

        def recording(path):
            hashed.append(dict(native._builds))
            return file_sha256(path)

        monkeypatch.setattr(embeddings, "file_sha256", recording)
        docs = tmp_path / "docs"
        argv = ["dist", str(docs / "query.txt"), str(docs / "alpha1.txt"),
                "--embeddings", str(tmp_path / "emb.txt")]
        assert cli.main(argv) == 0
        [builds] = hashed
        [(path, build)] = builds.items()
        assert path == native._path(platform.machine())
        assert build.done() and build.exception() is None and native._builds == {}
