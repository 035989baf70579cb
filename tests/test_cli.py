"""End-to-end behavior of the command-line interface."""

import argparse
import math
import os
import stat
import subprocess
import sys
import threading
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from helpers import corpus_from_token_lists
from una import augment, cli, contrastive
from una.augment import AugmentationConfig, iter_negative_batches
from una.cli import MAX_DIM, main
from una.corpus import Document, _iter_raw_lines, load_corpus
from una.tfidf import fit, load_model, save_model

DATA_DIR = Path(__file__).resolve().parent.parent / "data"
SAMPLE_CORPUS = DATA_DIR / "sample_corpus.txt"
SAMPLE_PAIRS = DATA_DIR / "sample_pairs.tsv"


@pytest.fixture
def corpus_file(tmp_path):
    path = tmp_path / "corpus.txt"
    path.write_text("a b b\na c\n", encoding="utf-8")
    return path


@pytest.fixture
def model_file(tmp_path, corpus_file):
    path = tmp_path / "model.txt"
    assert main(["fit", "--corpus", str(corpus_file), "--output", str(path)]) == 0
    return path


def write_lines(path, lines):
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


class TestFit:
    def test_summary_line_and_model_content(self, tmp_path, corpus_file, capsys):
        out = tmp_path / "model.txt"
        assert main(["fit", "--corpus", str(corpus_file), "--output", str(out)]) == 0
        assert capsys.readouterr().out == "N=2 m=3\n"
        expected = fit(load_corpus(corpus_file))
        assert load_model(out) == expected

    def test_missing_file_exits_1(self, tmp_path, capsys):
        rc = main(["fit", "--corpus", str(tmp_path / "nope.txt"), "--output", str(tmp_path / "m")])
        assert rc == 1
        assert "nope.txt" in capsys.readouterr().err

    def test_empty_corpus_exits_2(self, tmp_path):
        empty = tmp_path / "empty.txt"
        empty.write_text("", encoding="utf-8")
        assert main(["fit", "--corpus", str(empty), "--output", str(tmp_path / "m")]) == 2

    def test_missing_flag_exits_2(self, capsys):
        assert main(["fit", "--corpus", "x"]) == 2
        capsys.readouterr()


class _FailingSink:
    """A text sink that passes its first writes on to handle, then raises error."""

    def __init__(self, handle, error, writes):
        self.handle, self.error, self.writes = handle, error, writes

    def write(self, text):
        if not self.writes:
            raise self.error
        self.writes -= 1
        self.handle.write(text)

    def writelines(self, lines):
        for line in lines:
            self.write(line)


class TestFitOutput:
    """una fit writes its model beside --output and renames it onto it only
    once the whole model is written."""

    @pytest.fixture
    def failing_save(self, monkeypatch):
        """Make save_model raise the given error after a header and two term
        lines, writing through to a path as the real save_model does."""
        real = cli.save_model

        def install(error):
            def save(model, sink):
                if isinstance(sink, (str, Path)):
                    with open(sink, "w", encoding="utf-8", newline="\n") as handle:
                        return save(model, handle)
                return real(model, _FailingSink(sink, error, 3))

            monkeypatch.setattr(cli, "save_model", save)

        return install

    @pytest.mark.parametrize("error", [OSError(28, "No space left on device"), KeyboardInterrupt()],
                             ids=["oserror", "interrupt"])
    def test_failed_write_leaves_existing_model(self, tmp_path, corpus_file, model_file, failing_save, error, capsys):
        before = model_file.read_bytes()
        failing_save(error)
        argv = ["fit", "--corpus", str(corpus_file), "--output", str(model_file)]
        if isinstance(error, OSError):
            assert main(argv) == 1
            assert "No space left on device" in capsys.readouterr().err
        else:
            with pytest.raises(KeyboardInterrupt):
                main(argv)
        assert model_file.read_bytes() == before
        assert sorted(path.name for path in tmp_path.iterdir()) == ["corpus.txt", "model.txt"]

    def test_failed_write_leaves_no_new_file(self, tmp_path, corpus_file, failing_save, capsys):
        failing_save(OSError(28, "No space left on device"))
        assert main(["fit", "--corpus", str(corpus_file), "--output", str(tmp_path / "m.txt")]) == 1
        capsys.readouterr()
        assert [path.name for path in tmp_path.iterdir()] == ["corpus.txt"]

    def test_existing_model_is_replaced_and_keeps_its_mode(self, tmp_path, corpus_file, model_file):
        want = model_file.read_bytes()
        out = tmp_path / "old.txt"
        out.write_bytes(b"old\n" * 100)
        out.chmod(0o604)
        assert main(["fit", "--corpus", str(corpus_file), "--output", str(out)]) == 0
        assert out.read_bytes() == want
        assert stat.S_IMODE(out.stat().st_mode) == 0o604


class TestAugment:
    def make_input(self, tmp_path, n_lines):
        path = tmp_path / "input.txt"
        write_lines(path, [f"a b b c{'c' if i % 2 else ''}" for i in range(n_lines)])
        return path

    def test_schedule_320_lines(self, tmp_path, model_file, capsys):
        source = tmp_path / "input.txt"
        write_lines(source, ["a b b"] * 320)
        out = tmp_path / "negatives.tsv"
        rc = main(
            ["augment", "--model", str(model_file), "--input", str(source),
             "--output", str(out), "--seed", "42"]
        )
        assert rc == 0
        assert capsys.readouterr().out == "batches=1 negatives=64 unaugmentable=0\n"
        lines = out.read_text(encoding="utf-8").splitlines()
        assert len(lines) == 64
        batch_indices = {line.split("\t")[0] for line in lines}
        assert batch_indices == {"5"}

    def test_output_format(self, tmp_path, model_file):
        source = tmp_path / "input.txt"
        write_lines(source, ["a b b", "zz qq", "a c"])
        out = tmp_path / "negatives.tsv"
        rc = main(
            ["augment", "--model", str(model_file), "--input", str(source),
             "--output", str(out), "--alpha", "1", "--batch-size", "3", "--seed", "7"]
        )
        assert rc == 0
        lines = out.read_text(encoding="utf-8").splitlines()
        assert len(lines) == 3
        first = lines[0].split("\t")
        assert first[0] == "1" and first[1] == "1"
        assert lines[1].split("\t") == ["1", "2", "zz qq", "#unaugmentable"]
        # augmented sentences differ from their sources
        assert first[2] != "a b b"

    def test_source_line_numbers_skip_blanks(self, tmp_path, model_file):
        source = tmp_path / "input.txt"
        source.write_text("a b\n\na c\n", encoding="utf-8")
        out = tmp_path / "negatives.tsv"
        main(
            ["augment", "--model", str(model_file), "--input", str(source),
             "--output", str(out), "--alpha", "1", "--batch-size", "2"]
        )
        numbers = [line.split("\t")[1] for line in out.read_text().splitlines()]
        assert numbers == ["1", "3"]

    def test_deterministic_across_runs(self, tmp_path, model_file):
        source = self.make_input(tmp_path, 100)
        out1, out2 = tmp_path / "o1", tmp_path / "o2"
        flags = ["--alpha", "2", "--batch-size", "10", "--seed", "42"]
        main(["augment", "--model", str(model_file), "--input", str(source), "--output", str(out1), *flags])
        main(["augment", "--model", str(model_file), "--input", str(source), "--output", str(out2), *flags])
        assert out1.read_bytes() == out2.read_bytes()

    def test_identical_across_line_endings(self, tmp_path, model_file):
        lines = [f"a b b c{'c' if i % 2 else ''}" for i in range(64)]
        lines[10] = ""  # a blank line, so the reported line numbers matter
        flags = ["--alpha", "1", "--batch-size", "16", "--seed", "42"]
        outputs = []
        for name, text in (
            ("lf", "\n".join(lines) + "\n"),
            ("crlf", "\r\n".join(lines) + "\r\n"),
            ("no-final-newline", "\n".join(lines)),
        ):
            source = tmp_path / f"{name}.txt"
            source.write_bytes(text.encode("utf-8"))
            out = tmp_path / f"{name}.tsv"
            rc = main(["augment", "--model", str(model_file), "--input", str(source), "--output", str(out), *flags])
            assert rc == 0
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1] == outputs[2]
        assert len(outputs[0].splitlines()) == 63

    @pytest.mark.parametrize(
        "flags",
        [
            ["--beta", "1.5"],
            ["--beta", "0"],
            ["--radius", "0"],
            ["--alpha", "0"],
            ["--batch-size", "0"],
            ["--seed", "-3"],
        ],
    )
    def test_bad_flags_exit_2(self, tmp_path, model_file, flags, capsys):
        source = self.make_input(tmp_path, 4)
        rc = main(
            ["augment", "--model", str(model_file), "--input", str(source),
             "--output", str(tmp_path / "o.tsv"), *flags]
        )
        assert rc == 2
        capsys.readouterr()

    def test_radius_beyond_int64_equals_vocabulary_radius(self, tmp_path, model_file, capsys):
        source = self.make_input(tmp_path, 40)
        m = load_model(model_file).m
        outputs = []
        for radius in (str(10**30), str(m)):
            out = tmp_path / f"r{len(radius)}.tsv"
            rc = main(
                ["augment", "--model", str(model_file), "--input", str(source), "--output", str(out),
                 "--alpha", "1", "--batch-size", "8", "--seed", "9", "--radius", radius]
            )
            assert rc == 0
            outputs.append((out.read_bytes(), capsys.readouterr().out))
        assert outputs[0] == outputs[1]

    def test_corrupt_model_exits_1(self, tmp_path, capsys):
        bad = tmp_path / "bad_model.txt"
        bad.write_text("not a model\n", encoding="utf-8")
        source = self.make_input(tmp_path, 4)
        rc = main(
            ["augment", "--model", str(bad), "--input", str(source),
             "--output", str(tmp_path / "o.tsv")]
        )
        assert rc == 1
        assert "line 1" in capsys.readouterr().err

    def test_non_ascii_digit_rank_exits_1(self, tmp_path, capsys):
        bad = tmp_path / "bad_model.txt"
        bad.write_text("UNA-TFIDF v1 N=1 m=1\nx\t0.0\t0.0\nranks:\n\u00b2\n", encoding="utf-8")
        source = self.make_input(tmp_path, 4)
        rc = main(
            ["augment", "--model", str(bad), "--input", str(source),
             "--output", str(tmp_path / "o.tsv")]
        )
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: line 4: bad term id")
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "model_text",
        [
            "UNA-TFIDF v1 N=2 m=2\nx\t1.0\t0.1\ny\t1.0\t0.1\nranks:\n1 0\n",  # tie out of id order
            "UNA-TFIDF v1 N=2 m=2\nx y\t1.0\t0.1\nz\t1.0\t0.2\nranks:\n0 1\n",  # two tokens
        ],
    )
    def test_rank_tie_or_multi_token_term_exits_1(self, tmp_path, capsys, model_text):
        bad = tmp_path / "bad_model.txt"
        bad.write_text(model_text, encoding="utf-8")
        source = self.make_input(tmp_path, 4)
        rc = main(
            ["augment", "--model", str(bad), "--input", str(source),
             "--output", str(tmp_path / "o.tsv")]
        )
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: line ")
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "model_text, line_number",
        [
            ("UNA-TFIDF v1 N=\u0663 m=2\nx\t1.0\t0.1\ny\t1.0\t0.2\nranks:\n0 1\n", 1),
            ("UNA-TFIDF v1 N=2 m=2\nx\t1_0\t0.1\ny\t1.0\t0.2\nranks:\n0 1\n", 2),
            ("UNA-TFIDF v1 N=2 m=2\nx\t1.0\t0.1\ny\t1.0\t 0.2 \nranks:\n0 1\n", 3),
        ],
    )
    def test_non_plain_number_exits_1(self, tmp_path, capsys, model_text, line_number):
        bad = tmp_path / "bad_model.txt"
        bad.write_text(model_text, encoding="utf-8")
        source = self.make_input(tmp_path, 4)
        rc = main(
            ["augment", "--model", str(bad), "--input", str(source),
             "--output", str(tmp_path / "o.tsv")]
        )
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: line {line_number}: bad ")
        assert "Traceback" not in err

    def test_blank_lines_reported_on_stderr(self, tmp_path, model_file):
        # The real process, so that the warning reaches standard error as
        # it does outside a test run; una fit reports the same line.
        source = tmp_path / "input.txt"
        source.write_text("a b\n\na c\n\n", encoding="utf-8")
        runs = [
            ["fit", "--corpus", str(source), "--output", str(tmp_path / "m")],
            ["augment", "--model", str(model_file), "--input", str(source), "--output", str(tmp_path / "o.tsv")],
        ]
        results = [
            subprocess.run([sys.executable, "-m", "una.cli", *argv], capture_output=True, text=True) for argv in runs
        ]
        assert [result.returncode for result in results] == [0, 0]
        assert results[0].stderr == "skipped 2 blank line(s)\n"
        assert results[1].stderr == results[0].stderr
        assert results[1].stdout == "batches=0 negatives=0 unaugmentable=0\n"

    def test_random_modes_accepted(self, tmp_path, model_file):
        source = self.make_input(tmp_path, 6)
        rc = main(
            ["augment", "--model", str(model_file), "--input", str(source),
             "--output", str(tmp_path / "o.tsv"), "--alpha", "1", "--batch-size", "3",
             "--selection-mode", "random", "--replacement-mode", "random"]
        )
        assert rc == 0


def formatted_negatives(model_path, input_path, config, batch_size):
    """The lines of una augment's output, formatted from the sentences that
    iter_negative_batches yields, and the batches it yields."""
    documents = (Document.from_text(n, text) for n, text in _iter_raw_lines(input_path) if text)
    batches = list(iter_negative_batches(load_model(model_path), documents, config, batch_size))
    lines = [
        "\t".join([str(batch.batch_index), str(sentence.source_id), " ".join(sentence.tokens)]
                  + ["#unaugmentable"] * sentence.unaugmentable)
        for batch in batches
        for sentence in batch.sentences
    ]
    return lines, batches


class TestAugmentWritesBatchColumns:
    """una augment writes each line from its batch's columns, never
    building the sentences; its file must equal the lines formatted from
    the sentences that iter_negative_batches yields on the same input."""

    # c0..c3 occur in every line of the model corpus (score 0, ranks 0..3):
    # at radius 2, a line of them alone forces c0, whose window has no mass.
    ZERO_MASS = [["c0", "c1", "c2", "c3"] + other for other in (["x"], ["y", "z"], ["x", "z", "w"], ["v"])]
    INPUT = [
        "c0 c1", "x y zz", "", "c0", "oov qq", "w v x y z", "c2 c3 c0", "", "",
        "x x x", "qq", "y c1 oov", "z", "v w", "c3 c2", "x c0 y c1", "",
    ]

    @pytest.fixture(scope="class")
    def files(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("columns")
        models = {
            "zero-mass": fit(corpus_from_token_lists(self.ZERO_MASS)),
            "one-term": fit(corpus_from_token_lists([["x"], ["x"]])),
            "sample": fit(load_corpus(SAMPLE_CORPUS)),
        }
        for name, model in models.items():
            save_model(model, root / f"{name}.txt")
        # INPUT between runs of sample lines, for a third batch of 64 that holds INPUT too.
        sample_lines = SAMPLE_CORPUS.read_text(encoding="utf-8").splitlines()
        write_lines(root / "input.txt", [line for k in range(8) for line in self.INPUT + sample_lines[20 * k : 20 * k + 20]])
        return root

    @pytest.mark.parametrize("model_name", ["zero-mass", "one-term", "sample"])
    @pytest.mark.parametrize("selection", ["tfidf", "random"])
    @pytest.mark.parametrize("replacement", ["tfidf", "random"])
    @pytest.mark.parametrize("alpha", [1, 3])
    @pytest.mark.parametrize("batch_size", [1, 7, 64])
    def test_file_equals_formatted_sentences(self, files, capsys, model_name, selection, replacement, alpha, batch_size):
        model_path, input_path, out = files / f"{model_name}.txt", files / "input.txt", files / "out.tsv"
        flags = {"--alpha": alpha, "--batch-size": batch_size, "--radius": 2, "--seed": 5,
                 "--selection-mode": selection, "--replacement-mode": replacement}
        argv = ["augment", "--model", str(model_path), "--input", str(input_path), "--output", str(out)]
        assert main(argv + [str(part) for item in flags.items() for part in item]) == 0
        config = AugmentationConfig(radius=2, alpha=alpha, seed=5, selection_mode=selection, replacement_mode=replacement)
        lines, batches = formatted_negatives(model_path, input_path, config, batch_size)
        assert out.read_text(encoding="utf-8") == "".join(line + "\n" for line in lines)
        marked = sum(line.endswith("\t#unaugmentable") for line in lines)
        summary = f"batches={len(batches)} negatives={len(lines)} unaugmentable={marked}\n"
        assert capsys.readouterr().out == summary
        if model_name == "one-term":  # every row unaugmentable, nothing drawn
            assert marked == len(lines) > 0
        if model_name == "zero-mass" and replacement == "tfidf":  # the uniform fallback is taken
            assert any(negatives.redone for batch in batches for negatives, _, _ in batch._runs)


class TestAugmentStreaming:
    """una augment reads its input as it augments it, so its output is
    written beside --output and renamed onto it only once every line has
    been read and augmented."""

    FLAGS = ["--alpha", "1", "--batch-size", "2", "--seed", "3"]

    def augment(self, model_file, source, out, *extra):
        argv = ["augment", "--model", str(model_file), "--input", str(source), "--output", str(out)]
        return main([*argv, *self.FLAGS, *extra])

    @pytest.fixture
    def source(self, tmp_path):
        path = tmp_path / "input.txt"
        write_lines(path, [f"a b b c{'c' * (i % 3)}" for i in range(40)])
        return path

    @pytest.fixture
    def want(self, tmp_path, model_file, source):
        """The output bytes of a run onto a new file."""
        path = tmp_path / "want.tsv"
        assert self.augment(model_file, source, path) == 0
        return path.read_bytes()

    def test_decode_error_on_last_line_leaves_directory_as_it_was(self, tmp_path, model_file, source, capsys):
        bad = tmp_path / "bad.txt"
        bad.write_bytes(source.read_bytes() + b"a \xff b\n")
        work = tmp_path / "work"
        work.mkdir()
        out = work / "o.tsv"
        assert self.augment(model_file, bad, out) == 1
        offset = source.stat().st_size + 2
        assert capsys.readouterr().err == f"error: invalid UTF-8 at byte {offset} (line 41): invalid start byte\n"
        assert list(work.iterdir()) == []
        out.write_bytes(b"kept\n")
        assert self.augment(model_file, bad, out) == 1
        capsys.readouterr()
        assert [path.name for path in work.iterdir()] == ["o.tsv"]
        assert out.read_bytes() == b"kept\n"

    def test_new_output_gets_the_mode_open_gives(self, tmp_path, model_file, source):
        out = tmp_path / "o.tsv"
        previous = os.umask(0o027)
        try:
            assert self.augment(model_file, source, out) == 0
        finally:
            os.umask(previous)
        assert stat.S_IMODE(out.stat().st_mode) == 0o640

    def test_existing_output_keeps_its_mode(self, tmp_path, model_file, source, want):
        out = tmp_path / "o.tsv"
        out.write_bytes(b"old\n")
        out.chmod(0o604)
        assert self.augment(model_file, source, out) == 0
        assert out.read_bytes() == want
        assert stat.S_IMODE(out.stat().st_mode) == 0o604

    @pytest.mark.parametrize("exists", [True, False], ids=["existing", "dangling"])
    def test_symlinked_output_is_written_through(self, tmp_path, model_file, source, want, exists):
        target = tmp_path / "elsewhere" / "o.tsv"
        target.parent.mkdir()
        if exists:
            target.write_bytes(b"old\n")
        link = tmp_path / "link.tsv"
        link.symlink_to(target)
        assert self.augment(model_file, source, link) == 0
        assert link.is_symlink() and target.read_bytes() == want
        assert [path.name for path in target.parent.iterdir()] == ["o.tsv"]

    def test_output_may_be_the_input(self, model_file, source, want):
        assert self.augment(model_file, source, source) == 0
        assert source.read_bytes() == want

    def test_interrupt_removes_the_temporary_file(self, tmp_path, model_file, source, monkeypatch):
        original = augment.iter_negative_batches

        def interrupted(*args):
            yield next(original(*args))
            raise KeyboardInterrupt

        monkeypatch.setattr(augment, "iter_negative_batches", interrupted)
        work = tmp_path / "work"
        work.mkdir()
        out = work / "o.tsv"
        out.write_bytes(b"kept\n")
        with pytest.raises(KeyboardInterrupt):
            self.augment(model_file, source, out)
        assert [path.name for path in work.iterdir()] == ["o.tsv"]
        assert out.read_bytes() == b"kept\n"

    def test_bad_output_directory_reported_before_a_decode_error(self, tmp_path, model_file, capsys):
        bad = tmp_path / "bad.txt"
        bad.write_bytes(b"a \xff b\n")
        out = tmp_path / "missing" / "o.tsv"
        assert self.augment(model_file, bad, out) == 1
        assert capsys.readouterr().err == f"error: [Errno 2] No such file or directory: {str(out)!r}\n"

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
    def test_pipe_output_is_written_directly(self, tmp_path, model_file, source, want):
        pipe = tmp_path / "pipe"
        os.mkfifo(pipe)
        received = []
        reader = threading.Thread(target=lambda: received.append(pipe.read_bytes()), daemon=True)
        reader.start()
        try:
            assert self.augment(model_file, source, pipe) == 0
        finally:
            reader.join(timeout=60)
        assert received == [want]

    def test_input_is_read_as_batches_are_written(self, tmp_path, model_file, monkeypatch):
        # 5,000 lines of four tokens fill more than two passes of
        # augment._PASS_CELLS // 8 rows each.
        source = tmp_path / "input.txt"
        write_lines(source, ["a b b c"] * 5_000)
        exhausted, at_batches = [], []
        read_lines, negative_batches = cli._nonblank_lines, augment.iter_negative_batches

        def lines(handle):
            yield from read_lines(handle)
            exhausted.append(True)

        def batches(*args):
            for batch in negative_batches(*args):
                at_batches.append(bool(exhausted))
                yield batch

        monkeypatch.setattr(cli, "_nonblank_lines", lines)
        monkeypatch.setattr(augment, "iter_negative_batches", batches)
        assert self.augment(model_file, source, tmp_path / "o.tsv", "--batch-size", "64") == 0
        assert len(at_batches) == 79 and not at_batches[0] and exhausted

    def test_peak_memory_does_not_grow_with_input_length(self, tmp_path, capsys):
        model = tmp_path / "model.txt"
        assert main(["fit", "--corpus", str(SAMPLE_CORPUS), "--output", str(model)]) == 0
        peaks = []
        for copies in (1, 16):
            source = tmp_path / f"input-{copies}.txt"
            source.write_bytes(SAMPLE_CORPUS.read_bytes() * copies)
            tracemalloc.start()
            try:
                assert self.augment(model, source, tmp_path / "o.tsv", "--batch-size", "64", "--radius", "4000") == 0
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        capsys.readouterr()
        assert peaks[1] < peaks[0] + 1_000_000


class TestEval:
    def make_pairs(self, tmp_path):
        path = tmp_path / "pairs.tsv"
        write_lines(
            path,
            ["a b\ta b\t5.0", "a b\ta c\t3.0", "b\tc\t0.5", "a\tzz\t0.0"],
        )
        return path

    def test_reports_rho(self, tmp_path, model_file, capsys):
        rc = main(["eval", "--pairs", str(self.make_pairs(tmp_path)), "--model", str(model_file)])
        assert rc == 0
        out = capsys.readouterr().out
        assert out.startswith("rho=") and " n=4" in out
        rho = float(out.split()[0].split("=")[1])
        assert -1.0 <= rho <= 1.0

    def test_single_line_exits_3(self, tmp_path, model_file, capsys):
        pairs = tmp_path / "pairs.tsv"
        write_lines(pairs, ["a b\ta b\t5.0"])
        assert main(["eval", "--pairs", str(pairs), "--model", str(model_file)]) == 3
        capsys.readouterr()

    def test_malformed_tsv_exits_1_with_line(self, tmp_path, model_file, capsys):
        pairs = tmp_path / "pairs.tsv"
        write_lines(pairs, ["a b\ta b\t5.0", "only one column"])
        assert main(["eval", "--pairs", str(pairs), "--model", str(model_file)]) == 1
        assert "line 2" in capsys.readouterr().err

    @pytest.mark.parametrize("gold", ["1_0", "\u0663"])
    def test_gold_not_plain_ascii_exits_1_with_line(self, tmp_path, model_file, capsys, gold):
        pairs = tmp_path / "pairs.tsv"
        write_lines(pairs, ["a b\ta b\t5.0", f"a\tb\t{gold}", "b\tc\t0.5"])
        assert main(["eval", "--pairs", str(pairs), "--model", str(model_file)]) == 1
        assert "line 2" in capsys.readouterr().err

    def test_encoder_flags_change_result(self, tmp_path, model_file, capsys):
        pairs = self.make_pairs(tmp_path)
        main(["eval", "--pairs", str(pairs), "--model", str(model_file), "--encoder-seed", "1"])
        first = capsys.readouterr().out
        main(["eval", "--pairs", str(pairs), "--model", str(model_file), "--encoder-seed", "1"])
        assert capsys.readouterr().out == first

    def test_bad_dim_exits_2(self, tmp_path, model_file, capsys):
        pairs = self.make_pairs(tmp_path)
        assert main(["eval", "--pairs", str(pairs), "--model", str(model_file), "--dim", "0"]) == 2
        capsys.readouterr()

    def test_negative_encoder_seed_exits_2(self, tmp_path, model_file, capsys):
        pairs = self.make_pairs(tmp_path)
        rc = main(["eval", "--pairs", str(pairs), "--model", str(model_file), "--encoder-seed", "-1"])
        assert rc == 2
        capsys.readouterr()

    @pytest.mark.parametrize("seed", [str(2**64), "9" * 4299], ids=["2**64", "4299-digits"])
    def test_encoder_seed_above_64_bits_exits_2(self, tmp_path, model_file, seed, capsys):
        pairs = self.make_pairs(tmp_path)
        rc = main(["eval", "--pairs", str(pairs), "--model", str(model_file), "--encoder-seed", seed])
        assert rc == 2
        assert "encoder-seed" in capsys.readouterr().err
        config = tmp_path / "una.conf"
        config.write_text(f"encoder-seed={seed}\n", encoding="utf-8")
        rc = main(["eval", "--pairs", str(pairs), "--model", str(model_file), "--config", str(config)])
        assert rc == 2
        assert "encoder-seed" in capsys.readouterr().err

    def test_largest_encoder_seed_accepted(self, tmp_path, model_file, capsys):
        pairs = self.make_pairs(tmp_path)
        rc = main(["eval", "--pairs", str(pairs), "--model", str(model_file), "--encoder-seed", str(2**64 - 1)])
        assert rc == 0
        assert capsys.readouterr().out.startswith("rho=")

    def test_blank_lines_reported_on_stderr(self, tmp_path, model_file):
        # The real process, as in TestAugment: the warning reaches standard error.
        pairs = tmp_path / "pairs.tsv"
        pairs.write_text("a b\ta b\t5.0\n\na b\ta c\t3.0\nb\tc\t0.5\n\n\n", encoding="utf-8")
        argv = ["eval", "--pairs", str(pairs), "--model", str(model_file)]
        result = subprocess.run([sys.executable, "-m", "una.cli", *argv], capture_output=True, text=True)
        assert (result.returncode, result.stderr) == (0, "skipped 3 blank line(s)\n")
        assert result.stdout.startswith("rho=") and result.stdout.endswith(" n=3\n")

    def test_blank_lines_then_malformed_last_line_report_only_the_error(self, tmp_path, model_file):
        # The real process: the error ends the read, so no blank-line warning is given.
        pairs = tmp_path / "pairs.tsv"
        pairs.write_text("a b\ta b\t5.0\n\na b\ta c\t3.0\n\nb\tc\n", encoding="utf-8")
        argv = ["eval", "--pairs", str(pairs), "--model", str(model_file)]
        result = subprocess.run([sys.executable, "-m", "una.cli", *argv], capture_output=True, text=True)
        assert (result.returncode, result.stdout) == (1, "")
        assert result.stderr == "error: line 5: expected 3 tab-separated columns, got 2\n"

    def test_peak_memory_grows_under_64_bytes_a_pair(self, tmp_path, capsys):
        # The pairs are parsed as evaluate_pairs reads them, so a run keeps
        # a similarity and a gold score a pair, not the file's lines. Each
        # size runs in a fresh process, so neither sees the other's heap.
        model = tmp_path / "model.txt"
        assert main(["fit", "--corpus", str(SAMPLE_CORPUS), "--output", str(model)]) == 0
        capsys.readouterr()
        lines = SAMPLE_CORPUS.read_text(encoding="utf-8").splitlines()
        rows = "".join(f"{a}\t{b}\t{k % 7}\n" for k, (a, b) in enumerate(zip(lines, lines[1:])))
        code = (
            "import sys, tracemalloc; from una.cli import main; tracemalloc.start(); "
            "assert main(sys.argv[1:]) == 0; print(tracemalloc.get_traced_memory()[1])"
        )
        peaks = []
        for copies in (1, 16):
            pairs = tmp_path / f"pairs-{copies}.tsv"
            pairs.write_text(rows * copies, encoding="utf-8")
            argv = ["eval", "--pairs", str(pairs), "--model", str(model)]
            result = subprocess.run([sys.executable, "-c", code, *argv], capture_output=True, text=True)
            assert result.returncode == 0, result.stderr
            peaks.append(int(result.stdout.splitlines()[-1]))
        added = 15 * (len(lines) - 1)
        assert peaks[1] - peaks[0] < 64 * added, (peaks, (peaks[1] - peaks[0]) / added)

    def test_constant_gold_exits_3(self, tmp_path, model_file, capsys):
        pairs = tmp_path / "pairs.tsv"
        write_lines(pairs, ["a b\ta b\t1.0", "a\tb\t1.0", "b\tc\t1.0"])
        assert main(["eval", "--pairs", str(pairs), "--model", str(model_file)]) == 3
        assert "constant" in capsys.readouterr().err


class TestLossDemo:
    def make_inputs(self, tmp_path):
        corpus = tmp_path / "corpus.txt"
        write_lines(corpus, [f"w{i} common w{i + 1} w{i + 2}" for i in range(30)])
        pairs = tmp_path / "pairs.tsv"
        write_lines(pairs, [f"w{i} common w{i + 1}\tw{i} common w{i + 3}" for i in range(10)])
        return corpus, pairs

    def test_prints_both_losses_with_una_not_smaller(self, tmp_path, capsys):
        corpus, pairs = self.make_inputs(tmp_path)
        rc = main(["loss-demo", "--corpus", str(corpus), "--pairs", str(pairs), "--seed", "5"])
        assert rc == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0].startswith("loss_without_una=") and out[1].startswith("loss_with_una=")
        without = float(out[0].split("=")[1])
        with_una = float(out[1].split("=")[1])
        assert with_una >= without
        assert math.isfinite(with_una)

    def test_flags_select_single_variant(self, tmp_path, capsys):
        corpus, pairs = self.make_inputs(tmp_path)
        assert main(["loss-demo", "--corpus", str(corpus), "--pairs", str(pairs), "--without-una"]) == 0
        out = capsys.readouterr().out
        assert "loss_without_una=" in out and "loss_with_una=" not in out
        assert main(["loss-demo", "--corpus", str(corpus), "--pairs", str(pairs), "--with-una"]) == 0
        out = capsys.readouterr().out
        assert "loss_with_una=" in out and "loss_without_una=" not in out

    def test_deterministic(self, tmp_path, capsys):
        corpus, pairs = self.make_inputs(tmp_path)
        args = ["loss-demo", "--corpus", str(corpus), "--pairs", str(pairs), "--seed", "9"]
        assert main(args) == 0
        first = capsys.readouterr().out
        assert main(args) == 0
        assert capsys.readouterr().out == first

    def test_tau_flag_changes_loss(self, tmp_path, capsys):
        corpus, pairs = self.make_inputs(tmp_path)
        base = ["loss-demo", "--corpus", str(corpus), "--pairs", str(pairs), "--seed", "1"]
        main(base)
        default_out = capsys.readouterr().out
        main(base + ["--tau", "0.05"])
        explicit_out = capsys.readouterr().out
        assert explicit_out == default_out  # 0.05 is the default temperature
        main(base + ["--tau", "1.0"])
        assert capsys.readouterr().out != default_out

    @pytest.mark.parametrize("tau", ["nan", "inf", "-inf", "0", "-1"])
    def test_bad_tau_exits_2(self, tmp_path, capsys, tau):
        corpus, pairs = self.make_inputs(tmp_path)
        assert main(["loss-demo", "--corpus", str(corpus), "--pairs", str(pairs), "--tau", tau]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "tau" in captured.err

    def test_too_few_pairs_exits_3(self, tmp_path, capsys):
        corpus, _ = self.make_inputs(tmp_path)
        pairs = tmp_path / "one.tsv"
        write_lines(pairs, ["a\tb"])
        assert main(["loss-demo", "--corpus", str(corpus), "--pairs", str(pairs)]) == 3
        capsys.readouterr()

    def test_blank_lines_reported_on_stderr(self, tmp_path):
        # The real process, as in TestAugment: the warning reaches standard error.
        corpus, pairs = self.make_inputs(tmp_path)
        pairs.write_text("\n" + pairs.read_text(encoding="utf-8") + "\n", encoding="utf-8")
        argv = ["loss-demo", "--corpus", str(corpus), "--pairs", str(pairs)]
        result = subprocess.run([sys.executable, "-m", "una.cli", *argv], capture_output=True, text=True)
        assert (result.returncode, result.stderr) == (0, "skipped 2 blank line(s)\n")
        assert result.stdout.startswith("loss_without_una=")

    def test_blank_lines_then_malformed_last_line_report_only_the_error(self, tmp_path):
        # The real process: the error ends the read, so no blank-line warning is given.
        corpus, pairs = self.make_inputs(tmp_path)
        pairs.write_text("\n" + pairs.read_text(encoding="utf-8") + "\n\nw1 common\n", encoding="utf-8")
        argv = ["loss-demo", "--corpus", str(corpus), "--pairs", str(pairs)]
        result = subprocess.run([sys.executable, "-m", "una.cli", *argv], capture_output=True, text=True)
        assert (result.returncode, result.stdout) == (1, "")
        assert result.stderr == "error: line 14: expected 2 tab-separated columns, got 1\n"

    def test_missing_pairs_file_exits_1(self, tmp_path):
        corpus, _ = self.make_inputs(tmp_path)
        assert main(["loss-demo", "--corpus", str(corpus), "--pairs", str(tmp_path / "no.tsv")]) == 1


class TestModelDecodeError:
    """A model file with invalid UTF-8 exits 1, naming the line and the
    byte offset in the file, wherever the byte lies."""

    @pytest.fixture
    def model_bytes(self, tmp_path):
        # About 140 KB, so the model spans several of the reader's blocks.
        corpus = tmp_path / "corpus.txt"
        write_lines(corpus, [f"w{k} w{k + 1} w{k * 7 % 3001}" for k in range(3000)])
        path = tmp_path / "model.txt"
        assert main(["fit", "--corpus", str(corpus), "--output", str(path)]) == 0
        return path.read_bytes()

    @pytest.mark.parametrize("section", ["header", "terms", "ranks"])
    def test_augment_exits_1(self, tmp_path, model_bytes, section, capsys):
        data = bytearray(model_bytes)
        term_line = data.index(b"\n", len(data) // 2)
        offset = {"header": 4, "terms": term_line + 2, "ranks": len(data) - 8}[section]
        data[offset] = 0xFF
        line = data.count(b"\n", 0, offset) + 1
        model = tmp_path / "model.txt"
        model.write_bytes(data)
        source = tmp_path / "input.txt"
        write_lines(source, ["w1 w2 w3"])
        out = tmp_path / "o.tsv"
        capsys.readouterr()
        assert main(["augment", "--model", str(model), "--input", str(source), "--output", str(out)]) == 1
        assert capsys.readouterr().err == f"error: invalid UTF-8 at byte {offset} (line {line}): invalid start byte\n"
        assert not out.exists()


class TestConfigFile:
    def test_config_supplies_defaults_and_flags_override(self, tmp_path, model_file, capsys):
        source = tmp_path / "input.txt"
        write_lines(source, ["a b b"] * 20)
        config = tmp_path / "una.conf"
        config.write_text("# sweep settings\nalpha=2\nbatch-size=5\nseed=1\n", encoding="utf-8")

        out = tmp_path / "o1.tsv"
        rc = main(
            ["augment", "--model", str(model_file), "--input", str(source),
             "--output", str(out), "--config", str(config)]
        )
        assert rc == 0
        # 20 lines / batch 5 = 4 batches, alpha=2 injects batches 2 and 4
        assert capsys.readouterr().out == "batches=2 negatives=10 unaugmentable=0\n"

        out2 = tmp_path / "o2.tsv"
        rc = main(
            ["augment", "--model", str(model_file), "--input", str(source),
             "--output", str(out2), "--config", str(config), "--alpha", "4"]
        )
        assert rc == 0
        assert capsys.readouterr().out == "batches=1 negatives=5 unaugmentable=0\n"

    def test_bad_config_value_exits_2(self, tmp_path, model_file, capsys):
        source = tmp_path / "input.txt"
        write_lines(source, ["a b"])
        config = tmp_path / "una.conf"
        config.write_text("beta=not-a-number\n", encoding="utf-8")
        rc = main(
            ["augment", "--model", str(model_file), "--input", str(source),
             "--output", str(tmp_path / "o.tsv"), "--config", str(config)]
        )
        assert rc == 2
        capsys.readouterr()

    def test_malformed_config_line_exits_2(self, tmp_path, model_file, capsys):
        source = tmp_path / "input.txt"
        write_lines(source, ["a b"])
        config = tmp_path / "una.conf"
        config.write_text("just-a-word\n", encoding="utf-8")
        rc = main(
            ["augment", "--model", str(model_file), "--input", str(source),
             "--output", str(tmp_path / "o.tsv"), "--config", str(config)]
        )
        assert rc == 2
        capsys.readouterr()

    @pytest.mark.parametrize(
        "entry, key",
        [
            ("betta=0.9", "betta"),  # misspelt
            ("tau=0.1", "tau"),  # a loss-demo flag, not an augment one
            ("output=elsewhere.tsv", "output"),  # required on the command line
        ],
    )
    def test_unknown_config_key_exits_2(self, tmp_path, model_file, entry, key, capsys):
        source = tmp_path / "input.txt"
        write_lines(source, ["a b"])
        config = tmp_path / "una.conf"
        config.write_text(f"seed=1\n{entry}\n", encoding="utf-8")
        rc = main(
            ["augment", "--model", str(model_file), "--input", str(source),
             "--output", str(tmp_path / "o.tsv"), "--config", str(config)]
        )
        assert rc == 2
        assert f"una.conf:2: unknown key {key!r}" in capsys.readouterr().err

    def test_repeated_key_exits_2(self, tmp_path, model_file, capsys):
        source = tmp_path / "input.txt"
        write_lines(source, ["a b"])
        config = tmp_path / "una.conf"
        config.write_text("seed=1\n# a comment\nalpha=1\nseed=2\n", encoding="utf-8")
        out = tmp_path / "o.tsv"
        rc = main(
            ["augment", "--model", str(model_file), "--input", str(source),
             "--output", str(out), "--config", str(config)]
        )
        assert rc == 2
        assert f"{config}:4: key 'seed' given twice (first on line 1)" in capsys.readouterr().err
        assert not out.exists()

    def test_switch_is_not_a_config_key(self, tmp_path, capsys):
        corpus = tmp_path / "corpus.txt"
        write_lines(corpus, ["a b c", "b c d"])
        pairs = tmp_path / "pairs.tsv"
        write_lines(pairs, ["a b\ta c", "b c\tb d"])
        config = tmp_path / "una.conf"
        config.write_text("with-una=1\n", encoding="utf-8")
        rc = main(["loss-demo", "--corpus", str(corpus), "--pairs", str(pairs), "--config", str(config)])
        assert rc == 2
        assert "unknown key 'with-una'" in capsys.readouterr().err


    def test_invalid_byte_exits_1_naming_line_and_byte(self, tmp_path, model_file, capsys):
        source = tmp_path / "input.txt"
        write_lines(source, ["a b"])
        config = tmp_path / "una.conf"
        data = "seed=1\n# caf\u00e9 settings\n".encode("utf-8").replace(b"settings", b"\xff")
        config.write_bytes(data)
        out = tmp_path / "o.tsv"
        rc = main(
            ["augment", "--model", str(model_file), "--input", str(source),
             "--output", str(out), "--config", str(config)]
        )
        assert rc == 1
        offset = data.index(b"\xff")
        assert capsys.readouterr().err == f"error: invalid UTF-8 at byte {offset} (line 2): invalid start byte\n"
        assert not out.exists()

    def test_lines_end_at_line_feeds(self, tmp_path, model_file, capsys):
        # A CR before a LF is dropped; a lone CR ends no line, as in every input file.
        source = tmp_path / "input.txt"
        write_lines(source, ["a b b"] * 20)
        config = tmp_path / "una.conf"
        argv = ["augment", "--model", str(model_file), "--input", str(source),
                "--output", str(tmp_path / "o.tsv"), "--config", str(config)]
        config.write_bytes(b"# sweep settings\r\nalpha=2\r\nbatch-size=5\r\n")
        assert main(argv) == 0
        assert capsys.readouterr().out == "batches=2 negatives=10 unaugmentable=0\n"
        config.write_bytes(b"alpha=2\rbatch-size=5\r")
        assert main(argv) == 2
        assert "argument --alpha: invalid int value: '2\\rbatch-size=5'" in capsys.readouterr().err


def _subparsers():
    (action,) = [a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    return action.choices


# Two valid values of every config key that give different outputs.
_KEY_VALUES = {
    "beta": ("0.9", "0.2"), "radius": ("3", "40"), "alpha": ("2", "3"), "seed": ("3", "4"),
    "batch_size": ("10", "12"), "selection_mode": ("random", "tfidf"), "replacement_mode": ("random", "tfidf"),
    "tau": ("0.5", "0.2"), "dim": ("7", "9"), "encoder_seed": ("5", "6"),
}


class TestConfigPrecedence:
    """For every config key of every subcommand: key=v in a config file
    acts as --key v does, and a flag beats a conflicting config entry."""

    @pytest.fixture(scope="class")
    def files(self, tmp_path_factory):
        work = tmp_path_factory.mktemp("precedence")
        assert main(["fit", "--corpus", str(SAMPLE_CORPUS), "--output", str(work / "model.txt")]) == 0
        pairs = SAMPLE_PAIRS.read_text(encoding="utf-8").splitlines()
        write_lines(work / "gold.tsv", [f"{pair}\t{k % 7}" for k, pair in enumerate(pairs)])
        return work

    @staticmethod
    def run(command, files, tmp_path, capsys, flags=(), config=None):
        out = tmp_path / "out.tsv"
        out.unlink(missing_ok=True)
        argv = {
            "augment": ["augment", "--model", str(files / "model.txt"), "--input", str(SAMPLE_CORPUS),
                        "--output", str(out)],
            "eval": ["eval", "--pairs", str(files / "gold.tsv"), "--model", str(files / "model.txt")],
            "loss-demo": ["loss-demo", "--corpus", str(SAMPLE_CORPUS), "--pairs", str(SAMPLE_PAIRS)],
        }[command]
        if config is not None:
            (tmp_path / "una.conf").write_text(config, encoding="utf-8")
            argv += ["--config", str(tmp_path / "una.conf")]
        code = main([*argv, *flags])
        return code, capsys.readouterr().out, out.read_bytes() if out.exists() else None

    @pytest.mark.parametrize(
        "command, key",
        [(command, key) for command, subparser in _subparsers().items() for key in sorted(cli._config_keys(subparser))],
    )
    def test_config_entry_acts_as_flag(self, files, tmp_path, capsys, command, key):
        flag, (value, other) = "--" + key.replace("_", "-"), _KEY_VALUES[key]
        from_flag = self.run(command, files, tmp_path, capsys, flags=[flag, value])
        from_config = self.run(command, files, tmp_path, capsys, config=f"{key.replace('_', '-')}={value}\n")
        other_flag = self.run(command, files, tmp_path, capsys, flags=[flag, other])
        overridden = self.run(command, files, tmp_path, capsys, flags=[flag, other], config=f"{key}={value}\n")
        assert from_flag[0] == 0 and other_flag != from_flag
        assert from_config == from_flag
        assert overridden == other_flag


class TestDimCap:
    """--dim sizes every term vector, so a value above MAX_DIM exits 2
    before any input file is read or any encoder is built."""

    class Built(Exception):
        pass

    @pytest.fixture(autouse=True)
    def no_encoder(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise TestDimCap.Built

        monkeypatch.setattr(contrastive, "ToyEncoder", refuse)

    @staticmethod
    def argv(command, files, dim_flags):
        if command == "eval":
            return ["eval", "--pairs", str(files[0]), "--model", str(files[1]), *dim_flags]
        return ["loss-demo", "--corpus", str(files[0]), "--pairs", str(files[1]), *dim_flags]

    @pytest.mark.parametrize("command", ["eval", "loss-demo"])
    @pytest.mark.parametrize("dim", [MAX_DIM + 1, 10**9])
    def test_too_large_exits_2_before_reading_files(self, tmp_path, capsys, command, dim):
        missing = [tmp_path / "missing1", tmp_path / "missing2"]  # reading either would exit 1
        assert main(self.argv(command, missing, ["--dim", str(dim)])) == 2
        err = capsys.readouterr().err
        assert f"--dim must be in [1, {MAX_DIM}], got {dim}" in err

    @pytest.mark.parametrize("command", ["eval", "loss-demo"])
    def test_config_value_is_capped(self, tmp_path, capsys, command):
        config = tmp_path / "una.conf"
        config.write_text(f"dim={10**9}\n", encoding="utf-8")
        missing = [tmp_path / "missing1", tmp_path / "missing2"]
        assert main(self.argv(command, missing, ["--config", str(config)])) == 2
        assert "--dim" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["eval", "loss-demo"])
    def test_cap_is_accepted(self, tmp_path, command):
        corpus = tmp_path / "corpus.txt"
        write_lines(corpus, ["a b c", "b c d"])
        pairs = tmp_path / "pairs.tsv"
        gold = ["\t1.0", "\t2.0"] if command == "eval" else ["", ""]
        write_lines(pairs, ["a b\ta c" + gold[0], "b c\tb d" + gold[1]])
        model = tmp_path / "model.txt"
        assert main(["fit", "--corpus", str(corpus), "--output", str(model)]) == 0
        files = [pairs, model] if command == "eval" else [corpus, pairs]
        with pytest.raises(TestDimCap.Built):
            main(self.argv(command, files, ["--dim", str(MAX_DIM)]))


# A valid model, and near misses of its format: headers, term lines and
# rank lines that each break one rule. A fuzzed model is the valid one
# with up to two lines replaced by near misses, or arbitrary bytes.
_VALID_MODEL = ["UNA-TFIDF v1 N=2 m=3", "a\t0.0\t0.0", "b\t0.5\t0.25", "c\t0.5\t0.5", "ranks:", "0 1 2"]
_NEAR_MISSES = [
    "UNA-TFIDF v1 N=1 m=1", "UNA-TFIDF v1 N=0 m=3", "UNA-TFIDF v1 N=2 m=0", "UNA-TFIDF v2 N=2 m=3",
    "UNA-TFIDF v1 N=2 m=-1", "UNA-TFIDF v1 N=2 m=3 ", "una-tfidf v1 N=2 m=3", "UNA-TFIDF v1 N=\u00b2 m=3",
    "a\t0.5", "A\t1\t1", "a b\t1\t1", "d\tnan\t0", "e\t-1\t0", "f\t1e309\t0", "\t1\t1",
    "g\t1\t1\tx", "h.\t1\t1", "\u00b2\t1\t1", "b\t0.5\t0.25",
    "ranks", "RANKS:", "0 1", "2 1 0", "0 0 1", "1 0 2", "0 1 \u00b2", "0 -1 2", "0 1 9", "0 1 2 3", "",
]


@st.composite
def _model_text(draw):
    lines = list(_VALID_MODEL)
    for _ in range(draw(st.integers(0, 2))):
        lines[draw(st.integers(0, len(lines) - 1))] = draw(st.sampled_from(_NEAR_MISSES))
    return draw(st.sampled_from(["\n", "\r\n"])).join(lines) + draw(st.sampled_from(["", "\n"]))


_WORDS = ["a", "b", "c", "zz", "A.", "x-1", "", " ", "é", "\u2028", "\ufeff", "0.5", "3", "-1", "nan", "inf"]
_text_lines = st.lists(
    st.lists(st.sampled_from(_WORDS), min_size=1, max_size=4).map("".join),
    max_size=8,
).map(lambda lines: "\n".join(lines))
_side = st.lists(st.sampled_from(_WORDS), min_size=1, max_size=3).map(" ".join)
_gold = st.sampled_from(["0", "0.5", "3", "-1", "nan", "inf", "1e309", "x", ""])
_two_columns = st.tuples(_side, _side).map("\t".join)  # anchor, positive
_three_columns = st.tuples(_side, _side, _gold).map("\t".join)  # sentence, sentence, gold
_any_columns = st.lists(_side, min_size=1, max_size=4).map("\t".join)


def _pair_lines(line):
    return st.lists(st.one_of(line, line, line, _any_columns), max_size=6).map(
        lambda lines: "\n".join(lines) + "\n"
    )


_file_bytes = st.one_of(
    st.binary(max_size=48),
    _text_lines.map(str.encode),
    _pair_lines(_any_columns).map(str.encode),
    st.tuples(_text_lines, st.binary(max_size=4)).map(lambda parts: parts[0].encode() + parts[1]),
)
# Config keys of every subcommand and some that none has; "dim" is left
# out because it sizes the encoder's vectors.
_CONFIG_KEYS = [
    "beta", "radius", "alpha", "seed", "batch-size", "selection-mode", "replacement-mode", "tau",
    "encoder-seed", "betta", "output", "with-una", "config",
]
_CONFIG_VALUES = [
    "0", "1", "2", "0.5", "-1", "nan", "inf", "x", "tfidf", "random", "", "1e309", "99999999999999999999",
]
_config_text = st.lists(
    st.one_of(
        st.builds("{}={}".format, st.sampled_from(_CONFIG_KEYS), st.sampled_from(_CONFIG_VALUES)),
        st.sampled_from(["# comment", "no-equals", "=1", " alpha = 1 "]),
    ),
    max_size=4,
).map(lambda lines: "\n".join(lines) + "\n")


@st.composite
def _invocations(draw):
    """A subcommand with fuzzed input files: (argv, {file name: bytes})."""
    command = draw(st.sampled_from(["fit", "augment", "eval", "loss-demo"]))
    model = draw(st.one_of(_model_text().map(str.encode), _model_text().map(str.encode), _file_bytes))
    files = {
        "model": model,
        "corpus": draw(st.one_of(_text_lines.map(str.encode), _file_bytes)),
        "input": draw(st.one_of(_text_lines.map(str.encode), _file_bytes)),
        "pairs": draw(st.one_of(
            _pair_lines(_three_columns if command == "eval" else _two_columns).map(str.encode), _file_bytes
        )),
        "config": draw(_config_text).encode("utf-8"),
    }
    flags = {
        "fit": ["--corpus", "corpus", "--output", "out"],
        "augment": ["--model", "model", "--input", "input", "--output", "out", "--alpha", "1"],
        "eval": ["--pairs", "pairs", "--model", "model"],
        "loss-demo": ["--corpus", "corpus", "--pairs", "pairs"],
    }[command]
    if draw(st.booleans()):
        flags += ["--config", "config"]
    return [command, *flags], files


class TestExitCodeContract:
    """Whatever the input files hold, every subcommand exits 0-3 without a
    traceback. No fuzzed number sizes an allocation: model sizes are
    checked against the file's length before anything is allocated, and
    --dim is never set."""

    @settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(invocation=_invocations())
    def test_fuzzed_files(self, tmp_path, capsys, invocation):
        argv, files = invocation
        for name, data in files.items():
            (tmp_path / name).write_bytes(data)
        paths = {name: str(tmp_path / name) for name in [*files, "out"]}
        code = main([paths.get(arg, arg) for arg in argv])
        err = capsys.readouterr().err
        assert code in (0, 1, 2, 3), (code, err)
        assert "Traceback" not in err


class TestParser:
    def test_unknown_subcommand_exits_2(self, capsys):
        assert main(["frobnicate"]) == 2
        capsys.readouterr()

    def test_no_subcommand_exits_2(self, capsys):
        assert main([]) == 2
        capsys.readouterr()

    def test_help_exits_0(self, capsys):
        assert main(["--help"]) == 0
        capsys.readouterr()
