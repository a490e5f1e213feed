"""workers.fork_map, and the outputs of the commands that split their work
with it (tweet byte ranges, resampling replicates, synth's generation
cells) on 1 to 6 workers."""

import gc
import hashlib
import json
import os
import signal
import subprocess
import sys
import time

import pytest

from geoscale import ingest, synth, workers
from geoscale.cli import main

STUDY = "--study=-3.0,50.0,-2.0,51.0"
# TestOracleBytes' study: points, boxes, commuters and bots
PINNED_SYNTH = ["synth", STUDY, "--x-gen", "5", "--b-true", "0.005", "--c-true", "2.0",
                "--pop-log10-mean", "1.0", "--pop-log10-sigma", "0.5", "--seed", "11",
                "--emit-boxes-fraction", "0.5", "--commuter-fraction", "0.3",
                "--bots", "2"]


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def as_on_cpus(monkeypatch, k):
    """Split all work as on k usable CPUs, however little there is."""
    monkeypatch.setattr(workers, "usable_cpus", lambda: k)
    monkeypatch.setattr(workers, "MIN_WORK_S", 1e-12)
    monkeypatch.setattr(ingest, "_RANGE_BYTES", 1)


def in_worker(fail):
    """A chunk function that calls fail() in a forked worker and returns
    its chunk in this process."""
    parent = os.getpid()

    def fn(chunk):
        if os.getpid() != parent:
            fail()
        return chunk

    return fn


def raise_(error):
    raise error


@pytest.mark.parametrize("k", range(1, 7))
def test_results_come_back_in_chunk_order(monkeypatch, k):
    monkeypatch.setattr(workers, "usable_cpus", lambda: k)
    assert workers.worker_count(100.0, 1.0) == k
    assert workers.worker_count(2.5, 1.0) == min(k, 2)
    chunks = workers.blocks(range(20), k)
    assert [i for chunk in chunks for i in chunk] == list(range(20))
    assert len(chunks) == k and max(map(len, chunks)) - min(map(len, chunks)) <= 1
    parts = workers.fork_map(lambda chunk: (os.getpid(), [i * i for i in chunk]),
                             chunks)
    assert [sq for _, part in parts for sq in part] == [i * i for i in range(20)]
    assert parts[0][0] == os.getpid()
    assert len({pid for pid, _ in parts}) == k
    monkeypatch.setattr(workers, "MIN_WORK_S", 1e-12)
    pids = workers.split_map(lambda chunk: [(i, os.getpid()) for i in chunk], range(20))
    assert [i for i, _ in pids] == list(range(20))
    assert len({pid for _, pid in pids}) == k
    assert_no_child_left()


def test_shares_tile_the_total_in_order():
    for total in range(51):
        for k in range(1, 7):
            shares = [workers.share(total, k, b) for b in range(k)]
            assert shares[0][0] == 0 and shares[-1][1] == total
            assert all(a[1] == b[0] for a, b in zip(shares, shares[1:]))
            sizes = [end - start for start, end in shares]
            assert min(sizes) >= 0 and max(sizes) - min(sizes) <= 1


@pytest.mark.parametrize("error", [ValueError("in a worker"), MemoryError()])
def test_a_worker_exception_is_raised_here(error):
    with pytest.raises(type(error)):
        workers.fork_map(in_worker(lambda: raise_(error)), range(3))
    assert_no_child_left()


def test_a_worker_killed_by_a_signal_is_a_child_process_error():
    with pytest.raises(ChildProcessError, match="without a result"):
        workers.fork_map(in_worker(lambda: os.kill(os.getpid(), signal.SIGKILL)),
                         range(3))
    assert_no_child_left()


def test_no_worker_is_left_after_an_interrupted_parent():
    """Workers that would run for a minute are killed and waited for when
    this process's own chunk is interrupted."""
    parent = os.getpid()

    def fn(chunk):
        if os.getpid() != parent:
            time.sleep(60)
        raise KeyboardInterrupt

    start = time.monotonic()
    with pytest.raises(KeyboardInterrupt):
        workers.fork_map(fn, range(4))
    assert time.monotonic() - start < 30
    assert_no_child_left()


def running(pid) -> bool:
    """Whether a process is alive and not a zombie."""
    try:
        with open(f"/proc/{pid}/stat") as fh:
            return fh.read().rsplit(")", 1)[1].split()[0] != "Z"
    except FileNotFoundError:
        return False


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="prctl is Linux's")
def test_no_worker_is_left_after_the_parent_is_killed(tmp_path):
    """A parent SIGKILLed while its workers run (as on a timeout) takes
    them with it, though each would run for a minute."""
    pids = tmp_path / "pids"
    script = (
        "import os, signal, sys, time\n"
        "from geoscale import workers\n"
        "parent = os.getpid()\n"
        "def fn(chunk):\n"
        "    if os.getpid() != parent:\n"
        "        with open(sys.argv[1], 'a') as fh:\n"
        "            fh.write(f'{os.getpid()}\\n')\n"
        "        time.sleep(60)\n"
        "    while not os.path.exists(sys.argv[1]) or "
        "len(open(sys.argv[1]).read().split()) < 2:\n"
        "        time.sleep(0.01)\n"
        "    os.kill(parent, signal.SIGKILL)\n"
        "workers.fork_map(fn, range(3))\n")
    src = os.path.dirname(os.path.dirname(workers.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    run = subprocess.run([sys.executable, "-c", script, str(pids)], env=env,
                         capture_output=True, text=True, timeout=30)
    assert run.returncode == -signal.SIGKILL, run.stderr
    left = [int(pid) for pid in pids.read_text().split()]
    assert len(left) == 2
    deadline = time.monotonic() + 10
    while any(map(running, left)) and time.monotonic() < deadline:
        time.sleep(0.05)
    assert not any(map(running, left))


def test_only_the_program_s_own_process_counts_its_cpus(monkeypatch):
    monkeypatch.setattr(workers, "_forking", False)
    assert workers.usable_cpus() == 1
    assert workers.worker_count(100.0, 1.0) == 1
    workers.allow_forking()
    assert workers.usable_cpus() == len(os.sched_getaffinity(0))


def test_serial_without_fork(monkeypatch):
    monkeypatch.setattr(workers, "usable_cpus", lambda: 4)
    monkeypatch.delattr(os, "fork")
    assert workers.worker_count(100.0, 1.0) == 1
    assert workers.fork_map(lambda chunk: (os.getpid(), chunk), range(4)) == [
        (os.getpid(), k) for k in range(4)]


@pytest.fixture(scope="module")
def synth_inputs(tmp_path_factory):
    out = tmp_path_factory.mktemp("inputs")
    assert main(["synth", STUDY, "--x-gen", "6", "--b-true", "0.05", "--c-true", "2.0",
                 "--pop-log10-mean", "1.0", "--pop-log10-sigma", "0.5", "--seed", "7",
                 "--out", str(out)]) == 0
    return out


COMMANDS = {
    "subarea": ["validate", "--x", "12", "--mode", "subarea", "--replicates", "24"],
    "subset": ["validate", "--x", "12", "--mode", "subset", "--subset-fraction", "0.1",
               "--replicates", "40"],
    "subset_nonadjacent": ["validate", "--x", "12", "--mode", "subset_nonadjacent",
                           "--subset-fraction", "0.1", "--replicates", "40"],
    "scan": ["scan", "--x-list", "1,2,3,4,6,12"],
}


def run_outputs(inputs, out, argv, capsys) -> dict:
    """Exit code, printout and output file digests of one command."""
    seed = ["--seed", "3"] if argv[0] == "validate" else []
    code = main(argv + seed + [
        "--tweets", str(inputs / "tweets.jsonl"), STUDY,
        "--population", str(inputs / "population.geojson"),
        "--land", str(inputs / "land.geojson"), "--min-user-tweets", "1",
        "--out", str(out)])
    return outputs(code, out, capsys)


def outputs(code, out, capsys) -> dict:
    """Exit code, printout and output file digests of a command run."""
    printed = capsys.readouterr()
    return {"code": code, "out": printed.out, "err": printed.err,
            **{p.name: hashlib.sha256(p.read_bytes()).hexdigest()
               for p in sorted(out.iterdir())}}


def counting_forks(monkeypatch) -> list:
    """The list that each fork of a worker appends to from now on."""
    forks = []
    fork = workers._fork
    monkeypatch.setattr(workers, "_fork",
                        lambda fn, chunk: forks.append(1) or fork(fn, chunk))
    return forks


@pytest.mark.parametrize("command", COMMANDS)
def test_outputs_are_the_same_on_1_to_6_workers(synth_inputs, tmp_path, monkeypatch,
                                                capsys, command):
    """Each validate mode and scan writes and prints the same bytes however
    many workers read the tweets and run the replicates; every run with
    more than one worker forks."""
    forks = counting_forks(monkeypatch)
    results = []
    for k in range(1, 7):
        as_on_cpus(monkeypatch, k)
        forks.clear()
        results.append(run_outputs(synth_inputs, tmp_path / str(k),
                                   COMMANDS[command], capsys))
        assert bool(forks) == (k > 1), k
    assert results[0]["code"] == 0
    assert all(result == results[0] for result in results)
    assert_no_child_left()


def assert_synth_same_on_1_to_6_workers(argv, tmp_path, monkeypatch, capsys):
    """synth of argv writes and prints the same bytes however many workers
    draw and write its cells, and forks exactly when there is more than one."""
    forks = counting_forks(monkeypatch)
    results = []
    for k in range(1, 7):
        as_on_cpus(monkeypatch, k)
        forks.clear()
        out = tmp_path / str(k)
        results.append(outputs(main(argv + ["--out", str(out)]), out, capsys))
        assert bool(forks) == (k > 1), k
    assert results[0]["code"] == 0
    assert all(result == results[0] for result in results)
    assert_no_child_left()


def test_synth_is_the_same_on_1_to_6_workers(tmp_path, monkeypatch, capsys):
    assert_synth_same_on_1_to_6_workers(PINNED_SYNTH, tmp_path, monkeypatch, capsys)


def test_synth_with_one_cell_of_most_tweets_is_the_same_on_1_to_6_workers(
        tmp_path, monkeypatch, capsys):
    """A generation cell of more than half the tweets takes in whole shares
    of the tweets, so their blocks write empty part files: the same bytes."""
    argv = ["synth", STUDY, "--x-gen", "3", "--b-true", "0.005", "--c-true", "2.0",
            "--pop-log10-mean", "1.0", "--pop-log10-sigma", "1.0", "--seed", "3"]
    assert_synth_same_on_1_to_6_workers(argv, tmp_path, monkeypatch, capsys)
    n_t = json.loads((tmp_path / "1" / "ground_truth.json").read_text())["n_t"]
    tweets = [n for row in n_t for n in row]   # no commuters: one per cell
    assert max(tweets) > sum(tweets) / 2


def test_synth_parts_are_the_same_copied_through_this_process(tmp_path, monkeypatch,
                                                               capsys):
    """Where the kernel cannot copy the part files, this process appends
    them, to the same bytes."""
    runs = []
    for copy in (os.copy_file_range, lambda *args: raise_(OSError("no copy"))):
        monkeypatch.setattr(os, "copy_file_range", copy)
        as_on_cpus(monkeypatch, 3)
        out = tmp_path / str(len(runs))
        runs.append(outputs(main(PINNED_SYNTH + ["--out", str(out)]), out, capsys))
    assert runs[0]["code"] == 0 and runs[1] == runs[0]


@pytest.mark.parametrize("fail, code, error", [
    (lambda: raise_(OSError("disk full")), 2, "data error: disk full"),
    (lambda: os.kill(os.getpid(), signal.SIGKILL), 1,
     "config error: a worker process was killed"),
], ids=["raises", "killed"])
def test_a_failed_synth_worker_leaves_no_file(tmp_path, monkeypatch, capsys, fail,
                                              code, error):
    """A synth worker that raises or is killed ends the command with one
    error line, and leaves no tweets.jsonl, no part file and no worker."""
    as_on_cpus(monkeypatch, 3)
    draw, parent = synth._activity_columns, os.getpid()

    def failing_in_a_worker(*args):
        if os.getpid() != parent:
            fail()
        return draw(*args)

    monkeypatch.setattr(synth, "_activity_columns", failing_in_a_worker)
    out = tmp_path / "out"
    out.mkdir()
    assert main(PINNED_SYNTH + ["--out", str(out)]) == code
    [line] = capsys.readouterr().err.splitlines()
    assert line.startswith(error)
    assert list(out.iterdir()) == []
    assert_no_child_left()


def test_main_with_argv_leaves_the_collector_alone_and_forks_nothing(
        synth_inputs, tmp_path, monkeypatch, capsys):
    """A program that calls main(argv) keeps its collector and all the work,
    however small the least share of a worker."""
    monkeypatch.setattr(workers, "_forking", False)
    monkeypatch.setattr(workers, "MIN_WORK_S", 1e-12)
    monkeypatch.setattr(ingest, "_RANGE_BYTES", 1)
    monkeypatch.setattr(workers, "_fork", lambda fn, chunk: pytest.fail("forked"))
    frozen = gc.get_freeze_count()
    for command in ("subarea", "scan"):
        assert run_outputs(synth_inputs, tmp_path / command, COMMANDS[command],
                           capsys)["code"] == 0
    assert main(PINNED_SYNTH + ["--out", str(tmp_path / "synth")]) == 0
    assert gc.get_freeze_count() == frozen
    assert not workers._forking


def test_a_killed_worker_is_one_config_error_line(synth_inputs, tmp_path, monkeypatch,
                                                   capsys):
    """A worker killed by a signal (the kernel's out-of-memory killer, say)
    ends the command with one line and exit code 1, and leaves no worker."""
    as_on_cpus(monkeypatch, 3)
    read, parent = ingest._read_range, os.getpid()

    def killed_in_a_worker(*args):
        if os.getpid() != parent:
            os.kill(os.getpid(), signal.SIGKILL)
        return read(*args)

    monkeypatch.setattr(ingest, "_read_range", killed_in_a_worker)
    assert main(["stats", "--tweets", str(synth_inputs / "tweets.jsonl"), STUDY,
                 "--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err.splitlines() == [
        f"config error: a worker process was killed by signal {int(signal.SIGKILL)} "
        "without a result; `taskset -c 0` runs the command in one process"]
    assert_no_child_left()


def test_main_without_argv_freezes_the_heap(synth_inputs, tmp_path, monkeypatch,
                                            capsys):
    """The program's own process (main() with sys.argv) freezes the heap
    and splits its work over its CPUs."""
    monkeypatch.setattr(sys, "argv", ["geoscale", "stats", "--tweets",
                                      str(synth_inputs / "tweets.jsonl"), STUDY,
                                      "--out", str(tmp_path / "out")])
    monkeypatch.setattr(workers, "_forking", False)
    frozen = gc.get_freeze_count()
    try:
        assert main() == 0
        assert gc.get_freeze_count() > frozen
        assert workers._forking
    finally:
        gc.unfreeze()


@pytest.mark.parametrize("preset", [None, "2"])
def test_import_runs_one_blas_thread_unless_the_user_sets_a_count(preset):
    """geoscale splits its work by forking, so importing it before numpy
    asks OpenBLAS for one thread, which leaves the process with no thread
    but its own on Linux; a count the user set is kept."""
    src = os.path.dirname(os.path.dirname(workers.__file__))
    env = {name: value for name, value in os.environ.items()
           if name != "OPENBLAS_NUM_THREADS"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    if preset is not None:
        env["OPENBLAS_NUM_THREADS"] = preset
    script = ("import os, sys, geoscale.cli\n"
              "threads = (len(os.listdir('/proc/self/task'))\n"
              "           if sys.platform == 'linux' else 1)\n"
              "print(os.environ.get('OPENBLAS_NUM_THREADS'), threads)\n")
    run = subprocess.run([sys.executable, "-c", script], env=env,
                         capture_output=True, text=True, timeout=60)
    assert run.returncode == 0, run.stderr
    count, threads = run.stdout.split()
    assert count == (preset or "1")
    if preset is None:
        assert threads == "1"
