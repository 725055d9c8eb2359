"""A command detects its layers in forked processes, one per available CPU.

Memberships, output bytes and errors equal those of a serial run on every
path: a child that raises, a child that is killed, a fork that fails, a
single CPU and a caller running a second thread, one started in C too. After every test no child
process is left, and detection leaves no descriptor open.
"""
import ctypes
import errno
import hashlib
import os
import random
import signal
import subprocess
import sys
import threading
from pathlib import Path

import pytest

from hemln import MLN, InterLayerEdges, LayerGraph, cli, detect_communities
from hemln.fileio import load_mln, save_mln

pytestmark = pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")

SPEC = "L0 #(L0,L1) L1 #(L1,L2) L2"
# sha256 of `hemln cbg --pair L0,L1` stdout on the planted network, after
# the line the wrapper prints before main
PINNED_CBG_SHA256 = "1a16d1005c40bdec9daa4287d3e11b6d63def69a31f9000d99ca7554d58556e3"


def _canonical(a, b):
    return (a, b) if a < b else (b, a)


def _planted_layer(lid, first, groups, size, rng):
    """groups of size nodes, each a ring with size random chords, plus a few
    edges between groups."""
    nodes = list(range(first, first + groups * size))
    edges = set()
    for g in range(groups):
        members = nodes[g * size:(g + 1) * size]
        edges.update(map(_canonical, members, members[1:] + members[:1]))
        edges.update(_canonical(*rng.sample(members, 2)) for _ in range(size))
    edges.update(_canonical(*rng.sample(nodes, 2)) for _ in range(groups))
    return LayerGraph.build(lid, nodes, sorted(edges))


def _links(rng, left, right, count):
    return sorted({(rng.choice(sorted(left.nodes)), rng.choice(sorted(right.nodes)))
                   for _ in range(count)})


@pytest.fixture
def mln_dir(tmp_path):
    """Three layers of unequal size (L1 > L0 > L2), L0-L1 and L1-L2 linked."""
    rng = random.Random(14)
    l0 = _planted_layer("L0", 0, 4, 12, rng)
    l1 = _planted_layer("L1", 1000, 8, 12, rng)
    l2 = _planted_layer("L2", 2000, 2, 12, rng)
    mln = MLN()
    for g in (l0, l1, l2):
        mln.add_layer(g)
    mln.add_interlayer(InterLayerEdges.build("L0", "L1", _links(rng, l0, l1, 40)))
    mln.add_interlayer(InterLayerEdges.build("L1", "L2", _links(rng, l1, l2, 30)))
    out = tmp_path / "mln"
    save_mln(mln.freeze(), out)
    return out


@pytest.fixture
def empty_layers_dir(tmp_path):
    """Layers A and C have edges, B and D no nodes: a serial run fails on B."""
    mln = MLN()
    mln.add_layer(LayerGraph.build("A", range(4), [(0, 1), (1, 2), (2, 3)]))
    mln.add_layer(LayerGraph.build("B", [], []))
    mln.add_layer(LayerGraph.build("C", [10, 11], [(10, 11)]))
    mln.add_layer(LayerGraph.build("D", [], []))
    for left, right in (("A", "B"), ("B", "C"), ("C", "D")):
        mln.add_interlayer(InterLayerEdges.build(left, right, []))
    out = tmp_path / "empty-mln"
    save_mln(mln.freeze(), out)
    return out


@pytest.fixture
def cpus(monkeypatch):
    """Set how many CPUs a command may run on."""
    def set_cpus(n):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)),
                            raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: n)
    set_cpus(3)
    return set_cpus


@pytest.fixture(autouse=True)
def no_child_left():
    yield
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _kcommunity(mln_dir, out, capsys, spec=SPEC, seed=0):
    """(exit code, stderr, output files) of one in-process kcommunity."""
    code = cli.main(["kcommunity", "--mln", str(mln_dir), "--spec", spec,
                     "--seed", str(seed), "--out", str(out)])
    files = {p.name: p.read_bytes() for p in sorted(out.iterdir())} if out.exists() else {}
    return code, capsys.readouterr().err, files


def _serial_then_parallel(mln_dir, tmp_path, capsys, cpus, **kwargs):
    cpus(1)
    serial = _kcommunity(mln_dir, tmp_path / "serial", capsys, **kwargs)
    cpus(3)
    return serial, _kcommunity(mln_dir, tmp_path / "parallel", capsys, **kwargs)


def _raise():
    raise RuntimeError("detection failed in a child")


def _in_children(monkeypatch, act):
    """Make detection run act() first, in a forked child only."""
    parent, detect = os.getpid(), cli.detect_communities

    def patched(g, seed=0):
        if os.getpid() != parent:
            act()
        return detect(g, seed)
    monkeypatch.setattr(cli, "detect_communities", patched)


@pytest.mark.parametrize("workers", [2, 3])
@pytest.mark.parametrize("seed", [0, 1, 7])
def test_memberships_equal_serial_detection(mln_dir, cpus, seed, workers):
    cpus(workers)
    mln = load_mln(mln_dir)
    layers = sorted(mln.layers)
    got = cli._memberships_for(mln, layers, seed, None)
    assert list(got) == layers
    for lid in layers:
        want = detect_communities(mln.layer(lid), seed)
        assert got[lid] == want
        assert list(got[lid].assignment.items()) == list(want.assignment.items())


@pytest.mark.parametrize("seed", [0, 1, 7])
def test_kcommunity_outputs_equal_serial_run(mln_dir, tmp_path, capsys, cpus, seed):
    serial, parallel = _serial_then_parallel(mln_dir, tmp_path, capsys, cpus, seed=seed)
    assert serial[0] == 0
    assert parallel == serial


def test_failing_child_is_detected_again(mln_dir, tmp_path, capsys, cpus,
                                         monkeypatch):
    _in_children(monkeypatch, _raise)
    serial, parallel = _serial_then_parallel(mln_dir, tmp_path, capsys, cpus)
    assert serial[0] == 0
    assert parallel == serial


@pytest.mark.parametrize("fail_in_child", [False, True])
def test_data_error_is_the_serial_one(empty_layers_dir, tmp_path, capsys, cpus,
                                      monkeypatch, fail_in_child):
    if fail_in_child:
        _in_children(monkeypatch, _raise)
    serial, parallel = _serial_then_parallel(
        empty_layers_dir, tmp_path, capsys, cpus, spec="A #(A,B) B #(B,C) C #(C,D) D")
    assert serial == (2, "hemln: layer B has no nodes\n", {})
    assert parallel == serial


def test_killed_child_is_detected_again(mln_dir, tmp_path, capsys, cpus,
                                        monkeypatch):
    _in_children(monkeypatch, lambda: os.kill(os.getpid(), signal.SIGKILL))
    serial, parallel = _serial_then_parallel(mln_dir, tmp_path, capsys, cpus)
    assert serial[0] == 0
    assert parallel == serial


def _no_fork():
    raise OSError(errno.EAGAIN, os.strerror(errno.EAGAIN))


def test_failed_fork_detects_in_the_parent(mln_dir, tmp_path, capsys, cpus,
                                           monkeypatch):
    monkeypatch.setattr(os, "fork", _no_fork)
    serial, parallel = _serial_then_parallel(mln_dir, tmp_path, capsys, cpus)
    assert serial[0] == 0
    assert parallel == serial


FD_PATHS = {
    "children-send": lambda monkeypatch: None,
    "child-raises": lambda monkeypatch: _in_children(monkeypatch, _raise),
    "child-killed": lambda monkeypatch: _in_children(
        monkeypatch, lambda: os.kill(os.getpid(), signal.SIGKILL)),
    "fork-fails": lambda monkeypatch: monkeypatch.setattr(os, "fork", _no_fork),
}


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs /proc/self/fd")
@pytest.mark.parametrize("path", sorted(FD_PATHS))
def test_detection_closes_every_descriptor_it_opens(mln_dir, cpus, monkeypatch, path):
    # the pipes are raw descriptors, so a leak would raise no ResourceWarning
    mln = load_mln(mln_dir)
    graphs = [mln.layer(lid) for lid in sorted(mln.layers)]
    FD_PATHS[path](monkeypatch)
    before = sorted(os.listdir("/proc/self/fd"))
    got = cli._detect_layers(graphs, 0)
    assert sorted(os.listdir("/proc/self/fd")) == before
    assert got == [detect_communities(g, 0) for g in graphs]


def test_one_cpu_never_forks(mln_dir, tmp_path, capsys, cpus, monkeypatch):
    forks = []
    fork = os.fork
    monkeypatch.setattr(os, "fork", lambda: forks.append(1) or fork())
    serial = _kcommunity(mln_dir, tmp_path / "forked", capsys)
    assert len(forks) == 2  # three layers, three CPUs
    forks.clear()
    cpus(1)
    assert _kcommunity(mln_dir, tmp_path / "serial", capsys) == serial
    assert forks == []


def test_threaded_caller_never_forks(mln_dir, cpus, monkeypatch):
    # a fork copies only the calling thread: a lock another thread holds
    # would stay locked in the child, so Python 3.12+ warns of a deadlock
    cpus(2)
    forks = []
    fork = os.fork
    monkeypatch.setattr(os, "fork", lambda: forks.append(1) or fork())
    mln = load_mln(mln_dir)
    layers = sorted(mln.layers)
    release = threading.Event()
    waiter = threading.Thread(target=release.wait)
    waiter.start()
    try:
        got = cli._memberships_for(mln, layers, 0, None)
    finally:
        release.set()
        waiter.join()
    assert forks == []
    assert got == {lid: detect_communities(mln.layer(lid), 0) for lid in layers}
    cli._memberships_for(mln, layers, 0, None)  # the thread is gone
    assert forks == [1]


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="needs /proc/self/task")
def test_thread_started_in_c_stops_the_fork(mln_dir, cpus, monkeypatch):
    # Python does not count a thread started in C, such as a BLAS pool
    cpus(2)
    forks = []
    fork = os.fork
    monkeypatch.setattr(os, "fork", lambda: forks.append(1) or fork())
    mln = load_mln(mln_dir)
    layers = sorted(mln.layers)
    libc = ctypes.CDLL(None)
    create, join = libc.pthread_create, libc.pthread_join
    create.argtypes = [ctypes.POINTER(ctypes.c_ulong)] + [ctypes.c_void_p] * 3
    join.argtypes = [ctypes.c_ulong, ctypes.c_void_p]
    create.restype = join.restype = ctypes.c_int
    tid = ctypes.c_ulong()
    assert create(ctypes.byref(tid), None,  # sleep(3) in a thread Python never sees
                  ctypes.cast(libc.sleep, ctypes.c_void_p), 3) == 0
    try:
        assert threading.active_count() == 1
        got = cli._memberships_for(mln, layers, 0, None)
    finally:
        assert join(tid, None) == 0
    assert forks == []
    assert got == {lid: detect_communities(mln.layer(lid), 0) for lid in layers}
    cli._memberships_for(mln, layers, 0, None)  # the thread is gone
    assert forks == [1]


@pytest.mark.parametrize("workers, parents_share", [
    (1, ["L1", "L0", "L2"]), (2, ["L1", "L2"]), (3, ["L1"]), (8, ["L1"])])
def test_layers_are_dealt_largest_first(mln_dir, cpus, monkeypatch, workers,
                                        parents_share):
    cpus(workers)
    parent, detect, in_parent = os.getpid(), cli.detect_communities, []

    def recording(g, seed=0):
        if os.getpid() == parent:
            in_parent.append(g.id)
        return detect(g, seed)
    monkeypatch.setattr(cli, "detect_communities", recording)
    mln = load_mln(mln_dir)
    assert [len(mln.layer(lid).edges) for lid in ("L1", "L0", "L2")] == sorted(
        (len(g.edges) for g in mln.layers.values()), reverse=True)
    cli._memberships_for(mln, ["L0", "L1", "L2"], 0, None)
    assert in_parent == parents_share


def test_cbg_subprocess_prints_each_line_once(mln_dir, tmp_path, capsys, cpus):
    cpus(1)
    assert cli.main(["cbg", "--mln", str(mln_dir), "--pair", "L0,L1"]) == 0
    expected = "before detection\n" + capsys.readouterr().out
    # the line sits in the block buffer of a file stdout when main forks
    code = ("import os, sys\n"
            "os.sched_getaffinity = lambda pid: {0, 1}\n"
            "print('before detection')\n"
            "from hemln.cli import main\n"
            "sys.exit(main(sys.argv[1:]))\n")
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    out = tmp_path / "cbg.tsv"
    with open(out, "wb") as stdout:
        subprocess.run([sys.executable, "-c", code, "cbg", "--mln", str(mln_dir),
                        "--pair", "L0,L1"], stdout=stdout, env=env, check=True,
                       timeout=120)
    text = out.read_text(encoding="utf-8")
    assert text == expected
    assert hashlib.sha256(out.read_bytes()).hexdigest() == PINNED_CBG_SHA256


@pytest.mark.parametrize("pair_or_spec, message", [
    ("L0,L2", "no inter-layer edges between L0 and L2"),
    ("L0,L0", "no inter-layer edges between L0 and L0"),
    ("L0,ZZ", "layer ZZ not in MLN"),
    ("ZZ,L0", "layer ZZ not in MLN"),
    # a kcommunity spec step is checked the same way, also before detection
    ("L0 #(L0,L2) L2", "no inter-layer edges between L0 and L2"),
])
def test_cbg_checks_its_pair_before_detection(mln_dir, tmp_path, capsys, monkeypatch,
                                              pair_or_spec, message):
    detected = []
    monkeypatch.setattr(cli, "detect_communities",
                        lambda g, seed=0: detected.append(g.id))
    argv = (["kcommunity", "--spec", pair_or_spec, "--out", str(tmp_path / "out")]
            if " " in pair_or_spec else ["cbg", "--pair", pair_or_spec])
    assert cli.main(argv + ["--mln", str(mln_dir)]) == 2
    assert capsys.readouterr().err == f"hemln: {message}\n"
    assert detected == []
    assert not (tmp_path / "out").exists()
