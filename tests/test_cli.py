import contextlib
import io
import json
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import hydrec
from conftest import traced_peak
from hydrec.cli import (
    DataFormatError,
    _read_payload,
    _write_payload,
    main,
    payload_checksum,
    read_dataset,
    read_moment_set,
    write_dataset,
    write_moment_set,
)
from hydrec.assembly import assemble
from hydrec.numerics import LATTICE_BLOCK_BYTES, DecayAssumptionWarning, GridField, SpatialGrid
from hydrec.potentials import x_coefficients
from hydrec.reconstruction import build_pyramid
from hydrec.simulator import DensityMatrixGrid, GridCoverageWarning, offdiagonal_lattice


def run(*argv):
    return main([str(a) for a in argv])


def test_payload_checksum_known_vectors():
    # BLAKE2b (RFC 7693) with an 8-byte digest
    assert payload_checksum(b"") == "e4a6a0577479b2b4"
    assert payload_checksum(b"a") == "40f89e395b66422f"
    assert payload_checksum(b"foobar") == "9d212f7f254a51f9"


def read_only(array):
    array.setflags(write=False)
    return array


@pytest.mark.parametrize(
    "make",
    [
        lambda: np.arange(12.0).reshape(3, 4).astype(">f8"),
        lambda: (np.arange(12.0) - 1j * np.arange(12.0)[::-1]).reshape(3, 4).astype(">c16"),
        lambda: np.arange(12.0).reshape(3, 4).T,
        lambda: (np.arange(24.0) + 0.5j).reshape(4, 6)[:, ::2],
        lambda: np.arange(24.0).reshape(4, 6).astype(">f8")[::2],
        lambda: read_only(np.arange(12.0).reshape(3, 4)),
    ],
    ids=[
        "big-endian", "big-endian-complex", "transposed", "strided", "big-endian-strided",
        "read-only",
    ],
)
def test_a_payload_is_written_as_its_little_endian_c_ordered_bytes(tmp_path, make):
    array = make()
    expected = np.ascontiguousarray(array).astype(array.dtype.newbyteorder("<")).tobytes()
    checksum = _write_payload(tmp_path / "p.bin", [array])
    assert (tmp_path / "p.bin").read_bytes() == expected
    assert checksum == payload_checksum(expected)
    dtype = array.dtype.str[1:]
    back = _read_payload(tmp_path / "manifest.json", "p.bin", checksum, dtype, array.shape)
    assert back.dtype == np.dtype("<" + dtype) and back.flags.c_contiguous
    assert back.flags.writeable and back.flags.owndata
    assert np.array_equal(back, array)


@pytest.mark.parametrize("rows", [1, 5, 64], ids=["row by row", "uneven blocks", "one block"])
def test_a_payload_written_in_blocks_is_the_whole_array_bytes_and_digest(tmp_path, rows):
    array = np.random.default_rng(5).normal(size=(64, 9)) + 1j  # complex, as density grids
    blocks = (array[first : first + rows] for first in range(0, len(array), rows))
    checksum = _write_payload(tmp_path / "p.bin", blocks)
    assert (tmp_path / "p.bin").read_bytes() == array.astype("<c16").tobytes()
    assert checksum == payload_checksum(array.astype("<c16").tobytes())


def test_payload_io_holds_no_copy_of_the_payload(tmp_path):
    array = np.random.default_rng(3).normal(size=(64, 8192))  # 4 MiB
    checksum, write_peak = traced_peak(lambda: _write_payload(tmp_path / "p.bin", [array]))
    assert write_peak <= 0.05 * array.nbytes
    back, read_peak = traced_peak(
        lambda: _read_payload(tmp_path / "manifest.json", "p.bin", checksum, "f8", array.shape)
    )
    assert back.tobytes() == array.tobytes()
    assert read_peak <= 1.2 * array.nbytes  # the array read, and its finiteness mask (1/8)


def test_import_loads_neither_openssl_nor_the_cli_with_the_package():
    # payload_checksum takes BLAKE2b from CPython's built-in _blake2, not through hashlib
    src = str(Path(hydrec.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
    code = """if True:
        import sys
        import hydrec
        assert "hydrec.cli" not in sys.modules
        import hydrec.cli
        assert "_hashlib" not in sys.modules, "hydrec.cli loads OpenSSL"
    """
    subprocess.run([sys.executable, "-c", code], env=env, check=True, timeout=60)


def test_import_of_the_package_loads_no_numpy():
    # the library modules load on first use, so the CLI module runs before numpy loads
    src = str(Path(hydrec.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
    code = """if True:
        import sys
        import hydrec
        assert "numpy" not in sys.modules, "import hydrec loads numpy"
        assert hydrec.__version__ and "numpy" not in sys.modules
        hydrec.build_pyramid
        assert "numpy" in sys.modules and "hydrec.assembly" in sys.modules
    """
    subprocess.run([sys.executable, "-c", code], env=env, check=True, timeout=60)


@pytest.mark.parametrize(
    "given, seen",
    [
        ({}, ("1", None)),
        ({"OPENBLAS_NUM_THREADS": "3"}, ("3", None)),
        ({"OMP_NUM_THREADS": "2"}, (None, "2")),
        ({"numpy first": ""}, (None, None)),
    ],
    ids=["by default", "user's OpenBLAS count", "user's OpenMP count", "numpy loaded first"],
)
def test_the_cli_runs_openblas_on_one_thread_unless_a_count_is_set(given, seen):
    src = str(Path(hydrec.__file__).parents[1])
    unset = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")
    env = {k: v for k, v in os.environ.items() if k not in unset}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    first = "import numpy; " if given.pop("numpy first", None) is not None else ""
    code = first + "import os, hydrec.cli; print(*(os.environ.get(k) for k in %r))" % (unset,)
    proc = subprocess.run([sys.executable, "-c", code], env={**env, **given}, check=True,
                          capture_output=True, text=True, timeout=60)
    assert proc.stdout.split() == [str(v) for v in seen]


def test_import_loads_no_numpy_polynomial():
    # potentials evaluates V and its x-derivatives with its own Horner loop
    src = str(Path(hydrec.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
    code = "import sys, hydrec.cli; sys.exit('numpy.polynomial' in sys.modules)"
    subprocess.run([sys.executable, "-c", code], env=env, check=True, timeout=60)


def test_import_loads_no_scipy(tmp_path):
    # the README command-line quick start and a small demo-cat, with scipy refused at import
    # and every warning an error
    src = str(Path(hydrec.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
    code = """if True:
        import sys

        class NoScipy:
            def find_spec(self, name, path=None, target=None):
                if name == "scipy" or name.startswith("scipy."):
                    raise ImportError(f"{name} is refused")

        sys.meta_path.insert(0, NoScipy())
        from hydrec.cli import main

        out = sys.argv[1]
        for argv in (
            ["simulate", "--state", "cat", "--grid=-10,10,1001", "--times", "0.09,0.02,4",
             "--potential", "free", "--store-psi", "--out", f"{out}/dataset"],
            ["reconstruct", f"{out}/dataset/dataset.json", "--order", "4", "--out", f"{out}/moments"],
            ["assemble", f"{out}/moments/moments.json", "--y-max", "1.5", "--n-y", "151",
             "--out", f"{out}/rho"],
            ["compare", f"{out}/moments/moments.json", "--reference", "stored-psi",
             "--dataset", f"{out}/dataset/dataset.json", "--n-y", "151", "--region-y", "0.1",
             "--out", f"{out}/report"],
            ["demo-cat", "--orders", "2,4", "--out", f"{out}/figure"],
        ):
            assert main(argv) == 0, argv
        assert not any(m == "scipy" or m.startswith("scipy.") for m in sys.modules)
    """
    subprocess.run(
        [sys.executable, "-W", "error", "-c", code, str(tmp_path)], env=env, check=True, timeout=300
    )
    assert (tmp_path / "report" / "report_N4.json").exists()
    assert (tmp_path / "figure" / "rho_N4.bin").exists()
    # what the README says those commands report
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    quick_start = readme.split("## Quick start (command line)\n", 1)[1].split("\n## ", 1)[0]
    sup_error = re.search(r"sup error of\s+(\S+)\s+over", quick_start).group(1)
    radius = re.search(r"trust radius reads\s+(\S+)\s+here", quick_start).group(1)
    report = json.loads((tmp_path / "report" / "report_N4.json").read_text())
    assert float(f"{report['sup_error']:.3e}") == float(sup_error)
    assert float(radius) == 0.0
    for verb in ("rho", "report"):
        assert "trust radius     0\n" in (tmp_path / verb / "summary_N4.txt").read_text()


def small_dataset_args(out, **overrides):
    base = {
        "state": "gaussian",
        "grid": "-10,10,256",
        "times": "0,0.01,2",
        "potential": "free",
        "sigma": "1.0",
        "momentum": "0.5",
        "out": out,
    }
    # a state is given only the default flags it reads: a cat has no momentum,
    # and omega sets a coherent state's width
    for key in {"cat": ("momentum",), "coherent": ("sigma",)}.get(overrides.get("state"), ()):
        del base[key]
    base.update(overrides)
    # values like "-10,10,256" must use the --key=value form, or argparse
    # reads them as option strings
    return ["simulate"] + [f"--{key}={value}" for key, value in base.items()]


def test_simulate_writes_verified_dataset(tmp_path):
    out = tmp_path / "ds"
    assert run(*small_dataset_args(out)) == 0
    data = read_dataset(out / "dataset.json")
    assert data["records"].shape == (3, 256)
    norms = np.trapezoid(data["records"], dx=data["grid"].dx, axis=1)
    assert np.allclose(norms, 1.0, rtol=1e-8)


def test_simulate_is_deterministic(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    assert run(*small_dataset_args(a)) == 0
    assert run(*small_dataset_args(b)) == 0
    assert (a / "f0.bin").read_bytes() == (b / "f0.bin").read_bytes()
    assert (a / "dataset.json").read_text() == (b / "dataset.json").read_text()


def test_simulate_noise_is_seeded(tmp_path):
    a, b, c = tmp_path / "a", tmp_path / "b", tmp_path / "c"
    assert run(*small_dataset_args(a, noise=1e-3, seed=7)) == 0
    assert run(*small_dataset_args(b, noise=1e-3, seed=7)) == 0
    assert run(*small_dataset_args(c, noise=1e-3, seed=8)) == 0
    assert (a / "f0.bin").read_bytes() == (b / "f0.bin").read_bytes()
    assert (a / "f0.bin").read_bytes() != (c / "f0.bin").read_bytes()
    rec = read_dataset(a / "dataset.json")["records"]
    assert rec.min() >= 0.0  # clipped at zero


def test_simulate_wraparound_exits_2(tmp_path):
    argv = small_dataset_args(
        tmp_path / "bad", grid="-4,4,128", times="0,0.4,2", momentum="5.0"
    )
    assert run(*argv) == 2


def test_simulate_writes_the_densities_and_states_of_sample_densities(tmp_path):
    from hydrec.numerics import PhysicalConstants, SpatialGrid, TimeNodes
    from hydrec.potentials import quartic_potential
    from hydrec.simulator import CatStateParams, make_cat_state, sample_densities

    # the README quartic dataset, with the default internal step
    argv = ["simulate", "--state", "cat", "--grid=-10,10,1024", "--times", "0.09,0.005,12",
            "--potential", "quartic:c2=0.5,c4=0.1", "--store-psi", "--out", tmp_path / "ds"]
    assert run(*argv) == 0
    data = read_dataset(tmp_path / "ds" / "dataset.json")
    grid = SpatialGrid(-10.0, 10.0, 1024)
    records, psis = sample_densities(
        make_cat_state(CatStateParams(), grid), quartic_potential(0.5, 0.1),
        PhysicalConstants(), TimeNodes(0.09, 0.005, 13),
    )
    assert np.array_equal(data["records"], records)
    assert np.array_equal(data["psis"], np.stack([p.amplitudes for p in psis]))
    assert data["manifest"]["provenance"].endswith(" substeps=8")


def test_simulate_substeps_sets_the_lead_in_step_too(tmp_path):
    # 8 steps per interval are steps of dt / 8 from t = 0 to t_0 = 3, not 8 steps of 0.375
    args = dict(grid="-10,10,512", times="3,0.005,4", potential="quartic:c2=0.5,c4=0.1",
                sigma="0.7", momentum="0")
    assert run(*small_dataset_args(tmp_path / "default", **args)) == 0
    assert run(*small_dataset_args(tmp_path / "eight", substeps=8, **args)) == 0
    default = read_dataset(tmp_path / "default" / "dataset.json")["records"]
    eight = read_dataset(tmp_path / "eight" / "dataset.json")
    assert np.max(np.abs(eight["records"] - default)) <= 1e-6
    assert eight["manifest"]["provenance"].endswith(" substeps=8")


def simulate_error(capsys, monkeypatch, tmp_path, **overrides):
    """The exit status and the standard-error lines of a simulate run that must not propagate."""
    import hydrec.simulator as simulator

    monkeypatch.setattr(simulator, "propagate", lambda *a, **k: pytest.fail("propagated"))
    capsys.readouterr()
    status = run(*small_dataset_args(tmp_path / "ds", **overrides))
    assert not (tmp_path / "ds").exists()
    return status, capsys.readouterr().err.splitlines()


@pytest.mark.parametrize("noise", ["nan", "inf", "-1", "-inf"])
def test_simulate_rejects_a_noise_that_is_not_finite_and_nonnegative(
    capsys, monkeypatch, tmp_path, noise
):
    status, err = simulate_error(capsys, monkeypatch, tmp_path, noise=noise)
    assert status == 1 and len(err) == 1
    assert err[0].startswith("hydrec: error: --noise must be a finite number >= 0")


@pytest.mark.parametrize("substeps", ["0", "-3"])
def test_simulate_rejects_substeps_below_1(capsys, monkeypatch, tmp_path, substeps):
    status, err = simulate_error(capsys, monkeypatch, tmp_path, substeps=substeps)
    assert status == 1 and len(err) == 1
    assert err[0] == f"hydrec: error: substeps must be an integer >= 1, got {substeps}"


@pytest.mark.parametrize(
    "overrides, message",
    [
        ({"center": "inf"}, "center must be finite, got inf"),
        ({"sigma": "nan"}, "sigma must be finite, got nan"),
        ({"momentum": "nan"}, "momentum must be finite, got nan"),
        ({"state": "coherent", "potential": "harmonic:omega=-1"},
         "the coherent state needs omega > 0, got -1.0"),
        ({"noise": "1e-6", "seed": "-1"}, "--seed must be >= 0, got -1"),
        ({"potential": "harmonic:omega=1,omega=2"},
         "--potential harmonic: omega is given more than once"),
        # a state flag that the state does not read
        ({"state": "cat", "momentum": "2"}, "--state cat does not read --momentum"),
        ({"state": "cat", "center": "1.5"}, "--state cat does not read --center"),
        ({"state": "coherent", "potential": "harmonic:omega=1", "sigma": "3"},
         "--state coherent does not read --sigma"),
        ({"state": "gaussian", "k0": "5"}, "--state gaussian does not read --k0"),
    ],
    ids=["center inf", "sigma nan", "momentum nan", "coherent omega -1", "seed -1", "omega twice",
         "cat momentum", "cat center", "coherent sigma", "gaussian k0"],
)
def test_simulate_rejects_a_state_a_seed_or_a_potential_key_naming_it(
    capsys, monkeypatch, tmp_path, overrides, message
):
    assert simulate_error(capsys, monkeypatch, tmp_path, **overrides) == (
        1, [f"hydrec: error: {message}"]
    )


@pytest.mark.parametrize(
    "flag, value, reason, malformed",
    [
        ("grid", "-10,10,4", "need at least 8 grid points, got 4", "-10,10"),
        ("grid", "10,-10,64", "x_min must be below x_max, got [10.0, -10.0]", "-10,10,64.5"),
        ("times", "0,-0.005,4", "dt must be positive, got -0.005", "0,0.005,4,1"),
        # m, as typed, not the node count m + 1
        ("times", "0,0.005,-1", "need at least one time node: --times m must be >= 0, got -1",
         "0,0.005,1.5"),
        ("times", "0,0.005,-3", "need at least one time node: --times m must be >= 0, got -3",
         "0,0.005,-3.0"),
    ],
)
def test_simulate_reports_why_a_grid_or_times_value_is_rejected(
    capsys, monkeypatch, tmp_path, flag, value, reason, malformed
):
    # the constructor's reason for numbers it rejects; the expected form for text that is not
    form = {"grid": "xmin,xmax,n", "times": "t0,dt,m"}[flag]
    expects = f"--{flag} expects {form!r}, got {malformed!r}"
    for text, message in ((value, reason), (malformed, expects)):
        assert simulate_error(capsys, monkeypatch, tmp_path, **{flag: text}) == (
            1, [f"hydrec: error: {message}"]
        )


def test_dataset_checksum_detects_corruption(tmp_path):
    out = tmp_path / "ds"
    run(*small_dataset_args(out))
    payload = bytearray((out / "f0.bin").read_bytes())
    payload[100] ^= 0xFF
    (out / "f0.bin").write_bytes(bytes(payload))
    with pytest.raises(DataFormatError, match="checksum"):
        read_dataset(out / "dataset.json")
    # through the CLI this is exit status 1
    assert run("reconstruct", out / "dataset.json", "--order", "1", "--out", tmp_path / "m") == 1


@pytest.mark.parametrize("shape", [(3, 64), (2, 256), (3, 256, 1), (256,)])
def test_writers_refuse_payloads_their_readers_reject_before_writing(tmp_path, shape):
    run(*small_dataset_args(tmp_path / "ds"))  # 3 nodes on 256 points
    data = read_dataset(tmp_path / "ds" / "dataset.json")
    typed = [data[key] for key in ("constants", "grid", "nodes", "model", "records")]
    with pytest.raises(ValueError, match="psis shape"):
        write_dataset(tmp_path / "bad", *typed, {}, "", psis=np.zeros(shape, complex))
    with pytest.raises(ValueError, match="moments shape"):
        write_moment_set(tmp_path / "bad", data["manifest"], np.zeros(shape[:-1] + (64,)), 0.0, 1)
    with pytest.raises(ValueError, match="moments shape"):
        write_moment_set(tmp_path / "bad", data["manifest"], np.zeros((0, 256)), 0.0, 1)
    assert not (tmp_path / "bad").exists()


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("name", ["records", "psis", "moments"])
def test_writers_refuse_non_finite_payloads_before_writing(tmp_path, name, value):
    run(*small_dataset_args(tmp_path / "ds"))  # 3 nodes on 256 points
    data = read_dataset(tmp_path / "ds" / "dataset.json")
    typed = [data[key] for key in ("constants", "grid", "nodes", "model")]
    payloads = {"records": data["records"].copy(), "psis": np.ones((3, 256), complex)}
    payloads["moments"] = payloads["records"]
    payloads[name][1, 128] = value
    with pytest.raises(ValueError, match=f"^{name} holds non-finite values"):
        if name == "moments":
            write_moment_set(tmp_path / "bad", data["manifest"], payloads["moments"], 0.0, 1)
        else:
            write_dataset(tmp_path / "bad", *typed, payloads["records"], {}, "", payloads["psis"])
    assert not (tmp_path / "bad").exists()


def test_simulate_refuses_noise_that_overflows_the_records_before_writing(tmp_path, capsys):
    out = tmp_path / "ds"
    capsys.readouterr()
    assert run(*small_dataset_args(out), "--noise", "1e308") == 1
    err = capsys.readouterr().err.splitlines()
    assert err == ["hydrec: error: records holds non-finite values, which its reader would reject"]
    assert not out.exists()


def test_simulate_whose_potential_overflows_writes_its_one_line_error_only(tmp_path):
    # V = 1e307 x^2 overflows on the grid; the non-finite state is refused after the first
    # kick, with no numpy warning before the message
    src = str(Path(hydrec.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
    argv = small_dataset_args(tmp_path / "ds", potential="polynomial:coeffs=0;0;1e307")
    proc = subprocess.run([sys.executable, "-m", "hydrec.cli", *argv], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 2
    assert proc.stderr == (
        "hydrec: simulation quality failure: the state is not finite after a step (norm nan)\n"
    )
    assert not (tmp_path / "ds").exists()


def test_reconstruct_writes_moment_set(tmp_path):
    ds = tmp_path / "ds"
    run(*small_dataset_args(ds))
    out = tmp_path / "moments"
    assert run("reconstruct", ds / "dataset.json", "--order", "2", "--out", out) == 0
    mset = read_moment_set(out / "moments.json")
    assert mset["manifest"]["order_max"] == 2
    assert len(mset["moments"]) == 3
    assert mset["manifest"]["node"] == 1


def test_moment_set_holds_the_pyramid_rows_at_its_node(tmp_path):
    # the benchmark checks len(read_moment_set(path)["moments"]) == N + 1
    ds = tmp_path / "ds"
    run(*small_dataset_args(ds))
    out = tmp_path / "moments"
    assert run("reconstruct", ds / "dataset.json", "--order", "2", "--node", "2", "--out", out) == 0
    mset = read_moment_set(out / "moments.json")
    data = read_dataset(ds / "dataset.json")
    nodes = data["nodes"]
    pyramid = build_pyramid(
        data["records"], data["grid"], nodes, data["model"], data["constants"], order_max=2
    )
    assert len(mset["moments"]) == 3
    assert mset["moments"].shape == (3, 256)
    assert mset["moments"].tobytes() == np.stack([level[2] for level in pyramid.levels]).tobytes()
    assert mset["manifest"]["central_time"] == nodes.t_0 + 2 * nodes.dt


def test_reconstruct_order_zero_is_central_record(tmp_path):
    ds = tmp_path / "ds"
    run(*small_dataset_args(ds))
    out = tmp_path / "m0"
    assert run("reconstruct", ds / "dataset.json", "--order", "0", "--out", out) == 0
    mset = read_moment_set(out / "moments.json")
    data = read_dataset(ds / "dataset.json")
    assert np.array_equal(mset["moments"][0], data["records"][1])


def test_reconstruct_insufficient_samples_exits_3(tmp_path, capsys):
    ds = tmp_path / "ds"
    run(*small_dataset_args(ds))  # m = 2
    assert run("reconstruct", ds / "dataset.json", "--order", "3", "--out", tmp_path / "x") == 3
    err = capsys.readouterr().err
    assert "time samples" in err and "4" in err


@pytest.mark.parametrize("node", ["3", "-1"])
def test_reconstruct_node_outside_the_nodes_exits_1(tmp_path, capsys, node):
    ds = tmp_path / "ds"
    run(*small_dataset_args(ds))  # nodes 0..2
    capsys.readouterr()
    argv = ("reconstruct", ds / "dataset.json", "--order", "1", f"--node={node}")
    assert run(*argv, "--out", tmp_path / "m") == 1
    assert capsys.readouterr().err.splitlines() == [f"hydrec: error: node {node} outside 0..2"]
    assert not (tmp_path / "m").exists()


def test_reconstruct_smooth_is_an_unrecognized_argument(tmp_path, capsys):
    ds = tmp_path / "ds"
    run(*small_dataset_args(ds))
    capsys.readouterr()
    argv = ("reconstruct", ds / "dataset.json", "--order", "1", "--smooth", "7,3")
    assert run(*argv, "--out", tmp_path / "m") == 1
    err = capsys.readouterr().err
    assert err.splitlines()[-1] == "hydrec: error: unrecognized arguments: --smooth 7,3"
    assert "Traceback" not in err
    assert not (tmp_path / "m").exists()


def test_a_moment_set_that_records_a_smoothing_still_reads_and_assembles(tmp_path):
    # moment sets once recorded "smoothing": null or {"window", "degree"}; readers ignore the key
    from hydrec.cli import FORMAT_VERSION

    ds = tmp_path / "ds"
    run(*small_dataset_args(ds))
    mdir = tmp_path / "m"
    assert run("reconstruct", ds / "dataset.json", "--order", "2", "--out", mdir) == 0
    assert run("assemble", mdir / "moments.json", "--n-y", "21", "--out", tmp_path / "now") == 0
    manifest = json.loads((mdir / "moments.json").read_text())
    assert FORMAT_VERSION == manifest["format_version"] == 2 and "smoothing" not in manifest
    manifest["smoothing"] = {"window": 7, "degree": 3}
    (mdir / "moments.json").write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    mset = read_moment_set(mdir / "moments.json")
    assert mset["manifest"]["smoothing"] == {"window": 7, "degree": 3}
    assert run("assemble", mdir / "moments.json", "--n-y", "21", "--out", tmp_path / "old") == 0
    for name in ("rho_N2.bin", "rho_N2.json", "rho_N2.dat"):
        assert (tmp_path / "old" / name).read_bytes() == (tmp_path / "now" / name).read_bytes()


def test_assemble_emits_grid_files(tmp_path):
    ds = tmp_path / "ds"
    run(*small_dataset_args(ds))
    mdir = tmp_path / "m"
    run("reconstruct", ds / "dataset.json", "--order", "2", "--out", mdir)
    out = tmp_path / "rho"
    assert run(
        "assemble", mdir / "moments.json", "--y-max", "0.5", "--n-y", "41", "--out", out
    ) == 0
    header = json.loads((out / "rho_N2.json").read_text())
    raw = (out / "rho_N2.bin").read_bytes()
    assert header["checksum"] == payload_checksum(raw)
    values = np.frombuffer(raw, dtype="<c16").reshape(256, 41)
    mset = read_moment_set(mdir / "moments.json")
    assert np.array_equal(values[:, 20].real, mset["moments"][0])
    lines = (out / "rho_N2.dat").read_text().splitlines()
    assert lines[0] == "# x y re im"
    assert len(lines) == 1 + 256 * 41


def test_dat_table_reproduces_the_payload_bitwise(tmp_path):
    from hydrec.numerics import SpatialGrid
    from hydrec.simulator import offdiagonal_lattice

    out = tmp_path / "demo"
    assert run("demo-cat", "--orders", "7", "--grid=-6,6,121", "--n-y", "41", "--out", out) == 0
    table = np.loadtxt(out / "rho_N7.dat")
    values = np.frombuffer((out / "rho_N7.bin").read_bytes(), dtype="<c16").reshape(121, 41)
    assert table.shape == (121 * 41, 4)
    assert np.array_equal(table[:, 0], np.repeat(SpatialGrid(-6, 6, 121).points, 41))
    assert np.array_equal(table[:, 1], np.tile(offdiagonal_lattice(1.5, 41), 121))
    assert np.array_equal(table[:, 2], values.real.ravel())
    assert np.array_equal(table[:, 3], values.imag.ravel())


def test_dat_table_is_the_one_shot_join_of_the_payload(tmp_path):
    from hydrec.numerics import LATTICE_BLOCK_BYTES, SpatialGrid
    from hydrec.simulator import offdiagonal_lattice

    n_x = LATTICE_BLOCK_BYTES // (16 * 41) + 37  # two blocks of rows, the last one partial
    out = tmp_path / "demo"
    assert run("demo-cat", "--orders", "7", f"--grid=-6,6,{n_x}", "--n-y", "41", "--out", out) == 0
    values = np.frombuffer((out / "rho_N7.bin").read_bytes(), dtype="<c16").reshape(n_x, 41)
    # the whole table joined in memory at once
    xs = [t for t in map(repr, SpatialGrid(-6, 6, n_x).points.tolist()) for _ in range(41)]
    ys = list(map(repr, offdiagonal_lattice(1.5, 41).tolist())) * n_x
    real = map(repr, values.real.ravel().tolist())
    imag = map(repr, values.imag.ravel().tolist())
    table = "# x y re im\n" + "".join(map("{} {} {} {}\n".format, xs, ys, real, imag))
    assert (out / "rho_N7.dat").read_bytes() == table.encode()


def overflowing_assembly(grid):
    """The moments and hbar of an assembly whose lattice holds inf, -inf and nan."""
    f = np.random.default_rng(4).normal(size=(9, grid.n_points))
    # terms of opposite signs overflow to inf and -inf in both parts, which sum to nan
    f[1:5, ::3] = np.finfo(float).max
    return GridField(grid, f), 0.7


def cat_assembly(grid):
    """The moments and hbar of the default cat's order-6 assembly."""
    from hydrec.simulator import CatStateParams, cat_state_moment

    f = [cat_state_moment(CatStateParams(), n, grid.points) for n in range(7)]
    return GridField(grid, f), 1.0  # odd cat moments vanish: every im is 0.0


def unsupported_assembly(grid):
    """The moments and hbar of an order-8 assembly whose f_1 .. f_8 vanish past the middle
    third of the grid, where f_0 is -0.0, +0.0 or one value: each such row holds one value."""
    f = np.random.default_rng(5).normal(size=(9, grid.n_points))
    outside = np.r_[: grid.n_points // 3, 2 * grid.n_points // 3 : grid.n_points]
    f[1:, outside] = 0.0
    f[0, outside] = np.resize([-0.0, 0.0, 0.25, f[0, 0]], outside.size)
    return GridField(grid, f), 0.7


@pytest.mark.parametrize("make", [cat_assembly, overflowing_assembly, unsupported_assembly])
def test_dat_table_of_zero_and_non_finite_values_is_the_one_shot_join(tmp_path, make):
    from hydrec.assembly import _taylor_fill
    from hydrec.cli import _emit_density_grid
    from hydrec.numerics import LATTICE_BLOCK_BYTES, SpatialGrid
    from hydrec.simulator import offdiagonal_lattice

    n_x = LATTICE_BLOCK_BYTES // (16 * 21) + 5  # two blocks of rows
    grid, y = SpatialGrid(-6, 6, n_x), offdiagonal_lattice(1.5, 21)
    moments, hbar = make(grid)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rec = assemble(moments, y, hbar)
        warned = [str(w.message) for w in caught]
        defect = _emit_density_grid(tmp_path, "N", _taylor_fill(moments, y, hbar))
    # the overflowed orders, reported once by each fill, and nothing else
    assert [str(w.message) for w in caught] == 2 * warned
    assert bool(warned) == (make is overflowing_assembly)
    values = np.frombuffer((tmp_path / "rho_N.bin").read_bytes(), dtype="<c16").reshape(n_x, 21)
    assert values.tobytes() == rec.values.values.tobytes()
    with np.errstate(invalid="ignore"):  # inf - inf where an overflowed order is real
        assert np.array_equal(defect, rec.values.hermiticity_defect(), equal_nan=True)
    xs = [t for t in map(repr, grid.points.tolist()) for _ in range(21)]
    ys = list(map(repr, y.tolist())) * n_x
    real = map(repr, values.real.ravel().tolist())
    imag = list(map(repr, values.imag.ravel().tolist()))
    table = "# x y re im\n" + "".join(map("{} {} {} {}\n".format, xs, ys, real, imag))
    assert (tmp_path / "rho_N.dat").read_text() == table
    kinds = {"0.0", "inf", "-inf", "nan"} if make is overflowing_assembly else {"0.0"}
    assert kinds <= set(imag)


def test_dat_table_of_one_value_rows_is_the_one_shot_join(tmp_path):
    # rows of one value by bits (each signed zero, each nan) and rows of values equal but
    # for their bits, written through a fill that mirrors the y >= 0 half as assemble does
    from hydrec.assembly import _TaylorFill
    from hydrec.cli import _emit_density_grid

    nan, z = np.nan, 0.0
    half = np.array([
        [complex(-z, -z)] * 4, [complex(z, z)] * 4, [complex(nan, nan)] * 4,
        [complex(-nan, nan)] * 4, [complex(0.25, -1.5)] * 4,
        [complex(-z, z), complex(z, z), complex(-z, z), complex(-z, z)],
        [complex(nan, z), complex(-nan, z), complex(nan, z), complex(nan, z)],
        [complex(0.25, -1.5)] * 3 + [complex(0.25, 1.5)],
        [1.0, 2.0 - 1j, -3.0 + 0.5j, -z],
    ])
    grid, y = SpatialGrid(-1.0, 1.0, len(half)), offdiagonal_lattice(1.0, 7)

    def fill(out, blk, cols):
        out[:, 3:] = half[blk]
        mirror, upper = out[:, :3], half[blk][:, :0:-1]
        mirror.real = upper.real
        np.subtract(0.0, upper.imag, out=mirror.imag)

    with np.errstate(invalid="ignore"):
        _emit_density_grid(tmp_path, "N", _TaylorFill(grid, y, 8, 1.0, None, 0.5, fill))
    values = np.frombuffer((tmp_path / "rho_N.bin").read_bytes(), dtype="<c16").reshape(-1, 7)
    # the signs written: -0.0 and -nan in y >= 0, and each mirrored through 0.0 - im
    assert np.signbit(values[0, 3:].view(float)).all() and np.signbit(values[0].real).all()
    assert np.signbit(values[3].real).all() and not np.signbit(values[1].view(float)).any()
    xs = [t for t in map(repr, grid.points.tolist()) for _ in range(7)]
    ys = list(map(repr, y.tolist())) * len(half)
    real = map(repr, values.real.ravel().tolist())
    imag = map(repr, values.imag.ravel().tolist())
    table = "# x y re im\n" + "".join(map("{} {} {} {}\n".format, xs, ys, real, imag))
    assert (tmp_path / "rho_N.dat").read_text() == table


def test_compare_stored_psi_reference(tmp_path):
    ds = tmp_path / "ds"
    assert run(*small_dataset_args(ds), "--store-psi") == 0
    mdir = tmp_path / "m"
    run("reconstruct", ds / "dataset.json", "--order", "2", "--out", mdir)
    out = tmp_path / "cmp"
    # dy = 0.025 is not a multiple of dx, so the stored psi is interpolated
    with pytest.warns(GridCoverageWarning, match="not commensurate"):
        assert run(
            "compare", mdir / "moments.json", "--reference", "stored-psi",
            "--dataset", ds / "dataset.json", "--y-max", "0.5", "--n-y", "41",
            "--region-x", "3", "--region-y", "0.3", "--out", out,
        ) == 0
    report = json.loads((out / "report_N2.json").read_text())
    assert report["sup_error"] < 0.05
    assert report["diagonal_mismatch"] == 0.0
    assert report["hermiticity_defect"] < 1e-12


def test_no_verb_sweeps_a_whole_lattice_for_its_hermiticity_defect(tmp_path, monkeypatch):
    ds = tmp_path / "ds"
    assert run(*small_dataset_args(ds), "--store-psi") == 0
    mdir = tmp_path / "m"
    assert run("reconstruct", ds / "dataset.json", "--order", "2", "--out", mdir) == 0
    calls = []
    defect = DensityMatrixGrid.hermiticity_defect

    def counting(grid):
        calls.append(grid)
        return defect(grid)

    monkeypatch.setattr(DensityMatrixGrid, "hermiticity_defect", counting)
    out = tmp_path / "cmp"
    with pytest.warns(GridCoverageWarning, match="not commensurate"):
        assert run(
            "compare", mdir / "moments.json", "--reference", "stored-psi",
            "--dataset", ds / "dataset.json", "--n-y", "21", "--out", out,
        ) == 0
    assert not calls  # compare takes the defect over its region, in its own sweep
    report = json.loads((out / "report_N2.json").read_text())
    summary = (out / "summary_N2.txt").read_text().splitlines()
    assert f"hermiticity      {report['hermiticity_defect']:.3e}" in summary
    # assemble takes it block by block as it writes the grid: the whole lattice's defect
    rho = tmp_path / "rho"
    assert run("assemble", mdir / "moments.json", "--n-y", "21", "--out", rho) == 0
    assert not calls
    values = np.frombuffer((rho / "rho_N2.bin").read_bytes(), dtype="<c16").reshape(256, 21)
    whole = float(np.max(np.abs(values - np.conj(values[:, ::-1]))))
    assert f"hermiticity      {whole:.3e}" in (rho / "summary_N2.txt").read_text().splitlines()


def test_compare_reads_the_hermiticity_defect_inside_its_region_only(tmp_path):
    # the README quick-start moments on y = -1e80, 0, 1e80: the outer columns overflow,
    # and the region |y| <= 0.1 holds y = 0 alone, where the lattice is f_0
    ds, mdir, out = tmp_path / "dataset", tmp_path / "moments", tmp_path / "report"
    assert run(
        "simulate", "--state", "cat", "--grid=-10,10,1001", "--times", "0.09,0.02,4",
        "--potential", "free", "--store-psi", "--out", ds,
    ) == 0
    assert run("reconstruct", ds / "dataset.json", "--order", "4", "--out", mdir) == 0
    with pytest.warns(UserWarning) as caught:
        assert run(
            "compare", mdir / "moments.json", "--reference", "stored-psi", "--dataset",
            ds / "dataset.json", "--y-max", "1e80", "--n-y", "3", "--region-y", "0.1",
            "--out", out,
        ) == 0
    assert any("left the floating-point range" in str(w.message) for w in caught)
    report = json.loads((out / "report_N4.json").read_text())
    assert report["hermiticity_defect"] == 0.0
    assert report["diagonal_mismatch"] == 0.0


def test_compare_analytic_cat_reference(tmp_path):
    ds = tmp_path / "ds"
    status = run(
        "simulate", "--state", "cat", "--grid=-10,10,1024", "--times=-0.01,0.005,4",
        "--potential", "free", "--out", ds,
    )
    assert status == 0  # central node sits exactly at t = 0
    mdir = tmp_path / "m"
    # f_3's edges at node 0 hold amplified rounding, about 1e-7 of its peak over the nodes
    with pytest.warns(DecayAssumptionWarning):
        assert run("reconstruct", ds / "dataset.json", "--order", "4", "--out", mdir) == 0
    out = tmp_path / "cmp"
    assert run(
        "compare", mdir / "moments.json", "--reference", "analytic-cat",
        "--y-max", "0.3", "--n-y", "31", "--region-x", "3", "--region-y", "0.05",
        "--out", out,
    ) == 0
    report = json.loads((out / "report_N4.json").read_text())
    assert report["sup_error"] < 1e-3  # order-4 truncation inside |y| <= 0.05
    assert report["hermiticity_defect"] < 1e-12


def test_compare_analytic_cat_of_a_moment_set_away_from_t_0_exits_4(tmp_path, capsys):
    # the closed form is the cat state at t = 0; these moments are those at t = 0.1
    ds = tmp_path / "ds"
    assert run(*small_dataset_args(ds, state="cat", times="0.09,0.01,2")) == 0
    mdir = tmp_path / "m"
    assert run("reconstruct", ds / "dataset.json", "--order", "1", "--out", mdir) == 0
    capsys.readouterr()
    status = run(
        "compare", mdir / "moments.json", "--reference", "analytic-cat", "--n-y", "11",
        "--out", tmp_path / "cmp",
    )
    err = capsys.readouterr().err.splitlines()
    assert status == 4
    assert len(err) == 1 and err[0].startswith("hydrec: missing reference:")
    assert str(mdir / "moments.json") in err[0] and "t = 0.1" in err[0]
    assert not (tmp_path / "cmp").exists()


def test_compare_analytic_cat_of_a_gaussian_moment_set_exits_4(tmp_path, capsys):
    ds = tmp_path / "ds"
    assert run(*small_dataset_args(ds)) == 0  # a Gaussian packet
    mdir = tmp_path / "m"
    assert run("reconstruct", ds / "dataset.json", "--order", "1", "--out", mdir) == 0
    capsys.readouterr()
    status = run(
        "compare", mdir / "moments.json", "--reference", "analytic-cat", "--n-y", "11",
        "--out", tmp_path / "cmp",
    )
    err = capsys.readouterr().err.splitlines()
    assert status == 4
    assert len(err) == 1 and err[0].startswith("hydrec: missing reference:")
    assert str(mdir / "moments.json") in err[0]
    assert not (tmp_path / "cmp" / "report_N1.json").exists()


def test_dataset_without_a_state_gives_a_moment_set_without_one(tmp_path):
    ds = tmp_path / "ds"
    assert run(*small_dataset_args(ds)) == 0
    manifest = json.loads((ds / "dataset.json").read_text())
    del manifest["state"]  # the dataset reader does not need it
    (ds / "dataset.json").write_text(json.dumps(manifest))
    mdir = tmp_path / "m"
    assert run("reconstruct", ds / "dataset.json", "--order", "1", "--out", mdir) == 0
    assert "state" not in json.loads((mdir / "moments.json").read_text())
    assert run("assemble", mdir / "moments.json", "--n-y", "11", "--out", tmp_path / "rho") == 0


def test_compare_missing_psi_exits_4(tmp_path):
    ds = tmp_path / "ds"
    run(*small_dataset_args(ds))  # no --store-psi
    mdir = tmp_path / "m"
    run("reconstruct", ds / "dataset.json", "--order", "1", "--out", mdir)
    status = run(
        "compare", mdir / "moments.json", "--reference", "stored-psi",
        "--dataset", ds / "dataset.json", "--out", tmp_path / "c",
    )
    assert status == 4


def stored_psi_compare(tmp_path, capsys, moments, dataset):
    capsys.readouterr()
    status = run(
        "compare", moments, "--reference", "stored-psi", "--dataset", dataset,
        "--n-y", "11", "--out", tmp_path / "cmp",
    )
    return status, capsys.readouterr().err.splitlines()


def test_compare_stored_psi_of_another_dataset_exits_1(tmp_path, capsys):
    ds, other = tmp_path / "ds", tmp_path / "other"
    assert run(*small_dataset_args(ds), "--store-psi") == 0
    assert run(*small_dataset_args(other, center="0.5"), "--store-psi") == 0
    mdir = tmp_path / "m"
    assert run("reconstruct", ds / "dataset.json", "--order", "1", "--out", mdir) == 0
    moments = mdir / "moments.json"
    status, err = stored_psi_compare(tmp_path, capsys, moments, other / "dataset.json")
    assert status == 1
    assert len(err) == 1 and err[0].startswith("hydrec: error:")
    assert str(moments) in err[0] and str(other / "dataset.json") in err[0]
    assert not (tmp_path / "cmp" / "report_N1.json").exists()


def test_compare_stored_psi_at_a_node_past_the_dataset_exits_1(tmp_path, capsys):
    ds = tmp_path / "ds"
    assert run(*small_dataset_args(ds), "--store-psi") == 0  # nodes 0..2
    mdir = tmp_path / "m"
    assert run("reconstruct", ds / "dataset.json", "--order", "1", "--out", mdir) == 0
    manifest = json.loads((mdir / "moments.json").read_text())
    manifest["node"] = 7
    (mdir / "moments.json").write_text(json.dumps(manifest))
    status, err = stored_psi_compare(tmp_path, capsys, mdir / "moments.json", ds / "dataset.json")
    assert status == 1
    assert len(err) == 1 and err[0].startswith("hydrec: error:")
    assert str(mdir / "moments.json") in err[0] and str(ds / "dataset.json") in err[0]


@pytest.mark.parametrize(
    "case, status",
    [("no --dataset", 4), ("no stored psi", 4), ("another dataset", 1)],
)
def test_a_failed_compare_writes_no_density_grid(tmp_path, capsys, case, status):
    ds, mdir, out = tmp_path / "ds", tmp_path / "m", tmp_path / "cmp"
    assert run(*small_dataset_args(ds), "--store-psi") == 0
    assert run("reconstruct", ds / "dataset.json", "--order", "1", "--out", mdir) == 0
    dataset = []
    if case != "no --dataset":
        other = tmp_path / "other"  # without psi, or the psi of another state
        psi = ["--store-psi"] if case == "another dataset" else []
        assert run(*small_dataset_args(other, center="0.5"), *psi) == 0
        dataset = ["--dataset", other / "dataset.json"]
    capsys.readouterr()
    assert run("compare", mdir / "moments.json", "--reference", "stored-psi", *dataset,
               "--n-y", "11", "--out", out) == status
    assert len(capsys.readouterr().err.splitlines()) == 1
    assert not list(out.glob("rho_N*")) and not list(out.glob("report_N*"))


def test_a_compare_writes_its_report_and_summary_only(tmp_path):
    # the density grid is assemble's; compare adds no copy of it
    ds, mdir, out = tmp_path / "ds", tmp_path / "m", tmp_path / "cmp"
    assert run(*small_dataset_args(ds, grid="-10,10,251"), "--store-psi") == 0
    assert run("reconstruct", ds / "dataset.json", "--order", "2", "--out", mdir) == 0
    # dy = dx = 0.08, so the stored-psi reference is exact and prints no warning
    assert run("compare", mdir / "moments.json", "--reference", "stored-psi",
               "--dataset", ds / "dataset.json", "--y-max", "0.8", "--n-y", "21",
               "--out", out) == 0
    assert sorted(path.name for path in out.iterdir()) == ["report_N2.json", "summary_N2.txt"]


def test_compare_refuses_an_empty_region_before_it_builds_its_reference(
    tmp_path, capsys, monkeypatch
):
    ds, mdir, out = tmp_path / "ds", tmp_path / "m", tmp_path / "cmp"
    assert run(*small_dataset_args(ds), "--store-psi") == 0
    assert run("reconstruct", ds / "dataset.json", "--order", "2", "--out", mdir) == 0

    def no_reference(*args):
        raise AssertionError("a reference was built for a region that is refused")

    monkeypatch.setattr("hydrec.cli._resolve_reference", no_reference)
    capsys.readouterr()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        status = run("compare", mdir / "moments.json", "--reference", "stored-psi",
                     "--dataset", ds / "dataset.json", "--region-x", "-1", "--out", out)
    assert status == 1 and not caught
    assert capsys.readouterr().err.splitlines() == [
        "hydrec: error: comparison region contains no lattice points"
    ]
    assert not out.exists()


@pytest.fixture(scope="module")
def benchmark_moments(tmp_path_factory):
    """The full-size benchmark pipeline's dataset and order-12 moment set (nominal cat)."""
    out = tmp_path_factory.mktemp("benchmark")
    assert run(
        "simulate", "--state", "cat", "--grid=-10,10,1024", "--times", "0.09,0.005,12",
        "--potential", "quartic:c2=0.5,c4=0.1", "--store-psi", "--out", out / "ds",
    ) == 0
    with pytest.warns(DecayAssumptionWarning):
        assert run("reconstruct", out / "ds" / "dataset.json", "--order", "12",
                   "--out", out / "m") == 0
    return out / "ds" / "dataset.json", out / "m" / "moments.json"


def lattice_bytes(grid, n_y, x_max=np.inf):
    """Bytes of the complex (x, y) lattice rows at |x| <= x_max of ``grid``."""
    return np.count_nonzero(np.abs(grid.points) <= x_max) * n_y * 16


@pytest.fixture(scope="module")
def benchmark_assembly(benchmark_moments, tmp_path_factory):
    """The benchmark pipeline's density grid as ``assemble`` writes it, and the verb's
    traced peak."""
    out = tmp_path_factory.mktemp("benchmark-rho")
    argv = ["assemble", benchmark_moments[1], "--y-max", "1.5", "--n-y", "201", "--out", out]
    status, peak = traced_peak(lambda: run(*argv))
    assert status == 0
    return out, peak


def test_the_benchmark_assemble_holds_a_few_row_blocks_and_the_moments(benchmark_assembly):
    # the 1024 x 201 lattice is 12.6 row blocks: it is written one block at a time, and the
    # block's fill, its table lines and the (13, 1024) moment matrix are all that is held
    bound = 13 * 1024 * 8 + 5 * LATTICE_BLOCK_BYTES
    assert benchmark_assembly[1] <= bound < lattice_bytes(SpatialGrid(-10, 10, 1024), 201)


def test_the_benchmark_density_grid_holds_the_assembled_lattice_and_its_digest(
    benchmark_moments, benchmark_assembly
):
    out = benchmark_assembly[0]
    mset = read_moment_set(benchmark_moments[1])
    y = offdiagonal_lattice(1.5, 201)
    rec = assemble(GridField(mset["grid"], mset["moments"]), y, mset["constants"].hbar)
    raw = (out / "rho_N12.bin").read_bytes()
    assert raw == rec.values.values.astype("<c16").tobytes()  # 12.6 row blocks, written in turn
    manifest = json.loads((out / "rho_N12.json").read_text())
    assert manifest["checksum"] == payload_checksum(raw)
    assert manifest["trust_radius"] == rec.trust_radius


def test_the_benchmark_compare_holds_one_lattice_and_the_region_reference(
    benchmark_moments, tmp_path
):
    dataset, moments = benchmark_moments
    argv = ["compare", moments, "--reference", "stored-psi", "--dataset", dataset,
            "--y-max", "1.5", "--n-y", "201", "--region-y", "0.1", "--out", tmp_path]
    with pytest.warns(GridCoverageWarning, match="not commensurate"):  # dy = 0.015
        status, peak = traced_peak(lambda: run(*argv))
    assert status == 0
    # rho_N and the reference on the region's rows, |x| <= 3, only; the dataset's payloads
    # (1.2 row blocks) and the reference fill's temporaries come on top
    grid = SpatialGrid(-10.0, 10.0, 1024)
    assert peak <= 2 * lattice_bytes(grid, 201, 3.0) + 5 * LATTICE_BLOCK_BYTES


def test_demo_cat_holds_one_order_and_the_region_reference(tmp_path):
    status, peak = traced_peak(lambda: run("demo-cat", "--out", tmp_path))
    assert status == 0
    # one order's rho_N and the closed form on the region's rows, |x| <= 3, only; the
    # region's errors (0.4 MiB), the moments and the block temporaries come on top
    grid = SpatialGrid(-6.0, 6.0, 481)
    assert peak <= 2 * lattice_bytes(grid, 201, 3.0) + 6 * LATTICE_BLOCK_BYTES


def test_demo_cat_on_a_grid_without_the_region_exits_1(tmp_path, capsys):
    out = tmp_path / "demo"
    assert run("demo-cat", "--grid=10,20,101", "--orders", "2", "--out", out) == 1
    assert capsys.readouterr().err.splitlines() == [
        "hydrec: error: comparison region contains no lattice points"
    ]
    assert not out.exists()


def test_demo_cat_region_holding_only_the_diagonal_exits_1(tmp_path, capsys):
    out = tmp_path / "demo"
    assert run("demo-cat", "--y-max", "10", "--n-y", "5", "--orders", "2", "--out", out) == 1
    err = capsys.readouterr().err.splitlines()
    # rho_N(x, 0) = f_0 by construction, so that region would report a perfect score
    assert len(err) == 1 and "|y| <= 1.5 holds only y = 0 at dy = 5" in err[0]
    assert not out.exists()


@pytest.mark.parametrize(
    "verb, flag",
    [
        ("reconstruct", "--hbar"),
        ("reconstruct", "--mass"),
        ("assemble", "--hbar"),
        ("compare", "--mass"),
        ("demo-cat", "--mass"),
    ],
)
def test_constant_flags_a_verb_does_not_read_exit_1(tmp_path, capsys, verb, flag):
    # reconstruct, assemble and compare take hbar and mass from the manifest;
    # demo-cat needs no mass
    ds = tmp_path / "ds"
    # analytic-cat compares only a moment set of a cat state, centred at t = 0
    assert run(*small_dataset_args(ds, state="cat", times="-0.01,0.01,2")) == 0
    mdir = tmp_path / "m"
    assert run("reconstruct", ds / "dataset.json", "--order", "1", "--out", mdir) == 0
    operands = {
        "reconstruct": [ds / "dataset.json", "--order", "1"],
        "assemble": [mdir / "moments.json", "--n-y", "11"],
        "compare": [mdir / "moments.json", "--reference", "analytic-cat", "--n-y", "11"],
        "demo-cat": ["--orders", "0", "--grid=-6,6,121", "--n-y", "11"],
    }[verb]
    assert run(verb, *operands, "--out", tmp_path / "out") == 0
    capsys.readouterr()
    assert run(verb, *operands, flag, "2", "--out", tmp_path / "flagged") == 1
    assert f"error: unrecognized arguments: {flag} 2" in capsys.readouterr().err
    assert not (tmp_path / "flagged").exists()


def test_demo_cat_order_zero(tmp_path):
    out = tmp_path / "demo"
    assert run("demo-cat", "--orders", "0", "--grid=-6,6,121", "--n-y", "41", "--out", out) == 0
    summary = json.loads((out / "demo_summary.json").read_text())
    assert summary["orders"][0]["order"] == 0
    # rho_0 is constant in y, so the worst error is the off-diagonal decay itself
    assert summary["orders"][0]["sup_error_real"] > 1.0


def test_demo_cat_is_deterministic(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        assert run(
            "demo-cat", "--orders", "12,4", "--grid=-6,6,121", "--n-y", "41", "--out", out
        ) == 0
    for name in ("demo_summary.json", "demo_summary.txt", "rho_N4.bin", "rho_N12.bin",
                 "rho_N4.dat", "rho_N12.dat"):
        assert (a / name).read_bytes() == (b / name).read_bytes(), name


def test_demo_cat_runs_a_repeated_order_once(tmp_path, capsys):
    out = tmp_path / "demo"
    capsys.readouterr()
    argv = ["demo-cat", "--orders", "10,4,10", "--grid=-6,6,121", "--n-y", "21", "--out", out]
    assert run(*argv) == 0
    rows = capsys.readouterr().out.splitlines()[1:]
    assert [row.split()[0] for row in rows] == ["4", "10"]
    summary = json.loads((out / "demo_summary.json").read_text())
    assert [entry["order"] for entry in summary["orders"]] == [4, 10]


def test_simulate_cat_records_carry_the_state_norm(tmp_path):
    from hydrec.simulator import CatStateParams, cat_state_norm

    out = tmp_path / "cat"
    status = run(
        "simulate", "--state", "cat", "--grid=-10,10,1024", "--times", "0,0.005,4",
        "--potential", "free", "--out", out,
    )
    assert status == 0
    data = read_dataset(out / "dataset.json")
    expected = cat_state_norm(CatStateParams())
    norms = np.trapezoid(data["records"], dx=data["grid"].dx, axis=1)
    assert norms.shape == (5,)
    assert np.allclose(norms, expected, rtol=1e-8)


def test_potential_argument_parsing(tmp_path):
    # polynomial: x-orders split by ';', time coefficients by '/'
    status = run(*small_dataset_args(
        tmp_path / "poly", potential="polynomial:coeffs=0;0;0.5/0.1", times="0,0.005,2"
    ))
    assert status == 0
    data = read_dataset((tmp_path / "poly") / "dataset.json")
    assert data["model"].kind == "polynomial"
    for t in (0.0, 2.0):  # V = (0.5 + 0.1 t) x^2
        assert np.array_equal(x_coefficients(data["model"], t), [0.0, 0.0, 0.5 + 0.1 * t])

    status = run(*small_dataset_args(
        tmp_path / "trap", potential="paul_trap:a=1,b=0.2,big_omega=3", times="0,0.005,2"
    ))
    assert status == 0
    trap = read_dataset((tmp_path / "trap") / "dataset.json")["model"]
    assert trap.kind == "paul_trap"
    assert trap.params["mass"] == 1.0


@pytest.mark.parametrize(
    "potential, key",
    [
        ("quartic:c2=0.5,c6=1", "'c6'"),  # unknown key
        ("harmonic:omega=1,c4=1", "'c4'"),
        ("free:omega=1", "'omega'"),
        ("harmonic", "'omega'"),  # missing key
        ("paul_trap:a=1,b=0.2", "'big_omega'"),
        ("polynomial:c2=1", "'c2'"),
    ],
)
def test_potential_with_an_unknown_or_missing_key_exits_1(tmp_path, capsys, potential, key):
    capsys.readouterr()
    assert run(*small_dataset_args(tmp_path / "ds", potential=potential)) == 1
    err = capsys.readouterr().err.splitlines()
    kind = potential.partition(":")[0]
    assert len(err) == 1 and err[0].startswith("hydrec: error:")
    assert f"{kind} potential" in err[0] and key in err[0]
    assert not (tmp_path / "ds").exists()


@pytest.mark.parametrize(
    "verb, flag, value, names",
    [
        ("simulate", "potential", "harmonic:omega=abc", ["omega", "a number", "'abc'"]),
        ("simulate", "potential", "polynomial:coeffs=0;a", ["coeffs", "'c0;c1/c1t;...'"]),
        ("demo-cat", "orders", "10,x", ["'10,x'", "'n1,n2,...'"]),
    ],
)
def test_a_value_that_is_not_a_number_exits_1_naming_flag_key_and_form(
    tmp_path, capsys, verb, flag, value, names
):
    argv = small_dataset_args(tmp_path / "out", **{flag: value})
    if verb == "demo-cat":
        argv = ["demo-cat", f"--{flag}", value, "--grid=-6,6,121", "--out", tmp_path / "out"]
    capsys.readouterr()
    assert run(*argv) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"hydrec: error: --{flag} ")
    assert all(name in err[0] for name in names), err[0]
    assert not (tmp_path / "out").exists()


def test_potential_mass_key_is_used(tmp_path, capsys):
    capsys.readouterr()
    argv = small_dataset_args(tmp_path / "light", potential="harmonic:omega=1,mass=2")
    assert run(*argv) == 1  # the particle mass (--mass) is 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and "harmonic potential has mass 2.0" in err[0]
    argv = small_dataset_args(tmp_path / "heavy", potential="harmonic:omega=1,mass=2", mass=2)
    assert run(*argv) == 0
    model = read_dataset(tmp_path / "heavy" / "dataset.json")["model"]
    assert model.params["mass"] == 2.0
    assert np.array_equal(x_coefficients(model, 0.0), [0.0, 0.0, 1.0])


def test_demo_cat_order_zero_surface_is_the_density(tmp_path):
    from hydrec.numerics import SpatialGrid
    from hydrec.simulator import CatStateParams, cat_state_moment

    out = tmp_path / "demo0"
    assert run("demo-cat", "--orders", "0", "--grid=-6,6,121", "--n-y", "41", "--out", out) == 0
    values = np.frombuffer((out / "rho_N0.bin").read_bytes(), dtype="<c16").reshape(121, 41)
    f0 = cat_state_moment(CatStateParams(), 0, SpatialGrid(-6, 6, 121).points)
    for j in range(41):
        assert np.array_equal(values[:, j].real, f0)
    assert np.all(values.imag == 0.0)


def test_usage_error_exits_1():
    assert run("reconstruct") == 1  # missing required arguments
    assert run("frobnicate") == 1


def test_moment_file_round_trip_is_bit_exact(tmp_path):
    ds = tmp_path / "ds"
    run(*small_dataset_args(ds))
    mdir = tmp_path / "m"
    run("reconstruct", ds / "dataset.json", "--order", "2", "--out", mdir)
    first = read_moment_set(mdir / "moments.json")
    second = read_moment_set(mdir / "moments.json")
    assert np.array_equal(first["moments"], second["moments"])


# ---------------------------------------------------------------------------
# malformed manifests: DataFormatError, exit 1 and one stderr line
# ---------------------------------------------------------------------------


def edited_manifest_run(tmp_path, capsys, which, edit):
    """Write a dataset and a moment set, edit one manifest, and read it back.

    Returns the CLI status of the verb that reads the edited manifest, its
    stderr lines, and the library reader's call on that manifest.
    """
    ds = tmp_path / "ds"
    assert run(*small_dataset_args(ds), "--store-psi") == 0
    mdir = tmp_path / "m"
    assert run("reconstruct", ds / "dataset.json", "--order", "1", "--out", mdir) == 0
    if which == "dataset":
        target, reader = ds / "dataset.json", read_dataset
        argv = ("reconstruct", target, "--order", "1", "--out", tmp_path / "again")
    else:
        target, reader = mdir / "moments.json", read_moment_set
        argv = ("assemble", target, "--n-y", "11", "--out", tmp_path / "rho")
    manifest = json.loads(target.read_text())
    edit(manifest)
    target.write_text(json.dumps(manifest))
    capsys.readouterr()
    status = run(*argv)
    return status, capsys.readouterr().err.splitlines(), lambda: reader(target)


@pytest.mark.parametrize("which", ["dataset", "moments"])
def test_manifest_without_format_version_exits_1(tmp_path, capsys, which):
    status, err, read = edited_manifest_run(
        tmp_path, capsys, which, lambda m: m.pop("format_version")
    )
    assert status == 1
    assert len(err) == 1 and "no format_version" in err[0]
    with pytest.raises(DataFormatError, match="format_version"):
        read()


@pytest.mark.parametrize("which", ["dataset", "moments"])
def test_manifest_format_version_1_exits_1(tmp_path, capsys, which):
    status, err, read = edited_manifest_run(
        tmp_path, capsys, which, lambda m: m.update(format_version=1)
    )
    assert status == 1
    assert len(err) == 1 and "format_version 1" in err[0]
    with pytest.raises(DataFormatError, match="format_version"):
        read()


@pytest.mark.parametrize(
    "which, key",
    [
        pytest.param("dataset", "grid", id="dataset"),
        pytest.param("moments", "grid", id="moments"),
        pytest.param("dataset", "checksum", id="dataset-checksum"),
        pytest.param("dataset", "psi_checksum", id="dataset-psi_checksum"),
        pytest.param("moments", "checksum", id="moments-checksum"),
    ],
)
def test_manifest_missing_required_key_exits_1(tmp_path, capsys, which, key):
    status, err, read = edited_manifest_run(tmp_path, capsys, which, lambda m: m.pop(key))
    assert status == 1
    assert len(err) == 1 and err[0].endswith(f" lacks required key(s) {key}")
    with pytest.raises(DataFormatError, match=rf"lacks required key\(s\) {key}$"):
        read()


@pytest.mark.parametrize("which", ["dataset", "moments"])
def test_manifest_malformed_entry_exits_1(tmp_path, capsys, which):
    status, err, read = edited_manifest_run(
        tmp_path, capsys, which, lambda m: m["grid"].pop("n_points")
    )
    assert status == 1
    assert len(err) == 1 and "malformed entry" in err[0] and "n_points" in err[0]
    with pytest.raises(DataFormatError, match="n_points"):
        read()


@pytest.mark.parametrize(
    "which, key, name",
    [
        ("dataset", "data_path", "../m/moments.bin"),
        ("dataset", "psi_path", "../m/moments.bin"),
        ("moments", "data_path", "../ds/f0.bin"),
    ],
)
def test_payload_path_outside_manifest_directory_exits_1(tmp_path, capsys, which, key, name):
    # each name resolves to a file that exists, outside the manifest's directory
    status, err, read = edited_manifest_run(
        tmp_path, capsys, which, lambda m: m.update({key: name})
    )
    assert status == 1
    assert len(err) == 1 and "leaves" in err[0]
    with pytest.raises(DataFormatError, match="leaves"):
        read()


@pytest.mark.parametrize(
    "which, payload, value",
    [
        ("dataset", "f0.bin", np.nan),
        ("dataset", "psi.bin", np.inf),
        ("moments", "moments.bin", -np.inf),
    ],
)
def test_non_finite_payload_exits_1_naming_the_file(tmp_path, capsys, which, payload, value):
    # one value is rewritten under a matching checksum, so only the contents are wrong
    home = tmp_path / ("ds" if which == "dataset" else "m")

    def poison(manifest):
        dtype, key = ("<c16", "psi_checksum") if payload == "psi.bin" else ("<f8", "checksum")
        array = np.frombuffer((home / payload).read_bytes(), dtype=dtype).copy()
        array[array.size // 2] = value
        (home / payload).write_bytes(array.tobytes())
        manifest[key] = payload_checksum(array.tobytes())

    status, err, read = edited_manifest_run(tmp_path, capsys, which, poison)
    manifest = home / ("dataset.json" if which == "dataset" else "moments.json")
    assert status == 1
    assert len(err) == 1 and "non-finite" in err[0]
    assert str(manifest) in err[0] and payload in err[0]
    with pytest.raises(DataFormatError, match=f"{payload} holds non-finite values"):
        read()


@pytest.mark.parametrize("change", [-8, 16], ids=["truncated", "oversized"])
@pytest.mark.parametrize(
    "which, payload, itemsize",
    [("dataset", "f0.bin", 8), ("dataset", "psi.bin", 16), ("moments", "moments.bin", 8)],
)
def test_a_payload_of_the_wrong_size_exits_1_naming_both_sizes(
    tmp_path, capsys, which, payload, itemsize, change
):
    home = tmp_path / ("ds" if which == "dataset" else "m")
    sizes = []

    def resize(manifest):
        data = (home / payload).read_bytes()
        sizes.append(len(data))
        (home / payload).write_bytes(data[:change] if change < 0 else data + bytes(change))

    status, err, read = edited_manifest_run(tmp_path, capsys, which, resize)
    size = sizes[0]
    shape = (size // (256 * itemsize), 256)
    path = (home / payload).resolve()
    message = f"{path} holds {size + change} bytes, expected {size} for shape {shape}"
    assert status == 1
    assert len(err) == 1 and message in err[0]
    with pytest.raises(DataFormatError) as raised:
        read()
    assert str(raised.value) == message


# Keys each reader needs, as paths into the manifest; the nested entries are
# the arguments of the objects the reader builds.  A dataset may come without
# wavefunctions, a quartic coefficient defaults to 0, and a moment set may
# record no state, so those keys are only retyped, never dropped.
READ_KEYS = {
    "dataset": [
        ("format_version",), ("kind",), ("layout",), ("data_path",), ("checksum",),
        ("psi_path",), ("psi_checksum",), ("constants",), ("constants", "hbar"),
        ("constants", "mass"), ("grid",), ("grid", "x_min"), ("grid", "x_max"),
        ("grid", "n_points"), ("times",), ("times", "t_0"), ("times", "dt"),
        ("times", "m_plus_1"), ("potential",), ("potential", "kind"), ("potential", "params"),
        ("potential", "params", "c2"), ("potential", "params", "c4"),
    ],
    "moments": [
        ("format_version",), ("kind",), ("layout",), ("data_path",), ("checksum",),
        ("constants",), ("constants", "hbar"), ("constants", "mass"), ("grid",),
        ("grid", "x_min"), ("grid", "x_max"), ("grid", "n_points"), ("order_max",),
        ("node",), ("central_time",), ("state",), ("state", "kind"),
    ],
}
OPTIONAL_KEYS = {
    ("psi_path",), ("potential", "params", "c2"), ("potential", "params", "c4"), ("state",),
}
# one value of each JSON type, and a numeric string; a key is retyped to each
# whose type differs
RETYPES = ["x", "0.5", None, [1.0], {}, True, 3.0]


@pytest.fixture(scope="module")
def manifests(tmp_path_factory):
    root = tmp_path_factory.mktemp("manifests")
    ds, mdir = root / "ds", root / "m"
    argv = small_dataset_args(ds, potential="quartic:c2=0.5,c4=0.1")
    assert run(*argv, "--store-psi") == 0
    assert run("reconstruct", ds / "dataset.json", "--order", "1", "--out", mdir) == 0
    return root, {"dataset": ds / "dataset.json", "moments": mdir / "moments.json"}


@st.composite
def manifest_edits(draw):
    which = draw(st.sampled_from(sorted(READ_KEYS)))
    path = draw(st.sampled_from(READ_KEYS[which]))
    drop = path not in OPTIONAL_KEYS and draw(st.booleans())
    value = None if drop else draw(st.sampled_from(RETYPES))
    return which, path, drop, value


@settings(max_examples=150, deadline=None)
@given(edit=manifest_edits())
def test_dropped_or_retyped_manifest_key_exits_1_with_one_line(manifests, edit):
    root, sources = manifests
    which, path, drop, value = edit
    manifest = json.loads(sources[which].read_text())
    *parents, key = path
    entry = manifest
    for name in parents:
        entry = entry[name]
    assume(drop or type(value) is not type(entry[key]))
    if drop:
        del entry[key]
    else:
        entry[key] = value
    # beside the original, so its payload paths still resolve
    target = sources[which].with_name("edited.json")
    target.write_text(json.dumps(manifest))
    if which == "dataset":
        argv = ("reconstruct", target, "--order", "1", "--out", root / "out")
    else:
        argv = ("assemble", target, "--n-y", "11", "--out", root / "out")
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        status = run(*argv)
    lines = err.getvalue().splitlines()
    assert status == 1, (path, drop, value)
    assert len(lines) == 1 and lines[0].startswith("hydrec: error:"), lines
    assert str(target) in lines[0], lines


@pytest.mark.parametrize("key, value", [("c2", True), ("c4", "0.5"), ("c2", [0.5]), ("c4", None)])
def test_retyped_potential_coefficient_exits_1_with_one_line(manifests, capsys, key, value):
    root, sources = manifests
    manifest = json.loads(sources["dataset"].read_text())
    manifest["potential"]["params"][key] = value
    target = sources["dataset"].with_name("retyped.json")
    target.write_text(json.dumps(manifest))
    capsys.readouterr()
    assert run("reconstruct", target, "--order", "1", "--out", root / "retyped") == 1
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("hydrec: error:"), lines
    assert str(target) in lines[0] and repr(key) in lines[0], lines


@pytest.mark.parametrize(
    "state",
    [
        {"kind": "cat", "k0": 2.8},
        "cat",
        {"kind": "cat", "sigma": "0.7", "k0": 2.8},
        {"kind": "cat", "sigma": True, "k0": 2.8},
        {"kind": "cat", "sigma": 0.7, "k0": None},
        {"kind": "cat", "sigma": -0.7, "k0": 2.8},
        {"sigma": 0.7, "k0": 2.8},
    ],
)
def test_malformed_cat_state_exits_1_naming_the_moment_set(manifests, capsys, state):
    root, sources = manifests
    manifest = json.loads(sources["moments"].read_text())
    manifest["state"] = state
    target = sources["moments"].with_name("cat.json")
    target.write_text(json.dumps(manifest))
    capsys.readouterr()
    status = run(
        "compare", target, "--reference", "analytic-cat", "--n-y", "11", "--out", root / "state"
    )
    lines = capsys.readouterr().err.splitlines()
    assert status == 1
    assert len(lines) == 1 and lines[0].startswith("hydrec: error:"), lines
    assert str(target) in lines[0] and "malformed entry" in lines[0], lines
    with pytest.raises(DataFormatError, match="malformed entry"):
        read_moment_set(target)
