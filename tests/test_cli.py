import contextlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import hydrec
from hydrec.cli import (
    DataFormatError,
    main,
    payload_checksum,
    read_dataset,
    read_moment_set,
)
from hydrec.assembly import assemble
from hydrec.numerics import DecayAssumptionWarning, GridField
from hydrec.potentials import x_coefficients
from hydrec.reconstruction import build_pyramid
from hydrec.simulator import DensityMatrixGrid, GridCoverageWarning


def run(*argv):
    return main([str(a) for a in argv])


def test_payload_checksum_known_vectors():
    # BLAKE2b (RFC 7693) with an 8-byte digest
    assert payload_checksum(b"") == "e4a6a0577479b2b4"
    assert payload_checksum(b"a") == "40f89e395b66422f"
    assert payload_checksum(b"foobar") == "9d212f7f254a51f9"


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
    ],
    ids=["center inf", "sigma nan", "momentum nan", "coherent omega -1", "seed -1", "omega twice"],
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
        ("times", "0,0.005,-1", "need at least one time node, got 0", "0,0.005,1.5"),
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


def overflowing_assembly(grid, y):
    f = np.random.default_rng(4).normal(size=(9, grid.n_points))
    # terms of opposite signs overflow to inf and -inf in both parts, which sum to nan
    f[1:5, ::3] = np.finfo(float).max
    with pytest.warns(UserWarning, match="left the floating-point range"):
        return assemble(GridField(grid, f), y, 0.7)


def cat_assembly(grid, y):
    from hydrec.simulator import CatStateParams, cat_state_moment

    f = [cat_state_moment(CatStateParams(), n, grid.points) for n in range(7)]
    return assemble(GridField(grid, f), y, 1.0)  # odd cat moments vanish: every im is 0.0


@pytest.mark.parametrize("make", [cat_assembly, overflowing_assembly])
def test_dat_table_of_zero_and_non_finite_values_is_the_one_shot_join(tmp_path, make):
    from hydrec.cli import _emit_density_grid
    from hydrec.numerics import LATTICE_BLOCK_BYTES, SpatialGrid
    from hydrec.simulator import offdiagonal_lattice

    n_x = LATTICE_BLOCK_BYTES // (16 * 21) + 5  # two blocks of rows
    grid, y = SpatialGrid(-6, 6, n_x), offdiagonal_lattice(1.5, 21)
    rec = make(grid, y)
    _emit_density_grid(tmp_path, "N", rec)
    values = np.frombuffer((tmp_path / "rho_N.bin").read_bytes(), dtype="<c16").reshape(n_x, 21)
    assert values.tobytes() == rec.values.values.tobytes()
    xs = [t for t in map(repr, grid.points.tolist()) for _ in range(21)]
    ys = list(map(repr, y.tolist())) * n_x
    real = map(repr, values.real.ravel().tolist())
    imag = list(map(repr, values.imag.ravel().tolist()))
    table = "# x y re im\n" + "".join(map("{} {} {} {}\n".format, xs, ys, real, imag))
    assert (tmp_path / "rho_N.dat").read_text() == table
    kinds = {"0.0"} if make is cat_assembly else {"0.0", "inf", "-inf", "nan"}
    assert kinds <= set(imag)


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


def test_compare_sweeps_the_hermiticity_defect_once(tmp_path, monkeypatch):
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
    assert len(calls) == 1
    report = json.loads((out / "report_N2.json").read_text())
    summary = (out / "summary_N2.txt").read_text().splitlines()
    assert f"hermiticity      {report['hermiticity_defect']:.3e}" in summary
    calls.clear()
    assert run("assemble", mdir / "moments.json", "--n-y", "21", "--out", tmp_path / "rho") == 0
    assert len(calls) == 1


def test_compare_analytic_cat_reference(tmp_path):
    ds = tmp_path / "ds"
    status = run(
        "simulate", "--state", "cat", "--grid=-10,10,1024", "--times=-0.01,0.005,4",
        "--potential", "free", "--out", ds,
    )
    assert status == 0  # central node sits exactly at t = 0
    mdir = tmp_path / "m"
    # f_1 and f_3 vanish at t = 0: their central rows are rounding residue, which does not decay
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


@pytest.mark.parametrize("which", ["dataset", "moments"])
def test_manifest_missing_required_key_exits_1(tmp_path, capsys, which):
    status, err, read = edited_manifest_run(tmp_path, capsys, which, lambda m: m.pop("grid"))
    assert status == 1
    assert len(err) == 1 and "required key(s) grid" in err[0]
    with pytest.raises(DataFormatError, match="grid"):
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
