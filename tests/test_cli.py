import json

import numpy as np
import pytest

from hydrec.cli import (
    DataFormatError,
    fnv1a64,
    main,
    read_dataset,
    read_moment_set,
)
from hydrec.numerics import DecayAssumptionWarning
from hydrec.potentials import x_coefficients
from hydrec.simulator import GridCoverageWarning


def run(*argv):
    return main([str(a) for a in argv])


def test_fnv1a64_known_vectors():
    # reference values of the 64-bit FNV-1a test suite
    assert fnv1a64(b"") == "cbf29ce484222325"
    assert fnv1a64(b"a") == "af63dc4c8601ec8c"
    assert fnv1a64(b"foobar") == "85944171f73967e8"


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


def test_reconstruct_order_zero_is_central_record(tmp_path):
    ds = tmp_path / "ds"
    run(*small_dataset_args(ds))
    out = tmp_path / "m0"
    assert run("reconstruct", ds / "dataset.json", "--order", "0", "--out", out) == 0
    mset = read_moment_set(out / "moments.json")
    data = read_dataset(ds / "dataset.json")
    assert np.array_equal(mset["moments"][0].field.values, data["records"][1])


def test_reconstruct_insufficient_samples_exits_3(tmp_path, capsys):
    ds = tmp_path / "ds"
    run(*small_dataset_args(ds))  # m = 2
    assert run("reconstruct", ds / "dataset.json", "--order", "3", "--out", tmp_path / "x") == 3
    err = capsys.readouterr().err
    assert "time samples" in err and "4" in err


def test_reconstruct_smoothing_option(tmp_path):
    ds = tmp_path / "ds"
    run(*small_dataset_args(ds))
    out = tmp_path / "sm"
    assert run(
        "reconstruct", ds / "dataset.json", "--order", "1", "--smooth", "5,2", "--out", out
    ) == 0
    assert read_moment_set(out / "moments.json")["manifest"]["smoothing"] == {
        "window": 5,
        "degree": 2,
    }


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
    assert header["checksum"] == fnv1a64(raw)
    values = np.frombuffer(raw, dtype="<c16").reshape(256, 41)
    mset = read_moment_set(mdir / "moments.json")
    assert np.array_equal(values[:, 20].real, mset["moments"][0].field.values)
    lines = (out / "rho_N2.dat").read_text().splitlines()
    assert lines[0].startswith("#")
    assert len(lines) == 1 + 256 * 41


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
    for a, b in zip(first["moments"], second["moments"]):
        assert np.array_equal(a.field.values, b.field.values)
