"""Building, caching and loading the compiled engine."""

import ctypes
import os
import platform
import subprocess
import sys
import textwrap

import numpy as np
import pytest

from chaowork import characteristic, geometry, native, potential, sampler, trajectory

from reference import engine_cos_sin

SRC = os.path.dirname(native.PACKAGE_DIR)


def python(code: str, *args: str, **kw) -> subprocess.Popen:
    path = [SRC, *filter(None, [os.environ.get("PYTHONPATH")])]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(path)}
    return subprocess.Popen([sys.executable, "-c", textwrap.dedent(code), *args], env=env, **kw)


def test_missing_compiler_is_named(monkeypatch):
    monkeypatch.setattr(native, "COMPILER", "chaowork-no-such-cc")
    for call in (native.find_compiler, native.library_key, native.load.__wrapped__):
        with pytest.raises(native.BuildError, match="chaowork-no-such-cc"):
            call()


def test_unwritable_cache_directory_is_named(tmp_path):
    blocker = tmp_path / "file"
    blocker.write_text("")
    with pytest.raises(native.BuildError, match=str(blocker)):
        native.build(native.find_compiler(), native._source(), str(blocker / "engine.so"))


def test_cache_key_follows_source_compiler_and_flags():
    source, cc = native._source(), native.find_compiler()
    key = native.cache_key(source, cc)
    assert native.cache_key(source, cc, tuple(native.FLAGS)) == key == native.library_key()
    assert native.cache_key(source + b"\n", cc) != key
    assert native.cache_key(source, "/opt/other/cc") != key
    assert native.cache_key(source, cc, native.FLAGS + ("-g",)) != key
    assert native.cache_key(source, cc, ("-O3",) + native.FLAGS[1:]) != key


def test_loaded_library_is_the_cached_build():
    lib = native.load()
    assert isinstance(lib, ctypes.CDLL)
    assert lib is native.load()
    name = f"_engine.{native.library_key()}.so"
    assert os.path.basename(lib._name) == name
    assert os.path.dirname(lib._name) == native.CACHE_DIR


def test_pointer_refuses_a_wrong_dtype_or_layout():
    good = np.zeros((512, 10))
    assert native.pointer(good).contents.value == 0.0
    assert native.pointer(np.arange(3), ctypes.c_int64).contents.value == 0
    for bad, ctype in (
        (good.astype(np.float32), ctypes.c_double),
        (np.arange(3, dtype=np.int32), ctypes.c_int64),
        (good[:, ::2], ctypes.c_double),
    ):
        with pytest.raises(ValueError, match=f"C-contiguous {ctype.__name__}, got {bad.dtype}"):
            native.pointer(bad, ctype)


def test_new_build_removes_stale_libraries(tmp_path, monkeypatch):
    monkeypatch.setattr(native, "CACHE_DIR", str(tmp_path))
    for name in ("_engine.0123abcd.so", ".build-inflight.so", "other.so"):
        (tmp_path / name).write_bytes(b"")
    lib = native.load.__wrapped__()
    current = f"_engine.{native.library_key()}.so"
    assert os.path.basename(lib._name) == current
    assert sorted(os.listdir(tmp_path)) == sorted([current, ".build-inflight.so", "other.so"])
    # A library another process removed first is no error.
    gone = str(tmp_path / "_engine.gone.so")
    monkeypatch.setattr(native.glob, "glob", lambda pattern: [gone])
    native._remove_stale(str(tmp_path / current))


def test_two_builds_at_once_leave_one_loadable_library(tmp_path):
    target = tmp_path / "cache" / "_engine.test.so"
    code = """
        import sys
        from chaowork import native
        native.build(native.find_compiler(), native._source(), sys.argv[1])
    """
    procs = [python(code, str(target)) for _ in range(2)]
    assert [p.wait(timeout=120) for p in procs] == [0, 0]
    assert os.listdir(target.parent) == [target.name]
    # Same source and flags as the cached build: bit-identical integrals.
    lib = native.open_library(str(target))
    pot = potential.QuenchPotential()
    q0, d = np.array([[0.3, 0.4]]), np.array([[0.6, 0.8]])
    s, dur = np.array([3.0]), np.array([0.25])
    out = np.empty(1)
    status = lib.segment_integrals(
        potential.bumps(pot),
        1,
        *(native.pointer(a) for a in (q0, d, s, dur, out)),
    )
    assert status == 0
    assert out[0] == potential.segment_constants(pot, q0, d, s).integral(dur)[0]


def test_quantum_run_neither_builds_nor_loads_the_engine(tmp_path):
    cfg = tmp_path / "q.cfg"
    cfg.write_text("quantum_h = 0.1\nu_points = 16\nbeta_list = 0.3\nworkers = 1\n")
    code = """
        import contextlib, io, sys
        from chaowork import cli, native

        def refuse(*args, **kwargs):
            raise SystemExit("the engine was built or loaded")

        native.build = native.load = native.open_library = refuse
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(["quantum", "--config", sys.argv[1], "--out", sys.argv[2]])
        # The full spectrum is numpy's dense solve: scipy is never imported.
        stray = sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
        assert not stray, stray
        sys.exit(code)
    """
    proc = python(code, str(cfg), str(tmp_path / "out"), stderr=subprocess.PIPE)
    _, err = proc.communicate(timeout=300)
    assert proc.returncode == 0, err.decode()


def test_semiclassical_run_never_imports_the_scipy_capsule(tmp_path):
    # The engine takes erf from the C library, not from scipy's Cython API,
    # and nothing else on the route imports scipy either; merging the
    # checkpoint times does not import numpy.ma, as np.unique would.
    cfg = tmp_path / "s.cfg"
    cfg.write_text("n_samples = 1200\nu_points = 64\nbeta_list = 2^-8\nseed = 777\nworkers = 1\n")
    code = """
        import contextlib, io, sys
        from chaowork import cli, native

        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(["semiclassical", "--config", sys.argv[1], "--out", sys.argv[2]])
        assert native.load.cache_info().currsize == 1
        stray = sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
        assert not stray, stray
        assert "numpy.ma" not in sys.modules
        sys.exit(code)
    """
    proc = python(code, str(cfg), str(tmp_path / "out"), stderr=subprocess.PIPE)
    _, err = proc.communicate(timeout=300)
    assert proc.returncode == 0, err.decode()


def scipy_modules_after_run(tmp_path, config: str, *command: str) -> list[str]:
    """The scipy modules a fresh interpreter holds after one successful CLI run."""
    cfg = tmp_path / "run.cfg"
    cfg.write_text(config)
    code = """
        import contextlib, io, sys
        from chaowork import cli

        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main([*sys.argv[3:], "--config", sys.argv[1], "--out", sys.argv[2]])
        print(" ".join(sorted(m for m in sys.modules if m.split(".")[0] == "scipy")))
        sys.exit(code)
    """
    proc = python(
        code, str(cfg), str(tmp_path / "out"), *command, stdout=subprocess.PIPE, stderr=subprocess.PIPE
    )
    out, err = proc.communicate(timeout=300)
    assert proc.returncode == 0, err.decode()
    return out.decode().split()


def test_fig3_scenario_never_imports_scipy(tmp_path):
    config = (
        "n_samples = 1200\nn_classical = 20000\nu_points = 64\nbeta_list = 2^-8, 2^-10\n"
        "seed = 777\nworkers = 1\n"
    )
    assert scipy_modules_after_run(tmp_path, config, "scenario", "fig3") == []


def test_partial_spectrum_quantum_run_loads_scipy_lanczos(tmp_path):
    # Only a partial spectrum needs scipy: its shift-invert Lanczos solve.
    config = (
        "quantum_h = 0.08\nquantum_n_initial = 60\nquantum_n_final = 120\nu_points = 64\n"
        "beta_list = 0.3\nworkers = 1\n"
    )
    assert "scipy.sparse.linalg" in scipy_modules_after_run(tmp_path, config, "quantum")


def _closed_form(pot, q0, d, s, dur, exact_miss=False):
    """One flight's integral of V and the sum of amp_i * pref, in mpmath.

    The same closed form as the engine.  The arguments of exp are formed in
    double as the engine forms them, because the cross product that gives
    the squared miss distance cancels for a flight aimed at a bump and exp
    multiplies the relative error of a large argument; exp, erf and the sum
    over bumps are evaluated at 30 digits.  ``exact_miss`` forms the cross
    product at 30 digits too.  A still flight (s = 0) integrates to
    V(q0) * dur, and its scale is that of an unsigned V.
    """
    import mpmath

    width = 2.0 * pot.sigma * pot.sigma
    total = scale = mpmath.mpf(0)
    for (cx, cy), sign in zip(pot.centers.tolist(), pot.signs.tolist()):
        d0x, d0y = float(q0[0]) - cx, float(q0[1]) - cy
        proj = d0x * float(d[0]) + d0y * float(d[1])
        if s == 0.0:
            amp = mpmath.exp(-(d0x * d0x + d0y * d0y) / width)
            total += sign * amp * dur
            scale += amp * dur
            continue
        num = mpmath.mpf if exact_miss else float
        cross = num(d0x) * float(d[1]) - num(d0y) * float(d[0])
        amp = mpmath.exp(-(cross * cross) / width)
        alpha = s / (mpmath.mpf(pot.sigma) * mpmath.sqrt(2))
        pref = mpmath.mpf(pot.sigma) * mpmath.sqrt(mpmath.pi / 2) / s
        tau_star = -mpmath.mpf(proj) / s
        lo, hi = mpmath.erf(alpha * tau_star), mpmath.erf(alpha * (dur - tau_star))
        total += sign * amp * pref * (hi + lo)
        scale += amp * pref
    return total, scale


@pytest.mark.parametrize("n_bumps", [1, 3, 4, 5])
def test_segment_integrals_match_the_closed_form_in_mpmath(n_bumps):
    mpmath = pytest.importorskip("mpmath")
    # Flights go four at a time, and the 63rd ends in a short group that
    # repeats it; still and moving flights share each group.  Fast flights
    # take erf far past +-6, where it rounds to +-1.
    centers = np.array([*potential.DEFAULT_CENTERS, (0.9, 0.3)])[:n_bumps]
    pot = potential.QuenchPotential(centers=centers, signs=(-1.0) ** np.arange(n_bumps))
    rng = np.random.default_rng(20)
    n = 63
    q0 = rng.uniform((0.05, 0.05), (1.4, 0.95), size=(n, 2))
    angle = rng.uniform(0.0, 2.0 * np.pi, n)
    d = np.column_stack([np.cos(angle), np.sin(angle)])
    s = np.resize([0.0, 1e-3, 0.7, 3.0, 40.0, 400.0, 2.0, 9.0], n)
    dur = np.resize([0.0, 0.05, 0.3, 1.1], n)
    got = potential.segment_constants(pot, q0, d, s).integral(dur)
    with mpmath.workdps(30):
        for i in range(n):
            want, scale = _closed_form(pot, q0[i], d[i], s[i], dur[i])
            assert abs(got[i] - want) <= 1e-14 * scale, (i, got[i], want, scale)


def test_flights_aimed_at_a_bump_from_afar_keep_their_digits():
    # Each flight starts 1 to 2 away from the bump, points within 0.1 rad
    # of it and crosses it.  Forming the squared miss distance as
    # d0sq - proj^2 lost about 6e-14 of the value here; the cross product
    # keeps it to about 1e-15.
    mpmath = pytest.importorskip("mpmath")
    pot = potential.QuenchPotential(centers=np.array([[0.5, 0.5]]), signs=np.array([1.0]))
    rng = np.random.default_rng(3)
    n = 200
    r = rng.uniform(1.0, 2.0, n)
    phi = rng.uniform(0.0, 2.0 * np.pi, n)
    q0 = pot.centers[0] + np.column_stack([r * np.cos(phi), r * np.sin(phi)])
    aim = phi + np.pi + rng.uniform(-0.1, 0.1, n)
    d = np.column_stack([np.cos(aim), np.sin(aim)])
    s = np.full(n, 9.0)
    dur = (r + 1.0) / 9.0
    got = potential.segment_constants(pot, q0, d, s).integral(dur)
    with mpmath.workdps(30):
        for i in range(n):
            want, _ = _closed_form(pot, q0[i], d[i], s[i], dur[i], exact_miss=True)
            assert abs(got[i] - want) <= 1e-14 * abs(want), (i, got[i], want)


def _cpu_has_avx2() -> bool:
    with open("/proc/cpuinfo") as fh:
        return "avx2" in fh.read().split()


@pytest.mark.skipif(
    platform.machine() != "x86_64"
    or platform.libc_ver()[0] != "glibc"
    or tuple(map(int, platform.libc_ver()[1].split(".")[:2])) < (2, 35),
    reason="libmvec's four-lane erf and exp are linked on x86_64 with glibc 2.35 or later",
)
def test_engine_maps_libmvec():
    # The four-lane path runs wherever the CPU has AVX2, the scalar one
    # elsewhere.  The engine names libmvec's four-lane cos and sin of
    # phase_sums beside its erf and exp.
    code = """
        import sys
        from chaowork import native
        lib = native.load()
        assert lib.math_lanes() == int(sys.argv[1])
        with open("/proc/self/maps") as fh:
            assert "libmvec" in fh.read()
        with open(lib._name, "rb") as fh:
            image = fh.read()
        for name in ("erf", "exp", "sin", "cos"):
            assert f"_ZGVdN4v_{name}\\0".encode() in image, name
    """
    proc = python(code, "4" if _cpu_has_avx2() else "1", stderr=subprocess.PIPE)
    _, err = proc.communicate(timeout=300)
    assert proc.returncode == 0, err.decode()


def test_baseline_build_traces_the_same_rays(baseline, monkeypatch):
    # Its geometry is the same arithmetic, so flights, bounces and events are
    # identical, and the integrals differ only by the math path's last-place
    # rounding.
    # 2,048 rays of sc-single: beta = 2^-12, 256 checkpoints, seed 7.
    geom, pot = geometry.BilliardGeometry(), potential.QuenchPotential()
    plan = characteristic.plan_u_grid(geom, pot, 7, n_u=256)
    times = characteristic._prepare(characteristic.Request(2.0**-12, plan, 1.0)).times
    ens = sampler.sample_ensemble(geom, 2048, seed=7)
    want, want_failed, ref = trajectory.checkpoint_action_integrals(ens.qs, ens.z, times, geom, pot)
    monkeypatch.setattr(native, "load", lambda: baseline)
    got, failed, counts = trajectory.checkpoint_action_integrals(ens.qs, ens.z, times, geom, pot)
    assert np.array_equal(counts.segments, ref.segments)
    assert np.array_equal(counts.bounces, ref.bounces)
    assert (counts.grazing, counts.corner) == (ref.grazing, ref.corner)
    assert np.array_equal(failed, want_failed)
    np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-14)


@pytest.mark.parametrize("build", ["loaded", "baseline"])
def test_phase_cos_and_sin_lie_within_4_ulp_of_numpy(baseline, build):
    # phase_sums' cos and sin, read back from one row: glibc's sincos on the
    # baseline build has numpy's bits; libmvec's four-lane cos and sin lie
    # within a few units in the last place of them.  Phases span fig2's and
    # fig3's, up to 1e5, with zeros of either sign and a short last group.
    lib = baseline if build == "baseline" else native.load()
    rng = np.random.default_rng(31)
    x = np.concatenate([
        [0.0, -0.0, np.pi / 2, np.pi, -np.pi / 4],
        *(rng.uniform(-a, a, 20_000) for a in (1.0, 100.0, 1e5)),
        rng.uniform(-1e-4, 1e-4, 3),
    ])
    c, s = engine_cos_sin(lib, x[None])
    for got, want in ((c[0], np.cos(x)), (s[0], np.sin(x))):
        if lib.math_lanes() == 1:
            assert np.array_equal(got, want)
        else:
            assert np.all(np.abs(got - want) <= 4 * np.spacing(np.abs(want)))
            assert not np.array_equal(got, want)


@pytest.mark.parametrize("bumps", [4, 3])
@pytest.mark.parametrize("max_bounces", [2, trajectory.MAX_BOUNCES_DEFAULT])
@pytest.mark.parametrize("build", ["loaded", "baseline"])
def test_batched_fills_have_the_bits_of_one_checkpoint(
    baseline, monkeypatch, build, max_bounces, bumps
):
    # A segment's checkpoint fills take their erf in one call over up to 64
    # fills.  Each fill must keep the bits it has as a trace's only
    # checkpoint, the end of the ray's last flight, whatever other fills,
    # lanes or rays share the call.  Three bumps put fills across the
    # four-lane erf's blocks.  Ray 0 is slow: its first flight holds all 200
    # checkpoints after t = 0, three full batches and a part.  Ray 1 is still
    # and fills beside moving lanes.  The others bounce at several speeds, and
    # with the bounce cap at 2 most stop early, so lanes take new rays while
    # others fill.
    if build == "baseline":
        monkeypatch.setattr(native, "load", lambda: baseline)
    geom = geometry.BilliardGeometry()
    pot = potential.QuenchPotential(
        centers=potential.DEFAULT_CENTERS[:bumps], signs=potential.DEFAULT_SIGNS[:bumps]
    )
    ens = sampler.sample_ensemble(geom, 14, seed=29)
    speeds = np.array([0.02, 0.0, 0.5, 1.0, 1.0, 2.0, 3.0, 5.0, 8.0, 10.0, 20.0, 1.0, 4.0, 6.0])
    qs, ps = ens.qs.copy(), ens.z * speeds[:, None]
    qs[0] = (0.6, 0.5)
    times = np.linspace(0.0, 0.5, 201)
    dense, failed, counts = trajectory.checkpoint_action_integrals(
        qs, ps, times, geom, pot, max_bounces
    )
    assert counts.segments[0] == 1 and counts.bounces[1] == 0
    assert (max_bounces == 2) == failed.any()
    for j, t in enumerate(times):
        one, _, _ = trajectory.checkpoint_action_integrals(
            qs, ps, times[j : j + 1], geom, pot, max_bounces
        )
        assert np.array_equal(dense[:, j], one[:, 0], equal_nan=True), (j, t)



# The engine source plus entry points that take hypot4, and the C library's
# hypot as the engine links it, over n pairs: hypot4 built for the baseline
# target and, where the engine has its AVX2 path, for AVX2 as trace_avx2
# inlines it.
HYPOT4_WRAPPER = """
INLINE void hypot4_loop(const double *x, const double *y, double *h, int64_t n)
{
    for (int64_t i = 0; i + 3 < n; i += 4) {
        const v4d a = {x[i], x[i + 1], x[i + 2], x[i + 3]};
        const v4d b = {y[i], y[i + 1], y[i + 2], y[i + 3]};
        v4d r;
        hypot4(&a, &b, &r);
        for (int k = 0; k < 4; k++)
            h[i + k] = r[k];
    }
}

void hypot4_base(const double *x, const double *y, double *h, int64_t n)
{
    hypot4_loop(x, y, h, n);
}

#ifdef HAVE_LANES4
__attribute__((target("avx2"))) void hypot4_avx2(const double *x, const double *y, double *h,
                                                  int64_t n)
{
    hypot4_loop(x, y, h, n);
}
#endif

void hypot_libc(const double *x, const double *y, double *h, int64_t n)
{
    for (int64_t i = 0; i < n; i++)
        h[i] = hypot(x[i], y[i]);
}
"""


def _hypot4_inputs(rng) -> tuple[np.ndarray, np.ndarray]:
    """About 10^6 (x, y) pairs over every class of input hypot4 must round
    as the C library does, mixed, so that lanes that call the C library sit
    next to lanes that do not."""
    n = 2**18
    # Random bit patterns: every exponent, sign, subnormal, inf and NaN.
    bits = rng.integers(0, 2**64, size=(2, n), dtype=np.uint64).view(float)
    # Random mantissas within 60 binades of each other over every exponent:
    # glibc's kernel, both of its branches and its ratio cut-off.
    near_x = np.ldexp(rng.uniform(1.0, 2.0, n), rng.integers(-1074, 1024, n))
    binade = np.frexp(near_x)[1] + rng.integers(-60, 60, n)
    with np.errstate(over="ignore"):
        near_y = np.ldexp(rng.uniform(-2.0, 2.0, n), binade)
    # Unit-scale directions, as the reflection normalises them.
    angle = rng.uniform(0.0, 2.0 * np.pi, n)
    scale = rng.uniform(0.5, 2.0, n)
    # Both sides of ay = ax 2^-54, up to 3 units in the last place away.
    ax = np.ldexp(rng.uniform(1.0, 2.0, n), rng.integers(-400, 500, n))
    ay = ((ax * 2.0**-54).view(np.int64) + rng.integers(-3, 4, n)).view(float)
    # Signed zeros, subnormals, inf, NaN and glibc's thresholds with their
    # neighbours, every pair of them.
    edges = [0.0, 5e-324, 2.225073858507201e-308, 2.2250738585072014e-308, 1.0]
    edges += [sys.float_info.max, np.inf, np.nan]
    for t in (2.0**-459, 2.0**511, 2.0**-405, 2.0**457):
        edges += [np.nextafter(t, 0.0), t, np.nextafter(t, np.inf)]
    edges = np.array(edges + [-e for e in edges])
    ex, ey = (a.ravel() for a in np.meshgrid(edges, edges))
    x = np.concatenate([bits[0], near_x, scale * np.cos(angle), ax, ex])
    y = np.concatenate([bits[1], near_y, scale * np.sin(angle), ay, ey])
    swap = rng.random(x.size) < 0.5
    pick = rng.permutation(x.size)
    x, y = np.where(swap, y, x)[pick], np.where(swap, x, y)[pick]
    return x[: x.size // 4 * 4], y[: y.size // 4 * 4]


def test_hypot4_rounds_as_the_c_library(tmp_path):
    # The reflection's four-lane hypot must have the bits of the C library's
    # hypot, which the engine called lane by lane before, on every input,
    # not only on the directions a trace makes.  The oracle is that hypot
    # linked as the engine links it, not math.hypot, which is CPython's own.
    target = str(tmp_path / "_engine.hypot4.so")
    native.build(native.find_compiler(), native._source() + HYPOT4_WRAPPER.encode(), target)
    lib = ctypes.CDLL(target)
    x, y = _hypot4_inputs(np.random.default_rng(23))
    assert x.size > 10**6

    def run(fn):
        fn.argtypes = [ctypes.POINTER(ctypes.c_double)] * 3 + [ctypes.c_int64]
        fn.restype = None
        h = np.empty_like(x)
        fn(*(native.pointer(a) for a in (x, y, h)), x.size)
        return h.view(np.uint64)

    want = run(lib.hypot_libc)
    builds = [lib.hypot4_base]
    if hasattr(lib, "hypot4_avx2") and _cpu_has_avx2():
        builds.append(lib.hypot4_avx2)
    for fn in builds:
        got = run(fn)
        bad = np.flatnonzero(got != want)
        assert bad.size == 0, [(x[i], y[i], got[i], want[i]) for i in bad[:5]]
