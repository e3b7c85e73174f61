"""Normalization, correlation filtering, and PCA."""

import tracemalloc

import numpy as np
import pytest

from perfdiag.core import LabelSeries, MetricFrame
from perfdiag.errors import (
    AllFiltered,
    ConstantColumnWarning,
    DegenerateCovariance,
    ShapeMismatch,
    TooFewSamples,
)
from perfdiag.preprocess import (
    _two_sided_t_pvalue,
    correlate_select,
    pca_fit,
    pca_transform,
    zscore,
)
from perfdiag.pipeline import PipelineConfig, run_stage


def frame_from(cols: dict, interval=1):
    names = tuple(cols)
    vals = np.column_stack([np.asarray(cols[n], dtype=np.float64) for n in names])
    ts = np.arange(vals.shape[0], dtype=np.int64) * interval
    return MetricFrame(timestamps=ts, values=vals, names=names, interval=interval)


def labels_for(frame, bits):
    return LabelSeries(timestamps=frame.timestamps, labels=np.asarray(bits))


# --- zscore ---------------------------------------------------------------

def test_zscore_small_column():
    f = frame_from({"a": [1.0, 2.0, 3.0]})
    out, dropped = zscore(f)
    expect = 1.224744871391589  # 1 / sqrt(2/3), population std
    np.testing.assert_allclose(out.values[:, 0], [-expect, 0.0, expect], atol=1e-12)
    assert dropped == ()


def test_zscore_drops_constant_column_with_warning():
    f = frame_from({"a": [1.0, 2.0, 3.0], "b": [5.0, 5.0, 5.0]})
    with pytest.warns(ConstantColumnWarning):
        out, dropped = zscore(f)
    assert out.names == ("a",)
    assert dropped == ("b",)


def test_zscore_all_constant_degenerate():
    f = frame_from({"a": [2.0, 2.0], "b": [7.0, 7.0]})
    with pytest.warns(ConstantColumnWarning):
        with pytest.raises(DegenerateCovariance):
            zscore(f)


def test_zscore_idempotent_on_normalized():
    rng = np.random.default_rng(0)
    x = rng.standard_normal(50)
    x = (x - x.mean()) / x.std()
    f = frame_from({"a": x})
    out, _ = zscore(f)
    np.testing.assert_allclose(out.values[:, 0], x, atol=1e-9)


def test_zscore_needs_two_rows():
    f = frame_from({"a": [1.0]})
    with pytest.raises(TooFewSamples):
        zscore(f)


@pytest.mark.parametrize("constant", [True, False])
@pytest.mark.filterwarnings("ignore::perfdiag.errors.ConstantColumnWarning")
def test_zscore_makes_one_copy(constant):
    # SMD width on a 0.25 grid: the z-scores, and at most one copy of their
    # kept columns, in the C order MetricFrame keeps without copying again
    vals = np.round(np.random.default_rng(5).standard_normal((10_000, 38)) * 4.0) / 4.0
    if constant:
        vals[:, -1] = 1.0
    f = frame_from({f"m{i}": vals[:, i] for i in range(38)})
    tracemalloc.start()
    try:
        out, dropped = zscore(f)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(dropped) == constant
    assert peak < 2.5 * f.values.nbytes, f"peak {peak / f.values.nbytes:.2f} x the input"
    assert out.values.flags.c_contiguous


# --- correlation filter ---------------------------------------------------

class Indicator:
    """Real-valued stand-in for a label series (the filter only correlates)."""

    def __init__(self, timestamps, values):
        self.timestamps = timestamps
        self.labels = np.asarray(values, dtype=np.float64)

    def __len__(self):
        return len(self.labels)


def correlate_select_raw(frame, k):
    return correlate_select(frame, Indicator(frame.timestamps, k))


def test_correlation_known_r_and_t():
    # K=[1..5], R=[1,2,2,4,4]: r = 2*sqrt(2)/3, frozen from a hand evaluation
    f = frame_from({"r": [1.0, 2.0, 2.0, 4.0, 4.0]})
    sel, res = correlate_select_raw(f, [1.0, 2.0, 3.0, 4.0, 5.0])
    assert res.r[0] == pytest.approx(0.9428090415820631, rel=1e-12)
    assert res.t[0] == pytest.approx(4.898979485566347, rel=1e-9)
    # two-sided p at 3 dof; oracle: 1 - (2/pi)*(atan(x) + x/(1+x^2)), x=t/sqrt(3)
    assert res.p[0] == pytest.approx(0.0162766034594286, rel=1e-10)
    assert list(res.retained) == [True]


def test_correlation_perfect_retained():
    f = frame_from({"r": [2.0, 4.0, 6.0, 8.0]})
    sel, res = correlate_select_raw(f, [1.0, 2.0, 3.0, 4.0])
    assert res.r[0] == pytest.approx(1.0)
    assert np.isinf(res.t[0])
    assert res.p[0] == 0.0
    assert list(res.retained) == [True]
    assert sel.columns == ("r",)


def test_correlation_t_formula_at_half():
    # d=102 with the correlation pinned to exactly 0.5 by construction
    d = 102
    rng = np.random.default_rng(3)
    k = rng.standard_normal(d)
    k = (k - k.mean()) / k.std()
    v = rng.standard_normal(d)
    v = v - v.mean()
    v = v - (v @ k) / d * k  # remove the k component (population inner product)
    v = v / v.std()
    r_col = 0.5 * k + np.sqrt(0.75) * v
    f = frame_from({"r": r_col})
    _, res = correlate_select_raw(f, k)
    assert res.r[0] == pytest.approx(0.5, abs=1e-12)
    # 0.5 * sqrt(100 / 0.75)
    assert res.t[0] == pytest.approx(5.773502691896258, rel=1e-9)


def test_correlation_filters_noise_keeps_signal():
    rng = np.random.default_rng(11)
    d = 400
    k = rng.integers(0, 2, d).astype(float)
    sig = 3.0 * k + rng.standard_normal(d) * 0.3
    noise = rng.standard_normal(d)
    f = frame_from({"sig": sig, "noise": noise})
    lab = LabelSeries(timestamps=f.timestamps, labels=k.astype(int))
    sel, res = correlate_select(f, lab)
    assert sel.columns == ("sig",)
    assert list(res.retained) == [True, False]


def test_correlation_all_filtered():
    rng = np.random.default_rng(5)
    f = frame_from({"a": rng.standard_normal(100), "b": rng.standard_normal(100)})
    lab = LabelSeries(timestamps=f.timestamps,
                      labels=rng.integers(0, 2, 100))
    with pytest.raises(AllFiltered):
        correlate_select(f, lab)


def test_correlation_constant_column_never_retained():
    rng = np.random.default_rng(6)
    d = 60
    k = rng.integers(0, 2, d)
    f = frame_from({"c": np.full(d, 3.0), "s": k * 5.0 + rng.standard_normal(d) * 0.1})
    lab = LabelSeries(timestamps=f.timestamps, labels=k)
    with pytest.warns(ConstantColumnWarning):
        sel, res = correlate_select(f, lab)
    assert res.r[0] == 0.0
    assert not res.retained[0]
    assert sel.columns == ("s",)


def test_correlation_permutation_equivariant():
    rng = np.random.default_rng(8)
    d = 120
    k = rng.integers(0, 2, d)
    cols = {f"m{i}": k * (i + 1) + rng.standard_normal(d) * 0.5 for i in range(4)}
    lab_bits = k
    f1 = frame_from(cols)
    order = ["m2", "m0", "m3", "m1"]
    f2 = frame_from({n: cols[n] for n in order})
    l1 = LabelSeries(timestamps=f1.timestamps, labels=lab_bits)
    _, r1 = correlate_select(f1, l1)
    _, r2 = correlate_select(f2, l1)
    for pos, name in enumerate(order):
        src = f1.names.index(name)
        assert r2.r[pos] == pytest.approx(r1.r[src], rel=1e-12)
        assert r2.retained[pos] == r1.retained[src]


def test_correlation_csv_export(tmp_path):
    rng = np.random.default_rng(9)
    d = 80
    k = rng.integers(0, 2, d)
    a = k * 4.0 + rng.standard_normal(d) * 0.2
    data = tmp_path / "d.csv"
    rows = "".join(f"{t},{x!r}\n" for t, x in enumerate(a.tolist()))
    data.write_text("timestamp,a\n" + rows)
    labels = tmp_path / "l.csv"
    labels.write_text("timestamp,label\n" + "".join(f"{t},{y}\n" for t, y in enumerate(k)))
    out = tmp_path / "out"
    config = PipelineConfig(data={"csv": str(data), "labels": str(labels)}, out=str(out))
    run_stage(config, "select")
    lines = (out / "selection.csv").read_text().strip().splitlines()
    assert lines[0] == "metric,r,t,p,retained"
    assert lines[1].startswith("a,")
    assert lines[1].endswith(",1")


def test_correlation_needs_three_rows():
    f = frame_from({"a": [1.0, 2.0]})
    lab = labels_for(f, [0, 1])
    with pytest.raises(TooFewSamples):
        correlate_select(f, lab)


# --- Student-t p-values ---------------------------------------------------

# two-sided P(|T_dof| >= t) at each t of T_GRID, recorded from scipy 1.17.1 as
# scipy.special.betainc(dof / 2, 0.5, dof / (dof + t^2)); each row stops where
# the p-value falls below 1e-300
T_GRID = (0.1, 1.0, 2.0, 4.0, 10.0, 20.0, 40.0, 1e3, 1e6)
T_PVALUES = {
    1: [
        0.936548965138893, 0.5000000000000001, 0.2951672353008665, 0.15595826075473865,
        0.06345103486110713, 0.03180450251235275, 0.015912179824051624,
        0.0006366195601611178, 6.366197723673691e-07,
    ],
    2: [
        0.9294654384141411, 0.4226497308103742, 0.18350341907227397,
        0.05719095841793663, 0.00985245702332569, 0.002490663892367097,
        0.0006244146721847406, 9.999985000025e-07, 9.999999999985001e-13,
    ],
    3: [
        0.9266523488008069, 0.3910022189557705, 0.13932596855884305,
        0.028008456010146152, 0.0021283990584141503, 0.0002732032502473116,
        3.4380680789158506e-05, 2.205307642576592e-09, 2.205315581679229e-18,
    ],
    5: [
        0.9242301411546615, 0.3632174676491228, 0.10193947882985835,
        0.01032341548083145, 0.00017094757574296363, 5.775516373224174e-06,
        1.8411962171772954e-07, 1.898013113197972e-14, 1.8980334490921362e-29,
    ],
    20: [
        0.9213399413456056, 0.3292565771717091, 0.05926553544657045,
        0.0007035232931283187, 3.1637817587143855e-09, 1.079986453421047e-14,
        1.457469655431075e-20, 1.803913399589147e-48, 1.8042578121555493e-108,
    ],
    37: [
        0.9208842083180695, 0.32380587235541863, 0.05288127722073546,
        0.0002915755388251916, 4.588121814678229e-12, 1.9765909453877236e-21,
        4.6929254236802006e-32, 1.3376650577493558e-83, 1.3385574919337533e-194,
    ],
    79: [
        0.9205976630706976, 0.32036371526073243, 0.04893703886631386,
        0.0001417014846391441, 1.103098717495113e-15, 1.1826454357442624e-32,
        3.3784759121920015e-54, 8.066476573289254e-164,
    ],
    80: [
        0.9205945014940228, 0.32032567031258075, 0.04889384789355916,
        0.00014043996784757537, 9.665682427522524e-16, 7.269850664141575e-33,
        1.1765120254316334e-54, 1.1783238641556963e-165,
    ],
    998: [
        0.9203644091859778, 0.3175529027531902, 0.04577088799656258,
        6.801951030767853e-05, 1.6745889963853366e-22, 4.275375412417269e-75,
        1.4738761501108683e-209,
    ],
    2498: [
        0.9203523499016819, 0.31740736395033914, 0.045608352803710714,
        6.518271183853416e-05, 4.119453811767847e-23, 1.1590801545407627e-82,
        7.90014490070845e-271,
    ],
    27998: [
        0.92034504143301, 0.3173191502148071, 0.04550990599267676,
        6.350515160289362e-05, 1.668914820125248e-23, 2.2836483258322357e-88,
    ],
}


@pytest.mark.parametrize("dof", sorted(T_PVALUES))
def test_t_pvalue_matches_recorded_values(dof):
    p = np.array(T_PVALUES[dof])
    t = np.array(T_GRID[: len(p)])
    got = _two_sided_t_pvalue(np.concatenate([t, -t]), dof)
    np.testing.assert_allclose(got, np.concatenate([p, p]), rtol=1e-11, atol=0.0)


@pytest.mark.parametrize("dof", [1, 2, 80, 27998])
def test_t_pvalue_limits(dof):
    p = _two_sided_t_pvalue(np.array([np.inf, -np.inf, 0.0]), dof)
    assert p.tolist() == [0.0, 0.0, 1.0]


# --- pca ------------------------------------------------------------------

def test_pca_rank1_single_component():
    x = np.linspace(-2, 2, 40)
    f = frame_from({"a": x, "b": 3 * x})
    model = pca_fit(f, variance=0.95)
    assert model.projection.shape == (2, 1)
    assert model.retained_variance == pytest.approx(1.0, abs=1e-9)


def test_pca_isotropic_full_rank():
    rng = np.random.default_rng(2)
    f = frame_from({n: rng.standard_normal(500) for n in "abc"})
    model = pca_fit(f, n_fixed=3)
    p = model.projection
    np.testing.assert_allclose(p.T @ p, np.eye(3), atol=1e-8)
    assert model.retained_variance == pytest.approx(1.0, abs=1e-9)


def test_pca_eigenvalue_trace():
    rng = np.random.default_rng(4)
    base = rng.standard_normal((300, 4))
    mix = base @ rng.standard_normal((4, 4))
    f = frame_from({f"m{i}": mix[:, i] for i in range(4)})
    model = pca_fit(f, n_fixed=4)
    # standardized data: covariance trace equals the column count
    assert sum(model.eigenvalues) == pytest.approx(4.0, rel=1e-6)
    assert list(model.eigenvalues) == sorted(model.eigenvalues, reverse=True)


def test_pca_variance_threshold_rule():
    rng = np.random.default_rng(7)
    d = 400
    shared = rng.standard_normal(d)
    cols = {
        "a": shared + 0.05 * rng.standard_normal(d),
        "b": shared + 0.05 * rng.standard_normal(d),
        "c": rng.standard_normal(d),
    }
    f = frame_from(cols)
    model = pca_fit(f, variance=0.95)
    n = model.projection.shape[1]
    evs = np.array(model.eigenvalues)
    frac = np.cumsum(evs) / evs.sum()
    assert frac[n - 1] >= 0.95 - 1e-9
    assert n == 1 or frac[n - 2] < 0.95


def test_pca_transform_and_reconstruction_bound():
    rng = np.random.default_rng(12)
    base = rng.standard_normal((250, 2))
    mix = base @ rng.standard_normal((2, 5)) + 0.1 * rng.standard_normal((250, 5))
    f = frame_from({f"m{i}": mix[:, i] for i in range(5)})
    model = pca_fit(f, variance=0.9)
    sel = pca_transform(model, f)
    assert sel.method == "pca"
    assert sel.columns == tuple(f"pc{i}" for i in range(model.projection.shape[1]))
    # project back: residual variance bounded by the discarded eigenvalue mass
    z = (f.values - np.array(model.means)) / np.array(model.stds)
    recon = sel.values @ model.projection.T
    resid = ((z - recon) ** 2).mean(axis=0).sum()
    total = z.var(axis=0).sum()
    assert resid <= (1 - model.retained_variance) * total + 1e-6


def test_pca_duplicated_row_transforms_identically():
    rng = np.random.default_rng(13)
    f = frame_from({f"m{i}": rng.standard_normal(30) for i in range(3)})
    model = pca_fit(f, n_fixed=2)
    row = np.repeat(f.values[:1], 10, axis=0)
    dup = MetricFrame(
        timestamps=np.arange(10, dtype=np.int64),
        values=row,
        names=f.names,
        interval=1,
    )
    out = pca_transform(model, dup)
    assert np.ptp(out.values, axis=0).max() == 0.0


def test_pca_transform_shape_mismatch():
    rng = np.random.default_rng(14)
    f = frame_from({"a": rng.standard_normal(20), "b": rng.standard_normal(20)})
    model = pca_fit(f, n_fixed=1)
    other = frame_from({"a": rng.standard_normal(20)})
    with pytest.raises(ShapeMismatch):
        pca_transform(model, other)


def test_pca_sign_convention_stable():
    rng = np.random.default_rng(15)
    f = frame_from({f"m{i}": rng.standard_normal(100) for i in range(3)})
    model = pca_fit(f, n_fixed=3)
    for col in model.projection.T:
        assert col[np.argmax(np.abs(col))] > 0
