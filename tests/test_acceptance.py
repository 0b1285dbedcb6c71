"""Acceptance suite: one test per numbered criterion.

Each criterion is a single test function, so `pytest -v` prints exactly one
pass/fail line per criterion.  Stated runtime budgets are enforced with wall
clocks measured around the work they cover; the benchmark sweep shared by
criteria 9 and 10 tracks per-configuration time so each budget is checked
against the runs it actually needs.
"""
import json
import math
import time

import numpy as np
import pytest

from slantext.bench import (
    TIER_NAMES,
    generate_benchmark,
    ned,
    ocr_decode,
    run_bench,
    sentence_accuracy,
)
from slantext.cli import main
from slantext.corpus import build_corpus, make_denoiser
from slantext.diffusion import LatentCodec, ddim_step, linear_schedule, predict_x0, sample
from slantext.geometry import (
    PolygonMask,
    divide_mask,
    flatten_segments,
    min_area_rect,
    rotation_matrix,
)
from slantext.glyph import char_cells, default_font, render_glyph_image
from slantext.grid import LatentGrid, RegionMask, adain
from slantext.guidance import (
    GuidanceConfig,
    apply_guidance,
    generate,
    kappa,
    merge_priors,
    semantic_rectify,
    structure_inject,
)

CANVAS = (64, 64)

ABLATION = (
    ("none", GuidanceConfig(use_srb=False, use_sib=False, use_adain=False)),
    ("rectify", GuidanceConfig(use_sib=False, use_adain=False)),
    ("rectify+inject", GuidanceConfig(use_adain=False)),
    ("rectify+inject+stats", GuidanceConfig()),
)


@pytest.fixture(scope="module")
def corpus():
    return build_corpus()


@pytest.fixture(scope="module")
def bench_sweep(corpus):
    """Five seeded 30-case benchmarks scored under every ablation config.

    Returns per-config mean-of-seeds report lists, per-config wall time,
    and the shared case-generation time."""
    reports = {name: [] for name, _ in ABLATION}
    elapsed = {name: 0.0 for name, _ in ABLATION}
    case_time = 0.0
    for seed in range(5):
        t0 = time.perf_counter()
        cases = generate_benchmark(per_tier_count=10, rng_seed=seed)
        case_time += time.perf_counter() - t0
        for name, config in ABLATION:
            t0 = time.perf_counter()
            reports[name].append(run_bench(cases, config=config, corpus=corpus))
            elapsed[name] += time.perf_counter() - t0
    return reports, elapsed, case_time


def tier_mean(reports, tier, key):
    return sum(r.tiers[tier][key] for r in reports) / len(reports)


def total_mean(reports, key):
    return sum(r.total[key] for r in reports) / len(reports)


def rect_mask(cx, cy, w, h, angle=0.0):
    half = np.array([[-w, -h], [w, -h], [w, h], [-w, h]]) / 2.0
    poly = PolygonMask(half + np.array([cx, cy]))
    return poly.rotated(angle) if angle else poly


def flat_text_mask(text, y=24.5):
    w = 12.0 * len(text)
    return PolygonMask(np.array(
        [[-0.5, y], [w - 0.5, y], [w - 0.5, y + 14.0], [-0.5, y + 14.0]]))


def test_criterion_01_statistic_transfer():
    rng = np.random.default_rng(101)
    start = time.perf_counter()
    for _ in range(100):
        content = LatentGrid(
            rng.standard_normal((3, 16, 16)) * rng.uniform(0.5, 2.0)
            + rng.uniform(-2.0, 2.0))
        style = LatentGrid(
            rng.standard_normal((3, 16, 16)) * rng.uniform(0.5, 2.0)
            + rng.uniform(-2.0, 2.0))
        out = adain(content, style).data
        for c in range(3):
            assert abs(out[c].mean() - style.data[c].mean()) < 1e-6
            assert abs(out[c].std() - style.data[c].std()) < 1e-6
    x = LatentGrid(rng.standard_normal((3, 16, 16)))
    assert np.abs(adain(x, x).data - x.data).max() < 1e-9
    assert time.perf_counter() - start < 1.0


def _scalar_stats(chan):
    vals = [float(v) for row in chan for v in row]
    mean = sum(vals) / len(vals)
    var = sum((v - mean) ** 2 for v in vals) / len(vals)
    return mean, math.sqrt(var)


def _scalar_adain(content, style):
    out = np.empty_like(content)
    for c in range(content.shape[0]):
        cm, cs = _scalar_stats(content[c])
        sm, ss = _scalar_stats(style[c])
        denom = max(cs, 1e-5)
        for i in range(content.shape[1]):
            for j in range(content.shape[2]):
                out[c, i, j] = (float(content[c, i, j]) - cm) / denom * ss + sm
    return out


def _scalar_blend(a, b, m):
    out = np.empty_like(a)
    for c in range(a.shape[0]):
        for i in range(a.shape[1]):
            for j in range(a.shape[2]):
                out[c, i, j] = float(a[c, i, j]) * float(m[i, j]) \
                    + float(b[c, i, j]) * (1.0 - float(m[i, j]))
    return out


def test_criterion_02_update_rule_oracles():
    rng = np.random.default_rng(202)
    shape = (2, 3, 3)
    start = time.perf_counter()

    def draw():
        return rng.standard_normal(shape) * rng.uniform(0.5, 2.0)

    def draw_mask():
        return rng.integers(0, 2, size=shape[1:]).astype(np.float64)

    for k in range(50):
        z_t, z_ref, z_glyph, z_rect = draw(), draw(), draw(), draw()
        m, ref_m = draw_mask(), draw_mask()
        use_adain = bool(k % 2)

        got = semantic_rectify(LatentGrid(z_ref), LatentGrid(z_t),
                               RegionMask(m), use_adain).data
        src = _scalar_adain(z_ref, z_t) if use_adain else z_ref
        assert np.abs(got - _scalar_blend(src, z_t, m)).max() <= 1e-10

        got = structure_inject(LatentGrid(z_glyph), LatentGrid(z_t),
                               RegionMask(m)).data
        expect = _scalar_blend(_scalar_adain(z_glyph, z_t), z_t, m)
        assert np.abs(got - expect).max() <= 1e-10

        rho = float(rng.uniform(0.05, 2.0))
        got = merge_priors(LatentGrid(z_rect), LatentGrid(z_glyph),
                           LatentGrid(z_t), rho).data
        g = _scalar_adain(z_glyph, z_t)
        expect = np.array([[[rho * g[c, i, j] + (1.0 - rho) * z_rect[c, i, j]
                             for j in range(3)] for i in range(3)]
                           for c in range(2)])
        assert np.abs(got - expect).max() <= 1e-10

        use_srb = bool(rng.integers(0, 2))
        use_sib = (not use_srb) or bool(rng.integers(0, 2))
        config = GuidanceConfig(use_srb=use_srb, use_sib=use_sib,
                                use_adain=use_adain,
                                lambda_=float(rng.uniform(-0.5, 0.5)), rho=rho)
        total = 20
        t = int(rng.integers(15, 21))
        got = apply_guidance(LatentGrid(z_t), t, total, config, RegionMask(m),
                             LatentGrid(z_ref), RegionMask(ref_m),
                             LatentGrid(z_glyph)).data
        if use_srb:
            src = _scalar_adain(z_ref, z_t) if use_adain else z_ref
            z_hat = _scalar_blend(src, z_t, ref_m)
        if use_sib:
            g = _scalar_adain(z_glyph, z_t)
            if use_srb:
                z_hat = rho * g + (1.0 - rho) * z_hat
            else:
                z_hat = _scalar_blend(g, z_t, m)
        kap = 10.0 ** (t - total)
        inner = kap * config.lambda_ * z_hat + (1.0 - kap) * z_t
        assert np.abs(got - _scalar_blend(inner, z_t, m)).max() <= 1e-10

        abar = float(rng.uniform(0.05, 1.0))
        z, eps = draw(), draw()
        got = predict_x0(LatentGrid(z), LatentGrid(eps), abar).data
        expect = (z - math.sqrt(1.0 - abar) * eps) / math.sqrt(abar)
        assert np.abs(got - expect).max() <= 1e-10

        sched = linear_schedule(int(rng.integers(3, 21)),
                                float(rng.uniform(1e-4, 1e-2)),
                                float(rng.uniform(0.05, 0.3)))
        t = int(rng.integers(1, sched.steps + 1))
        eta = float(rng.uniform(0.0, 1.0)) if k % 3 == 0 else 0.0
        noise = draw()
        got = ddim_step(LatentGrid(z), LatentGrid(eps), t, sched, eta=eta,
                        noise=LatentGrid(noise) if eta > 0 else None).data
        abar_t = float(sched.alpha_bars[t])
        abar_p = float(sched.alpha_bars[t - 1])
        x0 = (z - math.sqrt(1.0 - abar_t) * eps) / math.sqrt(abar_t)
        sigma2 = 0.0
        if eta > 0.0:
            sigma2 = eta ** 2 * (1.0 - abar_p) / (1.0 - abar_t) \
                * (1.0 - abar_t / abar_p)
        expect = math.sqrt(abar_p) * x0 \
            + math.sqrt(max(1.0 - abar_p - sigma2, 0.0)) * eps
        if sigma2 > 0.0:
            expect = expect + math.sqrt(sigma2) * noise
        assert np.abs(got - expect).max() <= 1e-10

    assert time.perf_counter() - start < 5.0


def test_criterion_03_step_weight_schedule():
    for total in (5, 20, 50):
        assert kappa(total, total) == 1.0
        assert kappa(total - 1, total) == 0.1
        assert kappa(total - 3, total) == 1e-3


def test_criterion_04_inactive_guidance_is_plain_sampling(corpus):
    text, scene_id = "CAT", 0
    mask = flat_text_mask(text)
    codec = LatentCodec()
    schedule = linear_schedule()
    denoiser = make_denoiser(corpus, scene_id)
    start = time.perf_counter()
    for seed in range(10):
        flags_off = generate(text, mask, scene_id, seed,
                             GuidanceConfig(use_srb=False, use_sib=False),
                             corpus=corpus)
        zero_strength = generate(text, mask, scene_id, seed,
                                 GuidanceConfig(lambda_=0.0), corpus=corpus)
        main_ss, _ = np.random.SeedSequence(seed).spawn(2)
        rng = np.random.default_rng(main_ss)
        z_init = LatentGrid(rng.standard_normal((3, 16, 16)))
        plain = sample(denoiser, z_init, schedule)
        assert flags_off.z0.data.tobytes() == plain.data.tobytes()
        assert zero_strength.z0.data.tobytes() == plain.data.tobytes()
        assert flags_off.image.tobytes() == codec.decode(plain).tobytes()
        assert zero_strength.image.tobytes() == flags_off.image.tobytes()
        assert not flags_off.guided and not zero_strength.guided
    assert time.perf_counter() - start < 30.0


def sweep_min_area(pts, step_deg=0.01):
    th = np.radians(np.arange(0.0, 90.0, step_deg))
    c, s = np.cos(th), np.sin(th)
    pu = np.outer(c, pts[:, 0]) + np.outer(s, pts[:, 1])
    pv = np.outer(-s, pts[:, 0]) + np.outer(c, pts[:, 1])
    return float(((pu.max(axis=1) - pu.min(axis=1))
                  * (pv.max(axis=1) - pv.min(axis=1))).min())


def to_segment_frame(tf, points):
    """SimilarityTransform's map p -> scale * R(angle) @ p + (tx, ty), row by
    row."""
    return points @ (tf.scale * rotation_matrix(tf.angle)).T + np.array([tf.tx, tf.ty])


def test_criterion_05_geometry_oracles():
    start = time.perf_counter()
    rng = np.random.default_rng(505)
    for _ in range(50):
        pts = rng.uniform(0.0, 100.0, size=(10, 2))
        rect = min_area_rect(pts)
        ref = sweep_min_area(pts)
        # the exact solution may only undercut the angle-sampled sweep
        assert rect.area <= ref + 1e-6
        assert ref - rect.area <= 1e-4 * ref

    for k in range(90):
        angle = math.radians(k + 0.5)
        poly = rect_mask(32.0, 32.0, 40.0, 10.0, angle)
        segs = divide_mask(poly, "HELLO")
        assert len(segs) == 1
        diff = abs(segs[0].angle - angle) % math.pi
        assert min(diff, math.pi - diff) < 1e-3
        if k % 10 == 0:
            layout = flatten_segments(segs, (64, 128))
            (x, y, w, h), tf = layout.rects[0], layout.transforms[0]
            corners = np.array([[x, y], [x + w, y], [x + w, y + h], [x, y + h]])
            err = np.linalg.norm(to_segment_frame(tf, corners) - segs[0].corners, axis=1)
            assert err.max() < 0.5

    band = PolygonMask(_arc_band_vertices())
    segs = divide_mask(band, "ABCDEF")
    layout = flatten_segments(segs, (64, 128))
    for seg, (x, y, w, h), tf in zip(segs, layout.rects, layout.transforms):
        corners = np.array([[x, y], [x + w, y], [x + w, y + h], [x, y + h]])
        err = np.linalg.norm(to_segment_frame(tf, corners) - seg.corners, axis=1)
        assert err.max() < 0.5
    assert time.perf_counter() - start < 30.0


def _arc_band_vertices(center=(80.0, 160.0), r_in=115.5, r_out=130.5,
                       th0=-98.0, th1=-82.0, k=24):
    th = np.radians(np.linspace(th0, th1, k))
    c = np.asarray(center)
    ring = np.stack([np.cos(th), np.sin(th)], axis=1)
    verts = np.vstack([c + r_out * ring, c + r_in * ring[::-1]])
    x, y = verts[:, 0], verts[:, 1]
    if 0.5 * np.sum(x * np.roll(y, -1) - np.roll(x, -1) * y) < 0:
        verts = verts[::-1]
    return verts


def test_criterion_06_sampler_convergence():
    mini = build_corpus(scene_texts=("HELLO",), rows=(16,))
    target = mini.exemplars[0].latent.data
    denoiser = make_denoiser(mini, 0)
    schedule = linear_schedule()
    start = time.perf_counter()
    for seed in range(5):
        rng = np.random.default_rng(seed)
        z0 = sample(denoiser, LatentGrid(rng.standard_normal((3, 16, 16))), schedule)
        assert np.abs(z0.data - target).max() < 1e-3
    assert time.perf_counter() - start < 10.0


def test_criterion_07_ocr_round_trip():
    font = default_font()
    chars = [c for c in font.charset if c != " "]
    assert len(chars) == 36
    base = rect_mask(31.5, 31.5, 12.0, 14.0)
    for angle_deg in (0.0, 15.0, 45.0, 75.0):
        mask = base.rotated(math.radians(angle_deg)) if angle_deg else base
        for ch in chars:
            segs = divide_mask(mask, ch)
            cells = char_cells(segs, ch)
            image = render_glyph_image(segs, ch, CANVAS).data
            result = ocr_decode(image, cells)
            assert result.decoded == ch, (angle_deg, ch, result.decoded)


def _matrix_levenshtein(a, b):
    d = [[0] * (len(b) + 1) for _ in range(len(a) + 1)]
    for i in range(len(a) + 1):
        d[i][0] = i
    for j in range(len(b) + 1):
        d[0][j] = j
    for i in range(1, len(a) + 1):
        for j in range(1, len(b) + 1):
            d[i][j] = min(d[i - 1][j] + 1, d[i][j - 1] + 1,
                          d[i - 1][j - 1] + (a[i - 1] != b[j - 1]))
    return d[len(a)][len(b)]


def test_criterion_08_metric_oracles():
    alphabet = "ABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789 "
    rng = np.random.default_rng(808)

    def draw(min_len):
        n = int(rng.integers(min_len, 11))
        return "".join(alphabet[i] for i in rng.integers(0, len(alphabet), n))

    for _ in range(1000):
        pred, gt = draw(0), draw(1)
        expect = 1.0 - _matrix_levenshtein(pred, gt) / max(len(pred), len(gt))
        assert ned(pred, gt) == expect

    pairs = [(draw(0), draw(1)) for _ in range(200)]
    hits = sum(1 for p, g in pairs if p == g)
    assert sentence_accuracy(pairs) == hits / len(pairs)
    assert sentence_accuracy([("A", "A"), ("B", "B")]) == 1.0
    assert sentence_accuracy([("A", "B")]) == 0.0


def test_criterion_09_tiered_improvement(bench_sweep):
    reports, elapsed, case_time = bench_sweep
    on = reports["rectify+inject+stats"]
    off = reports["none"]

    assert tier_mean(off, "easy", "sen_acc") >= tier_mean(off, "hard", "sen_acc")
    assert tier_mean(on, "medium", "sen_acc") >= tier_mean(off, "medium", "sen_acc")
    assert tier_mean(on, "hard", "sen_acc") >= tier_mean(off, "hard", "sen_acc")
    assert total_mean(on, "sen_acc") - total_mean(off, "sen_acc") >= 0.10
    for tier in TIER_NAMES:
        assert tier_mean(on, tier, "ned") >= tier_mean(off, tier, "ned")
    assert elapsed["rectify+inject+stats"] + elapsed["none"] + case_time < 300.0


def test_criterion_10_ablation_ordering(bench_sweep):
    reports, elapsed, case_time = bench_sweep
    chain = [total_mean(reports[name], "sen_acc") for name, _ in ABLATION]
    assert all(later >= earlier for earlier, later in zip(chain, chain[1:])), chain
    assert sum(elapsed.values()) + case_time < 600.0


def test_criterion_11_cli_determinism(tmp_path):
    mask_path = tmp_path / "mask.json"
    mask_path.write_text(json.dumps(
        [[float(x), float(y)] for x, y in flat_text_mask("CAT").vertices]))

    for name in ("gen_a", "gen_b"):
        assert main(["generate", str(mask_path), "CAT", "--seed", "9",
                     "--out", str(tmp_path / name)]) == 0
    assert (tmp_path / "gen_a" / "image.ppm").read_bytes() == \
           (tmp_path / "gen_b" / "image.ppm").read_bytes()

    assert main(["bench-gen", "--seed", "1", "--count", "1",
                 "--out", str(tmp_path / "bg")]) == 0
    manifest = str(tmp_path / "bg" / "manifest.json")
    for name, jobs in (("run_a", "2"), ("run_b", "2"), ("run_c", "1")):
        assert main(["bench-run", manifest, "--jobs", jobs,
                     "--out", str(tmp_path / name)]) == 0
    for artifact in ("report.json", "report.csv"):
        blob = (tmp_path / "run_a" / artifact).read_bytes()
        assert blob == (tmp_path / "run_b" / artifact).read_bytes()
        assert blob == (tmp_path / "run_c" / artifact).read_bytes()
