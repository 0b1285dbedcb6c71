"""Benchmark: edit metrics, tier cases, mask placement, batch runner."""
import concurrent.futures
import hashlib
import json
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from slantext import bench, geometry, guidance
from slantext.bench import (
    BASE_ROWS,
    TIER_NAMES,
    BaseSpec,
    BenchCase,
    base_mask,
    default_base_specs,
    generate_benchmark,
    levenshtein,
    load_manifest,
    ned,
    place_mask,
    report_config,
    run_bench,
    save_manifest,
    sentence_accuracy,
    tier_for_rotation,
    write_report,
)
from slantext.corpus import CANVAS, CHAR_W, TEXT_H, build_corpus, scene_background
from slantext.diffusion import LatentCodec, linear_schedule
from slantext.errors import GeometryError, InputError
from slantext.geometry import PolygonMask, polygon_area
from slantext.guidance import GuidanceConfig

from pins import pinned


def fingerprint(*args, **kwargs) -> str:
    """The config digest `run_bench` writes for `report_config(*args)`."""
    return bench._fingerprint(report_config(*args, **kwargs))


def edit_distance_oracle(a: str, b: str) -> int:
    """Plain memoized recursion, independent of the two-row implementation."""
    @lru_cache(maxsize=None)
    def d(i, j):
        if i == 0 or j == 0:
            return i + j
        return min(d(i - 1, j) + 1, d(i, j - 1) + 1,
                   d(i - 1, j - 1) + (a[i - 1] != b[j - 1]))
    return d(len(a), len(b))


def text_mask(text: str, y: float = 24.5) -> PolygonMask:
    w = CHAR_W * len(text)
    return PolygonMask(np.array(
        [[-0.5, y], [w - 0.5, y], [w - 0.5, y + TEXT_H], [-0.5, y + TEXT_H]]))


class TestEditMetrics:
    def test_known_distances(self):
        assert levenshtein("", "") == 0
        assert levenshtein("", "ABC") == 3
        assert levenshtein("KITTEN", "SITTING") == 3
        assert levenshtein("FLAW", "LAWN") == 2
        assert levenshtein("SAME", "SAME") == 0

    @settings(max_examples=200, deadline=None)
    @given(st.text("ABC", max_size=8), st.text("ABC", max_size=8))
    def test_matches_oracle(self, a, b):
        d = levenshtein(a, b)
        assert d == edit_distance_oracle(a, b)
        assert d == levenshtein(b, a)
        assert abs(len(a) - len(b)) <= d <= max(len(a), len(b))

    def test_ned_values(self):
        assert ned("AB", "AC") == 0.5
        assert ned("HELLO", "HELLO") == 1.0
        assert ned("", "WORD") == 0.0
        assert ned("ABC", "AB") == pytest.approx(2.0 / 3.0)

    def test_ned_rejects_empty_truth(self):
        with pytest.raises(InputError):
            ned("AB", "")

    def test_sentence_accuracy_counts(self):
        pairs = [("A", "A"), ("B", "C"), ("D", "D")]
        assert sentence_accuracy(pairs) == pytest.approx(2.0 / 3.0)
        assert sentence_accuracy([("X", "X")]) == 1.0
        assert sentence_accuracy([("X", "Y")]) == 0.0

    def test_sentence_accuracy_rejects_empty(self):
        with pytest.raises(InputError):
            sentence_accuracy([])


class TestTiers:
    def test_boundaries(self):
        assert tier_for_rotation(0.0) == "easy"
        assert tier_for_rotation(29.999) == "easy"
        assert tier_for_rotation(30.0) == "medium"
        assert tier_for_rotation(59.999) == "medium"
        assert tier_for_rotation(60.0) == "hard"
        assert tier_for_rotation(90.0) == "hard"

    def test_out_of_range(self):
        with pytest.raises(InputError):
            tier_for_rotation(-0.1)
        with pytest.raises(InputError):
            tier_for_rotation(90.1)

    def test_case_tier_must_match_rotation(self):
        mask = text_mask("HELLO")
        with pytest.raises(InputError):
            BenchCase("x", 0, "HELLO", mask, "easy", 45.0, 1)
        with pytest.raises(InputError):
            BenchCase("x", 0, "HELLO", mask, "sideways", 45.0, 1)


class TestPlaceMask:
    def test_zero_rotation_identity(self):
        mask = base_mask(BaseSpec(0, "BLAZE", 16))
        placed = place_mask(mask, 0.0)
        assert np.array_equal(placed.vertices, mask.vertices)

    def test_rotation_preserves_area(self):
        mask = base_mask(BaseSpec(0, "BLAZE", 16))
        area = polygon_area(mask.vertices)
        for angle in (10.0, 45.0, 90.0):
            assert polygon_area(place_mask(mask, angle).vertices) == pytest.approx(area)

    def test_shifted_back_inside(self):
        # a corpus-width row rotated upright pokes out both vertically ends
        mask = base_mask(BaseSpec(0, "BLAZE", 48))
        placed = place_mask(mask, 90.0)
        lo = placed.vertices.min(axis=0)
        hi = placed.vertices.max(axis=0)
        assert lo.min() >= -0.5
        assert hi[0] <= CANVAS[1] - 0.5 and hi[1] <= CANVAS[0] - 0.5

    def test_too_large_raises(self):
        wide = PolygonMask(np.array(
            [[0.0, 0.0], [100.0, 0.0], [100.0, 10.0], [0.0, 10.0]]))
        with pytest.raises(GeometryError):
            place_mask(wide, 0.0)


class TestGenerateBenchmark:
    def test_default_composition(self):
        cases = generate_benchmark()
        assert len(cases) == 30
        for name in TIER_NAMES:
            assert sum(c.tier == name for c in cases) == 10
        assert len({c.case_id for c in cases}) == 30

    def test_rotations_inside_tier_bounds(self):
        for c in generate_benchmark(rng_seed=3):
            assert tier_for_rotation(c.rotation_deg) == c.tier

    def test_masks_stay_on_canvas(self):
        for c in generate_benchmark(rng_seed=1):
            lo = c.mask.vertices.min(axis=0)
            hi = c.mask.vertices.max(axis=0)
            assert lo.min() >= -0.5
            assert hi[0] <= CANVAS[1] - 0.5 and hi[1] <= CANVAS[0] - 0.5

    def test_base_rows_restricted(self):
        for spec in default_base_specs():
            assert spec.y in BASE_ROWS

    def test_same_seed_identical(self):
        a = generate_benchmark(rng_seed=7)
        b = generate_benchmark(rng_seed=7)
        for ca, cb in zip(a, b):
            assert ca.case_id == cb.case_id
            assert ca.rotation_deg == cb.rotation_deg
            assert ca.seed == cb.seed
            assert np.array_equal(ca.mask.vertices, cb.mask.vertices)

    def test_different_seed_differs(self):
        a = generate_benchmark(rng_seed=0)
        b = generate_benchmark(rng_seed=1)
        assert [c.rotation_deg for c in a] != [c.rotation_deg for c in b]

    def test_bad_inputs(self):
        with pytest.raises(InputError):
            generate_benchmark(per_tier_count=0)

    def test_manifest_round_trip(self, tmp_path):
        cases = generate_benchmark(per_tier_count=2, rng_seed=5)
        path = tmp_path / "manifest.json"
        save_manifest(cases, path)
        loaded = load_manifest(path)
        assert len(loaded) == len(cases)
        for orig, back in zip(cases, loaded):
            assert orig.case_id == back.case_id
            assert orig.scene_id == back.scene_id
            assert orig.text == back.text
            assert orig.tier == back.tier
            assert orig.rotation_deg == back.rotation_deg
            assert orig.seed == back.seed
            assert np.array_equal(orig.mask.vertices, back.mask.vertices)

    def test_manifest_bytes_stable(self, tmp_path):
        cases = generate_benchmark(per_tier_count=2, rng_seed=5)
        save_manifest(cases, tmp_path / "a.json")
        save_manifest(cases, tmp_path / "b.json")
        assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()


@pytest.fixture(scope="module")
def corpus():
    return build_corpus()


@pytest.fixture(scope="module")
def tiny_cases():
    return generate_benchmark(per_tier_count=1, rng_seed=2)


# (id, cases per tier, config, sha256 of report.json) for seed-0 manifests.
# The 30-case rows are the full default manifest, guided and with both
# branches off, the same reports the gate pins under 0/full and 0/both_off.
# The ids stay put when a pin moves.
PINNED_REPORTS = [
    ("count1-full", 1, GuidanceConfig(), pinned("count1_reports")["full"]),
    ("count1-both_off", 1, GuidanceConfig(use_srb=False, use_sib=False),
     pinned("count1_reports")["both_off"]),
    ("count10-full", 10, GuidanceConfig(), pinned("reports")["0/full"]["report.json"]),
    ("count10-both_off", 10, GuidanceConfig(use_srb=False, use_sib=False),
     pinned("reports")["0/both_off"]["report.json"]),
]


class TestRunBench:
    def test_report_shape_and_aggregates(self, corpus, tiny_cases):
        report = run_bench(tiny_cases, corpus=corpus)
        assert len(report.records) == 3
        assert [r.case_id for r in report.records] == sorted(
            r.case_id for r in report.records)
        n = sum(report.tiers[t]["n"] for t in report.tiers)
        assert n == report.total["n"] == 3
        for key in ("sen_acc", "ned"):
            weighted = sum(report.tiers[t][key] * report.tiers[t]["n"]
                           for t in report.tiers) / n
            assert report.total[key] == pytest.approx(weighted, abs=1e-12)
        for r in report.records:
            assert r.sen_acc in (0.0, 1.0)
            assert 0.0 <= r.ned <= 1.0

    def test_deterministic_and_jobs_invariant(self, corpus, tiny_cases):
        kwargs = dict(config=GuidanceConfig(), corpus=corpus)
        one = run_bench(tiny_cases, **kwargs)
        two = run_bench(tiny_cases, **kwargs)
        par = run_bench(tiny_cases, config=GuidanceConfig(), jobs=2)
        blob = json.dumps(one.to_json_dict(), sort_keys=True)
        assert blob == json.dumps(two.to_json_dict(), sort_keys=True)
        assert blob == json.dumps(par.to_json_dict(), sort_keys=True)

    def test_pool_never_outnumbers_cases(self, corpus, tiny_cases, monkeypatch):
        # a fork pool starts all its workers at the first submit, so --jobs
        # 64 on 3 cases must ask for 3; a serial stand-in records the ask
        asked = []

        class SerialPool:
            def __init__(self, max_workers):
                asked.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items):
                return map(fn, items)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
        report = run_bench(tiny_cases, corpus=corpus, jobs=64)
        assert asked == [3]
        serial = run_bench(tiny_cases, corpus=corpus)
        assert report.to_json_dict() == serial.to_json_dict()
        run_bench(tiny_cases[:1], corpus=corpus, jobs=64)
        assert asked == [3]  # one case runs without a pool

    def test_failed_case_scores_zero_and_batch_survives(self, corpus, tiny_cases):
        bad = BenchCase("easy_bad", 0, "no!", text_mask("no!"), "easy", 0.0, 1)
        report = run_bench([tiny_cases[0], bad], corpus=corpus)
        rec = {r.case_id: r for r in report.records}
        assert rec["easy_bad"].sen_acc == 0.0
        assert rec["easy_bad"].ned == 0.0
        assert rec["easy_bad"].note != ""
        assert rec[tiny_cases[0].case_id].note == ""
        assert report.total["failed"] == 1
        assert run_bench(tiny_cases[:1], corpus=corpus).total["failed"] == 0

    def test_write_report_files(self, corpus, tiny_cases, tmp_path):
        report = run_bench(tiny_cases, corpus=corpus, out_dir=tmp_path)
        data = json.loads((tmp_path / "report.json").read_text())
        assert data["total"]["n"] == 3
        assert len(data["cases"]) == 3
        lines = (tmp_path / "report.csv").read_text().splitlines()
        assert lines[0] == "tier,n,sen_acc,ned"
        assert [ln.split(",")[0] for ln in lines[1:]] == ["easy", "medium", "hard", "total"]
        for ln in lines[1:]:
            _, n, acc, sim = ln.split(",")
            assert n == "1" or n == "3"
            assert len(acc.split(".")[1]) == 4 and len(sim.split(".")[1]) == 4

    def test_rewrite_is_byte_stable(self, corpus, tiny_cases, tmp_path):
        report = run_bench(tiny_cases, corpus=corpus)
        write_report(report, tmp_path / "a")
        write_report(report, tmp_path / "b")
        for name in ("report.json", "report.csv"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    def test_guided_case_divides_mask_once(self, corpus, tiny_cases, monkeypatch):
        calls = []

        def counting(*args, **kwargs):
            calls.append(args)
            return geometry.divide_mask(*args, **kwargs)

        # bench holds no divide_mask of its own; one it gained would count too
        monkeypatch.setattr(bench, "divide_mask", counting, raising=False)
        monkeypatch.setattr(guidance, "divide_mask", counting)
        run_bench(tiny_cases[:1], config=GuidanceConfig(), corpus=corpus)
        assert len(calls) == 1

    def test_scene_latent_is_encoded_once_per_scene_and_canvas(self):
        codec = LatentCodec()
        for canvas in (CANVAS, (96, 96)):
            latent = bench._scene_latent(3, canvas)
            assert bench._scene_latent(3, canvas) is latent
            assert not latent.data.flags.writeable
            want = codec.encode(scene_background(3, canvas))
            assert latent.data.tobytes() == want.data.tobytes()

    def test_non_default_canvas_scores_without_error(self):
        cases = generate_benchmark(per_tier_count=1)
        report = run_bench(cases, corpus=build_corpus(canvas=(96, 96)))
        assert [r.note for r in report.records] == [""] * len(cases)

    @pytest.mark.parametrize("per_tier_count,config,digest", [p[1:] for p in PINNED_REPORTS],
                             ids=[p[0] for p in PINNED_REPORTS])
    def test_report_digest_pinned(self, corpus, tmp_path, per_tier_count, config, digest):
        # report.json of a seed-0 run; a change to the OCR or the sampler
        # that moves any read or score moves this digest
        cases = generate_benchmark(per_tier_count=per_tier_count, rng_seed=0)
        run_bench(cases, config=config, corpus=corpus, out_dir=tmp_path)
        assert hashlib.sha256((tmp_path / "report.json").read_bytes()).hexdigest() == digest

    def test_fingerprint_tracks_config(self):
        base = fingerprint(GuidanceConfig())
        assert base == fingerprint(GuidanceConfig())
        assert base != fingerprint(GuidanceConfig(use_srb=False))
        assert len(base) == 64 and set(base) <= set("0123456789abcdef")

    def test_config_covers_schedule_and_canvas(self, tiny_cases):
        # a report scored under another schedule or canvas says so in its
        # config and its digest, not only in run_config.json
        base = run_bench(tiny_cases[:1], corpus=build_corpus(canvas=(96, 96)),
                         schedule=linear_schedule(steps=2))
        assert base.config["betas"] == linear_schedule(steps=2).betas.tolist()
        assert base.config["canvas"] == [96, 96]
        assert base.config_digest == fingerprint(
            GuidanceConfig(), linear_schedule(steps=2), (96, 96))
        digests = {
            fingerprint(GuidanceConfig()),
            fingerprint(GuidanceConfig(), linear_schedule()),
            fingerprint(GuidanceConfig(), linear_schedule(), CANVAS),
        }
        assert len(digests) == 1
        assert fingerprint(GuidanceConfig(), linear_schedule(steps=12)) not in digests
        assert fingerprint(GuidanceConfig(), canvas=(96, 96)) not in digests

    def test_bad_inputs(self):
        with pytest.raises(InputError):
            run_bench([])
        with pytest.raises(InputError):
            run_bench(generate_benchmark(per_tier_count=1), jobs=0)
