"""Command-line interface: config resolution, commands, exit codes."""
import json
import math

import numpy as np
import pytest

import slantext.bench as bench
import slantext.cli as cli
from slantext.cli import RunConfig, build_parser, load_config_file, main, resolve_config
from slantext.errors import InputError
from slantext.geometry import PolygonMask, polygon_area
from slantext.guidance import GuidanceConfig


def write_mask(path, mask: PolygonMask):
    path.write_text(json.dumps([[float(x), float(y)] for x, y in mask.vertices]))
    return str(path)


def flat_rect(n_chars=3, y=24.5):
    w = 12.0 * n_chars
    return PolygonMask(np.array(
        [[-0.5, y], [w - 0.5, y], [w - 0.5, y + 14.0], [-0.5, y + 14.0]]))


def arc_band(center=(80.0, 160.0), r_in=115.5, r_out=130.5,
             th0=-98.0, th1=-82.0, k=24):
    th = np.radians(np.linspace(th0, th1, k))
    c = np.asarray(center, dtype=np.float64)
    ring = np.stack([np.cos(th), np.sin(th)], axis=1)
    verts = np.vstack([c + r_out * ring, c + r_in * ring[::-1]])
    if polygon_area(verts) < 0:
        verts = verts[::-1]
    return PolygonMask(verts)


def parse(argv):
    return build_parser().parse_args(argv)


def edited_manifest(tmp_path, key, value) -> str:
    """A bench-gen manifest, one case per tier, with row 0's `key` set to `value`."""
    gen = tmp_path / "gen"
    assert main(["bench-gen", "--count", "1", "--out", str(gen)]) == 0
    manifest = gen / "manifest.json"
    rows = json.loads(manifest.read_text())
    rows[0][key] = value
    manifest.write_text(json.dumps(rows))
    return str(manifest)


class TestConfigResolution:
    def test_defaults(self, tmp_path):
        mask = write_mask(tmp_path / "m.json", flat_rect())
        cfg = resolve_config(parse(["generate", mask, "CAT"]))
        assert cfg.guidance == GuidanceConfig()
        assert cfg.steps == 20 and cfg.seed == 0 and cfg.jobs == 1
        assert cfg.canvas == (64, 64)

    def test_file_then_flags_precedence(self, tmp_path):
        ini = tmp_path / "cfg.ini"
        ini.write_text(
            "[guidance]\nlambda = 0.25\nrho = 0.75\n"
            "[sampler]\nsteps = 12\n[run]\nseed = 9\n")
        mask = write_mask(tmp_path / "m.json", flat_rect())
        base = ["generate", mask, "CAT", "--config", str(ini)]
        cfg = resolve_config(parse(base))
        assert cfg.guidance.lambda_ == 0.25
        assert cfg.guidance.rho == 0.75
        assert cfg.steps == 12 and cfg.seed == 9
        cfg = resolve_config(parse(base + ["--lambda", "0.1", "--seed", "3"]))
        assert cfg.guidance.lambda_ == 0.1  # flag beats file
        assert cfg.guidance.rho == 0.75     # file beats default
        assert cfg.seed == 3

    def test_no_flags_force_off(self, tmp_path):
        ini = tmp_path / "cfg.ini"
        ini.write_text("[guidance]\nuse_srb = true\n")
        mask = write_mask(tmp_path / "m.json", flat_rect())
        cfg = resolve_config(parse(
            ["generate", mask, "CAT", "--config", str(ini), "--no-srb", "--no-adain"]))
        assert not cfg.guidance.use_srb
        assert not cfg.guidance.use_adain
        assert cfg.guidance.use_sib

    def test_rejects_unknown_and_ill_typed(self, tmp_path):
        for body in ("[mystery]\nx = 1\n",
                     "[guidance]\nwavelength = 2\n",
                     "[guidance]\nlambda = banana\n",
                     "[guidance]\nuse_srb = 1\n",
                     "[scene]\ncanvas = [64]\n"):
            ini = tmp_path / "bad.ini"
            ini.write_text(body)
            with pytest.raises(InputError):
                load_config_file(ini)

    def test_missing_config_file(self, tmp_path):
        with pytest.raises(InputError):
            load_config_file(tmp_path / "nope.ini")

    def test_to_dict_round_trips_through_config_file(self, tmp_path):
        cfg = RunConfig(
            guidance=GuidanceConfig(use_sib=False, lambda_=0.25, rho=1.5,
                                    refine_steps=4, literal_lambda_zero=True),
            steps=12, beta_start=2e-3, beta_end=0.2, canvas=(96, 128),
            scene_id=3, seed=7, count=2, jobs=2,
        )
        ini = tmp_path / "cfg.ini"
        ini.write_text("".join(
            f"[{section}]\n" + "".join(f"{k} = {json.dumps(v)}\n" for k, v in values.items())
            for section, values in cfg.to_dict().items()))
        assert resolve_config(parse(["bench-run", "x.json", "--config", str(ini)])) == cfg

    def test_validation_catches_bad_values(self, tmp_path):
        mask = write_mask(tmp_path / "m.json", flat_rect())
        with pytest.raises(InputError):
            resolve_config(parse(["generate", mask, "CAT", "--lambda", "2.0"]))
        with pytest.raises(InputError):
            resolve_config(parse(["generate", mask, "CAT", "--seed", "-1"]))
        with pytest.raises(InputError):
            resolve_config(parse(["bench-run", "x.json", "--jobs", "0"]))


class TestGenerate:
    def test_flat_run_writes_artifacts(self, tmp_path, capsys):
        mask = write_mask(tmp_path / "m.json", flat_rect())
        out = tmp_path / "run"
        code = main(["generate", mask, "CAT", "--seed", "1",
                     "--trace", "--out", str(out)])
        assert code == 0
        assert (out / "image.ppm").read_bytes().startswith(b"P6\n64 64\n255\n")
        assert len(list((out / "trace").glob("step_*.ppm"))) == 20
        layout = json.loads((out / "layout.json").read_text())
        assert layout["text"] == "CAT"
        assert len(layout["segments"]) >= 1
        run_cfg = json.loads((out / "run_config.json").read_text())
        assert run_cfg["command"] == "generate"
        assert run_cfg["run"]["seed"] == 1
        printed = capsys.readouterr().out
        assert "image.ppm" in printed and "layout.json" in printed

    def test_same_seed_byte_identical(self, tmp_path):
        mask = write_mask(tmp_path / "m.json", flat_rect())
        for name in ("a", "b"):
            assert main(["generate", mask, "CAT", "--seed", "5",
                         "--out", str(tmp_path / name)]) == 0
        assert (tmp_path / "a" / "image.ppm").read_bytes() == \
               (tmp_path / "b" / "image.ppm").read_bytes()

    def test_unguided_still_writes_layout(self, tmp_path):
        mask = write_mask(tmp_path / "m.json", flat_rect())
        out = tmp_path / "off"
        assert main(["generate", mask, "CAT", "--no-srb", "--no-sib",
                     "--out", str(out)]) == 0
        assert json.loads((out / "layout.json").read_text())["segments"]

    def test_unsupported_character_named(self, tmp_path, capsys):
        mask = write_mask(tmp_path / "m.json", flat_rect())
        assert main(["generate", mask, "CA#", "--out", str(tmp_path / "x")]) == 1
        assert "'#'" in capsys.readouterr().err

    def test_bad_mask_file(self, tmp_path, capsys):
        bad = tmp_path / "m.json"
        bad.write_text('{"vertices": [[0, 0], [1, 0]]}')
        assert main(["generate", str(bad), "CAT", "--out", str(tmp_path / "x")]) == 1
        bad.write_text("not json")
        assert main(["generate", str(bad), "CAT", "--out", str(tmp_path / "x")]) == 1
        capsys.readouterr()


class TestDecompose:
    def test_rotated_rect_single_segment(self, tmp_path):
        mask = write_mask(tmp_path / "m.json",
                          flat_rect(5).rotated(math.radians(40.0)))
        out = tmp_path / "dec"
        assert main(["decompose", mask, "HELLO", "--out", str(out)]) == 0
        layout = json.loads((out / "layout.json").read_text())
        assert len(layout["segments"]) == 1
        angle = layout["segments"][0]["angle_deg"] % 180.0
        assert min(abs(angle - 40.0), abs(angle - 140.0)) < 0.1
        assert (out / "glyph.pgm").read_bytes().startswith(b"P5\n")
        assert (out / "glyph_flat.pgm").read_bytes().startswith(b"P5\n")

    def test_arc_mask_multiple_segments(self, tmp_path):
        mask = write_mask(tmp_path / "m.json", arc_band())
        out = tmp_path / "arc"
        assert main(["decompose", mask, "ABCDEF", "--out", str(out)]) == 0
        layout = json.loads((out / "layout.json").read_text())
        assert len(layout["segments"]) >= 2
        slices = [tuple(s["text_slice"]) for s in layout["segments"]]
        assert slices[0][0] == 0 and slices[-1][1] == 6

    def test_empty_text(self, tmp_path, capsys):
        mask = write_mask(tmp_path / "m.json", flat_rect())
        assert main(["decompose", mask, "", "--out", str(tmp_path / "x")]) == 1
        assert capsys.readouterr().err != ""


class TestBenchCommands:
    def test_gen_seed_reproducible(self, tmp_path):
        for name in ("a", "b"):
            assert main(["bench-gen", "--seed", "4", "--count", "2",
                         "--out", str(tmp_path / name)]) == 0
        assert (tmp_path / "a" / "manifest.json").read_bytes() == \
               (tmp_path / "b" / "manifest.json").read_bytes()
        rows = json.loads((tmp_path / "a" / "manifest.json").read_text())
        assert len(rows) == 6

    def test_count_flag_beats_config(self, tmp_path):
        ini = tmp_path / "cfg.ini"
        ini.write_text("[bench]\ncount = 3\n")
        out = tmp_path / "bg"
        assert main(["bench-gen", "--config", str(ini), "--count", "1",
                     "--out", str(out)]) == 0
        assert len(json.loads((out / "manifest.json").read_text())) == 3
        assert json.loads((out / "run_config.json").read_text())["bench"]["count"] == 1

    def test_run_records_every_case(self, tmp_path):
        gen = tmp_path / "gen"
        assert main(["bench-gen", "--count", "1", "--out", str(gen)]) == 0
        out = tmp_path / "scored"
        assert main(["bench-run", str(gen / "manifest.json"),
                     "--no-srb", "--no-sib", "--out", str(out)]) == 0
        report = json.loads((out / "report.json").read_text())
        assert len(report["cases"]) == 3
        assert report["total"]["n"] == 3
        assert not json.loads(
            (out / "run_config.json").read_text())["guidance"]["use_srb"]

    def test_gen_honours_config_canvas(self, tmp_path, monkeypatch):
        seen = []

        def spy(**kwargs):
            seen.append(kwargs)
            return bench.generate_benchmark(**kwargs)

        monkeypatch.setattr(cli, "generate_benchmark", spy)
        ini = tmp_path / "cfg.ini"
        ini.write_text("[scene]\ncanvas = [96, 96]\n")
        assert main(["bench-gen", "--config", str(ini), "--count", "1",
                     "--out", str(tmp_path / "bg")]) == 0
        assert [kw["canvas"] for kw in seen] == [(96, 96)]

    def test_run_uses_recorded_schedule(self, tmp_path, monkeypatch):
        gen = tmp_path / "gen"
        assert main(["bench-gen", "--count", "1", "--out", str(gen)]) == 0
        seen = []
        real = bench.generate

        def spy(*args, **kwargs):
            seen.append(kwargs.get("schedule"))
            return real(*args, **kwargs)

        monkeypatch.setattr(bench, "generate", spy)
        ini = tmp_path / "cfg.ini"
        ini.write_text("[sampler]\nsteps = 2\n")
        out = tmp_path / "scored"
        assert main(["bench-run", str(gen / "manifest.json"), "--config", str(ini),
                     "--no-srb", "--no-sib", "--out", str(out)]) == 0
        assert len(seen) == 3
        assert all(schedule is not None and schedule.steps == 2 for schedule in seen)
        assert json.loads((out / "run_config.json").read_text())["sampler"]["steps"] == 2

    def test_run_missing_manifest(self, tmp_path, capsys):
        assert main(["bench-run", str(tmp_path / "none.json"),
                     "--out", str(tmp_path / "x")]) == 1
        assert capsys.readouterr().err != ""

    def test_run_malformed_manifest(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('[{"case_id": "only"}]')
        assert main(["bench-run", str(bad), "--out", str(tmp_path / "x")]) == 1
        assert "malformed" in capsys.readouterr().err


class TestReport:
    def fake_report(self, path, bump=0.0):
        tiers = {name: {"n": 10, "sen_acc": 0.1 * i + bump, "ned": 0.2 + bump}
                 for i, name in enumerate(("easy", "medium", "hard"))}
        payload = {"tiers": tiers,
                   "total": {"n": 30, "sen_acc": 0.1 + bump, "ned": 0.2 + bump}}
        path.write_text(json.dumps(payload))
        return str(path)

    def test_rows_ordered_and_csv_written(self, tmp_path, capsys):
        on = self.fake_report(tmp_path / "on.json", bump=0.05)
        off = self.fake_report(tmp_path / "off.json")
        out = tmp_path / "cmp"
        assert main(["report", on, off, "--out", str(out)]) == 0
        stdout = capsys.readouterr().out
        table_rows = [ln.split()[0] for ln in stdout.splitlines()[1:5]]
        assert table_rows == ["easy", "medium", "hard", "total"]
        lines = (out / "comparison.csv").read_text().splitlines()
        assert lines[0].startswith("tier,n,sen_acc_on")
        assert [ln.split(",")[0] for ln in lines[1:]] == [
            "easy", "medium", "hard", "total"]
        assert lines[1].split(",")[4] == "0.0500"

    def test_missing_report(self, tmp_path, capsys):
        on = self.fake_report(tmp_path / "on.json")
        assert main(["report", on, str(tmp_path / "gone.json"),
                     "--out", str(tmp_path / "x")]) == 1
        capsys.readouterr()

    def test_report_without_summaries(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"cases": []}')
        assert main(["report", str(bad), str(bad), "--out", str(tmp_path / "x")]) == 1
        assert "summaries" in capsys.readouterr().err

    @pytest.mark.parametrize("where,edit", [
        ("total", lambda p: p["total"].pop("n")),
        ("total", lambda p: p["total"].pop("ned")),
        ("medium", lambda p: p["tiers"]["medium"].pop("sen_acc")),
        ("hard", lambda p: p["tiers"]["hard"].update(ned="high")),
        ("easy", lambda p: p["tiers"].update(easy=[10, 0.5, 0.5])),
        ("summaries", lambda p: p.update(tiers=list(p["tiers"].values()))),
    ], ids=["total_no_n", "total_no_ned", "tier_no_sen_acc", "tier_text_ned",
            "tier_row_list", "tiers_list"])
    def test_malformed_rows_are_validation(self, tmp_path, capsys, where, edit):
        good = self.fake_report(tmp_path / "good.json")
        payload = json.loads((tmp_path / "good.json").read_text())
        edit(payload)
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(payload))
        assert main(["report", good, str(bad), "--out", str(tmp_path / "x")]) == 1
        assert where in capsys.readouterr().err


class TestExitCodes:
    def test_usage_errors_are_validation(self, tmp_path, capsys):
        assert main([]) == 1
        assert main(["generate"]) == 1
        assert main(["generate", "m.json", "CAT", "--seed", "NaNsense",
                     "--out", str(tmp_path)]) == 1
        capsys.readouterr()

    @pytest.mark.parametrize("seed", [-1, 1.5, "7", True])
    def test_bad_manifest_seed_is_validation(self, tmp_path, capsys, seed):
        manifest = edited_manifest(tmp_path, "seed", seed)
        assert main(["bench-run", manifest, "--out", str(tmp_path / "x")]) == 1
        assert "seed" in capsys.readouterr().err

    @pytest.mark.parametrize("key,value", [
        ("text", 5), ("case_id", 7), ("scene_id", "3"), ("scene_id", True), ("scene_id", 1.0),
    ])
    def test_bad_manifest_field_type_is_validation(self, tmp_path, capsys, key, value):
        manifest = edited_manifest(tmp_path, key, value)
        assert main(["bench-run", manifest, "--out", str(tmp_path / "x")]) == 1
        assert key in capsys.readouterr().err

    @pytest.mark.parametrize("mask", [[[0, 0], [1]], "abc", [[0, 0], [1, 0], [1, "x"], [0, 1]]],
                             ids=["ragged", "string", "non_numeric"])
    def test_bad_manifest_mask_is_validation(self, tmp_path, capsys, mask):
        manifest = edited_manifest(tmp_path, "mask", mask)
        assert main(["bench-run", manifest, "--out", str(tmp_path / "x")]) == 1
        assert "malformed manifest" in capsys.readouterr().err

    def test_unexpected_failure_is_runtime(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(cli, "generate_benchmark",
                            lambda **kw: (_ for _ in ()).throw(RuntimeError("boom")))
        assert main(["bench-gen", "--out", str(tmp_path / "x")]) == 2
        assert "boom" in capsys.readouterr().err

    def test_unexpected_case_failure_is_runtime(self, tmp_path, capsys, monkeypatch):
        gen = tmp_path / "gen"
        assert main(["bench-gen", "--count", "1", "--out", str(gen)]) == 0
        manifest = str(gen / "manifest.json")

        def boom(*args, **kwargs):
            raise RuntimeError("boom")

        monkeypatch.setattr(bench, "generate", boom)
        with pytest.raises(RuntimeError):
            bench.run_bench(bench.load_manifest(manifest))
        assert main(["bench-run", manifest, "--out", str(tmp_path / "x")]) == 2
        assert "boom" in capsys.readouterr().err
