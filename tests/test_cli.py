import json
from pathlib import Path

import numpy as np
import pytest

from normmatch import cli
from normmatch.checkpoint import save_checkpoint
from normmatch.cli import main
from normmatch.config import DataConfig, TrainConfig
from normmatch.data import generate_pair, pair_to_record, read_dataset
from normmatch.features import BackboneOutput, FeatureMap, read_feature_file, write_feature_file
from normmatch.model import MatchingModel

ROOT = Path(__file__).resolve().parents[1]

TINY_CONFIG = """
# desk-size run for the CLI tests
d_model = 16
heads = 2
decoder_layers = 2
gnn_input_dim = 8
kernel_size = 5
mlp_mult = 2
batch_size = 2
epochs = 1
seed = 0

num_pairs = 4
num_classes = 2
val_pairs_per_class = 1
m_min = 4
m_max = 5
jitter_sigma = 0.1
noise_level = 0.01
"""


def _drop_last_keypoint2(record):
    record["keypoints2"].pop()


def _nan_keypoint1(record):
    record["keypoints1"][0][0] = float("nan")


def _null_class_id(record):
    record["class_id"] = None


def _fractional_class_id(record):
    record["class_id"] = 1.7


def _null_noise_level(record):
    record["noise_level"] = None


def _negative_noise_level(record):
    record["noise_level"] = -1


def _dump_cut_short(obj, fh, **kwargs):
    """json.dump that fails partway, as on a full disk."""
    fh.write(json.dumps(obj, **kwargs)[:10])
    raise OSError("disk full")


@pytest.fixture
def config_path(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text(TINY_CONFIG, encoding="utf-8")
    return path


class TestGenData:
    def test_writes_dataset(self, tmp_path, config_path, capsys):
        out = tmp_path / "pairs.jsonl"
        assert main(["gen-data", "--spec", str(config_path), "--out", str(out),
                     "--seed", "3"]) == 0
        assert "wrote 4 pairs" in capsys.readouterr().out
        pairs = read_dataset(out)
        assert len(pairs) == 4
        assert {p.class_id for p in pairs} == {0, 1}

    def test_seed_changes_data(self, tmp_path, config_path):
        out_a = tmp_path / "a.jsonl"
        out_b = tmp_path / "b.jsonl"
        main(["gen-data", "--spec", str(config_path), "--out", str(out_a), "--seed", "1"])
        main(["gen-data", "--spec", str(config_path), "--out", str(out_b), "--seed", "2"])
        pa, pb = read_dataset(out_a), read_dataset(out_b)
        assert not np.array_equal(pa[0].keypoints1, pb[0].keypoints1)

    def test_unknown_config_key_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.cfg"
        bad.write_text("d_model = 16\nheds = 2\n", encoding="utf-8")
        code = main(["gen-data", "--spec", str(bad), "--out", str(tmp_path / "x"),
                     "--seed", "0"])
        assert code == 2
        assert "unknown config key" in capsys.readouterr().err


class TestConfigErrors:
    @pytest.mark.parametrize("line, message", [
        ("d_model = abc", "line 20: 'd_model': expected an integer, got 'abc'"),
        ("lr_decay_epochs = 1,x", "line 20: 'lr_decay_epochs': expected comma-separated"),
        ("base_lr = nan", "line 20: 'base_lr': must be finite, got 'nan'"),
        ("val_pairs_per_class = 0", "num_pairs, val_pairs_per_class and num_classes must be >= 1"),
        ("m_min = 1", "m_min = 1, but training needs at least 2"),
    ])
    def test_bad_value_exits_2_before_training(self, tmp_path, capsys, line, message):
        bad = tmp_path / "bad.cfg"
        bad.write_text(TINY_CONFIG + line + "\n", encoding="utf-8")
        out_dir = tmp_path / "run"
        assert main(["train", "--config", str(bad), "--out", str(out_dir)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {bad}: {message}") and err.count("\n") == 1
        assert not out_dir.exists()  # failed before anything was trained or written


class TestTrainingPairSize:
    def test_data_record_with_one_keypoint_names_file_and_pair(self, tmp_path, capsys):
        pairs = [generate_pair(DataConfig(m_min=m, m_max=m), class_id=0, seed=m, latent_dim=8)
                 for m in (4, 1)]
        pairs_path = tmp_path / "pairs.jsonl"
        pairs_path.write_text("".join(json.dumps(pair_to_record(p)) + "\n" for p in pairs),
                              encoding="utf-8")
        config = tmp_path / "train.cfg"
        config.write_text(TINY_CONFIG + f"\ndata = {pairs_path}\n", encoding="utf-8")
        assert main(["train", "--config", str(config), "--out", str(tmp_path / "run")]) == 2
        err = capsys.readouterr().err
        assert err == (f"error: {pairs_path}: training pair {pairs[1].image1}, "
                       f"{pairs[1].image2} has 1 keypoint, but training needs at least 2\n")


class TestEmptyPairFile:
    def test_train_names_empty_data_file_and_writes_nothing(self, tmp_path, capsys):
        empty = tmp_path / "empty.jsonl"
        empty.write_text("\n", encoding="utf-8")
        config = tmp_path / "train.cfg"
        config.write_text(TINY_CONFIG + f"\ndata = {empty}\n", encoding="utf-8")
        out_dir = tmp_path / "run"
        assert main(["train", "--config", str(config), "--out", str(out_dir)]) == 2
        assert capsys.readouterr().err == f"error: {empty}: empty pair file\n"
        assert not out_dir.exists()  # no checkpoint, no history


class TestTrainEvalMatch:
    @pytest.fixture
    def trained(self, tmp_path, config_path, capsys):
        pairs_path = tmp_path / "pairs.jsonl"
        assert main(["gen-data", "--spec", str(config_path), "--out",
                     str(pairs_path), "--seed", "5"]) == 0
        cfg_with_data = tmp_path / "train.cfg"
        cfg_with_data.write_text(
            TINY_CONFIG + f"\ndata = {pairs_path}\n", encoding="utf-8"
        )
        out_dir = tmp_path / "run"
        assert main(["train", "--config", str(cfg_with_data), "--out",
                     str(out_dir)]) == 0
        capsys.readouterr()
        return out_dir / "checkpoint.nmtc", pairs_path, out_dir

    def test_train_writes_artifacts(self, trained, capsys):
        ckpt, _, out_dir = trained
        assert ckpt.exists()
        history = json.loads((out_dir / "history.json").read_text())
        assert history["aborted"] is False
        assert len(history["history"]) == 1
        csv_lines = (out_dir / "history.csv").read_text().splitlines()
        assert csv_lines[0] == "epoch,lr,train_loss,val_accuracy"
        assert len(csv_lines) == 2

    def test_eval_prints_table_and_json(self, trained, tmp_path, capsys):
        ckpt, pairs_path, _ = trained
        json_out = tmp_path / "result.json"
        assert main(["eval", "--checkpoint", str(ckpt), "--pairs", str(pairs_path),
                     "--json", str(json_out)]) == 0
        out = capsys.readouterr().out
        assert "class" in out and "mean" in out
        result = json.loads(json_out.read_text())
        assert 0.0 <= result["mean"] <= 1.0
        assert {c["class_id"] for c in result["classes"]} == {0, 1}

    def test_match_prints_assignment_and_plan(self, trained, tmp_path, capsys):
        ckpt, pairs_path, _ = trained
        single = tmp_path / "one.jsonl"
        single.write_text(pairs_path.read_text().splitlines()[0] + "\n",
                          encoding="utf-8")
        assert main(["match", "--checkpoint", str(ckpt), "--pair", str(single)]) == 0
        out = capsys.readouterr().out
        assert "assignment:" in out
        assert "injective:" in out
        assert "max_marginal_error:" in out
        assert "plan:" in out
        assert "accuracy_vs_truth:" in out

    def test_match_corrupted_pair_exits_2(self, trained, tmp_path, capsys):
        ckpt, _, _ = trained
        bad = tmp_path / "bad.jsonl"
        bad.write_text("{broken\n", encoding="utf-8")
        assert main(["match", "--checkpoint", str(ckpt), "--pair", str(bad)]) == 2
        assert "line 1" in capsys.readouterr().err

    @pytest.mark.parametrize("content, message", [
        ("\n{broken\n", "line 2: invalid JSON"),
        ("\n\n", "empty pair file"),
    ])
    def test_match_pair_file_errors_exit_2(self, trained, tmp_path, capsys,
                                           content, message):
        ckpt, _, _ = trained
        bad = tmp_path / "bad.jsonl"
        bad.write_text(content, encoding="utf-8")
        assert main(["match", "--checkpoint", str(ckpt), "--pair", str(bad)]) == 2
        assert message in capsys.readouterr().err

    def test_eval_empty_pair_file_exits_2(self, trained, tmp_path, capsys):
        ckpt, _, _ = trained
        empty = tmp_path / "empty.jsonl"
        empty.write_text("", encoding="utf-8")
        assert main(["eval", "--checkpoint", str(ckpt), "--pairs", str(empty)]) == 2
        assert capsys.readouterr().err == f"error: {empty}: empty pair file\n"

    @pytest.mark.parametrize("field, corrupt", [
        ("keypoints2", _drop_last_keypoint2),
        ("keypoints1", _nan_keypoint1),
        ("class_id", _null_class_id),
        ("class_id", _fractional_class_id),
        ("noise_level", _null_noise_level),
        ("noise_level", _negative_noise_level),
    ])
    def test_match_invalid_record_names_field_and_exits_2(self, trained, tmp_path,
                                                           capsys, field, corrupt):
        ckpt, pairs_path, _ = trained
        record = json.loads(pairs_path.read_text().splitlines()[0])
        corrupt(record)
        bad = tmp_path / "bad.jsonl"
        bad.write_text(json.dumps(record) + "\n", encoding="utf-8")
        assert main(["match", "--checkpoint", str(ckpt), "--pair", str(bad)]) == 2
        err = capsys.readouterr().err
        assert "line 1" in err and repr(field) in err

    def test_eval_feature_files_relative_to_pair_file(self, trained, tmp_path, capsys,
                                                     monkeypatch):
        ckpt, pairs_path, _ = trained
        records = [json.loads(line) for line in pairs_path.read_text().splitlines()]
        maps = tmp_path / "data" / "maps"
        maps.mkdir(parents=True)
        for i, record in enumerate(records):
            pair = read_dataset(pairs_path)[i]
            del record["latents"]
            for key, out in zip(("features1", "features2"), pair.backbone_outputs()):
                record[key] = f"maps/{i}-{key}.nmtf"
                write_feature_file(tmp_path / "data" / record[key], out)
        pair_file = tmp_path / "data" / "pairs.jsonl"
        pair_file.write_text("".join(json.dumps(r) + "\n" for r in records), encoding="utf-8")
        monkeypatch.chdir(tmp_path)
        assert main(["eval", "--checkpoint", str(ckpt), "--pairs", str(pair_file)]) == 0
        assert "mean" in capsys.readouterr().out
        (maps / "1-features2.nmtf").unlink()
        assert main(["eval", "--checkpoint", str(ckpt), "--pairs", str(pair_file)]) == 2
        err = capsys.readouterr().err
        assert f"{pair_file}: line 2: 'features2' must name an existing file" in err

    def test_missing_checkpoint_exits_2(self, tmp_path, config_path, capsys):
        pairs_path = tmp_path / "pairs.jsonl"
        main(["gen-data", "--spec", str(config_path), "--out", str(pairs_path),
              "--seed", "0"])
        code = main(["eval", "--checkpoint", str(tmp_path / "nope.nmtc"),
                     "--pairs", str(pairs_path)])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("name", ["history.json", "history.csv"])
    def test_failed_history_write_keeps_previous_file(self, trained, tmp_path, capsys,
                                                      monkeypatch, name):
        _, _, out_dir = trained
        before = (out_dir / name).read_bytes()
        if name == "history.json":
            monkeypatch.setattr(json, "dump", _dump_cut_short)
        else:  # a first row whose lr is not a number fails to format after the header
            real_train = cli.train

            def train_with_bad_first_row(*args, **kwargs):
                model, optimizer, history, aborted = real_train(*args, **kwargs)
                return model, optimizer, [dict(history[0], lr="fast")] + history, aborted

            monkeypatch.setattr(cli, "train", train_with_bad_first_row)
        assert main(["train", "--config", str(tmp_path / "train.cfg"), "--out",
                     str(out_dir)]) == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert (out_dir / name).read_bytes() == before
        assert not list(out_dir.glob("*.tmp"))

    def test_failed_eval_json_write_keeps_previous_file(self, trained, tmp_path, capsys,
                                                        monkeypatch):
        ckpt, pairs_path, _ = trained
        json_out = tmp_path / "result.json"
        argv = ["eval", "--checkpoint", str(ckpt), "--pairs", str(pairs_path),
                "--json", str(json_out)]
        assert main(argv) == 0
        before = json_out.read_bytes()
        monkeypatch.setattr(json, "dump", _dump_cut_short)
        assert main(argv) == 2
        assert "disk full" in capsys.readouterr().err
        assert json_out.read_bytes() == before
        assert not list(tmp_path.glob("*.tmp"))

    def test_corrupt_checkpoint_exits_2(self, trained, tmp_path, capsys):
        _, pairs_path, _ = trained
        bad = tmp_path / "bad.nmtc"
        bad.write_bytes(b"JUNKJUNKJUNK")
        assert main(["eval", "--checkpoint", str(bad), "--pairs",
                     str(pairs_path)]) == 2
        assert "magic" in capsys.readouterr().err


class TestGradcheckCommand:
    def test_losses_module_passes(self, capsys):
        assert main(["gradcheck", "--module", "losses"]) == 0
        out = capsys.readouterr().out
        assert "PASS loss.tau_raw" in out
        assert "1/1 parameters passed" in out


def _untrained_checkpoint(tmp_path):
    path = tmp_path / "model.nmtc"
    save_checkpoint(path, MatchingModel(TrainConfig(d_model=16, heads=2, decoder_layers=2,
                                                    gnn_input_dim=8, mlp_mult=2)))
    return path


@pytest.fixture
def feature_pair(tmp_path):
    """(checkpoint, pair file, map files, record): an untrained gnn_input_dim 8
    model and a pair whose maps are feature files beside its JSONL file."""
    ckpt = _untrained_checkpoint(tmp_path)
    pair = generate_pair(DataConfig(m_min=4, m_max=5), class_id=0, seed=1, latent_dim=8)
    record = pair_to_record(pair)
    maps = [tmp_path / "a.nmtf", tmp_path / "b.nmtf"]
    for path, out in zip(maps, pair.backbone_outputs()):
        write_feature_file(path, out)
    pair_path = tmp_path / "pair.jsonl"
    pair_path.write_text(json.dumps(dict(record, features1="a.nmtf", features2="b.nmtf"))
                         + "\n", encoding="utf-8")
    return ckpt, pair_path, maps, record


def _narrow(path, channels):
    """Rewrite a feature file keeping the first `channels` channels of each map."""
    out = read_feature_file(path)
    write_feature_file(path, BackboneOutput(
        *(FeatureMap(m.grid[..., :channels], m.stride) for m in (out.last, out.second_last))))


class TestBackboneWidths:
    @pytest.mark.parametrize("case, widths", [
        ("unequal", "8 and 6"), ("equal", "6 and 6"), ("latents", "6 and 6")])
    def test_width_mismatch_names_both_inputs(self, feature_pair, capsys, case, widths):
        ckpt, pair_path, maps, record = feature_pair
        names = [str(m) for m in maps]
        if case == "latents":  # a latent record is named by its image ids
            names = [record["image1"], record["image2"]]
            record["latents"] = [row[:6] for row in record["latents"]]
            pair_path.write_text(json.dumps(record) + "\n", encoding="utf-8")
        else:
            for path in maps[case == "unequal":]:  # the second map, or both
                _narrow(path, 3)
        assert main(["match", "--checkpoint", str(ckpt), "--pair", str(pair_path)]) == 2
        assert capsys.readouterr().err == (
            f"error: {names[0]}, {names[1]}: backbone width 6 does not match "
            f"gnn_input_dim 8 (widths {widths})\n")


def _mutations(rng, raw: bytes, count: int, header: int | None = None):
    """count corrupted copies of raw, cycling through a truncation, 1-3 byte
    overwrites (with a header size given, every other time within the
    header) and 1-64 appended bytes."""
    for case in range(count):
        data = bytearray(raw)
        if case % 3 == 0:
            del data[rng.integers(len(raw)):]
        elif case % 3 == 1:
            pool = header if header and case % 2 else len(raw)
            for off in rng.choice(pool, size=rng.integers(1, 4), replace=False):
                data[off] = (data[off] + rng.integers(1, 256)) % 256
        else:
            data += rng.integers(0, 256, rng.integers(1, 65), dtype=np.uint8).tobytes()
        yield bytes(data)


def _fuzz(capsys, argv, target, cases):
    """Runs main(argv) with target holding each case. Every case must exit 0,
    or exit 2 with one 'error:' line naming the target file and nothing else;
    returns the exit codes."""
    codes, bad = [], []
    for i, data in enumerate(cases):
        target.write_bytes(data)
        try:
            code = main(argv)
        except Exception as exc:
            bad.append(f"case {i}: {exc!r}")
            continue
        err = capsys.readouterr().err
        if not (code == 0 or code == 2 and err.startswith("error: ") and err.count("\n") == 1
                and str(target) in err):
            bad.append(f"case {i}: exit {code}, stderr {err!r}")
        codes.append(code)
    assert bad == []
    return codes


class TestFuzz:
    def test_corrupted_feature_maps_exit_0_or_2(self, feature_pair, capsys):
        ckpt, pair_path, maps, _ = feature_pair
        argv = ["match", "--checkpoint", str(ckpt), "--pair", str(pair_path)]
        rng = np.random.default_rng(20261019)
        codes = []
        for target in maps:
            raw = target.read_bytes()
            codes += _fuzz(capsys, argv, target, _mutations(rng, raw, 300, header=28))
            target.write_bytes(raw)
        assert {0, 2} <= set(codes)  # flipped payload bytes still load

    def test_corrupted_pair_file_exits_0_or_2(self, tmp_path, config_path, capsys):
        pair_path = tmp_path / "pairs.jsonl"
        assert main(["gen-data", "--spec", str(config_path), "--out", str(pair_path)]) == 0
        ckpt = _untrained_checkpoint(tmp_path)
        argv = ["match", "--checkpoint", str(ckpt), "--pair", str(pair_path)]
        raw = pair_path.read_bytes()
        codes = _fuzz(capsys, argv, pair_path, _mutations(np.random.default_rng(7), raw, 600))
        assert {0, 2} <= set(codes)

    def test_corrupted_config_exits_0_or_2(self, tmp_path, capsys):
        # num_pairs first, so that a truncation rarely falls back to its default of 2000
        spec = (ROOT / "configs" / "desk.cfg").read_text(encoding="utf-8")
        raw = ("num_pairs = 4\n" + spec.replace("num_pairs = 2000\n", "")).encode()
        target = tmp_path / "desk.cfg"
        argv = ["gen-data", "--spec", str(target), "--out", str(tmp_path / "out.jsonl")]
        codes = _fuzz(capsys, argv, target, _mutations(np.random.default_rng(11), raw, 600))
        assert {0, 2} <= set(codes)
