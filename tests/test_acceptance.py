"""Acceptance gate: one test per release criterion, A1 through A10.

Each test prints a single PASS/FAIL line (collected into the terminal
summary by conftest) and then asserts, so a failing criterion is both
visible at a glance and fatal to the suite.
"""

import copy
import json
import math
import time
from pathlib import Path

import numpy as np
import pytest

from conftest import record_result
from fvassoc.aamloss import AamConfig, aam_loss_and_grad
from fvassoc.cli import main as cli_main
from fvassoc.diffcore import (
    l2_normalize_rows,
    l2_normalize_rows_backward,
    make_rng,
)
from fvassoc.embedstore import (
    FULL_DIMS,
    ModalityKind,
    assemble_face_inputs,
    assemble_voice_inputs,
    read_store,
    record_table,
    write_store,
)
from fvassoc.fusion import (
    MappingHead,
    XAttnModel,
    head_backward,
    head_forward,
    head_from_arrays,
    xattn_backward,
    xattn_forward,
    xattn_loss,
)
from fvassoc.synthgen import SynthConfig, generate
from fvassoc.traineval import (
    PairedDataset,
    TrainConfig,
    XAttnTrainConfig,
    audit_manifest,
    compute_eer,
    default_dev_trials,
    pretrain_then_finetune,
    score_trials,
    train_with_early_stopping,
    train_xattn,
)
from testlib import (
    filter_exclude_language,
    finite_difference_grad,
    no_save,
    rel_error,
    shuffle_speaker_labels,
    softmax_xent_on_cosines,
    store_entries,
    store_pair,
)


def check(name, ok, detail=""):
    line = f"{name}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f"  ({detail})"
    record_result(line)
    print(line)
    assert ok, line


# ---------------------------------------------------------------------------
# Shared fixtures


def build_dataset(cfg, base_truth=None, jitter=0.0):
    vectors, records, truth = generate(cfg, base_truth=base_truth,
                                       projection_jitter=jitter)
    voices, _ = assemble_voice_inputs(vectors, records)
    faces, _ = assemble_face_inputs(vectors, records)
    return PairedDataset(faces, voices), truth


@pytest.fixture(scope="module")
def small_dataset():
    """30 speakers, latent 16, dims 64/16/48/8, 10 records per speaker."""
    cfg = SynthConfig(
        n_speakers=30,
        latent_dim=16,
        noise_sigma=0.01,
        records_per_speaker=10,
        seed=42,
    )
    ds, _ = build_dataset(cfg)
    return ds


def learnability_config(**kw):
    defaults = dict(
        lr=1e-2,
        batch_size=32,
        max_steps=500,
        patience=5,
        eval_every=25,
        seed=7,
        p_drop=0.5,
    )
    defaults.update(kw)
    return TrainConfig(**defaults)


@pytest.fixture(scope="module")
def trained_heads(small_dataset):
    """Heads trained on 26 speakers, early-stopped on 4 held-out speakers."""
    ds = small_dataset
    cfg = learnability_config()
    spk = ds.speakers()
    held = spk[:4]
    trials = default_dev_trials(ds, held, cfg, make_rng(0))
    best, log = train_with_early_stopping(ds.subset(spk[4:]), trials, ds, cfg)
    return {"best": best, "log": log, "trials": trials, "cfg": cfg, "held": held}


# ---------------------------------------------------------------------------
# A1: gradient correctness against central finite differences


def fd_check_head(seed):
    rng = make_rng(seed)
    errs = []
    for batch, in_dim, out_dim in ((1, 3, 2), (4, 6, 5), (2, 8, 3)):
        head = MappingHead.init(make_rng(seed + 100), in_dim, out_dim, p_drop=0.5)
        x = rng.standard_normal((batch, in_dim))
        y, cache = head_forward(head, x, train=True, rng=make_rng(seed + 200))
        xd, mask = cache
        grad_y = 2.0 * y / y.size
        gw, gb, gx = head_backward(head, cache, grad_y, input_grad=True)

        def loss_w(w):
            return float(((xd @ w.T + head.bias) ** 2).mean())

        def loss_b(b):
            return float(((xd @ head.weight.T + b.ravel()) ** 2).mean())

        def loss_x(z):
            return float((((z * mask) @ head.weight.T + head.bias) ** 2).mean())

        errs.append(rel_error(gw, finite_difference_grad(loss_w, head.weight)))
        errs.append(
            rel_error(gb, finite_difference_grad(loss_b, head.bias.reshape(1, -1)))
        )
        errs.append(rel_error(gx, finite_difference_grad(loss_x, x)))
    return max(errs)


def fd_check_normalize(seed):
    rng = make_rng(seed)
    errs = []
    for shape in ((2, 4), (3, 7), (1, 5)):
        x = rng.standard_normal(shape) + 0.5
        g = rng.standard_normal(shape)
        gx = l2_normalize_rows_backward(x, g)

        def loss(z):
            return float((l2_normalize_rows(z) * g).sum())

        errs.append(rel_error(gx, finite_difference_grad(loss, x)))
    return max(errs)


def fd_check_aam(seed):
    rng = make_rng(seed)
    cfg = AamConfig(scale=30.0, margin=0.2)
    errs = []
    for batch, dim, n_classes in ((2, 4, 3), (4, 6, 5), (3, 8, 7)):
        x = rng.standard_normal((batch, dim))
        w = rng.standard_normal((n_classes, dim))
        targets = rng.integers(0, n_classes, size=batch)
        _, gx, gw = aam_loss_and_grad(x, w, cfg, targets)

        def loss_x(z):
            return aam_loss_and_grad(z, w, cfg, targets)[0]

        def loss_w(v):
            return aam_loss_and_grad(x, v, cfg, targets)[0]

        errs.append(rel_error(gx, finite_difference_grad(loss_x, x)))
        errs.append(rel_error(gw, finite_difference_grad(loss_w, w)))
    return max(errs)


def fd_check_xattn(seed):
    rng = make_rng(seed)
    errs = []
    for voice_in, face_in, d_model in ((12, 8, 4), (9, 10, 3), (8, 8, 4)):
        m = XAttnModel.init(
            make_rng(seed + 300), voice_in_dim=voice_in, face_in_dim=face_in,
            d_model=d_model,
        )
        xv = rng.standard_normal((2, voice_in))
        xf = rng.standard_normal((2, face_in))
        labels = np.array([1.0, 0.0])
        logits, cache = xattn_forward(m, xv, xf)
        _, g_logits = xattn_loss(logits, labels)
        grads, gv, gf = xattn_backward(m, cache, g_logits, input_grads=True)

        def loss_for(mutate):
            mm = copy.deepcopy(m)
            mutate(mm)
            z, _ = xattn_forward(mm, xv, xf)
            return xattn_loss(z, labels)[0]

        for i in range(2):
            for name in ("wq", "wk", "wv", "wo"):
                def f(arr, i=i, name=name):
                    def mut(mm):
                        mm.params[f"layer{i}.{name}"] = arr
                    return loss_for(mut)

                fd = finite_difference_grad(f, m.params[f"layer{i}.{name}"])
                errs.append(rel_error(grads[f"layer{i}.{name}"], fd))

        def f_out(arr):
            def mut(mm):
                mm.params["out_w"] = arr.ravel()
            return loss_for(mut)

        fd = finite_difference_grad(f_out, m.params["out_w"].reshape(1, -1))
        errs.append(rel_error(grads["out_w"], fd.ravel()))

        def f_xv(z):
            z2, _ = xattn_forward(m, z, xf)
            return xattn_loss(z2, labels)[0]

        def f_xf(z):
            z2, _ = xattn_forward(m, xv, z)
            return xattn_loss(z2, labels)[0]

        errs.append(rel_error(gv, finite_difference_grad(f_xv, xv)))
        errs.append(rel_error(gf, finite_difference_grad(f_xf, xf)))
    return max(errs)


def test_a1_gradient_correctness():
    worst = {"head": 0.0, "normalize": 0.0, "aam": 0.0, "xattn": 0.0}
    for seed in range(10):
        worst["head"] = max(worst["head"], fd_check_head(seed))
        worst["normalize"] = max(worst["normalize"], fd_check_normalize(seed))
        worst["aam"] = max(worst["aam"], fd_check_aam(seed))
        worst["xattn"] = max(worst["xattn"], fd_check_xattn(seed))
    ok = (
        worst["head"] <= 1e-5
        and worst["normalize"] <= 1e-5
        and worst["aam"] <= 1e-5
        and worst["xattn"] <= 1e-4
    )
    detail = ", ".join(f"{k} max rel err {v:.2e}" for k, v in worst.items())
    check("A1 gradient correctness", ok, detail)


# ---------------------------------------------------------------------------
# A2: margin-free AAM equals plain softmax cross-entropy on cosines


def test_a2_loss_reduction_oracle():
    rng = make_rng(2)
    cfg = AamConfig(scale=1.0, margin=0.0)
    worst = 0.0
    for _ in range(100):
        batch = int(rng.integers(1, 12))
        dim = int(rng.integers(2, 16))
        n_classes = int(rng.integers(2, 10))
        x = rng.standard_normal((batch, dim))
        w = rng.standard_normal((n_classes, dim))
        targets = rng.integers(0, n_classes, size=batch)
        got = aam_loss_and_grad(x, w, cfg, targets)[0]
        want = softmax_xent_on_cosines(x, w, targets)
        worst = max(worst, abs(got - want))
    check("A2 loss reduction oracle", worst <= 1e-12, f"max |diff| {worst:.2e}")


# ---------------------------------------------------------------------------
# A3: EER against an exhaustive brute-force threshold sweep


def brute_force_eer(scores, labels):
    tar = [s for s, l in zip(scores, labels) if l]
    non = [s for s, l in zip(scores, labels) if not l]
    uniq = sorted(set(scores))
    cands = (
        [-math.inf]
        + [(a + b) / 2.0 for a, b in zip(uniq, uniq[1:])]
        + [math.inf]
    )
    pts = []
    for t in cands:
        far = sum(1 for s in non if s >= t) / len(non)
        frr = sum(1 for s in tar if s < t) / len(tar)
        pts.append((far, frr))
    for k, (far, frr) in enumerate(pts):
        d = frr - far
        if d >= 0.0:
            if d == 0.0:
                return far
            pf, pr = pts[k - 1]
            a = pr - pf
            lam = -a / (d - a)
            return pf + lam * (far - pf)
    raise AssertionError("no crossing found")


def test_a3_eer_oracle_equivalence():
    ok = compute_eer([0.9, 0.8, 0.7, 0.1], [True, True, False, False]).eer == 0.0
    ok = ok and compute_eer(
        [0.9, 0.3, 0.7, 0.1], [True, True, False, False]
    ).eer == 0.5
    rng = make_rng(3)
    worst = 0.0
    done = 0
    while done < 1000:
        n = int(rng.integers(2, 201))
        if rng.random() < 0.5:
            scores = np.round(rng.standard_normal(n), 1)  # coarse grid: ties
        else:
            scores = rng.standard_normal(n)
        labels = rng.random(n) < rng.uniform(0.2, 0.8)
        if labels.all() or not labels.any():
            continue
        got = compute_eer(scores, labels).eer
        want = brute_force_eer(list(scores), list(labels))
        worst = max(worst, abs(got - want))
        done += 1
    check(
        "A3 EER oracle equivalence",
        ok and worst <= 1e-9,
        f"1000 sets, max |diff| {worst:.2e}",
    )


# ---------------------------------------------------------------------------
# A4 / A5: learnability and chance-level sanity on the synthetic oracle


def test_a4_end_to_end_learnability(trained_heads):
    eer = trained_heads["best"]["dev_eer"]
    step = trained_heads["best"]["step"]
    check(
        "A4 end-to-end learnability",
        eer <= 0.05,
        f"held-out EER {eer:.4f} at step {step}",
    )


def test_a5_chance_level_sanity(small_dataset):
    shuffled = shuffle_speaker_labels(small_dataset, make_rng(17))
    cfg = learnability_config()
    spk = shuffled.speakers()
    held = spk[:4]
    trials = default_dev_trials(shuffled, held, cfg, make_rng(0))
    best, _ = train_with_early_stopping(
        shuffled.subset(spk[4:]), trials, shuffled, cfg
    )
    eer = best["dev_eer"]
    check(
        "A5 chance-level sanity",
        0.40 <= eer <= 0.60,
        f"shuffled-label EER {eer:.4f}",
    )


# ---------------------------------------------------------------------------
# A6: unheard-language protocol audit


def multilingual_records(seed, excluded=None):
    cfg = SynthConfig(
        n_speakers=12,
        latent_dim=8,
        noise_sigma=0.01,
        records_per_speaker=4,
        seed=seed,
        languages={"en": 0.4, "de": 0.4, "fr": 0.2},
    )
    _, records, _ = generate(cfg)
    if excluded is not None:
        records = filter_exclude_language(records, excluded)
    return records


def test_a6_unheard_protocol_audit(tmp_path):
    clean = True
    for lang in ("en", "de"):
        for seed in (1, 2):
            m = multilingual_records(seed, excluded=lang)
            clean = clean and audit_manifest(m, lang) == []

    # the CLI must turn an injected excluded-language record into exit 3
    langs = {"en": 0.4, "de": 0.4, "fr": 0.2}

    def synth(sub, n_speakers, seed, languages):
        cfg = tmp_path / f"{sub}.json"
        cfg.write_text(json.dumps({"synth": {
            "n_speakers": n_speakers, "latent_dim": 8, "dims": "small",
            "noise_sigma": 0.01, "records_per_speaker": 4, "seed": seed,
            "languages": languages,
        }}))
        out = tmp_path / sub
        assert cli_main(["synth", "--config", str(cfg), "--out", str(out)]) == 0
        return str(out)

    full = synth("full", 14, 1, langs)
    test_data = synth("test", 12, 3, {"en": 0.5, "de": 0.5})
    ft = synth("ft", 10, 4, langs)

    def variant(src, excluded, dst):
        vectors, records = read_store(src)
        write_store(vectors, filter_exclude_language(records, excluded),
                    tmp_path / dst)
        return str(tmp_path / dst)

    no_en = variant(full, "en", "full_no_en")
    no_de = variant(full, "de", "full_no_de")
    ft_no_en = variant(ft, "en", "ft_no_en")
    ft_no_de = variant(ft, "de", "ft_no_de")

    # inject a single english voice record into the english-unheard corpus
    vectors, records = read_store(no_en)
    entries = store_entries(vectors, records)
    for kind in (ModalityKind.VOICE_SPEAKER, ModalityKind.VOICE_AGE_GENDER):
        dim = vectors[kind].shape[1]
        entries.append(
            (f"leak:v000#{kind.tag}", "leak", "en", kind,
             np.ones(dim, dtype=np.float32))
        )
    write_store(*store_pair(entries), no_en)

    scen_cfg = tmp_path / "scen.json"
    scen_cfg.write_text(json.dumps({
        "test_data": test_data,
        "n_trials_target": 20,
        "n_trials_nontarget": 20,
        "dev_fraction": 0.2,
        "train": {"lr": 0.01, "batch_size": 16, "max_steps": 20,
                  "patience": 2, "eval_every": 10, "seed": 5, "p_drop": 0.5,
                  "n_dev_target": 50, "n_dev_nontarget": 50},
        "scenarios": {
            "english_heard": {"pretrain": full},
            "german_heard": {"pretrain": no_en},
            "english_unheard": {"pretrain": no_en, "finetune": ft_no_en},
            "german_unheard": {"pretrain": no_de, "finetune": ft_no_de},
        },
    }))
    code = cli_main(["scenarios", "--config", str(scen_cfg),
                     "--out", str(tmp_path / "scen")])
    check(
        "A6 unheard protocol audit",
        clean and code == 3,
        f"filtered manifests clean={clean}, injected leak exit status {code}",
    )


# ---------------------------------------------------------------------------
# A7: fine-tuning closes a synthetic domain gap


def test_a7_finetune_domain_gap():
    wins = 0
    margins = []
    for seed in range(10):
        cfg_a = SynthConfig(
            n_speakers=24,
            latent_dim=8,
            noise_sigma=0.05,
            records_per_speaker=8,
            seed=1000 + seed,
        )
        ds_a, truth = build_dataset(cfg_a)
        cfg_b = SynthConfig(
            n_speakers=24,
            latent_dim=8,
            noise_sigma=0.05,
            records_per_speaker=8,
            seed=2000 + seed,
        )
        ds_b, _ = build_dataset(cfg_b, base_truth=truth, jitter=0.6)
        cfg_pre = learnability_config(
            max_steps=200, seed=seed, n_dev_target=200, n_dev_nontarget=200
        )
        cfg_ft = learnability_config(
            lr=3e-3, max_steps=150, seed=seed,
            n_dev_target=200, n_dev_nontarget=200,
        )
        res = pretrain_then_finetune(ds_a, ds_b, cfg_pre, cfg_ft, no_save,
                                     n_folds=3)
        margin = res["frozen_mean_eer"] - res["finetune"]["mean_eer"]
        margins.append(margin)
        if margin > 0.0:
            wins += 1
    check(
        "A7 fine-tune domain gap",
        wins >= 8,
        f"fine-tuning beat frozen heads on {wins}/10 seeds, "
        f"median margin {np.median(margins):.4f}",
    )


# ---------------------------------------------------------------------------
# A8: cross-attention baseline on the learnability dataset


def test_a8_cross_attention_baseline(small_dataset):
    ds = small_dataset
    spk = ds.speakers()
    held = spk[:6]
    trial_cfg = learnability_config(n_dev_target=300, n_dev_nontarget=300)
    trials = default_dev_trials(ds, held, trial_cfg, make_rng(1))
    train_ds = ds.subset(spk[6:])

    xcfg = XAttnTrainConfig(
        d_model=8,
        lr=1e-3,
        batch_size=128,
        max_steps=5000,
        patience=20,
        eval_every=200,
        seed=0,
        p_drop=0.3,
    )
    model, best, _ = train_xattn(train_ds, trials, ds, xcfg)
    xattn_eer = best["dev_eer"]

    head_best, _ = train_with_early_stopping(
        train_ds, trials, ds, learnability_config()
    )
    arrays = head_best["arrays"]
    head_f = head_from_arrays(arrays, "head_face", p_drop=0.0)
    head_v = head_from_arrays(arrays, "head_voice", p_drop=0.0)
    head_scores = score_trials(head_f, head_v, trials, ds)
    head_eer = compute_eer(head_scores, [t.label for t in trials]).eer

    print("architecture comparison on identical trials")
    print(f"  mapping heads + shared AAM classifier  EER {head_eer:.4f}")
    print(f"  two-layer cross-attention              EER {xattn_eer:.4f}")
    check(
        "A8 cross-attention baseline",
        xattn_eer <= 0.40,
        f"xattn EER {xattn_eer:.4f}, mapping-head EER {head_eer:.4f} "
        "on identical trials",
    )


# ---------------------------------------------------------------------------
# A9: byte-identical determinism of every CLI command


def _strip_ts(path):
    report = json.loads(Path(path).read_text())
    report.pop("timestamp", None)
    return json.dumps(report, sort_keys=True)


def _compare_runs(dir_a, dir_b):
    files_a = sorted(p.relative_to(dir_a) for p in Path(dir_a).rglob("*") if p.is_file())
    files_b = sorted(p.relative_to(dir_b) for p in Path(dir_b).rglob("*") if p.is_file())
    if files_a != files_b:
        return False
    for rel in files_a:
        pa, pb = Path(dir_a) / rel, Path(dir_b) / rel
        if rel.name == "report.json":
            if _strip_ts(pa) != _strip_ts(pb):
                return False
        elif pa.read_bytes() != pb.read_bytes():
            return False
    return True


def test_a9_cli_determinism(tmp_path):
    def cfg_file(name, payload):
        p = tmp_path / name
        p.write_text(json.dumps(payload))
        return str(p)

    train_block = {"lr": 0.01, "batch_size": 16, "max_steps": 40,
                   "patience": 3, "eval_every": 20, "seed": 5, "p_drop": 0.5,
                   "n_dev_target": 80, "n_dev_nontarget": 80}
    synth_cfg = cfg_file("synth.json", {"synth": {
        "n_speakers": 14, "latent_dim": 8, "dims": "small",
        "noise_sigma": 0.01, "records_per_speaker": 4, "seed": 1,
        "languages": {"en": 0.4, "de": 0.4, "fr": 0.2},
    }})
    data = str(tmp_path / "data")
    assert cli_main(["synth", "--config", synth_cfg, "--out", data]) == 0

    run_dir = str(tmp_path / "train_a")
    assert cli_main([
        "train",
        "--config",
        cfg_file("train.json", {"data": data, "dev_fraction": 0.25,
                                "train": train_block}),
        "--out", run_dir,
    ]) == 0
    trials = tmp_path / "trials.tsv"
    trials.write_text(
        "face_record_id\tvoice_record_id\tlabel\n"
        "s000:f000\ts000:v001\tsame\n"
        "s000:f001\ts001:v000\tdifferent\n"
        "s001:f000\ts001:v001\tsame\n"
    )

    commands = {
        "synth": ("synth", synth_cfg),
        "train": ("train", cfg_file(
            "train.json",
            {"data": data, "dev_fraction": 0.25, "train": train_block},
        )),
        "crossval": ("crossval", cfg_file(
            "cv.json", {"data": data, "n_folds": 3, "train": train_block},
        )),
        "pretrain-finetune": ("pretrain-finetune", cfg_file(
            "pf.json",
            {"pretrain_data": data, "finetune_data": data, "n_folds": 2,
             "dev_fraction": 0.25, "pretrain": train_block,
             "finetune": train_block},
        )),
        "eval": ("eval", cfg_file(
            "eval.json",
            {"checkpoint": str(Path(run_dir) / "checkpoint.fvh"),
             "data": data, "trials": str(trials)},
        )),
        "xattn": ("xattn", cfg_file(
            "xattn.json",
            {"data": data, "dev_fraction": 0.25,
             "train": {"d_model": 8, "lr": 0.001, "batch_size": 16,
                       "max_steps": 40, "patience": 3, "eval_every": 20,
                       "seed": 5}},
        )),
    }
    # scenarios reuses the same corpus everywhere: the heard recipes ignore
    # exclusions and the unheard ones audit a single-language manifest, so
    # determinism (not protocol cleanliness) is what this run exercises
    commands["scenarios"] = (
        "scenarios",
        cfg_file("scen.json", {
            "test_data": data, "n_trials_target": 15, "n_trials_nontarget": 15,
            "dev_fraction": 0.25, "train": train_block,
            "scenarios": {
                "english_heard": {"pretrain": data},
                "german_heard": {"pretrain": data},
                "english_unheard": {"pretrain": str(tmp_path / "no_en"),
                                    "finetune": str(tmp_path / "no_en")},
                "german_unheard": {"pretrain": str(tmp_path / "no_de"),
                                   "finetune": str(tmp_path / "no_de")},
            },
        }),
    )
    vectors, records = read_store(data)
    for lang, dst in (("en", "no_en"), ("de", "no_de")):
        write_store(vectors, filter_exclude_language(records, lang), tmp_path / dst)

    failures = []
    for name, (command, cfg) in commands.items():
        out_a = tmp_path / f"{name}_1"
        out_b = tmp_path / f"{name}_2"
        code_a = cli_main([command, "--config", cfg, "--out", str(out_a)])
        code_b = cli_main([command, "--config", cfg, "--out", str(out_b)])
        if code_a != 0 or code_b != 0:
            failures.append(f"{name} exit {code_a}/{code_b}")
        elif not _compare_runs(out_a, out_b):
            failures.append(name)
    check(
        "A9 CLI determinism",
        not failures,
        "all 7 commands byte-identical on rerun" if not failures
        else f"mismatches: {', '.join(failures)}",
    )


# ---------------------------------------------------------------------------
# A10: full-scale store round-trip at volume


def test_a10_format_round_trip(tmp_path):
    rng = make_rng(10)
    per_modality = 2500  # 4 modalities -> 10,000 records
    vectors, entries = {}, []
    for kind in ModalityKind:
        dim = FULL_DIMS[kind]
        vectors[kind] = rng.standard_normal((per_modality, dim)).astype(np.float32)
        for i in range(per_modality):
            spk = f"s{i % 50:03d}"
            group = "v" if kind.tag.startswith("v") else "f"
            entries.append((f"{spk}:{group}{i:04d}#{kind.tag}", spk, "en", kind, i))
    records = record_table(*zip(*entries))
    start = time.perf_counter()
    write_store(vectors, records, tmp_path / "big")
    back_vectors, back = read_store(tmp_path / "big")
    elapsed = time.perf_counter() - start
    # both tables by record id: the same ids, speakers, modalities and vectors
    a = records[np.argsort(records.record_id)]
    b = back[np.argsort(back.record_id)]
    exact = len(back) == len(records) and all(
        (a[field] == b[field]).all()
        for field in ("record_id", "speaker_id", "modality")
    ) and all(
        vectors[kind][a.row[a.modality == kind]].tobytes()
        == back_vectors[kind][b.row[b.modality == kind]].tobytes()
        for kind in ModalityKind
    )
    check(
        "A10 format round-trip",
        exact and elapsed < 10.0,
        f"10000 records bit-exact in {elapsed:.2f}s",
    )
