"""The three closed-loop workloads: one caller that waits for each result.

Each workload drives the program the way a user does, through
``enzydesign.cli.main`` in this process, on files written by
``seeded_inputs``. A workload has four parts:

* ``prepare``: untimed work that makes inputs with the program, such as
  training the checkpoint that ``generate`` reads;
* ``setup``: one repetition of the program's own set-up and warm-up,
  timed and reported as ``setup_s``;
* ``op``: one operation of the measured loop, timed and checked;
* ``final_checks``: untimed checks that are too slow for every
  operation.

Probes that stay on in the plain run are light: a clock read at the end
of each training step (``Adam.step``), a call counter on the pairwise
aligner, and a tap that keeps the assembled splits for the pairing
check. Everything else is traced only in the ``--trace 1`` run.
"""
from __future__ import annotations

import math
import statistics
import time
from pathlib import Path

import numpy as np

from seeded_inputs import GEN_LENGTHS
from spans import Patches, Tracer, self_times

# (module, function, span attributes from the call's arguments)
TRACED_FUNCTIONS = [
    ("enzydesign.enzyme_model", "forward_stack", lambda s, *a: {"n": len(s)}),
    ("enzydesign.enzyme_model", "embed_inputs", lambda s, *a: {"n": len(s)}),
    ("enzydesign.enzyme_model", "global_attention_sublayer",
     lambda h, *a: {"n": h.shape[0]}),
    ("enzydesign.enzyme_model", "neighborhood_sublayer",
     lambda h, *a: {"n": h.shape[0]}),
    ("enzydesign.geometry", "knn", lambda p, *a: {"n": len(p)}),
    ("enzydesign.geometry", "init_coordinates", None),
    ("enzydesign.substrate_model", "substrate_forward", None),
    ("enzydesign.substrate_model", "binding_scores", None),
    ("enzydesign.training", "train", None),
    ("enzydesign.training", "record_loss", None),
    ("enzydesign.training", "joint_loss", None),
    ("enzydesign.parameters", "load_checkpoint", None),
    ("enzydesign.parameters", "save_checkpoint", None),
    ("enzydesign.data", "global_alignment_identity", None),
    ("enzydesign.data", "cluster_by_identity", None),
    ("enzydesign.data", "ingest_directory", None),
    ("enzydesign.data", "assemble_dataset", None),
    ("enzydesign.site_miner", "mine_sites", None),
]
TRACED_METHODS = [
    ("enzydesign.numerics", "Tensor", "backward", "numerics.Tensor.backward"),
    ("enzydesign.training", "Adam", "step", "training.Adam.step"),
]
LENGTH_KEYS = GEN_LENGTHS     # per-N layer metrics: the generate lengths
# One fixed tail percentile, so runs of any speed report the same one. At
# the parent's speed a 30 s run leaves ten or more samples beyond it on
# train_short and generate.
TAIL_PERCENTILE = 75

# Every metric a traced run reports, with its unit. A layer a workload
# does not reach reads 0.
PER_LAYER_UNITS = {
    "numerics.tensors_per_step": "count",
    "numerics.backward_ms_per_step": "ms",
    "training.forward_ms_per_step": "ms",
    "training.forward_calls_per_step": "count",
    "training.joint_loss_ms": "ms",
    "training.Adam.step_ms": "ms",
    "training.record_loss_self_ms": "ms",
    "enzyme_model.embed_inputs_ms": "ms",
    "enzyme_model.forward_stack_self_ms": "ms",
    **{f"enzyme_model.forward_stack_ms.n{n}": "ms" for n in LENGTH_KEYS},
    **{f"enzyme_model.global_attention_sublayer_ms.n{n}": "ms"
       for n in LENGTH_KEYS},
    **{f"enzyme_model.neighborhood_sublayer_ms.n{n}": "ms"
       for n in LENGTH_KEYS},
    **{f"geometry.knn_ms.n{n}": "ms" for n in LENGTH_KEYS},
    "geometry.knn_calls_per_forward": "count",
    "geometry.init_coordinates_ms": "ms",
    "substrate_model.substrate_forward_ms": "ms",
    "substrate_model.binding_scores_ms": "ms",
    "parameters.load_checkpoint_ms": "ms",
    "parameters.save_checkpoint_ms": "ms",
    "parameters.checkpoint_bytes": "B",
    "data.global_alignment_identity_calls": "count",
    "data.global_alignment_identity_ms": "ms",
    "data.cluster_by_identity_ms": "ms",
    "data.ingest_directory_ms": "ms",
    "data.assemble_dataset_ms": "ms",
    "site_miner.mine_sites_ms": "ms",
}


class Workload:
    """Shared loop state: probes, tracer, op counts and failures."""

    name = ""

    def __init__(self, info: dict, tracer: Tracer | None):
        import enzydesign.cli as cli
        self.cli = cli
        self.info = info
        self.tracer = tracer
        self.patches = Patches()
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.step_marks: list[tuple[float, int]] = []
        self.align_calls = 0

    # -- probes -------------------------------------------------------
    def install(self) -> None:
        def step_clock(step):
            def stepped(opt):
                out = step(opt)
                tensors = self.tracer.counts["Tensor"] if self.tracer else 0
                self.step_marks.append((time.perf_counter(), tensors))
                return out
            return stepped

        def align_counter(fn):
            def counted(a, b):
                self.align_calls += 1
                return fn(a, b)
            return counted

        p = self.patches
        p.method("enzydesign.training", "Adam", "step", step_clock)
        p.function("enzydesign.data", "global_alignment_identity", align_counter)
        if self.tracer is None:
            return
        t = self.tracer
        for module, name, attrs in TRACED_FUNCTIONS:
            label = f"{module.split('.')[-1]}.{name}"
            p.function(module, name,
                       lambda fn, label=label, attrs=attrs: t.wrap(label, fn, attrs))
        for module, cls, name, label in TRACED_METHODS:
            p.method(module, cls, name, lambda fn, label=label: t.wrap(label, fn))
        p.method("enzydesign.numerics", "Tensor", "__init__",
                 lambda fn: t.counting("Tensor", fn))

    def run_cli(self, *argv) -> int:
        return self.cli.main([str(a) for a in argv])

    def fail(self, why: str) -> None:
        self.failures.append(why)

    def record(self, ok: bool) -> None:
        self.attempted += 1
        self.failed += 0 if ok else 1

    # -- per-workload parts --------------------------------------------
    def prepare(self) -> None:
        pass

    def setup(self) -> None:
        raise NotImplementedError

    def op(self) -> None:
        raise NotImplementedError

    def final_checks(self) -> None:
        pass

    def metrics(self) -> dict:
        """(value, unit) for every end-to-end metric except set-up and memory."""
        raise NotImplementedError

    def aliases(self) -> dict:
        """The same numbers under workload-specific names, for the summary."""
        return {}

    def samples(self) -> dict:
        """Raw timings behind the metrics, kept in the run's record."""
        return {}


class TrainShort(Workload):
    """``enzydesign train`` on a small corpus, crossing into phase 2."""

    name = "train_short"

    def __init__(self, *a, **kw):
        super().__init__(*a, **kw)
        self.step_ms: list[float] = []
        self.step_tensors: list[int] = []
        self.first_log: str | None = None

    def _train(self, config: str) -> tuple[int, list[tuple[float, int]], str]:
        mark = len(self.step_marks)
        log = Path(config.replace(".json", "_loss.log"))
        log.unlink(missing_ok=True)
        code = self.run_cli("train", "--config", config)
        return code, self.step_marks[mark:], log.read_text() if log.exists() else ""

    def _check_run(self, code: int, marks, log: str, steps: int) -> bool:
        rows = [line.split("\t") for line in log.splitlines()]
        ok = code == 0
        if not ok:
            self.fail(f"train exited {code}")
        if len(rows) != steps or len(marks) != steps:
            self.fail(f"history has {len(rows)} rows and {len(marks)} optimizer "
                      f"steps, expected {steps}")
            ok = False
        if not all(math.isfinite(float(v)) for row in rows for v in row[1:]):
            self.fail("non-finite loss")
            ok = False
        return ok

    def setup(self) -> None:
        code, marks, log = self._train("warmup.json")
        if not self._check_run(code, marks, log, 2):
            raise RuntimeError("warm-up training failed: " + "; ".join(self.failures))
        splits = Path("warmup_splits.tsv").read_text().splitlines()
        if len(splits) != len(self.info["records"]) or \
                any(not line.endswith("\ttrain") for line in splits):
            raise RuntimeError("train_short corpus did not land wholly in train")

    def op(self) -> None:
        code, marks, log = self._train("train.json")
        ok = self._check_run(code, marks, log, self.info["steps"])
        if self.first_log is None:
            self.first_log = log
        elif log != self.first_log:
            self.fail("loss history differs between runs of the same seed")
            ok = False
        # the first step of a run also carries corpus loading: excluded
        for (t0, c0), (t1, c1) in zip(marks, marks[1:]):
            self.step_ms.append((t1 - t0) * 1e3)
            self.step_tensors.append(c1 - c0)
        self.record(ok)

    def samples(self) -> dict:
        return {"step_ms": self.step_ms, "step_tensors": self.step_tensors,
                "loss_log": self.first_log}

    def loss_final(self) -> float:
        """Mean total loss per free residue over the last four steps."""
        rows = [line.split("\t") for line in (self.first_log or "").splitlines()]
        last = [float(r[4]) for r in rows[-4:]]
        return statistics.fmean(last) / self.info["free_per_step"] if last else math.nan

    def metrics(self) -> dict:
        ms = self.step_ms
        return {
            "throughput_per_s": (self.info["residues_per_step"] * len(ms)
                                 / (sum(ms) / 1e3), "1/s"),
            "latency_ms_p50": (statistics.median(ms), "ms"),
            "latency_ms_tail": (float(np.percentile(ms, TAIL_PERCENTILE)), "ms"),
        }

    def aliases(self) -> dict:
        m = self.metrics()
        return {
            "train_residues_per_s": m["throughput_per_s"],
            "train_step_ms_p50": m["latency_ms_p50"],
            f"train_step_ms_tail (p{TAIL_PERCENTILE} of {len(self.step_ms)} steps)":
                m["latency_ms_tail"],
            "train_loss_final (per free residue)": (self.loss_final(), "nats+A^2"),
        }


class Generate(Workload):
    """Repeated ``enzydesign generate`` requests against one checkpoint."""

    name = "generate"

    def __init__(self, *a, **kw):
        super().__init__(*a, **kw)
        self.latency: dict[int, list[float]] = {}
        self.candidates = 0
        self.busy_s = 0.0
        self.request = 0

    def prepare(self) -> None:
        if self.run_cli("train", "--config", "checkpoint.json") != 0:
            raise RuntimeError("could not train the generate checkpoint")

    def _generate(self, n: int, candidates: int, seed: int) -> tuple[int, str]:
        out = f"designs_{n}.txt"
        Path(out).unlink(missing_ok=True)
        code = self.run_cli("generate", "--checkpoint", "model.ckpt",
                            "--motif", self.info["motifs"][n]["path"],
                            "--num-candidates", candidates, "--seed", seed,
                            "--out", out)
        return code, out

    def _check_output(self, n: int, candidates: int, path: str) -> bool:
        motif = self.info["motifs"][n]
        lines = Path(path).read_text().splitlines()
        if len(lines) != candidates * (n + 2):
            self.fail(f"N={n}: {len(lines)} output lines")
            return False
        for c in range(candidates):
            block = lines[c * (n + 2):(c + 1) * (n + 2)]
            seq = block[1]
            if len(seq) != n or any(seq[i] != r for i, r in
                                    zip(motif["indices"], motif["residues"])):
                self.fail(f"N={n}: motif residues not copied verbatim")
                return False
            xyz = np.array([row.split("\t")[2:] for row in block[2:]], dtype=float)
            if not np.all(np.isfinite(xyz)):
                self.fail(f"N={n}: non-finite output coordinates")
                return False
        return True

    def setup(self) -> None:
        for n in sorted(self.info["motifs"]):
            code, out = self._generate(n, 1, 0)
            if code != 0 or not self._check_output(n, 1, out):
                raise RuntimeError(f"warm-up generate at N={n} failed")

    def op(self) -> None:
        order = self.info["order"]
        n = order[self.request % len(order)]
        c = self.info["candidates"]
        t0 = time.perf_counter()
        code, out = self._generate(n, c, self.info["request_seed"] + self.request)
        dt = time.perf_counter() - t0
        self.request += 1
        self.busy_s += dt
        self.candidates += c
        self.latency.setdefault(n, []).append(dt * 1e3)
        self.record(code == 0 and self._check_output(n, c, out))

    def samples(self) -> dict:
        return {f"n{n}_ms": v for n, v in sorted(self.latency.items())}

    def final_checks(self) -> None:
        """Rigid-motion spot check of the forward pass, once per length."""
        from enzydesign import geometry
        from enzydesign.enzyme_model import forward_stack
        from enzydesign.parameters import load_checkpoint
        from enzydesign.residues import AA_TO_INDEX
        params, config, vocab, _ = load_checkpoint("model.ckpt")
        rng = np.random.default_rng(self.info["request_seed"])
        for n, motif in sorted(self.info["motifs"].items()):
            idx = np.array(motif["indices"], dtype=np.intp)
            seq = np.zeros(n, dtype=np.intp)
            seq[idx] = [AA_TO_INDEX[r] for r in motif["residues"]]
            mask = np.zeros(n, dtype=bool)
            mask[idx] = True
            lines = Path(motif["path"]).read_text().splitlines()
            tag = vocab.encode(lines[0].split()[-1])
            given = np.array([row.split("\t")[2:] for row in lines[1:]], dtype=float)
            coords = geometry.init_coordinates(given, idx, n, rng, config.bond_length)
            rot, t = geometry.random_rigid(rng)
            la, xa, _ = forward_stack(seq, mask, tag, coords, params, config)
            lb, xb, _ = forward_stack(seq, mask, tag,
                                      geometry.apply_rigid(rot, t, coords),
                                      params, config)
            expected = geometry.apply_rigid(rot, t, xa.data)
            scale = max(np.abs(expected).max(), 1.0)
            dev_logits = np.abs(lb.data - la.data).max()
            dev_coords = np.abs(xb.data - expected).max() / scale
            ok = dev_logits < 1e-9 and dev_coords < 1e-9
            if not ok:
                self.fail(f"N={n}: rigid-motion deviation logits={dev_logits:.2e} "
                          f"coords={dev_coords:.2e}")
            self.record(ok)

    def metrics(self) -> dict:
        mid = self.latency.get(128, [math.nan])
        return {
            "throughput_per_s": (self.candidates / self.busy_s, "1/s"),
            "latency_ms_p50": (statistics.median(mid), "ms"),
            "latency_ms_tail": (float(np.percentile(mid, TAIL_PERCENTILE)), "ms"),
        }

    def aliases(self) -> dict:
        m = self.metrics()
        out = {f"gen_n{n}_ms_p50": (statistics.median(v), "ms")
               for n, v in sorted(self.latency.items())}
        mid = len(self.latency.get(128, []))
        out[f"gen_n128_ms_tail (p{TAIL_PERCENTILE} of {mid} requests)"] = \
            m["latency_ms_tail"]
        out["gen_candidates_per_s"] = m["throughput_per_s"]
        return out


class CorpusPrep(Workload):
    """Ingest, cluster, split and assemble a corpus, then mine sites."""

    name = "corpus_prep"

    def __init__(self, *a, **kw):
        super().__init__(*a, **kw)
        self.prep_ms: list[float] = []
        self.assembled: list = []

    def install(self) -> None:
        super().install()

        def tap(fn):
            def assemble(*args, **kwargs):
                splits = fn(*args, **kwargs)
                self.assembled.append(splits)
                return splits
            return assemble
        self.patches.function("enzydesign.data", "assemble_dataset", tap)

    def _check_splits(self, path: str) -> bool:
        rows = [line.split("\t") for line in Path(path).read_text().splitlines()]
        split_of: dict[str, set] = {}
        cluster_of: dict[str, set] = {}
        for rid, cid, which in rows:
            split_of.setdefault(cid, set()).add(which)
            cluster_of.setdefault(rid.split("_")[0], set()).add(cid)
        ok = True
        if sorted(r[0] for r in rows) != self.info["records"]:
            self.fail("split manifest does not list every record once")
            ok = False
        if any(len(s) > 1 for s in split_of.values()):
            self.fail("a cluster straddles two splits")
            ok = False
        if len(split_of) != self.info["families"] or \
                any(len(c) != 1 for c in cluster_of.values()):
            self.fail("clusters do not match the generated families")
            ok = False
        splits = self.assembled[-1] if self.assembled else {}
        if not splits.get("train") or any(
                rec.substrate_id is None or rec.binding_label not in (0, 1)
                for rec in splits["train"]):
            self.fail("a training record has no substrate pairing")
            ok = False
        return ok

    def _check_sites(self, path: str) -> bool:
        found = {}
        for line in Path(path).read_text().splitlines():
            rid, idx, letters = line.split("\t")
            found[rid] = ([int(i) for i in idx.split(",")] if idx else [],
                          letters.split(",") if letters else [])
        expected = {rid: tuple(v) for rid, v in self.info["expected_sites"].items()}
        if found != expected:
            self.fail("mined sites differ from the planted conserved columns")
            return False
        return True

    def _prep(self, config: str, out: str) -> tuple[bool, str]:
        splits = config.replace(".json", "_splits.tsv")
        for stale in (splits, out):
            Path(stale).unlink(missing_ok=True)
        code = self.run_cli("train", "--config", config)
        code2 = self.run_cli("mine-sites", "--alignments", "msas",
                             "--tau", self.info["tau"], "--out", out)
        if code or code2:
            self.fail(f"train exited {code}, mine-sites exited {code2}")
        return code == 0 and code2 == 0, splits

    def setup(self) -> None:
        ok, _ = self._prep("warmup.json", "warmup_sites.tsv")
        if not ok:
            raise RuntimeError("warm-up corpus preparation failed")

    def op(self) -> None:
        t0 = time.perf_counter()
        ok, splits = self._prep("prep.json", "mined_sites.tsv")
        self.prep_ms.append((time.perf_counter() - t0) * 1e3)
        ok = ok and self._check_splits(splits) and self._check_sites("mined_sites.tsv")
        self.record(ok)

    def samples(self) -> dict:
        return {"prep_ms": self.prep_ms}

    def metrics(self) -> dict:
        ms = self.prep_ms
        return {
            "throughput_per_s": (self.align_calls / (sum(ms) / 1e3), "1/s"),
            "latency_ms_p50": (statistics.median(ms), "ms"),
            "latency_ms_tail": (float(np.percentile(ms, TAIL_PERCENTILE)), "ms"),
        }

    def aliases(self) -> dict:
        m = self.metrics()
        return {
            "prep_s": (m["latency_ms_p50"][0] / 1e3, "s"),
            f"prep_s_tail (p{TAIL_PERCENTILE} of {len(self.prep_ms)} passes)":
                (m["latency_ms_tail"][0] / 1e3, "s"),
            "prep_pairs_per_s": m["throughput_per_s"],
        }


WORKLOADS = {w.name: w for w in (TrainShort, Generate, CorpusPrep)}


# ---- per-layer metrics from a traced run ---------------------------------

def per_layer(workload: Workload) -> dict:
    """Every per-layer metric from the spans of the measured phase."""
    t = workload.tracer
    spans = [s for s in t.spans if s.phase == "measure"]
    selfs = self_times(spans)
    by_name: dict[str, list] = {}
    for s in spans:
        by_name.setdefault(s.name, []).append(s)
    forwards = {s.id for s in by_name.get("enzyme_model.forward_stack", [])}

    def mean_ms(name, self_time=False):
        sel = by_name.get(name, [])
        if not sel:
            return 0.0
        return 1e3 * statistics.fmean(selfs[s.id] if self_time else s.duration
                                      for s in sel)

    def median_ms(name, n):
        sel = [s.duration for s in by_name.get(name, []) if s.attrs.get("n") == n]
        return 1e3 * statistics.median(sel) if sel else 0.0

    steps = len(by_name.get("training.Adam.step", []))

    def per_step(value):
        return value / steps if steps else 0.0

    index = {s.id: s for s in spans}
    in_train = [s for s in by_name.get("enzyme_model.forward_stack", [])
                if _under(s, "training.train", index)]
    knn_in_forward = [s for s in by_name.get("geometry.knn", []) if s.parent in forwards]
    ops = max(workload.attempted, 1)
    ckpt = Path(".").glob("*.ckpt")
    step_tensors = getattr(workload, "step_tensors", [])
    out = {
        "numerics.tensors_per_step":
            statistics.fmean(step_tensors) if step_tensors else 0.0,
        "numerics.backward_ms_per_step": per_step(
            1e3 * sum(s.duration for s in by_name.get("numerics.Tensor.backward", []))),
        "training.forward_ms_per_step": per_step(1e3 * sum(s.duration for s in in_train)),
        "training.forward_calls_per_step": per_step(len(in_train)),
        "training.joint_loss_ms": mean_ms("training.joint_loss"),
        "training.Adam.step_ms": mean_ms("training.Adam.step"),
        "training.record_loss_self_ms": mean_ms("training.record_loss", self_time=True),
        "enzyme_model.embed_inputs_ms": mean_ms("enzyme_model.embed_inputs"),
        "enzyme_model.forward_stack_self_ms":
            mean_ms("enzyme_model.forward_stack", self_time=True),
        "geometry.knn_calls_per_forward":
            len(knn_in_forward) / len(forwards) if forwards else 0.0,
        "geometry.init_coordinates_ms": mean_ms("geometry.init_coordinates"),
        "substrate_model.substrate_forward_ms":
            mean_ms("substrate_model.substrate_forward"),
        "substrate_model.binding_scores_ms": mean_ms("substrate_model.binding_scores"),
        "parameters.load_checkpoint_ms": mean_ms("parameters.load_checkpoint"),
        "parameters.save_checkpoint_ms": mean_ms("parameters.save_checkpoint"),
        "parameters.checkpoint_bytes": float(max((p.stat().st_size for p in ckpt),
                                                 default=0)),
        "data.global_alignment_identity_calls":
            len(by_name.get("data.global_alignment_identity", [])) / ops,
        "data.global_alignment_identity_ms": mean_ms("data.global_alignment_identity"),
        "data.cluster_by_identity_ms": mean_ms("data.cluster_by_identity"),
        "data.ingest_directory_ms": mean_ms("data.ingest_directory"),
        "data.assemble_dataset_ms": mean_ms("data.assemble_dataset"),
        "site_miner.mine_sites_ms": mean_ms("site_miner.mine_sites"),
    }
    for n in LENGTH_KEYS:
        for layer in ("forward_stack", "global_attention_sublayer",
                      "neighborhood_sublayer"):
            out[f"enzyme_model.{layer}_ms.n{n}"] = median_ms(f"enzyme_model.{layer}", n)
        out[f"geometry.knn_ms.n{n}"] = median_ms("geometry.knn", n)
    return {name: (out[name], unit) for name, unit in PER_LAYER_UNITS.items()}


def _under(span, name: str, index: dict) -> bool:
    parent = index.get(span.parent)
    while parent is not None:
        if parent.name == name:
            return True
        parent = index.get(parent.parent)
    return False
