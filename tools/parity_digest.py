"""Print sha256 digests of sepnet's numeric outputs for this checkout.

    python3 tools/parity_digest.py > digest.json

Imports ``sepnet`` from ``src/`` of the checkout this script sits in, never
from elsewhere, and prints one JSON object:

* ``search.*``: a desk search (``configs/desk.cfg``, seed 0, 2 meta-iterations,
  1 fine-tune epoch): final parameters and BatchNorm state, run log, best
  policy, and the bytes of ``best.snnc`` and ``iter002.snnc``;
* ``d56.*``: the depth-56 G=4 model of ``configs/sep-resnext56-4x16d.cfg``
  with its BatchNorm statistics set by one training-mode batch:
  ``single_process_reference`` and ``run_hosted`` logits under the sparse
  policy of acceptance criterion 6 at f16 and under full exchange at f32,
  and the bytes ``save_model`` writes for it.

Two checkouts compute bit-identical results exactly when their outputs are
equal, so a change meant to keep every bit is checked by running this at
the parent commit and at the change and comparing the two lines.
"""

import hashlib
import json
import os
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
DESK_CONFIG = os.path.join(ROOT, "configs", "desk.cfg")
D56_CONFIG = os.path.join(ROOT, "configs", "sep-resnext56-4x16d.cfg")
# the searched sparse policy of acceptance criterion 6 (paper Table 5), sent at f16
SPARSE_F16 = [(9, 4), (22, 6), (18, 6), (3, 6), (16, 7), (23, 8), (9, 8), (13, 8), (20, 7)]
D56_SEED = 0
BN_BATCH = 4


def _import_sepnet():
    sys.path.insert(0, SRC)
    import sepnet

    if os.path.dirname(os.path.abspath(sepnet.__file__)) != os.path.join(SRC, "sepnet"):
        sys.exit(f"parity_digest: sepnet imported from {sepnet.__file__}, not from {SRC}")


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _file_sha(path: str) -> str:
    with open(path, "rb") as fh:
        return _sha(fh.read())


def search_digests(tmp: str) -> dict:
    from sepnet import checkpoint, config, data, search

    cfg = config.resolve(DESK_CONFIG, ["seed=0", "search.meta_iterations=2",
                                       "search.finetune_epochs=1"])
    out_dir = os.path.join(tmp, "search")
    found = search.run_search(config.search_config(cfg), config.model_spec(cfg),
                              data.make_dataset(config.data_spec(cfg)), out_dir=out_dir)
    return {
        "search.params": checkpoint.params_digest(found.net.named_params()),
        "search.state": checkpoint.params_digest(found.net.named_state()),
        "search.run_log": _file_sha(os.path.join(out_dir, "run_log.jsonl")),
        "search.best_policy": found.best_policy.ids(),
        "search.best.snnc": _file_sha(os.path.join(out_dir, "best.snnc")),
        "search.iter002.snnc": _file_sha(os.path.join(out_dir, "iter002.snnc")),
    }


def d56_digests(tmp: str) -> dict:
    import numpy as np

    from sepnet import checkpoint, config, models, perf, runtime
    from sepnet import policy as pol

    spec = config.model_spec(config.resolve(D56_CONFIG))
    net = models.Network(spec, seed=D56_SEED)
    rng = np.random.default_rng(D56_SEED)
    net.forward(rng.standard_normal((BN_BATCH, spec.in_channels, *spec.in_hw)).astype(np.float32),
                None, train=True)
    x = rng.standard_normal((1, spec.in_channels, *spec.in_hw)).astype(np.float32)
    out = {}
    for label, policy, dtype in (
            ("sparse_f16", pol.policy_from_ids(SPARSE_F16, spec.partitions, spec.alpha), "f16"),
            ("full_f32", perf.full_exchange_policy(spec), "f32")):
        ref = runtime.single_process_reference(net, policy, x, dtype)
        out[f"d56.reference.{label}"] = _sha(ref.tobytes())
        out[f"d56.hosted.{label}"] = _sha(runtime.run_hosted(net, policy, x, dtype).tobytes())
    path = os.path.join(tmp, "d56.snnc")
    checkpoint.save_model(path, net)
    out["d56.snnc"] = _file_sha(path)
    return out


def main() -> int:
    _import_sepnet()
    with tempfile.TemporaryDirectory(prefix="parity-") as tmp:
        doc = {**search_digests(tmp), **d56_digests(tmp)}
    print(json.dumps(doc, sort_keys=True))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
