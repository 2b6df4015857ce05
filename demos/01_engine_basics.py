"""Train the numpy conv net on a fixed synthetic batch.

Shows the raw engine loop: forward, loss, backward, optimizer step —
no scheduling, no files. Loss should fall well below its starting value
within 200 Adam steps.
"""

import numpy as np

from daylearn import nn
from daylearn.config import parse_layers
from daylearn.data import Image, NormalizationSpec, normalize, synthetic_pattern
from daylearn.rng import substream

LAYERS = "conv:16:3:1:1,relu,pool:2,conv:16:3:1:1,relu,pool:2,flatten,dense:3"


def main():
    rng = substream(0, "demo-engine")
    norm = NormalizationSpec()
    xs, ys = [], []
    for i in range(8):
        k = i % 3
        base = synthetic_pattern(k, 3, 32, 32).astype(np.float64)
        noisy = np.clip(base + rng.standard_normal((32, 32)) * 12, 0, 255)
        xs.append(normalize(Image(noisy.astype(np.uint8)), norm))
        ys.append(k)
    x, y = np.stack(xs), np.array(ys)

    model = nn.Model(parse_layers(LAYERS, 32), (1, 32, 32), seed=0)
    opt = nn.Adam(1e-3)

    for step in range(200):
        logits = model.forward(x)
        loss, glogits = nn.loss_forward_backward("softmax_ce", logits, y)
        model.backward(glogits)
        opt.step([p for _, p in model.parameters()], model.gradients())
        if step % 40 == 0 or step == 199:
            _, pred = nn.predict_batch(model, x)
            acc = (pred == y).mean()
            print(f"step {step:3d}  loss {loss:.4f}  train acc {acc:.2f}")

    # double-precision finite differences confirm the backward pass
    check_model = nn.Model(parse_layers(LAYERS, 8), (1, 8, 8), seed=1, dtype=np.float64)
    cx = rng.standard_normal((2, 1, 8, 8))
    cy = rng.integers(0, 3, size=2)
    worst = max(r["max_rel_err"] for r in nn.grad_check_model(check_model, cx, cy, "softmax_ce"))
    print(f"gradient check: max relative error {worst:.3g}")


if __name__ == "__main__":
    main()
