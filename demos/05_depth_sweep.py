"""How circuit depth affects convergence.

Trains the 4-qubit generator against one fixed asymmetric target at
depths 2, 4, 6 and 8.  Deeper circuits nest shallower ones (the
entangling block squares to the identity, so zeroed extra layers vanish),
and in practice they converge faster and further.
"""

import numpy as np

from qbde.qgan import TrainConfig, train

TARGET = np.array([
    0.0103, 0.0877, 0.0297, 0.0476, 0.0677, 0.0740, 0.0890, 0.0013,
    0.0632, 0.0440, 0.1170, 0.1927, 0.0951, 0.0310, 0.0116, 0.0381])
TARGET[0] += 1.0 - TARGET.sum()

entropy = -float(np.sum(TARGET * np.log(TARGET)))
print(f"fixed 16-outcome target, entropy (cross-entropy floor) = {entropy:.4f}\n")

checkpoints = (50, 100, 200, 300, 400)
print("depth  " + "  ".join(f"ce@{e:<4d}" for e in checkpoints))
finals = {}
for depth in (2, 4, 6, 8):
    cfg = TrainConfig(batch=1, epochs=400, depth=depth, seed=0,
                      lr_g=0.05, lr_d=0.003, hidden=(16, 8))
    trace = train([TARGET[None, :]], cfg)[0]
    row = "  ".join(f"{trace.cross_entropy[e - 1]:.4f}" for e in checkpoints)
    print(f"K={depth}    {row}")
    finals[depth] = trace.cross_entropy[-1]

print("\nfinal cross-entropy by depth:",
      {k: round(v, 4) for k, v in finals.items()})
best = min(finals, key=finals.get)
print(f"deepest-is-best holds here: K={best} ends lowest; "
      f"K=8 <= K=2 gap = {finals[2] - finals[8]:+.4f}")
