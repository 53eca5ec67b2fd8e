"""Train the quantum generator to load a fixed target distribution.

The generator never sees the target directly: the discriminator sees real
samples (the target) and generated samples (the circuit's output
distribution), and the generator follows the discriminator's gradient.
At equilibrium the discriminator is maximally confused, so its loss
approaches 2 log 2 and the generator's approaches log 2.
"""

import math

import numpy as np

from qbde.qgan import TrainConfig, generator_output, train

TARGET = np.array([0.5, 0.25, 0.15, 0.1])

# A small discriminator keeps the two players balanced at this scale; the
# circuit has 2 qubits and depth 4 (10 trainable angles).
cfg = TrainConfig(batch=1, epochs=1000, depth=4, seed=0,
                  lr_g=0.05, lr_d=0.003, hidden=(16, 8))
print(f"target: {TARGET}")
print(f"training: depth {cfg.depth}, {cfg.epochs} epochs, seed {cfg.seed}\n")

trace = train([TARGET[None, :]], cfg)[0]

print("epoch   L_G     L_D     cross-entropy")
for e in (0, 49, 99, 199, 399, 699, 999):
    print(f"{e + 1:5d}  {trace.loss_g[e]:.4f}  {trace.loss_d[e]:.4f}  "
          f"{trace.cross_entropy[e]:.4f}")

p = generator_output(trace.state.params)
tv = 0.5 * float(np.abs(p - TARGET).sum())
entropy = -float(np.sum(TARGET * np.log(TARGET)))

print(f"\nlearned distribution: {np.round(p, 4)}")
print(f"total-variation distance to target: {tv:.4f}")
print(f"final cross-entropy {trace.cross_entropy[-1]:.4f} "
      f"(floor = target entropy {entropy:.4f})")
print(f"final L_G {trace.loss_g[-1]:.4f} vs log 2 = {math.log(2):.4f}")
print(f"final L_D {trace.loss_d[-1]:.4f} vs 2 log 2 = {2 * math.log(2):.4f}")
print(f"\ncross-entropy trace decreased from "
      f"{trace.cross_entropy[0]:.4f} to {trace.cross_entropy[-1]:.4f}; "
      f"losses settle near the equilibrium values, so the discriminator "
      f"can no longer tell the generator's output from the target.")
