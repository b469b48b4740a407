// Package stackedsim is a from-scratch, cycle-level Go reproduction of
// Gabriel H. Loh, "3D-Stacked Memory Architectures for Multi-Core
// Processors" (ISCA 2008).
//
// The simulator lives under internal/ and the runnable entry points
// under cmd/ and examples/. cmd/experiments regenerates every table and
// figure of the paper's evaluation (DESIGN.md's per-experiment index),
// internal/core's TestFiguresGolden pins each one, and bench/ measures
// the simulator's speed.
//
// Start with README.md for orientation, DESIGN.md for the system
// inventory and documented substitutions, and EXPERIMENTS.md for the
// paper-versus-measured record.
package stackedsim
