// Package engine executes experiment trials across a bounded worker pool
// with deterministic results.
//
// Every harness in internal/experiments decomposes into independent
// trials — one per SNR point, seed, topology, algorithm or channel
// condition — that share only immutable inputs (rate tables, channel
// calibration, pre-generated link traces). The engine fans those trials
// across at most runtime.NumCPU() goroutines (or an explicit worker
// count) and aggregates their results in declaration order, so an
// experiment's output is byte-identical at any worker count.
//
// Determinism rests on two rules the API enforces or makes easy:
//
//   - Per-trial seeding. A trial's randomness derives only from a base
//     seed and the trial's index, never from goroutine scheduling,
//     wall-clock time or a PRNG shared across trials.
//   - Ordered aggregation. Map and MapWith return results indexed by
//     trial, regardless of completion order, so any reduction the caller
//     performs (sums, means, table rows) visits trials in a fixed order
//     and floating-point accumulation order is stable.
//
// A trial must not mutate state reachable from other trials. Shared
// read-only structures (trace.LinkTrace, phy.BERModel, rate tables) are
// safe; anything stateful — channel models with construction-time
// randomness, PHY links, MAC simulations — must be built inside the
// trial from the trial's own seed. The harnesses derive that seed as
// Options.Seed plus a fixed per-trial offset; the offsets are part of the
// published outputs.
package engine
