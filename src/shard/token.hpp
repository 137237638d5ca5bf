// The wire format of the sharded walk engine: a walk that steps onto a
// node its current shard does not own is frozen into a compact WalkToken
// and sent to the owner, where the next superstep thaws it and keeps
// walking. The token is everything a walk IS — id, position, step count,
// accumulator, RNG state — so handing one off moves the walk without
// copying any graph state, exactly the migration Das Sarma et al. perform
// between distributed machines. Delivery order is the engine's business
// (shard/engine.hpp): inboxes concatenate the senders' outboxes in
// source-shard order, each in send order.
#pragma once

#include <cstdint>

#include "graph/graph.hpp"
#include "util/rng.hpp"

namespace overcount {

/// What kind of walk a token carries (selects the thaw loop and the
/// interpretation of `steps`/`acc`).
enum class WalkKind : std::uint8_t {
  kTour,      ///< Random Tour; steps = walk steps, acc = counter X
  kSample,    ///< CTRW sample;  steps = hops,       acc = remaining timer
  kScWalk,    ///< one CTRW walk inside an S&C trial (same fields as kSample)
  kScReport,  ///< finished S&C walk reporting home; at = sampled node,
              ///< steps = hops of that walk, rng = stream to continue with
};

/// A frozen in-flight walk: small enough that a handoff is one cheap vector
/// push, and nothing graph-sized ever crosses shards. The trailing fields
/// are migration metadata, not walk state: `flow` threads a per-walk
/// causal-trace id across every handoff (0 = untraced; obs/trace.hpp flow
/// events), `frozen_us` stamps when the walk froze so the thawing shard can
/// histogram shard.handoff_latency_us (0 = unstamped), and `ctx` rides the
/// cost-ledger context id (obs/cost/) so the thawing shard charges the
/// token to the (tenant, query) that seeded the walk (0 = unattributed).
/// None of these fields is ever read by the walk logic itself —
/// bit-identity of the estimates is untouched.
struct WalkToken {
  std::uint32_t walk = 0;  ///< batch slot (tour/sample index, or trial id)
  WalkKind kind = WalkKind::kTour;
  NodeId at = 0;           ///< current node (already visited/checked)
  std::uint64_t steps = 0;
  double acc = 0.0;
  Rng rng{0};
  std::uint64_t flow = 0;       ///< causal-trace flow id (0 = untraced)
  std::uint64_t frozen_us = 0;  ///< freeze timestamp (0 = unstamped)
  std::uint32_t ctx = 0;        ///< cost-ledger context (0 = unattributed)
};

}  // namespace overcount
