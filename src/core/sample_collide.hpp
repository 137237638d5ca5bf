// The Sample & Collide size estimator (paper Section 4).
//
// Draw (approximately) uniform samples with the CTRW sampler until exactly
// `ell` of them were already seen before ("collisions"); let C_ell be the
// number of samples drawn at that point. C_ell is a sufficient statistic for
// N. The maximum-likelihood estimate solves
//
//   F(N) = sum_{j=0}^{D-1} 1/(N - j)  -  C_ell / N = 0,   D = C_ell - ell
//
// (the score, eq. (9)) by bisection inside brackets [N-, N+] that are both
// asymptotic to N (eq. (10)). The asymptotically equivalent closed form
// N_hat = C_ell^2 / (2 ell) is what the paper's own evaluation uses.
// Asymptotics (Prop. 3, Cor. 1): C_ell/sqrt(N) => sqrt(2(E_1+...+E_ell)),
// so N_hat/N => Erlang(ell,1)/ell and the relative MSE tends to 1/ell
// (Table 1: 0.1 at ell=10, 0.01 at ell=100); no unbiased estimator does
// asymptotically better (Cramer-Rao, Lemma 2).
#pragma once

#include <cstdint>

#include "core/sampling.hpp"
#include "obs/trace.hpp"
#include "walk/collision.hpp"

namespace overcount {

/// Log-likelihood of observing `collisions` collisions in `samples` draws
/// from a uniform population of size n (up to an N-free additive constant).
/// Requires n >= distinct = samples - collisions.
double sc_log_likelihood(double n, std::uint64_t samples,
                         std::uint64_t collisions);

/// Score F(n) = d/dn log-likelihood; strictly decreasing past the ML root.
double sc_score(double n, std::uint64_t samples, std::uint64_t collisions);

/// Deterministic bracket [n_minus, n_plus] containing the ML root; both are
/// asymptotic to N and differ by O(sqrt(N)) (cf. eq. (10) / Remark 2).
struct ScBracket {
  double n_minus = 0.0;
  double n_plus = 0.0;
};
ScBracket sc_bracket(std::uint64_t samples, std::uint64_t collisions);

/// Maximum-likelihood size estimate by bisection on the score. Requires
/// collisions >= 1 and samples > collisions.
double sc_ml_estimate(std::uint64_t samples, std::uint64_t collisions,
                      double tol = 1e-9);

/// The closed-form asymptotically-efficient estimate C^2 / (2 ell)
/// (Remark 2; used by the paper's own simulations).
double sc_simple_estimate(std::uint64_t samples, std::uint64_t collisions);

/// Asymptotic confidence interval around the ML estimate. The Fisher
/// information is I(N) ~ ell / N^2 (Lemma 2), so the estimate's standard
/// error is ~ N_hat / sqrt(ell); the interval is
/// N_hat * (1 -+ z/sqrt(ell)), clamped below at the distinct-sample count.
struct ScInterval {
  double lower = 0.0;
  double estimate = 0.0;
  double upper = 0.0;
};
ScInterval sc_confidence_interval(std::uint64_t samples,
                                  std::uint64_t collisions, double z = 1.96);

/// One Sample & Collide measurement.
struct ScEstimate {
  double ml = 0.0;              ///< ML estimate
  double simple = 0.0;          ///< C^2/(2 ell)
  double n_minus = 0.0;         ///< lower bracket
  double n_plus = 0.0;          ///< upper bracket
  std::uint64_t samples = 0;    ///< C_ell
  std::uint64_t hops = 0;       ///< total walk hops == probe messages
  std::uint64_t replies = 0;    ///< sample-report messages (== samples)
};

/// Orchestrates CTRW sampling until `ell` collisions, then estimates N.
template <OverlayTopology G>
class SampleCollideEstimator {
 public:
  /// `timer` is the CTRW horizon (see recommended_ctrw_timer); `ell` is the
  /// accuracy parameter (relative MSE ~ 1/ell).
  SampleCollideEstimator(const G& graph, NodeId origin, double timer,
                         std::size_t ell, Rng rng)
      : sampler_(graph, timer, rng), origin_(origin), ell_(ell) {
    OVERCOUNT_EXPECTS(ell >= 1);
  }

  NodeId origin() const noexcept { return origin_; }
  std::size_t ell() const noexcept { return ell_; }
  std::uint64_t total_hops() const noexcept { return sampler_.total_hops(); }

  /// Runs one full measurement (fresh collision state).
  ScEstimate estimate() { return estimate(NullProbe{}); }

  /// Same, observed by a walk probe (obs/probe.hpp): the probe sees every
  /// CTRW sampling walk plus an on_collision(gap) event per collision,
  /// where `gap` is the number of samples since the previous collision (the
  /// collision-interarrival distribution whose 1/sqrt(N) scaling is the
  /// estimator's whole signal). Probes never touch the Rng, so probed and
  /// plain measurements are bit-identical.
  template <WalkProbe P>
  ScEstimate estimate(P&& probe) {
    // One span per measurement plus an instant per collision; trace calls
    // never touch the Rng, so traced runs stay bit-identical (obs/trace.hpp).
    TraceSpan measurement_span("sc", "sc.estimate", "ell",
                               static_cast<std::uint64_t>(ell_));
    const bool tracing = trace_active();
    CollisionTracker tracker;
    const std::uint64_t hops_before = sampler_.total_hops();
    [[maybe_unused]] std::uint64_t previous_collision_at = 0;
    while (tracker.collisions() < ell_) {
      const bool collided = tracker.feed(sampler_.sample(origin_, probe).node);
      if (collided) {
        if constexpr (probe_enabled_v<P>)
          probe.on_collision(tracker.samples() - previous_collision_at);
        if (tracing)
          trace_instant("sc", "sc.collision", "gap",
                        tracker.samples() - previous_collision_at);
        previous_collision_at = tracker.samples();
      }
    }
    ScEstimate out;
    out.samples = tracker.samples();
    out.hops = sampler_.total_hops() - hops_before;
    out.replies = tracker.samples();
    out.ml = sc_ml_estimate(tracker.samples(), tracker.collisions());
    out.simple = sc_simple_estimate(tracker.samples(), tracker.collisions());
    const auto bracket = sc_bracket(tracker.samples(), tracker.collisions());
    out.n_minus = bracket.n_minus;
    out.n_plus = bracket.n_plus;
    return out;
  }

 private:
  CtrwSampler<G> sampler_;
  NodeId origin_;
  std::size_t ell_;
};

/// Expected messages for one S&C measurement (Section 4.3):
/// sqrt(2 ell N) samples, each costing about timer * d_bar hops.
double sc_expected_messages(double n, std::size_t ell, double timer,
                            double avg_degree);

}  // namespace overcount
