// Watchdogs: liveness and saturation detection for the long-running parts
// of the system — BSP supersteps (ShardedWalkEngine), mailbox backlog, and
// the serve layer's DeadlineQueue.
//
// Two primitives:
//  * Heartbeat — a wait-free progress beacon the monitored code ticks
//    (`beat()` once per superstep / batch / broker dispatch). Costs two
//    relaxed stores per tick.
//  * Watchdog — a cold-side poller that evaluates registered checks either
//    from its own background thread (start()) or on demand (poll_once(),
//    which tests drive with an injected clock). A check that fails raises a
//    kCritical HealthEvent through the given HealthCenter — wiring that
//    center into a FlightRecorder::auto_dump_on() turns any trip into a
//    post-mortem bundle.
//
// Checks raise ONCE per episode: a heartbeat check re-arms when a new beat
// arrives, a level check re-arms when the value drops below its threshold.
// Nothing here touches any Rng; a watched run is bit-identical to an
// unwatched one.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "obs/health/health.hpp"

namespace overcount {

/// Microseconds on the process-wide steady clock shared by every Heartbeat
/// and Watchdog (epoch = first use).
std::uint64_t health_now_us() noexcept;

/// Progress beacon. `arm()` marks the start of a monitored activity (a
/// batch), `beat()` marks forward progress inside it (a superstep), and
/// `disarm()` marks completion — a silent heartbeat only counts as a stall
/// while armed, so an idle engine never alarms.
class Heartbeat {
 public:
  void arm() noexcept {
    last_beat_us_.store(health_now_us(), std::memory_order_relaxed);
    armed_.store(true, std::memory_order_release);
  }
  void disarm() noexcept { armed_.store(false, std::memory_order_release); }
  void beat() noexcept { beat_at(health_now_us()); }
  /// Test hook: a beat stamped with an explicit clock reading.
  void beat_at(std::uint64_t now_us) noexcept {
    beats_.fetch_add(1, std::memory_order_relaxed);
    last_beat_us_.store(now_us, std::memory_order_relaxed);
  }

  bool armed() const noexcept { return armed_.load(std::memory_order_acquire); }
  std::uint64_t beats() const noexcept {
    return beats_.load(std::memory_order_relaxed);
  }
  std::uint64_t last_beat_us() const noexcept {
    return last_beat_us_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<bool> armed_{false};
  std::atomic<std::uint64_t> beats_{0};
  std::atomic<std::uint64_t> last_beat_us_{0};
};

struct WatchdogConfig {
  std::uint64_t poll_period_us = 100'000;  ///< background-thread cadence
  /// Injectable clock for deterministic tests; defaults to health_now_us.
  std::function<std::uint64_t()> now_us;
};

/// Evaluates registered checks and raises kCritical HealthEvents on trips.
/// Register every check BEFORE start(); registration is not thread-safe
/// against a running poll thread.
class Watchdog {
 public:
  explicit Watchdog(HealthCenter* health, WatchdogConfig config = {});
  ~Watchdog();

  Watchdog(const Watchdog&) = delete;
  Watchdog& operator=(const Watchdog&) = delete;

  /// Trips `code` when `hb` is armed and has not beaten for `stall_after_us`
  /// microseconds. The heartbeat must outlive the watchdog.
  void watch_heartbeat(std::string code, std::string subsystem,
                       const Heartbeat* hb, std::uint64_t stall_after_us);

  /// Trips `code` when `value()` has been >= `threshold` continuously for
  /// `sustain_us` microseconds (sustain 0 trips on first sight). Used for
  /// mailbox backlog and DeadlineQueue saturation, where a momentary spike
  /// is normal and only a sustained plateau is a problem.
  void watch_level(std::string code, std::string subsystem,
                   std::function<double()> value, double threshold,
                   std::uint64_t sustain_us);

  /// Spawns the background poll thread (idempotent).
  void start();
  /// Stops and joins the poll thread (idempotent; also run by ~Watchdog).
  void stop();

  /// Evaluates every check once at the injected clock's current reading;
  /// returns the number of events raised. start() calls this on a cadence —
  /// tests call it directly.
  std::size_t poll_once();

  std::uint64_t trips() const noexcept {
    return trips_.load(std::memory_order_relaxed);
  }

 private:
  struct HeartbeatCheck {
    std::string code;
    std::string subsystem;
    const Heartbeat* hb;
    std::uint64_t stall_after_us;
    std::uint64_t tripped_at_beats = 0;  ///< beats() when last tripped
    bool tripped = false;
  };
  struct LevelCheck {
    std::string code;
    std::string subsystem;
    std::function<double()> value;
    double threshold;
    std::uint64_t sustain_us;
    std::uint64_t exceeding_since_us = 0;  ///< 0 = currently below threshold
    bool tripped = false;
  };

  HealthCenter* health_;
  WatchdogConfig config_;
  std::vector<HeartbeatCheck> heartbeat_checks_;
  std::vector<LevelCheck> level_checks_;
  std::atomic<std::uint64_t> trips_{0};

  std::mutex stop_mutex_;
  std::condition_variable stop_cv_;
  bool stopping_ = false;  // guarded by stop_mutex_
  std::thread thread_;
};

}  // namespace overcount
