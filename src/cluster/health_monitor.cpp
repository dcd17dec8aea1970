#include "cluster/health_monitor.h"

#include <algorithm>
#include <limits>

#include "common/error.h"
#include "common/strings.h"

namespace db::cluster {

ReplicaHealthMonitor::ReplicaHealthMonitor(int replicas,
                                           HealthOptions options)
    : options_(options) {
  DB_CHECK_MSG(replicas >= 1, "health monitor needs at least one replica");
  DB_CHECK_MSG(options_.heartbeat_interval_cycles >= 1,
               "heartbeat interval must be >= 1 cycle");
  DB_CHECK_MSG(options_.suspect_after_misses >= 1 &&
                   options_.down_after_misses >=
                       options_.suspect_after_misses,
               "heartbeat-miss thresholds must satisfy "
               "1 <= suspect <= down");
  DB_CHECK_MSG(options_.failures_to_suspect >= 1 &&
                   options_.failures_to_down >=
                       options_.failures_to_suspect,
               "failure thresholds must satisfy 1 <= suspect <= down");
  DB_CHECK_MSG(options_.failure_down_cycles >= 1,
               "failure down window must be >= 1 cycle");
  DB_CHECK_MSG(options_.readmit_scrub_cycles >= 0,
               "readmit scrub charge must be >= 0 cycles");
  states_.resize(static_cast<std::size_t>(replicas));
}

void ReplicaHealthMonitor::set_readmit_scrub_cycles(std::int64_t cycles) {
  DB_CHECK_MSG(cycles >= 0, "readmit scrub charge must be >= 0 cycles");
  DB_CHECK_MSG(transitions_.empty(),
               "set the scrub charge before the first report");
  options_.readmit_scrub_cycles = cycles;
}

void ReplicaHealthMonitor::Transition(int replica, std::int64_t cycle,
                                      ReplicaHealth to, const char* cause) {
  State& state = states_[static_cast<std::size_t>(replica)];
  if (to == ReplicaHealth::kHealthy) {
    state.readmit_cycle = 0;
    state.consecutive_failures = 0;
  }
  if (state.health == to) return;
  transitions_.push_back(
      HealthTransition{replica, cycle, state.health, to, cause});
  state.health = to;
}

void ReplicaHealthMonitor::Schedule(State& state, std::int64_t cycle,
                                    ReplicaHealth to, const char* cause) {
  // Insert keeping the pending list sorted by cycle (stable for ties,
  // so the kDown -> kRecovering -> kHealthy chain applies in order even
  // with a zero-length window between two links).
  Pending pending{cycle, to, cause};
  auto it = std::upper_bound(
      state.pending.begin(), state.pending.end(), cycle,
      [](std::int64_t c, const Pending& p) { return c < p.cycle; });
  state.pending.insert(it, pending);
}

void ReplicaHealthMonitor::ScheduleReadmission(State& state,
                                               std::int64_t down_until,
                                               const char* cause) {
  Schedule(state, down_until, ReplicaHealth::kRecovering, cause);
  Schedule(state, down_until + options_.readmit_scrub_cycles,
           ReplicaHealth::kHealthy, "scrub");
  state.readmit_cycle = down_until + options_.readmit_scrub_cycles;
}

void ReplicaHealthMonitor::AdvanceTo(std::int64_t cycle) {
  clock_ = std::max(clock_, cycle);
  for (int r = 0; r < replicas(); ++r) {
    State& state = states_[static_cast<std::size_t>(r)];
    while (!state.pending.empty() &&
           state.pending.front().cycle <= clock_) {
      const Pending pending = state.pending.front();
      state.pending.erase(state.pending.begin());
      Transition(r, pending.cycle, pending.to, pending.cause);
    }
  }
}

void ReplicaHealthMonitor::Flush() {
  for (int r = 0; r < replicas(); ++r) {
    State& state = states_[static_cast<std::size_t>(r)];
    while (!state.pending.empty()) {
      const Pending pending = state.pending.front();
      state.pending.erase(state.pending.begin());
      Transition(r, pending.cycle, pending.to, pending.cause);
    }
  }
}

void ReplicaHealthMonitor::ReportCrash(int replica, std::int64_t cycle,
                                       std::int64_t down_cycles) {
  DB_CHECK(replica >= 0 && replica < replicas());
  DB_CHECK_MSG(down_cycles >= 1, "crash needs a positive down window");
  State& state = states_[static_cast<std::size_t>(replica)];
  // Record scheduled transitions that precede the crash, then let the
  // crash supersede the rest of the plan (a dead replica's hang
  // recovery never happens).
  while (!state.pending.empty() && state.pending.front().cycle <= cycle) {
    const Pending pending = state.pending.front();
    state.pending.erase(state.pending.begin());
    Transition(replica, pending.cycle, pending.to, pending.cause);
  }
  state.pending.clear();
  state.consecutive_failures = 0;
  Transition(replica, cycle, ReplicaHealth::kDown, "crash");
  ScheduleReadmission(state, cycle + down_cycles, "crash");
}

void ReplicaHealthMonitor::ReportUnresponsive(int replica,
                                              std::int64_t from,
                                              std::int64_t until) {
  DB_CHECK(replica >= 0 && replica < replicas());
  DB_CHECK_MSG(until > from, "unresponsive window must be non-empty");
  State& state = states_[static_cast<std::size_t>(replica)];
  const std::int64_t hb = options_.heartbeat_interval_cycles;
  // Heartbeats tick on multiples of the interval; the first one the
  // hang can miss is the first tick strictly after `from`.
  std::int64_t tick = (from / hb + 1) * hb;
  int misses = 0;
  bool went_down = false;
  for (; tick < until; tick += hb) {
    ++misses;
    if (misses == options_.suspect_after_misses)
      Schedule(state, tick, ReplicaHealth::kSuspect, "hang");
    if (misses == options_.down_after_misses) {
      Schedule(state, tick, ReplicaHealth::kDown, "hang");
      went_down = true;
      break;
    }
  }
  if (misses == 0) return;  // shorter than one heartbeat: unobserved
  // Recovery is observed at the first heartbeat at or after the window
  // ends; a replica that went down pays the scrub-and-readmit pass.
  const std::int64_t recovered = ((until + hb - 1) / hb) * hb;
  if (went_down)
    ScheduleReadmission(state, recovered, "heartbeat");
  else
    Schedule(state, recovered, ReplicaHealth::kHealthy, "heartbeat");
}

void ReplicaHealthMonitor::ReportFailure(int replica, std::int64_t cycle) {
  DB_CHECK(replica >= 0 && replica < replicas());
  AdvanceTo(cycle);
  State& state = states_[static_cast<std::size_t>(replica)];
  ++state.consecutive_failures;
  if (state.health == ReplicaHealth::kHealthy &&
      state.consecutive_failures >= options_.failures_to_suspect)
    Transition(replica, cycle, ReplicaHealth::kSuspect, "failures");
  if (state.health == ReplicaHealth::kSuspect &&
      state.consecutive_failures >= options_.failures_to_down) {
    state.consecutive_failures = 0;
    Transition(replica, cycle, ReplicaHealth::kDown, "failures");
    ScheduleReadmission(state, cycle + options_.failure_down_cycles,
                        "heartbeat");
  }
}

void ReplicaHealthMonitor::ReportSuccess(int replica, std::int64_t cycle) {
  DB_CHECK(replica >= 0 && replica < replicas());
  State& state = states_[static_cast<std::size_t>(replica)];
  state.consecutive_failures = 0;
  // Only a failure-caused suspicion lifts on success; scheduled windows
  // (hangs, crash recovery) run their course.
  if (state.health == ReplicaHealth::kSuspect && state.pending.empty())
    Transition(replica, cycle, ReplicaHealth::kHealthy, "success");
}

ReplicaHealth ReplicaHealthMonitor::state(int replica) const {
  DB_CHECK(replica >= 0 && replica < replicas());
  return states_[static_cast<std::size_t>(replica)].health;
}

std::int64_t ReplicaHealthMonitor::readmit_cycle(int replica) const {
  DB_CHECK(replica >= 0 && replica < replicas());
  return states_[static_cast<std::size_t>(replica)].readmit_cycle;
}

ReplicaHealth ReplicaHealthMonitor::StateAt(int replica,
                                            std::int64_t cycle) const {
  DB_CHECK(replica >= 0 && replica < replicas());
  ReplicaHealth health = ReplicaHealth::kHealthy;
  for (const HealthTransition& t : transitions_) {
    if (t.replica != replica || t.cycle > cycle) continue;
    health = t.to;
  }
  return health;
}

BreakerOptions ParseBreakerSpec(const std::string& spec) {
  BreakerOptions options;
  options.enabled = true;
  for (const std::string& field : Split(spec, ',')) {
    const std::string_view trimmed = Trim(field);
    if (trimmed.empty()) continue;
    const auto eq = trimmed.find('=');
    if (eq == std::string_view::npos)
      throw Error("breaker spec: expected key=value, got '" +
                  std::string(trimmed) + "'");
    const std::string key = std::string(Trim(trimmed.substr(0, eq)));
    const std::string value = std::string(Trim(trimmed.substr(eq + 1)));
    if (key == "failures") {
      options.failure_threshold = static_cast<int>(
          ParseInt(value, 1, std::numeric_limits<int>::max(),
                   "breaker spec 'failures'"));
    } else if (key == "cooldown") {
      // Far from int64 overflow once added to a cycle count.
      options.cooldown_cycles =
          ParseInt(value, 1, 1'000'000'000'000, "breaker spec 'cooldown'");
    } else {
      throw Error("breaker spec: unknown key '" + key +
                  "' (failures, cooldown)");
    }
  }
  return options;
}

CircuitBreaker::CircuitBreaker(int replicas, BreakerOptions options)
    : options_(options) {
  DB_CHECK_MSG(replicas >= 1, "breaker needs at least one replica");
  if (options_.enabled) {
    DB_CHECK_MSG(options_.failure_threshold >= 1,
                 "breaker failure threshold must be >= 1");
    DB_CHECK_MSG(options_.cooldown_cycles >= 1,
                 "breaker cooldown must be >= 1 cycle");
  }
  states_.resize(static_cast<std::size_t>(replicas));
}

BreakerState CircuitBreaker::StateAt(int replica,
                                     std::int64_t cycle) const {
  DB_CHECK(replica >= 0 &&
           replica < static_cast<int>(states_.size()));
  const State& state = states_[static_cast<std::size_t>(replica)];
  if (!options_.enabled || !state.opened) return BreakerState::kClosed;
  return cycle < state.open_until ? BreakerState::kOpen
                                  : BreakerState::kHalfOpen;
}

bool CircuitBreaker::Allows(int replica, std::int64_t cycle) const {
  return StateAt(replica, cycle) != BreakerState::kOpen;
}

void CircuitBreaker::RecordFailure(int replica, std::int64_t cycle) {
  if (!options_.enabled) return;
  DB_CHECK(replica >= 0 &&
           replica < static_cast<int>(states_.size()));
  State& state = states_[static_cast<std::size_t>(replica)];
  if (state.opened) {
    // A failed half-open trial re-opens with a fresh cooldown; a
    // failure observed while already open (liveness fallback routed
    // through anyway) leaves the episode as-is.
    if (cycle >= state.open_until) {
      state.open_until = cycle + options_.cooldown_cycles;
      ++opens_;
    }
    return;
  }
  if (++state.consecutive_failures >= options_.failure_threshold) {
    state.opened = true;
    state.open_until = cycle + options_.cooldown_cycles;
    state.consecutive_failures = 0;
    ++opens_;
  }
}

void CircuitBreaker::RecordSuccess(int replica, std::int64_t cycle) {
  if (!options_.enabled) return;
  DB_CHECK(replica >= 0 &&
           replica < static_cast<int>(states_.size()));
  State& state = states_[static_cast<std::size_t>(replica)];
  state.consecutive_failures = 0;
  if (state.opened && cycle >= state.open_until)
    state.opened = false;  // the half-open trial succeeded
}

}  // namespace db::cluster
