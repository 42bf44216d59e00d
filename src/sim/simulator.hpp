// Simulation driver: warm-up, steady-state measurement window, deadlock
// watchdog. Multi-seed averaging lives in SweepRunner::run_point.
#pragma once

#include <memory>
#include <vector>

#include "sim/network.hpp"

namespace flexnet {

struct SimResult {
  double offered = 0.0;   ///< measured offered load, phits/node/cycle
  double accepted = 0.0;  ///< accepted (delivered) load, phits/node/cycle
  double avg_latency = 0.0;  ///< cycles, generation to delivery
  double avg_hops = 0.0;
  double request_latency = 0.0;  ///< request-class average (reactive runs)
  double reply_latency = 0.0;
  /// Latency percentiles from the measurement window's log2 histogram
  /// (deterministic estimates, see telemetry/histogram.hpp); the max is
  /// the exact largest observed latency. Mirrored in the checkpoint
  /// journal record and result_bits_equal.
  double latency_p50 = 0.0;
  double latency_p99 = 0.0;
  double latency_max = 0.0;
  std::int64_t consumed_packets = 0;
  bool deadlock = false;
  Cycle cycles = 0;
};

class TraceWriter;

class Simulator {
 public:
  explicit Simulator(const SimConfig& config) : config_(config) {}

  /// Runs warmup + measurement; returns steady-state results. A run is
  /// declared deadlocked (result.deadlock) when no packet moves for
  /// config.watchdog cycles while packets sit in the network.
  SimResult run();

  /// Overrides the network's telemetry runtime enable for this run
  /// (default: follow the FLEXNET_TELEMETRY environment variable).
  /// A no-op when telemetry is compiled out.
  Simulator& set_telemetry(bool on) {
    telemetry_override_ = on ? 1 : 0;
    return *this;
  }

  /// Emits per-packet lifetime spans of this run into `trace` under
  /// process id `pid` (see telemetry/trace.hpp). Null disables.
  Simulator& set_trace(TraceWriter* trace, int pid) {
    trace_ = trace;
    trace_pid_ = pid;
    return *this;
  }

  /// Access to the network after run() for inspection in tests.
  Network* network() { return network_.get(); }

 private:
  SimConfig config_;
  int telemetry_override_ = -1;
  TraceWriter* trace_ = nullptr;
  int trace_pid_ = 0;
  std::unique_ptr<Network> network_;
};

}  // namespace flexnet
