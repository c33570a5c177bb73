// Correctness checks the benchmark runs on every round's outputs.
//
// Each check states a property or an independent total, never a stored
// copy of an earlier run's output, and appends one line per violation to
// a Failures list (empty == correct). tests/checks_test.cc corrupts one
// output at a time to show that every check can fail.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "analysis/inference.h"
#include "harness/scenario.h"

namespace perfbench {

using Failures = std::vector<std::string>;

// Every scenario runner ends with the simulator's invariant checker
// (link conservation, clock order, ...), whose violations add to the
// process-wide invariant_violations_total(). A round is correct only if
// that count did not grow across it.
void check_invariants(const std::string& what, uint64_t before,
                      uint64_t after, Failures* out);

// --- paper_calls ------------------------------------------------------------

// Table 2 of the paper: unconstrained two-party call, C1 mean up/down
// utilization in Mbps.
struct Table2Row {
  const char* profile;
  double up_mbps;
  double down_mbps;
};
inline constexpr Table2Row kTable2[] = {
    {"meet", 0.95, 0.84}, {"teams", 1.40, 1.86}, {"zoom", 0.78, 0.95}};
// Allowed ratio between a run's rate and the paper's mean: got must lie
// in [paper / f, paper * f]. Over 240 seeds Meet and Zoom spanned
// 0.76-1.04 and 0.65-1.01 Mbps (f = 1.6 holds them). Teams' profile draws
// each run's rate lognormally (nominal_run_sd 0.16, encoder_run_sd 0.10)
// and adds encoder stalls, so 240 seeds spanned 0.60-1.67 Mbps (f = 2.5).
// Teams' downlink is a documented modeling gap (EXPERIMENTS.md, known gap
// 5: the model's mean downlink is ~1.3, never the paper's 1.86, because
// per run it receives about what the far end sends), so it is held to the
// paper's Teams uplink figure instead.
inline constexpr double kTable2Band = 1.6;
inline constexpr double kTable2TeamsBand = 2.5;
// Blind FPS from a captured pcap vs the getStats() truth.
inline constexpr double kBlindFpsTolerance = 0.10;

void check_table2(const vca::TwoPartyConfig& cfg,
                  const vca::TwoPartyResult& r, Failures* out);
// Mean utilization never exceeds the shaped capacity, per direction.
void check_shaped_utilization(const vca::TwoPartyConfig& cfg,
                              const vca::TwoPartyResult& r, Failures* out);
// Incumbent share + competitor share <= 1, per direction.
void check_competition_shares(const vca::CompetitionConfig& cfg,
                              const vca::CompetitionResult& r, Failures* out);
// Known fault: RateMeter::mean_rate (core/timeseries.h) averages over the
// buckets the meter holds, which end at the last bucket that saw a packet,
// instead of over [from, to). A flow that falls silent before the
// competition window ends is averaged over a shorter span, so its share is
// inflated and the share sum can exceed 1. True when one of the cell's
// rate series does not cover the whole window, the condition under which
// the fault changes a share.
bool share_window_truncated(const vca::CompetitionConfig& cfg,
                            const vca::CompetitionResult& r);
// |blind - truth| <= 10% of truth, and both nonzero.
void check_blind_fps(const std::string& label, double blind_fps,
                     double truth_fps, Failures* out);

// Median nonzero per-second getStats() FPS after `from`.
double truth_median_fps(const std::vector<vca::SecondStats>& seconds,
                        vca::Duration from);

// --- city_conference --------------------------------------------------------

// Members present at the end, from the config alone: everyone minus the
// early leavers whose leave time falls inside the run, minus late joiners
// whose join time does not.
int expected_active_at_end(const vca::ConferenceConfig& cfg);
void check_conference(const vca::ConferenceConfig& cfg,
                      const vca::ConferenceResult& r, Failures* out);

// --- stream_churn -----------------------------------------------------------

inline constexpr double kHotFps = 30.0;            // the generator's rate
inline constexpr double kHotFpsTolerance = 0.05;   // relative

struct ChurnOutcome {
  int64_t generated_packets = 0;  // counted by the benchmark while generating
  int64_t ingested_packets = 0;   // StreamingAnalyzer::Stats::packets
  int64_t final_reports = 0;      // report-sink calls
  int64_t promoted = 0;           // FlowTable::Stats::promoted
  int expected_hot_flows = 0;
  std::vector<double> hot_fps;    // median_fps of every hot-flow report
  bool heap_tracked = false;      // the counting allocator is linked
  int64_t peak_live_bytes = 0;    // analyzer's peak live heap
  int64_t cap_bytes = 0;
};
void check_churn(const ChurnOutcome& c, Failures* out);

// The replayed pcap: streaming (bounded) and offline per-flow reports are
// equal flow for flow, and the primary video's FPS from both is within
// 10% of the getStats() truth.
void check_replay(const std::vector<vca::StreamReport>& streaming,
                  const vca::TraceAnalysis& offline, double truth_fps,
                  Failures* out);

}  // namespace perfbench
